//===- support/Json.h - Minimal JSON emission for bench dumps -------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small streaming JSON writer so the bench harnesses can dump their
/// tables in a machine-readable form next to the human-readable ones
/// (e.g. bench_fuzz_throughput's BENCH_fuzz.json) and future PRs can
/// track trajectories without scraping text tables — plus a matching
/// minimal reader (JsonValue / parseJson) used by the trace tests to
/// validate the Chrome trace-event dumps the tracing layer emits.
///
/// \code
///   JsonWriter J(OS);
///   J.beginObject();
///   J.key("runs").beginArray();
///   J.beginObject().key("app").value("tpcc").key("ms").value(12.5);
///   J.endObject();
///   J.endArray();
///   J.endObject();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_SUPPORT_JSON_H
#define TXDPOR_SUPPORT_JSON_H

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace txdpor {

/// Streaming JSON writer with automatic comma/indent management. Values
/// must be emitted in valid JSON positions (asserted in debug builds).
class JsonWriter {
public:
  explicit JsonWriter(std::ostream &OS) : OS(OS) {}

  JsonWriter &beginObject();
  JsonWriter &endObject();
  JsonWriter &beginArray();
  JsonWriter &endArray();

  /// Emits an object key; must be followed by exactly one value.
  JsonWriter &key(const std::string &K);

  JsonWriter &value(const std::string &V);
  JsonWriter &value(const char *V);
  JsonWriter &value(double V);
  /// Emits \p V with exactly \p Decimals fraction digits ("%.*f") — for
  /// values where %.6g would lose precision, e.g. the Chrome trace
  /// exporter's microsecond timestamps late in a long run.
  JsonWriter &valueFixed(double V, int Decimals);
  JsonWriter &value(uint64_t V);
  JsonWriter &value(int64_t V);
  JsonWriter &value(int V) { return value(static_cast<int64_t>(V)); }
  JsonWriter &value(unsigned V) { return value(static_cast<uint64_t>(V)); }
  JsonWriter &value(bool V);

  /// Escapes \p S per RFC 8259 (quotes, backslash, control characters).
  static std::string escape(const std::string &S);

private:
  void beforeValue();
  void newline();

  std::ostream &OS;
  /// One frame per open container: true = object, false = array.
  std::vector<bool> IsObject;
  /// Whether the current container already holds an element.
  std::vector<bool> HasElement;
  bool PendingKey = false;
};

/// A parsed JSON document node: a tagged union over the six RFC 8259
/// value kinds, with numbers held as double (ample for the trace dumps
/// and bench files this project reads back).
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() : K(Kind::Null) {}
  static JsonValue makeBool(bool B);
  static JsonValue makeNumber(double N);
  static JsonValue makeString(std::string S);
  static JsonValue makeArray();
  static JsonValue makeObject();

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool asBool() const { return B; }
  double asNumber() const { return Num; }
  const std::string &asString() const { return Str; }

  /// Array elements (empty unless kind() == Array).
  const std::vector<JsonValue> &elements() const { return Elems; }
  std::vector<JsonValue> &elements() { return Elems; }

  /// Object members in document order (empty unless kind() == Object).
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return Members;
  }
  std::vector<std::pair<std::string, JsonValue>> &members() {
    return Members;
  }

  /// First member named \p Key, or null when absent / not an object.
  const JsonValue *find(const std::string &Key) const;

private:
  Kind K;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Elems;
  std::vector<std::pair<std::string, JsonValue>> Members;
};

/// Parses \p Text as one JSON document (trailing whitespace allowed,
/// trailing garbage rejected). Returns the root value, or nullptr with a
/// position-annotated message in \p Error (when non-null).
std::unique_ptr<JsonValue> parseJson(const std::string &Text,
                                     std::string *Error = nullptr);

} // namespace txdpor

#endif // TXDPOR_SUPPORT_JSON_H

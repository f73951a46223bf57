//===- tools/txdpor_cli.cpp - Command-line front end ----------------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end over the library: generate a benchmark client
/// program, explore it with any of the paper's algorithms (or the DFS /
/// random-walk baselines), print statistics, optionally dump histories,
/// classify outputs against a stronger level with violation explanations,
/// and export witnesses as Graphviz.
///
/// Examples:
///   txdpor-cli --app tpcc --sessions 3 --txns 3 --base CC
///   txdpor-cli --app courseware --base CC --classify SER --print-witness
///   txdpor-cli --app twitter --walks 500
///   txdpor-cli --app wikipedia --base RC --filter CC --budget-ms 5000
///   txdpor-cli --app tpcc --sessions 4 --txns 3 --threads 8
///
/// The `fuzz` verb runs the differential fuzzer (src/fuzz/): seeded
/// random programs/histories through redundant explorers and checkers,
/// disagreements delta-debugged to litmus repro files:
///   txdpor-cli fuzz --seed 7 --iters 5000 --shape sql --out repros/
///
//===----------------------------------------------------------------------===//

#include "apps/Applications.h"
#include "consistency/Explain.h"
#include "consistency/LevelParse.h"
#include "consistency/StreamingChecker.h"
#include "core/Enumerate.h"
#include "core/RandomWalk.h"
#include "fuzz/Fuzzer.h"
#include "history/Dot.h"
#include "history/Serialize.h"
#include "parallel/ParallelExplorer.h"
#include "support/Json.h"
#include "support/MemoryProbe.h"
#include "support/Parse.h"
#include "support/TablePrinter.h"
#include "trace/ChromeTrace.h"
#include "trace/Counters.h"
#include "trace_io/TraceGen.h"
#include "trace_io/TraceReader.h"

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace txdpor;

namespace {

struct CliOptions {
  AppKind App = AppKind::Tpcc;
  unsigned Sessions = 3;
  unsigned Txns = 3;
  uint64_t Seed = 1;
  IsolationLevel Base = IsolationLevel::CausalConsistency;
  /// Per-session base levels from --levels; empty = uniform Base.
  std::vector<std::pair<unsigned, IsolationLevel>> Levels;
  bool MixedWorkload = false;
  std::optional<IsolationLevel> Filter;
  std::optional<IsolationLevel> Classify;
  bool UseDfs = false;
  std::optional<uint64_t> Walks;
  DedupMode Dedup = DedupMode::Off;
  int64_t BudgetMs = 30000;
  unsigned Threads = 1;
  bool PrintProgram = false;
  bool PrintHistories = false;
  bool PrintWitness = false;
  bool Minimize = false;
  std::string DotFile;
  std::string SaveFile;
  std::string TraceFile;
  std::string TraceCategories;
};

/// RAII tracing session shared by both verbs: `--trace FILE` opens FILE
/// up front (a bad path is a diagnostic before any exploration runs),
/// enables the selected categories, and dumps Chrome trace-event JSON on
/// every exit path — including the --walks/--dfs early returns and runs
/// whose category mask recorded nothing (still a valid, empty trace).
class TraceSession {
public:
  TraceSession() = default;
  TraceSession(const TraceSession &) = delete;
  TraceSession &operator=(const TraceSession &) = delete;

  /// Validates and arms the session; false with a diagnostic on a bad
  /// path or an unknown category. With an empty \p File only the stray
  /// --trace-categories check fires.
  bool init(const std::string &File, const std::string &CategoriesSpec,
            std::vector<std::pair<std::string, std::string>> Metadata) {
    if (File.empty()) {
      if (!CategoriesSpec.empty()) {
        std::cerr << "error: --trace-categories requires --trace\n";
        return false;
      }
      return true;
    }
    uint32_t Mask = trace::AllCategories;
    if (!CategoriesSpec.empty()) {
      std::string Bad;
      std::optional<uint32_t> Parsed =
          trace::parseCategories(CategoriesSpec, &Bad);
      if (!Parsed) {
        std::cerr << "error: unknown trace category '" << Bad
                  << "' (expected a comma-separated list of explore, swap, "
                     "check, replay, parallel, fuzz, or all)\n";
        return false;
      }
      Mask = *Parsed;
    }
    Out.open(File);
    if (!Out) {
      std::cerr << "error: cannot open '" << File << "' for writing\n";
      return false;
    }
    this->File = File;
    Meta = std::move(Metadata);
    trace::setThreadName("main");
    trace::start(Mask);
    Active = true;
    return true;
  }

  ~TraceSession() {
    if (!Active)
      return;
    trace::stop();
    trace::Snapshot Snap = trace::snapshot();
    trace::ChromeTraceOptions Opts;
    Opts.Counters = trace::counterSnapshot();
    Opts.Metadata = std::move(Meta);
    trace::writeChromeTrace(Out, Snap, Opts);
    std::cout << "wrote " << File << " (" << Snap.totalRecords()
              << " trace records";
    if (Snap.totalDropped())
      std::cout << ", " << Snap.totalDropped() << " dropped";
    std::cout << ")\n";
  }

private:
  std::ofstream Out;
  std::string File;
  std::vector<std::pair<std::string, std::string>> Meta;
  bool Active = false;
};

/// The original invocation, re-quoted into one string for the trace's
/// otherData metadata.
std::string joinCommandLine(int Argc, char **Argv) {
  std::ostringstream OS;
  for (int I = 0; I != Argc; ++I)
    OS << (I ? " " : "") << Argv[I];
  return OS.str();
}

void printUsage() {
  std::cout <<
      "txdpor-cli: stateless model checking for transactional programs\n"
      "\n"
      "  fuzz [...]          run the differential fuzzer; see\n"
      "                      txdpor-cli fuzz --help\n"
      "  check-trace [...]   check a trace of committed transactions online;\n"
      "                      see txdpor-cli check-trace --help\n"
      "  gen-trace [...]     generate a synthetic trace; see\n"
      "                      txdpor-cli gen-trace --help\n"
      "  --app NAME          shoppingCart|twitter|courseware|wikipedia|\n"
      "                      tpcc|identical (identical = every session\n"
      "                      runs the same transaction sequence)\n"
      "  --sessions N        sessions in the client program (default 3)\n"
      "  --txns N            transactions per session (default 3)\n"
      "  --seed N            client-generation seed (default 1)\n"
      "  --base LEVEL        explore-ce base: true|RC|RA|CC (default CC)\n"
      "  --levels SPEC       per-session base levels (mixed isolation),\n"
      "                      e.g. S0=CC,S1=RC or positional CC,RC,CC;\n"
      "                      unnamed sessions run at --base\n"
      "  --mixed-workload    tag the client's read-only sessions RC and\n"
      "                      its writers CC (per-session semantics)\n"
      "  --filter LEVEL      explore-ce* filter: RC|RA|CC|SI|SER\n"
      "  --classify LEVEL    classify outputs against LEVEL, explain the\n"
      "                      first violation\n"
      "  --dfs               run the no-POR DFS baseline instead\n"
      "  --walks N           run N random-walk samples instead\n"
      "  --dedup[=MODE]      subtree dedup: off|symmetry (default off;\n"
      "                      bare --dedup means symmetry). symmetry\n"
      "                      explores session-renaming-isomorphic\n"
      "                      subtrees once\n"
      "  --budget-ms N       wall-clock budget (default 30000)\n"
      "  --threads N         worker threads for the exploration (default 1\n"
      "                      = sequential; the output history set is\n"
      "                      identical for every N)\n"
      "  --print-program     dump the generated program\n"
      "  --print-histories   dump every output history\n"
      "  --print-witness     dump the first classified violation\n"
      "  --minimize          shrink the violation witness to its core\n"
      "  --dot FILE          write the first history (or witness) as dot\n"
      "  --save FILE         archive all output histories (text format)\n"
      "  --trace FILE        record a Chrome trace-event JSON of the run\n"
      "                      (open in chrome://tracing or Perfetto)\n"
      "  --trace-categories LIST\n"
      "                      comma-separated subset of explore,swap,check,\n"
      "                      replay,parallel,fuzz (default all)\n";
}

std::optional<IsolationLevel> parseLevel(const std::string &Name) {
  return isolationLevelByName(Name);
}

std::optional<AppKind> parseApp(const std::string &Name) {
  for (AppKind App : AllApps)
    if (Name == appName(App))
      return App;
  return std::nullopt;
}

/// Pulls "--opt value" and "--opt=value" options off argv. Every numeric
/// option goes through the checked support/Parse.h parsers: the previous
/// std::atoi/atoll handling silently turned "--sessions abc" into 0 and
/// wrapped "--sessions -1" to ~4×10⁹ through static_cast<unsigned>.
class OptionReader {
public:
  OptionReader(int Argc, char **Argv) : Argc(Argc), Argv(Argv) {}

  /// True while arguments remain; loads the next option into option().
  bool next() {
    if (++I >= Argc)
      return false;
    Opt = Argv[I];
    Inline.reset();
    size_t Eq = Opt.find('=');
    if (Opt.size() > 2 && Opt[0] == '-' && Opt[1] == '-' &&
        Eq != std::string::npos) {
      Inline = Opt.substr(Eq + 1);
      Opt = Opt.substr(0, Eq);
    }
    return true;
  }
  const std::string &option() const { return Opt; }
  bool is(const char *Name) const { return Opt == Name; }

  /// The "--opt=value" inline value, if one was given. For options whose
  /// value is *optional*: unlike value(), never consumes the next argv
  /// token, so "--dedup --threads 2" parses as a bare --dedup.
  const std::optional<std::string> &inlineValue() const { return Inline; }

  /// For boolean flags: rejects a stray inline value so "--minimize=off"
  /// is a diagnostic, not a silently-enabled flag.
  bool flag() {
    if (!Inline)
      return true;
    std::cerr << "error: " << Opt << " does not take a value (got '"
              << *Inline << "')\n";
    return false;
  }

  /// The option's value ("--opt value" or "--opt=value"); false with a
  /// diagnostic when absent.
  bool value(std::string &Out) {
    if (Inline) {
      Out = *Inline;
      return true;
    }
    if (I + 1 >= Argc) {
      std::cerr << "error: " << Opt << " needs a value\n";
      return false;
    }
    Out = Argv[++I];
    return true;
  }

  /// A value that must parse as a bounded non-negative integer.
  bool unsignedValue(unsigned &Out, uint64_t Max = 0xffffffffu) {
    std::string V;
    if (!value(V))
      return false;
    std::optional<unsigned> Parsed = parseBoundedUInt(V, Max);
    if (!Parsed) {
      std::cerr << "error: " << Opt << " expects a non-negative integer"
                << (Max != 0xffffffffu ? " up to " + std::to_string(Max)
                                       : std::string())
                << ", got '" << V << "'\n";
      return false;
    }
    Out = *Parsed;
    return true;
  }

  /// A value that must parse as a non-negative 64-bit integer.
  bool uint64Value(uint64_t &Out) {
    std::string V;
    if (!value(V))
      return false;
    std::optional<uint64_t> Parsed = parseUInt(V);
    if (!Parsed) {
      std::cerr << "error: " << Opt
                << " expects a non-negative integer, got '" << V << "'\n";
      return false;
    }
    Out = *Parsed;
    return true;
  }

  /// A millisecond budget: a signed parse so "-5" is diagnosed as a
  /// negative budget (not as malformed), then rejected — a negative
  /// value used to flow into Deadline unchecked.
  bool budgetValue(int64_t &Out) {
    std::string V;
    if (!value(V))
      return false;
    std::optional<int64_t> Parsed = parseInt(V);
    if (!Parsed) {
      std::cerr << "error: " << Opt << " expects an integer, got '" << V
                << "'\n";
      return false;
    }
    if (*Parsed < 0) {
      std::cerr << "error: " << Opt << " must be non-negative, got " << V
                << '\n';
      return false;
    }
    Out = *Parsed;
    return true;
  }

  /// An isolation-level value.
  bool levelValue(IsolationLevel &Out) {
    std::string V;
    if (!value(V))
      return false;
    std::optional<IsolationLevel> Level = parseLevel(V);
    if (!Level) {
      std::cerr << "error: unknown isolation level '" << V << "'\n";
      return false;
    }
    Out = *Level;
    return true;
  }

private:
  int Argc;
  char **Argv;
  int I = 0;
  std::string Opt;
  std::optional<std::string> Inline;
};

/// Parses a --levels spec: comma-separated entries, each "S<N>=<LEVEL>"
/// or a bare "<LEVEL>" assigned to the next positional session
/// ("S0=CC,S1=RC" and "CC,RC" are equivalent).
bool parseLevelsSpec(const std::string &Spec,
                     std::vector<std::pair<unsigned, IsolationLevel>> &Out) {
  auto Fail = [&](const std::string &Msg) {
    std::cerr << "error: bad --levels entry: " << Msg << '\n';
    return false;
  };
  unsigned NextPositional = 0;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string Tok = Spec.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    Pos = Comma == std::string::npos ? Spec.size() + 1 : Comma + 1;
    if (Tok.empty())
      return Fail("empty entry");
    std::optional<std::pair<unsigned, IsolationLevel>> Entry;
    if (Tok.find('=') != std::string::npos) {
      // "S<N>=<LEVEL>" — the same entry grammar the litmus level line
      // uses (consistency/IsolationLevel.h).
      Entry = parseSessionLevel(Tok);
      if (!Entry)
        return Fail("'" + Tok + "' (expected S<N>=<LEVEL>)");
    } else {
      std::optional<IsolationLevel> Level = parseLevel(Tok);
      if (!Level)
        return Fail("unknown isolation level '" + Tok + "'");
      Entry = std::make_pair(NextPositional, *Level);
    }
    Out.push_back(*Entry);
    NextPositional = Entry->first + 1;
  }
  return true;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Options) {
  OptionReader R(Argc, Argv);
  while (R.next()) {
    if (R.is("--help") || R.is("-h")) {
      printUsage();
      std::exit(0);
    }
    if (R.is("--app")) {
      std::string Value;
      if (!R.value(Value))
        return false;
      std::optional<AppKind> App = parseApp(Value);
      if (!App) {
        std::cerr << "error: unknown application '" << Value << "'\n";
        return false;
      }
      Options.App = *App;
    } else if (R.is("--sessions")) {
      if (!R.unsignedValue(Options.Sessions, /*Max=*/64))
        return false;
    } else if (R.is("--txns")) {
      if (!R.unsignedValue(Options.Txns, /*Max=*/64))
        return false;
    } else if (R.is("--seed")) {
      if (!R.uint64Value(Options.Seed))
        return false;
    } else if (R.is("--base")) {
      if (!R.levelValue(Options.Base))
        return false;
    } else if (R.is("--filter")) {
      IsolationLevel L;
      if (!R.levelValue(L))
        return false;
      Options.Filter = L;
    } else if (R.is("--classify")) {
      IsolationLevel L;
      if (!R.levelValue(L))
        return false;
      Options.Classify = L;
    } else if (R.is("--levels")) {
      std::string Value;
      if (!R.value(Value) || !parseLevelsSpec(Value, Options.Levels))
        return false;
    } else if (R.is("--mixed-workload")) {
      if (!R.flag())
        return false;
      Options.MixedWorkload = true;
    } else if (R.is("--dfs")) {
      if (!R.flag())
        return false;
      Options.UseDfs = true;
    } else if (R.is("--walks")) {
      uint64_t W;
      if (!R.uint64Value(W))
        return false;
      Options.Walks = W;
    } else if (R.is("--dedup")) {
      if (!R.inlineValue()) {
        Options.Dedup = DedupMode::Symmetry;
      } else if (*R.inlineValue() == "off") {
        Options.Dedup = DedupMode::Off;
      } else if (*R.inlineValue() == "symmetry") {
        Options.Dedup = DedupMode::Symmetry;
      } else {
        std::cerr << "error: --dedup must be one of off, symmetry (got '"
                  << *R.inlineValue() << "')\n";
        return false;
      }
    } else if (R.is("--dedup-max-entries")) {
      std::cerr << "error: --dedup-max-entries is not supported (the dedup "
                   "table is unbounded); use --dedup[=off|symmetry]\n";
      return false;
    } else if (R.is("--budget-ms")) {
      if (!R.budgetValue(Options.BudgetMs))
        return false;
    } else if (R.is("--threads")) {
      if (!R.unsignedValue(Options.Threads, /*Max=*/1024))
        return false;
    } else if (R.is("--print-program")) {
      if (!R.flag())
        return false;
      Options.PrintProgram = true;
    } else if (R.is("--print-histories")) {
      if (!R.flag())
        return false;
      Options.PrintHistories = true;
    } else if (R.is("--print-witness")) {
      if (!R.flag())
        return false;
      Options.PrintWitness = true;
    } else if (R.is("--minimize")) {
      if (!R.flag())
        return false;
      Options.Minimize = true;
    } else if (R.is("--dot")) {
      if (!R.value(Options.DotFile))
        return false;
    } else if (R.is("--save")) {
      if (!R.value(Options.SaveFile))
        return false;
    } else if (R.is("--trace")) {
      if (!R.value(Options.TraceFile))
        return false;
    } else if (R.is("--trace-categories")) {
      if (!R.value(Options.TraceCategories))
        return false;
    } else {
      std::cerr << "error: unknown option '" << R.option() << "'\n";
      printUsage();
      return false;
    }
  }
  if (Options.Base != IsolationLevel::Trivial &&
      !isPrefixClosedCausallyExtensible(Options.Base)) {
    std::cerr << "error: --base must be one of true, RC, RA, CC (§5)\n";
    return false;
  }
  for (const auto &[Session, Level] : Options.Levels) {
    if (!isPrefixClosedCausallyExtensible(Level)) {
      std::cerr << "error: --levels S" << Session
                << " must be one of true, RC, RA, CC (§5; mixes of such "
                   "levels stay causally extensible)\n";
      return false;
    }
    if (Options.Filter && !isWeakerOrEqual(Level, *Options.Filter)) {
      std::cerr << "error: --levels S" << Session
                << " must be weaker than --filter (Cor. 6.2)\n";
      return false;
    }
  }
  if (Options.Filter && !isWeakerOrEqual(Options.Base, *Options.Filter)) {
    std::cerr << "error: --base must be weaker than --filter (Cor. 6.2)\n";
    return false;
  }
  return true;
}

/// False (after a diagnostic) when \p File cannot be written — callers
/// exit non-zero, per the checked-parse convention: an invocation that
/// did not do what was asked never exits 0.
bool writeDot(const std::string &File, const History &H,
              const VarNameFn &Names) {
  DotOptions DotOpts;
  DotOpts.VarNames = &Names;
  std::ofstream OS(File);
  if (!OS) {
    std::cerr << "error: cannot open '" << File << "' for writing\n";
    return false;
  }
  OS << renderDot(H, DotOpts);
  std::cout << "wrote " << File << '\n';
  return true;
}

//===----------------------------------------------------------------------===//
// The fuzz verb
//===----------------------------------------------------------------------===//

void printFuzzUsage() {
  std::cout <<
      "txdpor-cli fuzz: differential fuzzing of explorers and checkers\n"
      "\n"
      "  --seed N            base seed (default 1); every case K runs on\n"
      "                      its own substream derived from (seed, K)\n"
      "  --iters N           cases to run (default 1000)\n"
      "  --time-budget MS    wall-clock cutoff in ms (default 0 = none)\n"
      "  --shape NAME        tiny|default|wide|deep|sql|mixed\n"
      "  --levels SPEC       pin every program case to this per-session\n"
      "                      level mix (e.g. S0=CC,S1=RC): the oracle\n"
      "                      runs its mixed-semantics legs against it\n"
      "  --history-percent P share of raw-history cases (default 50)\n"
      "  --no-minimize       report disagreements without delta debugging\n"
      "  --out DIR           write minimized repros as litmus files here\n"
      "  --max-findings N    stop after N disagreeing cases (default 16)\n"
      "  --mutate NAME       TEST ONLY: weaken a checker axiom\n"
      "                      (weak-cc|weak-ra) to validate the fuzzer\n"
      "                      catches injected bugs\n"
      "  --trace FILE        record a Chrome trace-event JSON of the run\n"
      "  --trace-categories LIST\n"
      "                      comma-separated category subset (default all)\n"
      "\n"
      "exit status: 0 = no disagreements, 2 = disagreements found\n";
}

int fuzzMain(int Argc, char **Argv) {
  fuzz::FuzzOptions Options;
  Options.Log = &std::cout;
  std::string LevelsSpec;
  std::string TraceFile, TraceCategories;
  OptionReader R(Argc, Argv);
  while (R.next()) {
    if (R.is("--help") || R.is("-h")) {
      printFuzzUsage();
      return 0;
    } else if (R.is("--seed")) {
      if (!R.uint64Value(Options.Seed))
        return 1;
    } else if (R.is("--iters")) {
      if (!R.uint64Value(Options.Iterations))
        return 1;
    } else if (R.is("--time-budget")) {
      if (!R.budgetValue(Options.TimeBudgetMs))
        return 1;
    } else if (R.is("--shape")) {
      std::string Value;
      if (!R.value(Value))
        return 1;
      if (!fuzz::programShapeByName(Value)) {
        std::cerr << "error: unknown shape '" << Value << "'; one of:";
        for (const std::string &Name : fuzz::programShapeNames())
          std::cerr << ' ' << Name;
        std::cerr << '\n';
        return 1;
      }
      Options.ShapeName = Value;
    } else if (R.is("--levels")) {
      std::vector<std::pair<unsigned, IsolationLevel>> Entries;
      if (!R.value(LevelsSpec) || !parseLevelsSpec(LevelsSpec, Entries))
        return 1;
      // The fuzzer's mix is dense (one level per session); gaps in a
      // sparse spec run at CC, the oracle's default base. Like the
      // explore verb, pins must stay in the causally-extensible chain —
      // the mixed-semantics legs would otherwise silently clamp an
      // SI/SER pin to CC, soaking a deployment the user never asked for.
      for (const auto &[Session, Level] : Entries) {
        if (!isPrefixClosedCausallyExtensible(Level)) {
          std::cerr << "error: --levels S" << Session
                    << " must be one of true, RC, RA, CC (§5)\n";
          return 1;
        }
        if (Options.ForcedSessionLevels.size() <= Session)
          Options.ForcedSessionLevels.resize(
              Session + 1, IsolationLevel::CausalConsistency);
        Options.ForcedSessionLevels[Session] = Level;
      }
    } else if (R.is("--history-percent")) {
      unsigned P;
      if (!R.unsignedValue(P, /*Max=*/100))
        return 1;
      Options.HistoryCasePercent = P;
    } else if (R.is("--no-minimize")) {
      if (!R.flag())
        return 1;
      Options.Minimize = false;
    } else if (R.is("--out")) {
      if (!R.value(Options.OutDir))
        return 1;
    } else if (R.is("--max-findings")) {
      if (!R.uint64Value(Options.MaxDisagreements))
        return 1;
    } else if (R.is("--mutate")) {
      std::string Value;
      if (!R.value(Value))
        return 1;
      std::optional<fuzz::CheckerMutation> M =
          fuzz::checkerMutationByName(Value);
      if (!M) {
        std::cerr << "error: unknown mutation '" << Value
                  << "' (none|weak-cc|weak-ra)\n";
        return 1;
      }
      Options.Mutation = *M;
    } else if (R.is("--trace")) {
      if (!R.value(TraceFile))
        return 1;
    } else if (R.is("--trace-categories")) {
      if (!R.value(TraceCategories))
        return 1;
    } else {
      std::cerr << "error: unknown fuzz option '" << R.option() << "'\n";
      printFuzzUsage();
      return 1;
    }
  }

  TraceSession Trace;
  if (!Trace.init(TraceFile, TraceCategories,
                  {{"command", joinCommandLine(Argc, Argv)}}))
    return 1;

  std::cout << "fuzz: seed " << Options.Seed << ", " << Options.Iterations
            << " iterations, shape " << Options.ShapeName;
  if (Options.Mutation != fuzz::CheckerMutation::None)
    std::cout << ", MUTATION " << fuzz::checkerMutationName(Options.Mutation);
  std::cout << '\n';

  fuzz::FuzzReport Report = fuzz::runFuzz(Options);

  std::cout << "fuzz: " << Report.Cases << " cases ("
            << Report.ProgramCases << " programs, " << Report.HistoryCases
            << " histories), " << Report.DisagreeingCases
            << " disagreements, " << Report.ElapsedMillis << " ms"
            << (Report.TimedOut ? " (timed out)" : "") << '\n';
  for (const std::string &File : Report.ReproFiles)
    std::cout << "repro: " << File << '\n';
  if (Report.DisagreeingCases != 0) {
    // Echo every reproduction-relevant flag: the printed command must
    // replay the run verbatim, not a default-shaped approximation of it.
    std::cout << "reproduce with: txdpor-cli fuzz --seed " << Options.Seed
              << " --iters " << Options.Iterations << " --shape "
              << Options.ShapeName << " --history-percent "
              << Options.HistoryCasePercent << " --max-findings "
              << Options.MaxDisagreements;
    if (!LevelsSpec.empty())
      std::cout << " --levels " << LevelsSpec;
    if (!Options.Minimize)
      std::cout << " --no-minimize";
    if (Options.Mutation != fuzz::CheckerMutation::None)
      std::cout << " --mutate " << fuzz::checkerMutationName(Options.Mutation);
    std::cout << '\n';
    return 2;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// The check-trace verb
//===----------------------------------------------------------------------===//

void printCheckTraceUsage() {
  std::cout <<
      "txdpor-cli check-trace FILE: online isolation checking of a trace\n"
      "of committed transactions (litmus or JSONL, auto-detected; '-' or\n"
      "no FILE reads stdin)\n"
      "\n"
      "  --window N          window budget in transactions: the decided\n"
      "                      prefix is garbage-collected to keep the live\n"
      "                      window near N (default 0 = never evict)\n"
      "  --base LEVEL        check at this level: true|RC|RA|CC\n"
      "  --levels SPEC       per-session levels, e.g. S0=CC,S1=RC\n"
      "                      (--base/--levels override the trace header;\n"
      "                      with neither, the header's assignment or CC)\n"
      "  --report FILE       write a JSON run report (verdict, counters,\n"
      "                      peak window, peak RSS)\n"
      "  --repro FILE        on a violation, write the offending window as\n"
      "                      a standalone litmus trace\n"
      "\n"
      "exit status: 0 = consistent, 1 = malformed trace or usage error,\n"
      "             2 = isolation violation, 3 = undecided (a read's\n"
      "             writer left the window; raise --window)\n";
}

/// One verdict word for the report JSON and the summary line.
const char *streamStatusName(StreamStatus S) {
  switch (S) {
  case StreamStatus::Ok:
    return "consistent";
  case StreamStatus::Anomaly:
    return "anomaly";
  case StreamStatus::StaleRead:
    return "undecided";
  case StreamStatus::Malformed:
    return "malformed";
  }
  return "?";
}

int checkTraceMain(int Argc, char **Argv) {
  std::string InputFile, ReportFile, ReproFile;
  unsigned Window = 0;
  std::optional<IsolationLevel> Base;
  std::vector<std::pair<unsigned, IsolationLevel>> LevelPins;
  OptionReader R(Argc, Argv);
  while (R.next()) {
    if (R.is("--help") || R.is("-h")) {
      printCheckTraceUsage();
      return 0;
    } else if (R.is("--window")) {
      if (!R.unsignedValue(Window, /*Max=*/1u << 26))
        return 1;
    } else if (R.is("--base")) {
      IsolationLevel L;
      if (!R.levelValue(L))
        return 1;
      Base = L;
    } else if (R.is("--levels")) {
      std::string Value;
      if (!R.value(Value) || !parseLevelsSpec(Value, LevelPins))
        return 1;
    } else if (R.is("--report")) {
      if (!R.value(ReportFile))
        return 1;
    } else if (R.is("--repro")) {
      if (!R.value(ReproFile))
        return 1;
    } else if (!R.option().empty() &&
               (R.option() == "-" || R.option()[0] != '-')) {
      if (!InputFile.empty()) {
        std::cerr << "error: more than one input file ('" << InputFile
                  << "' and '" << R.option() << "')\n";
        return 1;
      }
      InputFile = R.option();
    } else {
      std::cerr << "error: unknown check-trace option '" << R.option()
                << "'\n";
      printCheckTraceUsage();
      return 1;
    }
  }

  std::ifstream FileIn;
  if (!InputFile.empty() && InputFile != "-") {
    FileIn.open(InputFile);
    if (!FileIn) {
      std::cerr << "error: cannot open '" << InputFile << "' for reading\n";
      return 1;
    }
  }
  std::istream &In = FileIn.is_open() ? FileIn : std::cin;

  trace_io::TraceReader Reader(In);
  if (!Reader.valid()) {
    std::cerr << "error: " << Reader.error() << '\n';
    return 1;
  }

  // Assignment precedence: explicit flags beat the trace header beats the
  // repo-wide CC default.
  LevelAssignment Levels;
  if (Base || !LevelPins.empty()) {
    Levels = LevelAssignment::uniform(
        Base.value_or(IsolationLevel::CausalConsistency));
    for (const auto &[Session, Level] : LevelPins)
      Levels.set(Session, Level);
  } else if (Reader.header().Levels) {
    Levels = *Reader.header().Levels;
  } else {
    Levels = LevelAssignment::uniform(IsolationLevel::CausalConsistency);
  }
  if (!Levels.allPrefixClosedCausallyExtensible()) {
    std::cerr << "error: streaming checks need a prefix-closed causally-"
                 "extensible assignment (true, RC, RA, CC); got "
              << Levels.str() << '\n';
    return 1;
  }
  if (Reader.header().NumSessions)
    Levels = Levels.resolved(*Reader.header().NumSessions);

  StreamingOptions Opts;
  Opts.Levels = Levels;
  Opts.NumVars = Reader.header().NumVars;
  Opts.NumSessions = Reader.header().NumSessions;
  Opts.WindowBudget = Window;
  StreamingChecker Checker(Opts);

  std::cout << "check-trace: "
            << (InputFile.empty() || InputFile == "-" ? "<stdin>"
                                                      : InputFile)
            << " (" << (Reader.format() == trace_io::TraceFormat::Jsonl
                            ? "jsonl"
                            : "litmus")
            << "), " << Reader.header().NumVars << " vars, assignment "
            << Levels.str() << ", window budget "
            << (Window ? std::to_string(Window) : std::string("unbounded"))
            << '\n';

  auto Start = std::chrono::steady_clock::now();
  std::string Diag;
  TransactionLog Log{TxnUid::init()};
  bool ReaderFailed = false;
  for (;;) {
    trace_io::TraceReader::Next N = Reader.next(Log);
    if (N == trace_io::TraceReader::Next::End)
      break;
    if (N == trace_io::TraceReader::Next::Error) {
      Diag = Reader.error();
      ReaderFailed = true;
      break;
    }
    if (Checker.append(Log, &Diag) != StreamStatus::Ok) {
      Diag += " (record ending at line " + std::to_string(Reader.lineNo()) +
              ")";
      break;
    }
  }
  uint64_t ElapsedMs =
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                std::chrono::steady_clock::now() - Start)
                                .count());

  StreamStatus Status =
      ReaderFailed ? StreamStatus::Malformed : Checker.status();
  const StreamingStats &Stats = Checker.stats();

  if (!ReportFile.empty()) {
    std::ofstream Report(ReportFile);
    if (!Report) {
      std::cerr << "error: cannot open '" << ReportFile << "' for writing\n";
      return 1;
    }
    JsonWriter J(Report);
    J.beginObject();
    J.key("report").value("check-trace");
    J.key("status").value(streamStatusName(Status));
    J.key("assignment").value(Levels.str());
    J.key("window_budget").value(Window);
    J.key("txns").value(Stats.Txns);
    J.key("events").value(Stats.Events);
    J.key("external_reads").value(Stats.ExternalReads);
    J.key("evictions").value(Stats.Evicted);
    J.key("gc_passes").value(Stats.GcPasses);
    J.key("reads_forgotten").value(Stats.ReadsForgotten);
    J.key("peak_window").value(Stats.PeakWindow);
    J.key("peak_window_counter")
        .value(trace::counterValue(trace::Counter::StreamPeakWindow));
    J.key("elapsed_ms").value(ElapsedMs);
    J.key("events_per_sec")
        .value(ElapsedMs ? Stats.Events * 1000 / ElapsedMs : 0);
    J.key("peak_rss_kb").value(peakRssKb());
    if (!Diag.empty())
      J.key("diagnostic").value(Diag);
    J.endObject();
    std::cout << "wrote " << ReportFile << '\n';
  }

  std::cout << "check-trace: " << streamStatusName(Status) << " — "
            << Stats.Txns << " txns (" << Stats.Events << " events), peak "
            << "window " << Stats.PeakWindow << ", " << Stats.Evicted
            << " evicted in " << Stats.GcPasses << " GC passes, "
            << ElapsedMs << " ms";
  if (ElapsedMs)
    std::cout << " (" << Stats.Events * 1000 / ElapsedMs << " events/s)";
  std::cout << '\n';

  switch (Status) {
  case StreamStatus::Ok:
    return 0;
  case StreamStatus::Malformed:
    std::cerr << "error: " << Diag << '\n';
    return 1;
  case StreamStatus::StaleRead:
    std::cerr << "undecided: " << Diag << '\n';
    return 3;
  case StreamStatus::Anomaly:
    break;
  }

  std::cout << Diag << '\n';
  // The window is a standalone witness; Explain re-derives the cycle with
  // per-edge provenance for uniform assignments. The one case it cannot
  // reproduce is a cycle threading constraints inherited from the evicted
  // prefix — then the streaming diagnosis above stands alone.
  if (!Levels.hasExplicit()) {
    ViolationExplanation Explanation =
        explainViolation(Checker.window(), Levels.defaultLevel());
    if (!Explanation.Consistent)
      std::cout << Explanation.Text;
    else
      std::cout << "(the commit-order cycle threads constraints of the "
                   "evicted prefix; no standalone witness)\n";
  }
  if (!ReproFile.empty()) {
    trace_io::TraceHeader ReproHeader;
    std::vector<TransactionLog> ReproTxns;
    std::string Error;
    if (!trace_io::traceFromHistory(Checker.window(), Levels, ReproHeader,
                                    ReproTxns, &Error)) {
      std::cerr << "error: cannot build repro: " << Error << '\n';
      return 1;
    }
    std::ofstream Repro(ReproFile);
    if (!Repro) {
      std::cerr << "error: cannot open '" << ReproFile << "' for writing\n";
      return 1;
    }
    Repro << "# txdpor check-trace repro: violation at "
          << Checker.anomalyTxn().str() << "\n";
    trace_io::writeTrace(Repro, ReproHeader, ReproTxns,
                         trace_io::TraceFormat::Litmus);
    std::cout << "wrote " << ReproFile << '\n';
  }
  return 2;
}

//===----------------------------------------------------------------------===//
// The gen-trace verb
//===----------------------------------------------------------------------===//

void printGenTraceUsage() {
  std::cout <<
      "txdpor-cli gen-trace: deterministic synthetic trace generation\n"
      "\n"
      "  --sessions N        concurrent sessions (default 4)\n"
      "  --vars N            variable universe (default 8)\n"
      "  --seed N            generation seed (default 1)\n"
      "  --events N          target event count (default 10000)\n"
      "  --reads N           reads per transaction (default 2)\n"
      "  --writes N          writes per transaction (default 2)\n"
      "  --abort-percent P   share of aborting transactions (default 5)\n"
      "  --anomaly-at K      inject a read-skew anomaly as transactions\n"
      "                      K through K+2 (default 0 = clean trace)\n"
      "  --base LEVEL        assignment to declare in the header\n"
      "  --levels SPEC       per-session levels for the header\n"
      "  --format FMT        jsonl|litmus (default jsonl)\n"
      "  --out FILE          output file (default stdout)\n";
}

int genTraceMain(int Argc, char **Argv) {
  trace_io::GenConfig Config;
  std::string OutFile;
  trace_io::TraceFormat Format = trace_io::TraceFormat::Jsonl;
  std::optional<IsolationLevel> Base;
  std::vector<std::pair<unsigned, IsolationLevel>> LevelPins;
  OptionReader R(Argc, Argv);
  while (R.next()) {
    if (R.is("--help") || R.is("-h")) {
      printGenTraceUsage();
      return 0;
    } else if (R.is("--sessions")) {
      if (!R.unsignedValue(Config.Sessions, /*Max=*/1u << 20))
        return 1;
    } else if (R.is("--vars")) {
      if (!R.unsignedValue(Config.Vars, /*Max=*/1u << 20))
        return 1;
    } else if (R.is("--seed")) {
      if (!R.uint64Value(Config.Seed))
        return 1;
    } else if (R.is("--events")) {
      if (!R.uint64Value(Config.Events))
        return 1;
    } else if (R.is("--reads")) {
      if (!R.unsignedValue(Config.ReadsPerTxn, /*Max=*/1024))
        return 1;
    } else if (R.is("--writes")) {
      if (!R.unsignedValue(Config.WritesPerTxn, /*Max=*/1024))
        return 1;
    } else if (R.is("--abort-percent")) {
      if (!R.unsignedValue(Config.AbortPercent, /*Max=*/100))
        return 1;
    } else if (R.is("--anomaly-at")) {
      if (!R.uint64Value(Config.AnomalyAtTxn))
        return 1;
    } else if (R.is("--base")) {
      IsolationLevel L;
      if (!R.levelValue(L))
        return 1;
      Base = L;
    } else if (R.is("--levels")) {
      std::string Value;
      if (!R.value(Value) || !parseLevelsSpec(Value, LevelPins))
        return 1;
    } else if (R.is("--format")) {
      std::string Value;
      if (!R.value(Value))
        return 1;
      if (Value == "jsonl")
        Format = trace_io::TraceFormat::Jsonl;
      else if (Value == "litmus")
        Format = trace_io::TraceFormat::Litmus;
      else {
        std::cerr << "error: unknown format '" << Value
                  << "' (jsonl|litmus)\n";
        return 1;
      }
    } else if (R.is("--out")) {
      if (!R.value(OutFile))
        return 1;
    } else {
      std::cerr << "error: unknown gen-trace option '" << R.option()
                << "'\n";
      printGenTraceUsage();
      return 1;
    }
  }
  if (Config.Sessions == 0 || Config.Vars == 0) {
    std::cerr << "error: --sessions and --vars must be positive\n";
    return 1;
  }

  std::ofstream FileOut;
  if (!OutFile.empty()) {
    FileOut.open(OutFile);
    if (!FileOut) {
      std::cerr << "error: cannot open '" << OutFile << "' for writing\n";
      return 1;
    }
  }
  std::ostream &Out = FileOut.is_open() ? FileOut : std::cout;

  trace_io::TraceHeader Header;
  Header.NumVars = Config.Vars;
  Header.NumSessions = Config.Sessions;
  if (Base || !LevelPins.empty()) {
    LevelAssignment Levels = LevelAssignment::uniform(
        Base.value_or(IsolationLevel::CausalConsistency));
    for (const auto &[Session, Level] : LevelPins)
      Levels.set(Session, Level);
    Header.Levels = Levels;
  }
  Out << trace_io::writeTraceHeader(Header, Format);
  uint64_t Txns = 0;
  trace_io::generateTrace(Config, [&](const TransactionLog &Log) {
    ++Txns;
    Out << trace_io::writeTraceTxn(Log, Format);
  });
  Out.flush();
  if (!Out) {
    std::cerr << "error: write failure"
              << (OutFile.empty() ? "" : " on '" + OutFile + "'") << '\n';
    return 1;
  }
  if (!OutFile.empty())
    std::cerr << "gen-trace: wrote " << Txns << " txns to " << OutFile
              << '\n';
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // Verb dispatch: a first argument that is not an option selects a
  // sub-command; an unrecognized one is a usage error (exit 1, like every
  // other rejected invocation — it used to fall through to the option
  // parser and report a misleading "unknown option").
  if (Argc > 1 && Argv[1][0] != '-') {
    if (std::strcmp(Argv[1], "fuzz") == 0)
      return fuzzMain(Argc - 1, Argv + 1);
    if (std::strcmp(Argv[1], "check-trace") == 0)
      return checkTraceMain(Argc - 1, Argv + 1);
    if (std::strcmp(Argv[1], "gen-trace") == 0)
      return genTraceMain(Argc - 1, Argv + 1);
    std::cerr << "error: unknown verb '" << Argv[1]
              << "' (expected fuzz, check-trace or gen-trace)\n";
    return 1;
  }

  CliOptions Options;
  if (!parseArgs(Argc, Argv, Options))
    return 1;

  for (const auto &[Session, Level] : Options.Levels) {
    (void)Level;
    if (Session >= Options.Sessions) {
      std::cerr << "error: --levels names session S" << Session
                << " but the client has " << Options.Sessions
                << " sessions\n";
      return 1;
    }
  }
  if ((!Options.Levels.empty() || Options.MixedWorkload) &&
      (Options.UseDfs || Options.Walks)) {
    std::cerr << "error: per-session levels need the swapping explorer "
                 "(drop --dfs/--walks)\n";
    return 1;
  }
  if (Options.Dedup != DedupMode::Off &&
      (Options.UseDfs || Options.Walks)) {
    std::cerr << "error: --dedup needs the swapping explorer "
                 "(drop --dfs/--walks)\n";
    return 1;
  }

  // Armed before any exploration; its destructor writes the trace on
  // every exit path below (including --walks/--dfs early returns).
  TraceSession Trace;
  if (!Trace.init(Options.TraceFile, Options.TraceCategories,
                  {{"command", joinCommandLine(Argc, Argv)}}))
    return 1;

  ClientSpec Spec;
  Spec.Sessions = Options.Sessions;
  Spec.TxnsPerSession = Options.Txns;
  Spec.Seed = Options.Seed;
  Spec.MixedLevels = Options.MixedWorkload;
  Spec.MixedBase = Options.Base;
  Program P = makeClientProgram(Options.App, Spec);
  VarNameFn Names = P.varNameFn();
  // The SER/SI searches decide at most MaxSearchTxns transactions, the
  // initial one included: refuse up front instead of aborting mid-run.
  for (const std::optional<IsolationLevel> &L :
       {Options.Filter, Options.Classify})
    if (L &&
        (*L == IsolationLevel::SnapshotIsolation ||
         *L == IsolationLevel::Serializability) &&
        P.totalTxns() + 1 > MaxSearchTxns) {
      std::cerr << "error: " << isolationLevelName(*L)
                << " checking supports at most " << MaxSearchTxns - 1
                << " program transactions; this program has "
                << P.totalTxns() << '\n';
      return 1;
    }

  std::cout << "client: " << appName(Options.App) << " seed " << Options.Seed
            << ", " << Options.Sessions << " sessions x " << Options.Txns
            << " txns";
  if (P.levels().hasExplicit())
    std::cout << " [" << P.levels().str() << ']';
  std::cout << '\n';
  if (Options.PrintProgram)
    std::cout << '\n' << P.str() << '\n';

  if (Options.Walks) {
    RandomWalkConfig Config;
    Config.Level = Options.Base;
    Config.NumWalks = *Options.Walks;
    Config.Seed = Options.Seed;
    Config.TimeBudget = Deadline::afterMillis(Options.BudgetMs);
    RandomWalkStats Stats = randomWalkProgram(P, Config);
    std::cout << "random-walk(" << isolationLevelName(Options.Base)
              << "): " << Stats.Walks << " walks, "
              << Stats.DistinctHistories << " distinct histories, "
              << Stats.ElapsedMillis << " ms"
              << (Stats.TimedOut ? " (timed out)" : "") << '\n';
    return 0;
  }

  if (Options.UseDfs) {
    NaiveDfsConfig Config;
    Config.Level = Options.Base;
    Config.TimeBudget = Deadline::afterMillis(Options.BudgetMs);
    ExplorerStats Stats = naiveDfsProgram(P, Config);
    std::cout << "DFS(" << isolationLevelName(Options.Base)
              << "): " << Stats.EndStates << " end states, "
              << Stats.ElapsedMillis << " ms"
              << (Stats.TimedOut ? " (timed out)" : "") << '\n';
    return 0;
  }

  ExplorerConfig Config;
  Config.BaseLevel = Options.Base;
  if (!Options.Levels.empty()) {
    Config.BaseLevels.setDefault(Options.Base);
    for (const auto &[Session, Level] : Options.Levels)
      Config.BaseLevels.set(Session, Level);
  } else if (P.levels().hasExplicit()) {
    // Surface a program-declared assignment (e.g. --mixed-workload) in
    // the config so algorithmName() reports the real base; the engine
    // would resolve to the same assignment either way.
    Config.BaseLevels = P.levels();
  }
  // Normalize against the actual session count so an all-agreeing
  // --levels spec *is* the uniform algorithm, in the report and in the
  // engine ("--base RC --levels CC,CC" runs — and prints — CC). When an
  // all-agreeing spec collapses over a program that *declares* levels
  // (--mixed-workload --levels CC,...), the pins are kept explicit so
  // the user's override still beats the declaration in the engine.
  if (Config.BaseLevels.hasExplicit()) {
    LevelAssignment Resolved = Config.BaseLevels.resolved(P.numSessions());
    Config.BaseLevel = Resolved.defaultLevel();
    if (!Resolved.hasExplicit() && P.levels().hasExplicit())
      for (unsigned S = 0; S != P.numSessions(); ++S)
        Resolved.set(S, Resolved.defaultLevel());
    Config.BaseLevels = std::move(Resolved);
  }
  if (Options.Filter && Config.BaseLevels.hasExplicit() &&
      !Config.BaseLevels.allWeakerOrEqual(*Options.Filter)) {
    std::cerr << "error: every session's base level must be weaker than "
                 "--filter (Cor. 6.2)\n";
    return 1;
  }
  Config.FilterLevel = Options.Filter;
  Config.TimeBudget = Deadline::afterMillis(Options.BudgetMs);
  Config.Threads = Options.Threads;
  Config.Dedup = Options.Dedup;

  std::vector<History> Violations;
  uint64_t Outputs = 0;
  std::optional<History> First;
  std::ofstream Archive;
  if (!Options.SaveFile.empty()) {
    Archive.open(Options.SaveFile);
    if (!Archive) {
      std::cerr << "error: cannot open '" << Options.SaveFile << "'\n";
      return 1;
    }
  }
  // The parallel driver serializes visitor calls internally, so the
  // capture below is safe for any thread count; only the order in which
  // histories stream out depends on the schedule.
  auto RunExploration = [&](const HistoryVisitor &Visit) {
    if (Options.Threads > 1) {
      ParallelExplorer E(P, Config);
      return E.run(Visit);
    }
    Explorer E(P, Config);
    return E.run(Visit);
  };
  ExplorerStats Stats = RunExploration([&](const History &H) {
    ++Outputs;
    if (!First)
      First = H;
    if (Options.PrintHistories)
      std::cout << "--- history " << Outputs << " ---\n" << H.str(&Names);
    if (Archive.is_open())
      Archive << writeHistory(H) << '\n';
    if (Options.Classify && !isConsistent(H, *Options.Classify))
      Violations.push_back(H);
  });
  if (Archive.is_open())
    std::cout << "archived " << Outputs << " histories to "
              << Options.SaveFile << '\n';

  std::cout << Config.algorithmName();
  if (Options.Threads > 1)
    std::cout << " [" << Options.Threads << " threads]";
  std::cout << ": " << Stats.Outputs
            << " histories, " << Stats.EndStates << " end states, "
            << Stats.ExploreCalls << " explore calls, "
            << Stats.SwapsApplied << " swaps, " << Stats.ElapsedMillis
            << " ms" << (Stats.TimedOut ? " (timed out)" : "") << '\n';
  // The commit-test rate: the counter the incremental ConstraintState
  // optimizes, and the per-PR trajectory metric in docs/BENCHMARKS.md.
  if (Stats.ElapsedMillis > 0) {
    double ChecksPerSec =
        static_cast<double>(Stats.ConsistencyChecks) * 1000.0 /
        Stats.ElapsedMillis;
    std::cout << "consistency checks: " << Stats.ConsistencyChecks << " ("
              << static_cast<uint64_t>(ChecksPerSec) << "/s)\n";
  }
  if (Options.Threads > 1)
    std::cout << "parallel: " << Stats.FrontierItems << " frontier items, "
              << Stats.StealSuccesses << " steals ("
              << Stats.StealFailures << " failed sweeps), "
              << Stats.IdleParks << " idle parks\n";
  if (Options.Dedup != DedupMode::Off) {
    std::cout << "dedup (symmetry): " << Stats.DedupSkips
              << " subtrees skipped of " << Stats.DedupChecks << " checked\n";
  }

  if (Options.Classify) {
    std::cout << "classification against "
              << isolationLevelName(*Options.Classify) << ": "
              << Violations.size() << " of " << Stats.Outputs
              << " histories violate it\n";
    if (!Violations.empty()) {
      History Witness = Options.Minimize
                            ? minimizeViolation(Violations.front(),
                                                *Options.Classify)
                            : Violations.front();
      ViolationExplanation Explanation =
          explainViolation(Witness, *Options.Classify, &Names);
      std::cout << Explanation.Text;
      if (Options.PrintWitness)
        std::cout << "witness"
                  << (Options.Minimize ? " (minimized)" : "") << ":\n"
                  << Witness.str(&Names);
      if (!Options.DotFile.empty() &&
          !writeDot(Options.DotFile, Witness, Names))
        return 1;
      return 0;
    }
  }
  if (!Options.DotFile.empty() && First &&
      !writeDot(Options.DotFile, *First, Names))
    return 1;
  return 0;
}

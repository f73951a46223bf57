//===- consistency/SerializabilityChecker.cpp - SER via sequence search ---===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "consistency/SerializabilityChecker.h"

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace txdpor;

namespace {

/// Precomputed per-history facts and the DFS state of the search.
class SerSearch {
public:
  explicit SerSearch(const History &H) : H(H), N(H.numTxns()) {
    requireSearchableSize(H, "SER");

    // so ∪ wr predecessor masks.
    Relation SoWr = H.soWrRelation();
    PredMask.assign(N, 0);
    for (unsigned A = 0; A != N; ++A)
      SoWr.forEachSuccessor(A, [&](unsigned B) {
        PredMask[B] |= uint64_t(1) << A;
      });

    // Dense ids for the variables that occur in some wr dependency: only
    // their last-writer entries influence appendability.
    Reads.assign(N, {});
    Writes.assign(N, {});
    for (unsigned T = 0; T != N; ++T) {
      const TransactionLog &Log = H.txn(T);
      for (uint32_t P = 0, PE = static_cast<uint32_t>(Log.size()); P != PE;
           ++P) {
        std::optional<TxnUid> W = Log.writerOf(P);
        if (!W)
          continue;
        Reads[T].push_back(
            {denseVar(Log.event(P).Var), *H.indexOf(*W)});
      }
    }
    for (unsigned T = 0; T != N; ++T)
      for (VarId X : H.txn(T).writtenVars())
        if (auto It = VarDense.find(X); It != VarDense.end())
          Writes[T].push_back(It->second);

    LastWriter.assign(VarDense.size(), kNoWriter);
  }

  bool run() { return extend(/*Placed=*/0); }

  /// Commit sequence of the successful search (valid after run() returned
  /// true).
  const std::vector<unsigned> &sequence() const { return Sequence; }

private:
  static constexpr uint8_t kNoWriter = 0xff;

  unsigned denseVar(VarId X) {
    auto [It, Inserted] = VarDense.emplace(X, VarDense.size());
    (void)Inserted;
    return It->second;
  }

  bool canAppend(unsigned T, uint64_t Placed) const {
    if ((PredMask[T] & ~Placed) != 0)
      return false;
    for (auto [DenseX, Writer] : Reads[T])
      if (LastWriter[DenseX] != Writer)
        return false;
    return true;
  }

  std::string stateKey(uint64_t Placed) const {
    std::string Key(reinterpret_cast<const char *>(&Placed), sizeof(Placed));
    Key.append(reinterpret_cast<const char *>(LastWriter.data()),
               LastWriter.size());
    return Key;
  }

  bool extend(uint64_t Placed) {
    if (Placed == (N == 64 ? ~uint64_t(0) : (uint64_t(1) << N) - 1))
      return true;
    std::string Key = stateKey(Placed);
    if (Failed.count(Key))
      return false;

    for (unsigned T = 0; T != N; ++T) {
      if ((Placed >> T) & 1)
        continue;
      if (!canAppend(T, Placed))
        continue;
      // Place T: record overwritten last-writer entries for backtracking.
      std::vector<std::pair<unsigned, uint8_t>> Saved;
      for (unsigned DenseX : Writes[T]) {
        Saved.push_back({DenseX, LastWriter[DenseX]});
        LastWriter[DenseX] = static_cast<uint8_t>(T);
      }
      Sequence.push_back(T);
      if (extend(Placed | (uint64_t(1) << T)))
        return true;
      Sequence.pop_back();
      for (auto [DenseX, Old] : Saved)
        LastWriter[DenseX] = Old;
    }
    Failed.insert(std::move(Key));
    return false;
  }

  const History &H;
  unsigned N;
  std::vector<uint64_t> PredMask;
  /// Per transaction: (dense var, required writer txn index) pairs.
  std::vector<std::vector<std::pair<unsigned, unsigned>>> Reads;
  /// Per transaction: dense vars it visibly writes (relevant vars only).
  std::vector<std::vector<unsigned>> Writes;
  std::unordered_map<VarId, unsigned> VarDense;
  std::vector<uint8_t> LastWriter;
  std::vector<unsigned> Sequence;
  std::unordered_set<std::string> Failed;
};

} // namespace

bool SerializabilityChecker::isConsistent(const History &H) const {
  H.checkWellFormed();
  SerSearch Search(H);
  return Search.run();
}

std::optional<std::vector<unsigned>>
SerializabilityChecker::findCommitOrder(const History &H) const {
  H.checkWellFormed();
  SerSearch Search(H);
  if (!Search.run())
    return std::nullopt;
  return Search.sequence();
}

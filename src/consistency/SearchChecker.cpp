//===- consistency/SearchChecker.cpp - SI and SER via point search --------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "consistency/SearchChecker.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace txdpor;

namespace {

/// Aborts with a diagnostic naming \p Level when \p H holds more than
/// MaxSearchTxns transactions.
void requireSearchableSize(const History &H, IsolationLevel Level) {
  if (H.numTxns() <= MaxSearchTxns)
    return;
  std::fprintf(stderr,
               "txdpor: the %s checker decides histories of at most %u "
               "transactions (initial transaction included), got %u\n",
               isolationLevelName(Level), MaxSearchTxns, H.numTxns());
  std::abort();
}

/// Precomputed per-history facts and the DFS state of the search.
class PointSearch {
public:
  PointSearch(const History &H, IsolationLevel Level)
      : N(H.numTxns()), Ser(Level == IsolationLevel::Serializability),
        Full(N == 64 ? ~uint64_t(0) : (uint64_t(1) << N) - 1) {
    requireSearchableSize(H, Level);

    // so ∪ wr predecessors: S(t) requires their commits. For SI the wr
    // part is implied by the read check; for SER it is a cheap prefilter.
    const Relation &SoWr = H.soWrRelation();
    PredMask.assign(N, 0);
    for (unsigned A = 0; A != N; ++A)
      SoWr.forEachSuccessor(A, [&](unsigned B) {
        PredMask[B] |= uint64_t(1) << A;
      });

    // Reads checked at S(t) against the last committed writer per var.
    // Dense ids cover the variables that occur in some wr dependency:
    // only their last-writer entries influence the search.
    Reads.assign(N, {});
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
    Writes.assign(N, {});
    for (unsigned T = 0; T != N; ++T)
      for (VarId X : H.txn(T).writtenVars())
        if (auto It = VarDense.find(X); It != VarDense.end())
          Writes[T].push_back(It->second);
    LastWriter.assign(VarDense.size(), kNoWriter);

    // Write-write conflict masks over *all* written variables (also the
    // ones never read). SER never overlaps transactions, so it needs none.
    if (Ser)
      return;
    ConflictMask.assign(N, 0);
    for (unsigned A = 0; A != N; ++A)
      for (unsigned B = A + 1; B != N; ++B)
        for (VarId X : H.txn(A).writtenVars())
          if (H.txn(B).writesVar(X)) {
            ConflictMask[A] |= uint64_t(1) << B;
            ConflictMask[B] |= uint64_t(1) << A;
            break;
          }
  }

  /// The commit-point sequence of a successful search, or nullopt.
  std::optional<std::vector<unsigned>> run() {
    if (!extend(/*Started=*/0, /*Committed=*/0))
      return std::nullopt;
    return std::move(CommitSequence);
  }

private:
  static constexpr uint8_t kNoWriter = 0xff;

  unsigned denseVar(VarId X) {
    return VarDense.emplace(X, VarDense.size()).first->second;
  }

  std::string stateKey(uint64_t Started, uint64_t Committed) const {
    std::string Key(reinterpret_cast<const char *>(&Committed),
                    sizeof(Committed));
    if (!Ser)
      Key.append(reinterpret_cast<const char *>(&Started), sizeof(Started));
    Key.append(reinterpret_cast<const char *>(LastWriter.data()),
               LastWriter.size());
    return Key;
  }

  bool readsSatisfied(unsigned T) const {
    for (auto [DenseX, Writer] : Reads[T])
      if (LastWriter[DenseX] != Writer)
        return false;
    return true;
  }

  bool extend(uint64_t Started, uint64_t Committed) {
    if (Committed == Full)
      return true;
    std::string Key = stateKey(Started, Committed);
    if (Failed.count(Key))
      return false;

    for (unsigned T = 0; T != N; ++T) {
      uint64_t Bit = uint64_t(1) << T;
      if (!(Started & Bit)) {
        // Try placing S(T): predecessors committed, snapshot reads
        // satisfied by the current committed state.
        if ((PredMask[T] & ~Committed) != 0 || !readsSatisfied(T))
          continue;
        if (Ser ? commit(T, Started | Bit, Committed | Bit)
                : extend(Started | Bit, Committed))
          return true;
      } else if (!(Committed & Bit)) {
        // Try placing C(T): no overlapping write-write conflict, i.e. no
        // conflicting transaction is currently live.
        if ((ConflictMask[T] & Started & ~Committed) != 0)
          continue;
        if (commit(T, Started, Committed | Bit))
          return true;
      }
    }
    Failed.insert(std::move(Key));
    return false;
  }

  /// Places C(T) and continues from (Started, Committed), which already
  /// hold T; undoes the placement if the continuation fails.
  bool commit(unsigned T, uint64_t Started, uint64_t Committed) {
    std::vector<std::pair<unsigned, uint8_t>> Saved;
    for (unsigned DenseX : Writes[T]) {
      Saved.push_back({DenseX, LastWriter[DenseX]});
      LastWriter[DenseX] = static_cast<uint8_t>(T);
    }
    CommitSequence.push_back(T);
    if (extend(Started, Committed))
      return true;
    CommitSequence.pop_back();
    for (auto [DenseX, Old] : Saved)
      LastWriter[DenseX] = Old;
    return false;
  }

  unsigned N;
  bool Ser;
  uint64_t Full;
  std::vector<uint64_t> PredMask;
  /// Per transaction: (dense var, required writer txn index) pairs.
  std::vector<std::vector<std::pair<unsigned, unsigned>>> Reads;
  /// Per transaction: dense vars it visibly writes (relevant vars only).
  std::vector<std::vector<unsigned>> Writes;
  std::vector<uint64_t> ConflictMask;
  std::unordered_map<VarId, unsigned> VarDense;
  std::vector<uint8_t> LastWriter;
  std::vector<unsigned> CommitSequence;
  std::unordered_set<std::string> Failed;
};

} // namespace

bool SearchChecker::isConsistent(const History &H) const {
  return findCommitOrder(H).has_value();
}

std::optional<std::vector<unsigned>>
SearchChecker::findCommitOrder(const History &H) const {
  H.checkWellFormed();
  return PointSearch(H, Level).run();
}

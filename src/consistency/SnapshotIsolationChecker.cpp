//===- consistency/SnapshotIsolationChecker.cpp - SI via point search -----===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "consistency/SnapshotIsolationChecker.h"

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace txdpor;

namespace {

class SiSearch {
public:
  explicit SiSearch(const History &H) : H(H), N(H.numTxns()) {
    requireSearchableSize(H, "SI");

    // so predecessors: S(t) requires their commits.
    SoPredMask.assign(N, 0);
    Relation So = H.soRelation();
    for (unsigned A = 0; A != N; ++A)
      So.forEachSuccessor(A, [&](unsigned B) {
        SoPredMask[B] |= uint64_t(1) << A;
      });

    // Reads checked at S(t) against the last committed writer per var.
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

    // Write-write conflict masks over *all* written variables (also the
    // ones never read).
    ConflictMask.assign(N, 0);
    for (unsigned A = 0; A != N; ++A) {
      for (unsigned B = A + 1; B != N; ++B) {
        bool Shares = false;
        for (VarId X : H.txn(A).writtenVars())
          if (H.txn(B).writesVar(X)) {
            Shares = true;
            break;
          }
        if (Shares) {
          ConflictMask[A] |= uint64_t(1) << B;
          ConflictMask[B] |= uint64_t(1) << A;
        }
      }
    }

    LastCommittedWriter.assign(VarDense.size(), kNoWriter);
  }

  bool run() { return extend(/*Started=*/0, /*Committed=*/0); }

  /// Commit-point sequence of the successful search (valid after run()
  /// returned true).
  const std::vector<unsigned> &commitSequence() const {
    return CommitSequence;
  }

private:
  static constexpr uint8_t kNoWriter = 0xff;

  unsigned denseVar(VarId X) {
    auto [It, Inserted] = VarDense.emplace(X, VarDense.size());
    (void)Inserted;
    return It->second;
  }

  std::string stateKey(uint64_t Started, uint64_t Committed) const {
    std::string Key(reinterpret_cast<const char *>(&Started),
                    sizeof(Started));
    Key.append(reinterpret_cast<const char *>(&Committed), sizeof(Committed));
    Key.append(reinterpret_cast<const char *>(LastCommittedWriter.data()),
               LastCommittedWriter.size());
    return Key;
  }

  bool extend(uint64_t Started, uint64_t Committed) {
    uint64_t Full = (N == 64 ? ~uint64_t(0) : (uint64_t(1) << N) - 1);
    if (Committed == Full)
      return true;
    std::string Key = stateKey(Started, Committed);
    if (Failed.count(Key))
      return false;

    for (unsigned T = 0; T != N; ++T) {
      uint64_t Bit = uint64_t(1) << T;
      if (!(Started & Bit)) {
        // Try placing S(T): session predecessors committed, snapshot reads
        // satisfied by the current committed state.
        if ((SoPredMask[T] & ~Committed) != 0)
          continue;
        bool ReadsOk = true;
        for (auto [DenseX, Writer] : Reads[T])
          if (LastCommittedWriter[DenseX] != Writer) {
            ReadsOk = false;
            break;
          }
        if (!ReadsOk)
          continue;
        if (extend(Started | Bit, Committed))
          return true;
      } else if (!(Committed & Bit)) {
        // Try placing C(T): no overlapping write-write conflict, i.e. no
        // conflicting transaction is currently live.
        if ((ConflictMask[T] & Started & ~Committed) != 0)
          continue;
        std::vector<std::pair<unsigned, uint8_t>> Saved;
        for (unsigned DenseX : Writes[T]) {
          Saved.push_back({DenseX, LastCommittedWriter[DenseX]});
          LastCommittedWriter[DenseX] = static_cast<uint8_t>(T);
        }
        CommitSequence.push_back(T);
        if (extend(Started, Committed | Bit))
          return true;
        CommitSequence.pop_back();
        for (auto [DenseX, Old] : Saved)
          LastCommittedWriter[DenseX] = Old;
      }
    }
    Failed.insert(std::move(Key));
    return false;
  }

  const History &H;
  unsigned N;
  std::vector<uint64_t> SoPredMask;
  std::vector<std::vector<std::pair<unsigned, unsigned>>> Reads;
  std::vector<std::vector<unsigned>> Writes;
  std::vector<uint64_t> ConflictMask;
  std::unordered_map<VarId, unsigned> VarDense;
  std::vector<uint8_t> LastCommittedWriter;
  std::vector<unsigned> CommitSequence;
  std::unordered_set<std::string> Failed;
};

} // namespace

bool SnapshotIsolationChecker::isConsistent(const History &H) const {
  H.checkWellFormed();
  SiSearch Search(H);
  return Search.run();
}

std::optional<std::vector<unsigned>>
SnapshotIsolationChecker::findCommitOrder(const History &H) const {
  H.checkWellFormed();
  SiSearch Search(H);
  if (!Search.run())
    return std::nullopt;
  return Search.commitSequence();
}

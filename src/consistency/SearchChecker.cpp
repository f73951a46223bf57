//===- consistency/SearchChecker.cpp - SI and SER via point search --------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "consistency/SearchChecker.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace txdpor;

namespace {

/// Precomputed per-history facts and the DFS state of the search, the
/// session frontier (see SearchChecker.h).
class PointSearch {
public:
  PointSearch(const History &H, IsolationLevel Level)
      : N(H.numTxns()), Ser(Level == IsolationLevel::Serializability),
        Session(N), Pos(N), Sources(N), Guard(N), Conflicts(N) {
    // Sessions in so order; the initial transaction sorts last, in a
    // session of its own, and precedes every other in so: it commits first.
    std::vector<unsigned> Order(N);
    std::iota(Order.begin(), Order.end(), 0u);
    std::sort(Order.begin(), Order.end(), [&](unsigned A, unsigned B) {
      return H.txn(A).uid() < H.txn(B).uid();
    });
    for (unsigned T : Order) {
      if (Sessions.empty() ||
          H.txn(T).uid().Session != H.txn(Sessions.back()[0]).uid().Session)
        Sessions.emplace_back();
      Session[T] = Sessions.size() - 1;
      Pos[T] = Sessions.back().size();
      Sessions.back().push_back(T);
    }
    Committed.assign(Sessions.size(), 0);
    Live.assign(Sessions.size(), 0);
    if (N != 0 && H.txn(Order.back()).uid().isInit()) {
      CommitSequence = Sessions.back();
      Committed.back() = CommitSequence.size();
    }

    // wr sources, and per variable its (reader, source) pairs.
    std::unordered_map<VarId, std::vector<std::pair<unsigned, unsigned>>>
        ReadsOf;
    for (unsigned T = 0; T != N; ++T) {
      const TransactionLog &Log = H.txn(T);
      for (uint32_t P = 0, PE = static_cast<uint32_t>(Log.size()); P != PE;
           ++P)
        if (std::optional<TxnUid> W = Log.writerOf(P)) {
          unsigned Source = *H.indexOf(*W);
          Sources[T].push_back(Source);
          ReadsOf[Log.event(P).Var].push_back({T, Source});
        }
    }

    // The guard of each writer t, and (SI only; SER never overlaps
    // transactions) the other-session transactions t write-conflicts with.
    std::unordered_map<VarId, std::vector<unsigned>> WritersOf;
    for (unsigned T = 0; T != N; ++T)
      for (VarId X : H.txn(T).writtenVars()) {
        for (auto [R, W] : ReadsOf[X])
          if (R != T && W != T)
            Guard[T].push_back({R, W});
        if (!Ser)
          WritersOf[X].push_back(T);
      }
    for (const auto &[X, Writers] : WritersOf)
      for (unsigned A : Writers)
        for (unsigned B : Writers)
          if (Session[A] != Session[B])
            Conflicts[A].push_back(B);
    for (std::vector<unsigned> &C : Conflicts) {
      std::sort(C.begin(), C.end());
      C.erase(std::unique(C.begin(), C.end()), C.end());
    }
  }

  /// The commit-point sequence of a successful search, or nullopt.
  std::optional<std::vector<unsigned>> run() {
    if (!extend())
      return std::nullopt;
    return std::move(CommitSequence);
  }

private:
  bool committed(unsigned T) const { return Pos[T] < Committed[Session[T]]; }
  bool started(unsigned T) const {
    return Pos[T] < Committed[Session[T]] + Live[Session[T]];
  }

  /// Per session its frontier code, as a self-delimiting varint.
  std::string stateKey() const {
    std::string Key;
    for (unsigned S = 0; S != Sessions.size(); ++S) {
      unsigned Code = Ser ? Committed[S] : 2 * Committed[S] + Live[S];
      for (; Code >= 0x80; Code >>= 7)
        Key.push_back(static_cast<char>(Code | 0x80));
      Key.push_back(static_cast<char>(Code));
    }
    return Key;
  }

  bool extend() {
    if (CommitSequence.size() == N)
      return true;
    std::string Key = stateKey();
    if (Failed.count(Key))
      return false;

    // Each session offers its frontier transaction: S(t) if it has not
    // started, C(t) if it is live. Moves are tried in ascending block
    // index, which fixes the commit sequence the search finds first.
    std::vector<unsigned> Candidates;
    for (unsigned S = 0; S != Sessions.size(); ++S)
      if (Committed[S] != Sessions[S].size())
        Candidates.push_back(Sessions[S][Committed[S]]);
    std::sort(Candidates.begin(), Candidates.end());

    for (unsigned T : Candidates) {
      unsigned S = Session[T];
      if (!Live[S]) {
        // Try placing S(T) — under SER also C(T) — once every wr source
        // has committed.
        if (!std::all_of(Sources[T].begin(), Sources[T].end(),
                         [&](unsigned W) { return committed(W); }))
          continue;
        Live[S] = 1;
        if (Ser ? commit(T) : extend())
          return true;
        Live[S] = 0;
      } else if (std::none_of(Conflicts[T].begin(), Conflicts[T].end(),
                              [&](unsigned U) {
                                return started(U) && !committed(U);
                              }) &&
                 commit(T)) {
        // Placed C(T): no write-conflicting transaction was live.
        return true;
      }
    }
    Failed.insert(std::move(Key));
    return false;
  }

  /// Places C(T) for the live T if the guard holds: every reader of a
  /// variable T writes, whose wr source is another committed transaction,
  /// has started — otherwise that reader could never see its source
  /// again. Undoes the placement if the continuation fails.
  bool commit(unsigned T) {
    for (auto [R, W] : Guard[T])
      if (committed(W) && !started(R))
        return false;
    unsigned S = Session[T];
    Live[S] = 0;
    ++Committed[S];
    CommitSequence.push_back(T);
    if (extend())
      return true;
    CommitSequence.pop_back();
    --Committed[S];
    Live[S] = 1;
    return false;
  }

  unsigned N;
  bool Ser;
  /// Transactions per session, in so order; the initial transaction has
  /// a session of its own.
  std::vector<std::vector<unsigned>> Sessions;
  /// Per transaction: its session and its position in that session.
  std::vector<unsigned> Session, Pos;
  /// Per transaction: the wr sources of its reads.
  std::vector<std::vector<unsigned>> Sources;
  /// Per transaction t: (reader, source) pairs over the variables t
  /// writes, with neither reader nor source t.
  std::vector<std::vector<std::pair<unsigned, unsigned>>> Guard;
  /// Per transaction: the other-session transactions it write-conflicts
  /// with (SI only).
  std::vector<std::vector<unsigned>> Conflicts;
  /// The frontier: per session, its committed count and live bit.
  std::vector<unsigned> Committed;
  std::vector<uint8_t> Live;
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

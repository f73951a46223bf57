//===- consistency/SearchChecker.h - SI and SER via point search ----------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Snapshot Isolation and Serializability checking (NP-complete, Biswas &
/// Enea 2019) by one memoized search. SI is axiomatized as
/// Prefix ∧ Conflict (Fig. 2b, 2c), which is equivalent to the classical
/// operational presentation (Berenson et al.; Cerone et al. CONCUR'15):
/// each transaction t has a start point S(t) and a commit point C(t) on
/// one timeline such that
///
///   * S(t) < C(t), and C(t1) < S(t2) for (t1, t2) ∈ so ∪ wr;
///   * every external read of x in t returns the write of the last
///     transaction committing a write to x before S(t) (snapshot reads —
///     this captures Prefix: the snapshot is a co-downward-closed set);
///   * two transactions that both visibly write some variable may not
///     overlap (Conflict / first-committer-wins).
///
/// SER (Fig. 2d) is SI in which every transaction commits at its own
/// start point, so SER ⊆ SI holds by construction. The search
/// interleaves the points, memoizing failed states on (started-set,
/// committed-set, last-committed-writer map); under SER the started set
/// is the committed set and stays out of the key.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_CONSISTENCY_SEARCHCHECKER_H
#define TXDPOR_CONSISTENCY_SEARCHCHECKER_H

#include "consistency/ConsistencyChecker.h"

#include <optional>
#include <vector>

namespace txdpor {

/// Search-based checker, parameterized by SI or SER.
class SearchChecker : public ConsistencyChecker {
public:
  explicit SearchChecker(IsolationLevel Level) : Level(Level) {
    assert((Level == IsolationLevel::SnapshotIsolation ||
            Level == IsolationLevel::Serializability) &&
           "the point search decides SI and SER only");
  }

  IsolationLevel level() const override { return Level; }
  bool isConsistent(const History &H) const override;

  /// Like isConsistent, but returns a witnessing commit order — the
  /// commit-point sequence of the successful search — or nullopt if the
  /// history violates the level.
  std::optional<std::vector<unsigned>>
  findCommitOrder(const History &H) const;

private:
  IsolationLevel Level;
};

} // namespace txdpor

#endif // TXDPOR_CONSISTENCY_SEARCHCHECKER_H

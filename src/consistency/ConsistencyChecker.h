//===- consistency/ConsistencyChecker.h - Checker interface ---------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deciding whether a history satisfies an isolation level (Def. 2.2) is
/// the basic oracle of all the SMC algorithms: it implements ValidWrites,
/// the Optimality/readLatest conditions, and the final Valid filter. The
/// paper delegates this to the algorithms of Biswas & Enea (OOPSLA 2019):
/// polynomial time for RC, RA, CC; NP-complete for SI and SER. This module
/// mirrors that split:
///
///   * SaturationChecker — RC / RA / CC, polynomial.
///   * SearchChecker     — SI / SER, one memoized start/commit point
///     search (SER commits every transaction at its start point).
///   * BruteForceChecker — literal Def. 2.2 (enumerate commit orders,
///     evaluate axioms); test oracle only.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_CONSISTENCY_CONSISTENCYCHECKER_H
#define TXDPOR_CONSISTENCY_CONSISTENCYCHECKER_H

#include "consistency/IsolationLevel.h"
#include "history/History.h"

#include <memory>

namespace txdpor {

/// Decides history consistency for one isolation level. Checkers are
/// stateless and thread-compatible.
class ConsistencyChecker {
public:
  virtual ~ConsistencyChecker() = default;

  /// The level this checker decides.
  virtual IsolationLevel level() const = 0;

  /// Returns true iff \p H satisfies the level (Def. 2.2). Pending
  /// transactions are treated exactly like committed ones — the axioms see
  /// transactions only through writes(t) and reads(t), and only an abort
  /// event hides writes (§2.2.1).
  virtual bool isConsistent(const History &H) const = 0;
};

/// The SI/SER search packs transaction sets into 64-bit masks, so it
/// decides histories of at most this many transactions (the initial
/// transaction included). Past the limit it aborts with a diagnostic in
/// every build type: the masks would alias and the verdicts would be
/// silently wrong.
constexpr unsigned MaxSearchTxns = 64;

/// Returns the production checker for \p Level (a shared singleton).
const ConsistencyChecker &checkerFor(IsolationLevel Level);

/// Convenience wrapper around checkerFor().isConsistent().
inline bool isConsistent(const History &H, IsolationLevel Level) {
  return checkerFor(Level).isConsistent(H);
}

/// Creates a fresh checker instance (mainly for tests that want to mix
/// production and reference implementations explicitly).
std::unique_ptr<ConsistencyChecker> makeChecker(IsolationLevel Level);

/// Creates the checker for a per-session level assignment: the
/// single-level checker when \p Levels is not mixed, a
/// MixedSaturationChecker for mixes within the saturable chain
/// true/RC/RA/CC. A mixed assignment naming SI or SER has no polynomial
/// decision procedure; it gets the (exponential) BruteForceChecker so
/// the verdict stays correct rather than silently wrong.
std::unique_ptr<ConsistencyChecker> makeChecker(const LevelAssignment &Levels);

/// Convenience wrapper: checks \p H against the per-session assignment.
bool isConsistent(const History &H, const LevelAssignment &Levels);

} // namespace txdpor

#endif // TXDPOR_CONSISTENCY_CONSISTENCYCHECKER_H

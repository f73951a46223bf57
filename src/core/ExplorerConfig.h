//===- core/ExplorerConfig.h - Exploration options and statistics ---------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration and statistics shared by the swapping-based explorer and
/// the baseline DFS. A configuration chooses one of the paper's algorithm
/// instances:
///
///   * explore-ce(I0)          — BaseLevel = I0, no FilterLevel (§5);
///   * explore-ce*(I0, I)      — BaseLevel = I0, FilterLevel = I (§6);
///   * explore-ce(assignment)  — BaseLevels pins sessions to their own
///     base levels (mixed-isolation semantics, arXiv 2505.18409);
///
/// plus ablation knobs that disable the individual §5.3 optimality
/// mechanisms (used by bench_ablation to quantify what each buys).
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_CORE_EXPLORERCONFIG_H
#define TXDPOR_CORE_EXPLORERCONFIG_H

#include "consistency/IsolationLevel.h"
#include "history/History.h"
#include "support/Deadline.h"

#include <cstdint>
#include <functional>
#include <optional>

namespace txdpor {

/// Subtree-deduplication mode (core/Dedup.h). Off by default so runs stay
/// byte-identical to pre-dedup builds.
///
///   * Off      — every subtree is expanded (the historical behaviour);
///   * Symmetry — canonicalize session ids modulo renaming within
///     structural session classes, memoize a fingerprint of each expanded
///     WorkItem and skip items whose fingerprint was already expanded, so
///     isomorphic subtrees of symmetric programs are explored once.
///     expandItem is a deterministic function of the item, so skipping a
///     renamed repeat preserves every verdict. There is no renaming-free
///     mode: strong optimality (Thm. 5.1) means an un-renamed item never
///     recurs, so its table could never skip anything.
enum class DedupMode : uint8_t { Off, Symmetry };

/// Options of one exploration run.
struct ExplorerConfig {
  /// I0: the prefix-closed, causally-extensible level driving ValidWrites
  /// and the swap machinery. Must be one of true / RC / RA / CC (§5, §6).
  IsolationLevel BaseLevel = IsolationLevel::CausalConsistency;

  /// Per-session base levels. ValidWrites and the swap machinery judge
  /// every consistency question at the *reading session's* level, so a
  /// mixed assignment opens exactly the extra wr choices its weaker
  /// sessions admit. Every named level must be prefix-closed and causally
  /// extensible (true/RC/RA/CC, asserted like BaseLevel) — such mixes
  /// keep Theorem 5.1 (docs/ARCHITECTURE.md, "Per-session isolation
  /// levels").
  ///
  /// Resolution against the program (ExplorationEngine): an assignment
  /// with explicit entries here wins; otherwise a program-declared
  /// assignment (Program::levels) wins; otherwise every session runs at
  /// BaseLevel. A resolved assignment whose sessions all agree collapses
  /// to the classic single-level path, so uniform runs are bit-identical
  /// to pre-assignment builds.
  LevelAssignment BaseLevels;

  /// I: the level of the final Valid filter (§6). Unset means
  /// Valid(h) = true, i.e. plain explore-ce(BaseLevel).
  std::optional<IsolationLevel> FilterLevel;

  /// Wall-clock budget; expired explorations report TimedOut.
  Deadline TimeBudget;

  /// §5.3 ablations: disable the "already swapped" restriction
  /// (Fig. 13 mechanism) or the readLatest restriction (Fig. 12
  /// mechanism). Disabling either loses optimality (duplicate histories);
  /// the algorithm remains sound and complete.
  bool CheckSwapped = true;
  bool CheckReadLatest = true;

  /// Safety valve for ablations and huge programs: stop after this many
  /// end states (0 = unlimited).
  uint64_t MaxEndStates = 0;

  /// Debug hook: called with every ordered history the exploration
  /// visits (at explore() entry, i.e. including partial histories). Used
  /// by the test suite to assert the Appendix E invariants dynamically.
  std::function<void(const History &)> OnExplore;

  /// Worker threads of the parallel driver (parallel/ParallelExplorer.h).
  /// 0 or 1 means sequential; the sequential Explorer ignores this. The
  /// output history set is identical for every value (the exploration tree
  /// is fixed; threads only partition its subtrees).
  unsigned Threads = 1;

  /// Order in which Next starts transactions when none is pending (§5.1's
  /// oracle order). Empty means the default: sessions ascending, within a
  /// session by position. A custom order must list every transaction of
  /// the program exactly once and be consistent with session order; the
  /// algorithm's output set is invariant under the choice (completeness
  /// is scheduler-independent), only the exploration order changes.
  std::vector<TxnUid> OracleOrderOverride;

  /// Subtree dedup: skip WorkItems whose session-canonicalized
  /// fingerprint has already been expanded. The engine owns one
  /// internally-synchronized, unbounded table per run, shared by the
  /// sequential and parallel drivers. See core/Dedup.h.
  DedupMode Dedup = DedupMode::Off;

  /// Returns the paper's name for this configuration, e.g. "CC",
  /// "CC + SER", "true + CC".
  std::string algorithmName() const;

  static ExplorerConfig exploreCE(IsolationLevel Base) {
    ExplorerConfig C;
    C.BaseLevel = Base;
    return C;
  }
  static ExplorerConfig exploreCEStar(IsolationLevel Base,
                                      IsolationLevel Filter) {
    ExplorerConfig C;
    C.BaseLevel = Base;
    C.FilterLevel = Filter;
    return C;
  }
  /// explore-ce with a per-session base assignment.
  static ExplorerConfig exploreCEMixed(LevelAssignment Levels) {
    ExplorerConfig C;
    C.BaseLevel = Levels.defaultLevel();
    C.BaseLevels = std::move(Levels);
    return C;
  }
};

/// Counters reported by every exploration (the paper reports time, memory
/// and end states; the rest diagnoses optimality properties in tests).
struct ExplorerStats {
  uint64_t ExploreCalls = 0;   ///< explore invocations (dedup skips included).
  uint64_t EndStates = 0;      ///< Complete executions (before Valid).
  uint64_t Outputs = 0;        ///< Histories passing the Valid filter.
  uint64_t EventsAdded = 0;    ///< Events appended across all branches.
  uint64_t ReadBranches = 0;   ///< wr choices explored.
  uint64_t BlockedReads = 0;   ///< Reads with no valid write (must be 0
                               ///< for causally-extensible BaseLevel).
  uint64_t SwapsConsidered = 0;
  uint64_t SwapsApplied = 0;
  uint64_t ConsistencyChecks = 0;
  uint64_t MaxDepth = 0;
  /// Parallel-driver observability (zero for sequential runs): successful
  /// and failed steal sweeps (a failed sweep = one full pass over every
  /// sibling queue without finding work), idle parks (sleeps after the
  /// yield budget is spent), and the frontier size the split phase handed
  /// to the workers.
  uint64_t StealSuccesses = 0;
  uint64_t StealFailures = 0;
  uint64_t IdleParks = 0;
  uint64_t FrontierItems = 0;
  /// Subtree-dedup observability (zero when Dedup is Off): fingerprint
  /// probes performed (at read-branch and swap children, the only items
  /// where a skip can land) and subtrees skipped as already explored.
  uint64_t DedupChecks = 0;
  uint64_t DedupSkips = 0;
  bool TimedOut = false;
  bool HitEndStateCap = false;
  double ElapsedMillis = 0;
  uint64_t PeakRssKb = 0;

  /// Accumulates \p Other into this: counters add up, MaxDepth/PeakRssKb
  /// take the maximum, the flags OR. ElapsedMillis *adds* (aggregate work
  /// time); drivers that merge concurrent workers overwrite it with the
  /// wall-clock afterwards. The single aggregation routine shared by the
  /// parallel explorer and the bench harnesses.
  void merge(const ExplorerStats &Other);
};

/// Callback receiving every output history.
using HistoryVisitor = std::function<void(const History &)>;

} // namespace txdpor

#endif // TXDPOR_CORE_EXPLORERCONFIG_H

//===- core/Engine.h - Reusable single-step exploration engine ------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exploration *engine*: the single-step expansion of the explore-ce /
/// explore-ce* algorithms, factored out of the drivers that walk the tree.
///
/// A WorkItem is one node of the exploration tree — a history with its
/// execution cursors (§7.1's worklist entry). expandItem() visits the node
/// (statistics, end-state handling, Valid filter, visitor) and produces
/// its children in the canonical recursive visit order: the extension
/// branches (read wr choices, or the single deterministic successor)
/// first, then the swap branches in computeReorderings order.
///
/// The engine itself is immutable after construction — except the
/// internally-synchronized dedup table (core/Dedup.h), owned here so one
/// table covers every driver — and therefore safe to share across
/// threads; all other mutable per-walk state (statistics, stop flag,
/// deadline poll state, callbacks) lives in an ExplorationSink that each
/// driver — or each worker thread of the parallel driver — owns
/// privately. Cross-worker coordination (cooperative stop, the global
/// MaxEndStates budget) goes through the optional atomics in the sink.
///
/// Drivers:
///   * Explorer (core/Explorer.h)          — sequential explicit-stack
///     depth-first walk (drainDepthFirst);
///   * ParallelExplorer (parallel/...)     — breadth-first frontier split
///     plus work-stealing depth-first workers.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_CORE_ENGINE_H
#define TXDPOR_CORE_ENGINE_H

#include "consistency/ConsistencyChecker.h"
#include "consistency/IncrementalChecker.h"
#include "core/Dedup.h"
#include "core/ExplorerConfig.h"
#include "core/Swap.h"
#include "program/Program.h"
#include "semantics/Executor.h"

#include <atomic>
#include <memory>
#include <vector>

namespace txdpor {

/// One node of the exploration tree: a history with its execution cursors
/// and its incremental saturation state, at a recursion depth (the
/// worklist entry of §7.1).
///
/// Ownership/threading contract: a WorkItem is owned by exactly one thread
/// at a time; the parallel driver transfers ownership by *moving* items
/// through its mutex-guarded deques. The history inside is a copy-on-write
/// value — siblings and ancestors share transaction-log storage across
/// threads — which is safe precisely because mutation happens only through
/// the single owning thread, and History clones any shared log before
/// writing (see history/History.h). The constraint state is a plain value
/// (its flat buffers share nothing), so stealing an item moves it with no
/// cross-thread aliasing at all.
struct WorkItem {
  History H;
  CursorMap Cursors;
  unsigned Depth = 1;
  /// The maintained so ∪ wr ∪ forced closure of H under the engine's base
  /// assignment — carried along the tree exactly like the cursor snapshot,
  /// so ValidWrites probes candidate writers against it instead of
  /// rebuilding the constraint graph per candidate (§5.1).
  ConstraintState CState;
};

/// Mutable per-walk (per-worker) state threaded through expandItem. The
/// engine never touches anything outside the sink, so giving each worker
/// its own sink makes the expansion data-race-free by construction.
struct ExplorationSink {
  ExplorerStats Stats;

  /// Receives every output history (post Valid filter). In parallel runs
  /// the driver installs a mutex-guarded wrapper around the user visitor.
  HistoryVisitor Visit;

  /// Debug hook mirroring ExplorerConfig::OnExplore.
  std::function<void(const History &)> OnExplore;

  /// Private copy of the run's deadline: Deadline::expired() caches its
  /// poll state, so sharing one instance across threads would race.
  Deadline TimeBudget;

  /// Local stop flag: set on timeout, end-state cap, or via SharedStop.
  bool Stop = false;

  /// Cooperative cross-worker stop; null for sequential runs. Once any
  /// worker sets it, every sink's shouldStop() turns true.
  std::atomic<bool> *SharedStop = nullptr;

  /// Global end-state budget counter for parallel runs (null otherwise):
  /// MaxEndStates must cap the *total* across workers, not each worker.
  std::atomic<uint64_t> *SharedEndStates = nullptr;
};

/// The single-step expansion shared by every exploration driver.
/// Immutable after construction (the dedup table is internally
/// synchronized); const member functions are safe to call from many
/// threads concurrently with distinct sinks.
class ExplorationEngine {
public:
  ExplorationEngine(const Program &Prog, ExplorerConfig Config);

  /// The root of the exploration tree: the initial-transaction-only
  /// history with no cursors.
  WorkItem initialItem() const;

  /// Expands one node: visits it (statistics, end states, outputs) and
  /// appends its children to \p Out in the canonical recursive visit
  /// order. Children of a stopped sink are not generated.
  void expandItem(WorkItem Item, std::vector<WorkItem> &Out,
                  ExplorationSink &S) const;

  /// Polls the sink's stop conditions (local flag, shared flag, deadline)
  /// and propagates a deadline expiry to SharedStop.
  bool shouldStop(ExplorationSink &S) const;

  /// The configuration this engine was constructed with.
  const ExplorerConfig &config() const { return Config; }
  /// The program under exploration (not owned; must outlive the engine).
  const Program &program() const { return Prog; }
  /// The per-session base assignment this run resolved to (see
  /// ExplorerConfig::BaseLevels for the resolution order). Not mixed for
  /// classic single-level runs.
  const LevelAssignment &baseLevels() const { return BaseLevels; }

private:
  /// What Next(P, h, locals) returned (§5.1).
  struct NextOp {
    bool Done = false;  ///< Program finished (⊥).
    TxnUid Uid{};       ///< Transaction the event belongs to.
    bool IsBegin = false;
    DbOp Op{};          ///< Valid unless Done/IsBegin.
    TxnCursor Advanced; ///< Cursor after local steps (unless Done/IsBegin).
  };

  NextOp computeNext(const History &H, const CursorMap &Cursors) const;
  void reachedEndState(const History &H, ExplorationSink &S) const;

  const Program &Prog;
  ExplorerConfig Config;
  /// Resolved per-session base levels (config > program > uniform
  /// BaseLevel; collapsed to uniform when every session agrees).
  LevelAssignment BaseLevels;
  /// Owns the mixed base checker when BaseLevels is mixed; the classic
  /// path keeps borrowing the per-level singleton through Base, so
  /// uniform runs pay nothing for the indirection.
  std::unique_ptr<ConsistencyChecker> OwnedBase;
  const ConsistencyChecker &Base;
  const ConsistencyChecker *Filter = nullptr;
  std::vector<TxnUid> OracleSequence; ///< Start order used by Next.
  OracleOrder Order;                  ///< Comparator shared with swapped().
  /// Explored-fingerprint memo, present iff Config.Dedup != Off. Sharded
  /// and internally synchronized, so the one engine the parallel driver
  /// shares across workers needs no extra coordination.
  std::unique_ptr<DedupTable> Dedup;
};

/// Depth-first drain of the subtree rooted at \p Root: an explicit LIFO
/// stack popping nodes in exactly the recursive visit order (§7.1). The
/// walk shared by the sequential driver and the parallel driver's
/// workers and single-thread fallback.
void drainDepthFirst(const ExplorationEngine &Engine, WorkItem Root,
                     ExplorationSink &S);

} // namespace txdpor

#endif // TXDPOR_CORE_ENGINE_H

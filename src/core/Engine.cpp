//===- core/Engine.cpp - Reusable single-step exploration engine ----------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"

#include "consistency/SaturationChecker.h"
#include "trace/Counters.h"
#include "trace/Trace.h"

#include <optional>

using namespace txdpor;

namespace {

/// ExplorerConfig::BaseLevels resolution order: an explicit config
/// assignment wins, then a program-declared one, then the classic uniform
/// BaseLevel. Normalized against the program's session count so an
/// assignment whose sessions all agree takes the single-level path.
LevelAssignment resolveBaseLevels(const ExplorerConfig &Config,
                                  const Program &Prog) {
  if (Config.BaseLevels.hasExplicit())
    return Config.BaseLevels.resolved(Prog.numSessions());
  if (Prog.levels().hasExplicit())
    return Prog.levels().resolved(Prog.numSessions());
  return LevelAssignment::uniform(Config.BaseLevel);
}

/// True iff \p H has a pending transaction whose last event is an
/// external read: exactly the read-branch children (§5.1) and the swap
/// children (§5.2), whose swapped reader ends at the re-pointed read.
bool endsInExternalRead(const History &H) {
  std::optional<unsigned> Pending = H.pendingTxn();
  if (!Pending)
    return false;
  const TransactionLog &Log = H.txn(*Pending);
  // A pending log holds at least its begin event.
  return Log.isExternalRead(static_cast<uint32_t>(Log.size()) - 1);
}

} // namespace

ExplorationEngine::ExplorationEngine(const Program &Prog,
                                     ExplorerConfig Config)
    : Prog(Prog), Config(std::move(Config)),
      BaseLevels(resolveBaseLevels(this->Config, Prog)),
      OwnedBase(BaseLevels.isMixed()
                    ? std::make_unique<MixedSaturationChecker>(BaseLevels)
                    : nullptr),
      Base(OwnedBase ? *OwnedBase : checkerFor(BaseLevels.defaultLevel())) {
  assert(BaseLevels.allPrefixClosedCausallyExtensible() &&
         "every session's base level must be prefix-closed and causally "
         "extensible (§5; mixes of such levels keep both properties)");
  if (this->Config.FilterLevel) {
    assert(BaseLevels.allWeakerOrEqual(*this->Config.FilterLevel) &&
           "every base level must be weaker than the filter level "
           "(Cor. 6.2, per session)");
    Filter = &checkerFor(*this->Config.FilterLevel);
  }
  if (this->Config.OracleOrderOverride.empty()) {
    OracleSequence = Prog.oracleOrder();
  } else {
    OracleSequence = this->Config.OracleOrderOverride;
    assert(OracleSequence.size() == Prog.totalTxns() &&
           "oracle order must cover the whole program");
    Order = OracleOrder::fromSequence(OracleSequence);
  }
  if (this->Config.Dedup != DedupMode::Off)
    Dedup = std::make_unique<DedupTable>(Prog, BaseLevels);
}

WorkItem ExplorationEngine::initialItem() const {
  History H = History::makeInitial(Prog.numVars());
  // Reserve capacity for the whole program up front: every extension of
  // the carried state then works in place, without reallocation.
  ConstraintState State(H, BaseLevels, Prog.totalTxns() + 1);
  return {std::move(H), CursorMap(), /*Depth=*/1, std::move(State)};
}

bool ExplorationEngine::shouldStop(ExplorationSink &S) const {
  if (S.Stop)
    return true;
  if (S.SharedStop && S.SharedStop->load(std::memory_order_relaxed)) {
    S.Stop = true;
    return true;
  }
  if (S.TimeBudget.expired()) {
    S.Stats.TimedOut = true;
    S.Stop = true;
    if (S.SharedStop)
      S.SharedStop->store(true, std::memory_order_relaxed);
  }
  return S.Stop;
}

ExplorationEngine::NextOp
ExplorationEngine::computeNext(const History &H,
                               const CursorMap &Cursors) const {
  NextOp Result;
  // Complete the unique pending transaction first (§5.1): this maintains
  // the at-most-one-pending invariant on which causal extensibility (and
  // hence never blocking) relies.
  if (std::optional<unsigned> Pending = H.pendingTxn()) {
    TxnUid Uid = H.txn(*Pending).uid();
    Result.Uid = Uid;
    Result.Advanced = Cursors.at(Uid.packed());
    Result.Op = advanceToDbOp(Prog.txn(Uid), Result.Advanced);
    return Result;
  }
  // Otherwise start the oracle-least not-yet-started transaction.
  for (TxnUid Uid : OracleSequence) {
    if (H.contains(Uid))
      continue;
    Result.Uid = Uid;
    Result.IsBegin = true;
    return Result;
  }
  Result.Done = true;
  return Result;
}

void ExplorationEngine::reachedEndState(const History &H,
                                        ExplorationSink &S) const {
  // Under a global budget the slot must be claimed before counting, so the
  // total across workers never exceeds the cap; over-budget end states are
  // dropped entirely (the run is being cut short anyway).
  if (Config.MaxEndStates && S.SharedEndStates) {
    uint64_t Claimed =
        S.SharedEndStates->fetch_add(1, std::memory_order_relaxed) + 1;
    if (Claimed > Config.MaxEndStates) {
      S.Stop = true;
      return;
    }
    if (Claimed == Config.MaxEndStates) {
      S.Stats.HitEndStateCap = true;
      S.Stop = true;
      if (S.SharedStop)
        S.SharedStop->store(true, std::memory_order_relaxed);
    }
  }
  ++S.Stats.EndStates;
  H.checkOrderConsistent();
  assert(!H.pendingTxn() && "end state with a pending transaction");
  bool Valid = true;
  if (Filter) {
    TXDPOR_TRACE_SPAN(Check, ValidFilter, H.numTxns());
    trace::bump(trace::Counter::FilterChecks);
    ++S.Stats.ConsistencyChecks;
    Valid = Filter->isConsistent(H);
  }
  if (Valid) {
    ++S.Stats.Outputs;
    if (S.Visit)
      S.Visit(H);
  }
  if (Config.MaxEndStates && !S.SharedEndStates &&
      S.Stats.EndStates >= Config.MaxEndStates) {
    S.Stats.HitEndStateCap = true;
    S.Stop = true;
  }
}

void ExplorationEngine::expandItem(WorkItem Item, std::vector<WorkItem> &Out,
                                   ExplorationSink &S) const {
  ++S.Stats.ExploreCalls;
  if (Item.Depth > S.Stats.MaxDepth)
    S.Stats.MaxDepth = Item.Depth;
  if (shouldStop(S))
    return;
  if (Dedup && endsInExternalRead(Item.H)) {
    // Only read-branch and swap children are probed: their pending
    // transaction ends in an external read. Every other item extends its
    // parent by one begin, write, local read, commit or abort, and removing
    // that last event commutes with session renaming. So if such an item
    // were a renamed repeat of an earlier one, its parent would be a
    // renamed repeat of the earlier item's parent — and so on up to the
    // nearest probed ancestors, the second of which would already have
    // been skipped.
    ++S.Stats.DedupChecks;
    if (!Dedup->insertIfNew(Dedup->fingerprint(Item.H))) {
      // An item with this canonical fingerprint was already expanded;
      // its subtree's outputs are (a renaming of) ones already emitted.
      ++S.Stats.DedupSkips;
      return;
    }
  }
  TXDPOR_TRACE_SPAN(Explore, ExpandItem, Item.Depth);
  if (S.OnExplore)
    S.OnExplore(Item.H);

  History &H = Item.H;
  CursorMap &Cursors = Item.Cursors;
  ConstraintState &CState = Item.CState;
  NextOp Next = computeNext(H, Cursors);
  if (Next.Done) {
    reachedEndState(H, S);
    return;
  }

  if (Next.IsBegin) {
    // Begin events extend deterministically; a begin is never a commit, so
    // the swap phase would be a no-op (§5.2).
    H.beginTxn(Next.Uid);
    CState.applyBegin(Next.Uid);
    Cursors[Next.Uid.packed()] = TxnCursor::fresh(Prog.txn(Next.Uid));
    ++S.Stats.EventsAdded;
    Out.push_back({std::move(H), std::move(Cursors), Item.Depth + 1,
                   std::move(CState)});
    return;
  }

  unsigned Idx = *H.indexOf(Next.Uid);
  const Transaction &Code = Prog.txn(Next.Uid);

  switch (Next.Op.Kind) {
  case DbOp::Kind::Read: {
    // Branch over ValidWrites (§5.1): committed writers of the variable
    // whose wr choice keeps the history base-consistent. Under a mixed
    // assignment the new read's axiom instances use the *reading
    // session's* level, so weaker sessions admit more writers.
    H.appendEvent(Idx, Event::makeRead(Next.Op.Var));
    ++S.Stats.EventsAdded;
    uint32_t Pos = static_cast<uint32_t>(H.txn(Idx).size()) - 1;

    if (!H.txn(Idx).isExternalRead(Pos)) {
      // Read-local rule: value is fixed by the transaction itself; no wr
      // dependency and no branching.
      TxnCursor &Cur = Cursors[Next.Uid.packed()];
      Cur = Next.Advanced;
      applyRead(Code, Cur, H.readValue(Idx, Pos));
      Out.push_back({std::move(H), std::move(Cursors), Item.Depth + 1,
                     std::move(CState)});
      return;
    }

    // The §5.1 commit test, incremental: each candidate is a reachability
    // probe against the carried closure instead of a constraint-graph
    // rebuild. The candidate enumeration itself comes from the state's
    // per-variable committed-writer index (same ascending block order as
    // History::committedWriters). Debug builds re-derive every verdict
    // with the scratch checker, so any drift aborts the exploration.
    TXDPOR_TRACE_SPAN_NAMED(ValidWritesSpan, Explore, ValidWrites,
                            Next.Op.Var);
    uint64_t Probes = 0;
    std::vector<unsigned> Candidates;
    CState.forEachCommittedWriter(Next.Op.Var, [&](unsigned W) {
      ++S.Stats.ConsistencyChecks;
      ++Probes;
      bool Admits = CState.readAdmits(W, Next.Op.Var);
#ifndef NDEBUG
      History Probe = H;
      Probe.setWriter(Idx, Pos, H.txn(W).uid());
      assert(Admits == Base.isConsistent(Probe) &&
             "incremental commit test drifted from the scratch checker");
#endif
      if (Admits)
        Candidates.push_back(W);
    });
    trace::bump(trace::Counter::ValidWritesProbes, Probes);
    ValidWritesSpan.setArgs(Next.Op.Var, Probes);
    if (Candidates.empty()) {
      // Cannot happen for causally-extensible base levels (§3.2); counted
      // to let tests assert strong optimality.
      ++S.Stats.BlockedReads;
      return;
    }
    // Explore latest writers first (order does not affect the result set).
    // The branch copy is a copy-on-write alias: every log is shared with H
    // until setWriter clones the one reader log it re-points. The carried
    // state is re-used by value: one flat copy plus the O(rows) read
    // application per branch.
    for (size_t CI = Candidates.size(); CI-- > 0;) {
      unsigned W = Candidates[CI];
      History Branch = H;
      Branch.setWriter(Idx, Pos, H.txn(W).uid());
      ConstraintState BranchState = CState;
      BranchState.applyExternalRead(W, Next.Op.Var);
      CursorMap BranchCursors = Cursors;
      TxnCursor &Cur = BranchCursors[Next.Uid.packed()];
      Cur = Next.Advanced;
      applyRead(Code, Cur, Branch.readValue(Idx, Pos));
      ++S.Stats.ReadBranches;
      Out.push_back({std::move(Branch), std::move(BranchCursors),
                     Item.Depth + 1, std::move(BranchState)});
      // A read is never a commit: the swap phase would be a no-op.
    }
    return;
  }

  case DbOp::Kind::Write: {
    H.appendEvent(Idx, Event::makeWrite(Next.Op.Var, Next.Op.Val));
    ++S.Stats.EventsAdded;
    // Causal extensibility (Thm. 3.4) guarantees writes never violate the
    // base level when the pending transaction is (so ∪ wr)+-maximal — the
    // carried state needs no update either: a write adds no edge, and its
    // visibility starts at the commit (§2.2.1).
    assert(Base.isConsistent(H) && "write extension broke consistency");
    Cursors[Next.Uid.packed()] = Next.Advanced;
    applyWrite(Cursors[Next.Uid.packed()]);
    Out.push_back({std::move(H), std::move(Cursors), Item.Depth + 1,
                   std::move(CState)});
    return;
  }

  case DbOp::Kind::Abort: {
    H.appendEvent(Idx, Event::makeAbort());
    CState.applyAbort();
    ++S.Stats.EventsAdded;
    Cursors[Next.Uid.packed()] = Next.Advanced;
    applyFinish(Cursors[Next.Uid.packed()]);
    // Aborted transactions are never swap targets (§5.2, footnote 5).
    Out.push_back({std::move(H), std::move(Cursors), Item.Depth + 1,
                   std::move(CState)});
    return;
  }

  case DbOp::Kind::Commit: {
    H.appendEvent(Idx, Event::makeCommit());
    CState.applyCommit(H.txn(Idx));
    ++S.Stats.EventsAdded;
    Cursors[Next.Uid.packed()] = Next.Advanced;
    applyFinish(Cursors[Next.Uid.packed()]);

    // Swap children are computed first — they need H and its cursor map —
    // but emitted *after* the extension child, preserving the canonical
    // child order (extension first, then swaps in computeReorderings
    // order, §5.2, each gated by the Optimality condition, §5.3). Each
    // swap child shares every kept log with H (copy-on-write) and rebuilds
    // only the truncated reader's cursor: all other cursors are reused
    // from this item's snapshot via replayCursorsFrom. Its constraint
    // state rebuilds the same way the cursors do, from the applySwap
    // resume point: every block below FirstChanged is byte-identical to a
    // kept block of H, so the bulk replay re-derives their rows without
    // any commit-test work, and only the truncated reader at FirstChanged
    // re-runs its reads through the incremental appliers; the state then
    // doubles as the Optimality consistency check and is handed to the
    // child, which probes its next read against it directly.
    std::vector<WorkItem> SwapChildren;
    std::vector<Reordering> Reorderings = computeReorderings(H);
    TXDPOR_TRACE_SPAN(Swap, CommitFanout, Reorderings.size());
    // One prefix-state cache serves the whole fan-out: every swapped
    // history and readLatest truncation is byte-identical to H below its
    // reader block, so each rebuild is a flat copy of the cached prefix
    // state plus a replay of the few blocks at or after the reader —
    // instead of the bulk O(history) rebuild per candidate this loop used
    // to pay. The bulk constructor stays as the debug cross-check.
    std::optional<PrefixStateCache> PrefixCache;
    if (!Reorderings.empty())
      PrefixCache.emplace(H, BaseLevels, Prog.totalTxns() + 1);
    for (const Reordering &R : Reorderings) {
      TXDPOR_TRACE_SPAN(Swap, SwapChild, R.ReaderTxn, R.ReadPos);
      ++S.Stats.SwapsConsidered;
      unsigned FirstChanged = 0;
      History Swapped = applySwap(H, R, &FirstChanged);
      ++S.Stats.ConsistencyChecks;
      ConstraintState SwapState = PrefixCache->stateFor(R.ReaderTxn);
      SwapState.replayBlocks(Swapped, R.ReaderTxn, Swapped.numTxns());
#ifndef NDEBUG
      {
        ConstraintState BulkRef(Swapped, BaseLevels, Prog.totalTxns() + 1);
        assert(SwapState.equivalentTo(BulkRef) &&
               "incremental swap-child rebuild diverged from the bulk state");
      }
#endif
      assert(SwapState.consistent() == Base.isConsistent(Swapped) &&
             "incremental swap verdict drifted from the scratch checker");
      if (!SwapState.consistent())
        continue;
      if (!optimalityRestrictionsHold(H, R, BaseLevels, Config.CheckSwapped,
                                      Config.CheckReadLatest,
                                      &S.Stats.ConsistencyChecks, Order,
                                      &*PrefixCache))
        continue;
      ++S.Stats.SwapsApplied;
      trace::bump(trace::Counter::SwapChildrenBuilt);
      CursorMap SwapCursors =
          replayCursorsFrom(Prog, Swapped, Cursors, FirstChanged);
      SwapChildren.push_back({std::move(Swapped), std::move(SwapCursors),
                              Item.Depth + 1, std::move(SwapState)});
    }
    Out.push_back({std::move(H), std::move(Cursors), Item.Depth + 1,
                   std::move(CState)});
    for (WorkItem &Child : SwapChildren)
      Out.push_back(std::move(Child));
    return;
  }
  }
}

void txdpor::drainDepthFirst(const ExplorationEngine &Engine, WorkItem Root,
                             ExplorationSink &S) {
  std::vector<WorkItem> Stack;
  Stack.push_back(std::move(Root));
  std::vector<WorkItem> Children;
  while (!Stack.empty()) {
    if (Engine.shouldStop(S))
      return;
    WorkItem Item = std::move(Stack.back());
    Stack.pop_back();
    Children.clear();
    Engine.expandItem(std::move(Item), Children, S);
    // Reverse push so children pop in the recursive visit order.
    for (size_t I = Children.size(); I-- > 0;)
      Stack.push_back(std::move(Children[I]));
  }
}

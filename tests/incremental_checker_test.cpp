//===- tests/incremental_checker_test.cpp - Incremental vs scratch --------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Equivalence tests pinning the incremental commit-test engine
/// (consistency/IncrementalChecker.h) to the scratch saturation checkers:
/// random engine-shaped extension sequences probed candidate by candidate
/// (uniform and mixed assignments), the maintained indexes against their
/// History counterparts, swap-replay rebuilds, and the mid-order-pending
/// truncation shape of readLatest. The fixture name is the tier-1
/// `incremental_equivalence` ctest (CMakeLists.txt).
///
//===----------------------------------------------------------------------===//

#include "consistency/IncrementalChecker.h"

#include "consistency/SaturationChecker.h"
#include "core/Swap.h"
#include "support/Rng.h"
#include "TestUtil.h"
#include <gtest/gtest.h>

using namespace txdpor;
using namespace txdpor::test;

namespace {

constexpr VarId X = 0;
constexpr VarId Y = 1;

/// Scratch reference verdict for a (possibly mixed) assignment.
bool scratchConsistent(const History &H, const LevelAssignment &L) {
  if (L.isMixed())
    return MixedSaturationChecker(L).isConsistent(H);
  return isConsistent(H, L.defaultLevel());
}

/// The assignments the equivalence suite sweeps: the four uniform
/// saturable levels plus genuinely mixed per-session assignments.
std::vector<LevelAssignment> sweepAssignments() {
  std::vector<LevelAssignment> Result;
  for (IsolationLevel L :
       {IsolationLevel::Trivial, IsolationLevel::ReadCommitted,
        IsolationLevel::ReadAtomic, IsolationLevel::CausalConsistency})
    Result.push_back(LevelAssignment::uniform(L));
  LevelAssignment MixA(IsolationLevel::CausalConsistency);
  MixA.set(1, IsolationLevel::ReadCommitted);
  Result.push_back(MixA);
  LevelAssignment MixB(IsolationLevel::ReadCommitted);
  MixB.set(0, IsolationLevel::CausalConsistency);
  MixB.set(2, IsolationLevel::ReadAtomic);
  Result.push_back(MixB);
  LevelAssignment MixC(IsolationLevel::ReadAtomic);
  MixC.set(1, IsolationLevel::Trivial);
  Result.push_back(MixC);
  return Result;
}

void expectStateMatchesHistory(const ConstraintState &St, const History &H) {
  ASSERT_EQ(St.numTxns(), H.numTxns());
  const Relation &Causal = H.causalRelation();
  for (unsigned A = 0; A != H.numTxns(); ++A)
    for (unsigned B = 0; B != H.numTxns(); ++B)
      EXPECT_EQ(St.causal().get(A, B), Causal.get(A, B))
          << "causal closure diverges at (" << A << ", " << B << ")";
  for (VarId V = 0; V != 2; ++V) {
    std::vector<unsigned> FromState;
    St.forEachCommittedWriter(V, [&](unsigned W) { FromState.push_back(W); });
    EXPECT_EQ(FromState, H.committedWriters(V))
        << "committed-writer index diverges for variable " << V;
  }
}

/// Drives one random engine-shaped construction (one pending transaction
/// at a time, reads assigned through probed candidates — exactly the
/// explorer's extension discipline) and checks every probe, verdict and
/// index against the scratch implementations.
void runRandomEquivalence(uint64_t Seed, const LevelAssignment &Levels) {
  SCOPED_TRACE("seed " + std::to_string(Seed) + " levels " + Levels.str());
  Rng R(Seed);
  const unsigned NumVars = 2, NumSessions = 3, NumTxns = 6;
  History H = History::makeInitial(NumVars);
  ConstraintState St(H, Levels, /*MaxTxns=*/NumTxns + 1);

  std::vector<uint32_t> NextIndex(NumSessions, 0);
  Value NextVal = 1;
  for (unsigned T = 0; T != NumTxns; ++T) {
    uint32_t S = static_cast<uint32_t>(R.nextBelow(NumSessions));
    TxnUid Uid{S, NextIndex[S]++};
    unsigned Idx = H.beginTxn(Uid);
    St.applyBegin(Uid);
    ASSERT_TRUE(St.hasOpenTxn());
    ASSERT_EQ(St.openTxn(), Idx);

    for (unsigned Op = 0, E = 1 + static_cast<unsigned>(R.nextBelow(3));
         Op != E; ++Op) {
      VarId V = static_cast<VarId>(R.nextBelow(NumVars));
      if (R.chance(1, 2)) {
        H.appendEvent(Idx, Event::makeWrite(V, NextVal++));
        continue; // Writes need no state update.
      }
      H.appendEvent(Idx, Event::makeRead(V));
      uint32_t Pos = static_cast<uint32_t>(H.txn(Idx).size()) - 1;
      if (!H.txn(Idx).isExternalRead(Pos))
        continue; // Read-local: no wr edge, no commit test.

      // Probe every committed writer and compare against the scratch
      // verdict on the extended history — the ValidWrites loop.
      std::vector<unsigned> Admitted;
      for (unsigned W : H.committedWriters(V)) {
        bool Admits = St.readAdmits(W, V);
        History Probe = H;
        Probe.setWriter(Idx, Pos, H.txn(W).uid());
        EXPECT_EQ(Admits, scratchConsistent(Probe, Levels))
            << "probe of writer " << W << " for var " << V << " diverges";
        if (Admits)
          Admitted.push_back(W);
      }
      // Causal extensibility (Thm. 3.4): the commit test never blocks.
      ASSERT_FALSE(Admitted.empty());
      unsigned W = Admitted[R.nextBelow(Admitted.size())];
      H.setWriter(Idx, Pos, H.txn(W).uid());
      St.applyExternalRead(W, V);
      EXPECT_TRUE(St.consistent());
      EXPECT_TRUE(scratchConsistent(H, Levels));
    }

    if (R.chance(1, 8)) {
      H.appendEvent(Idx, Event::makeAbort());
      St.applyAbort();
    } else {
      H.appendEvent(Idx, Event::makeCommit());
      St.applyCommit(H.txn(Idx));
    }
    EXPECT_FALSE(St.hasOpenTxn());
    expectStateMatchesHistory(St, H);

    // Swap-replay leg: every reordering of the just-committed block must
    // bulk-rebuild to the scratch verdict of the swapped history.
    for (const Reordering &Rd : computeReorderings(H)) {
      unsigned FirstChanged = 0;
      History Swapped = applySwap(H, Rd, &FirstChanged);
      EXPECT_EQ(FirstChanged, Swapped.numTxns() - 1);
      ConstraintState SwapState(Swapped, Levels);
      EXPECT_EQ(SwapState.consistent(), scratchConsistent(Swapped, Levels))
          << "swap-rebuild verdict diverges for reader " << Rd.ReaderTxn
          << " pos " << Rd.ReadPos;
    }
  }
  H.checkWellFormed();
}

/// Builds one random, fully-committed engine-shaped history: every
/// external read's writer is chosen among the candidates the carried
/// state admits, so the result is consistent under \p Levels by
/// construction (the explorer's own extension discipline).
History randomCommittedHistory(uint64_t Seed, const LevelAssignment &Levels,
                               unsigned NumTxns) {
  Rng R(Seed);
  const unsigned NumVars = 2, NumSessions = 3;
  History H = History::makeInitial(NumVars);
  ConstraintState St(H, Levels, NumTxns + 1);
  std::vector<uint32_t> NextIndex(NumSessions, 0);
  Value NextVal = 1;
  for (unsigned T = 0; T != NumTxns; ++T) {
    uint32_t S = static_cast<uint32_t>(R.nextBelow(NumSessions));
    TxnUid Uid{S, NextIndex[S]++};
    unsigned Idx = H.beginTxn(Uid);
    St.applyBegin(Uid);
    for (unsigned Op = 0, E = 1 + static_cast<unsigned>(R.nextBelow(3));
         Op != E; ++Op) {
      VarId V = static_cast<VarId>(R.nextBelow(NumVars));
      if (R.chance(1, 2)) {
        H.appendEvent(Idx, Event::makeWrite(V, NextVal++));
        continue;
      }
      H.appendEvent(Idx, Event::makeRead(V));
      uint32_t Pos = static_cast<uint32_t>(H.txn(Idx).size()) - 1;
      if (!H.txn(Idx).isExternalRead(Pos))
        continue;
      std::vector<unsigned> Admitted;
      for (unsigned W : H.committedWriters(V))
        if (St.readAdmits(W, V))
          Admitted.push_back(W);
      unsigned W = Admitted[R.nextBelow(Admitted.size())];
      H.setWriter(Idx, Pos, H.txn(W).uid());
      St.applyExternalRead(W, V);
    }
    H.appendEvent(Idx, Event::makeCommit());
    St.applyCommit(H.txn(Idx));
  }
  return H;
}

/// The engine's O(Δ) swap-child rebuild over one random history: every
/// reordering candidate's state, rebuilt by copying the cached prefix
/// state below the reader and replaying only the changed blocks, must be
/// equivalentTo the bulk-constructed state of the same swapped history.
/// Random reader positions across seeds sweep every FirstChangedBlock
/// position the fan-out can produce.
void runPrefixCacheSwapGrid(uint64_t Seed, const LevelAssignment &Levels) {
  SCOPED_TRACE("seed " + std::to_string(Seed) + " levels " + Levels.str());
  const unsigned NumTxns = 6;
  History H = randomCommittedHistory(Seed, Levels, NumTxns);

  // Checkpoints accessed in descending order exercise the non-monotone
  // lookup path (a fresh checkpoint below an existing one).
  PrefixStateCache Cache(H, Levels, NumTxns + 1);
  for (unsigned L = H.numTxns(); L >= 1; --L) {
    ConstraintState Prefix = Cache.stateFor(L);
    ConstraintState Ref(H, Levels, /*MaxTxns=*/0, /*PrefixLen=*/L);
    EXPECT_TRUE(Prefix.equivalentTo(Ref))
        << "cached prefix state diverges at length " << L;
  }

  PrefixStateCache SwapCache(H, Levels, NumTxns + 1);
  for (const Reordering &Rd : computeReorderings(H)) {
    History Swapped = applySwap(H, Rd);
    ConstraintState Bulk(Swapped, Levels);
    ConstraintState Incr = SwapCache.stateFor(Rd.ReaderTxn);
    Incr.replayBlocks(Swapped, Rd.ReaderTxn, Swapped.numTxns());
    EXPECT_TRUE(Incr.equivalentTo(Bulk) && Bulk.equivalentTo(Incr))
        << "incremental swap-child rebuild diverges for reader "
        << Rd.ReaderTxn << " pos " << Rd.ReadPos;
    EXPECT_EQ(Incr.consistent(), Bulk.consistent());
  }
}

} // namespace

TEST(IncrementalEquivalence, PrefixCacheSwapGridMatchesBulk) {
  for (const LevelAssignment &Levels : sweepAssignments())
    for (uint64_t Seed = 1; Seed <= 20; ++Seed)
      runPrefixCacheSwapGrid(Seed, Levels);
}

TEST(IncrementalEquivalence, RandomExtensionsMatchScratch) {
  for (const LevelAssignment &Levels : sweepAssignments())
    for (uint64_t Seed = 1; Seed <= 25; ++Seed)
      runRandomEquivalence(Seed, Levels);
}

TEST(IncrementalEquivalence, BulkVerdictMatchesScratchOnLitmus) {
  // The CC litmus violation: t2 reads x from t1 but y from init although
  // t1's write of y causally precedes (write skew on visibility).
  History Bad = LitmusBuilder(2)
                    .txn(0, 0).w(X, 1).commit()
                    .txn(0, 1).w(Y, 2).commit()
                    .txn(1, 0).r(Y, uid(0, 1)).rInit(X).commit()
                    .build();
  for (const LevelAssignment &Levels : sweepAssignments()) {
    ConstraintState St(Bad, Levels);
    EXPECT_EQ(St.consistent(), scratchConsistent(Bad, Levels))
        << Levels.str();
  }
  // RA-visible, RC-invisible atomicity violation: the reader sees init's
  // Y first, then t0's X — no wr ∘ po premise (RC fine), but the so ∪ wr
  // premise forces t0 before init (RA cycle).
  History Split = LitmusBuilder(2)
                      .txn(0, 0).w(X, 1).w(Y, 1).commit()
                      .txn(1, 0).rInit(Y).r(X, uid(0, 0)).commit()
                      .build();
  EXPECT_TRUE(ConstraintState(
                  Split, LevelAssignment::uniform(IsolationLevel::ReadCommitted))
                  .consistent());
  EXPECT_FALSE(ConstraintState(
                   Split, LevelAssignment::uniform(IsolationLevel::ReadAtomic))
                   .consistent());
  // Per-session mix: the violation exists iff the *reading* session runs
  // at RA or stronger.
  LevelAssignment ReaderWeak(IsolationLevel::ReadAtomic);
  ReaderWeak.set(1, IsolationLevel::ReadCommitted);
  EXPECT_TRUE(ConstraintState(Split, ReaderWeak).consistent());
  LevelAssignment ReaderStrong(IsolationLevel::ReadCommitted);
  ReaderStrong.set(1, IsolationLevel::ReadAtomic);
  EXPECT_FALSE(ConstraintState(Split, ReaderStrong).consistent());
}

TEST(IncrementalEquivalence, MidOrderPendingTruncationProbes) {
  // The readLatest truncation shape: the pending reader sits mid-order,
  // with a committed block after it. Probes must still match the scratch
  // verdict on the extended history — including a writer that sits
  // *after* the pending block (a backward wr edge into the open sink).
  LitmusBuilder B(2);
  B.txn(0, 0).w(X, 1).commit();
  B.txn(1, 0).r(X, uid(0, 0)); // Pending: no commit.
  B.txn(2, 0).w(X, 2).w(Y, 3).commit();
  History H = B.build();
  ASSERT_TRUE(H.txn(2).isPending());

  for (const LevelAssignment &Levels : sweepAssignments()) {
    ConstraintState St(H, Levels);
    ASSERT_TRUE(St.consistent()) << Levels.str();
    ASSERT_TRUE(St.hasOpenTxn());
    ASSERT_EQ(St.openTxn(), 2u);
    for (VarId V : {X, Y})
      for (unsigned W : H.committedWriters(V)) {
        bool Admits = St.readAdmits(W, V);
        History Probe = H;
        Probe.appendEvent(2, Event::makeRead(V));
        uint32_t Pos = static_cast<uint32_t>(Probe.txn(2).size()) - 1;
        Probe.setWriter(2, Pos, H.txn(W).uid());
        EXPECT_EQ(Admits, scratchConsistent(Probe, Levels))
            << Levels.str() << " var " << V << " writer " << W;
      }
  }
}

TEST(IncrementalEquivalence, ProbePastSixtyFourForcedEdges) {
  // One CC probe that collects more than 64 forced edges, so
  // createsCycle leaves its 64-node bitmask search for the fallback. The
  // pending reader T (session 0) has 64 committed writers of x before it
  // in its own session and has read y from A; A and B write both x and y.
  // Reading x from B forces every other causal writer of x (init, the 64
  // session-0 writers and A) before B, and retroactively forces B before
  // A: 67 edges whose only cycle, A → B → A, uses two of them.
  LitmusBuilder Builder(2);
  for (uint32_t I = 0; I != 64; ++I)
    Builder.txn(0, I).w(X, static_cast<Value>(I + 1)).commit();
  Builder.txn(1, 0).w(X, 100).w(Y, 100).commit();
  Builder.txn(2, 0).w(X, 200).w(Y, 200).commit();
  Builder.txn(0, 64).r(Y, uid(1, 0));
  History H = Builder.build();
  const unsigned A = 65, B = 66, T = 67;
  ASSERT_TRUE(H.txn(T).isPending());

  ConstraintState St(
      H, LevelAssignment::uniform(IsolationLevel::CausalConsistency));
  ASSERT_TRUE(St.consistent());
  ASSERT_EQ(St.openTxn(), T);
  SaturationChecker Scratch(IsolationLevel::CausalConsistency);
  History Read = H;
  Read.appendEvent(T, Event::makeRead(X));
  const uint32_t Pos = static_cast<uint32_t>(Read.txn(T).size()) - 1;
  for (unsigned W : H.committedWriters(X)) {
    History Probe = Read;
    Probe.setWriter(T, Pos, H.txn(W).uid());
    EXPECT_EQ(St.readAdmits(W, X), Scratch.isConsistent(Probe))
        << "writer " << W;
  }
  // Both answers of the fallback are reached: A's probe collects 65
  // edges and no cycle, B's collects 67 and the two-edge cycle.
  EXPECT_TRUE(St.readAdmits(A, X));
  EXPECT_FALSE(St.readAdmits(B, X));
}

TEST(IncrementalEquivalence, StateCapacityGrowsWithinMaxTxns) {
  // A state sized for the whole program keeps extending in place across
  // the capacity the engine reserves (initialItem).
  History H = History::makeInitial(1);
  ConstraintState St(H, LevelAssignment::uniform(IsolationLevel::ReadAtomic),
                     /*MaxTxns=*/9);
  for (uint32_t T = 0; T != 8; ++T) {
    TxnUid Uid{0, T};
    unsigned Idx = H.beginTxn(Uid);
    St.applyBegin(Uid);
    H.appendEvent(Idx, Event::makeRead(X));
    // Reading the session's latest writer is always admitted; reading a
    // stale writer past it violates RA (its write is in the premise).
    unsigned Latest = Idx - 1;
    ASSERT_TRUE(St.readAdmits(Latest, X));
    if (Latest != 0) {
      EXPECT_FALSE(St.readAdmits(0, X))
          << "stale init read must violate RA once the session wrote";
    }
    H.setWriter(Idx, 1, H.txn(Latest).uid());
    St.applyExternalRead(Latest, X);
    H.appendEvent(Idx, Event::makeWrite(X, T + 1));
    H.appendEvent(Idx, Event::makeCommit());
    St.applyCommit(H.txn(Idx));
  }
  EXPECT_EQ(St.numTxns(), 9u);
  EXPECT_TRUE(St.consistent());
  EXPECT_TRUE(scratchConsistent(
      H, LevelAssignment::uniform(IsolationLevel::ReadAtomic)));
  // The session-order chain must have accumulated transitively.
  EXPECT_TRUE(St.causal().get(1, 8));
}

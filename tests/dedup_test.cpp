//===- tests/dedup_test.cpp - Subtree dedup & hashing regression tests ----===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the canonical-fingerprint subtree dedup
/// (core/Dedup.h) — session-renaming invariance (past 64 sessions too),
/// agreement with History::canonicalKey, the cursor premise that lets
/// the fingerprint hash the history alone, the pinned dedup walk, and
/// verdict equivalence of dedup-on vs dedup-off exploration — plus
/// regression tests for two fixed weak-hash bugs: the commutative
/// per-log sum of History::hashIgnoringOrder and the 32-bit multiplier of
/// std::hash<EventRef>.
///
//===----------------------------------------------------------------------===//

#include "core/Dedup.h"

#include "apps/Applications.h"
#include "consistency/ConsistencyChecker.h"
#include "core/Engine.h"
#include "core/Enumerate.h"
#include "parallel/ParallelExplorer.h"
#include "semantics/Executor.h"

#include "TestUtil.h"
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

using namespace txdpor;
using namespace txdpor::test;

namespace {

constexpr VarId X = 0;

/// A pending log whose last event is a write of \p V — the shape that
/// makes hashTransactionLog affine in the written value (the value is
/// the final hashCombine input, so hash(V) = H_prev ^ (V + K)).
TransactionLog writeLog(TxnUid U, Value V) {
  TransactionLog Log(U);
  Log.append(Event::makeBegin());
  Log.append(Event::makeWrite(X, V));
  return Log;
}

/// The block-order-insensitive per-session renaming \p Pi applied to \p H
/// (init maps to itself). Pi must be a permutation of the session ids and
/// must only identify sessions whose program code is identical, so the
/// renamed history is an execution of the same program.
History renameSessions(const History &H,
                       const std::vector<uint32_t> &Pi) {
  auto Renamed = [&](TxnUid U) {
    return U.isInit() ? U : TxnUid{Pi[U.Session], U.Index};
  };
  // Rebuilt from scratch (replaceLog must preserve transaction identity,
  // so it cannot install a renamed log): every block is re-appended in
  // block order under its new uid, keeping the uid index coherent for
  // the cursor replay below.
  History R;
  for (unsigned I = 0; I != H.numTxns(); ++I) {
    const TransactionLog &Log = H.txn(I);
    TransactionLog New(Renamed(Log.uid()));
    for (uint32_t P = 0, E = static_cast<uint32_t>(Log.size()); P != E; ++P) {
      New.append(Log.event(P));
      if (std::optional<TxnUid> W = Log.writerOf(P))
        New.setWriter(P, Renamed(*W));
    }
    R.appendLog(std::move(New));
  }
  return R;
}

Program identicalProgram(unsigned Sessions, unsigned Txns, uint64_t Seed) {
  ClientSpec Spec;
  Spec.Sessions = Sessions;
  Spec.TxnsPerSession = Txns;
  Spec.Seed = Seed;
  return makeClientProgram(AppKind::IdenticalSessions, Spec);
}

} // namespace

//===----------------------------------------------------------------------===//
// Satellite regressions: the weak hashes.
//===----------------------------------------------------------------------===//

// hashIgnoringOrder used to sum `hashLog(L) * C` over the logs, so any
// two histories whose per-log hashes had equal *sums* collided. For a log
// ending in a write, hashTransactionLog is affine in the written value
// (H_prev ^ (Val + K)), so bumping the value by one shifts the hash by
// exactly +-1 depending on the low bit — which lets us build two distinct
// two-log histories with provably equal per-log sums. The mixed combine
// must now tell them apart.
TEST(HashIgnoringOrderTest, MixesPerLogHashesBeforeSumming) {
  TxnUid U0 = uid(0, 0), U1 = uid(1, 0);
  // Find Va, Vb where bumping the written value by one shifts each log's
  // hash by exactly +-1 (true for every other value; the sign per uid is
  // fixed by the pre-value hash state's low bit).
  auto Delta = [](TxnUid U, Value V) -> int64_t {
    return static_cast<int64_t>(hashTransactionLog(writeLog(U, V + 1)) -
                                hashTransactionLog(writeLog(U, V)));
  };
  std::optional<Value> Va, Vb;
  for (Value V = 0; V != 64 && (!Va || !Vb); ++V) {
    if (!Va && (Delta(U0, V) == 1 || Delta(U0, V) == -1))
      Va = V;
    if (!Vb && (Delta(U1, V) == 1 || Delta(U1, V) == -1))
      Vb = V;
  }
  ASSERT_TRUE(Va && Vb) << "no +-1 pair in range; hashLog changed shape?";

  // Bump on opposite sides when the deltas agree (+d then -(+d) cancels
  // across the sum), on the same side when they cancel each other.
  bool SameSign = Delta(U0, *Va) == Delta(U1, *Vb);
  History H1 = History::makeInitial(1);
  H1.appendLog(writeLog(U0, *Va + 1));
  H1.appendLog(writeLog(U1, SameSign ? *Vb : *Vb + 1));
  History H2 = History::makeInitial(1);
  H2.appendLog(writeLog(U0, *Va));
  H2.appendLog(writeLog(U1, SameSign ? *Vb + 1 : *Vb));

  // The premise of the regression: distinct histories, equal per-log
  // hash sums — the exact collision class of the old scheme.
  ASSERT_NE(H1.canonicalKey(), H2.canonicalKey());
  ASSERT_EQ(hashTransactionLog(H1.txn(1)) + hashTransactionLog(H1.txn(2)),
            hashTransactionLog(H2.txn(1)) + hashTransactionLog(H2.txn(2)));
  EXPECT_NE(H1.hashIgnoringOrder(), H2.hashIgnoringOrder());

  // The property the hash exists for survives the fix: block order is
  // still ignored.
  History H1Swapped = History::makeInitial(1);
  H1Swapped.appendLog(writeLog(U1, SameSign ? *Vb : *Vb + 1));
  H1Swapped.appendLog(writeLog(U0, *Va + 1));
  EXPECT_EQ(H1.hashIgnoringOrder(), H1Swapped.hashIgnoringOrder());
}

// The previous std::hash<EventRef> was packed() * 1000003u + Pos: for
// session 0 with small transaction indices the result never exceeded
// ~2^30, leaving the entire upper half of the hash constant — every
// power-of-two hash table degenerated to its low buckets. The mixed hash
// must spread session-0 refs across the full 64-bit range and stay
// collision-free on a realistic grid.
TEST(EventRefHashTest, Spreads64Bits) {
  std::hash<EventRef> Hash;
  std::set<size_t> Values;
  std::set<uint8_t> TopBytes;
  for (uint32_t Index = 0; Index != 1000; ++Index)
    for (uint32_t Pos = 0; Pos != 10; ++Pos) {
      size_t H = Hash(EventRef{uid(0, Index), Pos});
      Values.insert(H);
      TopBytes.insert(static_cast<uint8_t>(H >> 56));
    }
  EXPECT_EQ(Values.size(), 10000u) << "collision on a 1000x10 grid";
  // The old hash pinned the top byte to 0 for this entire grid.
  EXPECT_GT(TopBytes.size(), 64u) << "upper bits not mixed";
}

//===----------------------------------------------------------------------===//
// Fingerprint properties.
//===----------------------------------------------------------------------===//

// Renaming the (structurally identical) sessions of an output history is
// invisible to the symmetry fingerprint and visible to the un-renamed
// historyFingerprint.
TEST(DedupFingerprintTest, SessionRenamingInvariance) {
  Program P = identicalProgram(3, 2, /*Seed=*/5);
  LevelAssignment Levels =
      LevelAssignment::uniform(IsolationLevel::CausalConsistency);
  DedupTable Symmetry(P, Levels);

  EnumerationResult Run = enumerateHistories(
      P, ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency));
  ASSERT_FALSE(Run.Histories.empty());

  // All 3-session permutations, identity first.
  const std::vector<std::vector<uint32_t>> Pis = {
      {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  unsigned RenamedDiffers = 0;
  for (const History &H : Run.Histories) {
    Fingerprint SymBase = Symmetry.fingerprint(H);
    for (const auto &Pi : Pis) {
      History R = renameSessions(H, Pi);
      EXPECT_EQ(Symmetry.fingerprint(R), SymBase)
          << "symmetry fingerprint not renaming-invariant";
      if (historyFingerprint(R) != historyFingerprint(H))
        ++RenamedDiffers;
    }
  }
  // The renamings are real changes: they change the un-renamed history
  // fingerprint (identity permutations and self-symmetric histories
  // legitimately coincide, so assert in bulk).
  EXPECT_GT(RenamedDiffers, Run.Histories.size())
      << "renaming left the histories unchanged";

  // Past 64 sessions: 70 structurally identical sessions, 60 of which
  // start a transaction. Each reads x from the previous session's write
  // (every fifth from init), and the last ten never start, so the
  // canonical order has to break ties among sessions with no blocks too.
  constexpr uint32_t Wide = 70, Started = 60;
  Program WideP = identicalProgram(Wide, 1, /*Seed=*/5);
  DedupTable WideTable(WideP, Levels);
  LitmusBuilder B(2);
  for (uint32_t S = 0; S != Started; ++S) {
    B.txn(S, 0);
    if (S % 5 == 0)
      B.rInit(X);
    else
      B.r(X, uid(S - 1, 0));
    B.w(X, static_cast<Value>(S % 3)).commit();
  }
  History WideH = B.build();
  Fingerprint WideBase = WideTable.fingerprint(WideH);
  std::vector<uint32_t> Reverse(Wide), Rotate(Wide), SwapEnds(Wide);
  for (uint32_t S = 0; S != Wide; ++S) {
    Reverse[S] = Wide - 1 - S;
    Rotate[S] = (S + 1) % Wide;
    SwapEnds[S] = S;
  }
  std::swap(SwapEnds[0], SwapEnds[Wide - 1]);
  for (const std::vector<uint32_t> *Pi : {&Reverse, &Rotate, &SwapEnds}) {
    History R = renameSessions(WideH, *Pi);
    EXPECT_NE(historyFingerprint(R), historyFingerprint(WideH));
    EXPECT_EQ(WideTable.fingerprint(R), WideBase)
        << "symmetry fingerprint not renaming-invariant past 64 sessions";
  }
}

// For complete histories the order-insensitive historyFingerprint must
// agree exactly with the canonicalKey partition: equal keys, equal
// fingerprints; distinct keys, distinct fingerprints (a collision among
// a few hundred histories would be a red flag for the 128-bit mix).
TEST(DedupFingerprintTest, HistoryFingerprintMatchesCanonicalKey) {
  std::vector<History> All;
  for (AppKind App : {AppKind::IdenticalSessions, AppKind::Courseware}) {
    for (uint64_t Seed = 1; Seed != 4; ++Seed) {
      ClientSpec Spec;
      Spec.Sessions = 3;
      Spec.TxnsPerSession = 2;
      Spec.Seed = Seed;
      EnumerationResult Run = enumerateHistories(
          makeClientProgram(App, Spec),
          ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency));
      All.insert(All.end(), Run.Histories.begin(), Run.Histories.end());
    }
  }
  ASSERT_GT(All.size(), 100u);

  std::map<std::string, Fingerprint> ByKey;
  std::map<std::pair<uint64_t, uint64_t>, std::string> ByFingerprint;
  for (const History &H : All) {
    Fingerprint F = historyFingerprint(H);
    std::string Key = H.canonicalKey();
    auto [KeyIt, KeyNew] = ByKey.emplace(Key, F);
    if (!KeyNew) {
      EXPECT_EQ(KeyIt->second, F) << "equal keys, distinct fingerprints";
    }
    auto [FpIt, FpNew] = ByFingerprint.emplace(std::make_pair(F.Lo, F.Hi),
                                               Key);
    if (!FpNew) {
      EXPECT_EQ(FpIt->second, Key) << "fingerprint collision across keys";
    }
  }
}

//===----------------------------------------------------------------------===//
// Dedup-on vs dedup-off exploration equivalence.
//===----------------------------------------------------------------------===//

namespace {

bool hasViolation(const std::vector<History> &Hs, IsolationLevel L) {
  for (const History &H : Hs)
    if (!isConsistent(H, L))
      return true;
  return false;
}

} // namespace

// The verdict grid of the oracle leg, run deterministically: symmetry
// emits a sub-multiset of the reference with identical per-level
// violation verdicts, and on the symmetric workload the reduction
// strictly bites.
TEST(DedupEquivalenceTest, VerdictGridMatchesReference) {
  const IsolationLevel Verdicts[] = {
      IsolationLevel::ReadCommitted, IsolationLevel::CausalConsistency,
      IsolationLevel::SnapshotIsolation, IsolationLevel::Serializability};
  for (AppKind App : {AppKind::IdenticalSessions, AppKind::Courseware}) {
    for (uint64_t Seed = 1; Seed != 3; ++Seed) {
      for (IsolationLevel Base : {IsolationLevel::ReadCommitted,
                                  IsolationLevel::CausalConsistency}) {
        ClientSpec Spec;
        Spec.Sessions = 3;
        Spec.TxnsPerSession = 2;
        Spec.Seed = Seed;
        Program P = makeClientProgram(App, Spec);

        ExplorerConfig Off = ExplorerConfig::exploreCE(Base);
        EnumerationResult Ref = enumerateHistories(P, Off);
        auto RefKeys = countByCanonicalKey(Ref.Histories);

        ExplorerConfig SymCfg = Off;
        SymCfg.Dedup = DedupMode::Symmetry;
        EnumerationResult Sym = enumerateHistories(P, SymCfg);
        auto SymKeys = countByCanonicalKey(Sym.Histories);
        for (const auto &[Key, N] : SymKeys) {
          auto It = RefKeys.find(Key);
          ASSERT_TRUE(It != RefKeys.end() && It->second >= N)
              << appName(App) << " seed " << Seed
              << ": symmetry emitted a history outside the reference set";
        }
        for (IsolationLevel L : Verdicts)
          EXPECT_EQ(hasViolation(Sym.Histories, L),
                    hasViolation(Ref.Histories, L))
              << appName(App) << " seed " << Seed << ": verdict at "
              << isolationLevelName(L) << " diverged";

        if (App == AppKind::IdenticalSessions) {
          EXPECT_LT(Sym.Histories.size(), Ref.Histories.size())
              << "seed " << Seed
              << ": symmetry failed to bite on the symmetric workload";
          EXPECT_GT(Sym.Stats.DedupSkips, 0u);
        } else {
          // Structurally distinct sessions: every session is its own
          // class, so symmetry must change nothing.
          EXPECT_EQ(countByCanonicalKey(Sym.Histories), RefKeys)
              << appName(App) << " seed " << Seed
              << ": symmetry perturbed an asymmetric workload";
        }
      }
    }
  }
}

// The walk with dedup on is pinned exactly: the probe sites and the
// fingerprint may change shape, but which items are skipped may not.
TEST(DedupEquivalenceTest, PinnedWalkCounts) {
  struct Pin {
    uint64_t Seed;
    const char *Base; // "CC", "RC" or "mix" (CC with S1 at RC).
    uint64_t Calls, Skips, Outputs;
  };
  const Pin Pins[] = {
      {1, "CC", 355, 3, 64},  {1, "RC", 738, 4, 143}, {1, "mix", 679, 0, 126},
      {2, "CC", 248, 11, 24}, {2, "RC", 248, 11, 24}, {2, "mix", 439, 3, 46},
  };
  for (const Pin &Pn : Pins) {
    Program P = identicalProgram(3, 2, Pn.Seed);
    ExplorerConfig Cfg;
    if (std::string(Pn.Base) == "mix") {
      LevelAssignment Mix(IsolationLevel::CausalConsistency);
      Mix.set(1, IsolationLevel::ReadCommitted);
      Cfg = ExplorerConfig::exploreCEMixed(Mix);
    } else {
      Cfg = ExplorerConfig::exploreCE(std::string(Pn.Base) == "CC"
                                          ? IsolationLevel::CausalConsistency
                                          : IsolationLevel::ReadCommitted);
    }
    Cfg.Dedup = DedupMode::Symmetry;
    ExplorerStats Stats = exploreProgram(P, Cfg);
    SCOPED_TRACE(std::string("seed ") + std::to_string(Pn.Seed) + " " +
                 Pn.Base);
    EXPECT_EQ(Stats.ExploreCalls, Pn.Calls);
    EXPECT_EQ(Stats.DedupSkips, Pn.Skips);
    EXPECT_EQ(Stats.Outputs, Pn.Outputs);
    EXPECT_LT(Stats.DedupChecks, Stats.ExploreCalls)
        << "only read-branch and swap children are probed";
  }
}

// The premise that lets the fingerprint ignore cursors: at every item of
// the walk, the engine's carried cursor map equals a full replay of the
// item's history.
TEST(DedupFingerprintTest, CarriedCursorsAreAFunctionOfTheHistory) {
  for (AppKind App : {AppKind::IdenticalSessions, AppKind::Courseware}) {
    for (IsolationLevel Base : {IsolationLevel::CausalConsistency,
                                IsolationLevel::ReadCommitted}) {
      ClientSpec Spec;
      Spec.Sessions = 3;
      Spec.TxnsPerSession = 2;
      Spec.Seed = 1;
      Program P = makeClientProgram(App, Spec);
      ExplorationEngine Engine(P, ExplorerConfig::exploreCE(Base));
      ExplorationSink Sink;
      std::vector<WorkItem> Stack, Children;
      Stack.push_back(Engine.initialItem());
      uint64_t Items = 0, Mismatches = 0;
      while (!Stack.empty()) {
        WorkItem Item = std::move(Stack.back());
        Stack.pop_back();
        ++Items;
        CursorMap Replayed = replayAllCursors(P, Item.H);
        bool Equal = Replayed.size() == Item.Cursors.size();
        for (auto It = Item.Cursors.begin(), RIt = Replayed.begin();
             Equal && It != Item.Cursors.end(); ++It, ++RIt)
          Equal = It->first == RIt->first && It->second == RIt->second;
        if (!Equal)
          ++Mismatches;
        Children.clear();
        Engine.expandItem(std::move(Item), Children, Sink);
        for (WorkItem &Child : Children)
          Stack.push_back(std::move(Child));
      }
      EXPECT_EQ(Items, Sink.Stats.ExploreCalls);
      EXPECT_EQ(Mismatches, 0u)
          << appName(App) << " " << isolationLevelName(Base) << ": "
          << Mismatches << " of " << Items
          << " items carry cursors that differ from a replay";
    }
  }
}

// Thread-count invariance of the shared sharded table: every parallel
// output is in the reference set and the verdicts agree (parallel work
// order may change *which* isomorphic representative survives symmetry,
// but never soundness). Runs under TSan in CI: workers race insertIfNew
// probes on the shared shards.
TEST(DedupEquivalenceTest, ParallelSharedTableStaysSound) {
  Program P = identicalProgram(3, 2, /*Seed=*/1);
  ExplorerConfig Off =
      ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency);
  EnumerationResult Ref = enumerateHistories(P, Off);
  auto RefKeys = countByCanonicalKey(Ref.Histories);

  for (unsigned Threads : {2u, 4u}) {
    ExplorerConfig Par = Off;
    Par.Threads = Threads;
    Par.Dedup = DedupMode::Symmetry;
    std::vector<History> Out;
    ParallelExplorer E(P, Par);
    E.run([&](const History &H) { Out.push_back(H); });
    EXPECT_LE(Out.size(), Ref.Histories.size());
    for (const auto &[Key, N] : countByCanonicalKey(Out)) {
      auto It = RefKeys.find(Key);
      ASSERT_TRUE(It != RefKeys.end() && It->second >= N)
          << Threads << " threads: symmetry output outside the reference set";
    }
    EXPECT_EQ(hasViolation(Out, IsolationLevel::Serializability),
              hasViolation(Ref.Histories, IsolationLevel::Serializability))
        << Threads << " threads";
  }
}

// Why there is no renaming-free dedup mode: strong optimality (Thm. 5.1)
// means the explorer never reaches the same item twice, so a table keyed
// by the item as-is could never skip anything. Over the verdict grid, no
// ordered history (block order and writers included) is visited twice.
TEST(DedupEquivalenceTest, NoItemVisitedTwice) {
  for (AppKind App : {AppKind::IdenticalSessions, AppKind::Courseware}) {
    for (uint64_t Seed = 1; Seed != 3; ++Seed) {
      for (IsolationLevel Base : {IsolationLevel::ReadCommitted,
                                  IsolationLevel::CausalConsistency}) {
        ClientSpec Spec;
        Spec.Sessions = 3;
        Spec.TxnsPerSession = 2;
        Spec.Seed = Seed;
        Program P = makeClientProgram(App, Spec);
        ExplorerConfig Cfg = ExplorerConfig::exploreCE(Base);
        std::set<std::string> Seen;
        uint64_t Repeats = 0;
        Cfg.OnExplore = [&](const History &H) {
          if (!Seen.insert(H.str()).second)
            ++Repeats;
        };
        ExplorerStats Stats = exploreProgram(P, Cfg);
        EXPECT_EQ(Seen.size(), Stats.ExploreCalls);
        EXPECT_EQ(Repeats, 0u)
            << appName(App) << " seed " << Seed << " base "
            << isolationLevelName(Base) << ": an item was visited twice";
      }
    }
  }
}

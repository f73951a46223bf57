//===- tests/parallel_explorer_test.cpp - Parallel driver determinism -----===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel driver partitions the exploration forest across workers
/// without changing the algorithm, so for ANY thread count the multiset
/// of output histories and every aggregate counter (except wall clock and
/// memory) must coincide with the sequential Explorer. These tests pin
/// that guarantee on a grid of application clients × program sizes × base
/// levels × thread counts, on litmus and random programs, and check the
/// cooperative end-state cap.
///
//===----------------------------------------------------------------------===//

#include "apps/Applications.h"
#include "core/Enumerate.h"
#include "parallel/ParallelExplorer.h"
#include "TestUtil.h"
#include <gtest/gtest.h>

#include <map>

using namespace txdpor;
using namespace txdpor::test;

namespace {

struct RunTrace {
  /// Multiset of output histories keyed by canonical form (the parallel
  /// driver only guarantees the *set*, not the order).
  std::map<std::string, unsigned> Outputs;
  ExplorerStats Stats;
};

RunTrace runSequential(const Program &P, ExplorerConfig Config) {
  RunTrace Trace;
  Trace.Stats = exploreProgram(P, Config, [&](const History &H) {
    ++Trace.Outputs[H.canonicalKey()];
  });
  return Trace;
}

RunTrace runParallel(const Program &P, ExplorerConfig Config,
                     unsigned Threads) {
  Config.Threads = Threads;
  RunTrace Trace;
  // The driver serializes visitor invocations; no locking needed here.
  Trace.Stats = exploreProgramParallel(P, Config, [&](const History &H) {
    ++Trace.Outputs[H.canonicalKey()];
  });
  return Trace;
}

void expectDeterministic(const Program &P, ExplorerConfig Config,
                         std::initializer_list<unsigned> ThreadCounts = {1, 2,
                                                                         4}) {
  RunTrace Sequential = runSequential(P, Config);
  for (unsigned Threads : ThreadCounts) {
    RunTrace Parallel = runParallel(P, Config, Threads);
    EXPECT_EQ(Sequential.Outputs, Parallel.Outputs)
        << "output multiset diverges at " << Threads << " threads on\n"
        << P.str();
    const ExplorerStats &A = Sequential.Stats;
    const ExplorerStats &B = Parallel.Stats;
    EXPECT_EQ(A.ExploreCalls, B.ExploreCalls) << Threads << " threads";
    EXPECT_EQ(A.EndStates, B.EndStates) << Threads << " threads";
    EXPECT_EQ(A.Outputs, B.Outputs) << Threads << " threads";
    EXPECT_EQ(A.EventsAdded, B.EventsAdded) << Threads << " threads";
    EXPECT_EQ(A.ReadBranches, B.ReadBranches) << Threads << " threads";
    EXPECT_EQ(A.BlockedReads, B.BlockedReads) << Threads << " threads";
    EXPECT_EQ(A.SwapsConsidered, B.SwapsConsidered) << Threads << " threads";
    EXPECT_EQ(A.SwapsApplied, B.SwapsApplied) << Threads << " threads";
    EXPECT_EQ(A.ConsistencyChecks, B.ConsistencyChecks)
        << Threads << " threads";
    EXPECT_EQ(A.MaxDepth, B.MaxDepth) << Threads << " threads";
    EXPECT_FALSE(B.TimedOut);
    EXPECT_FALSE(B.HitEndStateCap);
  }
}

} // namespace

TEST(ParallelExplorerTest, Fig12Program) {
  ProgramBuilder B;
  VarId X = B.var("x");
  B.beginTxn(0).write(X, 2);
  B.beginTxn(1).read("a", X);
  B.beginTxn(2).read("b", X);
  B.beginTxn(3).write(X, 4);
  Program P = B.build();
  expectDeterministic(
      P, ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency));
}

TEST(ParallelExplorerTest, AbortingProgram) {
  ProgramBuilder B;
  VarId X = B.var("x");
  VarId Y = B.var("y");
  auto T0 = B.beginTxn(0);
  T0.read("a", X);
  T0.abort(eq(T0.local("a"), 0));
  T0.write(Y, 1);
  B.beginTxn(0).read("b", X);
  B.beginTxn(1).write(Y, 3);
  B.beginTxn(1).write(X, 4);
  Program P = B.build();
  expectDeterministic(
      P, ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency));
}

TEST(ParallelExplorerTest, AppGridMatchesSequential) {
  struct Size {
    unsigned Sessions, Txns;
  };
  for (AppKind App : {AppKind::Tpcc, AppKind::Courseware, AppKind::Twitter}) {
    for (Size Sz : {Size{2, 2}, Size{3, 2}}) {
      ClientSpec Spec;
      Spec.Sessions = Sz.Sessions;
      Spec.TxnsPerSession = Sz.Txns;
      Spec.Seed = 7;
      Program P = makeClientProgram(App, Spec);
      for (IsolationLevel Base : {IsolationLevel::ReadCommitted,
                                  IsolationLevel::CausalConsistency}) {
        SCOPED_TRACE(std::string(appName(App)) + " " +
                     std::to_string(Sz.Sessions) + "x" +
                     std::to_string(Sz.Txns) + " base " +
                     isolationLevelName(Base));
        expectDeterministic(P, ExplorerConfig::exploreCE(Base));
      }
    }
  }
}

TEST(ParallelExplorerTest, FilteredAlgorithms) {
  ClientSpec Spec;
  Spec.Sessions = 2;
  Spec.TxnsPerSession = 2;
  Spec.Seed = 3;
  Program P = makeClientProgram(AppKind::Courseware, Spec);
  expectDeterministic(
      P, ExplorerConfig::exploreCEStar(IsolationLevel::CausalConsistency,
                                       IsolationLevel::Serializability));
  expectDeterministic(
      P, ExplorerConfig::exploreCEStar(IsolationLevel::CausalConsistency,
                                       IsolationLevel::SnapshotIsolation));
  expectDeterministic(
      P, ExplorerConfig::exploreCEStar(IsolationLevel::ReadCommitted,
                                       IsolationLevel::CausalConsistency));
}

TEST(ParallelExplorerTest, RandomPrograms) {
  RandomProgramSpec Spec;
  Spec.NumSessions = 2;
  Spec.TxnsPerSession = 2;
  Spec.NumVars = 2;
  Spec.MaxOpsPerTxn = 2;
  Spec.WithGuards = true;
  Spec.WithAborts = true;
  Rng R(91125);
  for (unsigned Iter = 0; Iter != 6; ++Iter) {
    Program P = makeRandomProgram(R, Spec);
    expectDeterministic(
        P, ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency));
  }
}

TEST(ParallelExplorerTest, FrontierSizesDoNotChangeOutputs) {
  // The split phase targets 4 × Threads frontier items, so the thread
  // sweep also sweeps the frontier size, up to one that swallows most of
  // this small tree.
  ClientSpec Spec;
  Spec.Sessions = 2;
  Spec.TxnsPerSession = 2;
  Spec.Seed = 9;
  Program P = makeClientProgram(AppKind::Tpcc, Spec);
  expectDeterministic(
      P, ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency),
      {2, 3, 8, 16});
}

TEST(ParallelExplorerTest, EndStateCapRespected) {
  ProgramBuilder B;
  VarId X = B.var("x");
  B.beginTxn(0).write(X, 2);
  B.beginTxn(1).read("a", X);
  B.beginTxn(2).read("b", X);
  B.beginTxn(3).write(X, 4);
  Program P = B.build();
  ExplorerConfig Config =
      ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency);
  Config.MaxEndStates = 2;
  for (unsigned Threads : {1u, 2u, 4u}) {
    Config.Threads = Threads;
    ExplorerStats Stats = exploreProgramParallel(P, Config);
    EXPECT_EQ(Stats.EndStates, 2u) << Threads << " threads";
    EXPECT_TRUE(Stats.HitEndStateCap) << Threads << " threads";
  }
}

TEST(ParallelExplorerTest, StatsMergeAccumulates) {
  ExplorerStats A;
  A.ExploreCalls = 3;
  A.EndStates = 1;
  A.MaxDepth = 4;
  A.ElapsedMillis = 1.5;
  A.PeakRssKb = 100;
  A.StealSuccesses = 2;
  ExplorerStats B;
  B.ExploreCalls = 5;
  B.EndStates = 2;
  B.MaxDepth = 9;
  B.TimedOut = true;
  B.ElapsedMillis = 2.5;
  B.PeakRssKb = 50;
  B.StealSuccesses = 3;
  B.StealFailures = 7;
  B.IdleParks = 1;
  B.FrontierItems = 12;
  A.merge(B);
  EXPECT_EQ(A.ExploreCalls, 8u);
  EXPECT_EQ(A.EndStates, 3u);
  EXPECT_EQ(A.MaxDepth, 9u);
  EXPECT_TRUE(A.TimedOut);
  EXPECT_FALSE(A.HitEndStateCap);
  EXPECT_DOUBLE_EQ(A.ElapsedMillis, 4.0);
  EXPECT_EQ(A.PeakRssKb, 100u);
  EXPECT_EQ(A.StealSuccesses, 5u);
  EXPECT_EQ(A.StealFailures, 7u);
  EXPECT_EQ(A.IdleParks, 1u);
  EXPECT_EQ(A.FrontierItems, 12u);
}

TEST(ParallelExplorerTest, SchedulingCountersReported) {
  // A parallel run must report the frontier the split phase produced;
  // sequential runs must leave every scheduling counter at zero. The
  // steal/idle counts themselves are schedule-dependent (often zero on a
  // single-core box), so only their plumbing — not their magnitude — is
  // asserted here. The client must be big enough that the split phase
  // doesn't drain the whole tree before reaching its frontier target.
  Program P = makeClientProgram(AppKind::Tpcc, {/*Sessions=*/4,
                                                /*TxnsPerSession=*/3});
  ExplorerConfig Config =
      ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency);
  ExplorerStats Sequential = exploreProgramParallel(P, Config);
  EXPECT_EQ(Sequential.FrontierItems, 0u);
  EXPECT_EQ(Sequential.StealSuccesses, 0u);
  EXPECT_EQ(Sequential.StealFailures, 0u);
  EXPECT_EQ(Sequential.IdleParks, 0u);

  Config.Threads = 4;
  ExplorerStats Parallel = exploreProgramParallel(P, Config);
  EXPECT_GT(Parallel.FrontierItems, 0u);
  EXPECT_EQ(Parallel.EndStates, Sequential.EndStates);
}

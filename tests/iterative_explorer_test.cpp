//===- tests/iterative_explorer_test.cpp - §7.1 worklist implementation ---===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's tool uses an iterative implementation "where inputs to
/// recursive calls are maintained as a collection of histories instead of
/// relying on the call stack" (§7.1); so does Explorer (drainDepthFirst).
/// These tests pin that its worklist visits nodes in exactly the order of
/// the paper's recursive explore(): identical output sequences (not just
/// sets) and identical aggregate statistics against a recursive reference
/// walk over the same ExplorationEngine, on figure programs, application
/// clients and random programs.
///
//===----------------------------------------------------------------------===//

#include "apps/Applications.h"
#include "core/Enumerate.h"
#include "TestUtil.h"
#include <gtest/gtest.h>

using namespace txdpor;
using namespace txdpor::test;

namespace {

struct RunTrace {
  std::vector<std::string> Outputs;
  ExplorerStats Stats;
};

/// The paper's recursive explore(): expand a node, then recurse into each
/// child in order. The independent reference for the worklist's order.
void exploreRecursively(const ExplorationEngine &Engine, WorkItem Item,
                        ExplorationSink &S) {
  std::vector<WorkItem> Children;
  Engine.expandItem(std::move(Item), Children, S);
  for (WorkItem &Child : Children) {
    if (Engine.shouldStop(S))
      return;
    exploreRecursively(Engine, std::move(Child), S);
  }
}

void expectEquivalent(const Program &P, ExplorerConfig Config) {
  RunTrace Recursive;
  ExplorationEngine Engine(P, Config);
  ExplorationSink S;
  S.Visit = [&](const History &H) {
    Recursive.Outputs.push_back(H.canonicalKey());
  };
  exploreRecursively(Engine, Engine.initialItem(), S);
  Recursive.Stats = S.Stats;

  RunTrace Iterative;
  Iterative.Stats = exploreProgram(P, Config, [&](const History &H) {
    Iterative.Outputs.push_back(H.canonicalKey());
  });
  EXPECT_EQ(Recursive.Outputs, Iterative.Outputs)
      << "output sequences diverge on\n"
      << P.str();
  EXPECT_EQ(Recursive.Stats.ExploreCalls, Iterative.Stats.ExploreCalls);
  EXPECT_EQ(Recursive.Stats.EndStates, Iterative.Stats.EndStates);
  EXPECT_EQ(Recursive.Stats.Outputs, Iterative.Stats.Outputs);
  EXPECT_EQ(Recursive.Stats.EventsAdded, Iterative.Stats.EventsAdded);
  EXPECT_EQ(Recursive.Stats.ReadBranches, Iterative.Stats.ReadBranches);
  EXPECT_EQ(Recursive.Stats.SwapsConsidered,
            Iterative.Stats.SwapsConsidered);
  EXPECT_EQ(Recursive.Stats.SwapsApplied, Iterative.Stats.SwapsApplied);
  EXPECT_EQ(Recursive.Stats.MaxDepth, Iterative.Stats.MaxDepth);
  EXPECT_EQ(Recursive.Stats.BlockedReads, Iterative.Stats.BlockedReads);
}

} // namespace

TEST(IterativeExplorerTest, Fig12Program) {
  ProgramBuilder B;
  VarId X = B.var("x");
  B.beginTxn(0).write(X, 2);
  B.beginTxn(1).read("a", X);
  B.beginTxn(2).read("b", X);
  B.beginTxn(3).write(X, 4);
  Program P = B.build();
  expectEquivalent(
      P, ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency));
}

TEST(IterativeExplorerTest, AbortingProgram) {
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
  expectEquivalent(
      P, ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency));
}

TEST(IterativeExplorerTest, AppClientsAllBases) {
  for (AppKind App : {AppKind::Tpcc, AppKind::ShoppingCart}) {
    ClientSpec Spec;
    Spec.Sessions = 2;
    Spec.TxnsPerSession = 2;
    Spec.Seed = 5;
    Program P = makeClientProgram(App, Spec);
    for (IsolationLevel Base :
         {IsolationLevel::ReadCommitted, IsolationLevel::CausalConsistency})
      expectEquivalent(P, ExplorerConfig::exploreCE(Base));
  }
}

TEST(IterativeExplorerTest, FilteredAlgorithms) {
  ProgramBuilder B;
  VarId X = B.var("x");
  VarId Y = B.var("y");
  auto T0 = B.beginTxn(0);
  T0.read("a", X);
  T0.write(Y, 1);
  auto T1 = B.beginTxn(1);
  T1.read("b", Y);
  T1.write(X, 1);
  Program P = B.build();
  expectEquivalent(
      P, ExplorerConfig::exploreCEStar(IsolationLevel::CausalConsistency,
                                       IsolationLevel::Serializability));
  expectEquivalent(
      P, ExplorerConfig::exploreCEStar(IsolationLevel::CausalConsistency,
                                       IsolationLevel::SnapshotIsolation));
}

TEST(IterativeExplorerTest, RandomPrograms) {
  RandomProgramSpec Spec;
  Spec.NumSessions = 2;
  Spec.TxnsPerSession = 2;
  Spec.NumVars = 2;
  Spec.MaxOpsPerTxn = 2;
  Spec.WithGuards = true;
  Spec.WithAborts = true;
  Rng R(60221);
  for (unsigned Iter = 0; Iter != 6; ++Iter) {
    Program P = makeRandomProgram(R, Spec);
    expectEquivalent(
        P, ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency));
  }
}

TEST(IterativeExplorerTest, EndStateCapRespected) {
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
  ExplorerStats Stats = exploreProgram(P, Config);
  EXPECT_EQ(Stats.EndStates, 2u);
  EXPECT_TRUE(Stats.HitEndStateCap);
}

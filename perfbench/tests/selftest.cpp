//===- perfbench/tests/selftest.cpp - The harness's own tests -------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the harness itself, run by `python3 perfbench/run.py
/// --self-test`: the percentile helper returns the documented nearest-rank
/// percentile, and the benchmark-side traced walk emits Explorer's outputs
/// in Explorer's order. Exits non-zero on the first failure.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "apps/Applications.h"
#include "core/Explorer.h"
#include "history/Serialize.h"

#include <iostream>
#include <string>
#include <vector>

using namespace txdpor;
using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Cond, const std::string &What) {
  if (!Cond) {
    std::cerr << "FAIL: " << What << '\n';
    ++Failures;
  }
}

void testPercentile() {
  // Nearest rank over 1..100: the P-th percentile is P itself.
  std::vector<double> Hundred;
  for (int I = 100; I >= 1; --I)
    Hundred.push_back(I);
  expect(percentile(Hundred, 50) == 50, "p50 of 1..100");
  expect(percentile(Hundred, 95) == 95, "p95 of 1..100");
  expect(percentile(Hundred, 99.9) == 100, "p99.9 of 1..100");
  expect(percentile(Hundred, 0) == 1, "p0 is the minimum");
  expect(percentile(Hundred, 100) == 100, "p100 is the maximum");
  // 200 samples (the roster): p95 leaves exactly 10 samples above it.
  std::vector<double> Roster;
  for (int I = 1; I <= 200; ++I)
    Roster.push_back(I);
  expect(percentile(Roster, 95) == 190, "p95 of 1..200");
  expect(percentile(Roster, 50) == 100, "p50 of 1..200");
  expect(percentile({7}, 50) == 7 && percentile({7}, 99.9) == 7,
         "single sample");
  expect(percentile({}, 50) == 0, "empty sample set");
  expect(percentile({3, 1, 2}, 50) == 2, "p50 of an odd count");
}

void testWalkOrder(AppKind App, uint64_t Seed,
                   std::optional<IsolationLevel> Filter, DedupMode Dedup) {
  ClientSpec Spec;
  Spec.Seed = Seed;
  Program P = makeClientProgram(App, Spec);
  ExplorerConfig Config =
      ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency);
  Config.FilterLevel = Filter;
  Config.Dedup = Dedup;
  std::vector<std::string> Expected, Got;
  Explorer E(P, Config);
  ExplorerStats S =
      E.run([&](const History &H) { Expected.push_back(writeHistory(H)); });
  WalkProfile W = tracedWalk(
      P, Config, [&](const History &H) { Got.push_back(writeHistory(H)); });
  std::string Name = std::string(appName(App)) + "-s" + std::to_string(Seed);
  expect(!Expected.empty(), Name + ": Explorer emits outputs");
  expect(Got == Expected, Name + ": walk outputs in Explorer's order");
  expect(W.Stats.Outputs == S.Outputs && W.Stats.EndStates == S.EndStates &&
             W.Stats.ExploreCalls == S.ExploreCalls &&
             W.Stats.ConsistencyChecks == S.ConsistencyChecks &&
             W.Stats.DedupSkips == S.DedupSkips,
         Name + ": walk counts equal Explorer's");
  expect(W.expandS() + W.FilterS <= W.WallS, Name + ": timed calls fit");
  expect(Filter.has_value() == !W.FilterUs.empty(),
         Name + ": filter timed iff configured");
}

} // namespace

int main() {
  testPercentile();
  testWalkOrder(AppKind::Twitter, 3, std::nullopt, DedupMode::Off);
  testWalkOrder(AppKind::Tpcc, 5, IsolationLevel::SnapshotIsolation,
                DedupMode::Off);
  testWalkOrder(AppKind::Courseware, 2, IsolationLevel::Serializability,
                DedupMode::Off);
  testWalkOrder(AppKind::IdenticalSessions, 9, std::nullopt,
                DedupMode::Symmetry);
  if (Failures) {
    std::cerr << Failures << " failure(s)\n";
    return 1;
  }
  std::cout << "perfbench self-test: all passed\n";
  return 0;
}

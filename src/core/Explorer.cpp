//===- core/Explorer.cpp - The swapping-based SMC algorithms --------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "core/Explorer.h"

#include "support/MemoryProbe.h"

#include <algorithm>

using namespace txdpor;

std::string ExplorerConfig::algorithmName() const {
  // An assignment whose explicit entries all equal its default is the
  // classic uniform algorithm (the engine collapses it) — report it as
  // such; only genuinely mixed assignments get the mix(...) spelling.
  // For a non-mixed explicit assignment every entry equals its default.
  std::string Name =
      BaseLevels.isMixed()
          ? "mix(" + BaseLevels.str() + ")"
          : std::string(isolationLevelName(
                BaseLevels.hasExplicit() ? BaseLevels.defaultLevel()
                                         : BaseLevel));
  if (FilterLevel)
    Name += std::string(" + ") + isolationLevelName(*FilterLevel);
  return Name;
}

void ExplorerStats::merge(const ExplorerStats &Other) {
  ExploreCalls += Other.ExploreCalls;
  EndStates += Other.EndStates;
  Outputs += Other.Outputs;
  EventsAdded += Other.EventsAdded;
  ReadBranches += Other.ReadBranches;
  BlockedReads += Other.BlockedReads;
  SwapsConsidered += Other.SwapsConsidered;
  SwapsApplied += Other.SwapsApplied;
  ConsistencyChecks += Other.ConsistencyChecks;
  MaxDepth = std::max(MaxDepth, Other.MaxDepth);
  StealSuccesses += Other.StealSuccesses;
  StealFailures += Other.StealFailures;
  IdleParks += Other.IdleParks;
  FrontierItems += Other.FrontierItems;
  DedupChecks += Other.DedupChecks;
  DedupSkips += Other.DedupSkips;
  TimedOut = TimedOut || Other.TimedOut;
  HitEndStateCap = HitEndStateCap || Other.HitEndStateCap;
  ElapsedMillis += Other.ElapsedMillis;
  PeakRssKb = std::max(PeakRssKb, Other.PeakRssKb);
}

Explorer::Explorer(const Program &Prog, ExplorerConfig Config)
    : Engine(Prog, std::move(Config)) {}

ExplorerStats Explorer::run(const HistoryVisitor &VisitFn) {
  const ExplorerConfig &Config = Engine.config();
  ExplorationSink S;
  S.Visit = VisitFn;
  S.OnExplore = Config.OnExplore;
  S.TimeBudget = Config.TimeBudget;
  Stopwatch Timer;

  // The worklist walk of §7.1: items pop depth-first in exactly the order
  // a recursive explore() would visit them.
  drainDepthFirst(Engine, Engine.initialItem(), S);

  S.Stats.ElapsedMillis = Timer.elapsedMillis();
  S.Stats.PeakRssKb = peakRssKb();
  return S.Stats;
}

ExplorerStats txdpor::exploreProgram(const Program &Prog,
                                     ExplorerConfig Config,
                                     const HistoryVisitor &Visit) {
  Explorer E(Prog, std::move(Config));
  return E.run(Visit);
}

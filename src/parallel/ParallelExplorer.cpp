//===- parallel/ParallelExplorer.cpp - Work-sharded exploration driver ----===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "parallel/ParallelExplorer.h"

#include "parallel/WorkQueue.h"
#include "support/MemoryProbe.h"
#include "trace/Counters.h"
#include "trace/Trace.h"

#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

using namespace txdpor;

ParallelExplorer::ParallelExplorer(const Program &Prog,
                                   ExplorerConfig Config)
    : Engine(Prog, std::move(Config)) {}

ExplorerStats txdpor::exploreProgramParallel(const Program &Prog,
                                             ExplorerConfig Config,
                                             const HistoryVisitor &Visit) {
  ParallelExplorer E(Prog, std::move(Config));
  return E.run(Visit);
}

ExplorerStats ParallelExplorer::run(const HistoryVisitor &VisitFn) {
  const ExplorerConfig &Config = Engine.config();
  const unsigned NumThreads = Config.Threads > 1 ? Config.Threads : 1;

  Stopwatch Timer;

  // Cross-worker control. The end-state budget is global (the cap bounds
  // the whole run, not each worker), so it routes through a shared counter
  // even during the single-threaded split phase.
  std::atomic<bool> SharedStop{false};
  std::atomic<uint64_t> SharedEndStates{0};

  // The user visitor and debug hook may be invoked from any worker; a
  // single mutex serializes them (histories stream out as they are found,
  // in a schedule-dependent order but with deterministic content).
  std::mutex HookMu;
  HistoryVisitor GuardedVisit;
  if (VisitFn)
    GuardedVisit = [&HookMu, &VisitFn](const History &H) {
      std::lock_guard<std::mutex> Lock(HookMu);
      VisitFn(H);
    };
  std::function<void(const History &)> GuardedOnExplore;
  if (Config.OnExplore)
    GuardedOnExplore = [&HookMu, &Config](const History &H) {
      std::lock_guard<std::mutex> Lock(HookMu);
      Config.OnExplore(H);
    };

  auto makeSink = [&]() {
    ExplorationSink S;
    S.Visit = GuardedVisit;
    S.OnExplore = GuardedOnExplore;
    S.TimeBudget = Config.TimeBudget; // Private copy per sink (poll state).
    S.SharedStop = &SharedStop;
    S.SharedEndStates = Config.MaxEndStates ? &SharedEndStates : nullptr;
    return S;
  };

  ExplorationSink MainSink = makeSink();

  if (NumThreads == 1) {
    drainDepthFirst(Engine, Engine.initialItem(), MainSink);
    MainSink.Stats.ElapsedMillis = Timer.elapsedMillis();
    MainSink.Stats.PeakRssKb = peakRssKb();
    return MainSink.Stats;
  }

  //===--------------------------------------------------------------------===
  // Phase 1 — split: breadth-first expansion until the frontier holds
  // enough independent subtrees to feed every worker.
  //===--------------------------------------------------------------------===

  const size_t Target =
      static_cast<size_t>(Config.SplitFactor ? Config.SplitFactor : 1) *
      NumThreads;
  TXDPOR_TRACE_SPAN_NAMED(SplitSpan, Parallel, SplitPhase, NumThreads);
  std::deque<WorkItem> Frontier;
  Frontier.push_back(Engine.initialItem());
  std::vector<WorkItem> Ready; // Depth-capped items, excluded from splitting.
  std::vector<WorkItem> Children;
  while (!Frontier.empty() && Frontier.size() + Ready.size() < Target) {
    if (Engine.shouldStop(MainSink))
      break;
    WorkItem Item = std::move(Frontier.front());
    Frontier.pop_front();
    if (Config.SplitDepth && Item.Depth >= Config.SplitDepth) {
      Ready.push_back(std::move(Item));
      continue;
    }
    Children.clear();
    Engine.expandItem(std::move(Item), Children, MainSink);
    for (WorkItem &Child : Children)
      Frontier.push_back(std::move(Child));
  }
  for (WorkItem &Item : Frontier)
    Ready.push_back(std::move(Item));
  SplitSpan.setArgs(Ready.size(), NumThreads);
  SplitSpan.end();
  MainSink.Stats.FrontierItems = Ready.size();

  //===--------------------------------------------------------------------===
  // Phase 2 — shard: deal the frontier round-robin onto per-worker deques.
  //===--------------------------------------------------------------------===

  std::vector<std::unique_ptr<WorkQueue>> Queues;
  Queues.reserve(NumThreads);
  for (unsigned T = 0; T != NumThreads; ++T)
    Queues.push_back(std::make_unique<WorkQueue>());
  for (size_t I = 0; I != Ready.size(); ++I)
    Queues[I % NumThreads]->push(std::move(Ready[I]));

  // Items enqueued or mid-expansion; zero means the forest is exhausted.
  std::atomic<size_t> Pending{Ready.size()};

  //===--------------------------------------------------------------------===
  // Phase 3 — expand: depth-first workers, owner-LIFO / thief-FIFO.
  //===--------------------------------------------------------------------===

  std::vector<ExplorerStats> WorkerStats(NumThreads);
  auto Worker = [&](unsigned Me) {
    trace::setThreadName("worker-" + std::to_string(Me));
    TXDPOR_TRACE_SPAN(Parallel, Worker, Me);
    ExplorationSink S = makeSink();
    WorkQueue &Own = *Queues[Me];
    std::vector<WorkItem> Kids;
    WorkItem Item;
    unsigned IdleRounds = 0;
    for (;;) {
      if (Engine.shouldStop(S))
        break;
      bool Got = Own.tryPopBottom(Item);
      bool Stolen = false;
      for (unsigned I = 1; I != NumThreads && !Got; ++I)
        Got = Stolen = Queues[(Me + I) % NumThreads]->trySteal(Item);
      if (Stolen) {
        ++S.Stats.StealSuccesses;
        TXDPOR_TRACE_INSTANT(Parallel, Steal, Me);
      }
      if (!Got) {
        ++S.Stats.StealFailures;
        if (Pending.load(std::memory_order_acquire) == 0)
          break;
        // Yield through short droughts (steal latency matters there), but
        // back off to sleeping once a long imbalanced tail is likely, so
        // idle workers stop burning cores while one drains a linear
        // subtree.
        if (++IdleRounds < 64) {
          std::this_thread::yield();
        } else {
          ++S.Stats.IdleParks;
          TXDPOR_TRACE_SPAN(Parallel, Idle, Me);
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        continue;
      }
      IdleRounds = 0;
      TXDPOR_TRACE_COUNTER(Parallel, Pending,
                           Pending.load(std::memory_order_relaxed));
      Kids.clear();
      Engine.expandItem(std::move(Item), Kids, S);
      if (!Kids.empty()) {
        Pending.fetch_add(Kids.size(), std::memory_order_relaxed);
        // Reverse push so the owner pops children in recursive visit
        // order, exactly like the sequential explicit-stack walk.
        for (size_t I = Kids.size(); I-- > 0;)
          Own.push(std::move(Kids[I]));
      }
      Pending.fetch_sub(1, std::memory_order_release);
    }
    trace::bump(trace::Counter::StealSuccesses, S.Stats.StealSuccesses);
    trace::bump(trace::Counter::StealFailures, S.Stats.StealFailures);
    trace::bump(trace::Counter::IdleParks, S.Stats.IdleParks);
    WorkerStats[Me] = S.Stats;
  };

  std::vector<std::thread> Pool;
  Pool.reserve(NumThreads);
  for (unsigned T = 0; T != NumThreads; ++T)
    Pool.emplace_back(Worker, T);
  for (std::thread &Th : Pool)
    Th.join();

  //===--------------------------------------------------------------------===
  // Phase 4 — merge.
  //===--------------------------------------------------------------------===

  ExplorerStats Total = MainSink.Stats;
  for (const ExplorerStats &S : WorkerStats)
    Total.merge(S);
  Total.ElapsedMillis = Timer.elapsedMillis();
  Total.PeakRssKb = peakRssKb();
  return Total;
}

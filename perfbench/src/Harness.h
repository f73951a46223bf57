//===- perfbench/src/Harness.h - Benchmark-of-record harness --------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the benchmark's workloads through txdpor's public entry points
/// only (Explorer / ParallelExplorer, ExplorationEngine::initialItem /
/// expandItem, TraceReader::next, StreamingChecker::append) and measures
/// them from outside the library:
///
///   * an untraced run times whole operations (one program's exploration,
///     one trace's verdict) over several passes and reports each
///     operation's median. Single-threaded operations are timed on the
///     thread's CPU clock, which leaves out the time the thread waited for
///     a CPU; the 2-thread ParallelExplorer operation on the wall clock;
///   * a traced run additionally walks every exploration tree itself with
///     drainDepthFirst's LIFO loop over expandItem, timing each call on the
///     wall clock and classing it by the ExplorerStats counter it moved,
///     and splits the stream into its parse and append halves.
///
/// Reference counts are not checked here: every operation's counts are
/// emitted and perfbench/run.py compares them with references.json.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "core/ExplorerConfig.h"
#include "program/Program.h"

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample S such that at least
/// \p P percent of the samples are <= S (P = 0 gives the minimum, P = 100
/// the maximum). Returns 0 for an empty sample set.
double percentile(std::vector<double> Samples, double P);

/// One benchmark invocation.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// One untimed pass that only reports operation counts; used to pin
  /// references.json.
  bool Record = false;
  /// Directory for generated inputs (the stream's trace file).
  std::string DataDir = ".";
};

/// The counts of one operation (a program's exploration, a trace's
/// verdict), compared against the pinned references by run.py.
struct OpRecord {
  std::string Name;
  std::vector<std::pair<std::string, uint64_t>> Counts;
  bool TimedOut = false;
};

/// A self-check the harness ran (known-answer stream, traced walk vs
/// Explorer::run, pass-to-pass count stability).
struct CheckRecord {
  std::string Name;
  bool Ok = true;
  std::string Detail;
};

struct RunResult {
  std::string Workload;
  unsigned Passes = 0;
  std::vector<OpRecord> Ops;
  std::vector<CheckRecord> Checks;
  /// Metric name -> value; units live in run.py's metric table.
  std::vector<std::pair<std::string, double>> Metrics;
};

/// Runs one workload. Throws std::invalid_argument for an unknown name.
RunResult runWorkload(const RunOptions &Opts);

/// Writes \p R plus host metadata (hardware_concurrency, compiler, build
/// type, assertions) as one JSON document.
void writeResult(std::ostream &OS, const RunResult &R);

/// Where a traced walk's time went, from the benchmark's side of each
/// expandItem and Valid-filter call.
struct WalkProfile {
  double WallS = 0;     ///< The whole walk.
  double CpuS = 0;      ///< The whole walk, thread CPU time.
  double ReadS = 0;     ///< Calls that grew ReadBranches.
  double CommitS = 0;   ///< Calls that grew SwapsConsidered.
  double EndStateS = 0; ///< Calls that grew EndStates, filter excluded.
  double OtherS = 0;    ///< Every other call: begin, write, local read,
                        ///< a commit with nothing to swap, a dedup skip.
  double FilterS = 0;   ///< Valid-filter calls.
  std::vector<double> FilterUs; ///< One sample per filter call.
  uint64_t Outputs = 0; ///< End states the filter accepted.
  txdpor::ExplorerStats Stats; ///< The sink's statistics.

  double expandS() const { return ReadS + CommitS + EndStateS + OtherS; }
  void add(const WalkProfile &O);
};

/// Walks \p Prog's exploration tree under \p Config from the benchmark
/// side: the engine runs without the Valid filter and the harness applies
/// Config.FilterLevel's checker to each end state itself, so the filter is
/// timed apart from the engine. \p OnOutput sees every accepted history
/// in visit order, which equals Explorer's order.
WalkProfile tracedWalk(const txdpor::Program &Prog,
                       const txdpor::ExplorerConfig &Config,
                       const txdpor::HistoryVisitor &OnOutput = {});

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H

//===- bench/BenchCommon.h - Shared harness for table benches -------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the table/figure harnesses: the algorithm roster
/// of the paper's evaluation (§7.3), per-run budgets (the paper's 30-min
/// timeout scaled to a CI-friendly default, overridable via environment),
/// and result formatting.
///
/// Environment knobs:
///   TXDPOR_BENCH_BUDGET_MS — per-run wall-clock budget (default 800).
///   TXDPOR_BENCH_CLIENTS   — clients per application (default 5).
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_BENCH_BENCHCOMMON_H
#define TXDPOR_BENCH_BENCHCOMMON_H

#include "apps/Applications.h"
#include "core/Enumerate.h"
#include "support/TablePrinter.h"

#include <string>
#include <vector>

namespace txdpor {

class JsonWriter;

namespace bench {

/// One of the evaluation's algorithms: an explorer configuration or the
/// DFS baseline.
struct AlgorithmSpec {
  std::string Name;
  bool IsBaselineDfs = false;
  IsolationLevel BaseLevel = IsolationLevel::CausalConsistency;
  std::optional<IsolationLevel> FilterLevel;

  static AlgorithmSpec exploreCE(IsolationLevel Base);
  static AlgorithmSpec exploreCEStar(IsolationLevel Base,
                                     IsolationLevel Filter);
  static AlgorithmSpec baselineDfs(IsolationLevel Level);
};

/// The Fig. 14 roster: CC, CC+SI, CC+SER, RA+CC, RC+CC, true+CC, DFS(CC).
std::vector<AlgorithmSpec> fig14Algorithms();

/// Result of one (program, algorithm) run: the run's full statistics plus
/// named accessors for the columns every table reports.
struct RunResult {
  ExplorerStats Stats;

  uint64_t histories() const { return Stats.Outputs; }
  uint64_t endStates() const { return Stats.EndStates; }
  double millis() const { return Stats.ElapsedMillis; }
  bool timedOut() const { return Stats.TimedOut; }
  uint64_t memKb() const { return Stats.PeakRssKb; }
};

/// Runs \p Algo on \p Prog with a \p BudgetMs wall-clock budget.
RunResult runAlgorithm(const Program &Prog, const AlgorithmSpec &Algo,
                       int64_t BudgetMs);

/// Accumulates RunResults across a series of runs. Counter aggregation
/// goes through ExplorerStats::merge — the same routine the parallel
/// explorer uses to fold per-worker statistics — plus run bookkeeping the
/// merged flags cannot express (how many runs, how many timed out).
struct Aggregate {
  ExplorerStats Stats; ///< merge() of every run; ElapsedMillis is the sum.
  unsigned Runs = 0;
  unsigned Timeouts = 0;

  void add(const RunResult &R) {
    Stats.merge(R.Stats);
    ++Runs;
    if (R.timedOut())
      ++Timeouts;
  }
  double avgMillis() const {
    return Runs ? Stats.ElapsedMillis / Runs : 0;
  }
};

/// Per-run budget from TXDPOR_BENCH_BUDGET_MS (default 800 ms).
int64_t benchBudgetMs();

/// Clients per application from TXDPOR_BENCH_CLIENTS (default 5, like the
/// paper's 5 client programs per application).
unsigned benchClients();

/// The paper's 25-program benchmark: benchClients() clients per
/// application, \p Sessions sessions × \p Txns transactions.
struct NamedProgram {
  std::string Name;
  Program Prog;
};
std::vector<NamedProgram> makeBenchmarkPrograms(unsigned Sessions,
                                                unsigned Txns);

/// Formats a count, or "-" for zero-when-timed-out placeholders.
std::string formatCount(uint64_t N);

/// Emits a "host" object member into the JSON object currently open on
/// \p J: hardware_concurrency, compiler, build type and a UTC timestamp —
/// the provenance block every BENCH_*.json carries so numbers from
/// different machines/builds are never compared blind.
void writeHostMetadata(JsonWriter &J);

} // namespace bench
} // namespace txdpor

#endif // TXDPOR_BENCH_BENCHCOMMON_H

//===- trace/Counters.h - Process-wide named metric counters --------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Always-on named counters: a fixed enum of process-wide relaxed atomics,
/// cacheline-padded so distinct counters never false-share. They complement
/// ExplorerStats — which is per-run state merged across workers — with
/// process-lifetime totals that the benches dump as delta columns in their
/// BENCH_*.json files and the CLI folds into the Chrome trace's otherData.
///
/// Overhead: a bump is one relaxed fetch_add; hot loops batch (one bump
/// per ValidWrites fan-out, not per probe). There is no disable switch —
/// these are the "always-on" half of the observability layer.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_TRACE_COUNTERS_H
#define TXDPOR_TRACE_COUNTERS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace txdpor {

class JsonWriter;

namespace trace {

/// The counter roster. Keep counterName() in sync.
enum class Counter : uint8_t {
  ValidWritesProbes,  ///< §5.1 commit-test readAdmits probes.
  ReadsLatestChecks,  ///< readLatest_I evaluations (§5.3).
  BulkRebuilds,       ///< ConstraintState bulk constructions.
  PrefixReplays,      ///< Incremental prefix-state continuations.
  SwapChildrenBuilt,  ///< Swap children passing Optimality.
  StealSuccesses,     ///< Parallel worker steals that got an item.
  StealFailures,      ///< Full failed scans over all victim queues.
  IdleParks,          ///< Worker back-off sleeps while work was pending.
  FuzzCases,          ///< Differential-fuzz cases executed.
  StreamTxns,         ///< Trace transactions ingested by check-trace.
  StreamEvictions,    ///< Window transactions garbage-collected.
  StreamPeakWindow,   ///< High-water window size (maintained via bumpMax).
  FilterChecks,       ///< explore-ce* Valid filter calls on end states.
};
constexpr unsigned NumCounters = 13;

/// Snake_case display name of \p C (the JSON key in dumps).
const char *counterName(Counter C);

/// Adds \p Delta to \p C (relaxed).
void bump(Counter C, uint64_t Delta = 1);

/// Raises \p C to at least \p Value (relaxed CAS max) — for high-water
/// gauges like the streaming window size, where a plain add is wrong.
void bumpMax(Counter C, uint64_t Value);

/// Current value of \p C (relaxed).
uint64_t counterValue(Counter C);

/// Resets every counter to zero (bench harnesses call this between runs
/// to turn the process-lifetime totals into per-run deltas).
void resetCounters();

/// All counters as (name, value) pairs, in enum order.
std::vector<std::pair<const char *, uint64_t>> counterSnapshot();

/// Emits every counter as a key/value member of the JSON object currently
/// open on \p J.
void writeCounters(JsonWriter &J);

} // namespace trace
} // namespace txdpor

#endif // TXDPOR_TRACE_COUNTERS_H

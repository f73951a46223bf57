//===- trace/Counters.cpp - Process-wide named metric counters ------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "trace/Counters.h"

#include "support/Json.h"

#include <atomic>

using namespace txdpor;
using namespace txdpor::trace;

namespace {

/// One counter per cacheline: workers bumping different counters must not
/// contend.
struct alignas(64) PaddedCounter {
  std::atomic<uint64_t> V{0};
};

PaddedCounter GlobalCounters[NumCounters];

} // namespace

const char *txdpor::trace::counterName(Counter C) {
  switch (C) {
  case Counter::ValidWritesProbes:
    return "valid_writes_probes";
  case Counter::ReadsLatestChecks:
    return "reads_latest_checks";
  case Counter::BulkRebuilds:
    return "bulk_rebuilds";
  case Counter::PrefixReplays:
    return "prefix_replays";
  case Counter::SwapChildrenBuilt:
    return "swap_children_built";
  case Counter::StealSuccesses:
    return "steal_successes";
  case Counter::StealFailures:
    return "steal_failures";
  case Counter::IdleParks:
    return "idle_parks";
  case Counter::FuzzCases:
    return "fuzz_cases";
  case Counter::StreamTxns:
    return "stream_txns";
  case Counter::StreamEvictions:
    return "stream_evictions";
  case Counter::StreamPeakWindow:
    return "stream_peak_window";
  case Counter::FilterChecks:
    return "filter_checks";
  }
  return "?";
}

void txdpor::trace::bump(Counter C, uint64_t Delta) {
  GlobalCounters[static_cast<unsigned>(C)].V.fetch_add(
      Delta, std::memory_order_relaxed);
}

void txdpor::trace::bumpMax(Counter C, uint64_t Value) {
  std::atomic<uint64_t> &A = GlobalCounters[static_cast<unsigned>(C)].V;
  uint64_t Cur = A.load(std::memory_order_relaxed);
  while (Cur < Value &&
         !A.compare_exchange_weak(Cur, Value, std::memory_order_relaxed)) {
  }
}

uint64_t txdpor::trace::counterValue(Counter C) {
  return GlobalCounters[static_cast<unsigned>(C)].V.load(
      std::memory_order_relaxed);
}

void txdpor::trace::resetCounters() {
  for (PaddedCounter &C : GlobalCounters)
    C.V.store(0, std::memory_order_relaxed);
}

std::vector<std::pair<const char *, uint64_t>>
txdpor::trace::counterSnapshot() {
  std::vector<std::pair<const char *, uint64_t>> Snap;
  Snap.reserve(NumCounters);
  for (unsigned I = 0; I != NumCounters; ++I)
    Snap.emplace_back(counterName(static_cast<Counter>(I)),
                      counterValue(static_cast<Counter>(I)));
  return Snap;
}

void txdpor::trace::writeCounters(JsonWriter &J) {
  for (const auto &[Name, Value] : counterSnapshot())
    J.key(Name).value(Value);
}

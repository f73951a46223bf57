//===- consistency/ConsistencyChecker.cpp - Checker factory ---------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "consistency/ConsistencyChecker.h"

#include "consistency/BruteForceChecker.h"
#include "consistency/SaturationChecker.h"
#include "consistency/SerializabilityChecker.h"
#include "consistency/SnapshotIsolationChecker.h"

#include <cstdio>
#include <cstdlib>

using namespace txdpor;

void txdpor::requireSearchableSize(const History &H, const char *Checker) {
  if (H.numTxns() <= MaxSearchTxns)
    return;
  std::fprintf(stderr,
               "txdpor: the %s checker decides histories of at most %u "
               "transactions (initial transaction included), got %u\n",
               Checker, MaxSearchTxns, H.numTxns());
  std::abort();
}

const char *txdpor::isolationLevelName(IsolationLevel Level) {
  switch (Level) {
  case IsolationLevel::Trivial:
    return "true";
  case IsolationLevel::ReadCommitted:
    return "RC";
  case IsolationLevel::ReadAtomic:
    return "RA";
  case IsolationLevel::CausalConsistency:
    return "CC";
  case IsolationLevel::SnapshotIsolation:
    return "SI";
  case IsolationLevel::Serializability:
    return "SER";
  }
  return "?";
}

namespace {

/// The trivial level "true" of §7.3: every history is consistent.
class TrivialChecker : public ConsistencyChecker {
public:
  IsolationLevel level() const override { return IsolationLevel::Trivial; }
  bool isConsistent(const History &) const override { return true; }
};

} // namespace

std::unique_ptr<ConsistencyChecker>
txdpor::makeChecker(IsolationLevel Level) {
  switch (Level) {
  case IsolationLevel::Trivial:
    return std::make_unique<TrivialChecker>();
  case IsolationLevel::ReadCommitted:
  case IsolationLevel::ReadAtomic:
  case IsolationLevel::CausalConsistency:
    return std::make_unique<SaturationChecker>(Level);
  case IsolationLevel::SnapshotIsolation:
    return std::make_unique<SnapshotIsolationChecker>();
  case IsolationLevel::Serializability:
    return std::make_unique<SerializabilityChecker>();
  }
  return nullptr;
}

std::unique_ptr<ConsistencyChecker>
txdpor::makeChecker(const LevelAssignment &Levels) {
  if (!Levels.isMixed())
    return makeChecker(Levels.defaultLevel());
  if (Levels.allPrefixClosedCausallyExtensible())
    return std::make_unique<MixedSaturationChecker>(Levels);
  // No polynomial procedure exists for mixes naming SI or SER; fall back
  // to the (exponential) per-transaction Def. 2.2 reference rather than
  // silently deciding those sessions with the wrong premise.
  return std::make_unique<BruteForceChecker>(Levels);
}

bool txdpor::isConsistent(const History &H, const LevelAssignment &Levels) {
  if (!Levels.isMixed())
    return isConsistent(H, Levels.defaultLevel());
  return makeChecker(Levels)->isConsistent(H);
}

const ConsistencyChecker &txdpor::checkerFor(IsolationLevel Level) {
  // Function-local statics sidestep global-constructor ordering issues.
  static const TrivialChecker Trivial;
  static const SaturationChecker Rc(IsolationLevel::ReadCommitted);
  static const SaturationChecker Ra(IsolationLevel::ReadAtomic);
  static const SaturationChecker Cc(IsolationLevel::CausalConsistency);
  static const SnapshotIsolationChecker Si;
  static const SerializabilityChecker Ser;
  switch (Level) {
  case IsolationLevel::Trivial:
    return Trivial;
  case IsolationLevel::ReadCommitted:
    return Rc;
  case IsolationLevel::ReadAtomic:
    return Ra;
  case IsolationLevel::CausalConsistency:
    return Cc;
  case IsolationLevel::SnapshotIsolation:
    return Si;
  case IsolationLevel::Serializability:
    return Ser;
  }
  return Trivial;
}

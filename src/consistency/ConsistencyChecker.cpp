//===- consistency/ConsistencyChecker.cpp - Checker factory ---------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "consistency/ConsistencyChecker.h"

#include "consistency/BruteForceChecker.h"
#include "consistency/SaturationChecker.h"
#include "consistency/SearchChecker.h"

using namespace txdpor;

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
  case IsolationLevel::Serializability:
    return std::make_unique<SearchChecker>(Level);
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
  // A function-local static sidesteps global-constructor ordering issues.
  static const auto Checkers = [] {
    std::array<std::unique_ptr<ConsistencyChecker>, AllIsolationLevels.size()>
        ByLevel;
    for (IsolationLevel L : AllIsolationLevels)
      ByLevel[static_cast<size_t>(L)] = makeChecker(L);
    return ByLevel;
  }();
  return *Checkers[static_cast<size_t>(Level)];
}

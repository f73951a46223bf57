//===- fuzz/DifferentialOracle.cpp - Cross-checking explorers/checkers ----===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "fuzz/DifferentialOracle.h"

#include "consistency/BruteForceChecker.h"
#include "consistency/IncrementalChecker.h"
#include "consistency/SaturationChecker.h"
#include "consistency/StreamingChecker.h"
#include "consistency/Witness.h"
#include "core/Enumerate.h"
#include "core/Swap.h"
#include "parallel/ParallelExplorer.h"
#include "trace_io/TraceReader.h"

#include <algorithm>
#include <map>
#include <sstream>

using namespace txdpor;
using namespace txdpor::fuzz;

std::optional<CheckerMutation>
txdpor::fuzz::checkerMutationByName(const std::string &Name) {
  if (Name == "none")
    return CheckerMutation::None;
  if (Name == "weak-cc")
    return CheckerMutation::WeakCausalPremise;
  if (Name == "weak-ra")
    return CheckerMutation::WeakAtomicVisibility;
  return std::nullopt;
}

const char *txdpor::fuzz::checkerMutationName(CheckerMutation M) {
  switch (M) {
  case CheckerMutation::None:
    return "none";
  case CheckerMutation::WeakCausalPremise:
    return "weak-cc";
  case CheckerMutation::WeakAtomicVisibility:
    return "weak-ra";
  }
  return "none";
}

bool txdpor::fuzz::mutatedIsConsistent(const History &H, IsolationLevel Level,
                                       CheckerMutation M) {
  // Each mutation decides its level with the axiom premise of the next
  // weaker saturation level — exactly a weakened instance of the §2.2.2
  // axiom schema (the forced-edge set shrinks, so the verdict can only
  // flip from inconsistent to consistent).
  switch (M) {
  case CheckerMutation::None:
    break;
  case CheckerMutation::WeakCausalPremise:
    if (Level == IsolationLevel::CausalConsistency)
      return SaturationChecker(IsolationLevel::ReadAtomic).isConsistent(H);
    break;
  case CheckerMutation::WeakAtomicVisibility:
    if (Level == IsolationLevel::ReadAtomic)
      return SaturationChecker(IsolationLevel::ReadCommitted).isConsistent(H);
    break;
  }
  return isConsistent(H, Level);
}

const char *txdpor::fuzz::disagreementKindName(Disagreement::Kind K) {
  switch (K) {
  case Disagreement::Kind::ExplorerSetMismatch:
    return "explorer-set-mismatch";
  case Disagreement::Kind::DuplicateOutput:
    return "duplicate-output";
  case Disagreement::Kind::StarFilterMismatch:
    return "star-filter-mismatch";
  case Disagreement::Kind::CheckerVerdictMismatch:
    return "checker-verdict-mismatch";
  case Disagreement::Kind::WitnessMismatch:
    return "witness-mismatch";
  case Disagreement::Kind::IncrementalVerdictMismatch:
    return "incremental-verdict-mismatch";
  case Disagreement::Kind::StreamingVerdictMismatch:
    return "streaming-verdict-mismatch";
  case Disagreement::Kind::DedupVerdictMismatch:
    return "dedup-verdict-mismatch";
  case Disagreement::Kind::IncrementalSwapStateMismatch:
    return "incremental-swap-state-mismatch";
  case Disagreement::Kind::CarriedFingerprintMismatch:
    return "carried-fingerprint-mismatch";
  case Disagreement::Kind::LevelMonotonicityViolation:
    return "level-monotonicity-violation";
  }
  return "unknown";
}

std::optional<Disagreement::Kind>
txdpor::fuzz::disagreementKindByName(const std::string &Name) {
  for (Disagreement::Kind K :
       {Disagreement::Kind::ExplorerSetMismatch,
        Disagreement::Kind::DuplicateOutput,
        Disagreement::Kind::StarFilterMismatch,
        Disagreement::Kind::CheckerVerdictMismatch,
        Disagreement::Kind::WitnessMismatch,
        Disagreement::Kind::IncrementalVerdictMismatch,
        Disagreement::Kind::StreamingVerdictMismatch,
        Disagreement::Kind::DedupVerdictMismatch,
        Disagreement::Kind::IncrementalSwapStateMismatch,
        Disagreement::Kind::CarriedFingerprintMismatch,
        Disagreement::Kind::LevelMonotonicityViolation})
    if (Name == disagreementKindName(K))
      return K;
  return std::nullopt;
}

std::optional<Disagreement> txdpor::fuzz::checkLevelMonotonicity(
    const History &H,
    const std::vector<std::pair<IsolationLevel, bool>> &Verdicts) {
  for (auto [Weak, WeakOk] : Verdicts)
    for (auto [Strong, StrongOk] : Verdicts) {
      if (WeakOk || !StrongOk || !isWeakerOrEqual(Weak, Strong))
        continue;
      Disagreement D;
      D.K = Disagreement::Kind::LevelMonotonicityViolation;
      D.Level = Strong;
      D.Culprit = H;
      D.ProductionVerdict = StrongOk;
      D.ReferenceVerdict = WeakOk;
      D.Detail = std::string(isolationLevelName(Strong)) +
                 " accepts but the weaker " + isolationLevelName(Weak) +
                 " rejects";
      return D;
    }
  return std::nullopt;
}

namespace {

std::map<std::string, unsigned> keyMultiset(const std::vector<History> &Hs) {
  std::map<std::string, unsigned> Counts;
  for (const History &H : Hs)
    ++Counts[H.canonicalKey()];
  return Counts;
}

/// Renders a terse multiset diff ("only in A: 2 keys; only in B: 1 key").
std::string diffSummary(const std::map<std::string, unsigned> &A,
                        const std::map<std::string, unsigned> &B,
                        const char *NameA, const char *NameB) {
  unsigned OnlyA = 0, OnlyB = 0, CountDiff = 0;
  for (const auto &[Key, N] : A) {
    auto It = B.find(Key);
    if (It == B.end())
      ++OnlyA;
    else if (It->second != N)
      ++CountDiff;
  }
  for (const auto &[Key, N] : B)
    if (!A.count(Key))
      ++OnlyB;
  std::ostringstream OS;
  OS << "only in " << NameA << ": " << OnlyA << ", only in " << NameB << ": "
     << OnlyB << ", multiplicity diffs: " << CountDiff;
  return OS.str();
}

/// True if \p H satisfies the ordered-history discipline ConstraintState
/// requires (see consistency/IncrementalChecker.h): no pending
/// transaction and every so ∪ wr edge forward in block order. Explorer
/// outputs always qualify; raw generated histories usually do but are
/// checked rather than assumed.
bool incrementalEligible(const History &H) {
  unsigned N = H.numTxns();
  if (N == 0 || !H.txn(0).isInit())
    return false;
  for (unsigned I = 0; I != N; ++I)
    if (H.txn(I).isPending())
      return false;
  const Relation &SoWr = H.soWrRelation();
  for (unsigned A = 0; A != N; ++A) {
    bool Forward = true;
    SoWr.forEachSuccessor(A, [&](unsigned B) { Forward &= A < B; });
    if (!Forward)
      return false;
  }
  return true;
}

/// The incremental-vs-scratch diff of one history under one assignment
/// (uniform or mixed): the leg that keeps the engine's carried
/// ConstraintState honest against the reference saturation checkers.
std::optional<Disagreement>
diffIncremental(const History &H, const LevelAssignment &Levels) {
  if (!Levels.allPrefixClosedCausallyExtensible())
    return std::nullopt;
  bool Incremental = ConstraintState(H, Levels).consistent();
  bool Scratch = isConsistent(H, Levels);
  if (Incremental == Scratch)
    return std::nullopt;
  Disagreement D;
  D.K = Disagreement::Kind::IncrementalVerdictMismatch;
  D.Level = Levels.strongest();
  D.Culprit = H;
  D.ProductionVerdict = Incremental;
  D.ReferenceVerdict = Scratch;
  D.Detail = std::string("incremental ConstraintState says ") +
             (Incremental ? "consistent" : "inconsistent") +
             ", scratch saturation says " +
             (Scratch ? "consistent" : "inconsistent") + " under " +
             Levels.str();
  return D;
}

/// The swap-child-rebuild diff of one history under one assignment: the
/// state of every reordering candidate's swapped history is built both
/// ways — bulk from block zero, and incrementally by copying the cached
/// prefix state below the reader and replaying only the changed blocks —
/// and the two must be logically equivalent. The leg that keeps the
/// engine's O(delta) swap fan-out rebuild honest against the bulk
/// constructor it replaced on the hot path. Like the engine, it fans out
/// swaps only from base-consistent histories: ConstraintState does not
/// extend an inconsistent state.
std::optional<Disagreement>
diffSwapRebuild(const History &H, const LevelAssignment &Levels) {
  if (!Levels.allPrefixClosedCausallyExtensible() ||
      !ConstraintState(H, Levels).consistent())
    return std::nullopt;
  std::vector<Reordering> Rs = computeReorderings(H);
  if (Rs.empty())
    return std::nullopt;
  PrefixStateCache Cache(H, Levels, 0);
  for (const Reordering &R : Rs) {
    History Swapped = applySwap(H, R);
    ConstraintState Bulk(Swapped, Levels);
    ConstraintState Incr = Cache.stateFor(R.ReaderTxn);
    Incr.replayBlocks(Swapped, R.ReaderTxn, Swapped.numTxns());
    if (Incr.equivalentTo(Bulk))
      continue;
    Disagreement D;
    D.K = Disagreement::Kind::IncrementalSwapStateMismatch;
    D.Level = Levels.strongest();
    D.Culprit = H;
    D.ProductionVerdict = Incr.consistent();
    D.ReferenceVerdict = Bulk.consistent();
    D.Detail = "incremental swap-child rebuild (reader txn " +
               std::to_string(R.ReaderTxn) + ", read pos " +
               std::to_string(R.ReadPos) +
               ") is not equivalent to the bulk state under " + Levels.str();
    return D;
  }
  return std::nullopt;
}

/// Outcome of one windowed streaming re-check of a serialized history.
enum class StreamVerdict : uint8_t {
  Consistent, ///< Whole trace accepted.
  Anomaly,    ///< Isolation violation reported.
  Refused,    ///< Stale-read refusal — legitimate under a small budget.
  Broken      ///< Round-tripped trace rejected as malformed: always a bug.
};

/// Streams \p Trace (a serialized jsonl trace) through a fresh
/// StreamingChecker at \p Window, returning the verdict. \p Detail gets
/// the checker/reader diagnostic for Refused/Broken.
StreamVerdict streamTrace(const std::string &Trace,
                          const LevelAssignment &Levels, unsigned Window,
                          std::string &Detail) {
  std::istringstream In(Trace);
  trace_io::TraceReader Reader(In);
  if (!Reader.valid()) {
    Detail = "reader rejected round-tripped trace: " + Reader.error();
    return StreamVerdict::Broken;
  }
  StreamingOptions SOpts;
  SOpts.Levels = Levels;
  SOpts.NumVars = Reader.header().NumVars;
  SOpts.NumSessions = Reader.header().NumSessions;
  SOpts.WindowBudget = Window;
  StreamingChecker Checker(SOpts);
  TransactionLog Log(TxnUid::init());
  std::string Diag;
  for (;;) {
    switch (Reader.next(Log)) {
    case trace_io::TraceReader::Next::End:
      return StreamVerdict::Consistent;
    case trace_io::TraceReader::Next::Error:
      Detail = "reader choked on round-tripped record: " + Reader.error();
      return StreamVerdict::Broken;
    case trace_io::TraceReader::Next::Txn:
      break;
    }
    switch (Checker.append(Log, &Diag)) {
    case StreamStatus::Ok:
      break;
    case StreamStatus::Anomaly:
      return StreamVerdict::Anomaly;
    case StreamStatus::StaleRead:
      Detail = Diag;
      return StreamVerdict::Refused;
    case StreamStatus::Malformed:
      Detail = "streaming checker rejected round-tripped record: " + Diag;
      return StreamVerdict::Broken;
    }
  }
}

/// The streaming leg over one history and one assignment: serialize,
/// re-parse, stream at every budget in \p Windows, and diff against
/// \p Expected (the full-history verdict). Returns at most one
/// disagreement — the first mismatching budget.
std::optional<Disagreement>
diffStreaming(const History &H, const LevelAssignment &Levels, bool Expected,
              const std::vector<unsigned> &Windows) {
  trace_io::TraceHeader Hdr;
  std::vector<TransactionLog> Txns;
  std::string Err;
  if (!trace_io::traceFromHistory(H, Levels, Hdr, Txns, &Err))
    return std::nullopt; // Not trace-shaped (caller screens; belt only).
  std::ostringstream OS;
  trace_io::writeTrace(OS, Hdr, Txns, trace_io::TraceFormat::Jsonl);
  std::string Trace = OS.str();

  for (unsigned Window : Windows) {
    std::string Detail;
    StreamVerdict V = streamTrace(Trace, Levels, Window, Detail);
    if (V == StreamVerdict::Refused)
      continue; // An honest "raise the budget" — not a verdict.
    bool Mismatch = V == StreamVerdict::Broken ||
                    (V == StreamVerdict::Anomaly) == Expected;
    if (!Mismatch)
      continue;
    Disagreement D;
    D.K = Disagreement::Kind::StreamingVerdictMismatch;
    D.Level = Levels.strongest();
    D.Culprit = H;
    D.ProductionVerdict = V == StreamVerdict::Consistent;
    D.ReferenceVerdict = Expected;
    D.Detail =
        "streaming(window " + std::to_string(Window) + ") says " +
        (V == StreamVerdict::Broken
             ? "malformed"
             : (V == StreamVerdict::Anomaly ? "inconsistent" : "consistent")) +
        ", full-history production says " +
        (Expected ? "consistent" : "inconsistent") + " under " + Levels.str() +
        (Detail.empty() ? "" : " — " + Detail);
    return D;
  }
  return std::nullopt;
}

} // namespace

void DifferentialOracle::checkOneHistory(
    const History &H, const std::vector<IsolationLevel> &Levels,
    std::vector<Disagreement> &Out, bool Stream) const {
  // Production verdicts, shared by the legs below. The monotonicity leg
  // needs no reference, so it runs before the brute-force size cut.
  std::vector<std::pair<IsolationLevel, bool>> Production;
  for (IsolationLevel Level : Levels)
    Production.push_back(
        {Level, mutatedIsConsistent(H, Level, Config.Mutation)});
  if (std::optional<Disagreement> D = checkLevelMonotonicity(H, Production))
    Out.push_back(std::move(*D));
  if (Config.MaxBruteForceTxns && H.numTxns() > Config.MaxBruteForceTxns)
    return;
  if (Config.CrossCheckIncremental && incrementalEligible(H)) {
    for (IsolationLevel Level : Levels) {
      if (!isPrefixClosedCausallyExtensible(Level) ||
          Level == IsolationLevel::Trivial)
        continue;
      if (std::optional<Disagreement> D =
              diffIncremental(H, LevelAssignment::uniform(Level)))
        Out.push_back(std::move(*D));
      if (std::optional<Disagreement> D =
              diffSwapRebuild(H, LevelAssignment::uniform(Level)))
        Out.push_back(std::move(*D));
    }
  }
  for (auto [Level, Verdict] : Production) {
    bool Reference = BruteForceChecker(Level).isConsistent(H);
    if (Config.CrossCheckVerdicts && Verdict != Reference) {
      Disagreement D;
      D.K = Disagreement::Kind::CheckerVerdictMismatch;
      D.Level = Level;
      D.Culprit = H;
      D.ProductionVerdict = Verdict;
      D.ReferenceVerdict = Reference;
      D.Detail = std::string("production says ") +
                 (Verdict ? "consistent" : "inconsistent") +
                 ", brute-force Def. 2.2 says " +
                 (Reference ? "consistent" : "inconsistent");
      Out.push_back(std::move(D));
    }
    if (Config.ValidateWitnesses) {
      std::optional<std::vector<unsigned>> Order = findCommitOrder(H, Level);
      if (Order.has_value() != Reference) {
        Disagreement D;
        D.K = Disagreement::Kind::WitnessMismatch;
        D.Level = Level;
        D.Culprit = H;
        D.ProductionVerdict = Order.has_value();
        D.ReferenceVerdict = Reference;
        D.Detail = std::string("findCommitOrder ") +
                   (Order ? "returned a certificate" : "found none") +
                   " but the reference verdict is " +
                   (Reference ? "consistent" : "inconsistent");
        Out.push_back(std::move(D));
      } else if (Order && !validateCommitOrder(H, Level, *Order)) {
        Disagreement D;
        D.K = Disagreement::Kind::WitnessMismatch;
        D.Level = Level;
        D.Culprit = H;
        D.ProductionVerdict = true;
        D.ReferenceVerdict = Reference;
        D.Detail = "findCommitOrder returned a certificate that fails "
                   "validateCommitOrder";
        Out.push_back(std::move(D));
      }
    }
  }
  // Streaming leg, deliberately last: a weakened production checker
  // (CheckerMutation) should surface as a checker-verdict-mismatch first
  // and a streaming mismatch second, keeping the primary finding stable.
  // Comparing against the *mutated* verdict gives this leg the same
  // teeth: a mutation weakens Expected, the streaming side stays exact.
  if (Config.DiffStreaming && Stream && incrementalEligible(H)) {
    for (auto [Level, Verdict] : Production) {
      if (!isPrefixClosedCausallyExtensible(Level) ||
          Level == IsolationLevel::Trivial)
        continue;
      if (std::optional<Disagreement> D =
              diffStreaming(H, LevelAssignment::uniform(Level), Verdict,
                            Config.StreamingWindows))
        Out.push_back(std::move(*D));
    }
  }
}

std::vector<Disagreement> DifferentialOracle::checkHistory(
    const History &H) const {
  std::vector<Disagreement> Out;
  checkOneHistory(H, Config.VerdictLevels, Out);
  return Out;
}

void DifferentialOracle::checkMixedSemantics(
    const Program &P, const std::vector<IsolationLevel> &SessionLevels,
    std::vector<Disagreement> &Out) const {
  // Clamp the sampled mix to the causally-extensible chain (identically
  // for every leg below): SI/SER cannot drive ValidWrites, so such
  // sessions explore — and are verdict-checked — at CC.
  LevelAssignment Mix(IsolationLevel::CausalConsistency);
  for (unsigned S = 0; S != SessionLevels.size(); ++S) {
    IsolationLevel L = SessionLevels[S];
    if (!isPrefixClosedCausallyExtensible(L))
      L = IsolationLevel::CausalConsistency;
    Mix.set(S, L);
  }
  LevelAssignment Resolved = Mix.resolved(P.numSessions());
  if (!Resolved.isMixed())
    return; // Collapses to a uniform base; the classic legs cover it.

  auto MakeDisagreement = [&](Disagreement::Kind K, std::string Detail) {
    Disagreement D;
    D.K = K;
    D.Level = Resolved.strongest();
    D.MixLevels = SessionLevels;
    D.Detail = std::move(Detail);
    return D;
  };

  ExplorerConfig Seq = ExplorerConfig::exploreCEMixed(Mix);
  if (Config.MaxHistoriesPerCase)
    Seq.MaxEndStates = Config.MaxHistoriesPerCase + 1;
  EnumerationResult Ref = enumerateHistories(P, Seq);
  if (Config.MaxHistoriesPerCase &&
      (Ref.Stats.HitEndStateCap ||
       Ref.Histories.size() > Config.MaxHistoriesPerCase))
    return; // Too large to diff affordably.
  auto RefKeys = keyMultiset(Ref.Histories);

  // Strong optimality must survive the mixed base: no duplicates.
  for (const auto &[Key, N] : RefKeys) {
    if (N == 1)
      continue;
    Disagreement D = MakeDisagreement(
        Disagreement::Kind::DuplicateOutput,
        "sequential explorer emitted one history " + std::to_string(N) +
            " times under mix(" + Resolved.str() + ")");
    for (const History &H : Ref.Histories)
      if (H.canonicalKey() == Key) {
        D.Culprit = H;
        break;
      }
    Out.push_back(std::move(D));
    break;
  }

  // Driver diff under the mixed base: the parallel walk must reproduce
  // the sequential output multiset (thread-count invariance).
  if (Config.Threads > 1) {
    ExplorerConfig Par = Seq;
    Par.Threads = Config.Threads;
    std::vector<History> ParHistories;
    ParallelExplorer E(P, Par);
    E.run([&](const History &H) { ParHistories.push_back(H); });
    auto ParKeys = keyMultiset(ParHistories);
    if (ParKeys != RefKeys)
      Out.push_back(MakeDisagreement(
          Disagreement::Kind::ExplorerSetMismatch,
          "parallel(" + std::to_string(Config.Threads) +
              ") vs sequential under mix(" + Resolved.str() +
              "): " + diffSummary(ParKeys, RefKeys, "parallel",
                                  "sequential")));
  }

  // Dedup under the mixed base: symmetry must stay inside the dedup-off
  // multiset (sessions at different levels land in different structural
  // classes, so a level mix *shrinks* the symmetry available — never the
  // soundness). Verdict-existence equality is exercised by the uniform
  // leg; here the set containment is the mixed-specific property.
  if (Config.DiffDedup) {
    // DedupVerifyCarried mirrors the uniform leg: the carried-fingerprint
    // maintenance must survive mixed bases too (different per-session
    // levels shrink the structural classes it canonicalizes over).
    ExplorerConfig Sym = Seq;
    Sym.Dedup = DedupMode::Symmetry;
    Sym.DedupVerifyCarried = true;
    EnumerationResult SymRes = enumerateHistories(P, Sym);
    if (SymRes.Stats.DedupFpMismatches != 0)
      Out.push_back(MakeDisagreement(
          Disagreement::Kind::CarriedFingerprintMismatch,
          "dedup=symmetry under mix(" + Resolved.str() + "): " +
              std::to_string(SymRes.Stats.DedupFpMismatches) +
              " carried fingerprints differ from the from-scratch "
              "fingerprint"));
    auto SymKeys = keyMultiset(SymRes.Histories);
    for (const auto &[Key, N] : SymKeys) {
      auto It = RefKeys.find(Key);
      if (It == RefKeys.end() || It->second < N) {
        Out.push_back(MakeDisagreement(
            Disagreement::Kind::DedupVerdictMismatch,
            "dedup=symmetry emitted histories outside the dedup=off set "
            "under mix(" +
                Resolved.str() +
                "): " + diffSummary(SymKeys, RefKeys, "symmetry", "off")));
        break;
      }
    }
  }

  // Completeness/soundness against the Def. 2.2 reference with
  // per-transaction commit tests: the mixed output set must equal the
  // explore-ce(true) set re-filtered by BruteForceChecker(assignment).
  BruteForceChecker Reference(Resolved);
  bool BruteAffordable =
      !Config.MaxBruteForceTxns ||
      P.totalTxns() + 1 <= Config.MaxBruteForceTxns;
  if (BruteAffordable) {
    ExplorerConfig All =
        ExplorerConfig::exploreCE(IsolationLevel::Trivial);
    if (Config.MaxHistoriesPerCase)
      All.MaxEndStates = 4 * Config.MaxHistoriesPerCase + 1;
    EnumerationResult Universe = enumerateHistories(P, All);
    if (!(Config.MaxHistoriesPerCase &&
          (Universe.Stats.HitEndStateCap ||
           Universe.Histories.size() > 4 * Config.MaxHistoriesPerCase))) {
      std::vector<History> Expected;
      for (const History &H : Universe.Histories)
        if (Reference.isConsistent(H))
          Expected.push_back(H);
      auto Want = keyMultiset(Expected);
      if (RefKeys != Want)
        Out.push_back(MakeDisagreement(
            Disagreement::Kind::ExplorerSetMismatch,
            "explore-ce(mix " + Resolved.str() +
                ") vs brute-force-filtered explore-ce(true): " +
                diffSummary(RefKeys, Want, "mixed", "reference")));
    }
  }

  // Per-output verdict cross-check: the production mixed saturation
  // checker against the brute-force reference. Every output must also be
  // consistent under its own base assignment (explore-ce soundness).
  // Mixed incremental leg: the shared ConstraintState core must agree
  // with the scratch mixed checker on every mixed-base output. Runs
  // independently of CrossCheckVerdicts (it guards the incremental/
  // scratch equivalence, not the axiom semantics) and needs no
  // brute-force affordability cap — both sides are polynomial.
  if (Config.CrossCheckIncremental) {
    for (const History &H : Ref.Histories) {
      if (Out.size() >= 8)
        break;
      if (std::optional<Disagreement> D = diffIncremental(H, Resolved)) {
        D->MixLevels = SessionLevels;
        Out.push_back(std::move(*D));
      }
      if (std::optional<Disagreement> D = diffSwapRebuild(H, Resolved)) {
        D->MixLevels = SessionLevels;
        Out.push_back(std::move(*D));
      }
    }
  }

  // Mixed streaming leg: serialize each mixed-base output and re-check
  // it through the windowed checker under the resolved assignment,
  // against the scratch mixed verdict (mutations target uniform levels;
  // this leg guards eviction and round-trip under per-session mixes).
  if (Config.DiffStreaming) {
    unsigned Streamed = 0;
    for (const History &H : Ref.Histories) {
      if (Out.size() >= 8)
        break;
      if (Config.MaxStreamedHistoriesPerCase &&
          Streamed >= Config.MaxStreamedHistoriesPerCase)
        break;
      if (!incrementalEligible(H))
        continue;
      ++Streamed;
      if (std::optional<Disagreement> D =
              diffStreaming(H, Resolved, isConsistent(H, Resolved),
                            Config.StreamingWindows)) {
        D->MixLevels = SessionLevels;
        Out.push_back(std::move(*D));
      }
    }
  }

  if (Config.CrossCheckVerdicts) {
    MixedSaturationChecker Production(Resolved);
    for (const History &H : Ref.Histories) {
      if (Out.size() >= 8)
        break;
      if (Config.MaxBruteForceTxns &&
          H.numTxns() > Config.MaxBruteForceTxns)
        continue;
      bool Prod = Production.isConsistent(H);
      bool RefV = Reference.isConsistent(H);
      if (Prod != RefV) {
        Disagreement D = MakeDisagreement(
            Disagreement::Kind::CheckerVerdictMismatch,
            std::string("mixed saturation says ") +
                (Prod ? "consistent" : "inconsistent") +
                ", per-transaction brute force says " +
                (RefV ? "consistent" : "inconsistent") + " under mix(" +
                Resolved.str() + ")");
        D.Culprit = H;
        D.ProductionVerdict = Prod;
        D.ReferenceVerdict = RefV;
        Out.push_back(std::move(D));
      } else if (!RefV) {
        Disagreement D = MakeDisagreement(
            Disagreement::Kind::ExplorerSetMismatch,
            "mixed-base output violates its own base assignment mix(" +
                Resolved.str() + ") per the brute-force reference");
        D.Culprit = H;
        Out.push_back(std::move(D));
      }
    }
  }
}

std::vector<Disagreement> DifferentialOracle::checkProgram(
    const Program &P, const std::vector<IsolationLevel> &SessionLevels) const {
  std::vector<Disagreement> Out;

  // Mixed-isolation semantics: run the explorers with the sampled mix as
  // a true per-session base assignment (not just a narrowed sweep).
  if (Config.DiffMixedSemantics && !SessionLevels.empty())
    checkMixedSemantics(P, SessionLevels, Out);

  // A per-session isolation-level mix narrows the sweep: only the named
  // levels (causally-extensible ones as bases, all of them as verdict
  // levels) are exercised for this case.
  std::vector<IsolationLevel> Bases = Config.BaseLevels;
  std::vector<IsolationLevel> Verdicts = Config.VerdictLevels;
  if (!SessionLevels.empty()) {
    Bases.clear();
    Verdicts.clear();
    for (IsolationLevel L : SessionLevels) {
      if (isPrefixClosedCausallyExtensible(L) &&
          L != IsolationLevel::Trivial &&
          std::find(Bases.begin(), Bases.end(), L) == Bases.end())
        Bases.push_back(L);
      if (L != IsolationLevel::Trivial &&
          std::find(Verdicts.begin(), Verdicts.end(), L) == Verdicts.end())
        Verdicts.push_back(L);
    }
    if (Bases.empty())
      Bases.push_back(IsolationLevel::CausalConsistency);
  }

  std::vector<History> CcOutputs;
  for (IsolationLevel Base : Bases) {
    assert(isPrefixClosedCausallyExtensible(Base) &&
           "explore-ce base must be causally extensible");
    ExplorerConfig Seq = ExplorerConfig::exploreCE(Base);
    // Abort oversized enumerations at the cap instead of paying for the
    // full (possibly combinatorial) set only to discard it. Without a
    // filter, outputs are exactly end states, so the cap is precise; the
    // parallel and dedup legs inherit it but never trigger it (they only
    // run when the sequential set stayed under the cap).
    if (Config.MaxHistoriesPerCase)
      Seq.MaxEndStates = Config.MaxHistoriesPerCase + 1;
    EnumerationResult Ref = enumerateHistories(P, Seq);
    if (Config.MaxHistoriesPerCase &&
        (Ref.Stats.HitEndStateCap ||
         Ref.Histories.size() > Config.MaxHistoriesPerCase))
      continue; // This base is too large to diff affordably; later
                // (stronger, smaller) bases still get checked, and an
                // oversized CC set leaves CcOutputs empty, skipping the
                // star/per-history phases.
    auto RefKeys = keyMultiset(Ref.Histories);

    if (Base == IsolationLevel::CausalConsistency)
      CcOutputs = Ref.Histories;

    if (Config.DiffExplorers) {
      // Strong optimality: the sequential driver must not emit duplicates.
      for (const auto &[Key, N] : RefKeys) {
        if (N == 1)
          continue;
        Disagreement D;
        D.K = Disagreement::Kind::DuplicateOutput;
        D.Level = Base;
        for (const History &H : Ref.Histories)
          if (H.canonicalKey() == Key) {
            D.Culprit = H;
            break;
          }
        D.Detail = "sequential explorer emitted one history " +
                   std::to_string(N) + " times under " +
                   isolationLevelName(Base);
        Out.push_back(std::move(D));
        break; // One duplicate report per base is plenty.
      }

      if (Config.Threads > 1) {
        ExplorerConfig Par = Seq;
        Par.Threads = Config.Threads;
        std::vector<History> ParHistories;
        ParallelExplorer E(P, Par);
        E.run([&](const History &H) { ParHistories.push_back(H); });
        auto ParKeys = keyMultiset(ParHistories);
        if (ParKeys != RefKeys) {
          Disagreement D;
          D.K = Disagreement::Kind::ExplorerSetMismatch;
          D.Level = Base;
          D.Detail = "parallel(" + std::to_string(Config.Threads) +
                     ") vs sequential under " + isolationLevelName(Base) +
                     ": " + diffSummary(ParKeys, RefKeys, "parallel",
                                        "sequential");
          Out.push_back(std::move(D));
        }
      }
    }

    if (Config.DiffDedup) {
      // Symmetry mode may drop renaming-isomorphic histories but must
      // never invent one (sub-multiset of the reference) and must reach
      // the same violation verdict at every swept level. Deliberately the
      // unmutated production checkers on both sides (mirroring the
      // incremental leg): this leg guards dedup itself, not the axioms.
      // It runs with DedupVerifyCarried: every probe's O(Δ) carried
      // fingerprint is re-derived from scratch and disagreements are
      // counted — so this optimized fuzzing leg has the same teeth as the
      // debug-build assert at the engine's probe site.
      ExplorerConfig Sym = Seq;
      Sym.Dedup = DedupMode::Symmetry;
      Sym.DedupVerifyCarried = true;
      EnumerationResult SymRes = enumerateHistories(P, Sym);
      std::vector<History> SymHistories = std::move(SymRes.Histories);
      if (SymRes.Stats.DedupFpMismatches != 0) {
        Disagreement D;
        D.K = Disagreement::Kind::CarriedFingerprintMismatch;
        D.Level = Base;
        D.Detail = "dedup=symmetry under " +
                   std::string(isolationLevelName(Base)) + ": " +
                   std::to_string(SymRes.Stats.DedupFpMismatches) +
                   " carried fingerprints differ from the from-scratch "
                   "fingerprint";
        Out.push_back(std::move(D));
      }
      auto SymKeys = keyMultiset(SymHistories);
      bool Included = true;
      for (const auto &[Key, N] : SymKeys) {
        auto It = RefKeys.find(Key);
        if (It == RefKeys.end() || It->second < N) {
          Included = false;
          break;
        }
      }
      if (!Included) {
        Disagreement D;
        D.K = Disagreement::Kind::DedupVerdictMismatch;
        D.Level = Base;
        D.Detail = "dedup=symmetry emitted histories outside the dedup=off "
                   "set under " +
                   std::string(isolationLevelName(Base)) + ": " +
                   diffSummary(SymKeys, RefKeys, "symmetry", "off");
        Out.push_back(std::move(D));
      } else {
        for (IsolationLevel L : Verdicts) {
          auto HasViolation = [&](const std::vector<History> &Hs) {
            for (const History &H : Hs)
              if (!isConsistent(H, L))
                return true;
            return false;
          };
          bool RefViolates = HasViolation(Ref.Histories);
          bool SymViolates = HasViolation(SymHistories);
          if (RefViolates != SymViolates) {
            Disagreement D;
            D.K = Disagreement::Kind::DedupVerdictMismatch;
            D.Level = L;
            D.Detail =
                "dedup=symmetry under " +
                std::string(isolationLevelName(Base)) + " changes the " +
                isolationLevelName(L) + " violation verdict (off: " +
                (RefViolates ? "violating" : "clean") + ", symmetry: " +
                (SymViolates ? "violating" : "clean") + ")";
            Out.push_back(std::move(D));
          }
        }
      }
    }
  }

  // explore-ce*(CC, I) versus the CC set re-filtered by the production
  // checker of I. Runs only when CC was part of the sweep.
  if (Config.DiffStarFilters && !CcOutputs.empty()) {
    for (IsolationLevel Filter : {IsolationLevel::SnapshotIsolation,
                                  IsolationLevel::Serializability}) {
      if (std::find(Verdicts.begin(), Verdicts.end(), Filter) ==
          Verdicts.end())
        continue;
      std::vector<History> Expected;
      for (const History &H : CcOutputs)
        if (mutatedIsConsistent(H, Filter, Config.Mutation))
          Expected.push_back(H);
      auto Star = keyMultiset(
          enumerateHistories(
              P, ExplorerConfig::exploreCEStar(
                     IsolationLevel::CausalConsistency, Filter))
              .Histories);
      auto Want = keyMultiset(Expected);
      if (Star != Want) {
        Disagreement D;
        D.K = Disagreement::Kind::StarFilterMismatch;
        D.Level = Filter;
        D.Detail = std::string("explore-ce*(CC, ") +
                   isolationLevelName(Filter) +
                   ") vs re-filtered explore-ce(CC): " +
                   diffSummary(Star, Want, "star", "filtered");
        Out.push_back(std::move(D));
      }
    }
  }

  // Per-output-history verdict and witness cross-checks (over the
  // narrowed levels for mixed-level cases).
  if ((Config.CrossCheckVerdicts || Config.ValidateWitnesses) &&
      !CcOutputs.empty()) {
    unsigned Streamed = 0;
    for (const History &H : CcOutputs) {
      bool Stream = !Config.MaxStreamedHistoriesPerCase ||
                    Streamed < Config.MaxStreamedHistoriesPerCase;
      checkOneHistory(H, Verdicts, Out, Stream);
      Streamed += Stream;
      if (Out.size() >= 8)
        break; // Enough evidence for one case.
    }
  }

  return Out;
}

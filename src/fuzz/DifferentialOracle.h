//===- fuzz/DifferentialOracle.h - Cross-checking explorers and checkers --===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzzer's oracle: runs one generated workload through redundant
/// implementations that must agree, and reports every disagreement.
///
/// For a *program* the oracle diffs, per base level,
///
///   * the sequential (§7.1 worklist) and parallel explorers — identical
///     canonical output-history multisets (soundness/completeness of each
///     driver relative to the other) and no duplicates (strong
///     optimality, Thm. 5.1);
///   * explore-ce*(CC, I) against the explore-ce(CC) set re-filtered by
///     the production checker of I (Cor. 6.2 plumbing).
///
/// For a *history* (an explorer output or a raw generated history) it
/// checks that the production verdicts respect the level chain
/// (accept(SER) ⊆ accept(SI) ⊆ … ⊆ accept(RC)), diffs them per level
/// (SaturationChecker / SearchChecker) against BruteForceChecker — the
/// literal Def. 2.2 enumeration — and validates the commit-order
/// certificate of consistency/Witness.h. It also diffs the incremental
/// ConstraintState and its swap-child rebuild (from base-consistent
/// histories only, as in the engine) against bulk references, and
/// re-checks eligible histories, serialized to traces, with the windowed
/// StreamingChecker at several budgets (the streaming leg).
///
/// CheckerMutation is a test-only hook that deliberately weakens an axiom
/// of the production side; the mutation-smoke test asserts the fuzzer
/// catches each mutation within a bounded seed budget (a live check that
/// the oracle has teeth). Production code never enables a mutation.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_FUZZ_DIFFERENTIALORACLE_H
#define TXDPOR_FUZZ_DIFFERENTIALORACLE_H

#include "consistency/IsolationLevel.h"
#include "history/History.h"
#include "program/Program.h"
#include "support/Deadline.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace txdpor {
namespace fuzz {

/// Test-only axiom weakenings injected into the production side of the
/// verdict cross-check (see mutatedIsConsistent).
enum class CheckerMutation : uint8_t {
  None,
  /// Decide CC with RA's axiom premise (so ∪ wr instead of its transitive
  /// closure) — drops the causal saturation step, admitting histories
  /// with two-hop causality violations.
  WeakCausalPremise,
  /// Decide RA with RC's event-granular premise — forgets that an RA
  /// read-set must be atomic across variables.
  WeakAtomicVisibility,
};

/// Parses "none" / "weak-cc" / "weak-ra".
std::optional<CheckerMutation> checkerMutationByName(const std::string &Name);
const char *checkerMutationName(CheckerMutation M);

/// The production-side verdict with \p M applied (the identity for
/// CheckerMutation::None).
bool mutatedIsConsistent(const History &H, IsolationLevel Level,
                         CheckerMutation M);

/// One observed disagreement between redundant implementations.
struct Disagreement {
  enum class Kind : uint8_t {
    /// The parallel explorer produced a different canonical output
    /// multiset than the sequential explorer.
    ExplorerSetMismatch,
    /// An explorer emitted the same history twice (optimality breach).
    DuplicateOutput,
    /// explore-ce*(CC, I) disagrees with the re-filtered explore-ce(CC)
    /// set.
    StarFilterMismatch,
    /// Production checker verdict differs from the brute-force Def. 2.2
    /// reference on one history.
    CheckerVerdictMismatch,
    /// findCommitOrder disagrees with the reference verdict, or its
    /// certificate fails validateCommitOrder.
    WitnessMismatch,
    /// The incremental ConstraintState verdict differs from the scratch
    /// SaturationChecker / MixedSaturationChecker on one history — the
    /// leg that guards the carried-state optimization of the engine.
    IncrementalVerdictMismatch,
    /// The windowed streaming checker, fed the history serialized to a
    /// trace and re-parsed, differs from the full-history verdict at some
    /// window budget (stale-read refusals excepted) — the leg that
    /// guards eviction soundness/completeness and the trace round-trip.
    StreamingVerdictMismatch,
    /// A dedup-enabled exploration broke its contract against the
    /// dedup-off reference: symmetry mode must emit a sub-multiset with
    /// identical per-level violation-existence verdicts — the leg that
    /// guards the subtree memoization of core/Dedup.h.
    DedupVerdictMismatch,
    /// An O(Δ) swap-child rebuild (copy the cached prefix state, replay
    /// only the changed blocks) is not equivalentTo the bulk-constructed
    /// ConstraintState of the same swapped history — the leg that guards
    /// the engine's incremental fan-out rebuild.
    IncrementalSwapStateMismatch,
    /// A stronger level accepts a history that a weaker level rejects
    /// (production verdicts) — the leg needs no reference, so it also
    /// covers histories too large for the brute-force cross-check.
    LevelMonotonicityViolation,
  };

  Kind K = Kind::CheckerVerdictMismatch;
  IsolationLevel Level = IsolationLevel::CausalConsistency;
  /// Per-session base assignment of the mixed-semantics legs (explorer
  /// diffs and verdict cross-checks under a mixed base); empty for the
  /// classic uniform legs, where Level alone identifies the sweep point.
  std::vector<IsolationLevel> MixLevels;
  std::string Detail;
  /// The offending history for history-scoped kinds (verdict/witness and
  /// duplicate kinds); unset for whole-set mismatches.
  std::optional<History> Culprit;
  /// Verdicts for CheckerVerdictMismatch / WitnessMismatch.
  bool ProductionVerdict = false;
  bool ReferenceVerdict = false;
};

/// Stable kebab-case name used in repro files and log lines.
const char *disagreementKindName(Disagreement::Kind K);
std::optional<Disagreement::Kind>
disagreementKindByName(const std::string &Name);

/// The level-monotonicity leg over one history: \p Verdicts holds the
/// production verdict of \p H at each checked level. Returns the first
/// pair in which a stronger level accepts and a weaker one rejects, or
/// nullopt when the verdicts respect the strength chain.
std::optional<Disagreement> checkLevelMonotonicity(
    const History &H,
    const std::vector<std::pair<IsolationLevel, bool>> &Verdicts);

/// Knobs of one oracle instance.
struct OracleConfig {
  /// Base levels of the explorer diff (must be causally extensible).
  std::vector<IsolationLevel> BaseLevels = {
      IsolationLevel::ReadCommitted, IsolationLevel::ReadAtomic,
      IsolationLevel::CausalConsistency};
  /// Levels of the per-history verdict cross-check.
  std::vector<IsolationLevel> VerdictLevels = {
      IsolationLevel::ReadCommitted, IsolationLevel::ReadAtomic,
      IsolationLevel::CausalConsistency, IsolationLevel::SnapshotIsolation,
      IsolationLevel::Serializability};
  bool DiffExplorers = true;
  bool DiffStarFilters = true;
  bool CrossCheckVerdicts = true;
  bool ValidateWitnesses = true;
  /// Diff the incremental ConstraintState (the engine's carried commit
  /// test) against the scratch saturation checkers on every checked
  /// history that satisfies the ordered-history discipline the state
  /// requires. Deliberately *not* subject to Mutation: this leg guards
  /// the incremental/scratch equivalence itself, continuously, in the
  /// nightly soak.
  bool CrossCheckIncremental = true;
  /// Mixed-semantics legs for cases carrying a per-session level mix:
  /// run the explorers with the mix as the *base assignment* (per-session
  /// ValidWrites), diff the two drivers, and cross-check every mixed
  /// output's MixedSaturationChecker verdict against
  /// BruteForceChecker(assignment) — the Def. 2.2 reference with
  /// per-transaction commit tests. Sampled levels outside the
  /// causally-extensible chain are clamped to CC first (SI/SER cannot
  /// drive ValidWrites), identically on both sides of the cross-check.
  bool DiffMixedSemantics = true;
  /// Serialize every checked history to a jsonl trace, re-parse it and
  /// stream it through StreamingChecker at each StreamingWindows budget,
  /// diffing the verdict against the full-history production verdict
  /// (which a CheckerMutation weakens — so the mutation smoke also has
  /// streaming teeth). Stale-read refusals are legitimate under a small
  /// budget and skip the comparison; malformed rejections of a
  /// round-tripped trace always count as disagreements.
  bool DiffStreaming = true;
  /// Re-run each in-budget base with --dedup=symmetry (sub-multiset plus
  /// per-level violation-existence equality with the reference). Like
  /// CrossCheckIncremental, deliberately *not* subject to Mutation: the
  /// leg guards the dedup/reference equivalence itself.
  bool DiffDedup = true;
  /// Window budgets of the streaming leg (0 = never evict).
  std::vector<unsigned> StreamingWindows = {0, 4, 8};
  /// At most this many explorer outputs per program case go through the
  /// streaming leg (direct history cases always do). Serializing and
  /// re-streaming all 256 outputs of a large case at every budget would
  /// dominate the minimizer, which re-runs the oracle per shrink
  /// candidate. 0 = unlimited.
  unsigned MaxStreamedHistoriesPerCase = 4;
  /// Worker threads of the parallel leg (<= 1 skips it).
  unsigned Threads = 2;
  /// A base level whose output set exceeds this is skipped (its explorer
  /// diff would be unaffordable); when the CC set itself is oversized,
  /// the star-filter and per-history checks are skipped with it.
  /// 0 = unlimited.
  uint64_t MaxHistoriesPerCase = 256;
  /// Histories with more transactions than this skip the brute-force
  /// cross-check (the reference enumerates commit orders).
  unsigned MaxBruteForceTxns = 9;
  /// Test-only axiom weakening of the production side.
  CheckerMutation Mutation = CheckerMutation::None;
};

/// Stateless differential oracle over one configuration.
class DifferentialOracle {
public:
  explicit DifferentialOracle(OracleConfig Config)
      : Config(std::move(Config)) {}

  const OracleConfig &config() const { return Config; }

  /// Cross-checks every implementation pair on \p P. A non-empty
  /// \p SessionLevels (a generated per-session isolation-level mix)
  /// narrows the sweep to the levels it names.
  std::vector<Disagreement>
  checkProgram(const Program &P,
               const std::vector<IsolationLevel> &SessionLevels = {}) const;

  /// Cross-checks the consistency checkers and witness machinery on one
  /// history.
  std::vector<Disagreement> checkHistory(const History &H) const;

private:
  /// \p Stream gates the streaming leg for this history (checkProgram
  /// caps how many outputs per case pay for it).
  void checkOneHistory(const History &H,
                       const std::vector<IsolationLevel> &Levels,
                       std::vector<Disagreement> &Out,
                       bool Stream = true) const;
  void checkMixedSemantics(const Program &P,
                           const std::vector<IsolationLevel> &SessionLevels,
                           std::vector<Disagreement> &Out) const;

  OracleConfig Config;
};

} // namespace fuzz
} // namespace txdpor

#endif // TXDPOR_FUZZ_DIFFERENTIALORACLE_H

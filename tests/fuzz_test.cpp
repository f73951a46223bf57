//===- tests/fuzz_test.cpp - The differential fuzzing subsystem -----------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for src/fuzz/: generator determinism and wrapper equivalence,
/// litmus program/repro round-tripping, the delta-debugging minimizer,
/// oracle cleanliness on the unmodified checkers, and the mutation-smoke
/// property — with a deliberately weakened saturation axiom the fuzzer
/// must find a disagreement and shrink it to a tiny repro within a
/// bounded seed budget.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "consistency/ConsistencyChecker.h"
#include "core/Enumerate.h"
#include "fuzz/Minimizer.h"
#include "TestUtil.h"
#include <gtest/gtest.h>

#include <set>

using namespace txdpor;
using namespace txdpor::fuzz;

namespace {

/// Reads and writes across all transactions (the "operations" of a
/// repro-size bound; begin/commit/abort markers do not count).
unsigned countOps(const History &H) {
  unsigned Ops = 0;
  for (unsigned I = 1; I != H.numTxns(); ++I) {
    const TransactionLog &Log = H.txn(I);
    for (uint32_t P = 0, E = static_cast<uint32_t>(Log.size()); P != E; ++P)
      if (Log.event(P).isRead() || Log.event(P).isWrite())
        ++Ops;
  }
  return Ops;
}

unsigned countSessions(const History &H) {
  std::set<uint32_t> Sessions;
  for (unsigned I = 1; I != H.numTxns(); ++I)
    Sessions.insert(H.txn(I).uid().Session);
  return static_cast<unsigned>(Sessions.size());
}

std::set<std::string> keySet(const std::vector<History> &Hs) {
  std::set<std::string> Keys;
  for (const History &H : Hs)
    Keys.insert(H.canonicalKey());
  return Keys;
}

} // namespace

//===----------------------------------------------------------------------===//
// Generator
//===----------------------------------------------------------------------===//

TEST(FuzzGeneratorTest, DeterministicAcrossRuns) {
  ProgramShape Shape;
  Rng A(99), B(99);
  for (unsigned I = 0; I != 10; ++I)
    EXPECT_EQ(generateProgram(A, Shape).str(),
              generateProgram(B, Shape).str());
}

TEST(FuzzGeneratorTest, LegacyWrappersAreDrawCompatible) {
  // tests/TestUtil.h forwards to the fuzz generator; a seed must produce
  // the identical program/history through either entry point, so seeded
  // tests written against the old test-local generators keep their
  // shapes.
  test::RandomProgramSpec Spec;
  ProgramShape Shape; // Field-for-field the same defaults.
  Rng A(7), B(7);
  for (unsigned I = 0; I != 8; ++I)
    EXPECT_EQ(test::makeRandomProgram(A, Spec).str(),
              generateProgram(B, Shape).str());

  test::RandomHistorySpec HSpec;
  HistoryShape HShape;
  Rng C(7), D(7);
  for (unsigned I = 0; I != 8; ++I)
    EXPECT_EQ(test::makeRandomHistory(C, HSpec).canonicalKey(),
              generateHistory(D, HShape).canonicalKey());
}

TEST(FuzzGeneratorTest, DisabledKnobsDrawNoRandomness) {
  // The new shape knobs must consume randomness only when enabled, or
  // every pre-existing seed expectation silently changes.
  ProgramShape Plain;
  ProgramShape WithDisabledKnobs;
  WithDisabledKnobs.SqlTxnPercent = 0;
  WithDisabledKnobs.LevelMixPercent = 0;
  Rng A(31), B(31);
  for (unsigned I = 0; I != 8; ++I) {
    EXPECT_EQ(generateProgram(A, Plain).str(),
              generateCase(B, WithDisabledKnobs).Prog.str());
  }
  // And the streams are still aligned afterwards.
  EXPECT_EQ(A.next(), B.next());
}

TEST(FuzzGeneratorTest, SqlShapeEmitsTableAccesses) {
  std::optional<ProgramShape> Shape = programShapeByName("sql");
  ASSERT_TRUE(Shape.has_value());
  Rng R(5);
  Program P = generateProgram(R, *Shape);
  // The table declares its presence-set variable up front...
  ASSERT_TRUE(P.findVar("t.set").has_value());
  // ...and some generated transaction must actually access it.
  bool SawAccess = false;
  for (unsigned I = 0; I != 10 && !SawAccess; ++I) {
    Program Q = generateProgram(R, *Shape);
    for (unsigned S = 0; S != Q.numSessions() && !SawAccess; ++S)
      for (unsigned T = 0; T != Q.numTxns(S) && !SawAccess; ++T)
        for (const Instr &In : Q.txn({S, T}).body())
          if ((In.Kind == InstrKind::Read || In.Kind == InstrKind::Write) &&
              In.Var == *Q.findVar("t.set")) {
            SawAccess = true;
            break;
          }
  }
  EXPECT_TRUE(SawAccess) << "sql shape never touched the table";
}

TEST(FuzzGeneratorTest, MixedShapeSamplesSessionLevels) {
  std::optional<ProgramShape> Shape = programShapeByName("mixed");
  ASSERT_TRUE(Shape.has_value());
  Rng R(5);
  GeneratedCase Case = generateCase(R, *Shape);
  EXPECT_EQ(Case.SessionLevels.size(), Shape->NumSessions);
}

TEST(FuzzGeneratorTest, AllShapePresetsResolve) {
  for (const std::string &Name : programShapeNames())
    EXPECT_TRUE(programShapeByName(Name).has_value()) << Name;
  EXPECT_FALSE(programShapeByName("no-such-shape").has_value());
}

//===----------------------------------------------------------------------===//
// Litmus program / repro round trips
//===----------------------------------------------------------------------===//

TEST(FuzzReproTest, ProgramTextRoundTripsSemantically) {
  // write → parse → write must reach a fixpoint, and the parsed program
  // must have the same exploration behaviour (canonical CC output set).
  for (const char *ShapeName : {"default", "deep", "sql"}) {
    std::optional<ProgramShape> Shape = programShapeByName(ShapeName);
    ASSERT_TRUE(Shape.has_value());
    Rng R(11);
    for (unsigned I = 0; I != 5; ++I) {
      Program P = generateProgram(R, *Shape);
      std::string Text = writeProgramText(P);
      std::string Error;
      std::optional<Program> Parsed = parseProgramText(Text, &Error);
      ASSERT_TRUE(Parsed.has_value()) << Error << '\n' << Text;
      EXPECT_EQ(writeProgramText(*Parsed), Text);

      auto Cfg =
          ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency);
      EXPECT_EQ(keySet(enumerateHistories(P, Cfg).Histories),
                keySet(enumerateHistories(*Parsed, Cfg).Histories))
          << "parsed program explores differently\n" << Text;
    }
  }
}

TEST(FuzzReproTest, ParseRejectsMalformedPrograms) {
  std::string Error;
  EXPECT_FALSE(parseProgramText("txn\n  read a x0\n", &Error));
  EXPECT_FALSE(parseProgramText("vars x0\nsession 0\n  read a x0\n"));
  EXPECT_FALSE(
      parseProgramText("vars x0\nsession 0\ntxn\n  read a nosuch\n"));
  EXPECT_FALSE(parseProgramText(
      "vars x0\nsession 0\ntxn\n  write x0 (bogus 1)\n"));
  // Malformed numbers must produce a diagnostic, not an exception
  // (repros are hand-edited in bug reports).
  EXPECT_FALSE(parseProgramText(
      "vars x0\nsession 0\ntxn\n  write x0 (const abc)\n", &Error));
  EXPECT_NE(Error.find("const"), std::string::npos);
  EXPECT_FALSE(parseProgramText("vars x0\nsession x\ntxn\n"));
  EXPECT_FALSE(parseRepro("kind duplicate-output\nseed zzz\n"));
  EXPECT_FALSE(
      parseRepro("kind duplicate-output\nseed 99999999999999999999999\n"));
}

TEST(FuzzReproTest, ReproRoundTrips) {
  Rng R(3);
  GeneratedCase Case = generateCase(R, ProgramShape());
  HistoryShape HShape;
  History H = generateHistory(R, HShape);

  Repro Out;
  Out.Seed = 77;
  Out.CaseIndex = 12;
  Out.Kind = Disagreement::Kind::CheckerVerdictMismatch;
  Out.Level = IsolationLevel::SnapshotIsolation;
  Out.ProductionVerdict = true;
  Out.ReferenceVerdict = false;
  Out.Detail = "production says consistent, reference says inconsistent";
  Out.SessionLevels = {IsolationLevel::CausalConsistency,
                       IsolationLevel::Serializability};
  Out.Prog = Case.Prog;
  Out.Hist = H;

  std::string Text = writeRepro(Out);
  std::string Error;
  std::optional<Repro> In = parseRepro(Text, &Error);
  ASSERT_TRUE(In.has_value()) << Error << '\n' << Text;
  EXPECT_EQ(In->Seed, Out.Seed);
  EXPECT_EQ(In->CaseIndex, Out.CaseIndex);
  EXPECT_EQ(In->Kind, Out.Kind);
  EXPECT_EQ(In->Level, Out.Level);
  EXPECT_EQ(In->ProductionVerdict, Out.ProductionVerdict);
  EXPECT_EQ(In->ReferenceVerdict, Out.ReferenceVerdict);
  EXPECT_EQ(In->Detail, Out.Detail);
  EXPECT_EQ(In->SessionLevels, Out.SessionLevels);
  ASSERT_TRUE(In->Prog.has_value());
  EXPECT_EQ(writeProgramText(*In->Prog), writeProgramText(*Out.Prog));
  ASSERT_TRUE(In->Hist.has_value());
  EXPECT_TRUE(In->Hist->sameHistory(H));
  // Full-file fixpoint.
  EXPECT_EQ(writeRepro(*In), Text);
}

//===----------------------------------------------------------------------===//
// Minimizer
//===----------------------------------------------------------------------===//

TEST(FuzzMinimizerTest, ProgramShrinksToPredicateCore) {
  // Three sessions; the predicate only needs one write to x1. The
  // minimizer must drop the other sessions, the irrelevant instructions
  // and the guard, and collapse the value expression.
  ProgramBuilder B;
  VarId X0 = B.var("x0");
  VarId X1 = B.var("x1");
  auto T0 = B.beginTxn(0);
  T0.read("a", X0);
  T0.write(X1, T0.local("a") + 3, eq(T0.local("a"), 0));
  T0.write(X0, 7);
  auto T1 = B.beginTxn(1);
  T1.write(X0, 1);
  auto T2 = B.beginTxn(2);
  T2.read("b", X1);
  Program P = B.build();

  auto WritesX1 = [X1](const Program &C) {
    for (unsigned S = 0; S != C.numSessions(); ++S)
      for (unsigned T = 0; T != C.numTxns(S); ++T)
        for (const Instr &I : C.txn({S, T}).body())
          if (I.Kind == InstrKind::Write && I.Var == X1)
            return true;
    return false;
  };
  ASSERT_TRUE(WritesX1(P));
  Program Core = minimizeProgram(P, WritesX1);
  EXPECT_EQ(Core.numSessions(), 1u);
  EXPECT_EQ(Core.numTxns(0), 1u);
  const Transaction &Txn = Core.txn({0, 0});
  ASSERT_EQ(Txn.body().size(), 1u);
  const Instr &I = Txn.body().front();
  EXPECT_EQ(I.Kind, InstrKind::Write);
  EXPECT_EQ(I.Var, X1);
  EXPECT_FALSE(I.Guard.valid()) << "guard should have been stripped";
  EXPECT_EQ(I.Rhs.Node->kind(), ExprKind::Const)
      << "read-dependent value should have collapsed to a constant";
}

TEST(FuzzMinimizerTest, HistoryShrinkDropsBystanders) {
  HistoryShape Shape;
  Shape.NumSessions = 3;
  Shape.TxnsPerSession = 2;
  Rng R(17);
  History H = generateHistory(R, Shape);
  unsigned Target = H.numTxns() > 2 ? 2u : 1u;
  TxnUid Keep = H.txn(Target).uid();
  History Core = minimizeHistory(
      H, [&](const History &C) { return C.contains(Keep); });
  EXPECT_TRUE(Core.contains(Keep));
  EXPECT_LT(Core.numTxns(), H.numTxns());
  Core.checkWellFormed();
}

//===----------------------------------------------------------------------===//
// Oracle + fuzz loop
//===----------------------------------------------------------------------===//

TEST(FuzzOracleTest, CleanOnUnmodifiedCheckers) {
  // A quick in-suite slice of the 100k clean run the CI nightly repeats
  // at scale: no disagreement between any explorer pair or checker pair.
  FuzzOptions Options;
  Options.Seed = 20260726;
  Options.Iterations = 120;
  FuzzReport Report = runFuzz(Options);
  EXPECT_EQ(Report.Cases, 120u);
  EXPECT_EQ(Report.DisagreeingCases, 0u);
  EXPECT_TRUE(Report.Repros.empty());
}

TEST(FuzzOracleTest, SqlAndMixedShapesStayClean) {
  for (const char *Shape : {"sql", "mixed"}) {
    FuzzOptions Options;
    Options.Seed = 4;
    Options.Iterations = 40;
    Options.ShapeName = Shape;
    Options.HistoryCasePercent = 25;
    FuzzReport Report = runFuzz(Options);
    EXPECT_EQ(Report.DisagreeingCases, 0u) << Shape;
  }
}

TEST(FuzzOracleTest, DeterministicReports) {
  FuzzOptions Options;
  Options.Seed = 1;
  Options.Iterations = 300;
  Options.Mutation = CheckerMutation::WeakCausalPremise;
  FuzzReport A = runFuzz(Options);
  FuzzReport B = runFuzz(Options);
  EXPECT_GT(A.DisagreeingCases, 0u);
  EXPECT_EQ(A.DisagreeingCases, B.DisagreeingCases);
  ASSERT_EQ(A.Repros.size(), B.Repros.size());
  for (size_t I = 0; I != A.Repros.size(); ++I)
    EXPECT_EQ(writeRepro(A.Repros[I]), writeRepro(B.Repros[I]));
}

TEST(FuzzOracleTest, MonotonicityLegFlagsStrongerAcceptingWhatWeakerRejects) {
  // Fabricated verdicts: SER accepts what SI rejects, which no pair of
  // correct checkers can produce (every serializable history is SI).
  const History H = History::makeInitial(1);
  using L = IsolationLevel;
  std::optional<Disagreement> D = checkLevelMonotonicity(
      H, {{L::ReadCommitted, true},
          {L::CausalConsistency, true},
          {L::SnapshotIsolation, false},
          {L::Serializability, true}});
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->K, Disagreement::Kind::LevelMonotonicityViolation);
  EXPECT_EQ(D->Level, L::Serializability);
  EXPECT_EQ(D->Detail, "SER accepts but the weaker SI rejects");
  ASSERT_TRUE(D->Culprit.has_value());
  EXPECT_TRUE(D->Culprit->sameHistory(H));
  EXPECT_STREQ(disagreementKindName(D->K), "level-monotonicity-violation");
  EXPECT_EQ(disagreementKindByName("level-monotonicity-violation"), D->K);

  // Accepted sets shrinking along the chain are fine, in any order.
  EXPECT_FALSE(checkLevelMonotonicity(H, {{L::Serializability, false},
                                          {L::ReadCommitted, true},
                                          {L::SnapshotIsolation, false},
                                          {L::CausalConsistency, true}}));
  EXPECT_FALSE(checkLevelMonotonicity(
      H, {{L::ReadAtomic, false}, {L::Serializability, false}}));
}

TEST(FuzzMutationSmokeTest, WeakenedCausalAxiomIsCaughtAndShrunk) {
  // The acceptance property: with the CC saturation axiom weakened to
  // RA's premise, a fixed-seed run finds the injected bug and emits a
  // minimized repro of at most 3 sessions / 6 operations — well inside
  // the 10k-iteration budget.
  FuzzOptions Options;
  Options.Seed = 1;
  Options.Iterations = 10000;
  Options.MaxDisagreements = 12;
  Options.Mutation = CheckerMutation::WeakCausalPremise;
  FuzzReport Report = runFuzz(Options);
  ASSERT_GT(Report.DisagreeingCases, 0u)
      << "the fuzzer missed the injected CC weakening";

  bool SawTinyRepro = false;
  for (const Repro &R : Report.Repros) {
    ASSERT_TRUE(R.Hist.has_value());
    EXPECT_EQ(R.Kind, Disagreement::Kind::CheckerVerdictMismatch);
    EXPECT_EQ(R.Level, IsolationLevel::CausalConsistency);
    // Every reported disagreement must be real: the mutated side accepts
    // the history, the reference rejects it.
    EXPECT_TRUE(mutatedIsConsistent(*R.Hist, R.Level,
                                    CheckerMutation::WeakCausalPremise));
    EXPECT_FALSE(isConsistent(*R.Hist, R.Level));
    if (countSessions(*R.Hist) <= 3 && countOps(*R.Hist) <= 6)
      SawTinyRepro = true;
  }
  EXPECT_TRUE(SawTinyRepro)
      << "no repro shrank to <= 3 sessions / <= 6 operations";
}

TEST(FuzzStreamingSmokeTest, WeakenedCausalAxiomIsCaughtThroughStreamingLeg) {
  // The streaming leg alone must have teeth: with every other
  // mutation-sensitive (and expensive) oracle leg switched off, the
  // windowed StreamingChecker — fed each history serialized to a trace
  // and re-parsed — is the only implementation left that can notice the
  // weakened CC axiom, and the finding must still shrink to a litmus
  // repro through the streaming-only predicate.
  FuzzOptions Options;
  Options.Seed = 1;
  Options.Iterations = 10000;
  Options.MaxDisagreements = 4;
  Options.Mutation = CheckerMutation::WeakCausalPremise;
  Options.Oracle.CrossCheckVerdicts = false;
  Options.Oracle.ValidateWitnesses = false;
  Options.Oracle.DiffStarFilters = false;
  Options.Oracle.DiffExplorers = false;
  Options.Oracle.DiffMixedSemantics = false;
  Options.Oracle.CrossCheckIncremental = false;
  FuzzReport Report = runFuzz(Options);
  ASSERT_GT(Report.DisagreeingCases, 0u)
      << "the streaming leg missed the injected CC weakening";

  bool SawTinyRepro = false;
  for (const Repro &R : Report.Repros) {
    EXPECT_EQ(R.Kind, Disagreement::Kind::StreamingVerdictMismatch);
    EXPECT_EQ(R.Level, IsolationLevel::CausalConsistency);
    ASSERT_TRUE(R.Hist.has_value());
    // Real disagreement: the mutated full-history side accepts, the
    // exact streaming side (= the true verdict) rejects.
    EXPECT_TRUE(mutatedIsConsistent(*R.Hist, R.Level,
                                    CheckerMutation::WeakCausalPremise));
    EXPECT_FALSE(isConsistent(*R.Hist, R.Level));
    if (countSessions(*R.Hist) <= 3 && countOps(*R.Hist) <= 8)
      SawTinyRepro = true;
  }
  EXPECT_TRUE(SawTinyRepro)
      << "no streaming repro shrank to <= 3 sessions / <= 8 operations";
}

TEST(FuzzMutationSmokeTest, WeakenedAtomicVisibilityIsCaught) {
  FuzzOptions Options;
  Options.Seed = 2;
  Options.Iterations = 10000;
  Options.MaxDisagreements = 3;
  Options.Mutation = CheckerMutation::WeakAtomicVisibility;
  FuzzReport Report = runFuzz(Options);
  ASSERT_GT(Report.DisagreeingCases, 0u)
      << "the fuzzer missed the injected RA weakening";
  for (const Repro &R : Report.Repros) {
    ASSERT_TRUE(R.Hist.has_value());
    EXPECT_EQ(R.Level, IsolationLevel::ReadAtomic);
    EXPECT_FALSE(isConsistent(*R.Hist, R.Level));
  }
}

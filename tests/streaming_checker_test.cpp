//===- tests/streaming_checker_test.cpp - Windowed online checking --------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming trace checker against the golden corpus in
/// tests/traces/ — exact verdict pins per (file, assignment, window),
/// eviction and peak-window accounting, Explain stability across window
/// budgets — plus a randomized streaming-vs-full-history equivalence
/// property over generated traces.
///
//===----------------------------------------------------------------------===//

#include "consistency/StreamingChecker.h"

#include "consistency/ConsistencyChecker.h"
#include "consistency/Explain.h"
#include "trace_io/TraceGen.h"
#include "trace_io/TraceReader.h"
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace txdpor;

namespace {

std::string corpusPath(const std::string &Name) {
  return std::string(TXDPOR_SOURCE_DIR) + "/tests/traces/" + Name;
}

/// Outcome of streaming one whole trace file.
struct RunResult {
  StreamStatus Status = StreamStatus::Ok;
  StreamingStats Stats;
  std::string Diag;
  TxnUid AnomalyUid = TxnUid::init();
  /// Explain over the final window (meaningful after an Anomaly under a
  /// uniform assignment).
  std::string ExplainText;
};

/// Streams \p In to the end (or the first non-Ok status). A non-null
/// \p Base overrides the header assignment, as the CLI's --base does.
RunResult streamAll(std::istream &In, std::optional<IsolationLevel> Base,
                    unsigned Window) {
  trace_io::TraceReader Reader(In);
  EXPECT_TRUE(Reader.valid()) << Reader.error();

  StreamingOptions Opts;
  if (Base)
    Opts.Levels = LevelAssignment::uniform(*Base);
  else if (Reader.header().Levels)
    Opts.Levels = *Reader.header().Levels;
  else
    Opts.Levels = LevelAssignment::uniform(IsolationLevel::CausalConsistency);
  Opts.NumVars = Reader.header().NumVars;
  Opts.NumSessions = Reader.header().NumSessions;
  Opts.WindowBudget = Window;
  StreamingChecker Checker(Opts);

  RunResult R;
  TransactionLog Log{TxnUid::init()};
  for (;;) {
    trace_io::TraceReader::Next N = Reader.next(Log);
    if (N == trace_io::TraceReader::Next::End)
      break;
    EXPECT_NE(N, trace_io::TraceReader::Next::Error) << Reader.error();
    if (N == trace_io::TraceReader::Next::Error ||
        Checker.append(Log, &R.Diag) != StreamStatus::Ok)
      break;
  }
  R.Status = Checker.status();
  R.Stats = Checker.stats();
  R.AnomalyUid = Checker.anomalyTxn();
  if (R.Status == StreamStatus::Anomaly && !Opts.Levels.hasExplicit()) {
    ViolationExplanation E =
        explainViolation(Checker.window(), Opts.Levels.defaultLevel());
    if (!E.Consistent)
      R.ExplainText = E.Text;
  }
  return R;
}

RunResult streamFile(const std::string &Name,
                     std::optional<IsolationLevel> Base, unsigned Window) {
  std::ifstream In(corpusPath(Name));
  EXPECT_TRUE(In.is_open()) << "missing corpus file " << Name;
  return streamAll(In, Base, Window);
}

} // namespace

//===----------------------------------------------------------------------===//
// Golden corpus verdicts
//===----------------------------------------------------------------------===//

TEST(StreamingCorpusTest, GoldenVerdicts) {
  using L = IsolationLevel;
  struct Pin {
    const char *File;
    std::optional<L> Base;
    unsigned Window;
    StreamStatus Expected;
  };
  const Pin Pins[] = {
      // Clean traces stay clean at every level and budget.
      {"clean_tiny.litmus", L::CausalConsistency, 0, StreamStatus::Ok},
      {"clean_tiny.litmus", L::ReadCommitted, 2, StreamStatus::Ok},
      {"aborted.jsonl", L::CausalConsistency, 8, StreamStatus::Ok},
      // Read skew closes a commit-order cycle already at RC.
      {"read_skew_rc.litmus", L::ReadCommitted, 0, StreamStatus::Anomaly},
      {"read_skew_rc.litmus", L::CausalConsistency, 0, StreamStatus::Anomaly},
      // Two-hop causality violation: CC-only.
      {"causality_cc.litmus", L::CausalConsistency, 0, StreamStatus::Anomaly},
      {"causality_cc.litmus", L::ReadAtomic, 0, StreamStatus::Ok},
      {"causality_cc.litmus", L::ReadCommitted, 0, StreamStatus::Ok},
      // Fractured read: RA-only (the init read precedes the fracture).
      {"fractured_ra.litmus", L::ReadAtomic, 0, StreamStatus::Anomaly},
      {"fractured_ra.litmus", L::CausalConsistency, 0, StreamStatus::Anomaly},
      {"fractured_ra.litmus", L::ReadCommitted, 0, StreamStatus::Ok},
      // SI/SER-class anomalies that the causally-extensible chain admits.
      {"lost_update.litmus", L::CausalConsistency, 0, StreamStatus::Ok},
      {"write_skew.litmus", L::CausalConsistency, 0, StreamStatus::Ok},
      // The generated long anomaly fires at RC even under a small budget.
      {"anomaly_long.jsonl", L::ReadCommitted, 16, StreamStatus::Anomaly},
  };
  for (const Pin &P : Pins) {
    RunResult R = streamFile(P.File, P.Base, P.Window);
    EXPECT_EQ(R.Status, P.Expected)
        << P.File << " base " << (P.Base ? isolationLevelName(*P.Base) : "-")
        << " window " << P.Window << ": " << R.Diag;
  }
}

TEST(StreamingCorpusTest, MixedHeaderAssignment) {
  // The header pins S1=CC over an RC default; only that makes the trace
  // anomalous. A uniform RC override admits it.
  RunResult Mixed = streamFile("mixed_rc_cc.litmus", std::nullopt, 0);
  EXPECT_EQ(Mixed.Status, StreamStatus::Anomaly) << Mixed.Diag;
  EXPECT_EQ(Mixed.AnomalyUid, (TxnUid{1, 0}));
  RunResult Uniform =
      streamFile("mixed_rc_cc.litmus", IsolationLevel::ReadCommitted, 0);
  EXPECT_EQ(Uniform.Status, StreamStatus::Ok) << Uniform.Diag;
}

TEST(StreamingCorpusTest, StaleReadRefusesOnlyUnderSmallWindow) {
  // Unbounded: consistent. Window 4: t0.0's superseded version leaves
  // the window before t2.0 reads it, and the checker refuses rather
  // than guessing — the third verdict of the streaming contract.
  RunResult Full = streamFile("stale_read.litmus",
                              IsolationLevel::CausalConsistency, 0);
  EXPECT_EQ(Full.Status, StreamStatus::Ok) << Full.Diag;
  EXPECT_EQ(Full.Stats.Evicted, 0u);
  RunResult Windowed = streamFile("stale_read.litmus",
                                  IsolationLevel::CausalConsistency, 4);
  EXPECT_EQ(Windowed.Status, StreamStatus::StaleRead) << Windowed.Diag;
  EXPECT_GT(Windowed.Stats.Evicted, 0u);
  EXPECT_NE(Windowed.Diag.find("t0.0"), std::string::npos)
      << "the refusal must name the evicted writer: " << Windowed.Diag;
}

TEST(StreamingCorpusTest, LongRunEvictionAccounting) {
  // 667 transactions through a 16-budget window: the fixpoint drains all
  // but the live frontier, and the peak stays within the hysteresis
  // allowance (2x budget for this friendly reads-latest trace).
  RunResult R =
      streamFile("long_run.jsonl", IsolationLevel::CausalConsistency, 16);
  EXPECT_EQ(R.Status, StreamStatus::Ok) << R.Diag;
  EXPECT_EQ(R.Stats.Txns, 667u);
  EXPECT_EQ(R.Stats.Events, 4002u);
  EXPECT_EQ(R.Stats.Evicted, 655u);
  EXPECT_LE(R.Stats.PeakWindow, 32u);
  EXPECT_GT(R.Stats.GcPasses, 0u);
}

TEST(StreamingCorpusTest, AnomalyExplainStableAcrossWindows) {
  // The same injected read skew must be reported at the same transaction
  // with a standalone Explain witness, whether or not the prefix was
  // garbage-collected on the way there.
  RunResult Full =
      streamFile("anomaly_long.jsonl", IsolationLevel::ReadCommitted, 0);
  RunResult Windowed =
      streamFile("anomaly_long.jsonl", IsolationLevel::ReadCommitted, 16);
  ASSERT_EQ(Full.Status, StreamStatus::Anomaly);
  ASSERT_EQ(Windowed.Status, StreamStatus::Anomaly);
  EXPECT_EQ(Full.AnomalyUid, Windowed.AnomalyUid);
  EXPECT_EQ(Full.Stats.Txns, Windowed.Stats.Txns);
  ASSERT_FALSE(Full.ExplainText.empty());
  ASSERT_FALSE(Windowed.ExplainText.empty());
  // Both witnesses derive a cycle through the anomalous transaction.
  std::string Uid = Windowed.AnomalyUid.str();
  EXPECT_NE(Full.ExplainText.find(Uid), std::string::npos);
  EXPECT_NE(Windowed.ExplainText.find(Uid), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Bounded-window and equivalence properties
//===----------------------------------------------------------------------===//

namespace {

/// Replays generated transactions both into a trace-shaped vector and a
/// full History for the reference verdict.
struct GeneratedTrace {
  std::vector<TransactionLog> Txns;
  trace_io::TraceHeader Header;
  History Full = History::makeInitial(0);
};

GeneratedTrace generate(const trace_io::GenConfig &C) {
  GeneratedTrace G;
  G.Header = trace_io::generateTrace(
      C, [&](const TransactionLog &Log) { G.Txns.push_back(Log); });
  G.Full = History::makeInitial(G.Header.NumVars);
  for (const TransactionLog &Log : G.Txns) {
    unsigned Idx = G.Full.beginTxn(Log.uid());
    for (uint32_t P = 1, E = static_cast<uint32_t>(Log.size()); P != E; ++P) {
      G.Full.appendEvent(Idx, Log.event(P));
      if (std::optional<TxnUid> W = Log.writerOf(P))
        G.Full.setWriter(Idx,
                         static_cast<uint32_t>(G.Full.txn(Idx).size()) - 1,
                         *W);
    }
  }
  return G;
}

StreamStatus streamTxns(const GeneratedTrace &G, IsolationLevel Level,
                        unsigned Window, StreamingStats *StatsOut = nullptr) {
  StreamingOptions Opts;
  Opts.Levels = LevelAssignment::uniform(Level);
  Opts.NumVars = G.Header.NumVars;
  Opts.NumSessions = G.Header.NumSessions;
  Opts.WindowBudget = Window;
  StreamingChecker Checker(Opts);
  std::string Diag;
  for (const TransactionLog &Log : G.Txns)
    if (Checker.append(Log, &Diag) != StreamStatus::Ok)
      break;
  if (StatsOut)
    *StatsOut = Checker.stats();
  return Checker.status();
}

} // namespace

TEST(StreamingEquivalenceTest, MatchesFullHistoryOnGeneratedTraces) {
  // The streaming contract, sampled: at every budget the verdict is the
  // full-history verdict or an explicit StaleRead refusal — and at
  // budget 0 (never evict) it is always the full-history verdict.
  const IsolationLevel Levels[] = {IsolationLevel::ReadCommitted,
                                   IsolationLevel::ReadAtomic,
                                   IsolationLevel::CausalConsistency};
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    trace_io::GenConfig C;
    C.Seed = Seed;
    C.Sessions = 3;
    C.Vars = 4;
    C.Events = 400;
    C.AbortPercent = 10;
    if (Seed % 3 == 0)
      C.AnomalyAtTxn = 20 + Seed;
    GeneratedTrace G = generate(C);
    for (IsolationLevel Level : Levels) {
      bool Expected = isConsistent(G.Full, Level);
      for (unsigned Window : {0u, 4u, 16u}) {
        StreamStatus S = streamTxns(G, Level, Window);
        if (Window == 0) {
          ASSERT_NE(S, StreamStatus::StaleRead)
              << "seed " << Seed << ": refusal without eviction";
        }
        if (S == StreamStatus::StaleRead)
          continue;
        ASSERT_NE(S, StreamStatus::Malformed) << "seed " << Seed;
        EXPECT_EQ(S == StreamStatus::Ok, Expected)
            << "seed " << Seed << " level " << isolationLevelName(Level)
            << " window " << Window;
      }
    }
  }
}

TEST(StreamingEquivalenceTest, InjectedAnomalyIsDefiniteAtEveryBudget) {
  // The generator's adjacency guarantee: the three-transaction read skew
  // stays inside the young-generation exemption, so even tiny budgets
  // report the definite anomaly, never a refusal.
  trace_io::GenConfig C;
  C.Seed = 9;
  C.Sessions = 4;
  C.Vars = 6;
  C.Events = 1500;
  C.AnomalyAtTxn = 120;
  GeneratedTrace G = generate(C);
  ASSERT_FALSE(isConsistent(G.Full, IsolationLevel::ReadCommitted));
  for (unsigned Window : {0u, 4u, 8u, 64u})
    EXPECT_EQ(streamTxns(G, IsolationLevel::ReadCommitted, Window),
              StreamStatus::Anomaly)
        << "window " << Window;
}

TEST(StreamingWindowTest, PeakWindowBoundedByBudget) {
  // The acceptance criterion of the subsystem: on a reads-latest trace
  // the live window never exceeds the configured budget by more than the
  // hysteresis allowance, however long the trace runs.
  trace_io::GenConfig C;
  C.Seed = 3;
  C.Sessions = 4;
  C.Vars = 8;
  C.Events = 30000;
  GeneratedTrace G = generate(C);
  StreamingStats Stats;
  ASSERT_EQ(streamTxns(G, IsolationLevel::CausalConsistency, 32, &Stats),
            StreamStatus::Ok);
  EXPECT_LE(Stats.PeakWindow, 64u);
  EXPECT_GT(Stats.Evicted, Stats.Txns / 2);
  EXPECT_GT(Stats.Txns, 4000u);
}

//===- perfbench/src/Harness.cpp - Benchmark-of-record harness ------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "apps/Applications.h"
#include "consistency/ConsistencyChecker.h"
#include "consistency/StreamingChecker.h"
#include "core/Engine.h"
#include "core/Explorer.h"
#include "history/Serialize.h"
#include "parallel/ParallelExplorer.h"
#include "support/Json.h"
#include "support/MemoryProbe.h"
#include "trace_io/TraceGen.h"
#include "trace_io/TraceReader.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <type_traits>

using namespace txdpor;
using namespace txdpor::trace_io;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/// Per-operation wall-clock budget; an operation that hits it reports
/// TimedOut and its counts miss the reference.
constexpr int64_t OpBudgetMs = 60000;
/// Explore set-up samples per pass; the stream takes one per pass, since
/// its set-up writes a 1M-event trace.
constexpr unsigned SetupSamplesPerPass = 5;
/// An explore set-up sample repeats the set-up back to back until it lasts
/// this long, so that no sample is a handful of clock reads.
constexpr double MinSetupSampleS = 0.004;
/// Programs faster than this run back to back within a pass until one
/// timed operation's samples add up to it, so short programs get enough
/// samples for a steady median.
constexpr double MinOpSeconds = 0.005;
/// Measured passes every run makes after its warm-up, whatever --seconds.
constexpr unsigned MinPasses = 3;
/// Window budget of the stream checks.
constexpr unsigned StreamWindow = 128;
/// Size of the stream-w128 trace (TraceGen stops at the first transaction
/// boundary past it).
constexpr uint64_t StreamEvents = 1000000;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double clockSeconds(clockid_t Id) {
  timespec TS{};
  clock_gettime(Id, &TS);
  return static_cast<double>(TS.tv_sec) + TS.tv_nsec * 1e-9;
}

/// CPU time of the calling thread. Every single-threaded operation is
/// timed on it: the wall clock also counts the time the thread waited for
/// a CPU (preemption, a virtual machine's steal time), and on a shared
/// host that share swings by tens of percent from minute to minute.
double threadCpuSeconds() { return clockSeconds(CLOCK_THREAD_CPUTIME_ID); }

/// CPU time of every thread of the process.
double processCpuSeconds() { return clockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double wallSeconds() { return clockSeconds(CLOCK_MONOTONIC); }

/// Whether a run that started at \p Start makes another pass: always
/// until MinPasses, then only while one more pass as long as the longest
/// so far still ends within \p BudgetS.
bool anotherPass(Clock::time_point Start, unsigned Done, double LongestS,
                 double BudgetS) {
  return Done < MinPasses || secondsSince(Start) + LongestS <= BudgetS;
}

/// Starts a new resident-set high-water mark (Linux: VmHWM drops to the
/// current RSS), so each pass's peak is measured on its own.
void resetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// The high-water mark since the last resetPeakRss(), in MiB; the process
/// lifetime peak where /proc is unavailable.
double passPeakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return peakRssKb() / 1024.0;
}

/// Hands the heap's free pages back to the system, so that the set-up
/// samples' explorers, freed by now, do not raise the passes' resident
/// set.
void releaseFreedMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

//===----------------------------------------------------------------------===//
// Workload definitions
//===----------------------------------------------------------------------===//

struct ProgramSpec {
  std::string Name;
  AppKind App;
  ClientSpec Client;

  Program make() const { return makeClientProgram(App, Client); }
};

ProgramSpec programSpec(AppKind App, unsigned Sessions, unsigned Txns,
                        uint64_t Seed) {
  ClientSpec C;
  C.Sessions = Sessions;
  C.TxnsPerSession = Txns;
  C.Seed = Seed;
  std::string Name = std::string(appName(App)) + "-s" + std::to_string(Seed);
  if (Sessions != 3 || Txns != 3)
    Name += "-" + std::to_string(Sessions) + "x" + std::to_string(Txns);
  return {Name, App, C};
}

/// An exploration workload: programs explored one after another under one
/// configuration, through Explorer or (Parallel) ParallelExplorer.
struct ExploreWorkload {
  std::vector<ProgramSpec> Programs;
  ExplorerConfig Config;
  bool Parallel = false;
};

/// The paper's Fig. 14 roster: 5 applications x client seeds 1-40, 3x3.
std::vector<ProgramSpec> paperRoster() {
  std::vector<ProgramSpec> R;
  for (AppKind App : PaperApps)
    for (uint64_t Seed = 1; Seed <= 40; ++Seed)
      R.push_back(programSpec(App, 3, 3, Seed));
  return R;
}

const IsolationLevel CC = IsolationLevel::CausalConsistency;

bool exploreWorkload(const std::string &Name, ExploreWorkload &W) {
  if (Name == "roster-cc") {
    W.Programs = paperRoster();
    W.Config = ExplorerConfig::exploreCE(CC);
  } else if (Name == "roster-si") {
    W.Programs = paperRoster();
    W.Config =
        ExplorerConfig::exploreCEStar(CC, IsolationLevel::SnapshotIsolation);
  } else if (Name == "identical-sym") {
    W.Programs = {programSpec(AppKind::IdenticalSessions, 3, 3, 9)};
    W.Config = ExplorerConfig::exploreCE(CC);
    W.Config.Dedup = DedupMode::Symmetry;
  } else if (Name == "courseware-2t") {
    W.Programs = {programSpec(AppKind::Courseware, 4, 4, 1)};
    W.Config = ExplorerConfig::exploreCE(CC);
    W.Config.Threads = 2;
    W.Parallel = true;
  } else {
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Timed operations
//===----------------------------------------------------------------------===//

struct TimedRun {
  ExplorerStats Stats;
  /// The operation's time: the calling thread's CPU time for Explorer,
  /// wall time for ParallelExplorer, whose workers are threads of its own.
  double Seconds = 0;
  double CpuSeconds = 0; ///< CPU time of every thread.
};

template <typename ExplorerT>
TimedRun timeExplorer(const Program &Prog, ExplorerConfig Config) {
  constexpr bool Threaded = std::is_same_v<ExplorerT, ParallelExplorer>;
  Config.TimeBudget = Deadline::afterMillis(OpBudgetMs);
  ExplorerT E(Prog, std::move(Config));
  TimedRun R;
  double Cpu0 = processCpuSeconds();
  double T0 = Threaded ? wallSeconds() : threadCpuSeconds();
  R.Stats = E.run();
  R.Seconds = (Threaded ? wallSeconds() : threadCpuSeconds()) - T0;
  R.CpuSeconds = processCpuSeconds() - Cpu0;
  return R;
}

TimedRun timeExplore(const Program &Prog, const ExplorerConfig &Config,
                     bool Parallel) {
  return Parallel ? timeExplorer<ParallelExplorer>(Prog, Config)
                  : timeExplorer<Explorer>(Prog, Config);
}

/// CPU seconds of one construction of every program's explorer, measured
/// over \p Batch back-to-back constructions; the explorers are destroyed
/// after the clock stops, since destruction is not set-up.
template <typename ExplorerT>
double timeConstructionOf(const std::vector<Program> &Progs,
                          const ExplorerConfig &Config, unsigned Batch) {
  std::vector<std::unique_ptr<ExplorerT>> Made;
  Made.reserve(Batch * Progs.size());
  double T0 = threadCpuSeconds();
  for (unsigned K = 0; K != Batch; ++K)
    for (const Program &P : Progs)
      Made.push_back(std::make_unique<ExplorerT>(P, Config));
  return (threadCpuSeconds() - T0) / Batch;
}

OpRecord exploreOp(const std::string &Name, const ExplorerStats &S) {
  return {Name,
          {{"outputs", S.Outputs},
           {"end_states", S.EndStates},
           {"calls", S.ExploreCalls},
           {"events", S.EventsAdded},
           {"dedup_skips", S.DedupSkips}},
          S.TimedOut};
}

bool sameCounts(const ExplorerStats &A, const ExplorerStats &B) {
  return A.Outputs == B.Outputs && A.EndStates == B.EndStates &&
         A.ExploreCalls == B.ExploreCalls && A.EventsAdded == B.EventsAdded &&
         A.DedupSkips == B.DedupSkips;
}

/// The pass whose time is the median (nearest rank, as percentile()) of
/// \p Passes' times. On this kind of shared host a pass's time has a long
/// tail both ways, and the median of a run's passes repeats across runs
/// more closely than the fastest pass does.
template <typename T, typename TimeOf>
const T &medianPass(const std::vector<T> &Passes, TimeOf Time) {
  std::vector<size_t> Idx(Passes.size());
  std::iota(Idx.begin(), Idx.end(), 0);
  std::sort(Idx.begin(), Idx.end(), [&](size_t A, size_t B) {
    return Time(Passes[A]) < Time(Passes[B]);
  });
  return Passes[Idx[(Passes.size() + 1) / 2 - 1]];
}

/// Every timed sample of one operation, kept compact so the harness's own
/// memory does not grow with the number of passes.
struct OpSamples {
  ExplorerStats First; ///< The first sample's statistics.
  ExplorerStats Sum;   ///< merge() of every sample's statistics.
  std::vector<std::pair<double, double>> Times; ///< (wall, CPU) seconds.
  bool Stable = true;  ///< Every sample agreed with First on counts.

  void add(const TimedRun &R) {
    if (Times.empty())
      First = R.Stats;
    else if (!sameCounts(First, R.Stats))
      Stable = false;
    Sum.merge(R.Stats);
    Times.emplace_back(R.Seconds, R.CpuSeconds);
  }
  /// The median sample's (wall, CPU) seconds.
  std::pair<double, double> median() const {
    return medianPass(Times, [](const std::pair<double, double> &T) {
      return T.first;
    });
  }
};

/// A run's samples of the workload's whole set-up, in CPU seconds. Every
/// pass adds some, so that they see the host in the same states as the
/// passes do; the metrics are their medians.
struct SetupSamples {
  std::vector<double> Total;
  std::vector<double> Gen;  ///< Input generation (programs; the trace).
  std::vector<double> Ctor; ///< Explorer / reader + checker construction.

  void add(double G, double C) {
    Total.push_back(G + C);
    Gen.push_back(G);
    Ctor.push_back(C);
  }
};

/// CPU seconds of one generation of every program, measured over \p Batch
/// back-to-back generations.
double timeGeneration(const ExploreWorkload &W, unsigned Batch) {
  std::vector<Program> Made;
  Made.reserve(Batch * W.Programs.size());
  double T0 = threadCpuSeconds();
  for (unsigned K = 0; K != Batch; ++K)
    for (const ProgramSpec &PS : W.Programs)
      Made.push_back(PS.make());
  return (threadCpuSeconds() - T0) / Batch;
}

double timeConstruction(const ExploreWorkload &W,
                        const std::vector<Program> &Progs, unsigned Batch) {
  return W.Parallel
             ? timeConstructionOf<ParallelExplorer>(Progs, W.Config, Batch)
             : timeConstructionOf<Explorer>(Progs, W.Config, Batch);
}

/// The number of back-to-back set-ups that makes one set-up sample last
/// MinSetupSampleS.
unsigned setupBatch(const ExploreWorkload &W,
                    const std::vector<Program> &Progs) {
  double Once = timeGeneration(W, 1) + timeConstruction(W, Progs, 1);
  return static_cast<unsigned>(std::clamp(
      std::ceil(MinSetupSampleS / std::max(Once, 1e-7)), 1.0, 10000.0));
}

/// Adds SetupSamplesPerPass samples of makeClientProgram plus explorer
/// construction, summed over the programs.
void sampleExploreSetup(const ExploreWorkload &W,
                        const std::vector<Program> &Progs, unsigned Batch,
                        SetupSamples &S) {
  for (unsigned K = 0; K != SetupSamplesPerPass; ++K) {
    double G = timeGeneration(W, Batch);
    S.add(G, timeConstruction(W, Progs, Batch));
  }
  releaseFreedMemory();
}

//===----------------------------------------------------------------------===//
// Streams
//===----------------------------------------------------------------------===//

/// Where a traced stream pass's time went.
struct StreamProfile {
  double WallS = 0;
  double CpuS = 0; ///< The pass's thread CPU time.
  double ParseS = 0;
  double AppendS = 0;
  std::vector<double> ParseUs;
  std::vector<double> GcAppendUs; ///< Appends during which GcPasses grew.
  uint64_t GcPasses = 0;
  uint64_t Evicted = 0;
  unsigned PeakWindow = 0;
};

struct StreamRun {
  StreamStatus Status = StreamStatus::Ok;
  StreamingStats Stats;
  std::string Error;
  /// 0-based index of the transaction whose append was not Ok.
  uint64_t StopIndex = 0;
  TxnUid AnomalyUid = TxnUid::init();
  double Seconds = 0; ///< Untraced: thread CPU time; traced: wall time.
  double TxnP50S = 0;
  double TxnP999S = 0;
};

StreamingOptions streamOptions(const TraceHeader &H) {
  StreamingOptions O;
  O.Levels = LevelAssignment::uniform(CC);
  O.NumVars = H.NumVars;
  O.NumSessions = H.NumSessions;
  O.WindowBudget = StreamWindow;
  return O;
}

/// Checks one trace through TraceReader::next + StreamingChecker::append.
/// Reader and checker construction are set-up and stay outside Seconds.
/// \p TxnS, when given, receives every transaction's next+append time;
/// \p Prof, when given, splits every transaction into its parse and append
/// halves. A profiled pass reads the wall clock, which costs a tenth of
/// the CPU clock's system call; any other pass reads the thread's CPU
/// clock.
StreamRun streamOnce(std::istream &In, std::vector<double> *TxnS,
                     StreamProfile *Prof) {
  StreamRun R;
  TraceReader Reader(In);
  if (!Reader.valid()) {
    R.Status = StreamStatus::Malformed;
    R.Error = Reader.error();
    return R;
  }
  StreamingChecker Checker(streamOptions(Reader.header()));
  TransactionLog Log(TxnUid::init());
  double (*Now)() = Prof ? wallSeconds : threadCpuSeconds;
  const double Start = Now();
  double T0 = Start;
  for (uint64_t K = 0;; ++K) {
    if (Prof)
      T0 = Now(); // Leaves the profile's own bookkeeping out.
    TraceReader::Next N = Reader.next(Log);
    if (N == TraceReader::Next::End)
      break;
    if (N == TraceReader::Next::Error) {
      R.Status = StreamStatus::Malformed;
      R.Error = Reader.error();
      R.StopIndex = K;
      break;
    }
    double T1 = Prof ? Now() : T0;
    uint64_t GcBefore = Checker.stats().GcPasses;
    StreamStatus S = Checker.append(Log, &R.Error);
    double T2 = Now();
    if (TxnS)
      TxnS->push_back(T2 - T0);
    if (Prof) {
      double Parse = T1 - T0;
      double Append = T2 - T1;
      Prof->ParseS += Parse;
      Prof->AppendS += Append;
      Prof->ParseUs.push_back(Parse * 1e6);
      if (Checker.stats().GcPasses != GcBefore)
        Prof->GcAppendUs.push_back(Append * 1e6);
    }
    if (S != StreamStatus::Ok) {
      R.Status = S;
      R.StopIndex = K;
      R.AnomalyUid = Checker.anomalyTxn();
      break;
    }
    T0 = T2;
  }
  R.Seconds = Now() - Start;
  R.Stats = Checker.stats();
  if (Prof) {
    Prof->WallS += R.Seconds;
    Prof->GcPasses += R.Stats.GcPasses;
    Prof->Evicted += R.Stats.Evicted;
    Prof->PeakWindow = std::max(Prof->PeakWindow, R.Stats.PeakWindow);
  }
  return R;
}

OpRecord streamOp(const std::string &Name, const StreamRun &R) {
  const StreamingStats &S = R.Stats;
  return {Name,
          {{"txns", S.Txns},
           {"events", S.Events},
           {"evicted", S.Evicted},
           {"gc_passes", S.GcPasses},
           {"verdict_ok", R.Status == StreamStatus::Ok ? 1u : 0u}},
          false};
}

bool sameCounts(const StreamRun &A, const StreamRun &B) {
  return A.Status == B.Status && A.Stats.Txns == B.Stats.Txns &&
         A.Stats.Events == B.Stats.Events &&
         A.Stats.Evicted == B.Stats.Evicted &&
         A.Stats.GcPasses == B.Stats.GcPasses;
}

/// Writes \p G's trace as jsonl to \p OS, returning the record uids in
/// commit order.
std::vector<TxnUid> writeGeneratedTrace(const GenConfig &G, std::ostream &OS) {
  std::vector<TxnUid> Uids;
  TraceHeader H;
  H.NumVars = G.Vars;
  H.NumSessions = G.Sessions;
  OS << writeTraceHeader(H, TraceFormat::Jsonl);
  generateTrace(G, [&](const TransactionLog &Log) {
    Uids.push_back(Log.uid());
    OS << writeTraceTxn(Log, TraceFormat::Jsonl);
  });
  return Uids;
}

//===----------------------------------------------------------------------===//
// Pre-flight checks, run by every invocation
//===----------------------------------------------------------------------===//

/// Known-answer stream check: a generated trace with an injected read skew
/// must stop with Anomaly at the skew's reader, and the same trace without
/// it must end Ok. Its figures feed no metric.
void knownAnswerStream(uint64_t Seed, RunResult &R) {
  GenConfig G;
  G.Seed = 100 + Seed;
  G.Events = 20000;
  for (bool Inject : {true, false}) {
    G.AnomalyAtTxn = Inject ? 200 + Seed % 800 : 0;
    std::stringstream SS;
    std::vector<TxnUid> Uids = writeGeneratedTrace(G, SS);
    StreamRun Run = streamOnce(SS, nullptr, nullptr);
    CheckRecord C;
    if (Inject) {
      // The skew occupies generated transactions AnomalyAtTxn..+2
      // (1-based); its reader is the last of the three.
      uint64_t Reader = G.AnomalyAtTxn + 1;
      C.Name = "stream-known-anomaly";
      C.Ok = Run.Status == StreamStatus::Anomaly && Run.StopIndex == Reader &&
             Reader < Uids.size() && Run.AnomalyUid == Uids[Reader];
      C.Detail = "anomaly expected at txn " + std::to_string(Reader) +
                 ", stopped at " + std::to_string(Run.StopIndex);
    } else {
      C.Name = "stream-known-clean";
      C.Ok = Run.Status == StreamStatus::Ok && Run.Stats.Txns == Uids.size();
      C.Detail = std::to_string(Run.Stats.Txns) + " of " +
                 std::to_string(Uids.size()) + " txns Ok";
    }
    if (!C.Ok && !Run.Error.empty())
      C.Detail += ": " + Run.Error;
    R.Checks.push_back(std::move(C));
  }
}

/// Traced-walk order check: on a seed-chosen 2x3 client of a paper app
/// under explore-ce*(CC, SI), the benchmark-side walk must emit exactly
/// Explorer's outputs in Explorer's order. Two sessions keep the check
/// cheap for every seed. Its figures feed no metric.
void walkOrderCheck(uint64_t Seed, RunResult &R) {
  ProgramSpec PS = programSpec(PaperApps[Seed % PaperApps.size()], 2, 3,
                               1 + Seed % 40);
  Program P = PS.make();
  ExplorerConfig Config =
      ExplorerConfig::exploreCEStar(CC, IsolationLevel::SnapshotIsolation);
  std::vector<std::string> Expected, Got;
  Explorer E(P, Config);
  ExplorerStats S =
      E.run([&](const History &H) { Expected.push_back(writeHistory(H)); });
  WalkProfile W = tracedWalk(
      P, Config, [&](const History &H) { Got.push_back(writeHistory(H)); });
  CheckRecord C;
  C.Name = "walk-order";
  C.Ok = Got == Expected && sameCounts(S, W.Stats);
  C.Detail = PS.Name + ": " + std::to_string(Got.size()) + " walk outputs, " +
             std::to_string(Expected.size()) + " Explorer outputs";
  R.Checks.push_back(std::move(C));
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

/// The end-to-end metrics every workload reports; events_per_s is derived
/// by run.py from wall_s and the pinned event count.
void addEndToEnd(RunResult &R, const std::vector<double> &VerdictS,
                 double TxnP50S, double TxnP999S, double WallS,
                 const std::vector<double> &PeakMb, double SetupS) {
  auto M = [&](const char *Name, double V) { R.Metrics.emplace_back(Name, V); };
  M("wall_s", WallS);
  M("verdict_p50_ms", percentile(VerdictS, 50) * 1e3);
  M("verdict_p95_ms", percentile(VerdictS, 95) * 1e3);
  M("txn_p50_us", TxnP50S * 1e6);
  M("txn_p999_us", TxnP999S * 1e6);
  M("peak_rss_mb", median(PeakMb));
  M("setup_s", SetupS);
}

struct ParallelInfo {
  double FrontierItems = 0;
  double StealSuccesses = 0;
  double StealFailures = 0;
  double IdleParks = 0;
  double BusyRatio = 0;
  double Speedup = 0;
};

/// Everything the per-layer metrics are computed from. A layer the
/// workload does not run keeps its zeros.
struct LayerInputs {
  WalkProfile Walk;    ///< Walks with the workload's dedup setting.
  WalkProfile WalkOff; ///< The same walks with dedup off.
  bool HasOffWalk = false;
  StreamProfile Stream;
  ParallelInfo Par;
  SetupSamples Setup;
  double TracedCpuS = 0;   ///< The traced walks / passes, CPU time.
  double UntracedCpuS = 0; ///< Their untraced counterparts, CPU time.
  double TracedWallS = 0;  ///< The traced walks / passes, wall time.
  double TimedCallsS = 0;  ///< The layer calls timed within them.
};

void addPerLayer(RunResult &R, const LayerInputs &L) {
  auto M = [&](const char *Name, double V) { R.Metrics.emplace_back(Name, V); };
  const WalkProfile &W = L.Walk;
  const ExplorerStats &S = W.Stats;
  auto UsPerCall = [](const WalkProfile &P) {
    return ratio(P.expandS() * 1e6, P.Stats.ExploreCalls);
  };
  M("engine.calls", S.ExploreCalls);
  M("engine.us_per_call", UsPerCall(W));
  M("engine.checks", S.ConsistencyChecks);
  M("engine.read_s", W.ReadS);
  M("engine.commit_s", W.CommitS);
  M("engine.end_state_s", W.EndStateS);
  M("engine.other_s", W.OtherS);
  M("swap.considered", S.SwapsConsidered);
  M("swap.applied", S.SwapsApplied);
  M("swap.apply_ratio", ratio(S.SwapsApplied, S.SwapsConsidered));
  const bool Filtered = !W.FilterUs.empty();
  M("filter.calls", W.FilterUs.size());
  M("filter.s", W.FilterS);
  M("filter.us_p50", percentile(W.FilterUs, 50));
  M("filter.us_p99", percentile(W.FilterUs, 99));
  M("filter.accept_ratio", Filtered ? ratio(W.Outputs, S.EndStates) : 0);
  M("filter.share", ratio(W.FilterS, W.WallS));
  const WalkProfile &Off = L.WalkOff;
  const bool Dedup = L.HasOffWalk;
  M("dedup.probes", S.DedupChecks);
  M("dedup.skips", S.DedupSkips);
  M("dedup.skip_ratio", ratio(S.DedupSkips, S.DedupChecks));
  M("dedup.us_per_call_on", Dedup ? UsPerCall(W) : 0);
  M("dedup.us_per_call_off", Dedup ? UsPerCall(Off) : 0);
  M("dedup.call_reduction",
    Dedup ? 1 - ratio(S.ExploreCalls, Off.Stats.ExploreCalls) : 0);
  M("parallel.frontier_items", L.Par.FrontierItems);
  M("parallel.steal_successes", L.Par.StealSuccesses);
  M("parallel.steal_fail_ratio",
    ratio(L.Par.StealFailures, L.Par.StealFailures + L.Par.StealSuccesses));
  M("parallel.idle_parks", L.Par.IdleParks);
  M("parallel.busy_ratio", L.Par.BusyRatio);
  M("parallel.speedup", L.Par.Speedup);
  const StreamProfile &SP = L.Stream;
  M("stream.parse_s", SP.ParseS);
  M("stream.parse_us_p50", percentile(SP.ParseUs, 50));
  M("stream.append_s", SP.AppendS);
  M("stream.gc_append_us_p50", percentile(SP.GcAppendUs, 50));
  M("stream.gc_append_us_p99", percentile(SP.GcAppendUs, 99));
  M("stream.gc_passes", SP.GcPasses);
  M("stream.evicted", SP.Evicted);
  M("stream.peak_window", SP.PeakWindow);
  M("apps.gen_s", median(L.Setup.Gen));
  M("engine.ctor_s", median(L.Setup.Ctor));
  M("trace.overhead", ratio(L.TracedCpuS, L.UntracedCpuS));
  M("trace.coverage", ratio(L.TimedCallsS, L.TracedWallS));
}

//===----------------------------------------------------------------------===//
// Workload drivers
//===----------------------------------------------------------------------===//

void runExplore(const ExploreWorkload &W, const RunOptions &Opts,
                RunResult &R) {
  std::vector<Program> Progs;
  for (const ProgramSpec &PS : W.Programs)
    Progs.push_back(PS.make());
  const size_t N = Progs.size();
  ExplorerConfig One = W.Config;
  One.Threads = 1;

  if (Opts.Record) {
    for (size_t I = 0; I != N; ++I)
      R.Ops.push_back(exploreOp(
          W.Programs[I].Name, timeExplore(Progs[I], W.Config, W.Parallel).Stats));
    if (W.Parallel)
      for (size_t I = 0; I != N; ++I)
        R.Ops.push_back(exploreOp(W.Programs[I].Name + "-1t",
                                  timeExplore(Progs[I], One, true).Stats));
    R.Passes = 1;
    return;
  }

  LayerInputs L;
  walkOrderCheck(Opts.Seed, R);
  knownAnswerStream(Opts.Seed, R);
  const unsigned SetupBatch = setupBatch(W, Progs);

  const bool OffWalk = Opts.Trace && W.Config.Dedup != DedupMode::Off;
  std::vector<OpSamples> Untraced(N), SingleThread(N);
  std::vector<std::vector<WalkProfile>> Traced(N), TracedOff(N);
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  std::mt19937_64 Rng(Opts.Seed);

  // Warm-up pass: fills caches and sizes each program's repetitions so
  // that one timed operation lasts at least MinOpSeconds; its times are
  // not kept.
  const Clock::time_point Start = Clock::now();
  std::vector<unsigned> Reps(N, 1);
  for (size_t I = 0; I != N; ++I) {
    double S = timeExplore(Progs[I], W.Config, W.Parallel).Seconds;
    Reps[I] = static_cast<unsigned>(
        std::clamp(std::ceil(MinOpSeconds / std::max(S, 1e-6)), 1.0, 100.0));
  }

  double LongestS = 0;
  std::vector<double> PeakMb;
  do {
    const Clock::time_point PassStart = Clock::now();
    resetPeakRss();
    std::shuffle(Order.begin(), Order.end(), Rng);
    for (size_t I : Order)
      for (unsigned K = 0; K != Reps[I]; ++K)
        Untraced[I].add(timeExplore(Progs[I], W.Config, W.Parallel));
    PeakMb.push_back(passPeakRssMb());
    sampleExploreSetup(W, Progs, SetupBatch, L.Setup);
    if (Opts.Trace) {
      for (size_t I : Order) {
        ExplorerConfig C = W.Config;
        C.TimeBudget = Deadline::afterMillis(OpBudgetMs);
        Traced[I].push_back(tracedWalk(Progs[I], C));
        if (OffWalk) {
          C.Dedup = DedupMode::Off;
          TracedOff[I].push_back(tracedWalk(Progs[I], C));
        }
        if (W.Parallel)
          SingleThread[I].add(timeExplore(Progs[I], One, true));
      }
    }
    ++R.Passes;
    LongestS = std::max(LongestS, secondsSince(PassStart));
  } while (anotherPass(Start, R.Passes, LongestS, Opts.Seconds));

  std::vector<double> VerdictS;
  double TotalS = 0, CpuS = 0;
  for (size_t I = 0; I != N; ++I) {
    auto [Time, Cpu] = Untraced[I].median();
    R.Ops.push_back(exploreOp(W.Programs[I].Name, Untraced[I].First));
    VerdictS.push_back(Time);
    TotalS += Time;
    CpuS += Cpu;
    if (!Untraced[I].Stable)
      R.Checks.push_back({"stable-counts", false,
                          W.Programs[I].Name + " counts differ across passes"});
  }

  if (!Opts.Trace) {
    addEndToEnd(R, VerdictS, percentile(VerdictS, 50),
                percentile(VerdictS, 99.9), TotalS, PeakMb,
                median(L.Setup.Total));
    return;
  }

  auto CpuOf = [](const WalkProfile &P) { return P.CpuS; };
  for (size_t I = 0; I != N; ++I) {
    // Traced-run self-check: the benchmark-side walk must reproduce the
    // untraced run's outputs, end states and explore calls.
    const ExplorerStats &U = Untraced[I].First;
    const WalkProfile &TW = medianPass(Traced[I], CpuOf);
    const ExplorerStats &T = TW.Stats;
    bool Ok = T.Outputs == U.Outputs && T.EndStates == U.EndStates &&
              T.ExploreCalls == U.ExploreCalls;
    R.Checks.push_back({"traced-walk-counts", Ok,
                        W.Programs[I].Name + ": walk " +
                            std::to_string(T.Outputs) + "/" +
                            std::to_string(T.EndStates) + "/" +
                            std::to_string(T.ExploreCalls) + ", run " +
                            std::to_string(U.Outputs) + "/" +
                            std::to_string(U.EndStates) + "/" +
                            std::to_string(U.ExploreCalls)});
    L.TracedCpuS += TW.CpuS;
    L.TracedWallS += TW.WallS;
    L.TimedCallsS += TW.expandS() + TW.FilterS;
    L.Walk.add(TW);
    if (OffWalk)
      L.WalkOff.add(medianPass(TracedOff[I], CpuOf));
  }
  L.HasOffWalk = OffWalk;
  L.UntracedCpuS = CpuS;
  if (W.Parallel) {
    double OneS = 0, OneCpuS = 0;
    for (size_t I = 0; I != N; ++I) {
      // Per-run means: steal and park counts vary from run to run.
      const ExplorerStats &P = Untraced[I].Sum;
      const double Runs = Untraced[I].Times.size();
      L.Par.FrontierItems += P.FrontierItems / Runs;
      L.Par.StealSuccesses += P.StealSuccesses / Runs;
      L.Par.StealFailures += P.StealFailures / Runs;
      L.Par.IdleParks += P.IdleParks / Runs;
      auto [Time, Cpu] = SingleThread[I].median();
      OneS += Time;
      OneCpuS += Cpu;
      R.Ops.push_back(exploreOp(W.Programs[I].Name + "-1t",
                                SingleThread[I].First));
    }
    L.Par.BusyRatio = ratio(CpuS, W.Config.Threads * TotalS);
    L.Par.Speedup = ratio(OneS, TotalS);
    // The traced walk is single-threaded: compare it with the 1-thread run.
    L.UntracedCpuS = OneCpuS;
  }
  addPerLayer(R, L);
}

void runStream(const RunOptions &Opts, RunResult &R) {
  // The input: a TraceGen-default trace written to a file before any
  // timing, so reading it measures TraceReader and the text never sits in
  // memory. Writing it is part of the set-up.
  const std::string Path = Opts.DataDir + "/stream-w128.jsonl";
  auto WriteInput = [&] {
    GenConfig G;
    G.Events = StreamEvents;
    std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
    writeGeneratedTrace(G, OS);
    OS.close();
    if (!OS)
      throw std::runtime_error("cannot write " + Path);
  };

  if (Opts.Record) {
    WriteInput();
    std::ifstream In(Path, std::ios::binary);
    R.Ops.push_back(streamOp("stream-w128", streamOnce(In, nullptr, nullptr)));
    R.Passes = 1;
    return;
  }

  LayerInputs L;
  walkOrderCheck(Opts.Seed, R);
  knownAnswerStream(Opts.Seed, R);

  // A set-up sample writes the trace, opens it, parses its header and
  // constructs the checker. The last sample's file is the input.
  auto SampleSetup = [&] {
    double T0 = threadCpuSeconds();
    WriteInput();
    double T1 = threadCpuSeconds();
    std::ifstream In(Path, std::ios::binary);
    TraceReader Reader(In);
    if (!Reader.valid())
      throw std::runtime_error(Path + ": " + Reader.error());
    StreamingChecker Checker(streamOptions(Reader.header()));
    L.Setup.add(T1 - T0, threadCpuSeconds() - T1);
  };
  SampleSetup();

  std::vector<StreamRun> Runs;
  std::vector<StreamProfile> Traced;
  std::vector<double> TxnS; // Reused, so the sample buffer's size is fixed.
  const Clock::time_point Start = Clock::now();
  {
    // Warm-up pass, not kept.
    std::ifstream In(Path, std::ios::binary);
    streamOnce(In, &TxnS, nullptr);
  }
  double LongestS = 0;
  std::vector<double> PeakMb;
  do {
    const Clock::time_point PassStart = Clock::now();
    {
      resetPeakRss();
      std::ifstream In(Path, std::ios::binary);
      TxnS.clear();
      StreamRun Run = streamOnce(In, &TxnS, nullptr);
      Run.TxnP50S = percentile(TxnS, 50);
      Run.TxnP999S = percentile(TxnS, 99.9);
      Runs.push_back(std::move(Run));
      PeakMb.push_back(passPeakRssMb());
    }
    SampleSetup();
    if (Opts.Trace) {
      std::ifstream In(Path, std::ios::binary);
      StreamProfile P;
      double Cpu0 = threadCpuSeconds();
      streamOnce(In, nullptr, &P);
      P.CpuS = threadCpuSeconds() - Cpu0;
      Traced.push_back(std::move(P));
    }
    ++R.Passes;
    LongestS = std::max(LongestS, secondsSince(PassStart));
  } while (anotherPass(Start, R.Passes, LongestS, Opts.Seconds));

  const StreamRun &M =
      medianPass(Runs, [](const StreamRun &Run) { return Run.Seconds; });
  R.Ops.push_back(streamOp("stream-w128", M));
  if (!std::all_of(Runs.begin(), Runs.end(), [&](const StreamRun &Run) {
        return sameCounts(Run, Runs.front());
      }))
    R.Checks.push_back(
        {"stable-counts", false, "stream counts differ across passes"});
  if (!Opts.Trace) {
    std::vector<double> P50, P999;
    for (const StreamRun &Run : Runs) {
      P50.push_back(Run.TxnP50S);
      P999.push_back(Run.TxnP999S);
    }
    addEndToEnd(R, {M.Seconds}, median(P50), median(P999), M.Seconds, PeakMb,
                median(L.Setup.Total));
    return;
  }
  const StreamProfile &TP =
      medianPass(Traced, [](const StreamProfile &P) { return P.CpuS; });
  L.Stream = TP;
  L.TracedCpuS = TP.CpuS;
  L.TracedWallS = TP.WallS;
  L.TimedCallsS = TP.ParseS + TP.AppendS;
  L.UntracedCpuS = M.Seconds;
  addPerLayer(R, L);
}

void writeString(std::ostream &OS, const std::string &S) {
  OS << '"' << JsonWriter::escape(S) << '"';
}

/// Metrics are printed with every digit they have: JsonWriter::value
/// rounds doubles to 6 significant digits, and a rounded time can repeat
/// exactly across runs.
void writeNumber(std::ostream &OS, double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  OS << Buf;
}

} // namespace

double perfbench::percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0;
  double Rank = std::ceil(P / 100.0 * Samples.size());
  size_t K = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  K = std::min(K, Samples.size() - 1);
  std::nth_element(Samples.begin(), Samples.begin() + K, Samples.end());
  return Samples[K];
}

void WalkProfile::add(const WalkProfile &O) {
  WallS += O.WallS;
  CpuS += O.CpuS;
  ReadS += O.ReadS;
  CommitS += O.CommitS;
  EndStateS += O.EndStateS;
  OtherS += O.OtherS;
  FilterS += O.FilterS;
  FilterUs.insert(FilterUs.end(), O.FilterUs.begin(), O.FilterUs.end());
  Outputs += O.Outputs;
  Stats.merge(O.Stats);
}

WalkProfile perfbench::tracedWalk(const Program &Prog,
                                  const ExplorerConfig &Config,
                                  const HistoryVisitor &OnOutput) {
  ExplorerConfig EngineConfig = Config;
  EngineConfig.FilterLevel.reset();
  const ConsistencyChecker *Filter =
      Config.FilterLevel ? &checkerFor(*Config.FilterLevel) : nullptr;
  ExplorationEngine Engine(Prog, EngineConfig);

  WalkProfile P;
  ExplorationSink S;
  S.TimeBudget = Config.TimeBudget;
  // Without a filter the engine hands every end state to the visitor;
  // the Valid filter runs here, timed apart from the engine.
  double CallFilterS = 0;
  S.Visit = [&](const History &H) {
    bool Valid = true;
    if (Filter) {
      Clock::time_point T0 = Clock::now();
      Valid = Filter->isConsistent(H);
      double D = secondsSince(T0);
      CallFilterS += D;
      P.FilterUs.push_back(D * 1e6);
    }
    if (Valid) {
      ++P.Outputs;
      if (OnOutput)
        OnOutput(H);
    }
  };

  // drainDepthFirst's loop, with every expandItem call timed and classed
  // by the counter it moved.
  Clock::time_point WalkStart = Clock::now();
  const double CpuStart = threadCpuSeconds();
  std::vector<WorkItem> Stack;
  std::vector<WorkItem> Children;
  Stack.push_back(Engine.initialItem());
  while (!Stack.empty()) {
    if (Engine.shouldStop(S))
      break;
    WorkItem Item = std::move(Stack.back());
    Stack.pop_back();
    Children.clear();
    const uint64_t Ends = S.Stats.EndStates, Reads = S.Stats.ReadBranches,
                   Swaps = S.Stats.SwapsConsidered;
    CallFilterS = 0;
    Clock::time_point T0 = Clock::now();
    Engine.expandItem(std::move(Item), Children, S);
    double D = secondsSince(T0) - CallFilterS;
    if (S.Stats.EndStates != Ends)
      P.EndStateS += D;
    else if (S.Stats.ReadBranches != Reads)
      P.ReadS += D;
    else if (S.Stats.SwapsConsidered != Swaps)
      P.CommitS += D;
    else
      P.OtherS += D;
    P.FilterS += CallFilterS;
    for (size_t I = Children.size(); I-- > 0;)
      Stack.push_back(std::move(Children[I]));
  }
  P.WallS = secondsSince(WalkStart);
  P.CpuS = threadCpuSeconds() - CpuStart;
  P.Stats = S.Stats;
  // Match what Explorer::run reports with the filter inside the engine.
  P.Stats.Outputs = P.Outputs;
  P.Stats.ConsistencyChecks += P.FilterUs.size();
  return P;
}

RunResult perfbench::runWorkload(const RunOptions &Opts) {
  RunResult R;
  R.Workload = Opts.Workload;
  ExploreWorkload W;
  if (exploreWorkload(Opts.Workload, W))
    runExplore(W, Opts, R);
  else if (Opts.Workload == "stream-w128")
    runStream(Opts, R);
  else
    throw std::invalid_argument("unknown workload '" + Opts.Workload + "'");
  return R;
}

void perfbench::writeResult(std::ostream &OS, const RunResult &R) {
  OS << "{\"workload\": ";
  writeString(OS, R.Workload);
  OS << ", \"passes\": " << R.Passes;
  OS << ", \"host\": {\"hardware_concurrency\": "
     << std::thread::hardware_concurrency() << ", \"compiler\": ";
#if defined(__clang__)
  writeString(OS, std::string("clang ") + __VERSION__);
#elif defined(__VERSION__)
  writeString(OS, std::string("gcc ") + __VERSION__);
#else
  writeString(OS, "unknown");
#endif
  OS << ", \"build_type\": ";
  writeString(OS, PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  OS << ", \"assertions\": false}";
#else
  OS << ", \"assertions\": true}";
#endif
  OS << ",\n \"ops\": [";
  for (size_t I = 0; I != R.Ops.size(); ++I) {
    const OpRecord &Op = R.Ops[I];
    OS << (I ? ",\n  " : "\n  ") << "{\"name\": ";
    writeString(OS, Op.Name);
    OS << ", \"timed_out\": " << (Op.TimedOut ? "true" : "false")
       << ", \"counts\": {";
    for (size_t J = 0; J != Op.Counts.size(); ++J) {
      OS << (J ? ", " : "");
      writeString(OS, Op.Counts[J].first);
      OS << ": " << Op.Counts[J].second;
    }
    OS << "}}";
  }
  OS << "],\n \"checks\": [";
  for (size_t I = 0; I != R.Checks.size(); ++I) {
    const CheckRecord &C = R.Checks[I];
    OS << (I ? ",\n  " : "\n  ") << "{\"name\": ";
    writeString(OS, C.Name);
    OS << ", \"ok\": " << (C.Ok ? "true" : "false") << ", \"detail\": ";
    writeString(OS, C.Detail);
    OS << "}";
  }
  OS << "],\n \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    OS << (I ? ",\n  " : "\n  ");
    writeString(OS, R.Metrics[I].first);
    OS << ": ";
    writeNumber(OS, R.Metrics[I].second);
  }
  OS << "}}\n";
}

//===- bench/BenchCommon.cpp - Shared harness for table benches -----------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Json.h"

#include <cstdlib>
#include <ctime>
#include <thread>

using namespace txdpor;
using namespace txdpor::bench;

AlgorithmSpec AlgorithmSpec::exploreCE(IsolationLevel Base) {
  AlgorithmSpec Spec;
  Spec.Name = isolationLevelName(Base);
  Spec.BaseLevel = Base;
  return Spec;
}

AlgorithmSpec AlgorithmSpec::exploreCEStar(IsolationLevel Base,
                                           IsolationLevel Filter) {
  AlgorithmSpec Spec;
  Spec.Name =
      std::string(isolationLevelName(Base)) + "+" + isolationLevelName(Filter);
  Spec.BaseLevel = Base;
  Spec.FilterLevel = Filter;
  return Spec;
}

AlgorithmSpec AlgorithmSpec::baselineDfs(IsolationLevel Level) {
  AlgorithmSpec Spec;
  Spec.Name = std::string("DFS(") + isolationLevelName(Level) + ")";
  Spec.IsBaselineDfs = true;
  Spec.BaseLevel = Level;
  return Spec;
}

std::vector<AlgorithmSpec> txdpor::bench::fig14Algorithms() {
  using IL = IsolationLevel;
  return {
      AlgorithmSpec::exploreCE(IL::CausalConsistency),
      AlgorithmSpec::exploreCEStar(IL::CausalConsistency,
                                   IL::SnapshotIsolation),
      AlgorithmSpec::exploreCEStar(IL::CausalConsistency,
                                   IL::Serializability),
      AlgorithmSpec::exploreCEStar(IL::ReadAtomic, IL::CausalConsistency),
      AlgorithmSpec::exploreCEStar(IL::ReadCommitted, IL::CausalConsistency),
      AlgorithmSpec::exploreCEStar(IL::Trivial, IL::CausalConsistency),
      AlgorithmSpec::baselineDfs(IL::CausalConsistency),
  };
}

RunResult txdpor::bench::runAlgorithm(const Program &Prog,
                                      const AlgorithmSpec &Algo,
                                      int64_t BudgetMs) {
  RunResult Result;
  ExplorerStats Stats;
  if (Algo.IsBaselineDfs) {
    NaiveDfsConfig Config;
    Config.Level = Algo.BaseLevel;
    Config.TimeBudget = Deadline::afterMillis(BudgetMs);
    Stats = naiveDfsProgram(Prog, Config);
  } else {
    ExplorerConfig Config;
    Config.BaseLevel = Algo.BaseLevel;
    Config.FilterLevel = Algo.FilterLevel;
    Config.TimeBudget = Deadline::afterMillis(BudgetMs);
    Stats = exploreProgram(Prog, Config);
  }
  Result.Stats = Stats;
  return Result;
}

static int64_t envInt(const char *Name, int64_t Default) {
  const char *Raw = std::getenv(Name);
  if (!Raw || !*Raw)
    return Default;
  return std::atoll(Raw);
}

int64_t txdpor::bench::benchBudgetMs() {
  return envInt("TXDPOR_BENCH_BUDGET_MS", 800);
}

unsigned txdpor::bench::benchClients() {
  return static_cast<unsigned>(envInt("TXDPOR_BENCH_CLIENTS", 5));
}

std::vector<NamedProgram>
txdpor::bench::makeBenchmarkPrograms(unsigned Sessions, unsigned Txns) {
  std::vector<NamedProgram> Programs;
  unsigned Clients = benchClients();
  for (AppKind App : PaperApps) {
    for (unsigned Client = 0; Client != Clients; ++Client) {
      ClientSpec Spec;
      Spec.Sessions = Sessions;
      Spec.TxnsPerSession = Txns;
      Spec.Seed = Client + 1;
      Programs.push_back(
          {clientName(App, Client), makeClientProgram(App, Spec)});
    }
  }
  return Programs;
}

std::string txdpor::bench::formatCount(uint64_t N) {
  return std::to_string(N);
}

void txdpor::bench::writeHostMetadata(JsonWriter &J) {
  J.key("host").beginObject();
  J.key("hardware_concurrency")
      .value(static_cast<uint64_t>(std::thread::hardware_concurrency()));
#if defined(__VERSION__) && defined(__clang__)
  J.key("compiler").value(std::string("clang ") + __VERSION__);
#elif defined(__VERSION__)
  J.key("compiler").value(std::string("gcc ") + __VERSION__);
#else
  J.key("compiler").value("unknown");
#endif
#ifdef TXDPOR_BUILD_TYPE
  J.key("build_type").value(TXDPOR_BUILD_TYPE);
#else
  J.key("build_type").value("unknown");
#endif
#ifdef NDEBUG
  J.key("assertions").value(false);
#else
  J.key("assertions").value(true);
#endif
  std::time_t Now = std::time(nullptr);
  char Stamp[32] = "unknown";
  if (std::tm *Utc = std::gmtime(&Now))
    std::strftime(Stamp, sizeof(Stamp), "%Y-%m-%dT%H:%M:%SZ", Utc);
  J.key("timestamp_utc").value(Stamp);
  J.endObject();
}

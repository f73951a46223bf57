//===- perfbench/src/main.cpp - Benchmark-of-record entry point -----------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///             [--record] [--data-dir DIR]
///
/// Runs one workload and writes its operation counts, self-checks,
/// metrics and host metadata to stdout as one JSON document. perfbench/
/// run.py builds this binary, checks the counts against references.json
/// and prints the benchmark's result line.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/Parse.h"

#include <iostream>
#include <stdexcept>

using namespace perfbench;

int main(int Argc, char **Argv) {
#ifndef NDEBUG
  // Debug cross-asserts re-derive every incremental result from scratch:
  // timing that build measures a different program.
  std::cerr << "perfbench: built with assertions enabled; refusing to "
               "measure (configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo)\n";
  return 2;
#endif
  RunOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--record") {
      Opts.Record = true;
      continue;
    }
    if (I + 1 >= Argc) {
      std::cerr << "perfbench: " << Arg << " needs a value\n";
      return 2;
    }
    std::string Value = Argv[++I];
    bool Ok = true;
    if (Arg == "--workload") {
      Opts.Workload = Value;
    } else if (Arg == "--seed") {
      std::optional<uint64_t> Seed = txdpor::parseUInt(Value);
      Ok = Seed.has_value();
      Opts.Seed = Seed.value_or(0);
    } else if (Arg == "--seconds") {
      std::optional<uint64_t> Seconds = txdpor::parseBoundedUInt(Value, 3600);
      Ok = Seconds && *Seconds > 0;
      Opts.Seconds = static_cast<double>(Seconds.value_or(0));
    } else if (Arg == "--trace") {
      Ok = Value == "0" || Value == "1";
      Opts.Trace = Value == "1";
    } else if (Arg == "--data-dir") {
      Opts.DataDir = Value;
    } else {
      std::cerr << "perfbench: unknown option " << Arg << '\n';
      return 2;
    }
    if (!Ok) {
      std::cerr << "perfbench: bad value '" << Value << "' for " << Arg
                << '\n';
      return 2;
    }
  }
  try {
    writeResult(std::cout, runWorkload(Opts));
  } catch (const std::exception &E) {
    std::cerr << "perfbench: " << E.what() << '\n';
    return 1;
  }
  return 0;
}

#!/usr/bin/env python3
"""txdpor's benchmark of record: builds the harness and prints one result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-references   # re-pin references.json
    python3 perfbench/run.py --write-spec          # regenerate BENCHMARK.json
    python3 perfbench/run.py --self-test           # the harness's own tests

A measuring run builds perfbench/ (and with it the library from src/) into
$CARGO_TARGET_DIR, default .bench_build, runs the C++ harness on one
workload, checks every operation's counts against references.json, prints
a readable report and, as its last stdout line, one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
SPEC = ROOT / "BENCHMARK.json"

RUN_SECONDS = 20
BUILD_JOBS = "3"

# The counts that make an operation's answer: a mismatch in any of them
# fails the operation. The other pinned counts (explore calls, events
# added, dedup skips, evictions, GC passes) record how the answer was
# reached; a legitimate optimisation may move them, so a mismatch there is
# only reported.
ANSWER_COUNTS = {
    "explore": ("outputs", "end_states"),
    "stream": ("txns", "events", "verdict_ok"),
}

WORKLOADS = [
    ("roster-cc", "Fig. 14 roster, 200 programs under explore-ce(CC), 1 "
     "thread: the engine alone, no filter, no dedup"),
    ("roster-si", "the same 200 programs under explore-ce*(CC, SI): identical "
     "exploration plus the Valid filter, where filter pruning must show"),
    ("identical-sym", "identical 3x3 with symmetry dedup: the only workload "
     "where every expand probes the dedup table"),
    ("stream-w128", "1,000,002-event trace through TraceReader and "
     "StreamingChecker at CC, window 128: parsing, the multi-word window "
     "and GC"),
    ("courseware-2t", "courseware 4x4 through ParallelExplorer at 2 threads: "
     "the only workload for the parallel driver"),
]

# (name, unit, better, bound). Every workload reports every metric;
# README.md gives each metric's definition per workload.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("verdict_p50_ms", "ms", "lower", 0.25),
    ("verdict_p95_ms", "ms", "lower", 0.25),
    ("txn_p50_us", "us", "lower", 0.25),
    ("txn_p999_us", "us", "lower", 0.25),
    ("events_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
]

# (name, unit, better)
PER_LAYER = [
    ("engine.calls", "count", "lower"),
    ("engine.us_per_call", "us", "lower"),
    ("engine.checks", "count", "lower"),
    ("engine.read_s", "s", "lower"),
    ("engine.commit_s", "s", "lower"),
    ("engine.end_state_s", "s", "lower"),
    ("engine.other_s", "s", "lower"),
    ("swap.considered", "count", "lower"),
    ("swap.applied", "count", "lower"),
    ("swap.apply_ratio", "ratio", "higher"),
    ("filter.calls", "count", "lower"),
    ("filter.s", "s", "lower"),
    ("filter.us_p50", "us", "lower"),
    ("filter.us_p99", "us", "lower"),
    ("filter.accept_ratio", "ratio", "higher"),
    ("filter.share", "ratio", "lower"),
    ("dedup.probes", "count", "lower"),
    ("dedup.skips", "count", "higher"),
    ("dedup.skip_ratio", "ratio", "higher"),
    ("dedup.us_per_call_on", "us", "lower"),
    ("dedup.us_per_call_off", "us", "lower"),
    ("dedup.call_reduction", "ratio", "higher"),
    ("parallel.frontier_items", "count", "lower"),
    ("parallel.steal_successes", "count", "higher"),
    ("parallel.steal_fail_ratio", "ratio", "lower"),
    ("parallel.idle_parks", "count", "lower"),
    ("parallel.busy_ratio", "ratio", "higher"),
    ("parallel.speedup", "ratio", "higher"),
    ("stream.parse_s", "s", "lower"),
    ("stream.parse_us_p50", "us", "lower"),
    ("stream.append_s", "s", "lower"),
    ("stream.gc_append_us_p50", "us", "lower"),
    ("stream.gc_append_us_p99", "us", "lower"),
    ("stream.gc_passes", "count", "lower"),
    ("stream.evicted", "count", "higher"),
    ("stream.peak_window", "count", "lower"),
    ("apps.gen_s", "s", "lower"),
    ("engine.ctor_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
]


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures (once) and builds perfbench/; returns the build dir."""
    if not (ROOT / "src").is_dir():
        raise BenchError(f"library sources not found at {ROOT / 'src'}")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(bdir), "-j", BUILD_JOBS]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return bdir


def harness_timeout(seconds):
    """A harness run measures for `seconds` and may overrun them by its
    set-up, its warm-up and at least three passes, each of which a traced
    run makes several times over."""
    return 120 + 2 * seconds


def run_harness(bdir, workload, extra, seconds=RUN_SECONDS):
    data = bdir / "data"
    data.mkdir(exist_ok=True)
    cmd = [str(bdir / "perfbench"), "--workload", workload,
           "--data-dir", str(data)] + extra
    timeout = harness_timeout(seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"harness exceeded {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"harness exited with {proc.returncode}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        raise BenchError(f"harness output is not JSON: {e}")


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)


def evaluate(doc, refs, trace):
    """Checks a harness document against the references and the metric
    table; returns (result object, list of problems, list of notes)."""
    wrefs = refs.get(doc["workload"], {})
    kind = "stream" if doc["workload"].startswith("stream") else "explore"
    problems = []
    notes = []
    failed = 0
    for op in doc["ops"]:
        ref = wrefs.get(op["name"])
        why = None
        if op["timed_out"]:
            why = "timed out"
        elif ref is None:
            why = "has no reference"
        else:
            diff = {k: (op["counts"].get(k), v) for k, v in ref.items()
                    if op["counts"].get(k) != v}
            answer = {k: d for k, d in diff.items()
                      if k in ANSWER_COUNTS[kind]}
            if answer:
                why = f"counts differ (got, want): {answer}"
            elif diff:
                notes.append(f"op {op['name']} work counts moved "
                             f"(got, want): {diff}")
        if why:
            failed += 1
            problems.append(f"op {op['name']} {why}")
    for check in doc["checks"]:
        if not check["ok"]:
            problems.append(f"check {check['name']} failed: {check['detail']}")

    values = dict(doc["metrics"])
    table = [row[:2] for row in (PER_LAYER if trace else END_TO_END)]
    if not trace and values.get("wall_s", 0) > 0:
        events = sum(wrefs[op["name"]]["events"] for op in doc["ops"]
                     if op["name"] in wrefs)
        values["events_per_s"] = events / values["wall_s"]
    metrics = {}
    for name, unit in table:
        if name not in values:
            problems.append(f"metric {name} missing")
            continue
        metrics[name] = {"value": values[name], "unit": unit}
    extra = set(values) - {name for name, _ in table}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    result = {
        "correct": not problems,
        "attempted": len(doc["ops"]),
        "failed": failed,
        "metrics": metrics,
    }
    return result, problems, notes


def measure(args):
    bdir = build()
    doc = run_harness(bdir, args.workload,
                      ["--seed", str(args.seed), "--seconds",
                       str(args.seconds), "--trace", str(args.trace)],
                      args.seconds)
    result, problems, notes = evaluate(doc, load_references(),
                                       args.trace == 1)
    print(f"host: {json.dumps(doc['host'])}")
    print(f"workload {doc['workload']}: {doc['passes']} passes, "
          f"{result['attempted']} ops, {result['failed']} failed, "
          f"{len(doc['checks'])} self-checks")
    for n in notes:
        print(f"note: {n}")
    for p in problems:
        print(f"PROBLEM: {p}")
    for name, m in result["metrics"].items():
        print(f"  {name:28} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))


def record_references():
    bdir = build()
    refs = {}
    for name, _ in WORKLOADS:
        print(f"recording {name}", file=sys.stderr)
        doc = run_harness(bdir, name, ["--record"])
        refs[name] = {op["name"]: op["counts"] for op in doc["ops"]
                      if not op["timed_out"]}
        if len(refs[name]) != len(doc["ops"]):
            raise BenchError(f"{name}: an operation timed out")
    for prog, cc in refs["roster-cc"].items():
        si = refs["roster-si"][prog]
        if si["outputs"] > cc["outputs"] or si["end_states"] != cc["end_states"]:
            raise BenchError(f"{prog}: roster-si does not refine roster-cc")
    cw = refs["courseware-2t"]
    for prog, counts in list(cw.items()):
        if not prog.endswith("-1t") and cw[prog + "-1t"] != counts:
            raise BenchError(f"{prog}: 1-thread and 2-thread counts differ")
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {REFERENCES}")


def write_spec():
    with open(SPEC, "w") as f:
        json.dump(spec(), f, indent=2)
        f.write("\n")
    print(f"wrote {SPEC}")


def self_test():
    bdir = build()
    if subprocess.run([str(bdir / "perfbench_selftest")]).returncode != 0:
        raise BenchError("C++ self-test failed")
    suite = unittest.defaultTestLoader.discover(str(HERE / "tests"),
                                                pattern="test_*.py")
    if not unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful():
        raise BenchError("Python self-test failed")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-references", action="store_true")
    ap.add_argument("--write-spec", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.record_references:
            record_references()
        elif args.write_spec:
            write_spec()
        elif args.self_test:
            self_test()
        elif args.workload:
            if args.seed < 0 or args.seconds < 1:
                ap.error("--seed must be >= 0 and --seconds >= 1")
            measure(args)
        else:
            ap.error("one of --workload, --record-references, --write-spec "
                     "or --self-test is required")
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

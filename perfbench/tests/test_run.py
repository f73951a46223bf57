"""Tests of perfbench/run.py's result assembly; run by run.py --self-test."""

import copy
import importlib.util
import json
import unittest
from pathlib import Path

_RUN_PY = Path(__file__).resolve().parent.parent / "run.py"
_spec = importlib.util.spec_from_file_location("perfbench_run", _RUN_PY)
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def end_to_end_values():
    # events_per_s is derived by run.py, not reported by the harness.
    return {row[0]: 1.0 for row in run.END_TO_END
            if row[0] != "events_per_s"}


class EvaluateTest(unittest.TestCase):
    def setUp(self):
        self.refs = run.load_references()
        self.name, self.counts = sorted(self.refs["roster-cc"].items())[0]

    def doc(self, counts=None, timed_out=False, checks=(), metrics=None):
        op = {"name": self.name, "timed_out": timed_out,
              "counts": dict(self.counts if counts is None else counts)}
        return {"workload": "roster-cc", "ops": [op], "checks": list(checks),
                "metrics": end_to_end_values() if metrics is None else metrics}

    def test_matching_counts_are_correct(self):
        result, problems, _ = run.evaluate(self.doc(), self.refs, trace=False)
        self.assertEqual(problems, [])
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (1, 0))
        self.assertEqual(result["metrics"]["events_per_s"]["value"],
                         self.counts["events"] / 1.0)
        self.assertEqual(set(result["metrics"]),
                         {row[0] for row in run.END_TO_END})

    def test_tampered_reference_is_a_failed_operation(self):
        refs = copy.deepcopy(self.refs)
        refs["roster-cc"][self.name]["outputs"] += 1
        result, problems, _ = run.evaluate(self.doc(), refs, trace=False)
        self.assertEqual(result["failed"], 1)
        self.assertFalse(result["correct"])
        self.assertIn("counts differ", problems[0])

    def test_moved_work_count_is_a_note_not_a_failure(self):
        counts = dict(self.counts)
        counts["calls"] -= 1
        counts["events"] -= 1
        result, problems, notes = run.evaluate(self.doc(counts=counts),
                                               self.refs, trace=False)
        self.assertEqual(problems, [])
        self.assertEqual(result["failed"], 0)
        self.assertTrue(result["correct"])
        self.assertIn("work counts moved", notes[0])
        # events_per_s keeps the pinned numerator.
        self.assertEqual(result["metrics"]["events_per_s"]["value"],
                         self.counts["events"] / 1.0)

    def test_stream_answer_counts_fail(self):
        refs = run.load_references()
        (name, counts), = refs["stream-w128"].items()
        for key in ("txns", "events", "verdict_ok"):
            tampered = dict(counts)
            tampered[key] += 1
            doc = {"workload": "stream-w128", "checks": [],
                   "ops": [{"name": name, "timed_out": False,
                            "counts": tampered}],
                   "metrics": end_to_end_values()}
            result, _, _ = run.evaluate(doc, refs, trace=False)
            self.assertEqual(result["failed"], 1, key)

    def test_timeout_is_a_failed_operation(self):
        result, _, _ = run.evaluate(self.doc(timed_out=True), self.refs,
                                 trace=False)
        self.assertEqual(result["failed"], 1)
        self.assertFalse(result["correct"])

    def test_unreferenced_operation_fails(self):
        d = self.doc()
        d["ops"][0]["name"] = "no-such-program"
        result, _, _ = run.evaluate(d, self.refs, trace=False)
        self.assertEqual(result["failed"], 1)

    def test_failed_self_check_is_incorrect(self):
        check = {"name": "walk-order", "ok": False, "detail": "x"}
        result, _, _ = run.evaluate(self.doc(checks=[check]), self.refs,
                                 trace=False)
        self.assertEqual(result["failed"], 0)
        self.assertFalse(result["correct"])

    def test_missing_metric_is_incorrect(self):
        metrics = end_to_end_values()
        del metrics["setup_s"]
        result, problems, _ = run.evaluate(self.doc(metrics=metrics), self.refs,
                                        trace=False)
        self.assertFalse(result["correct"])
        self.assertIn("metric setup_s missing", problems)

    def test_traced_run_reports_the_per_layer_table(self):
        metrics = {name: 0.5 for name, _, _ in run.PER_LAYER}
        result, problems, _ = run.evaluate(self.doc(metrics=metrics), self.refs,
                                        trace=True)
        self.assertEqual(problems, [])
        self.assertEqual(list(result["metrics"]),
                         [name for name, _, _ in run.PER_LAYER])


class TimeoutTest(unittest.TestCase):
    def test_harness_timeout_grows_with_the_request(self):
        self.assertLess(run.harness_timeout(run.RUN_SECONDS), 170)
        self.assertGreater(run.harness_timeout(300), 2 * 300)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_is_generated_from_the_tables(self):
        with open(run.SPEC) as f:
            self.assertEqual(json.load(f), run.spec())

    def test_references_are_consistent(self):
        refs = run.load_references()
        self.assertEqual(set(refs), {name for name, _ in run.WORKLOADS})
        cc, si = refs["roster-cc"], refs["roster-si"]
        self.assertEqual(len(cc), 200)
        self.assertEqual(set(cc), set(si))
        for prog in cc:
            self.assertLessEqual(si[prog]["outputs"], cc[prog]["outputs"])
            self.assertEqual(si[prog]["end_states"], cc[prog]["end_states"])
        cw = refs["courseware-2t"]
        self.assertEqual(cw["courseware-s1-4x4"], cw["courseware-s1-4x4-1t"])


if __name__ == "__main__":
    unittest.main()

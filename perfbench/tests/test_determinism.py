#!/usr/bin/env python3
"""Same-seed determinism of the benchmark's traced runs.

    python3 perfbench/tests/test_determinism.py

Two traced runs of `decide` and of `evaluate` with one seed must draw the
same operation sequence and report identical counts; another seed must draw
a different sequence. So the run-to-run spread of the timings comes from
the machine, not from the draw. Also checks that the traced run's JSONL is
read unchanged by the repository's trace tooling (examples/trace_convert).
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORK = os.path.join(ROOT, ".bench_build", "run")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def traced_run(workload, seed):
    """Returns (printed result, summary file) of one traced run."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(WORK, f"{workload}.summary.json")) as f:
        summary = json.load(f)
    return result, summary


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


class SameSeedDeterminism(unittest.TestCase):

    def check_workload(self, workload, count_names):
        first, first_summary = traced_run(workload, 7)
        second, second_summary = traced_run(workload, 7)
        other, other_summary = traced_run(workload, 8)
        for r in (first, second, other):
            self.assertTrue(r["correct"])
            self.assertEqual(r["failed"], 0)
        self.assertEqual(first_summary["digest"], second_summary["digest"])
        self.assertEqual(first_summary["counts"], second_summary["counts"])
        self.assertEqual(counts(first), counts(second))
        for name in count_names:
            self.assertGreater(first["metrics"][name]["value"], 0, name)
        self.assertNotEqual(first_summary["digest"], other_summary["digest"])

    def test_decide(self):
        self.check_workload("decide", ["cq.hom.attempts_per_op",
                                       "chase.facts_added_per_op"])

    def test_evaluate(self):
        self.check_workload("evaluate", ["cq.hom.attempts_per_op",
                                         "datalog.facts_per_op",
                                         "answer_tuples_per_op"])

    def test_trace_convert_reads_the_trace(self):
        traced_run("decide", 7)
        subprocess.run(["cmake", "--build", BUILD, "--target", "trace_convert",
                        "-j", "4"], check=True, stdout=subprocess.DEVNULL,
                       timeout=900)
        converter = os.path.join(BUILD, "vqdr", "examples", "trace_convert")
        proc = subprocess.run([converter, os.path.join(WORK, "decide.trace.jsonl")],
                              stdout=subprocess.PIPE, text=True, check=True,
                              timeout=300)
        events = json.loads(proc.stdout)["traceEvents"]
        names = {e["name"] for e in events}
        for span in ("decide.op", "decide.replay", "cq.canonical_db",
                     "views.apply", "chase.view_inverse", "cq.match",
                     "rewrite.to_query"):
            self.assertIn(span, names)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests for compare.py: python3 nvbench/compare_test.py"""

import io
import json
import unittest
from pathlib import Path

import compare

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def bound_of(name):
    return next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == name)


def runs_for(workload, parent, change, metric="throughput_per_s",
             failed=(0, 0), correct=True):
    """Pairs-file records: parent[i] and change[i] share seed i + 1."""
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        for side, value, fails in (("parent", p, failed[0]),
                                   ("change", c, failed[1])):
            metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                       for m in SPEC["end_to_end"]}
            metrics[metric] = {"value": value, "unit": "x"}
            runs.append({"workload": workload, "seed": i + 1, "side": side,
                         "result": {"correct": correct, "attempted": 100,
                                    "failed": fails, "metrics": metrics}})
    return runs


def row(rows, workload, metric):
    return next(r for r in rows if r[0] == workload and r[1] == metric)


class VerdictTest(unittest.TestCase):
    def test_clear_gain(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [p * 1.2 for p in parent]
        v, d = compare.verdict(parent, change, "higher", 0.1)
        self.assertEqual(v, "gain")
        self.assertEqual(d["wins"], 10)

    def test_gain_needs_nine_tenths_of_pairs(self):
        parent = [100] * 10
        change = [120] * 8 + [90] * 2  # 8/10 wins.
        v, _ = compare.verdict(parent, change, "higher", 0.1)
        self.assertNotEqual(v, "gain")

    def test_ties_count_for_neither_side(self):
        parent = [100] * 10
        change = [120] * 9 + [100]  # 9 wins, one tie: 9/10 pairs won.
        v, d = compare.verdict(parent, change, "higher", 0.1)
        self.assertEqual((v, d["wins"], d["losses"]), ("gain", 9, 0))

    def test_gain_needs_gap_beyond_parent_iqr(self):
        parent = [90, 110, 95, 105, 92, 108, 97, 103, 91, 109]
        change = [p + 1 for p in parent]  # Wins every pair, tiny gap.
        v, _ = compare.verdict(parent, change, "higher", 0.25)
        self.assertEqual(v, "within bound")

    def test_gain_needs_ten_pairs(self):
        v, _ = compare.verdict([100] * 9, [150] * 9, "higher", 0.1)
        self.assertNotEqual(v, "gain")

    def test_lower_is_better(self):
        parent = [10.0 + 0.1 * (i % 3) for i in range(10)]
        v, _ = compare.verdict(parent, [p * 0.7 for p in parent], "lower", 0.1)
        self.assertEqual(v, "gain")
        v, _ = compare.verdict(parent, [p * 1.3 for p in parent], "lower", 0.1)
        self.assertEqual(v, "regression")

    def test_regression_beyond_bound(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        v, d = compare.verdict(parent, [p * 0.85 for p in parent], "higher",
                               0.1)
        self.assertEqual(v, "regression")
        self.assertAlmostEqual(d["worse_share"], 0.15, places=6)

    def test_worse_within_bound_is_no_regression(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        v, _ = compare.verdict(parent, [p * 0.95 for p in parent], "higher",
                               0.1)
        self.assertEqual(v, "within bound")

    def test_unresolved_when_spread_exceeds_bound(self):
        parent = [60, 140, 80, 120, 70, 130, 90, 110, 100, 100]
        change = [p * 0.9 for p in parent]
        v, _ = compare.verdict(parent, change, "higher", 0.1)
        self.assertEqual(v, "unresolved")

    def test_every_run_better_overrides_unresolved(self):
        # Too few pairs for a gain, spread wider than the bound, but every
        # change run beats every parent run.
        parent = [60, 140, 80, 120, 70, 130, 90, 110, 100]
        v, _ = compare.verdict(parent, [200 + p for p in parent], "higher",
                               0.1)
        self.assertEqual(v, "better (every run)")

    def test_more_failures_void_a_gain(self):
        parent = [100 + i % 3 for i in range(10)]
        v, _ = compare.verdict(parent, [p * 1.5 for p in parent], "higher",
                               0.1, more_failures=True)
        self.assertEqual(v, "gain (void: more failures)")

    def test_head_against_head_reports_nothing(self):
        # Two interleaved sets of one commit: same distribution, alternating
        # which side reads higher.
        base = [100, 103, 98, 101, 99, 102, 97, 100, 104, 96]
        jitter = [1, -1] * 5
        v, _ = compare.verdict(base, [b + j for b, j in zip(base, jitter)],
                               "higher", 0.1)
        self.assertEqual(v, "within bound")


class ReportTest(unittest.TestCase):
    def test_bounds_come_from_benchmark_json(self):
        parent = [100.0 + i % 3 for i in range(10)]
        worse = 1.0 - (bound_of("throughput_per_s") + 0.02)
        rows, problems = compare.report(
            runs_for("serve_hot", parent, [p * worse for p in parent]), SPEC)
        self.assertEqual(problems, [])
        _, _, v, d = row(rows, "serve_hot", "throughput_per_s")
        self.assertEqual(v, "regression")
        self.assertEqual(d["bound"], bound_of("throughput_per_s"))

    def test_one_row_per_workload_and_metric(self):
        runs = (runs_for("serve_hot", [1.0] * 10, [1.0] * 10) +
                runs_for("train", [1.0] * 10, [1.0] * 10))
        rows, _ = compare.report(runs, SPEC)
        self.assertEqual(len(rows), 2 * len(SPEC["end_to_end"]))
        self.assertEqual(len({(r[0], r[1]) for r in rows}), len(rows))

    def test_incorrect_runs_and_missing_pairs_are_problems(self):
        rows, problems = compare.report(
            runs_for("train", [1.0] * 5, [1.0] * 5, correct=False), SPEC)
        self.assertTrue(any("incorrect" in p for p in problems))
        self.assertTrue(any("only 5 pairs" in p for p in problems))

    def test_more_failed_operations_void_the_gain(self):
        parent = [100.0 + i % 3 for i in range(10)]
        rows, _ = compare.report(
            runs_for("serve_cold", parent, [p * 2 for p in parent],
                     failed=(0, 1)), SPEC)
        self.assertEqual(row(rows, "serve_cold", "throughput_per_s")[2],
                         "gain (void: more failures)")

    def test_printed_table(self):
        rows, problems = compare.report(
            runs_for("serve_hot", [1.0] * 10, [1.0] * 10), SPEC)
        out = io.StringIO()
        compare.print_report(rows, problems, out)
        self.assertIn("within bound", out.getvalue())
        self.assertEqual(len(out.getvalue().splitlines()),
                         1 + len(SPEC["end_to_end"]))


class PlanTest(unittest.TestCase):
    def test_pairs_alternate_which_side_runs_first(self):
        plan = compare.plan_pairs(["serve_hot"], 10, 1)
        self.assertEqual(len(plan), 10)
        firsts = [order[0] for _, _, order in plan]
        self.assertEqual(firsts.count("parent"), 5)
        self.assertTrue(all(a != b for a, b in zip(firsts, firsts[1:])))
        self.assertEqual([seed for _, seed, _ in plan], list(range(1, 11)))


if __name__ == "__main__":
    unittest.main()

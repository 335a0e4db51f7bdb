#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py [-v]

Covers the metric-name grammar, the percentile rule (C++ self-test
binary), the compare tool on synthetic result sets, the shape of
BENCHMARK.json, and a short run of every workload, traced and untraced,
checking that every metric BENCHMARK.json names is reported with its unit.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run as runner  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SPEC = compare.load_spec()


def fake_run(workload, seed, values, counts=None, trace=0, correct=True):
    return {"workload": workload, "seed": seed, "trace": trace, "correct": correct,
            "_file": "%s-%d" % (workload, seed),
            "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()},
            "counts": counts or {"sim.instrs": 1000 + seed}}


class SpecTest(unittest.TestCase):
    def test_names_follow_the_grammar(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        for n in names:
            self.assertRegex(n, NAME)
            self.assertLessEqual(len(n), 64)
        self.assertEqual(len(names), len(set(names)))

    def test_contract_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class SelfTestBinary(unittest.TestCase):
    def test_grammar_and_percentile_rule(self):
        binary = runner.build(runner.build_dir(), "perfbench_selftest")
        proc = subprocess.run([binary], stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("SELFTEST PASS", proc.stdout)


class CompareTest(unittest.TestCase):
    meta_lower = {"name": "epoch_ms_p50", "better": "lower", "bound": 0.1}
    meta_higher = {"name": "sim_minstr_per_s", "better": "higher", "bound": 0.1}

    def entry(self, values):
        return {"unit": "u", "values": {i + 1: [v] for i, v in enumerate(values)}}

    def test_quartiles_match_statistics(self):
        q1, med, q3 = compare.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((q1, med, q3), (2.75, 5.5, 8.25))

    def test_unchanged_within_bound(self):
        base = self.entry([10.0, 10.1, 9.9, 10.05, 9.95])
        new = self.entry([10.2, 10.3, 10.1, 10.25, 10.15])
        self.assertEqual(compare.label(base, new, self.meta_lower)[0], "unchanged")

    def test_regressed_beyond_bound(self):
        base = self.entry([10.0, 10.1, 9.9, 10.05, 9.95])
        new = self.entry([12.0, 12.1, 11.9, 12.05, 11.95])
        lab, gain = compare.label(base, new, self.meta_lower)
        self.assertEqual(lab, "regressed")
        self.assertAlmostEqual(gain, -0.2)

    def test_improved_needs_nine_of_ten_pairs(self):
        base = self.entry([10.0] * 10)
        self.assertEqual(compare.label(base, self.entry([11.0] * 10),
                                       self.meta_higher)[0], "improved")
        mixed = self.entry([11.0] * 8 + [9.0] * 2)
        self.assertNotEqual(compare.label(base, mixed, self.meta_higher)[0],
                            "improved")

    def test_unresolved_when_spread_exceeds_bound(self):
        base = self.entry([5.0, 10.0, 15.0, 7.0, 13.0])
        new = self.entry([6.0, 11.0, 16.0, 8.0, 14.0])
        self.assertEqual(compare.label(base, new, self.meta_lower)[0], "unresolved")

    def test_regression_beats_a_wide_spread(self):
        base = self.entry([10.0, 10.1, 9.9, 10.05, 9.95])
        slower_and_noisier = self.entry([15.0, 25.0, 20.0, 18.0, 22.0])
        self.assertEqual(compare.label(base, slower_and_noisier, self.meta_lower)[0],
                         "regressed")

    def test_model_changed_and_repeats(self):
        base = [fake_run("w", 1, {"x": 1.0}, {"sim.instrs": 5}),
                fake_run("w", 1, {"x": 1.0}, {"sim.instrs": 5})]
        same = [fake_run("w", 1, {"x": 1.0}, {"sim.instrs": 5})]
        moved = [fake_run("w", 1, {"x": 1.0}, {"sim.instrs": 6})]
        out = []
        self.assertTrue(compare.report_two(base, same, SPEC, out))
        out = []
        self.assertFalse(compare.report_two(base, moved, SPEC, out))
        self.assertTrue(any("MODEL CHANGED" in line for line in out))
        self.assertEqual(compare.check_repeats(base), [])
        self.assertNotEqual(compare.check_repeats(base + moved), [])

    def test_ratio_printed_with_base(self):
        base = [fake_run("w", s, {"sim_minstr_per_s": 10.0}) for s in (1, 2, 3)]
        new = [fake_run("w", s, {"sim_minstr_per_s": 12.0}) for s in (1, 2, 3)]
        out = []
        compare.report_two(base, new, SPEC, out)
        line = [l for l in out if "sim_minstr_per_s" in l][0]
        self.assertIn("x1.2000 of base median 10 u", line)
        self.assertIn("improved", line)

    def test_one_set_flags_wide_spread(self):
        runs = [fake_run("w", s, {"sim_minstr_per_s": v})
                for s, v in enumerate([10.0, 14.0, 6.0, 12.0, 8.0])]
        out = []
        self.assertFalse(compare.report_one(runs, SPEC, out))
        self.assertTrue(any("SPREAD > bound" in l for l in out))


class WorkloadOutputTest(unittest.TestCase):
    """Short real runs: every metric BENCHMARK.json names, with its unit."""

    def run_workload(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"])
        self.assertGreaterEqual(last["attempted"], 1)
        self.assertEqual(last["failed"], 0)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(last["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(last["metrics"][m["name"]]["unit"], m["unit"], m["name"])
        record = compare.parse_output(proc.stdout)
        for name in list(record["metrics"]) + list(record["counts"]):
            self.assertRegex(name, NAME)
        return record

    def test_every_workload(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.run_workload(w["name"], trace)


if __name__ == "__main__":
    unittest.main()

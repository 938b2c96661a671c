#!/usr/bin/env python3
"""Tests of the ledger benchmark's own rules.

    python3 ledger/test_ledger.py

The analysis tests run on hand-made inputs. The last two build
jfeed_ledger (as run.py does) and check the C++ output-key extraction and,
at the default seed, that every reported percentile falls inside a cost
class rather than on the boundary between two.
"""

import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import analysis  # noqa: E402
import run  # noqa: E402

DEFAULT_SEED = 1


class TailSelectorTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(analysis.tail_percentile(19))
        self.assertEqual(analysis.tail_percentile(20), 50.0)
        self.assertEqual(analysis.tail_percentile(99), 50.0)
        self.assertEqual(analysis.tail_percentile(100), 90.0)
        self.assertEqual(analysis.tail_percentile(200), 95.0)
        self.assertEqual(analysis.tail_percentile(999), 95.0)
        self.assertEqual(analysis.tail_percentile(1000), 99.0)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(analysis.percentile(values, 50.0), 50)
        self.assertEqual(analysis.percentile(values, 99.0), 99)
        self.assertEqual(analysis.beyond(99.0, 100), 1)
        self.assertEqual(analysis.percentile([5, 1, 3], 50.0), 3)

    def test_fixed_tails_have_ten_beyond_at_half_the_samples(self):
        # Nominal answered submissions per run at the BENCHMARK.json length;
        # a slow machine completing half of them must still leave ten
        # samples beyond each workload's fixed tail.
        fixed = {"oracle-heavy": (95.0, 1500), "structure-heavy": (99.0, 25000),
                 "deadline-spike": (99.0, 2025)}
        for workload, (pct, nominal) in fixed.items():
            self.assertGreaterEqual(analysis.beyond(pct, nominal // 2), 10, workload)


class SloTest(unittest.TestCase):
    def test_sheds_and_failures_are_misses(self):
        outcomes = [(True, 1.0), (True, 5.0), (False, 0.1), (False, 0.1), (True, 50.0)]
        self.assertAlmostEqual(analysis.slo_attainment(outcomes, 5.0), 2 / 5)

    def test_limit_is_inclusive(self):
        self.assertEqual(analysis.slo_attainment([(True, 5.0)], 5.0), 1.0)

    def test_nothing_sent_is_an_error(self):
        with self.assertRaises(ValueError):
            analysis.slo_attainment([], 5.0)


class DigestTest(unittest.TestCase):
    def test_order_independent(self):
        pairs = [("a", "k1"), ("b", "k2"), ("c", "k3")]
        self.assertEqual(analysis.digest(pairs), analysis.digest(pairs[::-1]))

    def test_any_change_moves_the_digest(self):
        base = analysis.digest([("a", "k1"), ("b", "k2")])
        self.assertNotEqual(base, analysis.digest([("a", "k1"), ("b", "k9")]))
        self.assertNotEqual(base, analysis.digest([("a", "k2"), ("b", "k1")]))
        self.assertNotEqual(base, analysis.digest([("a", "k1")]))

    def test_check_outputs(self):
        reference = {0: "k0", 1: "k1"}
        records = [("s0", 0, analysis.OK, "k0"), ("s1", 1, analysis.OK, "k1"),
                   ("s2", 0, analysis.SHED, "-"), ("s3", 1, analysis.ERROR, "-")]
        ok, got, want = analysis.check_outputs(records, reference)
        self.assertEqual(ok, 2)
        self.assertEqual(got, want)  # Sheds lower ok_frac, not the digest.
        records.append(("s4", 0, analysis.OK, "wrong"))
        ok, got, want = analysis.check_outputs(records, reference)
        self.assertEqual(ok, 2)
        self.assertNotEqual(got, want)


def span(start, end, parent, name="x"):
    return {"start": start, "end": end, "parent": parent, "name": name}


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = {1: span(0, 100, 0), 2: span(10, 30, 1), 3: span(40, 90, 1),
                 4: span(50, 60, 3)}
        selfs = analysis.self_times(spans)
        self.assertEqual(selfs, {1: 30, 2: 20, 3: 40, 4: 10})

    def test_overlapping_children_are_merged_and_clipped(self):
        spans = {1: span(0, 100, 0), 2: span(10, 50, 1), 3: span(40, 120, 1)}
        self.assertEqual(analysis.self_times(spans)[1], 10)

    def test_ledger_reconciles_to_wall(self):
        spans = {1: span(0, 1000, 0, "phase"),
                 2: span(10, 500, 1, "submission"), 3: span(20, 100, 2, "parse"),
                 4: span(100, 450, 2, "functional"),
                 5: span(510, 990, 1, "submission"), 6: span(520, 900, 5, "parse")}
        layer = {"parse": "javalang", "functional": "testing"}
        wall, layers, rest, error = analysis.ledger(spans, 1, lambda s: layer.get(s["name"]))
        self.assertEqual(wall, 1000)
        self.assertEqual(layers, {"javalang": 460, "testing": 350})
        self.assertEqual(rest, 190)
        self.assertEqual(error, 0)
        self.assertEqual(sum(layers.values()) + rest, wall)

    def test_subtree_ignores_other_phases(self):
        spans = {1: span(0, 10, 0), 2: span(1, 2, 1), 3: span(20, 30, 0)}
        self.assertEqual(sorted(analysis.subtree(spans, 1)), [1, 2])


class PlacementTest(unittest.TestCase):
    def test_boundary_detected(self):
        counts = {"hit": 0, "graded": 500, "exhausted": 500}
        self.assertEqual(analysis.class_boundaries(counts), [500])
        self.assertEqual(analysis.placement(counts, (50.0, 99.0)),
                         [(50.0, False), (99.0, True)])

    def test_margin_is_at_least_ten_samples(self):
        counts = {"graded": 80, "exhausted": 20}
        # 10 samples of 100 is 10%: p90 sits exactly that far from 0.8.
        self.assertEqual(analysis.placement(counts, (90.0, 89.0)),
                         [(90.0, True), (89.0, False)])

    def test_single_class_has_no_boundary(self):
        self.assertEqual(analysis.placement({"graded": 10}, (50.0,)), [(50.0, True)])


class BinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ledger, _ = run.build(traced=False)

    def test_output_key_extraction(self):
        done = subprocess.run([str(self.ledger), "selftest"], capture_output=True,
                              text=True)
        self.assertEqual(done.returncode, 0, done.stderr)

    def test_percentiles_inside_a_class_at_default_seed(self):
        for workload in run.WORKLOADS:
            done = subprocess.run(
                [str(self.ledger), "plan", "--workload", workload, "--seed",
                 str(DEFAULT_SEED), "--seconds", "15"],
                capture_output=True, text=True, check=True)
            lines = done.stdout.splitlines()
            tail = float(lines[0].split()[-1])
            counts = {name: 0 for name in analysis.CLASSES}
            for line in lines[1:]:
                counts[line.split("\t")[1]] += 1
            for pct, inside in analysis.placement(counts, (50.0, tail)):
                self.assertTrue(inside, f"{workload} p{pct:g} on a class boundary: {counts}")


if __name__ == "__main__":
    unittest.main()

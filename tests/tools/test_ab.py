#!/usr/bin/env python3
"""Unit tests for tools/ab.py: its statistics and its pair loop.

Run directly or via ctest (registered in tests/CMakeLists.txt).
"""

import os
import shlex
import subprocess
import sys
import unittest

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, os.pardir, "tools")
sys.path.insert(0, TOOLS)

import ab  # noqa: E402


class Summarize(unittest.TestCase):
    def test_quartiles_inclusive(self):
        self.assertEqual(ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]),
                         (2.0, 3.0, 4.0))
        self.assertEqual(ab.quartiles([7.0]), (7.0, 7.0, 7.0))
        self.assertEqual(ab.quartiles([1.0, 2.0]), (1.25, 1.5, 1.75))

    def test_lower_is_better(self):
        parent = [3.0, 3.2, 2.9, 3.1, 3.0]
        change = [2.5, 2.4, 3.0, 2.6, 2.5]
        s = ab.summarize(parent, change)
        self.assertEqual(s["pairs"], 5)
        self.assertEqual(s["wins"], 4)  # pair 3: 3.0 vs 2.9 is a loss
        self.assertAlmostEqual(s["parent"]["median"], 3.0)
        self.assertAlmostEqual(s["change"]["median"], 2.5)
        self.assertAlmostEqual(s["ratio"], 2.5 / 3.0)
        self.assertAlmostEqual(s["parent_iqr"], 0.1)
        self.assertTrue(s["gap_exceeds_iqr"])

    def test_higher_is_better(self):
        s = ab.summarize([10.0, 10.0, 10.0], [11.0, 9.0, 12.0],
                         lower_is_better=False)
        self.assertEqual(s["wins"], 2)
        self.assertAlmostEqual(s["ratio"], 1.1)
        self.assertTrue(s["gap_exceeds_iqr"])  # parent IQR is 0

    def test_gap_within_noise(self):
        parent = [1.0, 2.0, 3.0, 4.0]
        change = [0.9, 1.9, 2.9, 3.9]
        s = ab.summarize(parent, change)
        self.assertEqual(s["wins"], 4)
        self.assertFalse(s["gap_exceeds_iqr"])

    def test_ties_are_not_wins(self):
        s = ab.summarize([1.0, 1.0], [1.0, 1.0])
        self.assertEqual(s["wins"], 0)
        self.assertFalse(s["gap_exceeds_iqr"])

    def test_unpaired_samples_rejected(self):
        with self.assertRaises(ValueError):
            ab.summarize([1.0, 2.0], [1.0])
        with self.assertRaises(ValueError):
            ab.summarize([], [])


class MetricOf(unittest.TestCase):
    def test_whole_stdout_or_last_line(self):
        self.assertEqual(ab.metric_of('{\n "wall_s": 2.5\n}\n', "wall_s"),
                         2.5)
        self.assertEqual(ab.metric_of('log line\n{"wall_s": 1}\n',
                                      "wall_s"), 1.0)

    def test_dotted_path(self):
        out = '{"correct": true, "metrics": {"wall_s": {"value": 3.5}}}'
        self.assertEqual(ab.metric_of(out, "metrics.wall_s.value"), 3.5)

    def test_missing_key(self):
        with self.assertRaises(ValueError):
            ab.metric_of('{"run_s": 1}', "wall_s")
        with self.assertRaises(ValueError):
            ab.metric_of('{"metrics": 1}', "metrics.wall_s")

    def test_all_metrics(self):
        out = ('log\n{"correct": true, "metrics": {"wall_s": {"value": 2, '
               '"unit": "s"}, "sim_cpi": {"value": 1.5, "unit": "c"}}}')
        self.assertEqual(ab.all_metrics_of(out),
                         {"wall_s": 2.0, "sim_cpi": 1.5})
        with self.assertRaises(ValueError):
            ab.all_metrics_of('{"metrics": {}}')
        with self.assertRaises(ValueError):
            ab.all_metrics_of('{"wall_s": 1}')

    def test_measure_picks_the_mode(self):
        out = '{"a": 1, "b": 2, "metrics": {"c": {"value": 3}}}'
        self.assertEqual(ab.measure(out, 9.0, [], False), {"s": 9.0})
        self.assertEqual(ab.measure(out, 9.0, ["b", "a"], False),
                         {"b": 2.0, "a": 1.0})
        self.assertEqual(ab.measure(out, 9.0, [], True), {"c": 3.0})


class PairLoop(unittest.TestCase):
    def test_alternates_and_reports(self):
        # Both sides are this interpreter printing a fixed metric.
        script = 'print(\'{"x": 2.0}\')'
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "ab.py"), "-n", "3",
             "--metric", "x", sys.executable, sys.executable, "--",
             "-c", script],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("pair 3: parent 2 change 2", proc.stdout)
        self.assertIn("ratio   change/parent median 1.000", proc.stdout)
        self.assertIn("change better in 0 of 3 pairs", proc.stdout)

    def test_sides_are_commands(self):
        # A side may be a command with its own arguments, split like a
        # shell would; here each side's script prints its own metric.
        parent = shlex.join([sys.executable, "-c", 'print(\'{"x": 4}\')'])
        change = shlex.join([sys.executable, "-c", 'print(\'{"x": 3}\')'])
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "ab.py"), "-n", "2",
             "--metric", "x", parent, change, "--"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("change better in 2 of 2 pairs", proc.stdout)
        self.assertIn("ratio   change/parent median 0.750", proc.stdout)

    def test_every_metric_from_one_set_of_pairs(self):
        # Each side prints two metrics; the change is faster (lower s)
        # and has higher throughput (higher rate, which --higher marks).
        def side(s, rate):
            doc = ('{"metrics": {"s": {"value": %s}, '
                   '"rate": {"value": %s}}}' % (s, rate))
            return shlex.join([sys.executable, "-c", f"print('{doc}')"])
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "ab.py"), "-n", "2",
             "--all-metrics", "--higher", "rate", side(4, 10),
             side(3, 12), "--"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("pair 2: s parent 4 change 3; rate parent 10 "
                      "change 12", proc.stdout)
        self.assertIn("metric  s (lower is better)", proc.stdout)
        self.assertIn("metric  rate (higher is better)", proc.stdout)
        self.assertEqual(proc.stdout.count("change better in 2 of 2 pairs"),
                         2)
        self.assertIn("ratio   change/parent median 1.200", proc.stdout)

    def test_repeated_metric(self):
        script = 'print(\'{"x": 2, "y": {"z": 5}}\')'
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "ab.py"), "-n", "1",
             "--metric", "x", "--metric", "y.z", sys.executable,
             sys.executable, "--", "-c", script],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("pair 1: x parent 2 change 2; y.z parent 5 change 5",
                      proc.stdout)
        self.assertIn("metric  y.z (lower is better)", proc.stdout)

    def test_metric_and_all_metrics_exclude_each_other(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "ab.py"), "--metric", "x",
             "--all-metrics", sys.executable, sys.executable, "--"],
            capture_output=True, text=True)
        self.assertNotEqual(proc.returncode, 0)

    def test_failing_run_stops(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "ab.py"), "-n", "2",
             sys.executable, sys.executable, "--", "-c",
             "raise SystemExit(3)"],
            capture_output=True, text=True)
        self.assertNotEqual(proc.returncode, 0)


if __name__ == "__main__":
    unittest.main()

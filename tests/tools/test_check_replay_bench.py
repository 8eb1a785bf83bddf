#!/usr/bin/env python3
"""Unit tests for tools/check_replay_bench.py over synthetic files.

Exercises the (protocol, preset) cell keying: history entries of the
retired sharded mode never become a flat cell's baseline, cells absent
from history are record-only instead of a crash, malformed history
entries are ignored with a warning, regressions on matching keys still
gate, --append writes flat cells that a later check matches, and the
dump's top-level peak_rss_mb (every JsonSink document carries one) is
ignored: the tool reads only "bench" and "rows".

Run directly or via ctest (registered in tests/CMakeLists.txt).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir,
    os.pardir,
    "tools",
    "check_replay_bench.py",
)


def run_tool(*args):
    return subprocess.run(
        [sys.executable, TOOL, *args],
        capture_output=True,
        text=True,
    )


def write_json(directory, name, payload):
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        json.dump(payload, f)
    return path


def current_dump(rows):
    return {"bench": "bench_replay", "rows": rows}


def history_dump(entries):
    return {"bench": "bench_replay", "entries": entries}


def row(protocol, preset, rate):
    return {
        "protocol": protocol,
        "preset": preset,
        "accesses_per_sec": rate,
    }


def entry(protocol, preset, rate, shards=None, rev="r0"):
    e = row(protocol, preset, rate)
    e["git_rev"] = rev
    if shards is not None:
        e["shards"] = shards
    return e


class CheckReplayBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = self.tmp.name

    def tearDown(self):
        self.tmp.cleanup()

    def test_sharded_history_entry_never_gates_flat_row(self):
        # A newer sharded entry for the same (protocol, preset) would
        # be the flat row's baseline if it were not skipped, and its
        # rate is far above the flat row's.
        cur = write_json(
            self.dir,
            "cur.json",
            current_dump([row("amnt", "zipfian", 1000.0)]),
        )
        hist = write_json(
            self.dir,
            "hist.json",
            history_dump(
                [
                    entry("amnt", "zipfian", 1000.0, rev="flat"),
                    entry("amnt", "zipfian", 9000.0, shards=4, rev="x4"),
                    entry("leaf", "zipfian", 9000.0, shards=4, rev="x4"),
                ]
            ),
        )
        res = run_tool("--current", cur, "--history", hist)
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("amnt/zipfian: 1,000/s vs 1,000/s @ flat", res.stdout)
        self.assertEqual(res.stdout.count("retired sharded mode"), 1)
        self.assertIn("2 history entries", res.stdout)

    def test_regression_on_matching_cell_gates(self):
        cur = write_json(
            self.dir,
            "cur.json",
            current_dump([row("amnt", "zipfian", 100.0)]),
        )
        hist = write_json(
            self.dir,
            "hist.json",
            history_dump([entry("amnt", "zipfian", 1000.0)]),
        )
        res = run_tool("--current", cur, "--history", hist)
        self.assertEqual(res.returncode, 1)
        self.assertIn("regressed", res.stderr)

    def test_malformed_history_entry_is_ignored_not_a_crash(self):
        cur = write_json(
            self.dir,
            "cur.json",
            current_dump([row("amnt", "zipfian", 1000.0)]),
        )
        hist = write_json(
            self.dir,
            "hist.json",
            history_dump(
                [
                    {"preset": "zipfian"},  # no protocol, no rate
                    entry("amnt", "zipfian", 1000.0),
                ]
            ),
        )
        res = run_tool("--current", cur, "--history", hist)
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("malformed history entry", res.stdout)
        self.assertIn("ok", res.stdout)

    def test_append_writes_cells_a_later_check_matches(self):
        cur = write_json(
            self.dir,
            "cur.json",
            current_dump(
                [
                    row("amnt", "zipfian", 1000.0),
                    row("leaf", "gups", 4000.0),
                ]
            ),
        )
        hist = write_json(self.dir, "hist.json", history_dump([]))
        res = run_tool(
            "--current",
            cur,
            "--history",
            hist,
            "--append",
            "--rev",
            "abc123",
        )
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("record-only", res.stdout)
        with open(hist) as f:
            recorded = json.load(f)["entries"]
        self.assertEqual(len(recorded), 2)
        for e in recorded:
            self.assertNotIn("shards", e)
            self.assertEqual(e["git_rev"], "abc123")

        # A second check against the appended history matches cells.
        res2 = run_tool("--current", cur, "--history", hist)
        self.assertEqual(res2.returncode, 0, res2.stderr)
        self.assertNotIn("record-only", res2.stdout)

    def test_legacy_history_still_gates_legacy_rows(self):
        cur = write_json(
            self.dir,
            "cur.json",
            current_dump([row("phoenix", "gups", 900.0)]),
        )
        hist = write_json(
            self.dir,
            "hist.json",
            history_dump([entry("phoenix", "gups", 1000.0)]),
        )
        res = run_tool("--current", cur, "--history", hist)
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("phoenix/gups: 900", res.stdout)
        self.assertIn("ok", res.stdout)

    def test_top_level_peak_rss_is_ignored(self):
        for rss in (37.5, None):
            dump = current_dump([row("amnt", "zipfian", 1000.0)])
            dump["peak_rss_mb"] = rss
            cur = write_json(self.dir, "cur.json", dump)
            hist = write_json(
                self.dir,
                "hist.json",
                history_dump([entry("amnt", "zipfian", 1000.0)]),
            )
            res = run_tool(
                "--current", cur, "--history", hist,
                "--append", "--rev", "r1",
            )
            self.assertEqual(res.returncode, 0, res.stderr)
            self.assertIn("amnt/zipfian: 1,000/s", res.stdout)
            with open(hist) as f:
                recorded = json.load(f)
            self.assertEqual(set(recorded), {"bench", "entries"})
            self.assertEqual(
                set(recorded["entries"][1]),
                {"protocol", "preset", "accesses_per_sec", "git_rev"},
            )


if __name__ == "__main__":
    unittest.main()

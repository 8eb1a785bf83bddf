#!/usr/bin/env python3
"""Replay-throughput regression gate and history appender.

Compares a fresh bench_replay JSON dump (the JsonSink format:
{"bench": "bench_replay", "rows": [...]}) against the recorded
history in results/BENCH_replay.json and fails when any
(protocol, preset, shards) cell is more than --threshold slower than
its most recent recorded entry. Cells with no history — a protocol
or shard count added since the last recording, or legacy entries
that predate the shards field — pass with a "new, record-only" note
instead of crashing on the missing key; malformed history entries
are warned about and ignored.

    check_replay_bench.py --current out.json \
        [--history results/BENCH_replay.json] [--threshold 0.2]

With --append --rev REV, the current rows are also written to the
history file as new entries tagged with that revision (after the
check; --append implies the check still gates).
"""

import argparse
import json
import sys


def load_current(path):
    with open(path) as f:
        dump = json.load(f)
    if dump.get("bench") != "bench_replay":
        sys.exit(f"{path}: not a bench_replay dump")
    return dump["rows"]


def load_history(path):
    with open(path) as f:
        hist = json.load(f)
    if hist.get("bench") != "bench_replay":
        sys.exit(f"{path}: not a bench_replay history")
    return hist


def cell_key(entry):
    """(protocol, preset, shards) identity of a row or history entry.

    Entries that predate the sharded bench carry no "shards" field;
    they key as shards=0 (the flat secure-memory run), so old and
    new histories interoperate without rewriting.
    """
    return (
        entry.get("protocol"),
        entry.get("preset"),
        entry.get("shards", 0),
    )


def cell_name(key):
    proto, preset, shards = key
    base = f"{proto}/{preset}"
    return f"{base}/x{shards}" if shards else base


def latest_recorded(history):
    """Last recorded rate per (protocol, preset, shards) cell."""
    latest = {}
    for e in history["entries"]:
        key = cell_key(e)
        if key[0] is None or key[1] is None or "accesses_per_sec" not in e:
            print(f"  warning: malformed history entry ignored: {e}")
            continue
        latest[key] = (
            e["accesses_per_sec"],
            e.get("git_rev", "?"),
        )
    return latest


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--current", required=True)
    ap.add_argument("--history", default="results/BENCH_replay.json")
    ap.add_argument("--threshold", type=float, default=0.2)
    ap.add_argument("--append", action="store_true")
    ap.add_argument("--rev", help="git revision tag for --append")
    args = ap.parse_args()
    if args.append and not args.rev:
        ap.error("--append needs --rev")

    rows = load_current(args.current)
    history = load_history(args.history)
    latest = latest_recorded(history)

    failures = []
    for row in rows:
        key = cell_key(row)
        cell = cell_name(key)
        rate = row["accesses_per_sec"]
        if key not in latest:
            print(
                f"  {cell}: {rate:,.0f}/s "
                "(no history: new cell, record-only)"
            )
            continue
        base, rev = latest[key]
        ratio = rate / base
        status = "ok"
        if ratio < 1.0 - args.threshold:
            status = "REGRESSION"
            failures.append(
                f"{cell}: {rate:,.0f}/s vs {base:,.0f}/s "
                f"@ {rev} ({ratio:.2f}x)"
            )
        print(
            f"  {cell}: {rate:,.0f}/s vs {base:,.0f}/s "
            f"@ {rev} ({ratio:.2f}x) {status}"
        )

    if failures:
        print(
            f"\n{len(failures)} cell(s) regressed more than "
            f"{args.threshold:.0%}:",
            file=sys.stderr,
        )
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)

    if args.append:
        for row in rows:
            entry = {
                "protocol": row["protocol"],
                "preset": row["preset"],
                "accesses_per_sec": round(
                    row["accesses_per_sec"], 1
                ),
                "git_rev": args.rev,
            }
            # Legacy rows stay shards-free so old checkers keep
            # reading the history; sharded rows record their lanes.
            if row.get("shards", 0):
                entry["shards"] = row["shards"]
            history["entries"].append(entry)
        with open(args.history, "w") as f:
            json.dump(history, f, indent=2)
            f.write("\n")
        print(f"appended {len(rows)} entries @ {args.rev}")


if __name__ == "__main__":
    main()

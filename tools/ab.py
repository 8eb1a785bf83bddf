#!/usr/bin/env python3
"""Interleaved A/B timing of two builds of one command.

    tools/ab.py [-n PAIRS] [--metric KEY] [--higher-is-better] \\
        PARENT_BIN CHANGE_BIN -- ARGS...

Runs `PARENT_BIN ARGS...` and `CHANGE_BIN ARGS...` PAIRS times each,
one pair at a time, alternating which side goes first so that slow
drift of the host lands on both sides alike. PARENT_BIN and
CHANGE_BIN are split into words like a shell command, so
"python3 parent/perfbench/run.py" works too. Each run is measured by
its own wall clock, or, with --metric KEY, by the number at KEY in the
JSON object the command prints (the whole of stdout, or else its last
line). KEY is a field name or a dotted path: `--metric wall_s` with
`perfbench e2e`, `--metric metrics.wall_s.value` with
`perfbench/run.py`. A run that exits non-zero stops the comparison.

Prints each side's median and quartiles, the ratio of the change's
median to the parent's, the number of pairs the change won, and
whether the gap between the medians exceeds the parent's
interquartile range.
"""

import argparse
import json
import shlex
import statistics
import subprocess
import sys
import time


def quartiles(xs):
    """(q1, median, q3) of a non-empty sample, inclusive method."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent, change, lower_is_better=True):
    """Compare paired samples; parent[i] and change[i] are pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if lower_is_better:
        wins = sum(1 for p, c in zip(parent, change) if c < p)
    else:
        wins = sum(1 for p, c in zip(parent, change) if c > p)
    gap = pm - cm if lower_is_better else cm - pm
    return {
        "pairs": len(parent),
        "parent": {"q1": p1, "median": pm, "q3": p3},
        "change": {"q1": c1, "median": cm, "q3": c3},
        "ratio": cm / pm if pm else float("nan"),
        "wins": wins,
        "parent_iqr": p3 - p1,
        "gap_exceeds_iqr": gap > p3 - p1,
    }


def metric_of(stdout, key):
    """Number at dotted path @p key in the JSON object a run printed."""
    text = stdout.strip()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        lines = text.splitlines()
        doc = json.loads(lines[-1]) if lines else {}
    for part in key.split("."):
        if not isinstance(doc, dict) or part not in doc:
            raise ValueError(f"run printed no '{key}'")
        doc = doc[part]
    return float(doc)


def run_once(binary, args, metric):
    t0 = time.monotonic()
    proc = subprocess.run([*shlex.split(binary), *args],
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"{binary} exited with {proc.returncode}")
    return metric_of(proc.stdout, metric) if metric else wall


def report(s, unit):
    lines = []
    for side in ("parent", "change"):
        q = s[side]
        lines.append(f"{side:7s} median {q['median']:.4g} {unit} "
                     f"(q1 {q['q1']:.4g}, q3 {q['q3']:.4g})")
    lines.append(f"ratio   change/parent median {s['ratio']:.3f}")
    lines.append(f"wins    change better in {s['wins']} of {s['pairs']} "
                 "pairs")
    lines.append(f"gap     {'exceeds' if s['gap_exceeds_iqr'] else 'within'}"
                 f" the parent's IQR ({s['parent_iqr']:.4g} {unit})")
    return "\n".join(lines)


def parse_args(argv):
    if "--" not in argv:
        raise SystemExit("usage: ab.py [options] PARENT CHANGE -- ARGS...")
    cut = argv.index("--")
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("-n", "--pairs", type=int, default=10)
    p.add_argument("--metric", help="JSON field to compare "
                   "(default: the run's wall-clock seconds)")
    p.add_argument("--higher-is-better", action="store_true")
    args = p.parse_args(argv[:cut])
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    args.command = argv[cut + 1:]
    return args


def main(argv):
    args = parse_args(argv)
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                runs[side].append(run_once(getattr(args, side),
                                           args.command, args.metric))
            except (OSError, RuntimeError, ValueError) as e:
                sys.stderr.write(f"ab.py: {side} run {i + 1}: {e}\n")
                return 1
        print(f"pair {i + 1}: parent {runs['parent'][-1]:.4g} "
              f"change {runs['change'][-1]:.4g}", flush=True)
    s = summarize(runs["parent"], runs["change"],
                  lower_is_better=not args.higher_is_better)
    print(report(s, args.metric or "s"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

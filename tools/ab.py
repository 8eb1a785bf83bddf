#!/usr/bin/env python3
"""Interleaved A/B timing of two builds of one command.

    tools/ab.py [-n PAIRS] [--metric KEY]... [--all-metrics] \\
        [--higher-is-better] [--higher KEY]... \\
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
`perfbench/run.py`. --metric may be given more than once, and
--all-metrics takes every `metrics.<name>.value` the run prints (the
shape `perfbench/run.py` prints), so one set of pairs measures every
end-to-end metric at once. A run that exits non-zero stops the
comparison.

Lower is better unless --higher-is-better (every metric) or
--higher KEY (that metric; KEY as given to --metric, or the <name> of
--all-metrics) says otherwise.

Prints, per metric, each side's median and quartiles, the ratio of the
change's median to the parent's, the number of pairs the change won,
and whether the gap between the medians exceeds the parent's
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


def parse_output(stdout):
    """The JSON object a run printed: all of stdout, or its last line."""
    text = stdout.strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        lines = text.splitlines()
        return json.loads(lines[-1]) if lines else {}


def lookup(doc, key):
    """Number at dotted path @p key in @p doc."""
    for part in key.split("."):
        if not isinstance(doc, dict) or part not in doc:
            raise ValueError(f"run printed no '{key}'")
        doc = doc[part]
    return float(doc)


def metric_of(stdout, key):
    """Number at dotted path @p key in the JSON object a run printed."""
    return lookup(parse_output(stdout), key)


def all_metrics_of(stdout):
    """{name: value} for every `metrics.<name>.value` a run printed."""
    metrics = parse_output(stdout).get("metrics")
    found = {name: float(m["value"]) for name, m in metrics.items()
             if isinstance(m, dict) and "value" in m} \
        if isinstance(metrics, dict) else {}
    if not found:
        raise ValueError("run printed no metrics.<name>.value")
    return found


def measure(stdout, wall, keys, every):
    """{name: value} of one run: its metrics, else its wall clock."""
    if every:
        return all_metrics_of(stdout)
    if keys:
        return {k: metric_of(stdout, k) for k in keys}
    return {"s": wall}


def run_once(binary, args, keys=(), every=False):
    t0 = time.monotonic()
    proc = subprocess.run([*shlex.split(binary), *args],
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"{binary} exited with {proc.returncode}")
    return measure(proc.stdout, wall, keys, every)


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
    p.add_argument("--metric", action="append", default=[],
                   help="JSON field to compare; repeatable "
                   "(default: the run's wall-clock seconds)")
    p.add_argument("--all-metrics", action="store_true",
                   help="compare every metrics.<name>.value")
    p.add_argument("--higher-is-better", action="store_true",
                   help="higher is better for every metric")
    p.add_argument("--higher", action="append", default=[],
                   metavar="KEY", help="higher is better for KEY")
    args = p.parse_args(argv[:cut])
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if args.metric and args.all_metrics:
        p.error("--metric and --all-metrics exclude each other")
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
                                           args.command, args.metric,
                                           args.all_metrics))
            except (OSError, RuntimeError, ValueError) as e:
                sys.stderr.write(f"ab.py: {side} run {i + 1}: {e}\n")
                return 1
        names = list(runs["parent"][0])
        if any(list(r) != names for r in runs["parent"] + runs["change"]):
            sys.stderr.write(f"ab.py: pair {i + 1}: the runs printed "
                             "different metrics\n")
            return 1
        cells = [f"parent {runs['parent'][-1][k]:.4g} "
                 f"change {runs['change'][-1][k]:.4g}" for k in names]
        if len(names) > 1:
            cells = [f"{k} {c}" for k, c in zip(names, cells)]
        print(f"pair {i + 1}: " + "; ".join(cells), flush=True)
    for k in names:
        higher = args.higher_is_better or k in args.higher
        s = summarize([r[k] for r in runs["parent"]],
                      [r[k] for r in runs["change"]],
                      lower_is_better=not higher)
        if len(names) > 1:
            print(f"metric  {k} ({'higher' if higher else 'lower'} "
                  "is better)")
        print(report(s, k))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

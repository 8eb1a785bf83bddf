#!/usr/bin/env python3
"""The simulator benchmark: one workload, one seed, one measurement run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the simulator
library and the perfbench driver from source (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), makes
one untimed warm-up repetition, then starts one fresh perfbench process
per repetition until S seconds have passed, and reduces the
repetitions to medians.

BENCHMARK.json gates stream-replay and parsec-mp-sweep. canneal-amnt
and gups-strict run the same way but are not gated: on a shared host
their memory-bound host time drifts more than any useful bound.

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 runs
the traced driver and reports the per-layer metrics. Each repetition is
checked for correctness: zero integrity violations, exact instruction
counts, identical statsJson digests and RunResults across repetitions of
the seed, and (--trace 1) traced and untraced drivers reproducing
System::run exactly. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. Exit status: 0 on a
correct run, 1 when a correctness check failed, 2 when the benchmark
could not run at all (bad arguments, missing sources, build failure).

See perfbench/README.md for the workloads, metrics and seeds.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("canneal-amnt", "gups-strict", "stream-replay",
             "parsec-mp-sweep")

# Repetitions a run makes even when --seconds has already passed.
MIN_REPS = {0: 3, 1: 1}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_minstr_per_s": "Minstr/s",
    "peak_rss_mb": "MB",
    "sim_cpi": "cycles/instr",
}

LAYER_UNITS = {
    "os.age.s": "s",
    "mee.build.s": "s",
    "os.prefault.s": "s",
    "os.translate.ns": "ns",
    "os.translate.calls": "count",
    "mee.read.ns_p50": "ns",
    "mee.read.ns_p99": "ns",
    "mee.read.calls": "count",
    "mee.read.s": "s",
    "mee.write.ns_p50": "ns",
    "mee.write.ns_p99": "ns",
    "mee.write.calls": "count",
    "mee.write.s": "s",
    "cache.access.self_ns": "ns",
    "cache.access.calls": "count",
    "sim.workload.next.ns": "ns",
    "os.restructure.s": "s",
    "os.restructure.calls": "count",
    "sweep.busy_frac": "frac",
    "sim.driver.self.s": "s",
    "trace.overhead_frac": "frac",
    "sim.system.unattributed_frac": "frac",
}

MODELED_UNITS = {
    "cache.l1.hit_rate": "frac",
    "cache.l2.hit_rate": "frac",
    "cache.llc.hit_rate": "frac",
    "mee.mcache.hit_rate": "frac",
    "mee.meta_fetches_per_access": "fetch/access",
    "mee.persist_writes_per_write": "persist/write",
    "mee.meta_writebacks": "count",
    "mee.subtree.hit_rate": "frac",
    "mee.subtree.movements": "count",
    "nvm.reads": "count",
    "nvm.writes": "count",
    "os.page_faults": "count",
    "os.instructions": "count",
}


class BenchError(Exception):
    """The benchmark cannot run (not a correctness failure)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ------------------------------------------------------------ environment

def clean_environment():
    """Child environment without AMNT_* knobs, and the names removed.

    The simulator reads AMNT_SHARDS, AMNT_TRACE*, AMNT_OBS_TIMING,
    AMNT_CRYPTO_ISA/_BATCH, AMNT_SHARD_* and AMNT_SWEEP_THREADS, and the
    bench harnesses AMNT_BENCH_*; any of them would silently change what
    is measured, so all are cleared and recorded in the manifest.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("AMNT_")}
    cleared = sorted(k for k in os.environ if k.startswith("AMNT_"))
    return env, cleared


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(env):
    """Configure and build perfbench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = bdir / "CMakeCache.txt"
        if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" \
                not in cache.read_text():
            # Configured from another checkout: start over.
            for child in bdir.iterdir():
                if child.name != ".lock":
                    if child.is_dir():
                        shutil.rmtree(child)
                    else:
                        child.unlink()
        if not cache.is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_build_step(cmd, env)
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        run_build_step(["cmake", "--build", str(bdir), "-j", jobs], env)
    binary = bdir / "perfbench"
    if not binary.is_file():
        raise BenchError(f"build produced no {binary}")
    return binary


def run_build_step(cmd, env):
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def source_digest():
    """sha256 over the simulator sources and this benchmark's files."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_revision(env):
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


# ------------------------------------------------------------------ runs

def perfbench(binary, mode, args, env):
    """One perfbench process; returns its JSON report."""
    proc = subprocess.run([str(binary), mode, *args], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"perfbench {mode} exited {proc.returncode}")
    return json.loads(proc.stdout)


def stats_digest(stats):
    """Digest of a statsJson() document minus host-time keys."""
    kept = {k: v for k, v in stats.items() if not k.startswith("host.")}
    return hashlib.sha256(
        json.dumps(kept, sort_keys=True).encode()).hexdigest()


def data_accesses(stats):
    """MEE data reads + writes (warm-up included) from statsJson()."""
    return sum(v for k, v in stats.items()
               if k.startswith("mee.") and not k.startswith("mee.mcache.")
               and k.rsplit(".", 1)[-1] in ("data_reads", "data_writes"))


def check(reps, trace):
    """Correctness gate over every System of every repetition.

    Returns (attempted, failed, problems, digest). A System that fails
    a check counts all its MEE data accesses as failed; otherwise its
    integrity violations count.
    """
    attempted = failed = 0
    problems = []
    first = reps[0]["systems"]
    for r, rep in enumerate(reps):
        matches = rep.get("driver_match", [True] * len(rep["systems"]))
        for i, sysrun in enumerate(rep["systems"]):
            accesses = data_accesses(sysrun["stats"])
            attempted += accesses
            bad = []
            expect = rep["instructions"] * sysrun["cores"]
            if sysrun["result"]["app_instructions"] != expect:
                bad.append("instruction count")
            if sysrun["violations"] != 0 or \
                    sysrun["stats"].get("mee.violations", 0) != 0:
                bad.append("integrity violations")
            if stats_digest(sysrun["stats"]) != \
                    stats_digest(first[i]["stats"]):
                bad.append("statsJson digest differs from rep 0")
            if sysrun["result"] != first[i]["result"]:
                bad.append("RunResult differs from rep 0")
            if trace and not matches[i]:
                bad.append("driver RunResult differs from System::run")
            if accesses == 0:
                bad.append("no MEE data accesses")
            if bad:
                failed += max(accesses, 1)
                problems.append(
                    f"rep {r} {sysrun['label']}: {', '.join(bad)}")
            else:
                failed += sysrun["violations"]
    digest = hashlib.sha256("".join(
        stats_digest(s["stats"]) for s in first).encode()).hexdigest()
    return attempted, failed, problems, digest


def counter_sum(stats, prefix, suffix):
    return sum(v for k, v in stats.items()
               if k.startswith(prefix) and k.endswith(suffix)
               and isinstance(v, int))


def ratio(num, den):
    return num / den if den else 0.0


def modeled_metrics(rep):
    """Modeled counts from statsJson() and RunResult, summed over Systems."""
    totals = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for sysrun in rep["systems"]:
        st = sysrun["stats"]
        # Private levels dump as cache.<level>.<core>.*, a shared LLC as
        # cache.<level>.*. The LLC is the level whose misses go to the
        # MEE: the shared one when present, else the last private (l2).
        shared = sorted({k.split(".")[1] for k in st
                         if k.startswith("cache.") and k.count(".") == 2
                         and k.endswith(".hits")})
        llc = shared[0] if shared else "l2"
        for name, level in (("l1", "l1d"), ("l2", "l2"), ("llc", llc)):
            add(f"{name}.hits", counter_sum(st, f"cache.{level}.", ".hits"))
            add(f"{name}.misses",
                counter_sum(st, f"cache.{level}.", ".misses"))
        engine = [k for k in st if k.startswith("mee.")
                  and k.endswith(".data_reads")
                  and not k.startswith("mee.mcache.")]
        base = engine[0][: -len(".data_reads")]
        for c in ("data_reads", "data_writes", "meta_fetches",
                  "meta_writebacks", "persist_writes", "subtree_hits",
                  "subtree_misses", "subtree_movements"):
            add(c, st.get(f"{base}.{c}", 0))
        add("mcache.hits", st.get("mee.mcache.hits", 0))
        add("mcache.misses", st.get("mee.mcache.misses", 0))
        add("nvm.reads", st.get("nvm.reads", 0))
        add("nvm.writes", st.get("nvm.writes", 0))
        add("page_faults", counter_sum(st, "core", ".page_faults"))
        add("os_instructions", sysrun["result"]["os_instructions"])

    def hit_rate(name):
        return ratio(totals[f"{name}.hits"],
                     totals[f"{name}.hits"] + totals[f"{name}.misses"])

    accesses = totals["data_reads"] + totals["data_writes"]
    return {
        "cache.l1.hit_rate": hit_rate("l1"),
        "cache.l2.hit_rate": hit_rate("l2"),
        "cache.llc.hit_rate": hit_rate("llc"),
        "mee.mcache.hit_rate": hit_rate("mcache"),
        "mee.meta_fetches_per_access": ratio(totals["meta_fetches"],
                                             accesses),
        "mee.persist_writes_per_write": ratio(totals["persist_writes"],
                                              totals["data_writes"]),
        "mee.meta_writebacks": totals["meta_writebacks"],
        "mee.subtree.hit_rate": ratio(
            totals["subtree_hits"],
            totals["subtree_hits"] + totals["subtree_misses"]),
        "mee.subtree.movements": totals["subtree_movements"],
        "nvm.reads": totals["nvm.reads"],
        "nvm.writes": totals["nvm.writes"],
        "os.page_faults": totals["page_faults"],
        "os.instructions": totals["os_instructions"],
    }


def end_to_end_metrics(rep):
    """End-to-end metrics of one untraced repetition."""
    systems = rep["systems"]
    simulated = sum((rep["instructions"] + rep["warmup"]) * s["cores"]
                    for s in systems)
    cycles = sum(s["result"]["cycles"] for s in systems)
    roi = sum(s["result"]["app_instructions"] for s in systems)
    return {
        "setup_s": rep["setup_s"],
        "wall_s": rep["wall_s"],
        "sim_minstr_per_s": simulated / rep["run_s"] / 1e6,
        "peak_rss_mb": rep["peak_rss_kb"] / 1024.0,
        "sim_cpi": cycles / roi,
    }


def reduce_reps(per_rep):
    """Median over repetitions; peak_rss_mb takes the highest peak.

    Which sweep jobs overlap on the two workers, and so the process's
    peak, varies from repetition to repetition; the run reports the
    largest peak it saw.
    """
    return {k: max(r[k] for r in per_rep) if k == "peak_rss_mb"
            else statistics.median(r[k] for r in per_rep)
            for k in per_rep[0]}


def measure(binary, args, env):
    """Repetitions of one workload until --seconds have passed."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    out = build_dir() / "out"
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_file = out / f"{tag}.trc"
    if args.workload == "stream-replay":
        # Recording is set-up of the workload, not part of what is timed.
        common += ["--trace-file", str(trace_file)]
    mode = "trace" if args.trace else "e2e"
    spans = out / f"{args.workload}-{args.seed}.spans.json"
    extra = ["--spans-out", str(spans)] if args.trace else []
    reps = []
    try:
        if args.workload == "stream-replay":
            perfbench(binary, "record", common, env)
        # One untimed repetition first, so the binary, the trace and the
        # page cache are warm before the first timed one.
        perfbench(binary, mode, common + extra, env)
        start = time.monotonic()
        while (len(reps) < MIN_REPS[args.trace]
               or time.monotonic() - start < args.seconds):
            reps.append(perfbench(binary, mode, common + extra, env))
    finally:
        trace_file.unlink(missing_ok=True)
    return reps


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true",
                   help="pinned test lengths (benchmark self-tests only)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv):
    args = parse_args(argv)
    env, cleared = clean_environment()
    try:
        binary = build(env)
        reps = measure(binary, args, env)
    except BenchError as err:
        log(f"error: {err}")
        return 2

    attempted, failed, problems, digest = check(reps, args.trace)
    first = reps[0]
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(reps),
        "git_revision": git_revision(env),
        "source_sha256": source_digest(),
        "build_type": first["build_type"],
        "crypto_isa": first["isa"],
        "crypto_batch": first["batch"],
        "host_cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "sweep_workers": first["workers"],
        "instructions_per_core": first["instructions"],
        "warmup_per_core": first["warmup"],
        "cleared_env": cleared,
    }
    if args.trace:
        values = reduce_reps([r["layers"] for r in reps])
        values.update(modeled_metrics(first))
        units = {**LAYER_UNITS, **MODELED_UNITS}
    else:
        values = reduce_reps([end_to_end_metrics(r) for r in reps])
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    print(f"perfbench manifest: {json.dumps(manifest, sort_keys=True)}")
    print(f"perfbench digest {args.workload} seed {args.seed}: {digest}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac {ratio(failed, attempted):.6g} "
          f"({failed} of {attempted} MEE data accesses)")
    for problem in problems:
        print(f"perfbench: FAILED {problem}")
    correct = not problems and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (build_dir() / "out" / "last-result.json").write_text(
        json.dumps({"manifest": manifest, "result": result}, indent=1))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

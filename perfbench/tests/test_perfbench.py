"""Self-tests of the simulator benchmark.

    python3 -m unittest discover -s perfbench/tests -v

They build perfbench through run.py, exactly as a measurement run does,
then run every workload at the pinned --tiny lengths (200k instructions
per core after 100k of warm-up).
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, env=None, cwd=ROOT):
    """One tiny run.py invocation; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.01", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    return json.loads(lines[-1])


def manifest_of(lines):
    line = next(l for l in lines if l.startswith("perfbench manifest: "))
    return json.loads(line.split(": ", 1)[1])


class Spec(unittest.TestCase):
    def test_metric_names_are_valid_and_unique(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in SPEC[key]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)

    def test_spec_matches_what_run_py_emits(self):
        gated = [w["name"] for w in SPEC["workloads"]]
        self.assertGreaterEqual(len(gated), 2)
        self.assertLessEqual(set(gated), set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]},
                         {**run.LAYER_UNITS, **run.MODELED_UNITS})
        for w in SPEC["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(bounds["setup_s"], 0.25)


class TinyRuns(unittest.TestCase):
    def check_run(self, workload, trace, env=None):
        code, lines = bench(workload, trace, env)
        self.assertEqual(code, 0, "\n".join(lines[-10:]))
        result = result_of(lines)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in expected})
        for m in expected:
            value = result["metrics"][m["name"]]
            self.assertEqual(value["unit"], m["unit"])
            self.assertTrue(math.isfinite(value["value"]), m["name"])
        return result, lines

    def test_every_workload_passes_the_gate_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = self.check_run(workload, 0)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_every_workload_emits_every_layer_metric_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1)

    def test_traced_driver_reproduces_two_core_amntpp(self):
        env, _ = run.clean_environment()
        binary = run.build(env)
        report = run.perfbench(
            binary, "trace",
            ["--workload", "parsec-mp-sweep", "--seed", "7", "--tiny"], env)
        amntpp = [i for i, s in enumerate(report["systems"])
                  if s["label"].endswith("/amnt++")]
        self.assertEqual(len(amntpp), 3)
        for i in amntpp:
            self.assertEqual(report["systems"][i]["cores"], 2)
            self.assertTrue(report["driver_match"][i],
                            report["systems"][i]["label"])
        # The daemon tick ran, so restructure was replayed too.
        self.assertGreater(report["layers"]["os.restructure.calls"], 0)

    def test_amnt_environment_is_cleared_and_recorded(self):
        _, clean = bench("canneal-amnt", 0)
        env = dict(os.environ, AMNT_SHARDS="4", AMNT_CRYPTO_ISA="scalar",
                   AMNT_BENCH_INSTR="5000")
        result, lines = self.check_run("canneal-amnt", 0, env)
        self.assertEqual(manifest_of(lines)["cleared_env"],
                         ["AMNT_BENCH_INSTR", "AMNT_CRYPTO_ISA",
                          "AMNT_SHARDS"])
        digest = [l for l in lines if l.startswith("perfbench digest")]
        self.assertEqual(digest,
                         [l for l in clean if l.startswith("perfbench digest")])

    def test_binary_refuses_amnt_environment(self):
        env, _ = run.clean_environment()
        binary = run.build(env)
        proc = subprocess.run(
            [str(binary), "e2e", "--workload", "canneal-amnt", "--seed", "1",
             "--tiny"], env=dict(env, AMNT_OBS_TIMING="1"),
            capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class BareCheckout(unittest.TestCase):
    def test_fails_fast_without_simulator_sources(self):
        bare = run.build_dir().parent / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            code, lines = bench("canneal-amnt", 0, env, cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(l.startswith("{") for l in lines))


if __name__ == "__main__":
    unittest.main()

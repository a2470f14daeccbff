"""Smoke run of the benchmark on tiny task lists.

    python3 -m pytest -q bench/test_smoke.py

Each workload runs end to end through run.py with tiny sizes; the
result line must hold exactly correct, attempted, failed and metrics,
and name every metric in BENCHMARK.json.  A copy of the benchmark
without the sources must fail.
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@functools.lru_cache(maxsize=None)
def run(workload, trace, cwd=ROOT, seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=180)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    res = result(run(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    res = result(run("maxreg-cauchy", 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    vals = {k: v["value"] for k, v in res["metrics"].items()}
    assert vals["maxreg.cauchy_sweeps"] > 0 and vals["linops.expm_calls"] > 0
    assert vals["trace.self_sum_ratio"] <= 1.0


def test_known_defects_fail_the_recorded_way():
    proc = run("cli-configs", 0)
    res = result(proc)
    info = json.loads(proc.stdout.strip().splitlines()[-2])
    known = {f["known_defect"] for f in info["failures"]}
    assert res["correct"] and None not in known
    assert known <= {"sum-commuting-pairs", "sum-identities-laplacian",
                     "hinf-cayley-laplacian", "malformed-csv", "missing-matrix"}


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run("sector-ladder", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

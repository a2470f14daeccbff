"""sectorsum benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (it imports ``src/sectorsum``;
nothing is installed).  Every workload runs in fresh child processes,
one at a time, with the BLAS thread variables removed so the library's
own default decides, or set to 1 where the workload says so.

--trace 0 prints the end-to-end metrics: set-up time (median of several
set-ups), tasks per second of program time, median and tail task
latency, the share of tasks that passed their oracle, and peak RSS.
Times are scaled to a nominal host speed by a probe the children time
between tasks (PROBE_NOMINAL_S).
--trace 1 prints the per-layer metrics of a traced pass over the same
tasks as an untraced one, plus the tracing overhead and a single-thread
reference pass of sector-ladder.

The last stdout line is the result object; earlier lines carry the
environment record and the per-class breakdown.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

from scipy.stats.mstats import hdquantiles

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
WORKER = os.path.join(BENCH, "worker.py")

SETUPS = 3                # set-ups per run; setup_s is their median
# speed-probe times (worker.speed_probe) that the reported times are
# scaled to; on a 2-vCPU Xeon (Sapphire Rapids) KVM guest the probes take
# 3-5 ms and 2-3 ms
PROBE_NOMINAL_S = {"interp": 0.004, "lapack": 0.0025}
RUN_BUDGET_S = 170.0      # every child is killed past this point of the run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "SECTORSUM_THREADS")


class BenchError(Exception):
    pass


def child_env(threads: int | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    if threads is not None:
        for var in THREAD_VARS[:3]:
            env[var] = str(threads)
    return env


def spawn(args: list[str], deadline: float, env: dict) -> dict:
    """Start one worker, time it to READY, and return its parsed result
    (with ``setup_s`` added).  The child is killed at the run deadline."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("run time budget exhausted")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=env, cwd=ROOT, text=True)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        probe = proc.stdout.readline().split(maxsplit=1)
        out = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "READY" or probe[:1] != ["PROBE"]:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["setup_s"] = setup_s
    result["setup_probe_s"] = json.loads(probe[1])
    return result


def worker_args(ns, mode: str, **opts) -> list[str]:
    args = ["--workload", opts.pop("workload", ns.workload), "--seed", str(ns.seed),
            "--mode", mode]
    for key, val in opts.items():
        args += [f"--{key.replace('_', '-')}", str(val)]
    return args + (["--tiny"] if ns.tiny else [])


def class_table(records) -> dict:
    table = {}
    for r in records:
        row = table.setdefault(r["cls"], {"n": 0, "lat": [], "failed": 0})
        row["n"] += 1
        row["lat"].append(r["lat"])
        row["failed"] += not r["ok"]
    return {k: {"n": v["n"], "median_s": statistics.median(v["lat"]), "failed": v["failed"]}
            for k, v in sorted(table.items())}


def failures(records) -> list[dict]:
    return [{"cls": r["cls"], "known_defect": r["defect"] if r["known"] else None,
             "error": r["error"]} for r in records if not r["ok"]]


def untraced(ns, wl, deadline) -> tuple[dict, list, dict]:
    env = child_env(wl.blas_threads)
    children = [spawn(worker_args(ns, "setup"), deadline, env) for _ in range(SETUPS - 1)]
    main = spawn(worker_args(ns, "run", seconds=ns.seconds, min_tasks=wl.n_min),
                 deadline, env)
    children.append(main)
    # times are scaled to the nominal host speed: set-up by the probe its
    # child timed right after it, tasks by the run's median probe
    kind = wl.speed_probe

    def speed_scale(probe: dict) -> float:
        return PROBE_NOMINAL_S[kind] / probe[kind] if kind else 1.0

    setups = [c["setup_s"] * speed_scale(c["setup_probe_s"]) for c in children]
    recs = main["records"]
    probe_s = {k: statistics.median(r["probe"][k] for r in recs) for k in PROBE_NOMINAL_S}
    scale = speed_scale(probe_s)
    lat = [r["lat"] * scale for r in recs]
    # Harrell-Davis estimates: Beta-weighted averages of the order
    # statistics around each percentile, steadier than a single one
    p50, tail = (float(q) for q in hdquantiles(lat, prob=[0.5, wl.tail_percentile / 100.0]))
    by_cls: dict = {}
    for r, t in zip(recs, lat):
        by_cls.setdefault(r["cls"], []).append(t)
    # busy time with each size class at its median latency, so a few
    # stalled tasks do not move the throughput
    busy = sum(len(v) * statistics.median(v) for v in by_cls.values())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (len(lat) / busy, "1/s"),
        "task_p50_s": (p50, "s"),
        "task_tail_s": (tail, "s"),
        "pass_frac": (sum(r["ok"] for r in recs) / len(recs), "ratio"),
        "peak_rss_mb": (main["maxrss_kb"] / 1024.0, "MB"),
    }
    info = {"tasks": len(recs), "tail_percentile": wl.tail_percentile,
            "probe": kind, "probe_median_s": probe_s, "speed_scale": scale,
            "setups_s": setups, "setups_unscaled_s": [c["setup_s"] for c in children],
            "classes": class_table(recs), "failures": failures(recs),
            "environment": main["environment"]}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, recs, info


def err_to_tol(records, layer: str) -> float:
    vals = [r["ratio"] for r in records if r["layer"] == layer and r["ratio"] is not None]
    return max(vals, default=0.0)


def traced(ns, wl, deadline) -> tuple[dict, list, dict]:
    from tracer import LAYERS, finish

    env = child_env(wl.blas_threads)
    trace_dir = os.path.join(WORK, f"trace-{ns.workload}-{ns.seed}")
    plain = spawn(worker_args(ns, "run", seconds=ns.seconds / 4, min_tasks=wl.round_tasks),
                  deadline, env)
    n = len(plain["records"])
    spans = spawn(worker_args(ns, "run", max_tasks=n, trace=trace_dir), deadline, env)
    ref = {}
    for label, threads in (("default", None), ("1thread", 1)):
        res = spawn(worker_args(ns, "reference", workload="sector-ladder"), deadline,
                    child_env(threads))
        ref[label] = sum(r["lat"] for r in res["records"])

    recs_u, recs_t = plain["records"], spans["records"]
    t_u = sum(r["lat"] for r in recs_u)
    t_t = sum(r["lat"] for r in recs_t)
    layer = finish(spans["trace"])
    self_sum = sum(layer[f"{lay}.self_s"] for lay in LAYERS)
    cli = [r for r in recs_u if r["expected_exit"] is not None]
    pools = plain["environment"]["blas"]
    vals = dict(layer)
    vals.update({
        "linops.wall_1thread_s": ref["1thread"],
        "linops.wall_default_s": ref["default"],
        "sector.nonnormal_share": sum(r["nonnormal"] for r in recs_t) / n,
        "cli.child_s": sum(r["lat"] for r in cli),
        "cli.wrong_exit_codes": sum(r["exit"] != r["expected_exit"] for r in cli),
        "trace.tasks": n,
        "trace.tasks_per_s_untraced": n / t_u,
        "trace.tasks_per_s_traced": n / t_t,
        "trace.overhead_frac": 1.0 - t_u / t_t,
        "trace.untraced_task_s": t_u,
        "trace.overhead_s": t_t - t_u,
        "trace.self_sum_s": self_sum,
        "trace.self_sum_ratio": self_sum / t_t,   # untraced time plus overhead
        "env.nproc": plain["environment"]["nproc"],
        "env.blas_threads_numpy": pools.get("numpy", {}).get("threads", 0),
        "env.blas_threads_scipy": pools.get("scipy", {}).get("threads", 0),
    })
    for lay in ("sector", "calculus", "sums", "tsector", "maxreg"):
        vals[f"{lay}.err_to_tol_max"] = err_to_tol(recs_u + recs_t, lay)
    units = per_layer_units()
    metrics = {k: {"value": float(vals[k]), "unit": units[k]} for k in units}
    info = {"tasks": n, "failures": failures(recs_t), "environment": plain["environment"],
            "spans_file": os.path.relpath(trace_dir, ROOT)}
    return metrics, recs_u + recs_t, info


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None) -> int:
    sys.path.insert(0, BENCH)
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes (smoke test)")
    ns = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not os.path.isfile(os.path.join(ROOT, "src", "sectorsum", "cli.py")):
        print(f"no sectorsum sources under {ROOT}/src: run from a source checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[ns.workload](ns.seed, tiny=ns.tiny)
    deadline = time.perf_counter() + RUN_BUDGET_S
    try:
        metrics, records, info = (traced if ns.trace else untraced)(ns, wl, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    unexpected = [r for r in records if not r["ok"] and not r["known"]]
    info = {"workload": ns.workload, "seed": ns.seed, "trace": ns.trace, **info}
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"result-{ns.workload}-{ns.seed}-{ns.trace}.json"), "w") as fh:
        json.dump({**info, "records": records}, fh)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(unexpected),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

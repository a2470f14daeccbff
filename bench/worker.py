"""One workload child: set up inputs, report READY, run tasks, print records.

Started by run.py, never by hand:

    worker.py --workload NAME --seed N --mode {setup,run,reference}
              [--seconds S] [--min-tasks K] [--max-tasks N] [--trace DIR] [--tiny]

``setup`` exits right after READY (set-up timing only); ``run`` runs tasks
until ``--seconds`` have passed and at least ``--min-tasks`` ran (or
exactly ``--max-tasks``); ``reference`` runs one fixed round.  The last
stdout line is a JSON object with one record per task.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")


def own_peak_rss_kb() -> int:
    """Peak RSS of this process since exec (VmHWM).  ru_maxrss would also
    carry the parent's RSS at the moment it spawned this process."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


_PROBE_MATRIX = None


def speed_probe() -> dict:
    """Seconds for two fixed chunks of work: an interpreter loop, and two
    SVDs and solves of a 64 x 64 complex matrix.

    Timed after set-up and before every task, they follow the host's
    speed (on a shared host the same code runs up to half slower for
    minutes at a time); run.py scales the run's times by the one that
    tracks the workload's own work."""
    global _PROBE_MATRIX
    import numpy as np

    if _PROBE_MATRIX is None:
        rng = np.random.default_rng(0)
        _PROBE_MATRIX = (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
                         + 8 * np.eye(64))
    P = _PROBE_MATRIX
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30000):
        acc += (i * 0.5) % 7.0
    t1 = time.perf_counter()
    for _ in range(2):
        np.linalg.svd(P, compute_uv=False)
        np.linalg.solve(P, P)
    t2 = time.perf_counter()
    return {"interp": t1 - t0, "lapack": t2 - t1}


def run_tasks(tasks, seconds, min_tasks, max_tasks, tracer):
    from workloads import OracleMismatch

    records = []
    t_start = time.perf_counter()
    for task in tasks:
        n = len(records)
        if max_tasks and n >= max_tasks:
            break
        if n >= min_tasks and time.perf_counter() - t_start >= seconds:
            break
        error, ratio, out = None, None, None
        # as timeit does: collect garbage between tasks, not inside one
        gc.collect()
        probe = speed_probe()
        if tracer is not None:
            tracer.enabled = True
        gc.disable()
        t0 = time.perf_counter()
        try:
            out = task.call()
        except Exception as exc:  # noqa: BLE001 - a failing task is recorded, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        lat = time.perf_counter() - t0
        gc.enable()
        if tracer is not None:
            tracer.enabled = False
        if error is None:
            try:
                ratio = float(task.check(out))
                if not ratio <= 1.0:
                    error = f"oracle error {ratio:.3g} x tolerance"
            except OracleMismatch as exc:
                error = f"oracle: {exc}"
            except Exception:  # noqa: BLE001 - an unreadable output fails the task
                error = "oracle check raised: " + traceback.format_exc(limit=2).strip()
        exit_code = out[0].returncode if task.expected_exit is not None and out else None
        records.append({
            "kind": task.kind, "cls": task.cls, "layer": task.layer, "lat": lat, "probe": probe,
            "ok": error is None, "ratio": ratio, "error": error,
            "nonnormal": task.nonnormal, "defect": task.defect, "exit": exit_code,
            "expected_exit": task.expected_exit,
            "known": bool(error and task.seed_failure and task.seed_failure(out, ratio, error)),
        })
    return records


def die_with_parent() -> None:
    """Ask Linux to send SIGTERM to this worker if run.py goes away."""
    import ctypes
    import signal

    PR_SET_PDEATHSIG = 1
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)


def main(argv=None) -> int:
    die_with_parent()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "reference"), required=True)
    ap.add_argument("--seconds", type=float, default=math.inf)
    ap.add_argument("--min-tasks", type=int, default=1)
    ap.add_argument("--max-tasks", type=int, default=0)
    ap.add_argument("--trace", default=None, help="directory for span files")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    import sectorsum

    src = os.path.join(ROOT, "src", "sectorsum")
    if os.path.dirname(os.path.abspath(sectorsum.__file__)) != src:
        print(f"sectorsum imported from {sectorsum.__file__}, not {src}", file=sys.stderr)
        return 3

    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    kwargs = {}
    workdir = None
    if cls.name == "cli-configs":
        workdir = os.path.join(WORK, f"cli-{args.seed}-{os.getpid()}")
        env = dict(os.environ, SECTORSUM_THREADS="1")
        kwargs = {"workdir": workdir, "env": env}
        if args.trace:
            shutil.rmtree(args.trace, ignore_errors=True)
            kwargs["cli_prefix"] = [sys.executable, os.path.join(BENCH, "cli_child.py"),
                                    args.trace]
    wl = cls(args.seed, tiny=args.tiny, **kwargs)
    try:
        wl.setup()
        print("READY", flush=True)
        probes = [speed_probe() for _ in range(5)]
        print("PROBE", json.dumps({k: sorted(p[k] for p in probes)[2] for k in probes[0]}),
              flush=True)
        if args.mode == "setup":
            return 0

        tracer = None
        if args.trace and workdir is None:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        tasks = wl.reference_tasks() if args.mode == "reference" else wl.tasks()
        records = run_tasks(tasks, args.seconds, args.min_tasks, args.max_tasks, tracer)

        import envinfo

        result = {
            "records": records,
            "environment": envinfo.record(),
            "maxrss_kb": max(own_peak_rss_kb(),
                             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
        }
        if tracer is not None:
            result["trace"] = tracer.summary()
            os.makedirs(args.trace, exist_ok=True)
            tracer.save(os.path.join(args.trace, "spans.npz"))
        elif args.trace:
            import glob

            from tracer import merge

            children = []
            for path in sorted(glob.glob(os.path.join(args.trace, "*.json"))):
                with open(path) as fh:
                    children.append(json.load(fh))
            result["trace"] = merge(children)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

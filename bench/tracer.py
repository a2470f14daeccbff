"""Span tracing of sectorsum from outside the package.

``Tracer.install()`` wraps every public function of the traced modules,
plus a few class methods, and rebinds each wrapped name in every
``sectorsum.*`` module that imported it, so calls made through
``from .contour import dunford`` style imports are seen too.  A span
records name, start, end and parent; spans stay in flat in-memory arrays
until ``summary()`` and ``save()`` run at exit.

Counters that need arguments or results (node counts, tail estimates,
distinct shifts, flop estimates) are taken at the same call boundary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("linops", "sector", "contour", "calculus", "sums", "tsector", "maxreg",
          "harness", "reports", "cli")

# public methods traced besides the module-level functions
METHODS = {
    "linops": {"ShiftedFactorization": ("__init__", "solve", "inverse")},
    "sector": {"MatrixOperator": ("norm", "inverse_norm")},
    "calculus": {"ImaginaryPowerFamily": ("__init__", "at")},
    "reports": {"CertificateReport": ("save", "to_json", "payload_json", "from_json", "load")},
}

FACTOR = "linops.ShiftedFactorization.__init__"
NORM = "linops.operator_norm"
EXPM = "linops.expm"
DUNFORD = "contour.dunford"
MAXREG_CONSTANT = "maxreg.maxreg_constant"


# flop estimates for complex double precision (4 real flops per complex
# multiply-add pair): LU, triangular solves with k right-hand sides, and
# the singular values behind a spectral norm
def lu_flops(n):
    return 8.0 / 3.0 * n ** 3


def solve_flops(n, k):
    return 8.0 * n * n * k


def svd_flops(n):
    return 32.0 / 3.0 * n ** 3


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.enabled = False
        self.failed = defaultdict(int)
        self.counters = defaultdict(float)
        self.shift_keys: set = set()

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
        return self._ids[name]

    def wrap(self, fn, name: str, layer: str, observe=None):
        nid = self._name_id(name, layer)
        layer_id = LAYERS.index(layer)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            parent = self.stack[-1] if self.stack else -1
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_end.append(0.0)
            self.stack.append(idx)
            self.span_start.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.span_end[idx] = perf()
                self.stack.pop()
                outer = self.name_layer[self.span_name[parent]] if parent >= 0 else -1
                if outer != layer_id:
                    self.failed[layer] += 1
                if observe is not None:
                    observe(args, kwargs, None, exc)
                raise
            self.span_end[idx] = perf()
            self.stack.pop()
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        return traced

    # ----------------------------------------------------------- observers

    def _observe_factor(self, args, kwargs, result, exc):
        M = np.asarray(args[1])
        z = complex(args[2] if len(args) > 2 else kwargs["z"])
        n = M.shape[0]
        if exc is not None:
            if type(exc).__name__ == "SingularShift":
                self.counters["singular_shifts"] += 1
            return
        self.counters["gflop"] += lu_flops(n) * 1e-9
        self.shift_keys.add((hash(M.tobytes()), M.shape, z))

    def _observe_solve(self, args, kwargs, result, exc):
        if exc is None:
            rhs = np.asarray(result)
            n = rhs.shape[0]
            k = rhs.shape[1] if rhs.ndim > 1 else 1
            self.counters["gflop"] += solve_flops(n, k) * 1e-9

    def _observe_norm(self, args, kwargs, result, exc):
        n = np.shape(args[0])[0]
        if exc is None and n <= 128:
            self.counters["gflop"] += svd_flops(n) * 1e-9

    def _observe_dunford(self, args, kwargs, result, exc):
        if exc is not None:
            return
        self.counters["nodes"] += result.n_nodes
        tol = kwargs.get("tol_tail", args[3] if len(args) > 3 else None)
        if tol:
            key = "tail_to_tol_max"
            self.counters[key] = max(self.counters[key], result.tail_estimate / tol)

    # -------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap the traced functions and rebind them in every sectorsum
        module (and scipy.linalg.expm, which maxreg calls directly)."""
        import scipy.linalg

        observers = {
            FACTOR: self._observe_factor,
            "linops.ShiftedFactorization.solve": self._observe_solve,
            NORM: self._observe_norm,
            DUNFORD: self._observe_dunford,
        }
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"sectorsum.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                replace[id(obj)] = (obj, self.wrap(obj, name, layer, observers.get(name)))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    raw = inspect.getattr_static(cls, meth)
                    if isinstance(raw, classmethod):
                        traced = classmethod(self.wrap(raw.__func__, name, layer))
                    else:
                        traced = self.wrap(raw, name, layer, observers.get(name))
                    setattr(cls, meth, traced)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sectorsum" or mod_name.startswith("sectorsum.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    setattr(mod, attr, replace[id(obj)][1])
        scipy.linalg.expm = self.wrap(scipy.linalg.expm, EXPM, "linops")

    # -------------------------------------------------------------- summary

    def arrays(self):
        return (np.array(self.span_name, dtype=np.int64),
                np.array(self.span_parent, dtype=np.int64),
                np.array(self.span_start), np.array(self.span_end))

    def summary(self) -> dict:
        """Raw per-layer sums (calls, self time, escaped exceptions) and
        layer counters computed from the recorded spans; keys starting
        with "_" are the parts ``finish()`` turns into ratios."""
        name, parent, start, end = self.arrays()
        n = len(name)
        layer_of_name = np.array(self.name_layer + [0], dtype=np.int64)
        layer = layer_of_name[name] if n else np.zeros(0, dtype=np.int64)
        dur = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        out = {"spans": n}
        for i, lay in enumerate(LAYERS):
            mask = layer == i
            out[f"{lay}.calls"] = int(mask.sum())
            out[f"{lay}.self_s"] = float(self_t[mask].sum())
            out[f"{lay}.failed"] = int(self.failed.get(lay, 0))

        def by_name(key):
            nid = self._ids.get(key)
            return (name == nid) if nid is not None else np.zeros(n, dtype=bool)

        factor = by_name(FACTOR)
        out["linops.factorizations"] = int(factor.sum())
        out["linops.factor_s"] = float(dur[factor].sum())
        out["linops.norm_calls"] = int(by_name(NORM).sum())
        out["linops.norm_s"] = float(dur[by_name(NORM)].sum())
        out["linops.expm_calls"] = int(by_name(EXPM).sum())
        out["linops.expm_s"] = float(dur[by_name(EXPM)].sum())
        out["linops.gflop_computed"] = float(self.counters["gflop"])
        out["linops.singular_shifts"] = int(self.counters["singular_shifts"])
        out["_distinct_shifts"] = len(self.shift_keys)
        out["contour.dunford_calls"] = int(by_name(DUNFORD).sum())
        out["contour.nodes"] = int(self.counters["nodes"])
        out["contour.pv_calls"] = int(by_name("contour.pv_integral").sum())
        out["contour.tail_to_tol_max"] = float(self.counters["tail_to_tol_max"])
        out["calculus.family_builds"] = int(by_name("calculus.ImaginaryPowerFamily.__init__").sum())
        out["calculus.family_at_calls"] = int(by_name("calculus.ImaginaryPowerFamily.at").sum())
        out["sums.sum_inverse_calls"] = int(by_name("sums.sum_inverse").sum())
        out["maxreg.cauchy_sweeps"] = int(by_name("maxreg.solve_cauchy").sum()
                                          + by_name("maxreg.solve_cauchy_adjoint").sum())

        # walk parents once (parents precede children): nearest enclosing
        # non-linops layer, and whether a maxreg_constant call encloses
        linops_id = LAYERS.index("linops")
        mc_id = self._ids.get(MAXREG_CONSTANT, -2)
        owner = np.full(n, -1, dtype=np.int64)
        in_mc = np.zeros(n, dtype=bool)
        name_l, parent_l, layer_l = name.tolist(), parent.tolist(), layer.tolist()
        owner_l, in_mc_l = owner.tolist(), in_mc.tolist()
        for i in range(n):
            p = parent_l[i]
            if p >= 0:
                owner_l[i] = layer_l[p] if layer_l[p] != linops_id else owner_l[p]
                in_mc_l[i] = in_mc_l[p] or name_l[p] == mc_id
        owner, in_mc = np.array(owner_l, dtype=np.int64), np.array(in_mc_l, dtype=bool)
        sector_id = LAYERS.index("sector")
        shifts = int((factor & (owner == sector_id)).sum())
        sector_entry = (layer == sector_id) & ~(
            has_parent & (layer[np.maximum(parent, 0)] == sector_id))
        sector_s = float(dur[sector_entry].sum())
        out["sector.shifts"] = shifts
        out["_sector_s"] = sector_s
        out["_maxreg_constants"] = int((by_name(MAXREG_CONSTANT) & ~in_mc).sum())
        out["_maxreg_expm"] = int((by_name(EXPM) & in_mc).sum())
        return out

    def save(self, path: str) -> None:
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, name=name, parent=parent, start=start, end=end,
                            names=np.array(self.names))


def merge(summaries: list[dict]) -> dict:
    """Sum the raw summaries of several traced processes (CLI children)."""
    out: dict = {}
    for s in summaries:
        for key, val in s.items():
            out[key] = max(out.get(key, 0.0), val) if key.endswith("_max") else out.get(key, 0) + val
    return out


def finish(raw: dict) -> dict:
    """Public per-layer metrics from a raw (possibly merged) summary."""
    out = {k: v for k, v in raw.items() if not k.startswith("_")}
    fac = raw.get("linops.factorizations", 0)
    out["linops.distinct_shift_ratio"] = raw.get("_distinct_shifts", 0) / fac if fac else 1.0
    sec = raw.get("_sector_s", 0.0)
    out["sector.shifts_per_s"] = raw.get("sector.shifts", 0) / sec if sec > 0 else 0.0
    mc = raw.get("_maxreg_constants", 0)
    out["maxreg.expm_per_constant"] = raw.get("_maxreg_expm", 0) / mc if mc else 0.0
    return out

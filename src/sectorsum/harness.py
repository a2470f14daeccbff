"""Operator generators, experiment configs, and pipeline runners.

Recipes generate certified test operators deterministically from their
parameters (and a seed where randomness is involved).  Experiments are
JSON configs with a versioned schema and strict key checking: unknown
keys are rejected so archived runs stay auditable.  Every pipeline is
one function in :data:`PIPELINES`; ``run --config`` and the direct CLI
subcommands both go through :func:`run_config`.  A pipeline imports the
modules it runs when it is called, so a process loads only those.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import linops
from .errors import ConfigInvalid, InvalidRecipe
from .reports import CertificateReport
from .sector import MatrixOperator, SectorSampling, _sampled_sup, certify_sector

SCHEMA_VERSION = 1
DEFAULT_SEED = 0xC0FFEE
# a config's operator has its largest entry modulus in [1/_ENTRY_LIMIT,
# _ENTRY_LIMIT] (or is zero): the squares in its norms, and the contour
# radii that its spectrum sets, stay within the double range
_ENTRY_LIMIT = 1e150
# the largest dimension (a dense complex matrix of 64 MiB), sampling count
# and time-step count a config may set: no array they size outgrows memory
_DIM_LIMIT = 2048
_SAMPLES_LIMIT = 1024
_STEPS_LIMIT = 65536


def generate(kind: str, certify_angle: float | None = None, seed: int = DEFAULT_SEED,
             **params) -> MatrixOperator:
    """Deterministic certified operator from a recipe.

    kinds and parameters:
      diag-positive   entries=list | (n=4, spread=10.0)
      diag-rotated    psi=pi/4 plus the diag-positive parameters
      jordan          a=2.0, size=2
      laplacian-1d    m=8  (gives (m+1)^2 tridiag(-1, 2, -1), m x m)
      commuting-pair  role="a"|"b", n=4, spread=4.0 (shared seeded basis)
    """
    return _load_operator({"recipe": {"kind": kind, **params}}, theta=certify_angle, seed=seed)


def _recipe_matrix(kind: str, seed: int = DEFAULT_SEED, **params) -> tuple[np.ndarray, float]:
    """The matrix of a recipe (see :func:`generate`) and its default
    certification angle, without certifying it."""
    rng = np.random.default_rng(seed)
    if kind == "diag-positive":
        entries = _field(params, "entries", _entries, None)
        n = _field(params, "n", _integer, 4, lo=1, hi=_DIM_LIMIT)
        spread = _field(params, "spread", float, 10.0, lo=0.0, ends="()")
        _no_extra(kind, params, "entries", "n", "spread")
        d = entries if entries is not None else np.geomspace(1.0, spread, n)
        if np.any(d <= 0):
            raise InvalidRecipe("diag-positive entries must be positive")
        return np.diag(d.astype(complex)), 0.9 * np.pi
    if kind == "diag-rotated":
        psi = _field(params, "psi", float, np.pi / 4)
        entries = _field(params, "entries", _entries, None)
        n = _field(params, "n", _integer, 3, lo=1, hi=_DIM_LIMIT)
        _no_extra(kind, params, "psi", "entries", "n")
        if not (abs(psi) < np.pi):
            raise InvalidRecipe("rotation psi must satisfy |psi| < pi")
        d = entries if entries is not None else np.arange(1.0, n + 1.0)
        return np.diag(np.exp(1j * psi) * d), 0.95 * (np.pi - abs(psi))
    if kind == "jordan":
        a = _field(params, "a", complex, 2.0)
        size = _field(params, "size", _integer, 2, lo=1, hi=_DIM_LIMIT)
        _no_extra(kind, params, "a", "size")
        if a == 0:
            raise InvalidRecipe("jordan needs a != 0")
        return a * np.eye(size, dtype=complex) + np.diag(np.ones(size - 1), 1), 0.75 * np.pi
    if kind == "laplacian-1d":
        m = _field(params, "m", _integer, 8, lo=1, hi=_DIM_LIMIT)
        _no_extra(kind, params, "m")
        M = (m + 1) ** 2 * (
            2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
        ).astype(complex)
        return M, 0.9 * np.pi
    if kind == "commuting-pair":
        role = params.get("role", "a")
        n = _field(params, "n", _integer, 4, lo=1, hi=_DIM_LIMIT)
        spread = _field(params, "spread", float, 4.0, lo=0.0, ends="()")
        _no_extra(kind, params, "role", "n", "spread")
        if role not in ("a", "b"):
            raise InvalidRecipe(f"commuting-pair role must be 'a' or 'b', got {role!r}")
        Q, _ = np.linalg.qr(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )
        d = np.geomspace(1.0, spread, n) if role == "a" else np.geomspace(1.5, 2.0 * spread, n)
        return Q @ np.diag(d.astype(complex)) @ Q.conj().T, 0.85 * np.pi
    raise InvalidRecipe(f"unknown recipe kind {kind!r}")


def _field(cfg: dict, key: str, kind, default, lo=None, hi=None, ends="[]"):
    """``kind(cfg[key])``, or ``default`` when the key is absent.

    A value that ``kind`` rejects is a config error, and so is a value
    with a non-finite or, given ``lo`` or ``hi``, an out-of-range entry:
    entries must lie between lo and hi, each end closed or open as
    ``ends`` says ("[]", "()", "[)" or "(]")."""
    if key not in cfg:
        return default
    try:
        value = kind(cfg[key])
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"invalid {key!r}: {cfg[key]!r} ({exc})") from exc
    entries = np.asarray(value)
    if entries.dtype.kind in "fc" and not np.isfinite(entries).all():
        raise ConfigInvalid(f"invalid {key!r}: {cfg[key]!r} is not finite")
    if ((lo is not None and np.any(entries < lo if ends[0] == "[" else entries <= lo))
            or (hi is not None and np.any(entries > hi if ends[1] == "]" else entries >= hi))):
        left = "(-inf" if lo is None else f"{ends[0]}{lo:g}"
        right = "inf)" if hi is None else f"{hi:g}{ends[1]}"
        raise ConfigInvalid(f"invalid {key!r}: {cfg[key]!r} outside {left}, {right}")
    return value


def _angle(cfg: dict, key: str):
    """The certification angle cfg[key], in [0, pi), or None when absent."""
    return _field(cfg, key, float, None, lo=0.0, hi=np.pi, ends="[)")


def _integer(v) -> int:
    """int(v) for an integral value: 2.5 is a config error, not 2."""
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def _entries(v) -> np.ndarray:
    """The diagonal of a diag recipe: a nonempty list of numbers."""
    d = np.array(v, dtype=float)
    if d.ndim != 1 or not d.size:
        raise ValueError("entries must be a nonempty list of numbers")
    return d


def _decaying_weight(v) -> complex:
    """complex(re, im) for a weight of the identities, which need Re w < 0."""
    w = complex(*v)
    if w.real >= 0:
        raise ValueError("the weighted identities need Re w < 0")
    return w


def _sizes(v) -> list[int]:
    if not isinstance(v, list) or not v:
        raise ValueError("sizes must be a nonempty list")
    return [_integer(s) for s in v]


def _no_extra(kind, params, *known):
    unknown = set(params) - set(known)
    if unknown:
        raise InvalidRecipe(f"unknown parameters for {kind}: {sorted(unknown)}")


def laplacian_eigenvalues(m: int) -> np.ndarray:
    """Closed-form Dirichlet eigenvalues 4 (m+1)^2 sin^2(k pi / (2(m+1)))."""
    k = np.arange(1, m + 1)
    return 4.0 * (m + 1) ** 2 * np.sin(k * np.pi / (2.0 * (m + 1))) ** 2


# ----------------------------------------------------------------- configs

_COMMON_KEYS = {"schema_version", "pipeline", "seed", "out_prefix"}
_PIPELINE_KEYS = {
    "certify": {"matrix", "recipe", "theta", "sampling"},
    "power": {"matrix", "recipe", "re", "im", "theta"},
    "hinf": {"matrix", "recipe", "symbol", "theta"},
    "sum": {"matrix_a", "matrix_b", "recipe_a", "recipe_b", "theta_a", "theta_b",
            "check_identities", "certify"},
    "t-sector": {"matrix", "recipe", "phi", "r", "p", "n", "family", "N_t", "theta"},
    "rep-check": {"matrix", "recipe", "rho", "theta"},
    "maxreg": {"matrix", "recipe", "tau", "p", "nt", "sweep_p", "refine"},
    "sweep": {"kind", "sizes", "tau", "p", "nt"},
}

_REQUIRED_KEYS = {"certify": {"theta"}, "hinf": {"symbol"}, "rep-check": {"rho"}}


def validate_config(cfg: dict) -> dict:
    """Strict schema check; unknown fields rejected, required ones enforced."""
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config must be a JSON object")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigInvalid(
            f"schema_version must be {SCHEMA_VERSION}, got {cfg.get('schema_version')!r}"
        )
    pipeline = cfg.get("pipeline")
    if pipeline not in PIPELINES:
        raise ConfigInvalid(f"pipeline must be one of {tuple(PIPELINES)}, got {pipeline!r}")
    allowed = _COMMON_KEYS | _PIPELINE_KEYS[pipeline]
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigInvalid(f"unknown config fields: {sorted(unknown)}")
    missing = _REQUIRED_KEYS.get(pipeline, set()) - set(cfg)
    if missing:
        raise ConfigInvalid(f"missing required fields: {sorted(missing)}")
    # every operator a pipeline takes comes from a matrix file or a recipe
    for side in ("", "_a", "_b"):
        group = {"matrix" + side, "recipe" + side}
        if group <= allowed and not group & set(cfg):
            raise ConfigInvalid(f"config needs one of {sorted(group)}")
    return cfg


def _load_operator(cfg: dict, key_matrix="matrix", key_recipe="recipe", theta=None,
                   seed=DEFAULT_SEED, sampling=None) -> MatrixOperator:
    """The operator a config names, from a matrix file (certified by
    default at 0.75 pi on the standard sampling) or a recipe (at its own
    angle on a coarser one), certified once."""
    op, default_angle, default_sampling = _read_operator(cfg, key_matrix, key_recipe, seed)
    certify_sector(op, default_angle if theta is None else float(theta),
                   sampling or default_sampling)
    return op


def _read_operator(cfg: dict, key_matrix="matrix", key_recipe="recipe", seed=DEFAULT_SEED):
    """The operator of :func:`_load_operator`, not yet certified, with its
    default certification angle and sampling."""
    if key_matrix in cfg:
        path = cfg[key_matrix]
        try:
            op = MatrixOperator(linops.read_matrix(path, max_dim=_DIM_LIMIT))
        except (OSError, ValueError) as exc:
            raise ConfigInvalid(f"cannot read matrix {path}: {exc}") from exc
        default_angle, default_sampling = 0.75 * np.pi, None
    elif key_recipe in cfg:
        r = dict(cfg[key_recipe])
        kind = r.pop("kind", None)
        if kind is None:
            raise ConfigInvalid(f"recipe under {key_recipe!r} needs a 'kind'")
        M, default_angle = _recipe_matrix(kind, seed, **r)
        op = MatrixOperator(M)
        default_sampling = SectorSampling(n_boundary=48, interior_density=12)
    else:
        raise ConfigInvalid(f"config needs either {key_matrix!r} or {key_recipe!r}")
    top = float(np.max(np.abs(op.matrix)))
    if not (top == 0.0 or 1.0 / _ENTRY_LIMIT <= top <= _ENTRY_LIMIT):
        raise ConfigInvalid(f"largest matrix entry modulus {top:.3e} outside "
                            f"[{1.0 / _ENTRY_LIMIT:g}, {_ENTRY_LIMIT:g}]")
    return op, default_angle, default_sampling


def _write_csv(cfg: dict, out_dir: str, header: str, rows) -> str:
    path = os.path.join(out_dir, f"{cfg.get('out_prefix', cfg['pipeline'])}.csv")
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    return path


# --------------------------------------------------------------- pipelines
# each is fn(cfg, seed, out_dir) -> (report, extra written paths)


def _certify(cfg, seed, out_dir):
    theta = _angle(cfg, "theta")
    sampling = cfg.get("sampling", {})
    if not isinstance(sampling, dict):
        raise ConfigInvalid(f"invalid sampling: {sampling!r} is not an object")
    counts = {key: _field(sampling, key, _integer, None, lo=1, hi=_SAMPLES_LIMIT)
              for key in ("n_boundary", "n_angles", "interior_density") if key in sampling}
    try:  # SectorSampling rejects an unknown field and a bad value
        sampling = SectorSampling(**{**sampling, **counts})
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"invalid sampling: {exc}") from exc
    op = _read_operator(cfg, seed=seed)[0]
    k_hat, resolved = _sampled_sup(op, theta, sampling)
    return CertificateReport(
        operation="certify-sector",
        inputs={"theta": theta, "sampling": dataclasses.asdict(sampling), "seed": seed,
                "dim": op.dim},
        tolerances={}, node_counts={"samples": len(sampling.points(theta)), "sigma_min": resolved},
        outputs={"K_hat": k_hat},
        passed=True,
    ), []


def _power(cfg, seed, out_dir):
    from . import calculus

    op = _load_operator(cfg, theta=_angle(cfg, "theta"), seed=seed)
    z = complex(_field(cfg, "re", float, -0.5, hi=0.0, ends="()"), _field(cfg, "im", float, 0.0))
    value, info = calculus.complex_power(op, z, with_info=True)
    return CertificateReport(
        operation="complex-power",
        inputs={"z": z, "theta": op.angle(), "dim": op.dim, "seed": seed},
        tolerances={"tail": 1e-9}, node_counts={"contour": info.n_nodes},
        outputs={
            "norm": linops.operator_norm(value),
            "tail_estimate": info.tail_estimate,
            "matrix": [[repr(complex(v)) for v in row] for row in value],
        },
        passed=True,
    ), []


def _hinf(cfg, seed, out_dir):
    from . import calculus

    # certified at min(0.95 pi, theta + 0.3), strictly above the symbol angle
    theta = _field(cfg, "theta", float, np.pi / 2, lo=0.0, hi=0.95 * np.pi, ends="()")
    op = _load_operator(cfg, theta=min(0.95 * np.pi, theta + 0.3), seed=seed)
    registry = calculus.builtin_symbols(theta)
    name = cfg["symbol"]
    if name not in registry:
        raise ConfigInvalid(f"unknown symbol {name!r}; builtins: {sorted(registry)}")
    value, info = calculus.hinf_apply(registry[name], op, with_info=True)
    return CertificateReport(
        operation="hinf-apply",
        inputs={"symbol": name, "theta": theta, "dim": op.dim, "seed": seed},
        tolerances={"tail": 1e-9}, node_counts={"contour": info.n_nodes},
        outputs={"norm": linops.operator_norm(value), "tail_estimate": info.tail_estimate},
        passed=True,
    ), []


def _sum(cfg, seed, out_dir):
    from . import sums
    from .contour import build_nodes

    # both sides share the seed: commuting-pair recipes build A and B on
    # one seeded basis
    theta_a, theta_b = (_angle(cfg, key) for key in ("theta_a", "theta_b"))
    w = _field(cfg, "check_identities", _decaying_weight, None)
    A = _load_operator(cfg, "matrix_a", "recipe_a", theta=theta_a, seed=seed)
    B = _load_operator(cfg, "matrix_b", "recipe_b", theta=theta_b, seed=seed)
    try:
        pair = sums.CommutingPair(A, B)
    except ValueError as exc:  # angle sum at most pi, or resolvents that do not commute
        raise ConfigInvalid(str(exc)) from exc
    # sum_inverse's own default contour, built here so its size is recorded
    tol = 1e-6
    spec = sums.inverse_contour(pair, tol)
    K = sums.sum_inverse(pair, spec, tol=tol)
    direct = np.linalg.inv(A.matrix + B.matrix)
    err = linops.operator_norm(K - direct) / max(linops.operator_norm(direct), 1e-300)
    outputs = {"relative_error_vs_direct": err}
    passed = err <= 1e-6
    if w is not None:
        _, _, dl = sums.weighted_identity_left(pair, w)
        _, _, dr = sums.weighted_identity_right(pair, w)
        outputs["identity_left_diff"] = dl
        outputs["identity_right_diff"] = dr
        passed = passed and dl <= 1e-6 and dr <= 1e-6
    if cfg.get("certify"):
        cert = sums.closedness_certificate(pair)
        outputs["C_AB"] = cert.C_AB
        outputs["residual_K"] = cert.residual_K
        outputs["theta_values"] = list(cert.theta_values)
    return CertificateReport(
        operation="sum-inverse",
        inputs={"dim": pair.dim, "theta_a": A.angle(), "theta_b": B.angle(), "seed": seed},
        tolerances={"relative": 1e-6}, node_counts={"contour": len(build_nodes(spec)[0])},
        outputs=outputs,
        passed=bool(passed),
    ), []


def _tsector(cfg, seed, out_dir):
    from . import tsector

    op = _load_operator(cfg, theta=_angle(cfg, "theta"), seed=seed)
    phi = _field(cfg, "phi", float, 0.0, lo=-op.angle(), hi=op.angle())
    r = _field(cfg, "r", float, 1.0, lo=np.exp(-1.0), hi=1.0)
    p = _field(cfg, "p", float, 2.0, lo=1.0)
    n = _field(cfg, "n", _integer, 1, lo=0, hi=tsector.MAX_TERMS - 1)
    # a grid of 16 steps or more (maxreg.TimeGrid) that resolves n + 1 harmonics
    resolves = 4 * (n + 1)
    N_t = _field(cfg, "N_t", _integer, max(256, resolves), lo=max(16, resolves), hi=_STEPS_LIMIT)
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
          for _ in range(n + 1)]
    fam = _field(cfg, "family", tsector.MultiplierFamily, tsector.MultiplierFamily())
    rep = tsector.witness_search(op, phi, r, xs, p, fam, N_t)
    return CertificateReport(
        operation="t-sector",
        inputs={"phi": phi, "r": r, "p": p, "n": n, "N_t": N_t, "family": fam.kind,
                "theta": op.angle(), "dim": op.dim, "seed": seed},
        tolerances={}, node_counts={"N_t": N_t},
        outputs=dataclasses.asdict(rep),
        passed=True,
    ), []


def _rep_check(cfg, seed, out_dir):
    from . import tsector

    op = _load_operator(cfg, seed=seed)
    # rho A, in the direct solve, within the entry limit of an operator
    rho = _field(cfg, "rho", float, None, lo=0.0, hi=_ENTRY_LIMIT / np.max(np.abs(op.matrix)),
                 ends="(]")
    theta = _field(cfg, "theta", float, 0.0)
    x = np.ones(op.dim, dtype=complex)
    direct = np.linalg.solve(np.eye(op.dim) + rho * np.exp(1j * theta) * op.matrix, x)
    via = tsector.resolvent_rep_rotated(op, rho, theta, x)
    err = float(np.linalg.norm(via - direct))
    return CertificateReport(
        operation="rep-check",
        inputs={"rho": rho, "theta": theta, "dim": op.dim, "seed": seed},
        tolerances={"absolute": 1e-5}, node_counts={},
        outputs={"rho": rho, "theta": theta, "error": err},
        passed=err <= 1e-5,
    ), []


def _time_grid(cfg, nt_default):
    """The config's (tau, nt, p) grid, in the ranges TimeGrid takes; a
    step tau / nt that underflows is a config error too."""
    from . import maxreg

    try:
        return maxreg.TimeGrid(_field(cfg, "tau", float, 1.0, lo=0.0, ends="()"),
                               _field(cfg, "nt", _integer, nt_default, lo=16,
                                      hi=_STEPS_LIMIT),
                               p=_field(cfg, "p", float, 2.0, lo=1.0, ends="()"))
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc


def _maxreg_holds(op: MatrixOperator, constants) -> bool:
    """The hypothesis under which the constants of u' + A u = f are
    bounded: B = d/dt has angle pi/2, so A must be certified at an angle
    above pi/2 (the two angles sum past pi), and every measured constant
    must be finite."""
    return bool(op.angle() > np.pi / 2 and np.isfinite(constants).all())


def _maxreg(cfg, seed, out_dir):
    from . import maxreg

    grid = _time_grid(cfg, 512)
    tau, p, nt = grid.tau, grid.p, grid.N_t
    # the refined grid is checked before any constant is computed
    fine_grid = _time_grid({**cfg, "nt": 2 * nt}, nt) if cfg.get("refine") else None
    op = _load_operator(cfg, seed=seed)
    rep = maxreg.maxreg_constant(op, grid)
    outputs = dataclasses.asdict(rep)
    constants = [*rep.per_probe_fprime, *rep.per_probe_Af]
    paths = []
    if cfg.get("sweep_p"):
        sweep = maxreg.p_independence_probe(op, tau, nt)
        outputs["p_sweep"] = {k: sweep[k] for k in ("p_values", "constants_fprime", "spread")}
        constants += sweep["constants_fprime"]
    if fine_grid is not None:
        fine = maxreg.maxreg_constant(op, fine_grid)
        outputs["refined_constant_fprime"] = fine.constant_fprime
        constants += [fine.constant_fprime, fine.constant_Af]
        paths.append(_write_csv(cfg, out_dir, "N_t,constant_fprime,constant_Af", [
            (N, r.constant_fprime, r.constant_Af) for N, r in ((nt, rep), (2 * nt, fine))]))
    return CertificateReport(
        operation="maxreg",
        inputs={"tau": tau, "p": p, "nt": nt, "theta": op.angle(), "dim": op.dim, "seed": seed},
        tolerances={}, node_counts={"N_t": nt},
        outputs=outputs,
        passed=_maxreg_holds(op, constants),
    ), paths


def _sweep(cfg, seed, out_dir):
    from . import maxreg

    kind = cfg.get("kind", "maxreg-laplacian")
    if kind != "maxreg-laplacian":
        raise ConfigInvalid(f"unknown sweep kind {kind!r}")
    sizes = _field(cfg, "sizes", _sizes, [8, 16, 32], lo=1, hi=_DIM_LIMIT)
    grid = _time_grid(cfg, 256)
    tau, p, nt = grid.tau, grid.p, grid.N_t
    rows, thetas, passed = [], [], True
    for m in sizes:
        op = generate("laplacian-1d", m=m, seed=seed)
        rep = maxreg.maxreg_constant(op, grid)
        rows.append((m, rep.constant_fprime, rep.constant_Af))
        thetas.append(op.angle())
        passed = passed and _maxreg_holds(op, [*rep.per_probe_fprime, *rep.per_probe_Af])
    csv_path = _write_csv(cfg, out_dir, "m,constant_fprime,constant_Af", rows)
    return CertificateReport(
        operation="maxreg-sweep",
        inputs={"sizes": sizes, "tau": tau, "p": p, "nt": nt, "thetas": thetas, "seed": seed},
        tolerances={}, node_counts={"N_t": nt},
        outputs={"constants_fprime": [r[1] for r in rows],
                 "constants_Af": [r[2] for r in rows]},
        passed=passed,
    ), [csv_path]


_THREAD_VARS = ("SECTORSUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS")


def _provenance(wall_s: float) -> dict:
    """What produced a report, for its volatile envelope: the pipeline's
    wall time, the thread variables as set, the versions of Python, numpy
    and (only when already loaded) scipy, and the sectorsum modules
    loaded.  It imports nothing."""
    versions = {"python": sys.version.split()[0], "numpy": np.__version__}
    if "scipy" in sys.modules:
        versions["scipy"] = sys.modules["scipy"].__version__
    return {
        "wall_s": wall_s,
        "threads": {var: os.environ[var] for var in _THREAD_VARS if var in os.environ},
        "versions": versions,
        "modules": sorted(m for m in sys.modules if m.startswith("sectorsum.")),
    }


PIPELINES = {"certify": _certify, "power": _power, "hinf": _hinf, "sum": _sum,
             "t-sector": _tsector, "rep-check": _rep_check, "maxreg": _maxreg,
             "sweep": _sweep}


def run_config(cfg: dict, out_dir: str = ".") -> tuple[list[str], CertificateReport]:
    """Validate a config, run its pipeline and write ``<out_prefix>.json``.

    Returns (written paths, report); the report JSON comes first, then
    any CSV the pipeline wrote.
    """
    cfg = validate_config(cfg)
    seed = _field(cfg, "seed", _integer, DEFAULT_SEED)
    os.makedirs(out_dir, exist_ok=True)
    start = time.perf_counter()
    report, extra = PIPELINES[cfg["pipeline"]](cfg, seed, out_dir)
    report.envelope.update(_provenance(time.perf_counter() - start))
    json_path = os.path.join(out_dir, f"{cfg.get('out_prefix', cfg['pipeline'])}.json")
    report.save(json_path)
    return [json_path, *extra], report


def run_experiment(config_path: str, out_dir: str = ".") -> tuple[list[str], bool]:
    """Execute a config file; write report JSON (and CSV for sweeps).

    Returns (written paths, all passed).  Config errors raise
    ConfigInvalid; numerical failures surface as passed=False.
    """
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config {config_path}: {exc}") from exc
    paths, report = run_config(cfg, out_dir)
    return paths, report.passed

"""The four benchmark workloads.

A workload builds its inputs from a seed in ``setup()`` (program calls
that prepare operators belong there) and then yields an endless,
deterministic stream of :class:`Task` objects.  Tasks repeat a fixed
round of size classes; only the parameters inside a class (angles,
exponents, vectors) are drawn per task.  Parameters that set a task's
cost (an exponent's real part sets the contour length, a symbol or p its
kernel) are drawn stratified: the k-th task of a class takes the k-th of
a few equal bins in turn, and the seed picks only the point inside the
bin.  So the cost mix is the same for every seed while the numerics
differ.

Each task carries its own oracle check from :mod:`oracles`.  A check
returns the worst error divided by its tolerance (at most 1 passes) or
raises :class:`OracleMismatch` for a failed inequality or flag.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np
import scipy.linalg

import oracles as O

# tolerances of the acceptance suite (tests/test_acceptance.py), by criterion
TOL_POWER = 1e-8        # complex powers (criterion 1)
TOL_HINF = 1e-7         # H-infinity calculus against the spectral oracle (3)
TOL_SUM = 1e-6          # sum inverse and weighted identities (4, 5)
TOL_EADIC = 1e-8        # e-adic rearrangement (6)
TOL_REP = 1e-5          # representation formulas (7)
TOL_MAXREG = 1e-3       # scalar max-reg constant (10)
TOL_PARSEVAL = 1e-4     # t-sector values and C_AB (11, 13)
TOL_BIP = 0.05          # recovered power angle (12)
# checks the acceptance suite has no criterion for
TOL_SECTOR = 1e-8       # sampled sector constant against sigma_min
TOL_EXACT = 1e-8        # outputs that are exact up to rounding


class OracleMismatch(Exception):
    """A task output failed a check that has no error ratio."""


@dataclass
class Task:
    kind: str
    cls: str
    layer: str
    call: Callable[[], Any]
    check: Callable[[Any], float]
    nonnormal: bool = False
    # CLI tasks: the documented exit code
    expected_exit: int | None = None
    # known defect: its name, and a test (output, error ratio, error) ->
    # bool that the failure is the one recorded when the benchmark was written
    defect: str | None = None
    seed_failure: Callable[[Any, float | None, str], bool] | None = None


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise OracleMismatch(msg)


class Workload:
    name = ""
    n_min = 10          # fewest tasks a run holds; fixes the tail percentile
    # BLAS threads of the in-process children: None leaves the variables
    # unset, so the library's own default decides
    blas_threads: int | None = None
    # the worker.speed_probe chunk whose time tracks this workload's work,
    # or None to report unscaled times
    speed_probe: str | None = "interp"
    STRATA = 4

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self._turns: dict[str, int] = {}

    def _turn(self, key: str) -> int:
        k = self._turns.get(key, 0)
        self._turns[key] = k + 1
        return k

    def draw(self, key: str, lo: float, hi: float) -> float:
        """Uniform in the next of STRATA equal bins of [lo, hi], taken in
        turn per key (one key per class and parameter)."""
        k = self._turn(key) % self.STRATA
        return lo + (hi - lo) * (k + float(self.rng.uniform())) / self.STRATA

    def pick(self, key: str, options):
        """The options in turn per key."""
        return options[self._turn(key) % len(options)]

    @property
    def tail_percentile(self) -> float:
        """Highest percentile with at least 10 tasks beyond it in a run of
        n_min tasks (p90 from 100 tasks up)."""
        return min(90.0, 100.0 * (self.n_min - 10) / self.n_min)

    def size(self, m: int) -> int:
        return min(m, 6) if self.tiny else m

    @property
    def round_tasks(self) -> int:
        """Tasks in the first round: every class, and every known defect."""
        return len(self.ROUND)

    def setup(self) -> None:
        raise NotImplementedError

    def rounds(self) -> Iterator[list[Task]]:
        while True:
            yield [self.make(slot) for slot in self.ROUND]

    def tasks(self) -> Iterator[Task]:
        for rnd in self.rounds():
            yield from rnd

    def make(self, slot) -> Task:
        raise NotImplementedError


# ------------------------------------------------------------ sector-ladder


class SectorLadder(Workload):
    """certify_sector / extended_sector_check on a ladder of normal and
    non-normal operators, m = 16 ... 160."""

    name = "sector-ladder"
    n_min = 100
    # at the default thread count small solves pick up 30-80 ms stalls at
    # random and run medians swung by a fifth between runs
    blas_threads = 1
    speed_probe = "lapack"
    # (operation, family, m), interleaved so any prefix keeps the mix.  By
    # latency at one thread: m <= 96 and the extension check (6, under
    # 35 ms), m = 128 in all three families (8, 64-67 ms, hold the median),
    # lap and cd at m = 160 (2, 68-80 ms) and rot at m = 160 (4, 0.14 s, the
    # top fifth, hold p90)
    ROUND = [
        ("certify", "rot", 160), ("certify", "cd", 128), ("certify", "lap", 16),
        ("certify", "rot", 128), ("certify", "lap", 96), ("certify", "lap", 128),
        ("certify", "rot", 160), ("ext", "cd", 32), ("certify", "cd", 160),
        ("certify", "cd", 128), ("certify", "cd", 32), ("certify", "lap", 128),
        ("certify", "rot", 160), ("certify", "cd", 96), ("certify", "rot", 128),
        ("certify", "lap", 160), ("certify", "rot", 64), ("certify", "cd", 128),
        ("certify", "lap", 128), ("certify", "rot", 160),
    ]

    def setup(self) -> None:
        import sectorsum as ss

        self.ss = ss
        self.sampling = ss.SectorSampling(n_boundary=4, n_angles=2, interior_density=2)
        self.ext_sampling = ss.SectorSampling(n_boundary=2, n_angles=1, interior_density=1)
        self.dense = ss.SectorSampling()
        self.ops = {}
        mrng = np.random.default_rng([self.seed, 1])
        for _, fam, m in self.ROUND:
            m = self.size(m)
            if (fam, m) in self.ops:
                continue
            if fam == "lap":
                M, oracle = O.laplacian(m), O.Spectral(*O.laplacian_eig(m))
            elif fam == "cd":
                M, oracle = O.convection_diffusion(m), None
            else:
                psi = mrng.uniform(-np.pi / 4, np.pi / 4, m)
                lam = np.exp(1j * psi) * np.geomspace(1.0, 100.0, m)
                oracle = O.Spectral(lam, O.random_unitary(mrng, m))
                M = oracle.matrix()
            self.ops[(fam, m)] = (ss.MatrixOperator(M), oracle)

    def reference_tasks(self) -> list[Task]:
        """One round: the fixed list the thread-count reference pass times."""
        return next(self.rounds())

    def make(self, slot) -> Task:
        op_kind, fam, m = slot
        m = self.size(m)
        A, oracle = self.ops[(fam, m)]
        top = 0.7 * np.pi if fam == "rot" else 0.9 * np.pi
        cls = f"{op_kind}/{fam}/m={m}"
        theta = self.draw(f"{cls}:theta", 0.5 * np.pi, top)
        bound = lambda pts: O.sector_bound(oracle, A.matrix, pts)  # noqa: E731
        if op_kind == "certify":
            sampling = self.sampling

            def call():
                return self.ss.certify_sector(A, theta, sampling, attach=False)

            ref = {}

            def check(K):
                ref["K"] = max(1.0, float(np.max(bound(sampling.points(theta)))))
                return abs(K - ref["K"]) / ref["K"] / TOL_SECTOR

            task = Task("certify_sector", cls, "sector", call, check, nonnormal=fam == "cd")
            if m > 128:
                # operator_norm switches to power iteration above 128; it stops
                # on slow progress, so for some angles the norm, and K-hat
                # with it, comes out low (by up to ~1e-3 relative)
                task.defect = "power-iteration-norm"
                task.seed_failure = lambda K, ratio, err: ratio is not None and K < ref["K"]
            return task

        K = max(1.0, float(np.max(bound(self.dense.points(theta)))))
        spec = self.ss.SectorSpec(theta=theta, K=K)
        sampling, n_disk = self.ext_sampling, 4

        def call():
            return self.ss.extended_sector_check(A, spec, sampling, n_disk=n_disk)

        def check(res):
            pts = O.disk_points(sampling.points(theta), K, n_disk)
            ref = float(np.max(bound(pts)))
            _require(res.passed, "extension check did not pass")
            _require(res.n_samples == len(pts), f"{res.n_samples} samples, expected {len(pts)}")
            return abs(res.worst_value - ref) / ref / TOL_SECTOR

        return Task("extended_sector_check", cls, "sector", call, check, nonnormal=fam == "cd")


# -------------------------------------------------------------- contour-mix


class ContourMix(Workload):
    """Small-n contour quadratures: powers, H-infinity symbols, imaginary
    powers, representation formulas, t-sector checks and operator sums."""

    name = "contour-mix"
    n_min = 100
    # at one BLAS thread the default gains nothing below the cliff and its
    # idle threads spin on the second core, which made runs unsteady
    blas_threads = 1
    # by latency at one thread: 11 tasks below 0.1 s; 8 at 0.11-0.15 s
    # (sum_inverse, rep_real, hinf n=32, power n=48) hold the median; 4 at
    # 0.15-0.25 s; the 4 weighted identities (0.3-0.4 s) hold p90
    ROUND = [
        ("power", "lap", 48), ("sum_inverse", "pair", 2), ("hinf", "lap", 16),
        ("witness", "lap", 8), ("weighted_left", "pair", 2), ("power", "cd", 16),
        ("hinf", "cd", 32), ("rep_real", "rot", 2), ("power", "lap", 8),
        ("weighted_right", "pair", 2), ("split", "pair", 2), ("hinf", "lap", 48),
        ("power", "lap", 32), ("parseval", "lap", 8), ("closedness", "pair", 2),
        ("power", "lap", 48), ("bip_fit", "rot", 4), ("hinf", "cd", 16),
        ("weighted_right", "pair", 4), ("power", "cd", 32), ("hinf", "lap", 32),
        ("weighted_left", "pair", 4), ("rep_rotated", "rot", 2), ("sum_inverse", "pair", 4),
        ("eadic", "pair", 2), ("power", "lap", 48), ("power", "lap", 16),
        ("hinf", "lap", 32),
    ]
    SYMBOLS = ("sqrt-over-1minus", "cayley-squared", "rational-eta")

    def setup(self) -> None:
        import sectorsum as ss
        from sectorsum.sums import sum_contour

        self.ss = ss
        self.sum_contour = sum_contour
        self.symbols = ss.builtin_symbols(np.pi / 2)
        self.dense = ss.SectorSampling()
        self.ops, self.pairs = {}, {}
        self.logm: dict = {}    # oracle data, filled on first use
        mrng = np.random.default_rng([self.seed, 2])
        for _, fam, m in self.ROUND:
            m = self.size(m)
            if fam == "pair":
                if m in self.pairs:
                    continue
                Q = O.random_unitary(mrng, m)
                da = np.sort(mrng.uniform(1.0, 8.0, m))
                db = np.sort(mrng.uniform(0.5, 3.0, m))
                A = self._certified(Q @ np.diag(da) @ Q.conj().T, 0.9 * np.pi)
                B = self._certified(Q @ np.diag(db) @ Q.conj().T, 0.9 * np.pi)
                self.pairs[m] = (ss.CommutingPair(A, B), O.Spectral(da, Q), O.Spectral(db, Q))
                continue
            if (fam, m) in self.ops:
                continue
            if fam == "lap":
                oracle = O.Spectral(*O.laplacian_eig(m))
                self.ops[(fam, m)] = (self._certified(O.laplacian(m), 0.9 * np.pi), oracle)
            elif fam == "cd":
                M = O.convection_diffusion(m)
                self.ops[(fam, m)] = (self._certified(M, 0.9 * np.pi), None)
            else:
                psi = np.where(np.arange(m) % 2 == 0, 1.0, -1.0) * mrng.uniform(0.6, 0.8, m)
                psi *= np.pi / 4
                oracle = O.Spectral(np.exp(1j * psi) * np.geomspace(1.0, 4.0, m),
                                    O.random_unitary(mrng, m))
                self.ops[(fam, m)] = (self._certified(oracle.matrix(), 0.7 * np.pi), oracle)

    @staticmethod
    def _tail_defect(task: Task) -> Task:
        # the default contour misses its own tail tolerance by a few percent
        # for some exponents (seen: complex_power, Laplacian m = 48,
        # Re z = -0.93, tail estimate 1.016e-9 > 1e-9)
        task.defect = "contour-tail-estimate"
        task.seed_failure = lambda out, ratio, err: (
            err is not None and err.startswith("TruncationNotConverged: tail estimate"))
        return task

    def _certified(self, M, angle):
        op = self.ss.MatrixOperator(M)
        self.ss.certify_sector(op, angle)
        return op

    def make(self, slot) -> Task:
        kind, fam, m = slot
        m = self.size(m)
        cls = f"{kind}/{fam}/n={m}"
        if fam == "pair":
            return self._pair_task(kind, cls, *self.pairs[m])
        A, oracle = self.ops[(fam, m)]
        rng, ss = self.rng, self.ss
        nonnormal = oracle is None
        if kind == "power":
            z = complex(-self.draw(f"{cls}:re", 0.5, 0.95), self.draw(f"{cls}:im", -1.0, 1.0))

            def ref():
                if oracle is not None:
                    return oracle.fun(lambda l: l ** z)
                if m not in self.logm:
                    self.logm[m] = scipy.linalg.logm(A.matrix)
                return scipy.linalg.expm(z * self.logm[m])

            return self._tail_defect(Task(
                "complex_power", cls, "calculus", lambda: ss.complex_power(A, z),
                lambda X: O.rel_err(X, ref()) / TOL_POWER, nonnormal))
        if kind == "hinf":
            name = self.pick(cls, self.SYMBOLS)
            f = self.symbols[name]

            def ref():
                if oracle is not None:
                    return oracle.fun(O.symbol_closed_forms()[name])
                return O.symbol_general(name, A.matrix)

            return self._tail_defect(Task(
                "hinf_apply", cls, "calculus", lambda: ss.hinf_apply(f, A),
                lambda X: float(np.abs(X - ref()).max()) / TOL_HINF, nonnormal))
        if kind == "bip_fit":
            def check(fit):
                log_d = np.log(oracle.lam)
                norms = np.exp(np.max(np.real(1j * np.outer(fit.t_grid, log_d)), axis=1))
                phi = float(np.max(np.abs(np.angle(oracle.lam))))
                return max(abs(fit.phi - phi) / phi / TOL_BIP,
                           O.rel_err(fit.norms, norms) / TOL_EXACT)

            return Task("bip_fit", cls, "calculus", lambda: ss.bip_fit(A, t_max=4.0), check)
        if kind in ("rep_real", "rep_rotated"):
            rho = self.draw(f"{cls}:rho", 0.3, 2.0)
            theta = self.pick(f"{cls}:sign", (1.0, -1.0)) * self.draw(f"{cls}:theta", 0.3, 0.9)
            x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            if kind == "rep_real":
                theta = 0.0
                call = lambda: ss.resolvent_rep_real(A, rho, x)  # noqa: E731
            else:
                call = lambda: ss.resolvent_rep_rotated(A, rho, theta, x)  # noqa: E731
            direct = lambda: np.linalg.solve(  # noqa: E731
                np.eye(m) + rho * np.exp(1j * theta) * A.matrix, x)
            return Task(f"resolvent_{kind}", cls, "tsector", call,
                        lambda y: float(np.abs(y - direct()).max()) / TOL_REP)
        # t-sector checks on a normal operator: Parseval is exact on the grid
        phi = self.draw(f"{cls}:phi", 0.0, 0.8)
        r = self.draw(f"{cls}:r", np.exp(-1.0), 1.0)
        n_terms = 3
        xs = [rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(n_terms)]

        def parseval(phi_):
            res = sum(np.linalg.norm(np.linalg.solve(
                np.eye(m) + r * np.exp(-k + 1j * phi_) * A.matrix, x)) ** 2
                for k, x in enumerate(xs))
            return np.sqrt(2 * np.pi * res), np.sqrt(2 * np.pi * sum(
                np.linalg.norm(x) ** 2 for x in xs))

        if kind == "witness":
            def check(rep):
                lhs, den = parseval(phi)
                return max(abs(rep.lhs - lhs) / lhs, abs(rep.C_hat - lhs / den) / (lhs / den)
                           ) / TOL_PARSEVAL

            return Task("witness_search", cls, "tsector",
                        lambda: ss.witness_search(A, phi, r, xs), check)

        def check(rec):
            lhs, rhs = parseval(0.0)
            K = max(1.0, float(np.max(oracle.sector_bound(self.dense.points(0.0)))))
            _require(rec["passed"], "parseval check did not pass")
            return max(abs(rec["lhs"] - lhs) / lhs / TOL_PARSEVAL,
                       abs(rec["rhs"] - rhs) / rhs / TOL_PARSEVAL,
                       abs(rec["K_hat"] - K) / K / TOL_SECTOR)

        return Task("parseval_tsector_check", cls, "tsector",
                    lambda: ss.parseval_tsector_check(A, 0.0, r, xs), check)

    def _pair_task(self, kind, cls, pair, SA, SB) -> Task:
        rng, ss = self.rng, self.ss
        Am, Bm = pair.A.matrix, pair.B.matrix
        K = lambda: np.linalg.inv(Am + Bm)  # noqa: E731
        if kind == "sum_inverse":
            return Task("sum_inverse", cls, "sums", lambda: ss.sum_inverse(pair),
                        lambda X: O.op_norm(X - K()) / O.op_norm(K()) / TOL_SUM)
        if kind in ("weighted_left", "weighted_right"):
            w = complex(-self.draw(f"{cls}:re", 0.25, 0.6), self.draw(f"{cls}:im", -1.0, 1.0))
            left = kind == "weighted_left"
            fn = ss.weighted_identity_left if left else ss.weighted_identity_right

            def check(out):
                lhs, rhs, _ = out
                ref = Am @ K() @ (SA if left else SB).fun(lambda l: l ** w)
                return max(O.op_norm(lhs - ref), O.op_norm(rhs - ref)) / TOL_SUM

            return Task(f"weighted_identity_{kind[9:]}", cls, "sums",
                        lambda: fn(pair, w), check)
        theta, phi = (self.draw(f"{cls}:{v}", 0.15, 0.45) for v in ("theta", "phi"))
        t = self.draw(f"{cls}:t", -0.5, 0.5)
        n = self.pick(f"{cls}:n", (1, 2, 3))
        if kind == "split":
            def check(pieces):
                Bw = SB.fun(lambda l: l ** (-theta + 1j * t))
                return O.op_norm(Bw + sum(pieces) - Am @ K() @ Bw) / TOL_SUM

            return Task("split_integral_eval", cls, "sums",
                        lambda: ss.split_integral_eval(pair, theta, phi, t, n), check)
        if kind == "eadic":
            tc = self.sum_contour(pair).theta
            w = -(theta + phi) + 1j * t

            def check(X):
                d = [O.annulus_piece(a, b, phi, w, tc, n) for a, b in zip(SA.lam.real, SB.lam.real)]
                return float(np.abs(X - SA.fun(lambda l: np.array(d))).max()) / TOL_EADIC

            return Task("eadic_middle_eval", cls, "sums",
                        lambda: ss.eadic_middle_eval(pair, theta, phi, t, n, theta_contour=tc),
                        check)
        dim = pair.dim
        probes = [np.eye(dim, dtype=complex)[:, j] for j in range(dim)]
        probes += [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(4)]

        def check(cert):
            AK = Am @ K()
            ratio = lambda T: max(np.linalg.norm(T @ v) / np.linalg.norm(v)  # noqa: E731
                                  for v in probes)
            errs = [abs(cert.C_AB - ratio(AK)) / ratio(AK)]
            for th, val in zip(cert.theta_grid, cert.theta_values):
                ref = ratio(AK @ SB.fun(lambda l: l ** (-th)))
                errs.append(abs(val - ref) / ref)
            _require(cert.residual_K <= TOL_SUM, f"residual {cert.residual_K:.3e}")
            return max(errs) / TOL_PARSEVAL

        return Task("closedness_certificate", cls, "sums",
                    lambda: ss.closedness_certificate(pair, probes=probes), check)


# ------------------------------------------------------------ maxreg-cauchy


class MaxregCauchy(Workload):
    """Maximal-regularity constants and the exact Cauchy solver on the
    Laplacian ladder, plus the scalar case with a closed-form constant."""

    name = "maxreg-cauchy"
    n_min = 100
    # at one BLAS thread: maxreg_constant takes 0.4 s at m=16 against 0.63 s
    # at the default, and default-thread runs were unsteady
    blas_threads = 1
    speed_probe = "lapack"
    # by latency at one thread: 4 tasks below 0.02 s, 2 p-independence
    # probes near 0.1 s, then 7 p = 2 constants at m=8 (0.13 s, hold the
    # median), 3 at 0.2-0.3 s and 4 at m=48 (0.45 s, the top 20 %, hold p90)
    ROUND = [
        ("maxreg2", 48, 512), ("cauchy", 16, 512), ("maxreg2", 8, 256),
        ("p_independence", 16, 256), ("maxreg2", 8, 256), ("maxreg2", 32, 256),
        ("deriv", 1, 256), ("maxreg2", 48, 512), ("maxreg2", 8, 256),
        ("scalar", 1, 512), ("maxreg2", 8, 256), ("maxreg_p", 16, 256),
        ("maxreg2", 48, 512), ("maxreg2", 8, 256), ("p_independence", 16, 256),
        ("maxreg2", 16, 512), ("maxreg2", 8, 256), ("cauchy", 32, 1024),
        ("maxreg2", 8, 256), ("maxreg2", 48, 512),
    ]

    def setup(self) -> None:
        import sectorsum as ss

        self.ss = ss
        self.ops = {1: (ss.MatrixOperator(np.ones((1, 1))), O.Spectral([1.0], [[1.0]]))}
        for _, m, _ in self.ROUND:
            m = self.size(m)
            if m not in self.ops:
                self.ops[m] = (ss.MatrixOperator(O.laplacian(m)),
                               O.Spectral(*O.laplacian_eig(m)))

    def make(self, slot) -> Task:
        kind, m, nt = slot
        m = self.size(m)
        nt = 64 if self.tiny else nt
        rng, ss = self.rng, self.ss
        A, spec = self.ops[m]
        cls = f"{kind}/m={m}/nt={nt}"
        tau = self.draw(f"{cls}:tau", 0.5, 1.5)
        if kind == "deriv":
            lam = complex(self.draw(f"{cls}:re", 0.5, 20.0), self.draw(f"{cls}:im", -10.0, 10.0))
            grid = ss.TimeGrid(tau, nt)

            def check(rec):
                _require(rec["passed"], "bound check did not pass")
                return max(abs(rec["bound"] - O.young_bound(lam, tau)) / rec["bound"],
                           abs(rec["measured"] - O.deriv_resolvent_norm(lam, tau, nt))
                           / rec["measured"]) / TOL_EXACT

            return Task("deriv_resolvent_bound_check", cls, "maxreg",
                        lambda: ss.deriv_resolvent_bound_check(lam, grid), check)
        if kind == "cauchy":
            grid = ss.TimeGrid(tau, nt)
            t = grid.times()[:, None]
            x1, x2 = (rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(2))
            g = np.cos(self.draw(f"{cls}:freq", 1.0, 8.0) * t) * x1 + t * x2
            gf = ss.GridFunction(grid, g)
            return Task("solve_cauchy", cls, "maxreg", lambda: ss.solve_cauchy(A, gf),
                        lambda f: O.rel_err(f.values, O.cauchy_modes(
                            spec.lam, spec.V, g, grid.dt)) / TOL_EXACT)
        if kind == "scalar":
            grid = ss.TimeGrid(1.0, nt)
            exact = np.sqrt((1.0 - np.exp(-2.0)) / 2.0)
            return Task("maxreg_constant", cls, "maxreg", lambda: ss.maxreg_constant(A, grid),
                        lambda rep: abs(rep.per_probe_fprime[0] - exact) / TOL_MAXREG)
        if kind == "p_independence":
            p_values = (1.5, 2.0, self.pick(cls, (3.0, 4.0)))

            def check(res):
                errs = []
                for p, cf, ca in zip(p_values, res["constants_fprime"], res["constants_Af"]):
                    grid = ss.TimeGrid(tau, nt, p=p)
                    for _, g in ss.maxreg.default_probes(A, grid):
                        rf, ra = O.maxreg_ratios(spec.lam, spec.V, g.values, grid.dt, p, A.matrix)
                        _require(cf >= rf * (1 - TOL_EXACT) and ca >= ra * (1 - TOL_EXACT),
                                 f"p={p}: constant below a probe ratio")
                cs = res["constants_fprime"]
                errs.append(abs(res["spread"] - max(cs) / min(cs)) / res["spread"])
                return max(errs) / TOL_EXACT

            return Task("p_independence_probe", cls, "maxreg",
                        lambda: ss.p_independence_probe(A, tau, nt, p_values), check)
        p = 2.0 if kind == "maxreg2" else self.pick(cls, (1.5, 3.0, 4.0))
        grid = ss.TimeGrid(tau, nt, p=p)

        def check(rep):
            errs = []
            probes = ss.maxreg.default_probes(A, grid)
            for i, (_, g) in enumerate(probes):
                rf, ra = O.maxreg_ratios(spec.lam, spec.V, g.values, grid.dt, p, A.matrix)
                errs += [abs(rep.per_probe_fprime[i] - rf) / rf,
                         abs(rep.per_probe_Af[i] - ra) / ra]
            if p == 2.0:
                # Fourier bound for a positive self-adjoint A at p = 2, with
                # the O(dt) grid allowance of acceptance criterion 9
                cap = 1.0 + 5.0 * grid.dt
                _require(len(rep.probe_labels) == len(probes) + 2, "adversarial probes missing")
                _require(max(rep.constant_fprime, rep.constant_Af) <= cap,
                         f"constant above the p = 2 bound {cap}")
            return max(errs) / TOL_EXACT

        return Task("maxreg_constant", cls, "maxreg", lambda: ss.maxreg_constant(A, grid), check)


# -------------------------------------------------------------- cli-configs


class CliConfigs(Workload):
    """Sequential ``python -m sectorsum.cli`` children: half ``run --config``
    across every pipeline, half the matching direct subcommands on CSV
    matrices, plus the known defects with their documented exit codes."""

    name = "cli-configs"
    n_min = 25
    ROUND = [
        ("run", "certify"), ("direct", "certify-sector"), ("run", "power"),
        ("direct", "power"), ("run", "hinf"), ("direct", "hinf"), ("run", "sum"),
        ("direct", "sum-inverse"), ("run", "t-sector"), ("direct", "t-sector"),
        ("run", "maxreg"), ("direct", "maxreg"), ("run", "sweep"), ("direct", "rep-check"),
        ("defect", "sum-commuting-pairs"), ("defect", "sum-identities-laplacian"),
        ("defect", "hinf-cayley-laplacian"), ("defect", "malformed-csv"),
        ("defect", "missing-matrix"),
    ]
    # known defects: (documented exit code, exit code when the benchmark
    # was written).  sum-commuting-pairs: B is generated with seed + 1, so
    # the bases differ; sum-identities-laplacian: the identities' inner
    # sum_inverse residual check (absolute 1e-8) fails for ||A|| ~ 300;
    # hinf-cayley-laplacian: the hinf pipeline's default contour misses its
    # tail tolerance for cayley-squared at theta = pi/2 on laplacian-1d m=8;
    # malformed-csv and missing-matrix are input errors that should exit 2.
    DEFECTS = {
        "sum-commuting-pairs": (0, 1),
        "sum-identities-laplacian": (0, 1),
        "hinf-cayley-laplacian": (0, 1),
        "malformed-csv": (2, 1),
        "missing-matrix": (2, 1),
    }
    LARGE_M = 128
    TIMEOUT_S = 150
    # its time is child start-up, imports and file I/O, which neither
    # speed probe follows: scaling by either widened the run-to-run spread
    speed_probe = None

    def __init__(self, seed: int, tiny: bool = False, workdir: str = ".",
                 cli_prefix: list[str] | None = None, env: dict | None = None):
        super().__init__(seed, tiny)
        self.workdir = os.path.abspath(workdir)
        self.cli_prefix = cli_prefix or [sys.executable, "-m", "sectorsum.cli"]
        self.env = env
        self.count = 0

    def setup(self) -> None:
        import sectorsum as ss

        self.ss = ss
        os.makedirs(self.workdir, exist_ok=True)
        self.m = 4 if self.tiny else 8
        self.lap_spec = O.Spectral(*O.laplacian_eig(self.m))
        self._write_matrix("A.csv", O.laplacian(self.m))
        self._write_matrix("one.csv", np.ones((1, 1), dtype=complex))
        self.pair_c = 2.0
        self._write_matrix("B.csv", self.pair_c * np.exp(1j * np.pi / 3) * np.eye(self.m))
        with open(self._path("bad.csv"), "w") as fh:
            fh.write(f"2\n1+0i,0+0i\n0+0i,two+0i\n")

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _write_matrix(self, name: str, M) -> None:
        self.ss.write_matrix(self._path(name), M)

    @property
    def round_tasks(self) -> int:
        return 1 + len(self.ROUND)

    def rounds(self) -> Iterator[list[Task]]:
        # the large config runs once per run, first, so every run holds it
        yield [self._large()]
        yield from super().rounds()

    def _run_child(self, args: list[str]):
        self.count += 1
        out = self._path(f"out{self.count}")
        proc = subprocess.run(self.cli_prefix + ["--out", out] + args, env=self.env,
                              capture_output=True, text=True, timeout=self.TIMEOUT_S,
                              cwd=self.workdir)
        return proc, out

    def _config(self, name: str, cfg: dict) -> str:
        path = self._path(f"{name}.json")
        with open(path, "w") as fh:
            json.dump({"schema_version": 1, **cfg}, fh)
        return path

    def _large(self) -> Task:
        m = 12 if self.tiny else self.LARGE_M
        theta = float(self.rng.uniform(0.5 * np.pi, 0.85 * np.pi))
        sampling = {"n_boundary": 4, "n_angles": 2, "interior_density": 2}
        cfg = self._config("large", {"pipeline": "certify", "theta": theta,
                                     "recipe": {"kind": "laplacian-1d", "m": m},
                                     "sampling": sampling})
        spec = O.Spectral(*O.laplacian_eig(m))
        pts = self.ss.SectorSampling(**sampling).points(theta)
        return self._task("run", f"certify/m={m}", ["run", "--config", cfg], "sector",
                          self._check_k(spec, pts, report="certify.json"))

    def _task(self, mode, cls, args, layer, check, defect=None) -> Task:
        expected, seed_exit = self.DEFECTS.get(defect, (0, None))

        def seed_failure(res, ratio, err):
            return res is not None and res[0].returncode == seed_exit

        def call():
            return self._run_child(args)

        def full_check(res):
            proc, out = res
            _require(proc.returncode == expected,
                     f"exit code {proc.returncode}, documented {expected}: "
                     f"{proc.stderr.strip().splitlines()[-1:] if proc.stderr else ''}")
            return check(proc, out) if check else 0.0

        return Task(f"cli-{mode}", cls, layer, call, full_check, expected_exit=expected,
                    defect=defect, seed_failure=seed_failure if defect else None)

    @staticmethod
    def _report(out: str, name: str) -> dict:
        with open(os.path.join(out, name)) as fh:
            return json.load(fh)

    def _check_k(self, spec, pts, report=None):
        def check(proc, out):
            doc = self._report(out, report) if report else json.loads(proc.stdout)
            K = doc["outputs"]["K_hat"]
            ref = max(1.0, float(np.max(spec.sector_bound(pts))))
            return abs(K - ref) / ref / TOL_SECTOR
        return check

    def _check_sum(self, report):
        def check(proc, out):
            outs = self._report(out, report)["outputs"]
            errs = [outs["relative_error_vs_direct"]] + [
                outs[k] for k in ("identity_left_diff", "identity_right_diff") if k in outs]
            return max(errs) / TOL_SUM
        return check

    def make(self, slot) -> Task:
        mode, what = slot
        rng, ss, m = self.rng, self.ss, self.m
        A_csv = self._path("A.csv")
        lap = self.lap_spec
        cls = f"{mode}/{what}"
        if mode == "defect":
            if what.startswith("sum-"):
                if what == "sum-commuting-pairs":
                    cfg = {"seed": int(rng.integers(1, 2 ** 31)),
                           "recipe_a": {"kind": "commuting-pair", "role": "a", "n": 4},
                           "recipe_b": {"kind": "commuting-pair", "role": "b", "n": 4}}
                else:
                    cfg = {"check_identities": [-float(rng.uniform(0.3, 0.6)), 0.0],
                           "recipe_a": {"kind": "laplacian-1d", "m": m},
                           "recipe_b": {"kind": "diag-rotated", "psi": np.pi / 3,
                                        "entries": [1.0] * m}}
                path = self._config(what, {"pipeline": "sum", **cfg})
                return self._task(mode, cls, ["run", "--config", path], "sums",
                                  self._check_sum("sum.json"), what)
            if what == "hinf-cayley-laplacian":
                path = self._config(what, {"pipeline": "hinf", "symbol": "cayley-squared",
                                           "theta": np.pi / 2,
                                           "recipe": {"kind": "laplacian-1d", "m": m}})
                ref = O.op_norm(lap.fun(O.symbol_closed_forms()["cayley-squared"]))
                return self._task(mode, cls, ["run", "--config", path], "calculus",
                                  lambda proc, out: abs(self._report(out, "hinf.json")[
                                      "outputs"]["norm"] - ref) / TOL_HINF, what)
            path = self._path("bad.csv" if what == "malformed-csv" else "missing.csv")
            return self._task(mode, cls, ["certify-sector", "--matrix", path, "--theta", "1.0"],
                              "cli", None, what)
        if what in ("certify", "certify-sector"):
            theta = float(rng.uniform(0.5 * np.pi, 0.85 * np.pi))
            if mode == "run":
                sampling = {"n_boundary": 8, "n_angles": 3, "interior_density": 4}
                cfg = self._config("certify", {"pipeline": "certify", "theta": theta,
                                               "recipe": {"kind": "laplacian-1d", "m": m},
                                               "sampling": sampling})
                pts = ss.SectorSampling(**sampling).points(theta)
                return self._task(mode, cls, ["run", "--config", cfg], "sector",
                                  self._check_k(lap, pts, "certify.json"))
            pts = ss.SectorSampling(n_boundary=8, n_angles=3).points(theta)
            return self._task(mode, cls, ["certify-sector", "--matrix", A_csv, "--theta",
                                          repr(theta), "--rays", "8", "--arc", "3"],
                              "sector", self._check_k(lap, pts))
        if what == "power":
            z = complex(-rng.uniform(0.5, 0.95), rng.uniform(-1.0, 1.0))
            ref = lap.fun(lambda l: l ** z)
            if mode == "run":
                cfg = self._config("power", {"pipeline": "power", "re": z.real, "im": z.imag,
                                             "recipe": {"kind": "laplacian-1d", "m": m}})

                def check(proc, out):
                    nrm = self._report(out, "power.json")["outputs"]["norm"]
                    return abs(nrm - O.op_norm(ref)) / O.op_norm(ref) / TOL_POWER

                return self._task(mode, cls, ["run", "--config", cfg], "calculus", check)

            def check(proc, out):
                # entries are Python reprs, "(a+bj)" or "np.complex128(a+bj)"
                rows = json.loads(proc.stdout)["matrix"]
                X = np.array([[complex(v.removeprefix("np.complex128")) for v in row]
                              for row in rows])
                return O.rel_err(X, ref) / TOL_POWER

            return self._task(mode, cls, ["power", "--matrix", A_csv, "--re", repr(z.real),
                                          "--im", repr(z.imag)], "calculus", check)
        if what == "hinf":
            # cayley-squared on this operator is the hinf-cayley-laplacian defect
            name = ("sqrt-over-1minus", "rational-eta")[int(rng.integers(2))]
            theta = float(rng.uniform(0.3 * np.pi, 0.6 * np.pi))
            ref = O.op_norm(lap.fun(O.symbol_closed_forms()[name]))
            if mode == "run":
                cfg = self._config("hinf", {"pipeline": "hinf", "symbol": name, "theta": theta,
                                            "recipe": {"kind": "laplacian-1d", "m": m}})
                get = lambda proc, out: self._report(out, "hinf.json")["outputs"]["norm"]  # noqa: E731
                args = ["run", "--config", cfg]
            else:
                get = lambda proc, out: json.loads(proc.stdout)["norm"]  # noqa: E731
                args = ["hinf", "--matrix", A_csv, "--symbol", name, "--theta", repr(theta)]
            return self._task(mode, cls, args, "calculus",
                              lambda proc, out: abs(get(proc, out) - ref) / TOL_HINF)
        if what in ("sum", "sum-inverse"):
            if mode == "run":
                # the pair of acceptance criterion 5, diag(1, 2) and diag(3, 4)
                cfg = self._config("sum", {
                    "pipeline": "sum", "check_identities": [-float(rng.uniform(0.25, 0.5)), 0.0],
                    "recipe_a": {"kind": "diag-positive", "entries": [1.0, 2.0]},
                    "recipe_b": {"kind": "diag-positive", "entries": [3.0, 4.0]}})
                args, report = ["run", "--config", cfg], "sum.json"
            else:
                args = ["sum-inverse", "--matrix-a", A_csv, "--matrix-b", self._path("B.csv"),
                        "--theta-a", repr(0.9 * np.pi), "--theta-b", repr(0.6 * np.pi)]
                report = "sum-inverse.json"
            return self._task(mode, cls, args, "sums", self._check_sum(report))
        if what == "t-sector":
            phi = float(rng.uniform(0.0, 0.8))
            r = float(rng.uniform(np.exp(-1.0), 1.0))
            n = int(rng.integers(1, 4))
            seed = int(rng.integers(1, 2 ** 31))

            def lhs_ref():
                # the pipeline draws its vectors from the config seed, the
                # direct subcommand from seed 0
                xr = np.random.default_rng(seed if mode == "run" else 0)
                xs = [xr.standard_normal(m) + 1j * xr.standard_normal(m) for _ in range(n + 1)]
                res = sum(np.linalg.norm(np.linalg.solve(
                    np.eye(m) + r * np.exp(-k + 1j * phi) * lap.matrix(), x)) ** 2
                    for k, x in enumerate(xs))
                return np.sqrt(2 * np.pi * res)

            if mode == "run":
                cfg = self._config("tsector", {"pipeline": "t-sector", "seed": seed, "phi": phi,
                                               "r": r, "n": n,
                                               "recipe": {"kind": "laplacian-1d", "m": m}})
                args = ["run", "--config", cfg]
                get = lambda proc, out: self._report(out, "t-sector.json")["outputs"]["lhs"]  # noqa: E731
            else:
                args = ["t-sector", "--matrix", A_csv, "--phi", repr(phi), "--r", repr(r),
                        "--n", str(n)]
                get = lambda proc, out: json.loads(proc.stdout)["lhs"]  # noqa: E731

            def check(proc, out):
                ref = lhs_ref()
                return abs(get(proc, out) - ref) / ref / TOL_PARSEVAL

            return self._task(mode, cls, args, "tsector", check)
        if what == "maxreg":
            if mode == "direct":
                # the 1x1 operator with the closed-form constant
                exact = np.sqrt((1.0 - np.exp(-2.0)) / 2.0)
                return self._task(mode, cls, ["maxreg", "--matrix", self._path("one.csv"),
                                              "--nt", "64" if self.tiny else "512"], "maxreg",
                                  lambda proc, out: abs(json.loads(proc.stdout)[
                                      "per_probe_fprime"][0] - exact) / TOL_MAXREG)
            nt = 64 if self.tiny else 256
            tau = float(rng.uniform(0.5, 1.5))
            cfg = self._config("maxreg", {"pipeline": "maxreg", "tau": tau, "nt": nt,
                                          "recipe": {"kind": "laplacian-1d", "m": m}})

            def check(proc, out):
                outs = self._report(out, "maxreg.json")["outputs"]
                grid = ss.TimeGrid(tau, nt)
                A = lap.matrix()
                errs = []
                for i, (_, g) in enumerate(ss.maxreg.default_probes(ss.MatrixOperator(A), grid)):
                    rf, ra = O.maxreg_ratios(lap.lam, lap.V, g.values, grid.dt, 2.0, A)
                    errs += [abs(outs["per_probe_fprime"][i] - rf) / rf,
                             abs(outs["per_probe_Af"][i] - ra) / ra]
                return max(errs) / TOL_EXACT

            return self._task(mode, cls, ["run", "--config", cfg], "maxreg", check)
        if what == "sweep":
            nt = 64
            cfg = self._config("sweep", {"pipeline": "sweep", "sizes": [4, m], "nt": nt})

            def check(proc, out):
                outs = self._report(out, "sweep.json")["outputs"]
                cap = 1.0 + 5.0 / nt
                _require(max(outs["constants_fprime"] + outs["constants_Af"]) <= cap,
                         f"sweep constant above the p = 2 bound {cap}")
                with open(os.path.join(out, "sweep.csv")) as fh:
                    rows = fh.read().strip().splitlines()[1:]
                _require(len(rows) == 2, "sweep CSV row count")
                return 0.0

            return self._task(mode, cls, ["run", "--config", cfg], "maxreg", check)
        # rep-check: the subcommand compares against its own direct solve
        rho = float(rng.uniform(0.3, 2.0))
        theta = float(rng.uniform(0.3, 0.9))

        def check(proc, out):
            return json.loads(proc.stdout)["error"] / TOL_REP

        return self._task(mode, cls, ["rep-check", "--matrix", A_csv, "--rho", repr(rho),
                                      "--theta", repr(theta)], "tsector", check)


WORKLOADS = {w.name: w for w in (SectorLadder, ContourMix, MaxregCauchy, CliConfigs)}

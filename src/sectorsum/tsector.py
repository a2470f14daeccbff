"""Trigonometric-polynomial sectoriality tests, the principal-value
resolvent representation formulas, and the periodic Hilbert multiplier.

The tested inequality bounds, over t in (0, 2 pi),

    || sum_k e^{ikt} (I + r e^{-k + i phi} A)^{-1} x_k ||_{L^p}

by a constant times || sum_k a_k(t) x_k ||_{L^p} for some collection of
multipliers with ||a_k||_inf <= 1.  The existential quantifier over the
a_k cannot be falsified on a machine; witness_search certifies
sufficiency over an explicit recorded family and reports the best
constant the family achieves.

The representation formulas, for an operator with bounded imaginary
powers of power angle phi < pi and any rho > 0,

    (I + rho e^{i theta} A)^{-1} x
        = (1/2 pi i) PV int (rho A)^{-is} pi e^{theta s}/sinh(pi s) x ds + x/2

hold for |theta| < pi - phi (theta = 0 is the real shift); the
integrand decays like e^{(phi + |theta| - pi)|s|}, which fixes the
cutoff.  Every s-integral here, these and the bound assembly's, is one
batched ImaginaryPowerFamily.at_many stack and one reduction, on a
family the operator keeps across calls (`calculus._cached_family`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linops
from .calculus import BipFit, _cached_family, cached_bip_fit
from .contour import gauss_panels, pv_integral
from .errors import AngleOutOfRange, DenominatorDegenerate, TruncationNotConverged
from .linops import _sorted_distinct
from .maxreg import GridFunction, TimeGrid
from .sector import MatrixOperator, certify_sector

FAMILY_SEED = 0xA11CE

#: Gauss-Legendre nodes on [0, S] of the representation formulas'
#: principal value (each is mirrored to -s)
REP_NODES = 320

#: the most harmonics whose scales r e^{-k} (r >= 1/e) and their
#: inverses all stay within the double range: e^{k + 1} must be finite
MAX_TERMS = int(np.log(np.finfo(float).max))


def periodic_grid(N_t: int, p: float = 2.0) -> TimeGrid:
    """Uniform grid of N_t points on the circle (0, 2 pi)."""
    return TimeGrid(tau=2.0 * np.pi, N_t=N_t, p=p, periodic=True)


def _check_grid_resolves(n_terms: int, N_t: int) -> None:
    if N_t < 4 * n_terms:
        raise ValueError(
            f"N_t = {N_t} cannot resolve {n_terms} harmonics; need N_t >= {4 * n_terms}"
        )


def trig_sum(xs, N_t: int) -> np.ndarray:
    """Values of sum_k e^{ikt} x_k on the uniform grid, shape (N_t, dim)."""
    xs = [linops.as_vector(x) for x in xs]
    t = 2.0 * np.pi * np.arange(N_t) / N_t
    phases = np.exp(1j * np.outer(t, np.arange(len(xs))))
    return phases @ np.array(xs)


def lhs_norm(
    A: MatrixOperator,
    phi: float,
    r: float,
    xs,
    p: float = 2.0,
    N_t: int = 256,
) -> float:
    """L^p(0, 2pi) norm of sum_k e^{ikt} (I + r e^{-k+i phi} A)^{-1} x_k.

    p may be any exponent in [1, inf) here (the closedness machinery
    never needs p = 1, but the majorant inequality itself admits it).
    """
    return _lhs(A, phi, r, xs, p, N_t)[0]


def _lhs(A: MatrixOperator, phi: float, r: float, xs, p: float, N_t: int):
    """:func:`lhs_norm` and the terms (I + r e^{-k+i phi} A)^{-1} x_k it
    sums, as an (n, dim) array, solved on A's cached basis."""
    if not (np.exp(-1.0) - 1e-12 <= r <= 1.0 + 1e-12):
        raise ValueError(f"r must lie in [1/e, 1], got {r}")
    if A.certified is None or abs(phi) > A.angle() + 1e-12:
        raise ValueError("|phi| must not exceed the certified angle of A")
    if p < 1.0:
        raise ValueError(f"p must lie in [1, inf), got {p}")
    xs = [linops.as_vector(x, A.dim) for x in xs]
    _check_grid_resolves(len(xs), N_t)
    if len(xs) > MAX_TERMS:
        raise ValueError(f"at most {MAX_TERMS} harmonics have a scale e^-k within the "
                         f"double range, got {len(xs)}")
    scale = r * np.exp(-np.arange(len(xs)) + 1j * phi)
    # (I + s A)^{-1} = (1/s) (A + 1/s)^{-1}
    resolved = linops.basis_solve(A.resolvent_basis(), 1.0 / scale, np.array(xs))
    resolved /= scale[:, None]
    grid = periodic_grid(N_t)
    phases = np.exp(1j * np.outer(grid.times(), np.arange(len(xs))))
    return GridFunction(grid, phases @ resolved).lp_norm(p), resolved


# ----------------------------------------------------------- multiplier family


@dataclass(frozen=True)
class MultiplierFamily:
    """Finite recorded family of unimodular multiplier collections.

    kinds:
      pure-harmonics      a_k(t) = e^{i(kt + beta)}, beta in {0, pi/2, pi, 3pi/2}
      piecewise-constant  unimodular phases seeded by FAMILY_SEED, constant
                          on m = 4 and m = 8 segments, four members each
      proof-derived       time-shifted harmonics a_k(t) = e^{ik(t+s)},
                          s in {0, pi/4, pi/2, pi}
    """

    kind: str = "pure-harmonics"

    def __post_init__(self):
        if self.kind not in ("pure-harmonics", "piecewise-constant", "proof-derived"):
            raise ValueError(f"unknown multiplier family kind {self.kind!r}")

    def members(self, n_terms: int, N_t: int):
        """Yield (label, a) with a of shape (n_terms, N_t), |a| <= 1."""
        t = 2.0 * np.pi * np.arange(N_t) / N_t
        k = np.arange(n_terms)
        if self.kind == "pure-harmonics":
            for beta in (0.0, np.pi / 2, np.pi, 1.5 * np.pi):
                yield f"harmonic-beta={beta:.3f}", np.exp(1j * (np.outer(k, t) + beta))
        elif self.kind == "piecewise-constant":
            rng = np.random.default_rng(FAMILY_SEED)
            for m in (4, 8):
                for j in range(4):
                    seg = np.minimum((t / (2 * np.pi) * m).astype(int), m - 1)
                    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_terms, m))
                    yield f"pw-m={m}-{j}", np.exp(1j * phases[:, seg])
        else:   # proof-derived
            for s in (0.0, np.pi / 4, np.pi / 2, np.pi):
                yield f"shifted-s={s:.3f}", np.exp(1j * np.outer(k, t + s))


@dataclass
class TSectorReport:
    """Witness-search outcome for the majorant inequality."""

    C_hat: float
    witness: str
    phi: float
    r: float
    p: float
    n_terms: int
    N_t: int
    family_kind: str
    lhs: float
    denominator: float


def witness_search(
    A: MatrixOperator,
    phi: float,
    r: float,
    xs,
    p: float = 2.0,
    family: MultiplierFamily | None = None,
    N_t: int = 256,
) -> TSectorReport:
    """Best (smallest) constant lhs / ||sum_k a_k x_k||_p over the family.

    The reported C_hat upper-bounds the constant achievable within the
    family; degenerate denominators are rejected.
    """
    family = family or MultiplierFamily()
    xs = [linops.as_vector(x, A.dim) for x in xs]
    lhs = lhs_norm(A, phi, r, xs, p, N_t)  # also checks the grid resolves xs
    grid = periodic_grid(N_t)
    floor = 1e-12 * sum(np.linalg.norm(x) for x in xs)
    X = np.array(xs)
    best = None
    for label, a in family.members(len(xs), N_t):
        vals = np.einsum("kt,kd->td", a, X)
        denom = GridFunction(grid, vals).lp_norm(p)
        if denom <= floor:
            continue
        ratio = lhs / denom
        if best is None or ratio < best[0]:
            best = (ratio, label, denom)
    if best is None:
        raise DenominatorDegenerate(
            "every family member yielded a numerically zero denominator"
        )
    return TSectorReport(
        C_hat=float(best[0]),
        witness=best[1],
        phi=phi,
        r=r,
        p=p,
        n_terms=len(xs),
        N_t=N_t,
        family_kind=family.kind,
        lhs=lhs,
        denominator=float(best[2]),
    )


def parseval_tsector_check(
    A: MatrixOperator,
    phi: float,
    r: float,
    xs,
    N_t: int = 256,
) -> dict:
    """p = 2 equivalence check for normal operators: the grid value of
    lhs_norm^2 must not exceed K-hat^2 * || sum e^{ikt} x_k ||_2^2, with
    K-hat certified at angle |phi|.  Both sides are also reproduced by
    Parseval sums as an independent route.  Normal means normal to
    working precision, as `A.normal_basis()` decides."""
    if A.normal_basis() is None:
        raise ValueError("parseval check needs a normal operator")
    xs = [linops.as_vector(x, A.dim) for x in xs]
    _check_grid_resolves(len(xs), N_t)
    K_hat = certify_sector(A, abs(phi), attach=False)
    lhs, resolved = _lhs(A, phi, r, xs, 2.0, N_t)
    rhs_vals = trig_sum(xs, N_t)
    rhs = GridFunction(periodic_grid(N_t, 2.0), rhs_vals).lp_norm()
    # Parseval sums of the same terms: a route independent of the grid
    lhs_parseval = np.sqrt(2.0 * np.pi * np.sum(np.abs(resolved) ** 2))
    rhs_parseval = np.sqrt(2.0 * np.pi * sum(np.linalg.norm(x) ** 2 for x in xs))
    record = {
        "K_hat": K_hat,
        "lhs": lhs,
        "rhs": rhs,
        "lhs_parseval": float(lhs_parseval),
        "rhs_parseval": float(rhs_parseval),
        "margin": float(K_hat * rhs - lhs),
        "passed": bool(lhs <= K_hat * rhs * (1.0 + 1e-9)),
    }
    return record


# -------------------------------------------------- representation formulas


def _rep_cutoff(bip: BipFit, theta: float, tol_tail: float) -> float:
    """The representation formulas' cutoff S, where the kernel's bound
    M e^{-(pi - phi - |theta|) S} falls to tol_tail, a number in (0, 1)."""
    if not 0.0 < tol_tail < 1.0:
        raise ValueError(f"tol_tail must be a number in (0, 1), got {tol_tail!r}")
    gap = np.pi - bip.phi - abs(theta)
    if gap <= 0.05:
        raise AngleOutOfRange(
            f"|theta| = {abs(theta):.4f} leaves no decay margin below "
            f"pi - phi-hat = {np.pi - bip.phi:.4f}"
        )
    return float(np.log(max(bip.M, 1.0) / tol_tail) / gap)


def resolvent_rep_real(
    A: MatrixOperator,
    rho: float,
    x,
    bip: BipFit | None = None,
    tol_tail: float = 1e-9,
) -> np.ndarray:
    """(I + rho A)^{-1} x from the principal-value formula: the
    theta = 0 case of resolvent_rep_rotated (without ``bip``, A's cached
    default fit, :func:`calculus.cached_bip_fit`)."""
    return resolvent_rep_rotated(A, rho, 0.0, x, bip=bip, tol_tail=tol_tail)


def resolvent_rep_rotated(
    A: MatrixOperator,
    rho: float,
    theta: float,
    x,
    bip: BipFit | None = None,
    tol_tail: float = 1e-9,
) -> np.ndarray:
    """(I + rho e^{i theta} A)^{-1} x as one principal value with kernel
    pi e^{theta s}/sinh(pi s), plus x/2.

    ``bip`` sets the cutoff; without it the fit is A's default
    ``bip_fit``, taken once per certificate and cached on A
    (:func:`calculus.cached_bip_fit`), so repeated calls on one
    certified operator fit once.  The family for the cutoff is A's kept
    one (:func:`calculus._cached_family`): calls with one cutoff, as
    those of one theta and tol_tail are, build it once."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    x = linops.as_vector(x, A.dim)
    bip = bip or cached_bip_fit(A)
    if abs(theta) >= np.pi - bip.phi:
        raise AngleOutOfRange(
            f"need |theta| < pi - phi-hat = {np.pi - bip.phi:.4f}, got {theta}"
        )
    S = _rep_cutoff(bip, theta, tol_tail)
    fam = _cached_family(A, S)

    def kernel(s):
        coef = np.pi * np.exp(theta * s) / np.sinh(np.pi * s) * rho ** (-1j * s)
        return coef[:, None] * (fam.at_many(-s) @ x) / (2j * np.pi)

    return pv_integral(kernel, S, n_nodes=REP_NODES) + 0.5 * x


# ------------------------------------------------------- Hilbert multiplier


def discrete_hilbert(f: GridFunction) -> GridFunction:
    """Periodic conjugate-function multiplier: harmonic k -> -i sgn(k),
    k = 0 -> 0, via the discrete Fourier basis.

    The Nyquist bin (k = N/2 for even N) is annihilated as well, so the
    transform maps real data to real data; two applications give
    -(identity minus mean) on Nyquist-free inputs.
    """
    if not f.grid.periodic:
        raise ValueError("discrete_hilbert needs a periodic grid")
    N = f.grid.N_t
    if N % 2 != 0:
        raise ValueError("N_t must be even")
    spec = np.fft.fft(f.values, axis=0)
    k = np.fft.fftfreq(N, d=1.0 / N)
    mult = -1j * np.sign(k)
    mult[0] = 0.0
    mult[N // 2] = 0.0
    return GridFunction(f.grid, np.fft.ifft(mult[:, None] * spec, axis=0))


# ------------------------------------------------------- bound assembly


def bip_tsector_bound_assembly(
    A: MatrixOperator,
    theta: float,
    r: float,
    xs,
    p: float = 2.0,
    N_t: int = 256,
    bip: BipFit | None = None,
) -> dict:
    """Evaluate the four-term split of the rotated-resolvent sum (the
    smoothed kernel term, the principal-value term, the half term, and
    the rotation term) and verify their L^p norms dominate lhs_norm.

    Without ``bip``, A's cached default fit is used, and the family is
    A's kept one, as in :func:`resolvent_rep_rotated`.

    The underlying pointwise identity is exact, so the sum of norms
    dominates the left side by the triangle inequality up to quadrature
    and grid error: the s-integrals are cut where the integrand falls
    below 1e-8, and the check allows 1e-6 relative.
    """
    xs = [linops.as_vector(x, A.dim) for x in xs]
    _check_grid_resolves(len(xs), N_t)
    bip = bip or cached_bip_fit(A)
    if bip.phi + abs(theta) >= np.pi:
        raise AngleOutOfRange("phi-hat + |theta| must stay below pi")
    if p < 1.0:
        raise ValueError(f"p must lie in [1, inf), got {p}")
    lhs = lhs_norm(A, theta, r, xs, p, N_t)  # also checks r, theta and p
    S = _rep_cutoff(bip, theta, 1e-8)
    fam = _cached_family(A, max(S, np.pi))
    grid = periodic_grid(N_t)
    t = grid.times()
    n_terms = len(xs)
    phases = np.exp(1j * np.outer(t, np.arange(n_terms)))  # (N_t, n)
    X = np.array(xs)  # (n, dim)
    log_scales = np.log(r) - np.arange(n_terms)  # log(r e^{-k})

    def coefficients(s):
        """(r e^{-k} A)^{-is} x_k stacked as (len(s), n, dim); phases @ a
        row is the field sum_k e^{ikt} (r e^{-k} A)^{-is} x_k."""
        scales = np.exp(-1j * np.outer(s, log_scales))
        return scales[:, :, None] * np.swapaxes(fam.at_many(-s) @ X.T, 1, 2)

    # term 1: smoothed kernel pi/sinh(pi s) - chi(s)/s, smooth on [-pi, pi]
    # and pure pi/sinh outside; term 4: rotation kernel
    # pi (e^{theta s} - 1)/sinh(pi s).  Both on one mesh split at +-pi,
    # whose even panel order puts no node at s = 0.
    n_outer = max(3, int((S - np.pi) / 0.7)) + 1
    seg_edges = _sorted_distinct(np.concatenate([
        np.linspace(-S, -np.pi, n_outer),
        np.linspace(-np.pi, np.pi, 10),
        np.linspace(np.pi, S, n_outer),
    ]))
    s, w = gauss_panels(seg_edges, 10)
    g1 = np.pi / np.sinh(np.pi * s) - np.where(np.abs(s) <= np.pi, 1.0 / s, 0.0)
    g4 = np.pi * np.expm1(theta * s) / np.sinh(np.pi * s)
    kernels = w * np.stack([g1, g4])
    term1, term4 = phases @ np.einsum("cs,ski->cki", kernels, coefficients(s)) / (2j * np.pi)

    # term 2: principal value of chi(s)/s over [-pi, pi]
    pv = pv_integral(lambda s: coefficients(s) / s[:, None, None], np.pi, n_nodes=260)
    term2 = phases @ pv / (2j * np.pi)

    # term 3: half sum
    term3 = 0.5 * (phases @ X)

    norms = [GridFunction(grid, tm).lp_norm(p) for tm in (term1, term2, term3, term4)]
    rhs = float(sum(norms))
    record = {
        "lhs": lhs,
        "term_norms": [float(v) for v in norms],
        "rhs_sum": rhs,
        "phi_hat": bip.phi,
        "M_hat": bip.M,
        "theta": theta,
        "r": r,
        "p": p,
        "N_t": N_t,
        "cutoff": S,
        "passed": bool(lhs <= rhs * (1.0 + 1e-6) + 1e-12),
    }
    if not record["passed"]:
        raise TruncationNotConverged(
            f"four-term sum {rhs:.6g} fails to dominate lhs {lhs:.6g}"
        )
    return record

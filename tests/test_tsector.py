import warnings

import numpy as np
import pytest

from sectorsum import (
    GridFunction,
    MultiplierFamily,
    bip_fit,
    bip_tsector_bound_assembly,
    certify_sector,
    discrete_hilbert,
    lhs_norm,
    parseval_tsector_check,
    resolvent_rep_real,
    resolvent_rep_rotated,
    witness_search,
)
from sectorsum import calculus, tsector
from sectorsum.calculus import ImaginaryPowerFamily
from sectorsum.errors import AngleOutOfRange, DenominatorDegenerate
from sectorsum.tsector import periodic_grid
from conftest import certified


@pytest.fixture(scope="module")
def diag124():
    return certified(np.diag([1.0, 2.0, 4.0]), 0.9 * np.pi)


# ------------------------------------------------------------------ lhs norm


def test_lhs_norm_single_constant_term():
    A = certified(np.eye(2), 0.9 * np.pi)
    e1 = np.array([1.0, 0.0])
    val = lhs_norm(A, 0.0, 1.0, [e1], p=2.0, N_t=64)
    assert val == pytest.approx(np.sqrt(2 * np.pi) * 0.5, rel=1e-12)


def test_lhs_norm_parseval_two_terms(scalar1):
    # sqrt(2 pi (0.5^2 + (1/(1+1/e))^2))
    val = lhs_norm(scalar1, 0.0, 1.0, [[1.0], [1.0]], p=2.0, N_t=512)
    oracle = np.sqrt(2 * np.pi * (0.25 + (1.0 / (1.0 + np.exp(-1.0))) ** 2))
    assert val == pytest.approx(oracle, abs=1e-12)
    assert val == pytest.approx(2.22008, abs=1e-4)


def test_lhs_norm_r_contract(scalar1):
    with pytest.raises(ValueError):
        lhs_norm(scalar1, 0.0, 0.3, [[1.0]], p=2.0, N_t=64)


def test_lhs_norm_term_limit(scalar1):
    # the last scale r e^{-k} and its inverse stay finite at the limit;
    # the far terms are x_k to rounding, the k = 0 term 1/(1 + r)
    n = tsector.MAX_TERMS
    xs = [[1.0]] * n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, resolved = tsector._lhs(scalar1, 0.0, np.exp(-1.0), xs, 2.0, 4 * n)
    assert resolved[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), rel=1e-15)
    assert np.allclose(resolved[40:], 1.0, rtol=1e-15, atol=0.0)
    with pytest.raises(ValueError, match="harmonics"):
        lhs_norm(scalar1, 0.0, 1.0, xs + [[1.0]], p=2.0, N_t=4 * (n + 1))


# ------------------------------------------------------------ witness search


def test_witness_search_positive_diagonal(diag124):
    xs = [np.eye(3)[:, j] for j in range(3)]
    K_hat = certify_sector(diag124, 0.0, attach=False)
    rep = witness_search(diag124, 0.0, 1.0, xs, p=2.0,
                         family=MultiplierFamily("pure-harmonics"), N_t=128)
    assert rep.C_hat <= K_hat + 1e-9


def test_witness_search_single_term_family_independent(diag124):
    x0 = np.array([1.0, 0.0, 0.0])
    reps = [
        witness_search(diag124, 0.0, 1.0, [x0], p=2.0,
                       family=MultiplierFamily(kind), N_t=64)
        for kind in ("pure-harmonics", "proof-derived")
    ]
    # n = 0: the ratio is ||(I + r A)^{-1} x0|| / ||x0|| whatever the family
    expected = 0.5  # (1 + 1*1)^{-1} acting on the first basis vector
    for rep in reps:
        assert rep.C_hat == pytest.approx(expected, rel=1e-10)


def test_witness_search_degenerate(diag124):
    xs = [np.zeros(3), np.zeros(3)]
    with pytest.raises(DenominatorDegenerate):
        witness_search(diag124, 0.0, 1.0, xs, N_t=64)


def test_piecewise_family_members_unimodular():
    fam = MultiplierFamily("piecewise-constant")
    for label, a in fam.members(3, 64):
        assert np.allclose(np.abs(a), 1.0)


# ------------------------------------------------------------ parseval check


def test_parseval_check_positive_diagonal(diag124):
    xs = [np.eye(3)[:, j] for j in range(3)]
    rec = parseval_tsector_check(diag124, 0.0, 1.0, xs, N_t=256)
    assert rec["passed"] and rec["margin"] >= 0.0
    # the grid quadrature and the Parseval sums must agree to rounding
    assert rec["lhs"] == pytest.approx(rec["lhs_parseval"], rel=1e-10)
    assert rec["rhs"] == pytest.approx(rec["rhs_parseval"], rel=1e-10)


def test_parseval_check_identity_ratio():
    A = certified(np.eye(2), 0.9 * np.pi)
    xs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    rec = parseval_tsector_check(A, 0.0, 1.0, xs, N_t=128)
    # ratio max_k (1 + r e^{-k})^{-1} stays below 1 <= K-hat
    assert rec["lhs"] <= rec["rhs"]


def test_parseval_check_grid_contract(diag124):
    xs = [np.eye(3)[:, j] for j in range(3)]
    with pytest.raises(ValueError):
        parseval_tsector_check(diag124, 0.0, 1.0, xs, N_t=8)


def test_parseval_check_needs_normal():
    A = certified([[2.0, 1.0], [0.0, 2.0]], 0.75 * np.pi)
    with pytest.raises(ValueError):
        parseval_tsector_check(A, 0.0, 1.0, [np.array([1.0, 0.0])], N_t=64)


def test_parseval_check_follows_the_normal_basis_verdict():
    # a commutator of 1e-12 is small against ||A||^2, but a departure
    # from normality of 1e-12 is far above working precision: linops
    # finds no unitary eigenbasis, so the check refuses the operator
    A = certified([[1.0, 1e-12], [0.0, 2.0]], 0.9 * np.pi)
    assert A.normal_basis() is None
    with pytest.raises(ValueError, match="normal operator"):
        parseval_tsector_check(A, 0.0, 1.0, [np.array([1.0, 0.0])], N_t=64)


# ------------------------------------------------------- representation


def test_rep_real_pv_vanishes(scalar1):
    got = resolvent_rep_real(scalar1, 1.0, [1.0])
    assert abs(got[0] - 0.5) < 1e-9


def test_rep_real_scalar_four():
    A = certified([[4.0]], 0.9 * np.pi)
    got = resolvent_rep_real(A, 1.0, [1.0])
    assert abs(got[0] - 0.2) < 1e-5


def test_rep_real_diagonal():
    A = certified(np.diag([1.0, 9.0]), 0.9 * np.pi)
    got = resolvent_rep_real(A, 0.5, [1.0, 1.0])
    assert np.abs(got - np.array([2.0 / 3.0, 2.0 / 11.0])).max() < 1e-5


def test_rep_rotated_scalar(scalar1):
    got = resolvent_rep_rotated(scalar1, 1.0, np.pi / 4, [1.0])
    exact = 0.5 - 0.5j * np.tan(np.pi / 8)
    assert abs(got[0] - exact) < 1e-5
    assert abs(got[0] - (0.5 - 0.207107j)) < 1e-5


def test_rep_rotated_zero_angle_no_correction(scalar1):
    base = resolvent_rep_real(scalar1, 1.0, [1.0])
    rot = resolvent_rep_rotated(scalar1, 1.0, 0.0, [1.0])
    assert np.array_equal(base, rot)


def rotated_diagonal(n):
    """Normal operator U diag(e^{+-i 0.7 pi/4} geomspace(1, 4, n)) U*,
    certified at 0.7 pi."""
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    psi = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) * 0.7 * np.pi / 4
    return certified(Q @ np.diag(np.exp(1j * psi) * np.geomspace(1.0, 4.0, n)) @ Q.conj().T,
                     0.7 * np.pi)


def convection_diffusion(m, b=20.0):
    lap = (m + 1) ** 2 * (2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))
    return certified(lap + b * (m + 1) / 2 * (np.eye(m, k=1) - np.eye(m, k=-1)), 0.9 * np.pi)


@pytest.fixture(scope="module")
def rep_operators():
    ops = {
        "rotated-2": rotated_diagonal(2),
        "rotated-4": rotated_diagonal(4),
        "jordan-2": certified(2.0 * np.eye(2) + np.eye(2, k=1), 0.75 * np.pi),
        "convection-diffusion-8": convection_diffusion(8),
    }
    return {name: (A, bip_fit(A)) for name, A in ops.items()}


@pytest.mark.parametrize("theta", [0.0, 0.3, -0.3, 0.9, -0.9])
@pytest.mark.parametrize("name", ["rotated-2", "rotated-4", "jordan-2", "convection-diffusion-8"])
def test_rep_rotated_matches_direct_solve(rep_operators, name, theta):
    A, fit = rep_operators[name]
    assert abs(theta) < np.pi - fit.phi - 0.05
    x = np.linspace(1.0, 2.0, A.dim) + 0.5j * np.cos(np.arange(A.dim))
    rho = 0.7
    got = resolvent_rep_rotated(A, rho, theta, x, bip=fit)
    direct = np.linalg.solve(np.eye(A.dim) + rho * np.exp(1j * theta) * A.matrix, x)
    assert np.abs(got - direct).max() <= 1e-8


def test_rep_rotated_follows_a_tight_tol_tail():
    # the cutoff for tol_tail = 1e-11 takes A^{-is} out to |s| ~ 15
    d = np.exp(1j * np.array([1.0, -1.0]) * 0.7 * np.pi / 4) * np.array([1.0, 4.0])
    A = certified(np.diag(d), 0.7 * np.pi)
    x = np.array([1.0, 1.5 + 0.5j])
    got = resolvent_rep_rotated(A, 0.5, 0.9, x, tol_tail=1e-11)
    direct = np.linalg.solve(np.eye(2) + 0.5 * np.exp(0.9j) * A.matrix, x)
    assert np.abs(got - direct).max() <= 1e-10


def _count_family_calls(monkeypatch):
    calls = {"at": 0, "at_many": 0}
    at, at_many = ImaginaryPowerFamily.at, ImaginaryPowerFamily.at_many

    def counted_at(self, t):
        calls["at"] += 1
        return at(self, t)

    def counted_at_many(self, ts):
        calls["at_many"] += 1
        return at_many(self, ts)

    monkeypatch.setattr(ImaginaryPowerFamily, "at", counted_at)
    monkeypatch.setattr(ImaginaryPowerFamily, "at_many", counted_at_many)
    return calls


def test_family_calls_are_batched(rep_operators, monkeypatch):
    A, fit = rep_operators["rotated-2"]
    calls = _count_family_calls(monkeypatch)
    resolvent_rep_rotated(A, 0.7, 0.6, np.ones(2), bip=fit)
    assert calls == {"at": 0, "at_many": 1}
    calls.update(at=0, at_many=0)
    bip_tsector_bound_assembly(A, 0.5, 0.8, [np.ones(2), np.arange(2.0)], N_t=64, bip=fit)
    assert calls == {"at": 0, "at_many": 2}


def test_default_bip_fit_is_taken_once_per_certificate(monkeypatch):
    fits = []

    def counted_bip_fit(A, *args, **kwargs):
        fits.append(A)
        return bip_fit(A, *args, **kwargs)

    monkeypatch.setattr(calculus, "bip_fit", counted_bip_fit)
    A = rotated_diagonal(2)
    x = np.array([1.0, 0.5j])
    first = resolvent_rep_rotated(A, 0.7, 0.4, x)
    resolvent_rep_real(A, 1.3, x)
    bip_tsector_bound_assembly(A, 0.5, 0.8, [x], N_t=64)
    assert len(fits) == 1
    fit = calculus.cached_bip_fit(A)
    assert not fit.t_grid.flags.writeable and not fit.norms.flags.writeable
    # the cached fit gives what a fresh one given as bip= gives, and that
    # bypasses the cache
    assert np.array_equal(first, resolvent_rep_rotated(A, 0.7, 0.4, x,
                                                       bip=counted_bip_fit(A)))
    assert len(fits) == 2
    resolvent_rep_real(A, 1.3, x, bip=fit)
    assert len(fits) == 2
    # a certification to another angle refits, once
    certify_sector(A, 0.65 * np.pi)
    resolvent_rep_rotated(A, 0.7, 0.4, x)
    resolvent_rep_real(A, 1.3, x)
    assert len(fits) == 3 and calculus.cached_bip_fit(A) is not fit


class _ExactFamily:
    """A^{it} from the eigendecomposition A = V diag(d) V^{-1}, with the
    interface of ImaginaryPowerFamily that the assembly uses."""

    def __init__(self, A, t_max=8.0):
        self.d, self.V = np.linalg.eig(A.matrix)
        self.V_inv = np.linalg.inv(self.V)

    def at_many(self, ts):
        powers = np.exp(1j * np.multiply.outer(np.asarray(ts, dtype=float), np.log(self.d)))
        return (self.V * powers[:, None, :]) @ self.V_inv


def test_assembly_term_norms_pinned(monkeypatch):
    # the term norms of the four-term split against the same assembly
    # (same bip fit, cutoff and meshes) with exact A^{-is}
    rng = np.random.default_rng(11)
    xs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2)]
    cases = [(certified([[4.0]], 0.9 * np.pi), np.pi / 4, 1.0, [np.array([1.0])]),
             (rotated_diagonal(2), 0.5, 0.8, xs)]
    for A, theta, r, vecs in cases:
        rec = bip_tsector_bound_assembly(A, theta, r, vecs, N_t=128)
        with monkeypatch.context() as patch:
            patch.setattr(tsector, "_cached_family", _ExactFamily)
            exact = bip_tsector_bound_assembly(A, theta, r, vecs, N_t=128)
        assert exact["cutoff"] == rec["cutoff"]
        assert rec["term_norms"] == pytest.approx(exact["term_norms"], rel=1e-11)


@pytest.mark.parametrize("tol_tail", [-1e-9, float("nan"), 0.0, 2.0, 10.0])
@pytest.mark.parametrize("rep", ["real", "rotated"])
def test_rep_rejects_a_tol_tail_outside_0_1(scalar1, rep, tol_tail):
    # a ValueError that names the argument, before any np.log warns or a
    # negative cutoff reaches the family
    fit = bip_fit(scalar1, t_max=3.0, n_t=9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="tol_tail"):
            if rep == "real":
                resolvent_rep_real(scalar1, 1.0, [1.0], bip=fit, tol_tail=tol_tail)
            else:
                resolvent_rep_rotated(scalar1, 1.0, 0.3, [1.0], bip=fit, tol_tail=tol_tail)


def test_rep_rotated_angle_contract():
    A = certified([[np.exp(1j * np.pi / 2)]], 0.45 * np.pi)
    fit = bip_fit(A, t_max=3.0)
    with pytest.raises(AngleOutOfRange):
        resolvent_rep_rotated(A, 1.0, 0.75 * np.pi, [1.0], bip=fit)


def test_kernel_splitting_identity(scalar1):
    # pi/sinh(pi s) = (pi/sinh - chi/s) + chi/s recombines to the same
    # resolvent value
    A = certified([[3.0]], 0.9 * np.pi)
    fit = bip_fit(A, t_max=2.0, n_t=9)
    from sectorsum.contour import pv_integral
    from numpy.polynomial.legendre import leggauss

    fam = ImaginaryPowerFamily(A, t_max=30.0)
    x = np.array([1.0 + 0j])
    S = 30.0

    def smooth_kernel(s):
        g = np.pi / np.sinh(np.pi * s) - (1.0 / s if abs(s) <= np.pi else 0.0)
        return g * (fam.at(-s) @ x) / (2j * np.pi)

    xg, wg = leggauss(12)
    smooth = np.zeros(1, dtype=complex)
    edges = np.unique(np.concatenate([
        np.linspace(-S, -np.pi, 40), np.linspace(-np.pi, np.pi, 12),
        np.linspace(np.pi, S, 40)]))
    for a, b in zip(edges[:-1], edges[1:]):
        for s, w in zip(0.5 * (b + a) + 0.5 * (b - a) * xg, 0.5 * (b - a) * wg):
            smooth += w * smooth_kernel(s)
    pv_part = pv_integral(lambda s: (fam.at_many(-s) @ x) / s[:, None], np.pi,
                          n_nodes=200) / (2j * np.pi)
    recombined = smooth + pv_part + 0.5 * x
    direct = resolvent_rep_real(A, 1.0, x)
    assert np.abs(recombined - direct).max() < 1e-8


def test_transference_integrals_finite_and_monotone():
    A = certified(np.diag([np.exp(0.3j), np.exp(-0.3j)]), 0.6 * np.pi)
    fit = bip_fit(A, t_max=4.0)
    fam = ImaginaryPowerFamily(A, t_max=25.0)
    s = np.linspace(-25.0, 25.0, 801)
    s = s[np.abs(s) > 1e-9]
    norms = np.array([np.linalg.norm(fam.at(-si), 2) for si in s])
    smooth = np.abs(np.pi / np.sinh(np.pi * s) - np.where(np.abs(s) <= np.pi, 1.0 / s, 0.0))
    base = np.trapezoid(norms * smooth * (1.0 + np.abs(s)), s)
    assert np.isfinite(base)
    vals = []
    for theta in (0.3, 0.6, 0.9):
        kern = np.abs(np.pi * (np.exp(theta * s) - 1.0) / np.sinh(np.pi * s))
        vals.append(np.trapezoid(norms * kern * (1.0 + np.abs(s)), s))
    assert all(np.isfinite(v) for v in vals)
    assert vals[0] < vals[1] < vals[2]


# ------------------------------------------------------- Hilbert multiplier


def test_hilbert_single_harmonic():
    grid = periodic_grid(64)
    t = grid.times()
    out = discrete_hilbert(GridFunction(grid, np.exp(1j * t)))
    assert np.abs(out.values[:, 0] + 1j * np.exp(1j * t)).max() < 1e-14


def test_hilbert_constants_vanish():
    grid = periodic_grid(32)
    out = discrete_hilbert(GridFunction(grid, np.ones(32)))
    assert np.abs(out.values).max() == 0.0


def test_hilbert_cosine_to_sine():
    grid = periodic_grid(128)
    t = grid.times()
    out = discrete_hilbert(GridFunction(grid, np.cos(2 * t)))
    assert np.abs(out.values[:, 0] - np.sin(2 * t)).max() < 1e-12


def test_hilbert_multiplier_exact_per_harmonic():
    grid = periodic_grid(64)
    t = grid.times()
    for k in range(-16, 17):
        out = discrete_hilbert(GridFunction(grid, np.exp(1j * k * t)))
        expected = -1j * np.sign(k) * np.exp(1j * k * t)
        assert np.abs(out.values[:, 0] - expected).max() < 1e-12


def test_hilbert_idempotence():
    grid = periodic_grid(64)
    t = grid.times()
    rng = np.random.default_rng(9)
    # band-limited below Nyquist, mean removed afterward
    f = sum(rng.standard_normal() * np.exp(1j * k * t) for k in range(-10, 11))
    gf = GridFunction(grid, f)
    twice = discrete_hilbert(discrete_hilbert(gf))
    mean = np.mean(gf.values, axis=0)
    assert np.abs(twice.values - (-(gf.values - mean))).max() < 1e-12


# ------------------------------------------------------------- assembly


def test_assembly_scalar(scalar1):
    rec = bip_tsector_bound_assembly(
        scalar1, np.pi / 3, 1.0, [np.array([1.0]), np.array([1.0])], p=2.0, N_t=128
    )
    assert rec["passed"]
    assert all(np.isfinite(v) for v in rec["term_norms"])
    assert rec["term_norms"][1] > 0 and rec["term_norms"][3] > 0


def test_assembly_zero_angle_drops_rotation(scalar1):
    rec = bip_tsector_bound_assembly(
        scalar1, 0.0, 1.0, [np.array([1.0]), np.array([1.0])], p=2.0, N_t=128
    )
    assert rec["term_norms"][3] == 0.0
    assert rec["passed"]


def test_assembly_single_term():
    # a != 1 keeps the smoothed and principal-value terms alive; at
    # theta = 0 the rotation term drops, leaving exactly three
    A = certified([[4.0]], 0.9 * np.pi)
    rec = bip_tsector_bound_assembly(A, 0.0, 1.0, [np.array([1.0])], p=2.0, N_t=128)
    assert rec["passed"]
    assert sum(v > 1e-12 for v in rec["term_norms"]) == 3
    rec = bip_tsector_bound_assembly(A, np.pi / 4, 1.0, [np.array([1.0])], p=2.0, N_t=128)
    assert rec["passed"]

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from sectorsum import (
    HolomorphicSymbol,
    ImaginaryPowerFamily,
    bip_fit,
    builtin_symbols,
    complex_power,
    fractional_power,
    hinf_apply,
    hinf_constant,
    imaginary_power,
    symbol_class_check,
)
from sectorsum import calculus, contour, linops
from sectorsum.calculus import hinf_contour, power_contour
from sectorsum.harness import generate, laplacian_eigenvalues
from sectorsum.errors import ClassViolated
from conftest import certified


# ------------------------------------------------------------ complex powers


def test_complex_power_half_inverse(diag14):
    got = complex_power(diag14, -0.5)
    assert np.abs(got - np.diag([1.0, 0.5])).max() < 1e-8


def test_complex_power_identity_operator():
    A = certified(np.eye(3), 0.9 * np.pi)
    for z in (-0.5, -1.0, -0.3 + 0.7j):
        assert np.abs(complex_power(A, z) - np.eye(3)).max() < 1e-9


def test_complex_power_inverse_oracle():
    A = certified(np.diag([4.0]), 0.9 * np.pi)
    direct = np.linalg.inv(A.matrix)
    assert np.abs(complex_power(A, -1.0) - direct).max() < 1e-8


def test_complex_power_zero_is_identity(diag14):
    assert np.array_equal(complex_power(diag14, 0.0), np.eye(2))


def test_complex_power_contract():
    A = certified(np.diag([1.0, 2.0]), 0.9 * np.pi)
    with pytest.raises(ValueError):
        complex_power(A, 0.5)


def test_power_semigroup_property():
    ops = [
        certified(np.diag([1.0, 2.0, 7.0]), 0.9 * np.pi),
        certified([[2.0, 1.0], [0.0, 2.0]], 0.75 * np.pi),
        certified(np.exp(1j * np.pi / 4) * np.diag([1.0, 3.0]), 0.7 * np.pi),
    ]
    pairs = [(-0.5, -0.25), (-0.3 + 0.5j, -0.7 - 0.5j), (-1.0, -0.5 + 1.0j)]
    for A in ops:
        for z1, z2 in pairs:
            P1, P2 = complex_power(A, z1), complex_power(A, z2)
            P12 = complex_power(A, z1 + z2)
            assert np.linalg.norm(P1 @ P2 - P12, 2) <= 1e-6


def test_fractional_power_positive_exponent(diag14):
    got = fractional_power(diag14, 0.5)
    assert np.abs(got - np.diag([1.0, 2.0])).max() < 1e-8


# ---------------------------------------------------------- imaginary powers


def _laplacian(m):
    return (m + 1) ** 2 * (2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))


def _observed_tail(run, spec):
    """(tail estimate of spec, ||X - X_wide||_2, X) for a run(spec) ->
    (X, DunfordResult) at tol 1, where X_wide takes the same rule with
    four more steps at each end of the rays (the step is the rule's own,
    so the nodes of spec are nodes of the wider rule)."""
    value, info = run(spec)
    step = contour._ray_rule(spec)[2]
    wide = replace(spec, h=step, u_lo=spec.u_lo - 4 * step, u_hi=spec.u_hi + 4 * step)
    far, _ = run(wide)
    return info.tail_estimate, float(np.linalg.norm(value - far, 2)), value


@pytest.mark.parametrize("m, re", [(48, -0.75), (48, -0.9), (8, -0.65)])
def test_power_tail_estimate_covers_the_truncation(m, re):
    # the estimate extrapolates the end nodes of the rays; it must cover
    # what the rule leaves out there, and stay within tol
    A = certified(_laplacian(m), 0.9 * np.pi)
    spec = power_contour(A, re)
    est, observed, _ = _observed_tail(
        lambda s: complex_power(A, re, spec=s, tol=1.0, with_info=True), spec)
    assert observed <= est <= 1e-9
    assert complex_power(A, re, spec=spec, with_info=True)[1].tail_estimate == est


def test_hinf_tail_estimate_covers_the_truncation():
    # the hinf pipeline's cayley-squared case at theta = pi/2 on the
    # m = 8 Laplacian: the estimate was 1.55e-9 against an error of 3.6e-11
    # in the spectral norm
    A = generate("laplacian-1d", certify_angle=np.pi / 2 + 0.3, m=8)
    f = builtin_symbols(np.pi / 2)["cayley-squared"]
    est, observed, value = _observed_tail(
        lambda s: hinf_apply(f, A, spec=s, tol=1.0, with_info=True), hinf_contour(f, A))
    lam = laplacian_eigenvalues(8)
    k = np.arange(1, 9)
    V = np.sqrt(2.0 / 9.0) * np.sin(np.outer(k, k) * np.pi / 9.0)
    error = np.linalg.norm(value - (V * (lam / (1.0 + lam) ** 2)) @ V.T, 2)
    assert max(observed, error) <= est <= 1e-9
    _, info = hinf_apply(f, A, with_info=True)
    assert info.tail_estimate == est


def test_hinf_tail_estimate_is_flat_in_the_dimension():
    # the tail estimate is measured in the spectral norm: a Frobenius
    # estimate carries ||I||_F = sqrt(n) and outgrew tol near n = 800 on a
    # result accurate to 2.6e-11
    f = builtin_symbols(np.pi / 2)["rational-eta"]
    est = [hinf_apply(f, generate("laplacian-1d", certify_angle=np.pi / 2 + 0.3, m=m),
                      with_info=True)[1].tail_estimate for m in (100, 400)]
    assert max(est) <= 1e-9 and max(est) <= 2.0 * min(est)


def test_imaginary_power_identity():
    A = certified(np.eye(2), 0.9 * np.pi)
    assert np.abs(imaginary_power(A, 1.0) - np.eye(2)).max() < 1e-10


def test_imaginary_power_scalar_e():
    A = certified([[np.e]], 0.9 * np.pi)
    got = imaginary_power(A, 1.0)[0, 0]
    assert abs(got - np.exp(1j)) < 1e-7


def test_imaginary_power_rotated_modulus():
    A = certified([[np.exp(1j * np.pi / 4)]], 0.7 * np.pi)
    got = imaginary_power(A, -1.0)[0, 0]
    assert abs(abs(got) - np.exp(np.pi / 4)) < 1e-5


def test_power_routes_consistency():
    # A^{it} against the continuation A^{-0.5+it} (A^{-0.5})^{-1}
    A = certified(np.diag([1.0, 3.0]), 0.9 * np.pi)
    half_inv = np.linalg.inv(complex_power(A, -0.5))
    for t in (0.5, -1.0):
        via_contour = complex_power(A, -0.5 + 1j * t) @ half_inv
        direct = imaginary_power(A, t)
        assert np.linalg.norm(via_contour - direct, 2) <= 1e-6


def test_bip_fit_positive_selfadjoint():
    A = certified(np.diag([1.0, 2.0]), 0.9 * np.pi)
    fit = bip_fit(A, t_max=3.0, n_t=13)
    assert fit.phi <= 0.01
    assert fit.M == pytest.approx(1.0, abs=1e-6)


def test_bip_fit_rotated_pair():
    A = certified(np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)]), 0.7 * np.pi)
    fit = bip_fit(A, t_max=4.0)
    assert fit.phi == pytest.approx(np.pi / 4, rel=0.05)


def test_bip_fit_identity():
    A = certified(np.eye(2), 0.9 * np.pi)
    fit = bip_fit(A, t_max=2.0, n_t=9)
    assert fit.M == pytest.approx(1.0, abs=1e-8) and fit.phi <= 1e-8


def test_bip_bound_holds_at_samples():
    A = certified(np.diag([np.exp(0.5j), 2.0]), 0.8 * np.pi)
    fit = bip_fit(A, t_max=3.0)
    assert np.all(fit.norms <= fit.M * np.exp(fit.phi * np.abs(fit.t_grid)) + 1e-12)


# ------------------------------------------------------------------ symbols


def test_builtin_symbols_pass_their_class_check():
    for theta in (np.pi / 4, np.pi / 2):
        for name, sym in builtin_symbols(theta).items():
            rec = symbol_class_check(sym)
            assert rec["passed"], name


def test_cayley_squared_matches_stated_constant():
    # |f| <= 1.1 (|lam|/(1+|lam|^2)) holds off the right half plane
    f = builtin_symbols(np.pi / 2)["cayley-squared"]
    sym = HolomorphicSymbol("cayley-1.1", f.evaluator, np.pi / 2, "h0", c=1.1, eta=1.0)
    assert symbol_class_check(sym)["passed"]


def test_constant_symbol_violates_class():
    sym = HolomorphicSymbol("one", lambda lam: np.ones_like(lam), np.pi / 2,
                            "h0", c=100.0, eta=0.5)
    with pytest.raises(ClassViolated) as exc:
        symbol_class_check(sym)
    assert exc.value.point is not None


def test_hinf_apply_checks_each_symbol_class_once(monkeypatch, diag14):
    calls = []
    check = calculus.symbol_class_check
    monkeypatch.setattr(calculus, "symbol_class_check", lambda f: calls.append(f) or check(f))
    f = builtin_symbols(np.pi / 2)["cayley-squared"]
    first = hinf_apply(f, diag14)
    for _ in range(3):
        assert np.array_equal(hinf_apply(f, diag14), first)
    assert calls == [f]
    # a symbol that breaks its envelope keeps nothing and raises every time
    bad = HolomorphicSymbol("one", lambda lam: np.ones_like(lam), np.pi / 2, "h0", c=100.0, eta=0.5)
    for expected in (2, 3):
        with pytest.raises(ClassViolated):
            hinf_apply(bad, diag14)
        assert len(calls) == expected


def test_sqrt_symbol_extended_class():
    sym = builtin_symbols(np.pi / 4)["sqrt-over-1minus"]
    assert sym.decay == "extended" and sym.eta == 0.5
    assert symbol_class_check(sym)["passed"]


# ------------------------------------------------------------ H-inf calculus


def test_hinf_apply_scalar_residues(scalar1):
    reg = builtin_symbols(np.pi / 2)
    got = hinf_apply(reg["sqrt-over-1minus"], scalar1)
    assert abs(got[0, 0] - 0.5) < 1e-7
    got = hinf_apply(reg["cayley-squared"], scalar1)
    assert abs(got[0, 0] - 0.25) < 1e-7


def test_hinf_apply_normal_oracle(diag14):
    reg = builtin_symbols(np.pi / 2)
    sym = reg["sqrt-over-1minus"]
    got = hinf_apply(sym, diag14)
    expected = np.diag([0.5, 0.4])
    assert np.abs(got - expected).max() < 1e-7


def test_hinf_angle_contract():
    A = certified(np.diag([1.0, 2.0]), np.pi / 4)
    sym = builtin_symbols(np.pi / 2)["cayley-squared"]
    with pytest.raises(ValueError):
        hinf_apply(sym, A)


def test_hinf_constant_identity_bound():
    A = certified(np.eye(2), 0.9 * np.pi)
    family = list(builtin_symbols(np.pi / 2).values())
    c = hinf_constant(A, family)
    # for A = I each ||f(-A)|| equals |f(-1)| <= sup |f|
    assert c <= 1.0 + 1e-6


def test_hinf_constant_normal_oracle(diag14):
    family = list(builtin_symbols(np.pi / 2).values())
    c = hinf_constant(diag14, family)
    assert c <= 1.0 + 1e-6
    assert c > 0.1


def test_hinf_constant_empty_family(diag14):
    with pytest.raises(ValueError):
        hinf_constant(diag14, [])


def test_hinf_operators_have_bounded_imaginary_powers(diag14):
    family = list(builtin_symbols(np.pi / 2).values())
    assert np.isfinite(hinf_constant(diag14, family))
    fit = bip_fit(diag14, t_max=2.0, n_t=9)
    assert np.isfinite(fit.M) and np.isfinite(fit.phi)


def test_normal_operator_oracle_all_routes():
    d = np.array([0.5, 2.0, 8.0])
    A = certified(np.diag(d), 0.9 * np.pi)
    z = -0.6 + 0.4j
    assert np.abs(complex_power(A, z) - np.diag(d ** z)).max() < 1e-7
    t = 0.8
    assert np.abs(imaginary_power(A, t) - np.diag(d ** (1j * t))).max() < 1e-7
    sym = builtin_symbols(np.pi / 2)["rational-eta"]
    expected = np.diag([complex(sym(np.array([-a + 0j]))[0]) for a in d])
    assert np.abs(hinf_apply(sym, A) - expected).max() < 1e-7


def test_imaginary_power_family_reuse():
    A = certified(np.diag([1.0, 4.0]), 0.9 * np.pi)
    fam = ImaginaryPowerFamily(A, t_max=3.0)
    for t in (0.3, 1.7, -2.2):
        assert np.abs(fam.at(t) - np.diag([1.0, 4.0 ** (1j * t)])).max() < 1e-9


def test_family_rejects_t_beyond_t_max():
    A = certified(np.diag([1.0, 4.0]), 0.9 * np.pi)
    fam = ImaginaryPowerFamily(A, t_max=3.0)
    assert fam.at_many([-3.0, 3.0]).shape == (2, 2, 2)
    with pytest.raises(ValueError, match="t_max"):
        fam.at_many([0.5, 3.01])
    with pytest.raises(ValueError, match="t_max"):
        fam.at(-4.0)


def _laplacian(m):
    return (m + 1) ** 2 * (2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))


@pytest.mark.parametrize("M", [
    _laplacian(16),
    _laplacian(16) + 20.0 * 17 / 2.0 * (np.eye(16, k=1) - np.eye(16, k=-1)),
], ids=["laplacian", "convection-diffusion"])
def test_power_contour_arc_keeps_the_eigenvalues_away(M):
    # dunford's error estimate covers the rays only; the arc's fixed
    # Gauss-Legendre rule relies on every pole sitting at |lambda| >= 2.5 rho
    A = certified(M, 0.9 * np.pi)
    spec = power_contour(A, -0.5)
    assert spec.rho == 0.4 / A.inverse_norm()
    # |lambda| >= sigma_min(A) = 1/||A^{-1}||, with equality (to rounding)
    # at the smallest eigenvalue of a normal A
    assert np.min(np.abs(np.linalg.eigvals(M))) >= 2.5 * spec.rho * (1.0 - 1e-12)


def _rotated_diagonal(n):
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    psi = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) * 0.7 * np.pi / 4
    return Q @ np.diag(np.exp(1j * psi) * np.geomspace(1.0, 4.0, n)) @ Q.conj().T


IMAGINARY_POWER_OPERATORS = {
    "laplacian-16": (_laplacian(16), 0.9 * np.pi),
    "rotated-4": (_rotated_diagonal(4), 0.7 * np.pi),
    "convection-diffusion-8": (_laplacian(8) + 90.0 * (np.eye(8, k=1) - np.eye(8, k=-1)),
                               0.9 * np.pi),
    "jordan-3": (2.0 * np.eye(3) + np.eye(3, k=1), 0.75 * np.pi),
}


@pytest.mark.parametrize("name", IMAGINARY_POWER_OPERATORS)
def test_imaginary_powers_match_expm_of_logm(name):
    M, angle = IMAGINARY_POWER_OPERATORS[name]
    A = certified(M, angle)
    log_a = scipy.linalg.logm(A.matrix)

    def worst(fam, ts):
        errors = []
        for got, t in zip(fam.at_many(ts), ts):
            oracle = scipy.linalg.expm(1j * t * log_a)
            errors.append(np.linalg.norm(got - oracle, 2) / np.linalg.norm(oracle, 2))
        return max(errors)

    assert worst(ImaginaryPowerFamily(A, t_max=8.0), np.linspace(-8.0, 8.0, 17)) <= 1e-9
    assert worst(ImaginaryPowerFamily(A, t_max=16.0), np.linspace(-16.0, 16.0, 9)) <= 1e-4


@pytest.mark.parametrize("matrix, panel_first", [
    (np.diag([1.0, 4.0]), True),
    (_rotated_diagonal(4), True),
    # a normal table with more columns than panels
    (np.diag(np.geomspace(1.0, 8.0, 64)), True),
    (2.0 * np.eye(4) + np.eye(4, k=1), False),
    (np.array([[1.0, 3.0, 0.5], [0.0, 2.0, 1.0], [0.0, 0.0, 6.0]]), False),
    # a Schur table with 136 used columns against some 50 panels
    (_laplacian(16) + 20.0 * 17 / 2.0 * (np.eye(16, k=1) - np.eye(16, k=-1)), False),
], ids=["diag", "rotated-4", "diag-64", "jordan", "triangular", "convection-diffusion-16"])
def test_family_at_many_matches_per_t_sums(matrix, panel_first):
    A = certified(matrix, 0.75 * np.pi)
    fam = ImaginaryPowerFamily(A, t_max=4.0)
    basis = A.resolvent_basis()
    table = linops.basis_resolvents(basis, fam.lam)
    # both summation orders of at_many are held to the same bound: panel
    # first on a normal table, the outer product of the phases on a Schur one
    assert (table.ndim == 2) == panel_first
    ts = np.concatenate([np.linspace(-4.0, 4.0, 33), [0.0, 0.37]])
    many = fam.at_many(ts)
    assert many.shape == (len(ts), A.dim, A.dim)
    per = np.array([fam.at(t) for t in ts])
    # A times the node-by-node sum of w_k (-lambda_k)^{-1+it} (A + lambda_k)^{-1}
    # over the stored table, each weight a principal power of its own; the
    # terms cancel up to ~500-fold at |t| = 4, so rounding is measured against the
    # sum of their magnitudes
    norm_a = np.linalg.norm(A.matrix, 2)
    direct, size = [], []
    for t in ts:
        terms = (fam.w * (-fam.lam) ** (-1.0 + 1j * t)).reshape(
            (-1,) + (1,) * (table.ndim - 1)) * table
        direct.append(np.eye(A.dim) if t == 0.0
                      else A.matrix @ linops.from_basis(basis, terms.sum(axis=0)))
        size.append(norm_a * np.sum(np.linalg.norm(terms.reshape(len(terms), -1), axis=1)))
    diff = lambda a, b: np.linalg.norm(a - b, axis=(1, 2))  # noqa: E731
    assert np.all(diff(many, per) <= 1e-14 * np.array(size))
    assert np.all(diff(many, np.array(direct)) <= 1e-14 * np.array(size))
    small = np.abs(ts) <= 1.0
    assert np.all(diff(many, per)[small] <= 1e-14 * np.linalg.norm(per, axis=(1, 2))[small])
    # A^{i0} is the identity exactly, and no t gives an empty stack
    assert np.array_equal(many[ts == 0.0], np.broadcast_to(np.eye(A.dim), (2, A.dim, A.dim)))
    assert fam.at_many([]).shape == (0, A.dim, A.dim)


def _phase_ulps(ts, head, step, n):
    """A few ulp of the factored argument t head_r + t step_j at each
    panel p = B j + r: the rounding of its two terms, which cancel where
    mid_p is near 0."""
    size = (np.abs(step)[:, None] + np.abs(head)[None, :]).reshape(-1)[:n]
    return 8 * np.finfo(float).eps * (1.0 + np.multiply.outer(np.abs(ts), size))


@pytest.mark.parametrize("n_panel", [1, 7, 50])
def test_factored_panel_phases_match_direct_exponentials(n_panel):
    # e^{it mid_p} from the two short tables: one panel, and panel counts
    # that the block length B = ceil(sqrt(n_panel)) does not divide
    lo, half = np.log(0.03), 0.27
    mid = lo + (2 * np.arange(n_panel) + 1) * half
    head, step = calculus._phase_tables(mid, 2.0 * half)
    assert len(head) + len(step) <= 2 * np.ceil(np.sqrt(n_panel)) + 1
    assert n_panel == 1 or n_panel % len(head)
    ts = np.linspace(-16.0, 16.0, 41)
    got = calculus._progression_phases(ts, head, step, n_panel)
    want = np.exp(1j * np.multiply.outer(ts, mid))
    assert got.shape == want.shape == (len(ts), n_panel)
    assert np.all(np.abs(got - want) <= _phase_ulps(ts, head, step, n_panel))


def test_family_panel_phases_match_its_midpoints():
    A = certified(_rotated_diagonal(4), 0.7 * np.pi)
    fam = ImaginaryPowerFamily(A, t_max=10.0)
    n_panel = len(fam._mid)
    assert n_panel % len(fam._head)
    ts = np.linspace(-10.0, 10.0, 17)
    got = calculus._progression_phases(ts, fam._head, fam._step, n_panel)
    want = np.exp(1j * np.multiply.outer(ts, fam._mid))
    assert np.all(np.abs(got - want) <= _phase_ulps(ts, fam._head, fam._step, n_panel))


def test_family_table_keeps_every_stored_entry():
    # a Schur table's all-zero entries are left out once, at build, and
    # every other entry is stored as resolved
    M = _laplacian(8) + 90.0 * (np.eye(8, k=1) - np.eye(8, k=-1))
    A = certified(M, 0.9 * np.pi)
    fam = ImaginaryPowerFamily(A, t_max=4.0)
    direct = linops.basis_resolvents(A.resolvent_basis(), fam.lam)
    assert direct.shape == (len(fam.lam), 8, 8)
    assert len(fam._used) == 8 * 9 // 2
    left_out = np.ones(64, dtype=bool)
    left_out[fam._used] = False
    assert not direct.reshape(len(direct), -1)[:, left_out].any()
    stored = np.concatenate([part.reshape(-1, len(fam._used))
                             for part in (fam._arc_t, fam._dn_t, fam._up_t)])
    # resolved in stack-budget chunks there and in one batch here
    assert np.allclose(stored, direct.reshape(len(direct), -1)[:, fam._used],
                       rtol=1e-13, atol=0.0)


def test_family_at_many_chunks_hold_one_stack(monkeypatch):
    # L + 20 D1 at m = 32: a Schur table of 528 used columns against 450
    # ray nodes at t_max 4, so each t's two ray sums and arc product
    # outweigh its phase product; the chunk loop, up to the map back, holds
    # at most 2 stack budgets beyond the (n_t, n^2) output
    m = 32
    A = certified(_laplacian(m) + 20.0 * (m + 1) / 2.0 * (np.eye(m, k=1) - np.eye(m, k=-1)),
                  0.9 * np.pi)
    fam = ImaginaryPowerFamily(A, t_max=4.0)
    assert not fam._panel_first
    ts = np.linspace(-4.0, 4.0, 1000)
    peak = []

    class Stop(Exception):
        pass

    def stop(basis, X):
        peak.append(tracemalloc.get_traced_memory()[1] - start - X.nbytes)
        raise Stop

    monkeypatch.setattr(linops, "from_basis", stop)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with pytest.raises(Stop):
            fam.at_many(ts)
    finally:
        tracemalloc.stop()
    assert 0 < peak[0] <= 2 * linops._SHIFT_STACK_BYTES

import json
import warnings

import numpy as np
import pytest
import scipy.linalg

from sectorsum import (
    GridFunction,
    MatrixOperator,
    TimeGrid,
    deriv_resolvent,
    deriv_resolvent_bound_check,
    extend_operator_to_lp,
    generate,
    maxreg_constant,
    p_independence_probe,
    solve_cauchy,
    young_bound,
)
from sectorsum import maxreg
from sectorsum.cli import main as cli_main
from sectorsum.errors import DimensionMismatch, OverflowRisk
from sectorsum.linops import write_matrix
from sectorsum.maxreg import (
    _CauchyStepper,
    _adversarial_probes,
    _cauchy_step_matrices,
    _time_derivative_adjoint,
    default_probes,
    deriv_resolvent_matrix,
    grid_operator_norm,
    solve_cauchy_adjoint,
    time_derivative,
)
from conftest import certified


def ones(grid, dim=1):
    return GridFunction(grid, np.ones((grid.n_nodes, dim)))


def convection_diffusion(m=16, c=20.0):
    """L + c D1: the Dirichlet Laplacian plus a centred first difference
    on the same mesh, a non-normal operator."""
    L = generate("laplacian-1d", m=m).matrix
    D1 = (np.eye(m, k=1) - np.eye(m, k=-1)) * (m + 1) / 2.0
    return L + c * D1


# --------------------------------------------------------- deriv resolvent


def test_deriv_resolvent_plain_integration():
    grid = TimeGrid(1.0, 256)
    f = deriv_resolvent(0.0, ones(grid))
    assert np.abs(f.values[:, 0] - grid.times()).max() < 1e-14


def test_deriv_resolvent_exponential_kernel():
    grid = TimeGrid(1.0, 512)
    f = deriv_resolvent(1.0, ones(grid))
    t = grid.times()
    assert np.abs(f.values[:, 0] - (1.0 - np.exp(-t))).max() < 1e-13
    assert f.values[-1, 0] == pytest.approx(0.632121, abs=1e-6)


def test_deriv_resolvent_oscillatory_oracle():
    # g(t) = e^{it}, lam = i: the convolution equals sin(t)
    grid = TimeGrid(np.pi, 512)
    t = grid.times()
    g = GridFunction(grid, np.exp(1j * t))
    f = deriv_resolvent(1j, g)
    # piecewise-linear interpolation of g invests O(dt^2)
    assert np.abs(f.values[:, 0] - np.sin(t)).max() < 1e-4
    i4 = np.argmin(np.abs(t - np.pi / 4))
    assert abs(f.values[i4, 0] - np.sin(np.pi / 4)) < 1e-5


def test_deriv_resolvent_every_lambda_resolvable():
    # empty spectrum on a bounded interval: negative real parts merely
    # grow the norm like e^{|Re lam| tau}
    grid = TimeGrid(1.0, 64)
    for lam in (0.0, -1.0, -4.0 + 2.0j, 1j):
        M = deriv_resolvent_matrix(lam, grid)
        nrm = grid_operator_norm(M, grid)
        assert np.isfinite(nrm)
        cap = np.exp(abs(min(np.real(lam), 0.0)) * grid.tau) * grid.tau * 1.1
        assert nrm <= cap


def test_deriv_resolvent_coefficients_near_small_step():
    # at small lam dt the closed form (h - m0) / (lam h) of the weighted
    # moment cancels; the step taken from the phi-functions does not
    mpmath = pytest.importorskip("mpmath")
    grid = TimeGrid(1.0, 16)
    for z in (1.1e-5, 3e-5):
        lam = z / grid.dt
        M = deriv_resolvent_matrix(lam, grid)
        with mpmath.workdps(50):
            l, h = mpmath.mpf(lam), mpmath.mpf(grid.dt)
            E = mpmath.exp(-l * h)
            m0 = (1 - E) / l
            m1 = (h - m0) / (l * h)
            want = [complex(m0 - m1), complex(m1), complex(E * (m0 - m1))]
        # M[1] = (c_cur, c_next, 0, ...), M[2, 0] = E c_cur
        for got, ref in zip([M[1, 0], M[1, 1], M[2, 0]], want):
            assert abs(got - ref) <= 1e-14 * abs(ref)


def test_young_bound_examples():
    assert young_bound(1.0, 1.0) == pytest.approx(1 - np.exp(-1), rel=1e-12)
    assert young_bound(10.0, 1.0) == pytest.approx(0.0999955, abs=1e-6)
    assert young_bound(1.0 + 5.0j, 1.0) == young_bound(1.0, 1.0)
    with pytest.raises(ValueError):
        young_bound(-1.0, 1.0)


@pytest.mark.parametrize("re", [1e-17, 1e-12, 1.0])
def test_young_bound_as_re_lam_tends_to_zero(re):
    # (1 - e^{-x}) / x = 1 - x/2 + O(x^2) at tau = 1; the difference
    # 1 - e^{-x} keeps no digit of x below eps
    want = 1.0 - np.exp(-1.0) if re == 1.0 else 1.0 - re / 2.0
    assert young_bound(re + 3j, 1.0) == pytest.approx(want, rel=1e-15)
    rec = deriv_resolvent_bound_check(re + 3j, TimeGrid(1.0, 64))
    assert rec["passed"] and rec["bound"] == young_bound(re, 1.0)


def test_deriv_resolvent_rejects_growth_past_the_limit():
    grid = TimeGrid(1.0, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowRisk, match=r"h = 6\.250e-02 .* \(growth rate 1\.000e\+04\)"):
            deriv_resolvent(-1e4, ones(grid))
        # e^80 over the grid is below the limit
        assert np.isfinite(deriv_resolvent_matrix(-80.0, grid)).all()
    with pytest.raises(ValueError, match="finite"):
        deriv_resolvent(complex("nan"), ones(grid))


@pytest.mark.parametrize("case", ["growing", "transient"])
def test_dense_sweep_that_would_overflow_raises(case):
    # non-normal: a mode growing like e^{1000 t}, or a slowly decaying
    # pair whose coupling takes a forcing of 1e308 past the largest double
    if case == "growing":
        A, tau, scale, match = [[-1000.0, 1.0], [0.0, 1.0]], 1.0, 1.0, r"\(growth rate 1\.000e\+03\)"
    else:
        A, tau, scale, match = [[1e-3, 1.0], [0.0, 1e-3]], 2.0, 1e308, r"h = 1\.250e-01 is not finite"
    A = MatrixOperator(np.array(A, dtype=complex))
    assert A.normal_basis() is None
    grid = TimeGrid(tau, 16)
    g = GridFunction(grid, np.full((17, 2), scale))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (solve_cauchy, solve_cauchy_adjoint):
            with pytest.raises(OverflowRisk, match=match):
                solve(A, g)


@pytest.mark.parametrize("N_t", [16.5, 32.0, True, "32"])
def test_time_grid_takes_only_an_integer_count(N_t):
    with pytest.raises(ValueError, match="N_t must be an integer"):
        TimeGrid(1.0, N_t)
    assert TimeGrid(1.0, np.int64(32)).n_nodes == 33


def test_time_grid_rejects_a_step_that_underflows():
    with pytest.raises(ValueError, match="smallest normal double"):
        TimeGrid(5e-324, 16)
    assert TimeGrid(16 * np.finfo(float).tiny, 16).dt == np.finfo(float).tiny


def test_deriv_resolvent_bound_check():
    grid = TimeGrid(1.0, 256)
    for lam in (1.0, 10.0, 1.0 + 5.0j):
        rec = deriv_resolvent_bound_check(lam, grid)
        assert rec["passed"]
        assert rec["measured"] <= rec["bound"] * (1.0 + 5.0 * grid.dt)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_grid_operator_norm_away_from_p2(p):
    # a diagonal node-value matrix multiplies pointwise, so its L^p norm is
    # its largest entry; Boyd's iteration must single out the one 3 among
    # entries 1 and 2
    grid = TimeGrid(1.0, 16, p=p)
    d = np.where(np.arange(grid.n_nodes) % 2, 2.0, 1.0)
    d[5] = 3.0
    assert abs(grid_operator_norm(np.diag(d), grid) - 3.0) <= 1e-12


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_deriv_resolvent_bound_check_away_from_p2(p):
    grid = TimeGrid(1.0, 256, p=p)
    for lam in (0.5, 3.0 + 2.0j, 20.0):
        rec = deriv_resolvent_bound_check(lam, grid)
        assert rec["passed"] and rec["p"] == p


def test_grid_operator_norm_at_extreme_exponents():
    # the largest entry is divided out of every p-th power, so a multiple
    # of the identity keeps its norm at p = 400 (no overflow warning,
    # which the test settings turn into an error)
    assert grid_operator_norm(10.0 * np.eye(17), TimeGrid(1.0, 16, p=400.0)) == pytest.approx(10.0)
    grid = TimeGrid(1.0, 64, p=400.0)
    rec = deriv_resolvent_bound_check(2.0 + 1.0j, grid)
    M, w = deriv_resolvent_matrix(2.0 + 1.0j, grid), grid.weights()
    # the ratio the constant forcing attains bounds the norm from below
    ones_ratio = GridFunction(grid, M.sum(axis=1)).lp_norm() / ones(grid).lp_norm()
    assert 0.99 * ones_ratio <= rec["measured"] <= rec["allowed"]
    # near p = 1 the norm approaches the weighted largest column sum
    # (Riesz-Thorin bounds it by ||M||_1^{1/p} ||M||_inf^{1 - 1/p})
    norm_1 = ((w[:, None] * np.abs(M)).sum(axis=0) / w).max()
    norm_inf = np.abs(M).sum(axis=1).max()
    p = 1.001
    got = grid_operator_norm(M, TimeGrid(1.0, 64, p=p))
    assert 0.99 * norm_1 <= got <= norm_1 ** (1.0 / p) * norm_inf ** (1.0 - 1.0 / p) * (1.0 + 1e-12)


def test_resolvent_identity_on_grid():
    grid = TimeGrid(1.0, 512)
    lam, mu = 1.0, 2.0 + 1.0j
    t = grid.times()
    g = GridFunction(grid, np.sin(2 * t) + 0.5)
    left = deriv_resolvent(lam, g).values - deriv_resolvent(mu, g).values
    nested = deriv_resolvent(lam, deriv_resolvent(mu, g)).values
    resid = GridFunction(grid, left - (mu - lam) * nested).lp_norm()
    assert resid <= 10.0 * grid.dt ** 2


# ------------------------------------------------------------ Cauchy solver


def test_solve_cauchy_scalar():
    A = certified([[1.0]], 0.8 * np.pi)
    grid = TimeGrid(1.0, 256)
    f = solve_cauchy(A, ones(grid))
    t = grid.times()
    assert np.abs(f.values[:, 0] - (1 - np.exp(-t))).max() < 1e-13


def test_solve_cauchy_zero_forcing():
    A = certified(np.diag([1.0, 2.0]), 0.8 * np.pi)
    grid = TimeGrid(1.0, 64)
    f = solve_cauchy(A, GridFunction(grid, np.zeros((65, 2))))
    assert np.abs(f.values).max() == 0.0


def test_solve_cauchy_diagonal_decoupling():
    A = certified(np.diag([1.0, 2.0]), 0.8 * np.pi)
    grid = TimeGrid(1.0, 256)
    f = solve_cauchy(A, ones(grid, dim=2))
    t = grid.times()
    exact = np.stack([1 - np.exp(-t), (1 - np.exp(-2 * t)) / 2], axis=1)
    assert np.abs(f.values - exact).max() < 1e-13


def test_solve_cauchy_residual_order():
    A = certified(np.diag([1.0, 3.0]), 0.8 * np.pi)
    errs = []
    for N in (64, 128):
        grid = TimeGrid(1.0, N)
        t = grid.times()
        g = GridFunction(grid, np.stack([np.sin(3 * t), np.cos(t)], axis=1))
        f = solve_cauchy(A, g)
        resid = time_derivative(f).values + f.values @ A.matrix.T - g.values
        errs.append(GridFunction(grid, resid).lp_norm())
    assert errs[0] / errs[1] > 3.0  # second order


def test_solve_cauchy_dimension_contract():
    A = certified(np.diag([1.0, 2.0]), 0.8 * np.pi)
    with pytest.raises(DimensionMismatch):
        solve_cauchy(A, ones(TimeGrid(1.0, 64), dim=3))
    with pytest.raises(DimensionMismatch):
        solve_cauchy_adjoint(A, ones(TimeGrid(1.0, 64), dim=3))


def test_shift_reduction():
    # if f solves f' + Af = g then e^{ct} f solves the problem for A - c
    # with forcing e^{ct} g
    A = certified(np.diag([2.0, 3.0]), 0.8 * np.pi)
    c = 0.5
    Ashift = certified(A.matrix - c * np.eye(2), 0.8 * np.pi)
    grid = TimeGrid(1.0, 256)
    t = grid.times()
    g = GridFunction(grid, np.stack([np.sin(t), np.ones_like(t)], axis=1))
    f = solve_cauchy(A, g)
    g_mod = GridFunction(grid, np.exp(c * t)[:, None] * g.values)
    f_mod = solve_cauchy(Ashift, g_mod)
    # interpolating e^{ct} g instead of g perturbs at the scheme's own
    # O(dt^2); the identity is exact in the continuum
    assert np.abs(f_mod.values - np.exp(c * t)[:, None] * f.values).max() < 100 * grid.dt ** 2


@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-9, 1e-6])
def test_solve_cauchy_near_singular(eps):
    # h ||A|| > 1e-2 here, where an A^{-1} closed form cancels catastrophically
    A = MatrixOperator(np.diag([eps, 1.0]).astype(complex))
    grid = TimeGrid(1.0, 64)
    t = grid.times()
    f = solve_cauchy(A, ones(grid, dim=2))
    exact = -np.expm1(-eps * t) / eps if eps else t
    assert np.abs(f.values[:, 0] - exact).max() <= 1e-12
    assert np.abs(f.values[:, 1] + np.expm1(-t)).max() <= 1e-12


def _weighted_inner(grid, a, b):
    return np.sum(grid.weights()[:, None] * a * b.conj())


def test_solve_cauchy_adjoint_contract():
    A = MatrixOperator(convection_diffusion())
    grid = TimeGrid(1.0, 128)
    rng = np.random.default_rng(3)
    g, h = (GridFunction(grid, rng.standard_normal((grid.n_nodes, A.dim))
                         + 1j * rng.standard_normal((grid.n_nodes, A.dim))) for _ in range(2))
    lhs = _weighted_inner(grid, solve_cauchy(A, g).values, h.values)
    rhs = _weighted_inner(grid, g.values, solve_cauchy_adjoint(A, h).values)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_solve_cauchy_adjoint_contract_on_the_eigenbasis():
    # a normal operator with a complex spectrum in a random unitary basis
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    d = np.geomspace(1.0, 200.0, 6) * np.exp(1j * np.linspace(-0.6, 0.6, 6))
    A = MatrixOperator((Q * d) @ Q.conj().T)
    assert A.normal_basis() is not None
    grid = TimeGrid(1.0, 128)
    g, h = (GridFunction(grid, rng.standard_normal((grid.n_nodes, A.dim))
                         + 1j * rng.standard_normal((grid.n_nodes, A.dim))) for _ in range(2))
    lhs = _weighted_inner(grid, solve_cauchy(A, g).values, h.values)
    rhs = _weighted_inner(grid, g.values, solve_cauchy_adjoint(A, h).values)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def _forward_loop(E, C_cur, C_next, g):
    out = np.zeros_like(g)
    for i in range(1, len(g)):
        out[i] = g[i - 1] @ C_cur.T + g[i] @ C_next.T + out[i - 1] @ E.T
    return out


def _adjoint_loop(E, C_cur, C_next, u):
    n = len(u)
    Eh, Ch_cur, Ch_next = E.conj().T, C_cur.conj().T, C_next.conj().T
    z = np.zeros_like(u)
    z[n - 1] = u[n - 1]
    for j in range(n - 2, -1, -1):
        z[j] = u[j] + z[j + 1] @ Eh.T
    y = np.zeros_like(u)
    y[n - 1] = z[n - 1] @ Ch_next.T
    for j in range(1, n - 1):
        y[j] = z[j + 1] @ Ch_cur.T + z[j] @ Ch_next.T
    y[0] = z[1] @ Ch_cur.T
    return y


@pytest.mark.parametrize("c", [0.0, 20.0], ids=["laplacian", "conv-diff"])
def test_stepper_matches_per_node_loops(c):
    matrix = convection_diffusion(c=c)
    dt = 1.0 / 256
    stepper = _CauchyStepper(matrix, dt)
    steps = _cauchy_step_matrices(matrix, dt)
    rng = np.random.default_rng(4)
    v = rng.standard_normal((257, 16)) + 1j * rng.standard_normal((257, 16))
    for fast, ref in ((stepper.forward(v), _forward_loop(*steps, v)),
                      (stepper.adjoint(v), _adjoint_loop(*steps, v))):
        assert np.abs(fast - ref).max() <= 1e-13 * np.abs(ref).max()


def test_time_derivative_adjoint_matches_dense_stencil():
    grid = TimeGrid(2.0, 32)
    n, h = grid.n_nodes, grid.dt
    D = np.zeros((n, n))
    for i in range(n):
        e = np.zeros((n, 1))
        e[i] = 1.0
        D[:, i] = time_derivative(GridFunction(grid, e)).values[:, 0].real
    rng = np.random.default_rng(5)
    v = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    assert np.abs(_time_derivative_adjoint(v, h) - D.T @ v).max() <= 1e-12 * np.abs(D.T @ v).max()


# ------------------------------------------------------- maxreg constants


def test_maxreg_scalar_closed_form():
    # g = 1, A = 1: f' = e^{-t}, so ||f'||_2 = sqrt((1 - e^{-2})/2)
    A = certified([[1.0]], 0.8 * np.pi)
    grid = TimeGrid(1.0, 2048)
    rep = maxreg_constant(A, grid)
    oracle = np.sqrt((1 - np.exp(-2.0)) / 2.0)
    assert oracle == pytest.approx(0.65752, abs=1e-5)
    assert rep.per_probe_fprime[0] == pytest.approx(oracle, abs=1e-3)
    assert rep.constant_fprime >= rep.per_probe_fprime[0]


def test_maxreg_refinement_stability():
    A = certified(np.eye(2), 0.8 * np.pi)
    reps = [maxreg_constant(A, TimeGrid(1.0, N)) for N in (256, 512)]
    assert reps[0].constant_fprime == pytest.approx(
        reps[1].constant_fprime, rel=0.01
    )


def test_maxreg_rejects_empty_probes():
    A = certified([[1.0]], 0.8 * np.pi)
    with pytest.raises(ValueError):
        maxreg_constant(A, TimeGrid(1.0, 64), probes=[])


@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-9])
def test_maxreg_near_singular_stays_bounded(eps):
    # normal A: the continuous L^2 constants are at most 1
    A = MatrixOperator(np.diag([eps, 1.0]).astype(complex))
    grid = TimeGrid(1.0, 64)
    rep = maxreg_constant(A, grid)
    assert rep.constant_fprime <= 1.0 + 5.0 * grid.dt
    assert rep.constant_Af <= 1.0 + 5.0 * grid.dt


@pytest.fixture
def expm_calls(monkeypatch):
    calls = []
    expm = scipy.linalg.expm

    def counted(M):
        calls.append(np.array(M))
        return expm(M)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    return calls


def assert_small_steps_only(calls, A, h):
    # a normal stepper's one batched exponential holds the 1 x 1 blocks
    # -h d of exactly its steps with |h d| < 1, in order; the stiff ones
    # take closed forms
    d = A.normal_basis()[0]
    small = d[np.abs(h * d) < 1.0]
    assert 0 < small.size < d.size
    assert [M.shape for M in calls] == [(small.size, 3, 3)]
    assert np.array_equal(calls[0][:, 0, 0], -h * small)


def test_one_expm_per_maxreg_constant(expm_calls):
    L = generate("laplacian-1d", m=8)
    maxreg_constant(L, TimeGrid(1.0, 64))
    assert_small_steps_only(expm_calls, L, 1.0 / 64)


def test_one_expm_per_p_independence_probe(expm_calls):
    L = generate("laplacian-1d", m=8)
    p_independence_probe(L, 1.0, 64)
    assert_small_steps_only(expm_calls, L, 1.0 / 64)


@pytest.mark.parametrize("entry", [lambda A: maxreg_constant(A, TimeGrid(1.0, 64)),
                                   lambda A: p_independence_probe(A, 1.0, 64)],
                         ids=["maxreg_constant", "p_independence_probe"])
@pytest.mark.parametrize("normal", [True, False], ids=["laplacian", "conv-diff"])
def test_block_exponentials_by_shape(expm_calls, entry, normal):
    # a normal operator steps on its eigenvalues: at most one batched 3 x 3
    # exponential, over its steps with |h d| < 1 (2 of 8 here), and never
    # the 3n x 3n block; any other takes that block exactly once per (A, dt)
    m = 8
    A = generate("laplacian-1d", m=m) if normal else MatrixOperator(convection_diffusion(m=m))
    entry(A)
    if normal:
        assert_small_steps_only(expm_calls, A, 1.0 / 64)
    else:
        assert [M.shape for M in expm_calls] == [(3 * m, 3 * m)]


@pytest.mark.parametrize("entry", [lambda A: maxreg_constant(A, TimeGrid(1.0, 64)),
                                   lambda A: p_independence_probe(A, 1.0, 64),
                                   lambda A: solve_cauchy(A, ones(TimeGrid(1.0, 64), dim=2))],
                         ids=["maxreg_constant", "p_independence_probe", "solve_cauchy"])
def test_stiff_normal_operator_takes_no_exponential(expm_calls, entry):
    # h d = 156 and 312: every step takes the closed forms
    entry(MatrixOperator(np.diag([1e4, 2e4]).astype(complex)))
    assert expm_calls == []


def test_derivative_resolvent_exponential_only_below_one(expm_calls):
    grid = TimeGrid(1.0, 64)
    for lam in (64.0, 1e3 - 1e3j, 64.0j):
        deriv_resolvent(lam, ones(grid))
    assert expm_calls == []
    deriv_resolvent(32.0, ones(grid))
    assert [M.shape for M in expm_calls] == [(1, 3, 3)]


@pytest.mark.parametrize("m", [16, 48])
def test_maxreg_eigenbasis_matches_dense_stepper(m):
    # the same Laplacian forced onto the dense sweeps by a None basis verdict
    L = generate("laplacian-1d", m=m)
    dense = MatrixOperator(L.matrix, L.certified)
    dense.normal_basis = lambda: None
    grid = TimeGrid(1.0, 512)
    rep, ref = maxreg_constant(L, grid), maxreg_constant(dense, grid)
    assert rep.probe_labels == ref.probe_labels
    for got, want in ((rep.per_probe_fprime, ref.per_probe_fprime),
                      (rep.per_probe_Af, ref.per_probe_Af)):
        assert np.max(np.abs(np.subtract(got, want)) / np.abs(want)) <= 1e-12


def test_p_independence_probe():
    A = certified(np.diag([1.0, 2.0]), 0.8 * np.pi)
    out = p_independence_probe(A, 1.0, 128)
    assert len(out["constants_fprime"]) == 4
    assert all(np.isfinite(c) for c in out["constants_fprime"])
    assert out["spread"] < 10.0
    with pytest.raises(ValueError):
        p_independence_probe(A, 1.0, 128, p_values=(1.0, 2.0))


@pytest.fixture
def sweep_calls(monkeypatch):
    calls = []
    sweep = _CauchyStepper.sweep

    def counted(self, g):
        calls.append(g.shape)
        return sweep(self, g)

    monkeypatch.setattr(_CauchyStepper, "sweep", counted)
    return calls


@pytest.mark.parametrize("normal", [True, False], ids=["laplacian", "conv-diff"])
def test_p_independence_probe_matches_maxreg_constant_per_p(sweep_calls, normal):
    m, tau, N_t, p_values = 6, 1.0, 64, (1.5, 2.0, 3.0, 4.0)
    A = generate("laplacian-1d", m=m) if normal else MatrixOperator(convection_diffusion(m=m))
    out = p_independence_probe(A, tau, N_t, p_values)
    # one adversarial search of 10 sweeps, then each of the four shared
    # probes swept once for all p
    assert len(sweep_calls) == 3 + 1 + 10
    base = TimeGrid(tau, N_t)
    stepper = _CauchyStepper(A.matrix, base.dt, A.normal_basis())
    shared = default_probes(A, base) + [
        ("adversarial-fprime", _adversarial_probes(base, ("fprime",), stepper)[0])]
    for p in p_values:
        grid = TimeGrid(tau, N_t, p=p)
        ref = maxreg_constant(A, grid, probes=[(label, GridFunction(grid, g.values))
                                               for label, g in shared], adversarial=False)
        assert out["reports"][p] == ref
    assert out["constants_fprime"] == [out["reports"][p].constant_fprime for p in p_values]


def test_adversarial_searches_share_their_first_sweep(sweep_calls):
    L = generate("laplacian-1d", m=6)
    grid = TimeGrid(1.0, 64)
    rep = maxreg_constant(L, grid)
    # one shared first sweep, 9 more per mode, one per probe
    assert len(sweep_calls) == 1 + 2 * 9 + len(rep.probe_labels)
    stepper = _CauchyStepper(L.matrix, grid.dt, L.normal_basis())
    both = _adversarial_probes(grid, ("fprime", "Af"), stepper)
    for mode, g in zip(("fprime", "Af"), both):
        alone = _adversarial_probes(grid, (mode,), stepper)[0]
        assert np.array_equal(g.values, alone.values)


@pytest.fixture
def table_builds(monkeypatch):
    built = []
    init = maxreg._StepTables.__init__

    def counted(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(maxreg._StepTables, "__init__", counted)
    return built


def test_a_stepper_builds_its_step_tables_on_its_first_sweep(table_builds):
    L = generate("laplacian-1d", m=8)
    grid = TimeGrid(1.0, 256)
    g = GridFunction(grid, np.outer(np.sin(grid.times()), np.arange(1.0, 9.0)))
    solve_cauchy(L, g)
    solve_cauchy_adjoint(L, g)
    assert len(table_builds) == 2  # one stepper each
    stepper = _CauchyStepper(L.matrix, grid.dt, L.normal_basis())
    v = stepper.to_basis(g.values)
    stepper.sweep_adjoint(v)
    (tables,) = table_builds[2:]
    assert stepper._tables is tables
    stepper.sweep(v)
    stepper.sweep_adjoint(v)
    assert len(table_builds) == 3
    # node values on another grid do not fit the tables
    with pytest.raises(DimensionMismatch, match="step tables"):
        stepper.sweep(v[:-1])
    # a constant's 40-odd sweeps share the tables of its one stepper
    maxreg_constant(L, grid)
    assert len(table_builds) == 4


@pytest.mark.parametrize("m, N_t", [(8, 256), (48, 512), (5, 16), (24, 100)])
def test_step_tables_bytes(table_builds, m, N_t):
    L = generate("laplacian-1d", m=m)
    grid = TimeGrid(1.0, N_t)
    stepper = _CauchyStepper(L.matrix, grid.dt, L.normal_basis())
    v = stepper.to_basis(np.ones((grid.n_nodes, m)))
    stepper.sweep(v)
    stepper.sweep_adjoint(v)
    (tables,) = table_builds
    N, row = grid.n_nodes, m * 16
    # groups of 8 rows from 40 columns, of 16 from 16; below that the
    # smallest power of two above N - 1, which leaves no group (the plain scan)
    plain = 1 << (N - 1).bit_length()
    b = plain if m < 16 else min(8 if m >= 40 else 16, plain)
    assert tables.group == b
    # e^{-s z} for every window pass s = 1, 2, 4, ... < b, each on the N - s rows it multiplies
    passes = sum(N - 2 ** k for k in range(b.bit_length() - 1))
    assert sum(F.nbytes for _, F in tables.passes) == passes * row
    # e^{-b z} tiled over the b rows of one group, if a group follows the passes
    group = b if b <= N - 1 else 0
    assert (0 if tables.tiled is None else tables.tiled.nbytes) == group * row
    # then c_cur, c_next and the scratch buffer, N - 1 rows each
    assert tables._store.nbytes == (passes + group + 3 * (N - 1)) * row
    if (m, N_t) == (48, 512):
        assert tables._store.nbytes < 2.5e6  # the plain scan's tables took 4.33 MB


def test_laplacian_constant_desk_scale():
    vals = []
    for m in (8, 16):
        L = generate("laplacian-1d", m=m)
        rep = maxreg_constant(L, TimeGrid(1.0, 128, p=2.0))
        vals.append(rep.constant_Af)
    assert abs(vals[0] - vals[1]) <= 0.1 * max(vals)


# ------------------------------------- reference: the probe search, plainly
# The adversarial search and the probe norms as they were first written:
# GridFunctions, the stencil and its adjoint as separate passes, A then
# A^* as two products, and the iterates mapped back to the given
# coordinates before their probe sweeps.


def _ref_derivative(v, h):
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return out


def _ref_derivative_adjoint(v, h):
    out = np.zeros_like(v)
    out[:-2] -= v[1:-1]
    out[2:] += v[1:-1]
    out[:3] += np.multiply.outer((-3.0, 4.0, -1.0), v[0])
    out[-3:] += np.multiply.outer((1.0, -4.0, 3.0), v[-1])
    return out / (2.0 * h)


def _ref_apply(A, adjoint=False):
    """A (or A^*) on node values in the coordinates of A's stepper."""
    basis = A.normal_basis()
    if basis is None:
        M = A.matrix.conj() if adjoint else A.matrix.T
        return lambda v: v @ M
    d = basis[0].conj() if adjoint else basis[0]
    return lambda v: v * d


def _ref_adversarial_probes(A, grid, modes, stepper, n_iter=10):
    rng = np.random.default_rng(maxreg.ADVERSARIAL_SEED)
    start = rng.standard_normal((grid.n_nodes, stepper.dim)) + 1j * rng.standard_normal(
        (grid.n_nodes, stepper.dim))
    start = stepper.to_basis(start)
    first = stepper.sweep(start)
    w = grid.weights()[:, None]
    apply, apply_adjoint = _ref_apply(A), _ref_apply(A, adjoint=True)
    found = []
    for mode in modes:
        v = start
        for k in range(n_iter):
            f = first if k == 0 else stepper.sweep(v)
            if mode == "fprime":
                z = _ref_derivative_adjoint(w * _ref_derivative(f, grid.dt), grid.dt)
            else:
                z = apply_adjoint(w * apply(f))
            z = stepper.sweep_adjoint(z) / w
            nrm = GridFunction(grid, z).lp_norm(2.0)
            if nrm == 0.0:
                break
            v = z / nrm
        found.append(GridFunction(grid, stepper.from_basis(v)))
    return found


def _ref_probe_sweeps(A, grid, probes, stepper):
    swept = []
    for label, g in probes:
        f = stepper.sweep(stepper.to_basis(g.values))
        swept.append((label, g, GridFunction(grid, _ref_derivative(f, grid.dt)),
                      GridFunction(grid, _ref_apply(A)(f))))
    return swept


def _ref_probe_report(swept, p):
    r_fp, r_af = [], []
    for label, g, fp, af in swept:
        ng = g.lp_norm(p)
        r_fp.append(fp.lp_norm(p) / ng)
        r_af.append(af.lp_norm(p) / ng)
    return np.array(r_fp), np.array(r_af)


def _ref_maxreg_constant(A, grid):
    probes = default_probes(A, grid)
    stepper = _CauchyStepper(A.matrix, grid.dt, A.normal_basis())
    if grid.p == 2.0:
        modes = ("fprime", "Af")
        probes += [(f"adversarial-{mode}", g) for mode, g in
                   zip(modes, _ref_adversarial_probes(A, grid, modes, stepper))]
    return _ref_probe_report(_ref_probe_sweeps(A, grid, probes, stepper), grid.p)


def _ref_p_independence(A, tau, N_t, p_values):
    grid = TimeGrid(tau, N_t)
    stepper = _CauchyStepper(A.matrix, grid.dt, A.normal_basis())
    shared = default_probes(A, grid) + [
        ("adversarial-fprime", _ref_adversarial_probes(A, grid, ("fprime",), stepper)[0])]
    swept = _ref_probe_sweeps(A, grid, shared, stepper)
    return [_ref_probe_report(swept, p) for p in p_values]


def _complex_normal(n=12, seed=7):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.geomspace(1.0, 50.0, n) * np.exp(1j * np.linspace(-0.6, 0.6, n))
    return (Q * d) @ Q.conj().T


REFERENCE_OPERATORS = {
    "laplacian-1": lambda: generate("laplacian-1d", m=1),
    "laplacian-8": lambda: generate("laplacian-1d", m=8),
    "laplacian-48": lambda: generate("laplacian-1d", m=48),
    "complex-normal-12": lambda: certified(_complex_normal(), 0.75 * np.pi),
    "conv-diff-8": lambda: certified(convection_diffusion(m=8), 0.5 * np.pi),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_OPERATORS))
def test_probe_search_matches_the_plain_reference(name):
    A = REFERENCE_OPERATORS[name]()
    assert (A.normal_basis() is None) == (name == "conv-diff-8")
    tau, N_t = 0.9, 256

    def close(got, want):
        got, want = np.asarray(got), np.asarray(want)
        return np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    for p in (2.0, 3.0):
        rep = maxreg_constant(A, TimeGrid(tau, N_t, p=p))
        r_fp, r_af = _ref_maxreg_constant(A, TimeGrid(tau, N_t, p=p))
        assert close(rep.per_probe_fprime, r_fp) and close(rep.per_probe_Af, r_af), p
        assert close([rep.constant_fprime, rep.constant_Af], [r_fp.max(), r_af.max()])
    p_values = (1.5, 2.0, 3.0, 4.0)
    out = p_independence_probe(A, tau, N_t, p_values)
    for p, (r_fp, r_af) in zip(p_values, _ref_p_independence(A, tau, N_t, p_values)):
        rep = out["reports"][p]
        assert close(rep.per_probe_fprime, r_fp) and close(rep.per_probe_Af, r_af), p


# ------------------------------------------------------- pointwise extension


def test_extend_identity_operator():
    A = certified(np.eye(2), 0.8 * np.pi)
    grid = TimeGrid(1.0, 64)
    ext = extend_operator_to_lp(A, grid)
    g = GridFunction(grid, np.random.default_rng(0).standard_normal((65, 2)))
    assert np.array_equal(ext(g).values, g.values)


def test_extend_commutes_with_deriv_resolvent():
    A = certified(np.diag([1.0, 2.0]), 0.8 * np.pi)
    grid = TimeGrid(1.0, 256)
    ext = extend_operator_to_lp(A, grid)
    t = grid.times()
    f = GridFunction(grid, np.stack([np.sin(t), np.cos(2 * t)], axis=1))
    assert ext.commutator_with_resolvent(1.0, f) <= 1e-10


def test_extend_separable_norm_identity():
    A = certified(np.diag([1.0, 2.0]), 0.8 * np.pi)
    grid = TimeGrid(1.0, 256, p=3.0)
    ext = extend_operator_to_lp(A, grid)
    x = np.array([0.6, 0.8])
    h = np.sin(grid.times()) + 1.2
    f = GridFunction(grid, h[:, None] * x[None, :])
    lhs = ext(f).lp_norm()
    h_norm = GridFunction(grid, h).lp_norm()
    assert lhs == pytest.approx(h_norm * np.linalg.norm(A.matrix @ x), rel=1e-12)


# ------------------------------------------------ large exponents and steps


@pytest.mark.parametrize("tau", [1.0, 2.0 * np.pi, 0.3])
@pytest.mark.parametrize("p", [1.5, 2.0, 400.0, 1e308])
def test_lp_norm_of_a_constant_at_any_exponent(tau, p):
    # (int_0^tau c^p dt)^{1/p} = c tau^{1/p}; at large p the powers of c
    # overflow unless the largest value is divided out
    grid = TimeGrid(tau, 16, p=p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = GridFunction(grid, np.full(17, 10.0)).lp_norm()
        assert GridFunction(grid, np.zeros((17, 2))).lp_norm() == 0.0
    assert got == pytest.approx(10.0 * tau ** (1.0 / p), rel=1e-14)


def _run_config(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, "seed": 0, "out_prefix": "x",
                                "recipe": {"kind": "laplacian-1d", "m": 4}, **cfg}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli_main(["--out", str(tmp_path), "run", "--config", str(path)])
    return rc, capsys.readouterr().err


def test_tsector_config_at_a_huge_exponent(tmp_path, capsys):
    rc, err = _run_config(tmp_path, capsys, {"pipeline": "t-sector", "p": 1e308})
    assert rc == 0 and err == ""
    report = json.loads((tmp_path / "x.json").read_text())
    assert report["outputs"]["C_hat"] > 0.0


def test_maxreg_config_with_overflowing_steps_fails(tmp_path, capsys):
    rc, err = _run_config(tmp_path, capsys, {"pipeline": "maxreg", "tau": 1e300, "nt": 16})
    assert rc == 1
    assert err.startswith("check failed:") and "h ||A||" in err


def test_maxreg_config_with_growing_modes_fails(tmp_path, capsys):
    # certified at 0.95 (pi - |psi|), with Re d = -3090 < 0
    rc, err = _run_config(tmp_path, capsys, {
        "pipeline": "maxreg", "nt": 64,
        "recipe": {"kind": "diag-rotated", "psi": 1.885, "entries": [1e4, 1.0]}})
    assert rc == 1
    assert err.startswith("check failed:") and "growth rate 3.091e+03" in err


def test_maxreg_config_at_an_angle_below_the_derivative_fails(tmp_path, capsys):
    # certified at 0.95 (pi - 3.14159) = 2.5e-6 < pi/2: the modes grow by
    # e^88, just inside the sweeps' limit, and the constants reach 1e38
    rc, err = _run_config(tmp_path, capsys, {
        "pipeline": "maxreg", "nt": 64, "tau": 0.00088,
        "recipe": {"kind": "diag-rotated", "psi": 3.14159, "entries": [1e5]}})
    assert rc == 1 and err.startswith("check failed:")
    report = json.loads((tmp_path / "x.json").read_text())
    assert not report["passed"]
    assert report["inputs"]["theta"] == pytest.approx(0.95 * (np.pi - 3.14159))
    assert report["outputs"]["constant_Af"] > 1e37


@pytest.mark.parametrize("cfg", [{"pipeline": "maxreg", "nt": 64},
                                 {"pipeline": "maxreg", "nt": 64, "sweep_p": True, "refine": True},
                                 {"pipeline": "sweep", "sizes": [1, 4], "nt": 64}],
                         ids=["maxreg", "maxreg-sweep-p-refine", "sweep"])
def test_maxreg_and_sweep_configs_above_the_derivative_angle_pass(tmp_path, capsys, cfg):
    # Laplacians, certified at 0.9 pi
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, "out_prefix": "x", **cfg}
                               | ({"recipe": {"kind": "laplacian-1d", "m": 4}}
                                  if cfg["pipeline"] == "maxreg" else {})))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli_main(["--out", str(tmp_path), "run", "--config", str(path)])
    assert rc == 0 and capsys.readouterr().err == ""
    report = json.loads((tmp_path / "x.json").read_text())
    assert report["passed"]
    thetas = report["inputs"]["theta" if cfg["pipeline"] == "maxreg" else "thetas"]
    assert np.all(np.asarray(thetas) == 0.9 * np.pi)


def test_maxreg_config_with_a_growing_non_normal_operator_fails(tmp_path, capsys):
    # Re lambda = -60 over tau = 5: e^300, finite in the sweeps, but past
    # the largest double in the squares of a power iteration's norms
    matrix = tmp_path / "g.csv"
    write_matrix(str(matrix), np.array([[-60.0, 1.0], [0.0, 1.0]], dtype=complex))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, "pipeline": "maxreg", "tau": 5.0,
                                "nt": 64, "matrix": str(matrix)}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli_main(["--out", str(tmp_path), "run", "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("check failed:") and "growth rate 6.000e+01" in err


def test_time_grid_config_whose_step_underflows_exits_2(tmp_path, capsys):
    rc, err = _run_config(tmp_path, capsys, {"pipeline": "maxreg", "tau": 5e-324})
    assert rc == 2
    assert err.startswith("config error:") and "smallest normal double" in err


@pytest.mark.parametrize("matrix", [np.diag([10.0, 300.0]), [[10.0, 1.0], [0.0, 300.0]]],
                         ids=["normal", "non-normal"])
def test_solve_cauchy_rejects_steps_that_are_not_finite(matrix):
    grid = TimeGrid(1e300, 16)  # h = 6.25e298
    A = MatrixOperator(np.asarray(matrix, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowRisk, match="h \\|\\|A\\|\\|"):
            solve_cauchy(A, GridFunction(grid, np.ones((17, 2))))

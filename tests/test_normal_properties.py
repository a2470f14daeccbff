"""Property tests of the normal-operator closed form against the Schur
resolvent path (``linops.basis_resolvents`` mapped back by
``linops.from_basis``, and ``linops.resolvent_norms``), of
contour sums reduced on the eigenvalues or in the Schur basis
(``complex_power``, ``hinf_apply``) against the same sums over other
resolvent stacks, and of the Cauchy stepper's eigenbasis scans against
its dense sweeps and of its step tables, and those of a scalar step,
against scans on broadcast rows kept here as the reference (shapes on
the plain scan) or against a sequential recurrence in extended
precision (shapes on the grouped scan)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from sectorsum import (  # noqa: E402
    MatrixOperator,
    builtin_symbols,
    certify_sector,
    complex_power,
    dunford,
    hinf_apply,
    linops,
)
from sectorsum.calculus import hinf_contour, power_contour  # noqa: E402
from sectorsum.errors import SingularShift  # noqa: E402
from sectorsum.maxreg import (  # noqa: E402
    _CauchyStepper,
    _StepTables,
    _cauchy_step_scalars,
)
from conftest import resolvent_stack  # noqa: E402

# spectra in the sector |arg| <= pi/4; regular shifts in |arg| <= pi/2,
# so every eigenvalue of M + z stays at least sin(pi/4) |d| from 0
SPECTRUM_ANGLE = np.pi / 4
SHIFT_ANGLE = np.pi / 2


def _normal(seed, n, degenerate=False):
    """Q diag(d) Q^* for a seeded random unitary Q and spectrum d in the
    sector; returns (M, d, rng) with rng left to draw shifts from.  With
    ``degenerate`` (n >= 3), d_1 repeats d_0 and d_{n-1} is 1e-12."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    Q = q * (np.diag(r) / np.abs(np.diag(r)))
    d = np.exp(rng.uniform(-3.0, 3.0, n) + 1j * rng.uniform(-SPECTRUM_ANGLE, SPECTRUM_ANGLE, n))
    if degenerate:
        d[1], d[-1] = d[0], 1e-12
    return (Q * d) @ Q.conj().T, d, rng


def _regular_shifts(rng, count):
    return np.exp(rng.uniform(-4.0, 4.0, count) + 1j * rng.uniform(-SHIFT_ANGLE, SHIFT_ANGLE, count))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), count=st.integers(1, 40))
def test_closed_form_resolvents_match_dense(seed, n, count):
    M, _, rng = _normal(seed, n)
    basis = linops.normal_basis(M)
    assert basis is not None
    shifts = _regular_shifts(rng, count)
    dense = resolvent_stack(M, shifts)
    closed = resolvent_stack(M, shifts, basis)
    scale = np.linalg.norm(dense, axis=(1, 2))
    assert np.max(np.linalg.norm(closed - dense, axis=(1, 2)) / scale) <= 1e-10
    norms = linops.resolvent_norms(M, shifts, basis)
    assert np.max(np.abs(norms / linops.resolvent_norms(M, shifts) - 1.0)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), count=st.integers(1, 20),
       data=st.data())
def test_shifts_on_eigenvalues_are_singular_on_both_paths(seed, n, count, data):
    M, _, rng = _normal(seed, n)
    basis = linops.normal_basis(M)
    assert basis is not None
    # the eigenvalues of M as stored (at n = 1, M + zI at a rounded
    # eigenvalue is its own scale, so only an exact one is singular)
    d = basis[0]
    shifts = list(_regular_shifts(rng, count))
    bad = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    for j in bad:
        shifts.insert(data.draw(st.integers(0, len(shifts))), -d[j])
    shifts = np.array(shifts)
    on_spectrum = np.isin(shifts, -d)
    first = complex(shifts[np.argmax(on_spectrum)])
    for b in (None, basis):
        with pytest.raises(SingularShift) as exc:
            resolvent_stack(M, shifts, b)
        assert exc.value.shift == first
        norms = linops.resolvent_norms(M, shifts, b)
        assert np.array_equal(np.isinf(norms), on_spectrum)


# ------------------------------------------- contour sums on the eigenvalues

SYMBOLS = builtin_symbols(np.pi / 2)


def _eigen_and_dense(M):
    """A certified operator on M, and a copy forced onto the Schur path
    (verdict None) that shares its certificate."""
    A = MatrixOperator(M)
    certify_sector(A, 0.7 * np.pi)
    dense = MatrixOperator(M, A.certified)
    dense.normal_basis = lambda: None
    return A, dense


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       re=st.floats(0.5, 0.95), im=st.floats(-1.0, 1.0),
       symbol=st.sampled_from(sorted(SYMBOLS)))
def test_eigenvalue_reduction_matches_dense_path(seed, n, re, im, symbol):
    M, _, _ = _normal(seed, n)
    A, dense = _eigen_and_dense(M)
    assert A.normal_basis() is not None
    z = complex(-re, im)
    f = SYMBOLS[symbol]
    # one contour each, at tol 1 so the comparison never stops at the tail check
    for run, spec in ((lambda op, s: complex_power(op, z, spec=s, tol=1.0, with_info=True),
                       power_contour(A, z)),
                      (lambda op, s: hinf_apply(f, op, spec=s, tol=1.0, with_info=True),
                       hinf_contour(f, A))):
        value, info = run(A, spec)
        ref, ref_info = run(dense, spec)
        assert np.linalg.norm(value - ref) <= 1e-11 * np.linalg.norm(ref)
        assert info.tail_estimate == pytest.approx(ref_info.tail_estimate, rel=1e-11)
        assert info.n_nodes == ref_info.n_nodes


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), count=st.integers(1, 20),
       data=st.data())
def test_spectral_resolvents_name_a_shift_on_an_eigenvalue(seed, n, count, data):
    M, _, rng = _normal(seed, n)
    basis = linops.normal_basis(M)
    shifts = list(_regular_shifts(rng, count))
    j = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(0, len(shifts)))
    np.testing.assert_array_equal(linops.spectral_resolvents(basis, shifts),
                                  1.0 / (basis[0] + np.array(shifts)[:, None]))
    shifts.insert(k, -basis[0][j])
    with pytest.raises(SingularShift) as exc:
        linops.spectral_resolvents(basis, shifts)
    assert exc.value.shift == complex(-basis[0][j])


def _convection_diffusion(m):
    lap = (m + 1) ** 2 * (2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))
    return lap + 10.0 * (m + 1) * (np.eye(m, k=1) - np.eye(m, k=-1))


@pytest.mark.parametrize("M, angle", [
    (_convection_diffusion(16), 0.9 * np.pi),
    (2.0 * np.eye(4) + np.eye(4, k=1), 0.75 * np.pi),
    (np.array([[1.0, 1e-12], [0.0, 2.0]]), 0.75 * np.pi),
], ids=["convection-diffusion", "jordan", "near-jordan"])
def test_nonnormal_operators_keep_the_dense_integrand(M, angle):
    # the Schur-basis sum against an independent per-node
    # np.linalg.inv(A + lambda I) stack on the same contour
    A = MatrixOperator(M)
    certify_sector(A, angle)
    assert A.normal_basis() is None
    eye = np.eye(A.dim)

    def dense(g, spec, eta):
        def integrand(lam):
            return g(lam)[:, None, None] * np.array([np.linalg.inv(A.matrix + x * eye) for x in lam])

        return dunford(spec, integrand, decay_exponent=eta, tol_tail=1e-9)

    def check(got, ref):
        value, info = got
        assert np.linalg.norm(value - ref.value) <= 1e-13 * np.linalg.norm(ref.value)
        assert info.tail_estimate == pytest.approx(ref.tail_estimate, rel=1e-13)
        assert info.n_nodes == ref.n_nodes

    for z in (-0.5, -0.75 + 0.5j, -0.9):
        check(complex_power(A, z, with_info=True),
              dense(lambda lam: (-lam) ** z, power_contour(A, z), -z.real))
    for f in SYMBOLS.values():
        check(hinf_apply(f, A, with_info=True),
              dense(f, hinf_contour(f, A), f.decay_at_infinity()))


# ------------------------------------------------ Cauchy sweeps on the eigenbasis


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 10), nt=st.integers(16, 300),
       scale=st.sampled_from([1.0, 30.0]))
def test_cauchy_eigen_scans_match_dense_sweeps(seed, n, nt, scale):
    # a repeated eigenvalue, one of size 1e-12 (times scale), and at
    # scale 30 steps h |d| up to about 40; both paths sit about
    # 1e-15 * scale from a 30-digit recurrence
    M, _, rng = _normal(seed, n, degenerate=True)
    M = scale * M
    basis = linops.normal_basis(M)
    assert basis is not None
    dt = 1.0 / nt
    eigen, dense = _CauchyStepper(M, dt, basis), _CauchyStepper(M, dt)
    v = rng.standard_normal((nt + 1, n)) + 1j * rng.standard_normal((nt + 1, n))
    for fast, ref in ((eigen.forward(v), dense.forward(v)),
                      (eigen.adjoint(v), dense.adjoint(v))):
        assert np.abs(fast - ref).max() <= 1e-12 * np.abs(ref).max()


def _scan(z, x):
    """In place, x_i <- sum_{k <= i} e^{-(i-k) z} x_k down axis 0, with one
    z per column or one shared by all, by the passes
    x[s:] += e^{-sz} x[:-s], s = 1, 2, 4, ..., on broadcast rows."""
    s = 1
    while s < len(x):
        x[s:] += np.exp(-s * z) * x[:-s]
        s *= 2
    return x


def _broadcast_sweep(steps, g):
    """The causal sweep f_{i+1} = e^{-z} f_i + c_cur g_i + c_next g_{i+1},
    f_0 = 0, of every column of g, each step scalar a broadcast row."""
    z, c_cur, c_next = steps
    out = np.empty(g.shape, dtype=complex)
    out[0] = 0.0
    np.multiply(c_next, g[1:], out=out[1:])
    out[1:] += c_cur * g[:-1]
    return _scan(z, out)


def _broadcast_sweep_adjoint(steps, u):
    """Conjugate transpose of :func:`_broadcast_sweep`: the anticausal
    scan z_j = u_j + e^{-conj z} z_{j+1} on a reversed copy, then
    y_j = conj(c_cur) z_{j+1} + conj(c_next) z_j."""
    z, c_cur, c_next = steps
    tail = np.array(u[:0:-1], dtype=complex)  # u_N, ..., u_1
    tail = _scan(np.conj(z), tail)[::-1]       # z_1, ..., z_N
    y = np.empty(u.shape, dtype=complex)
    y[-1] = 0.0
    np.multiply(np.conj(c_cur), tail, out=y[:-1])
    y[1:] += np.conj(c_next) * tail
    return y


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       # node counts next to a power of two end a scan on a one-row pass
       N=st.integers(17, 600) | st.sampled_from([2 ** k + j for k in (4, 5, 8, 9) for j in (1, 2)]),
       stiff=st.floats(1e-3, 40.0), real=st.booleans())
@example(seed=0, n=1, N=18, stiff=0.03125, real=False)  # one-element passes, complex steps
def test_step_tables_match_broadcast_scans_bit_for_bit(seed, n, N, stiff, real):
    # a spectrum on the positive axis (Hermitian M, real steps) or in the
    # sector, scaled so that the stiffest step h |d| is ``stiff``
    M, _, rng = _normal(seed, n, degenerate=n >= 3)
    if real:
        M = (M + M.conj().T) / 2.0
    dt = 1.0 / (N - 1)
    M = M * (stiff / (dt * np.abs(np.linalg.eigvals(M)).max()))  # stays Hermitian bit for bit
    basis = linops.normal_basis(M)
    assert basis is not None
    stepper = _CauchyStepper(M, dt, basis)
    v, u = (rng.standard_normal((N, n)) + 1j * rng.standard_normal((N, n)) for _ in range(2))
    got = stepper.sweep(v), stepper.sweep_adjoint(u), stepper.sweep_adjoint(v)
    assert stepper._tables.real == real
    # factor rows of shape (1, n): numpy rounds the product of a lone
    # element with a 1-d row by the plain complex formula, but with a 2-d
    # operand, as in the tables, otherwise (n = 1, complex steps, one-row
    # passes)
    steps = tuple(f[None] for f in stepper._steps)
    want = (_broadcast_sweep(steps, v), _broadcast_sweep_adjoint(steps, u),
            _broadcast_sweep_adjoint(steps, v))
    # one scalar step, the derivative resolvent's, on more columns than steps
    k = N + int(rng.integers(0, 8))
    steps = _cauchy_step_scalars(complex(basis[0][0]), dt)
    tables = _StepTables(steps, (N, k), dt)
    assert all(F.strides == (0, 0) for _, F in tables.passes)  # 0-d factors, no tables
    w = rng.standard_normal((N, k)) + 1j * rng.standard_normal((N, k))
    got += tables.sweep(w), tables.sweep_adjoint(w)
    want += _broadcast_sweep(steps, w), _broadcast_sweep_adjoint(steps, w)
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)


def _extended_sweeps(steps, g, u):
    """The causal sweep of g and the adjoint sweep of u as sequential
    recurrences node by node in extended precision (np.clongdouble),
    from the same double step scalars."""
    z, c_cur, c_next = (np.asarray(f, dtype=np.clongdouble) for f in steps)
    a = np.exp(-z)
    g, u = g.astype(np.clongdouble), u.astype(np.clongdouble)
    f = np.zeros_like(g)
    for i in range(1, len(g)):
        f[i] = a * f[i - 1] + c_cur * g[i - 1] + c_next * g[i]
    w = np.zeros_like(u)  # w_j = u_j + conj(a) w_{j+1} for j = N, ..., 1, w_{N+1} = 0
    w[-1] = u[-1]
    for j in range(len(u) - 2, 0, -1):
        w[j] = u[j] + np.conj(a) * w[j + 1]
    y = np.zeros_like(u)
    y[:-1] = np.conj(c_cur) * w[1:]
    y[1:] += np.conj(c_next) * w[1:]
    return f, y


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(16, 64), N=st.integers(17, 1100),
       stiff=st.floats(1e-3, 40.0), real=st.booleans())
# N - 1 < b = 16: no group, the plain scan
@example(seed=1, n=20, N=12, stiff=0.5, real=False)
# b <= N - 1 < 2b: one group and 3 rows left over, at b = 8 and b = 16
@example(seed=2, n=48, N=12, stiff=0.5, real=False)
@example(seed=3, n=20, N=20, stiff=0.02, real=True)
# N - 1 not a multiple of b: 124 groups of 8 and 7 rows; 32 of 16 and 2 rows
@example(seed=4, n=40, N=1000, stiff=0.003, real=False)
@example(seed=5, n=16, N=515, stiff=2.0, real=True)
# 128 groups of 8, none left over
@example(seed=6, n=64, N=1025, stiff=30.0, real=False)
def test_grouped_scans_match_an_extended_precision_recurrence(seed, n, N, stiff, real):
    # a spectrum on the positive axis (real steps) or in the sector, with a
    # repeated eigenvalue and one of 1e-12, whose factor e^{-z} is 1 to
    # rounding and so carries every row to the end; scaled so that the
    # stiffest step h |d| is ``stiff``
    rng = np.random.default_rng(seed)
    angles = 0.0 if real else rng.uniform(-SPECTRUM_ANGLE, SPECTRUM_ANGLE, n)
    d = np.exp(rng.uniform(-3.0, 3.0, n) + 1j * angles)
    d[1], d[-1] = d[0], 1e-12
    dt = 1.0 / (N - 1)
    d = d * (stiff / (dt * np.abs(d).max()))
    steps = _cauchy_step_scalars(d, dt)
    tables = _StepTables(steps, (N, n), dt)
    assert tables.real == real
    b = tables.group
    assert b == (8 if n >= 40 else 16) or b > N - 1 > 0
    assert (tables.tiled is None) == (b > N - 1)
    g, u = (rng.standard_normal((N, n)) + 1j * rng.standard_normal((N, n)) for _ in range(2))
    got = tables.sweep(g), tables.sweep_adjoint(u)
    want = _extended_sweeps(steps, g, u)
    # one rounding of at most 2 eps (a complex product, then a sum) per
    # elementwise step on a row's chain, log2(b) window passes and one
    # group step per b rows, each on a partial sum of at most 2 max |ref|
    # for these decaying modes
    tol = 4.0 * ((b.bit_length() - 1) + -(-(N - 1) // b)) * np.finfo(float).eps
    for fast, ref in zip(got, want, strict=True):
        assert np.abs(fast - ref).max() <= tol * float(np.abs(ref).max())
    # <S g, u> = <g, S^H u>
    Sg, SHu = got
    gap = abs(np.vdot(u, Sg) - np.vdot(SHu, g))
    norm = np.linalg.norm
    assert gap <= tol * (norm(Sg) * norm(u) + norm(g) * norm(SHu))

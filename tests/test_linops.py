import warnings

import numpy as np
import pytest

from sectorsum import SectorSampling, linops
from sectorsum.errors import DimensionMismatch, OverflowRisk, SingularShift
from conftest import resolvent_stack


def test_solve_shifted_scalar():
    x = linops.solve_shifted([[1.0]], 1.0, [1.0])
    assert abs(x[0] - 0.5) < 1e-14


def test_solve_shifted_diagonal():
    x = linops.solve_shifted(np.diag([1.0, 2.0]), 0.0, [1.0, 1.0])
    assert np.allclose(x, [1.0, 0.5], atol=1e-14)


def test_solve_shifted_triangular_backsub_oracle():
    # closed-form back-substitution for [[2,1],[0,2]] x = (1,0):
    # x2 = 0/2 = 0, x1 = (1 - 1*x2)/2 = 0.5
    x = linops.solve_shifted([[2.0, 1.0], [0.0, 2.0]], 0.0, [1.0, 0.0])
    assert np.allclose(x, [0.5, 0.0], atol=1e-14)


def test_solve_singular_shift():
    with pytest.raises(SingularShift):
        linops.solve_shifted([[1.0]], -1.0, [1.0])


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        linops.solve_shifted(np.eye(2), 0.0, [1.0, 2.0, 3.0])


def test_solve_residual_random_well_conditioned():
    rng = np.random.default_rng(7)
    for n in (2, 8, 32):
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        z = complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = linops.solve_shifted(M, z, rhs)
        resid = np.linalg.norm((M + z * np.eye(n)) @ x - rhs)
        assert resid <= 1e-10 * np.linalg.norm(rhs)


def test_operator_norm_examples():
    assert linops.operator_norm(np.diag([1.0, 2.0])) == pytest.approx(2.0, abs=1e-12)
    assert linops.operator_norm([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(1.0, abs=1e-12)
    # largest root of the singular-value polynomial of [[2,1],[0,2]]:
    # eigenvalues of M^H M = [[4,2],[2,5]] are (9 +- sqrt(17))/2
    expected = np.sqrt((9.0 + np.sqrt(17.0)) / 2.0)
    assert linops.operator_norm([[2.0, 1.0], [0.0, 2.0]]) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(2.5616, abs=1e-4)


def test_norm_consistency_property():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    nrm = linops.operator_norm(M)
    for _ in range(20):
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.linalg.norm(M @ x) <= nrm * np.linalg.norm(x) * (1 + 1e-12)
    # equality approached by the top right singular vector
    _, _, vh = np.linalg.svd(M)
    x = vh[0].conj()
    assert np.linalg.norm(M @ x) == pytest.approx(nrm, rel=1e-12)


def test_power_iteration_branch_matches_svd():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((150, 150)) + 1j * rng.standard_normal((150, 150))
    assert linops.operator_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-8)


def _random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_operator_norm_exact_with_close_top_gap():
    # sigma_2 / sigma_1 = 1 - 1e-3: power iteration on M^H M creeps
    # towards 1 and stops on slow progress well short of it
    rng = np.random.default_rng(17)
    n = 150
    sigma = np.concatenate([[1.0, 1.0 - 1e-3], np.linspace(0.9, 0.1, n - 2)])
    M = (_random_unitary(rng, n) * sigma) @ _random_unitary(rng, n).conj().T
    assert linops.operator_norm(M) == pytest.approx(1.0, rel=1e-12)


def _laplacian(m):
    return (m + 1) ** 2 * (2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))


OPERATORS = {
    "diagonal": lambda m: np.diag(np.geomspace(1.0, 100.0, m)),
    "laplacian": _laplacian,
    # L + 20 D1 with the centred first difference: non-normal
    "convection-diffusion": lambda m: _laplacian(m)
    + 20.0 * (m + 1) / 2.0 * (np.eye(m, k=1) - np.eye(m, k=-1)),
    "jordan": lambda m: 2.0 * np.eye(m) + np.eye(m, k=1),
}


def _reference_resolvent_norms(M, shifts):
    eye = np.eye(M.shape[0])
    return np.array([np.linalg.norm(np.linalg.inv(M + z * eye), 2) for z in shifts])


@pytest.mark.parametrize("kind", OPERATORS)
@pytest.mark.parametrize("n,sampling", [
    (8, SectorSampling(n_boundary=200, n_angles=9, interior_density=120)),
    (160, SectorSampling(n_boundary=4, n_angles=2, interior_density=2)),
], ids=["n=8", "n=160"])
def test_resolvent_norms_match_per_shift_reference(kind, n, sampling):
    M = OPERATORS[kind](n).astype(complex)
    shifts = sampling.points(2.5)
    # the shift list spans more than one stacked chunk
    assert len(shifts) * 16 * n * n > linops._SHIFT_STACK_BYTES
    got = linops.resolvent_norms(M, shifts)
    ref = _reference_resolvent_norms(M, shifts)
    assert got.shape == (len(shifts),)
    assert np.max(np.abs(got - ref) / ref) <= 1e-12


def _count_svd_matrices(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(a.shape[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.mark.parametrize("kind,n", [("convection-diffusion", 32), ("jordan", 4)])
def test_real_matrix_conjugate_shifts_share_one_svd(kind, n, monkeypatch):
    M = OPERATORS[kind](n).astype(complex)
    # conjugate-symmetric grid, plus a shift on the Jordan eigenvalue 2
    # under both signs of zero
    shifts = np.concatenate([SectorSampling(n_boundary=5, n_angles=3, interior_density=3)
                             .points(2.5), [-2.0 + 0.0j, complex(-2.0, -0.0)]])
    full = linops._singular_value_norms(M, shifts)
    distinct = len(np.unique(np.where(shifts.imag < 0, shifts.conj(), shifts)))
    assert distinct < len(shifts)
    calls = _count_svd_matrices(monkeypatch)
    got = linops.resolvent_norms(M, shifts)
    assert sum(calls) == distinct
    assert np.array_equal(got, full)
    if kind == "jordan":
        assert np.isinf(got[-2:]).all() and np.isfinite(got[:-2]).all()


def test_complex_matrix_takes_every_shift(monkeypatch):
    M = OPERATORS["convection-diffusion"](8) + 1j * np.diag(np.linspace(0.0, 1.0, 8))
    shifts = SectorSampling(n_boundary=5, n_angles=3, interior_density=3).points(2.5)
    calls = _count_svd_matrices(monkeypatch)
    got = linops.resolvent_norms(M, shifts)
    assert sum(calls) == len(shifts)
    assert np.max(np.abs(got - _reference_resolvent_norms(M, shifts)) / got) <= 1e-12


def test_resolvent_norms_inf_on_spectrum():
    got = linops.resolvent_norms(np.diag([1.0, 2.0, 3.0]), [-1.0, 0.5, -3.0, 1j, -2.0 + 0.0j])
    assert np.isinf(got[[0, 2, 4]]).all()
    assert got[1] == pytest.approx(1.0 / 1.5, rel=1e-14)
    assert got[3] == pytest.approx(1.0 / abs(1.0 + 1j), rel=1e-14)
    # a Jordan block shifted onto its eigenvalue is nilpotent
    J = 2.0 * np.eye(4) + np.eye(4, k=1)
    assert np.isinf(linops.resolvent_norms(J, [-2.0]))[0]
    assert linops.resolvent_norms(J, []).shape == (0,)


def test_resolvent_norms_inf_at_a_subnormal_distance():
    # 1 / 2.2e-311 overflows: the norm is inf, as on the spectrum, with no warning
    M = np.diag([1.0, 2.225073858507e-311])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linops.resolvent_norms(M, [0.0, 1.0], linops.normal_basis(M))
    assert np.isinf(got[0]) and got[1] == 1.0


@pytest.mark.parametrize("kind", OPERATORS)
def test_resolvents_match_per_shift_inverse(kind):
    M = OPERATORS[kind](8).astype(complex)
    shifts = SectorSampling(n_boundary=40, n_angles=5, interior_density=20).points(2.5)
    got = resolvent_stack(M, shifts)
    eye = np.eye(8)
    ref = np.array([np.linalg.inv(M + z * eye) for z in shifts])
    assert got.shape == (len(shifts), 8, 8) and got.dtype == np.complex128
    err = np.max(np.abs(got - ref), axis=(1, 2)) / np.max(np.abs(ref), axis=(1, 2))
    assert np.max(err) <= 1e-13


def test_resolvents_name_first_singular_shift():
    M = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(SingularShift) as exc:
        resolvent_stack(M, [0.5, -2.0, 1j, -1.0])
    assert exc.value.shift == -2.0
    assert resolvent_stack(M, []).shape == (0, 3, 3)


def test_matrix_exp_identity_and_scalar():
    assert np.array_equal(linops.matrix_exp(np.zeros((3, 3))), np.eye(3))
    assert linops.matrix_exp([[1.0]])[0, 0] == pytest.approx(np.e, rel=1e-13)


def test_matrix_exp_nilpotent_series_oracle():
    # series terminates: exp(N) = I + N for N^2 = 0
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(linops.matrix_exp(N), np.eye(2) + N, atol=1e-15)


def test_matrix_exp_semigroup():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 4))
    M *= 5.0 / linops.operator_norm(M)
    for s, t in [(0.3, 0.7), (-1.0, 0.5), (1.0, 1.0)]:
        lhs = linops.matrix_exp(s * M) @ linops.matrix_exp(t * M)
        rhs = linops.matrix_exp((s + t) * M)
        assert linops.operator_norm(lhs - rhs) <= 1e-8


def test_matrix_exp_overflow_budget():
    with pytest.raises(OverflowRisk):
        linops.matrix_exp(500.0 * np.eye(2))


def test_matrix_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    M = rng.standard_normal((5, 5)) * 10.0 ** rng.integers(-12, 12, (5, 5))
    M = M + 1j * rng.standard_normal((5, 5)) * 1e-7
    M[0, 0] = 1.5 - 0.25j
    # signed zeros in both parts; array_equal alone treats -0.0 == 0.0
    M[1, 1], M[2, 2], M[3, 3] = complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)
    # subnormals: the smallest positive double and a negative one
    M[4, 4], M[4, 3] = complex(5e-324, -1e-320), complex(-1e-320, 5e-324)
    path = tmp_path / "m.csv"
    linops.write_matrix(path, M)
    M2 = linops.read_matrix(path)
    assert np.array_equal(M, M2)
    assert np.array_equal(M2.view(np.uint64), M.view(np.uint64))


def test_matrix_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("2\n1+0i,2+0i\n3+0i\n")
    with pytest.raises(ValueError):
        linops.read_matrix(path)


def test_empty_matrix_rejected():
    with pytest.raises(DimensionMismatch):
        linops.resolvent_norms(np.zeros((0, 0)), [1.0])


# ------------------------------------------- normal operators: closed form

def _normal_from(rng, lam):
    U = _random_unitary(rng, len(lam))
    return (U * lam) @ U.conj().T


@pytest.mark.parametrize("M", [
    OPERATORS["convection-diffusion"](16),
    OPERATORS["convection-diffusion"](32),
    OPERATORS["convection-diffusion"](128),
    OPERATORS["convection-diffusion"](160),
    OPERATORS["jordan"](4),
    np.array([[1.0, 1e-12], [0.0, 2.0]]),
], ids=["cd-16", "cd-32", "cd-128", "cd-160", "jordan-4", "2x2-1e-12"])
def test_normal_basis_rejects_nonnormal(M):
    assert linops.normal_basis(M) is None


@pytest.mark.parametrize("m", [1, 2, 8, 48, 160])
@pytest.mark.parametrize("kind", ["laplacian", "rotated-diagonal"])
def test_normal_basis_diagonalises_normal(kind, m):
    rng = np.random.default_rng(m)
    if kind == "laplacian":
        M = _laplacian(m).astype(complex)
    else:
        lam = np.exp(1j * rng.uniform(-np.pi / 4, np.pi / 4, m)) * np.geomspace(1.0, 100.0, m)
        M = _normal_from(rng, lam)
    d, Q = linops.normal_basis(M)
    scale = np.linalg.norm(M)
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(m)) <= 1e-13 * m
    assert np.linalg.norm((Q * d) @ Q.conj().T - M) <= 1e-13 * m * scale


def test_closed_form_norms_match_analytic_laplacian_eigenvalues():
    m = 160
    M = _laplacian(m).astype(complex)
    k = np.arange(1, m + 1)
    lam = 4.0 * (m + 1) ** 2 * np.sin(k * np.pi / (2 * (m + 1))) ** 2
    shifts = SectorSampling().points(2.5)
    got = linops.resolvent_norms(M, shifts, linops.normal_basis(M))
    oracle = 1.0 / np.min(np.abs(shifts[:, None] + lam[None, :]), axis=1)
    assert np.max(np.abs(got - oracle) / oracle) <= 1e-11


def test_closed_form_matches_dense_path():
    rng = np.random.default_rng(23)
    lam = np.exp(1j * rng.uniform(-1.0, 1.0, 12)) * np.geomspace(0.1, 50.0, 12)
    M = _normal_from(rng, lam)
    basis = linops.normal_basis(M)
    shifts = SectorSampling(n_boundary=40, n_angles=5, interior_density=20).points(1.5)
    dense = resolvent_stack(M, shifts)
    closed = resolvent_stack(M, shifts, basis)
    assert closed.shape == dense.shape and closed.dtype == np.complex128
    err = np.max(np.abs(closed - dense), axis=(1, 2)) / np.max(np.abs(dense), axis=(1, 2))
    assert np.max(err) <= 1e-12
    norms = linops.resolvent_norms(M, shifts, basis)
    assert np.max(np.abs(norms / linops.resolvent_norms(M, shifts) - 1.0)) <= 1e-12


def test_closed_form_singular_shifts():
    M = np.diag([1.0, 2.0, 3.0]).astype(complex)
    basis = linops.normal_basis(M)
    with pytest.raises(SingularShift) as exc:
        resolvent_stack(M, [0.5, -2.0, 1j, -1.0], basis)
    assert exc.value.shift == -2.0
    got = linops.resolvent_norms(M, [-1.0, 0.5, -3.0, 1j, -2.0 + 0.0j], basis)
    assert np.isinf(got[[0, 2, 4]]).all()
    assert got[1] == pytest.approx(1.0 / 1.5, rel=1e-14)
    assert got[3] == pytest.approx(1.0 / abs(1.0 + 1j), rel=1e-14)
    assert resolvent_stack(M, [], basis).shape == (0, 3, 3)
    assert linops.resolvent_norms(M, [], basis).shape == (0,)


def test_pivot_test_scale_does_not_overflow():
    # near the ray rule's clamp radius each |d_i + z|^2 is finite but their
    # sum is not; the shift must stay resolvable, with no overflow warning
    d = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    z = 1e154 * np.exp(2.2j)
    basis = (d, np.eye(4, dtype=complex))
    R = linops.spectral_resolvents(basis, [z, 1.0])
    assert np.allclose(R[0] * (d + z), 1.0, rtol=1e-15, atol=0.0)
    norm = linops.resolvent_norms(np.diag(d), [z], basis)[0]
    assert norm == pytest.approx(1.0 / np.min(np.abs(d + z)), rel=1e-15)
    # where the sum would overflow the per-eigenvalue test still holds its
    # scale: 1e-13 (|d_0| + |z|) = 2e141, so a distance of 1e140 is
    # singular and 1e143 is not
    d = np.array([-1e154, 1e154, 1e154, 1e154], dtype=complex)
    basis = (d, np.eye(4, dtype=complex))
    with pytest.raises(SingularShift):
        linops.spectral_resolvents(basis, [1e154 - 1e143, 1e154 - 1e140])
    assert linops.spectral_resolvents(basis, [1e154 - 1e143]).shape == (1, 4)
    # a shift so large that even the rescaled norm ||T + zI||_F overflows
    d = np.arange(1.0, 9.0, dtype=complex)
    z = np.exp(709.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R = linops.spectral_resolvents((d, np.eye(8, dtype=complex)), [z])
    assert np.allclose(R[0] * (d + z), 1.0, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("off", [None, 0.0, 2.5])
def test_pivot_distances_in_chunks_match_one_table(monkeypatch, off):
    # 3 shifts a chunk against every shift at once, with singular shifts
    # and shifts whose sum of squares overflows in several chunks
    rng = np.random.default_rng(5)
    d = rng.standard_normal(4) * 10.0 ** rng.uniform(-3, 6, 4) + 1j * rng.standard_normal(4)
    z = (rng.standard_normal(40) + 1j * rng.standard_normal(40)) * 10.0 ** rng.uniform(-3, 6, 40)
    z[::7] = -d[np.arange(6) % 4]
    z[3::11] = 1e300 * np.exp(1j * np.arange(4))
    monkeypatch.setattr(linops, "_SHIFT_STACK_BYTES", 1 << 40)
    whole = linops._pivot_distances(d, z, off)
    monkeypatch.setattr(linops, "_SHIFT_STACK_BYTES", 3 * 16 * 4)
    assert linops.stack_step(16 * 4) == 3
    chunked = linops._pivot_distances(d, z, off)
    assert whole[1].any() and not whole[1].all()
    for a, b in zip(whole, chunked, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_normal_pivot_test_reads_each_eigenvalue_on_its_own_scale():
    # on a normal basis a pivot is singular when it is within rounding of
    # its own terms, |d_i + z| <= 1e-13 (|d_i| + |z|): 1 + z = 1 at z = 0
    # is not, though 1e-13 ||diag(1, 1e16) + zI||_F = 1e3 exceeds it
    d = np.array([1.0, 1e16], dtype=complex)
    basis = (d, np.eye(2, dtype=complex))
    R = linops.spectral_resolvents(basis, [0.0, -884.0 - 287.0j])
    assert np.array_equal(R, 1.0 / (d + np.array([0.0, -884.0 - 287.0j])[:, None]))
    norms = linops.resolvent_norms(np.diag(d), [0.0], basis)
    assert norms[0] == 1.0
    # a shift exactly on an eigenvalue is singular, and named
    for k in (0, 1):
        with pytest.raises(SingularShift) as exc:
            linops.spectral_resolvents(basis, [2.0, -d[k], 3.0])
        assert exc.value.shift == -d[k]
        with pytest.raises(SingularShift):
            linops.basis_solve(basis, [-d[k]], np.ones(2))
    assert np.isinf(linops.resolvent_norms(np.diag(d), [-1.0], basis)[0])
    # a Schur basis keeps the pivot test of ShiftedFactorization: the
    # same pivot 1 against 1e-13 ||T + zI||_F is singular there
    T = np.array([[1.0, 1e-3], [0.0, 1e16]], dtype=complex)
    with pytest.raises(SingularShift):
        linops.triangular_resolvents(T, [0.0])
    with pytest.raises(SingularShift):
        linops.ShiftedFactorization(T, 0.0)


def test_normal_certification_peak_memory_is_one_stack():
    # 16701 shifts x 64 eigenvalues: the distance table alone would take
    # 17 MB as complex sums; in chunks the peak is the stack budget's
    # tables plus a few arrays of one entry per shift
    import tracemalloc

    from sectorsum import certify_sector, generate

    L = generate("laplacian-1d", m=64)
    sampling = SectorSampling(n_angles=128, interior_density=128)
    shifts = sampling.points(0.9 * np.pi).size
    certify_sector(L, 0.9 * np.pi, sampling)  # basis and radii built
    tracemalloc.start()
    try:
        certify_sector(L, 0.9 * np.pi, sampling)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shifts * 64 * 16 > 16 * linops._SHIFT_STACK_BYTES
    assert peak <= 2 * linops._SHIFT_STACK_BYTES + 64 * shifts


# ------------------------------------------ resolvents applied to vectors

SOLVE_OPERATORS = {
    "diagonal": lambda: OPERATORS["diagonal"](8).astype(complex),
    "hermitian": lambda: _laplacian(8).astype(complex),
    "rotated-normal": lambda: _normal_from(
        np.random.default_rng(29),
        np.exp(1j * np.linspace(-0.6, 0.6, 8)) * np.geomspace(1.0, 40.0, 8)),
    "convection-diffusion-8": lambda: OPERATORS["convection-diffusion"](8).astype(complex),
    "convection-diffusion-32": lambda: OPERATORS["convection-diffusion"](32).astype(complex),
    "jordan-8": lambda: OPERATORS["jordan"](8).astype(complex),
}


def _solve_basis(M):
    return linops.normal_basis(M) or linops.schur_form(M)


@pytest.mark.parametrize("count", [0, 1, 398])
@pytest.mark.parametrize("rows", [False, True], ids=["one-vector", "row-per-shift"])
@pytest.mark.parametrize("kind", SOLVE_OPERATORS)
def test_basis_solve_matches_dense_solves(kind, rows, count):
    M = SOLVE_OPERATORS[kind]()
    n = M.shape[0]
    basis = _solve_basis(M)
    assert (basis[0].ndim == 1) == (kind in ("diagonal", "hermitian", "rotated-normal"))
    shifts = SectorSampling(n_boundary=100, n_angles=5, interior_density=40).points(2.5)[:count]
    assert len(shifts) == count
    shape = (count, n) if rows else n
    rng = np.random.default_rng(count)
    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = linops.basis_solve(basis, shifts, X)
    assert got.shape == (len(shifts), n) and got.dtype == np.complex128
    eye = np.eye(n)
    for k, z in enumerate(shifts):
        ref = np.linalg.solve(M + z * eye, X[k] if rows else X)
        assert np.linalg.norm(got[k] - ref) <= 1e-12 * np.linalg.norm(ref), z


@pytest.mark.parametrize("kind", SOLVE_OPERATORS)
def test_basis_solve_names_the_first_singular_shift(kind):
    M = SOLVE_OPERATORS[kind]()
    basis = _solve_basis(M)
    d = linops.basis_eigenvalues(basis)
    shifts = np.array([0.5, 1j, -d[-1], 2.0, -d[0]])
    with pytest.raises(SingularShift) as want:
        linops.basis_resolvents(basis, shifts)
    with pytest.raises(SingularShift) as got:
        linops.basis_solve(basis, shifts, np.ones(M.shape[0]))
    assert got.value.shift == want.value.shift == -d[-1]


def _bytes_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("theta", [0.0, 1e-9, 0.3, np.pi / 2, 2.0, 0.9 * np.pi,
                                   np.nextafter(np.pi, 0.0)])
@pytest.mark.parametrize("sampling", [SectorSampling(), SectorSampling(n_angles=1),
                                      SectorSampling(n_boundary=4, n_angles=2, interior_density=2),
                                      SectorSampling(n_boundary=1, n_angles=3, interior_density=1,
                                                     r_min=0.5, r_max=2.0)],
                         ids=["default", "one-angle", "coarse", "narrow"])
def test_sorted_distinct_is_np_unique_on_the_sampling_grids(theta, sampling, monkeypatch):
    from sectorsum import sector

    got = sampling.points(theta)
    monkeypatch.setattr(sector, "_sorted_distinct", np.unique)
    sector._radii.cache_clear()
    try:
        want = sampling.points(theta)
    finally:
        sector._radii.cache_clear()
    assert _bytes_equal(got, want)


def test_sorted_distinct_is_np_unique():
    rng = np.random.default_rng(3)
    x = np.round(rng.standard_normal(400), 1)
    z = x[:200] + 1j * x[200:]
    for v in (x, z, np.concatenate([np.geomspace(1e-8, 1e8, 60), [1.0]]), np.array([2.0])):
        assert _bytes_equal(linops._sorted_distinct(v), np.unique(v))


@pytest.mark.parametrize("kind", ["rotated", "laplacian"])
def test_normal_certification_never_reads_the_matrix(kind, monkeypatch):
    # on a cached normal basis the norms are 1/min_i |d_i + z| in closed
    # form: certify_sector and the extension check take them bit for bit,
    # and never scan M for finite entries
    from sectorsum import MatrixOperator, certify_sector, extended_sector_check
    from sectorsum.harness import _recipe_matrix

    M, theta = (_recipe_matrix("diag-rotated", psi=0.7, entries=[0.5, 3.0, 40.0])
                if kind == "rotated" else _recipe_matrix("laplacian-1d", m=32))
    A = MatrixOperator(M)
    d, _ = A.normal_basis()
    validated = []
    as_matrix = linops.as_matrix
    monkeypatch.setattr(linops, "as_matrix", lambda m: validated.append(1) or as_matrix(m))
    sampling = SectorSampling()
    k_hat = certify_sector(A, theta, sampling)
    check = extended_sector_check(A, A.certified)
    assert validated == []

    def closed_form(z):
        return (1.0 + np.abs(z)) * (1.0 / np.abs(z[:, None] + d).min(axis=1))

    assert k_hat == max(float(np.max(closed_form(sampling.points(theta)))), 1.0)
    assert linops.resolvent_norms(None, [2.0, 1j], (d, None)).shape == (2,)
    assert check.worst_value == float(np.max(closed_form(np.array([check.worst_z]))))


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e150])
def test_normal_basis_of_a_normal_matrix_at_any_scale(scale):
    # the commutator test runs on M scaled by a power of two: at 1e150 the
    # squares of ||MM^* - M^*M|| overflowed and turned a normal M away
    rng = np.random.default_rng(9)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    d = np.geomspace(1.0, 20.0, 6) * np.exp(1j * np.linspace(-1.0, 1.0, 6))
    M = (Q * (scale * d)) @ Q.conj().T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        basis = linops.normal_basis(M)
    assert basis is not None
    assert np.allclose(np.sort_complex(basis[0] / scale), np.sort_complex(d), rtol=1e-12)

import warnings

import numpy as np
import pytest

from sectorsum import (
    CommutingPair,
    MatrixOperator,
    SectorSampling,
    SectorSpec,
    certify_sector,
    complex_power,
    decay_probe,
    extended_sector_check,
    linops,
    resolvent_apply,
)
from sectorsum.errors import ExtensionViolated, NotSectorialAtAngle, SingularShift
from sectorsum.sector import _disk_ring
from conftest import certified


def test_resolvent_apply_examples(scalar1):
    assert abs(resolvent_apply(scalar1, 1.0, [1.0])[0] - 0.5) < 1e-14
    A = MatrixOperator(np.diag([1.0, 4.0]))
    got = resolvent_apply(A, 1j, [1.0, 0.0])
    assert abs(got[0] - (0.5 - 0.5j)) < 1e-14 and abs(got[1]) < 1e-14
    with pytest.raises(SingularShift):
        resolvent_apply(scalar1, -1.0, [1.0])


def test_certify_scalar_sup_near_i(scalar1):
    # sup over the imaginary axis of (1+t)/sqrt(1+t^2), attained at t=1
    k = certify_sector(scalar1, np.pi / 2, attach=False)
    assert k == pytest.approx(np.sqrt(2.0), abs=1e-5)


def test_certify_identity_at_zero_angle():
    A = MatrixOperator(np.eye(3))
    assert certify_sector(A, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_certify_spectrum_on_ray():
    A = MatrixOperator([[-1.0]])
    with pytest.raises(NotSectorialAtAngle) as exc:
        certify_sector(A, 0.0)
    assert exc.value.shift is not None


def test_certify_monotonic_in_angle(scalar1):
    ks = [certify_sector(scalar1, th, attach=False) for th in (0.2, 0.6, 1.2, 1.5)]
    assert all(a <= b + 1e-12 for a, b in zip(ks, ks[1:]))


def test_certify_monotonic_in_density(scalar1):
    coarse = SectorSampling(n_boundary=24, interior_density=8)
    # geometric grids with 2n-1 points nest the n-point ones
    fine = SectorSampling(n_boundary=47, interior_density=15)
    k1 = certify_sector(scalar1, 1.0, coarse, attach=False)
    k2 = certify_sector(scalar1, 1.0, fine, attach=False)
    assert k2 >= k1 - 1e-13


def test_resolvent_identity_property():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    A = certified(M, 0.5)
    eye = np.eye(6)
    for z, w in [(1.0, 2.0), (0.5 + 0.2j, 3.0), (2.0, 0.1 - 0.05j)]:
        Rz = np.linalg.inv(M + z * eye)
        Rw = np.linalg.inv(M + w * eye)
        resid = np.linalg.norm(Rz - Rw - (w - z) * (Rz @ Rw), 2)
        assert resid <= 1e-9


def test_scaling_covariance():
    # (cA + cz)^{-1} = c^{-1} (A+z)^{-1}; asserted argmax-free on matched
    # z -> cz samples (the affine weight 1+|z| itself is not scale
    # invariant, so K-hat comparisons go through the norms directly)
    A = certified(np.diag([1.0, 3.0]), 1.2)
    c = 7.0
    sampling = SectorSampling(n_boundary=24, interior_density=8)
    for z in sampling.points(1.2):
        Rz = np.linalg.inv(A.matrix + z * np.eye(2))
        Rcz = np.linalg.inv(c * A.matrix + c * z * np.eye(2))
        assert np.linalg.norm(Rcz - Rz / c, 2) <= 1e-13 * np.linalg.norm(Rz / c, 2)
        assert c * np.linalg.norm(Rcz, 2) == pytest.approx(
            np.linalg.norm(Rz, 2), rel=1e-12
        )


def test_normal_operator_oracle_certify():
    d = np.array([1.0, 2.5, 10.0])
    A = MatrixOperator(np.diag(d))
    sampling = SectorSampling(n_boundary=64, interior_density=16)
    theta = 1.0
    k = certify_sector(A, theta, sampling, attach=False)
    # scalar maximum over the same grid
    pts = sampling.points(theta)
    scalar = max(
        (1.0 + abs(z)) / min(abs(a + z) for a in d) for z in pts
    )
    assert k == pytest.approx(scalar, rel=1e-2)


def test_extension_check_passes_with_measured_K(scalar1):
    k = certify_sector(scalar1, np.pi / 2, attach=False)
    chk = extended_sector_check(scalar1, SectorSpec(np.pi / 2, round(k + 5e-5, 4)))
    assert chk.passed and chk.worst_value <= chk.bound


def test_extension_check_identity():
    A = certified(np.eye(2), 0.0)
    chk = extended_sector_check(A, SectorSpec(0.0, 1.0))
    assert chk.passed


def test_extension_check_understated_K(scalar1):
    with pytest.raises(ExtensionViolated):
        extended_sector_check(scalar1, SectorSpec(np.pi / 2, 1.0))


def _convection_diffusion(m, b=20.0):
    lap = 2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    return (m + 1) ** 2 * lap + b * (m + 1) / 2.0 * (np.eye(m, k=1) - np.eye(m, k=-1))


def _reference_bound(M, z):
    """(1+|z|) ||(M+z)^{-1}|| one shift at a time, through the inverse."""
    inv = np.linalg.inv(M + z * np.eye(M.shape[0]))
    return (1.0 + abs(z)) * np.linalg.norm(inv, 2)


def _reference_extension(M, spec, sampling, n_disk):
    """Per-shift loop over the disk circles: (worst value, worst z, count,
    first z above the bound or None)."""
    bound = 2.0 * spec.K + 1.0
    ring = _disk_ring(n_disk)
    worst_val, worst_z, count = -np.inf, None, 0
    for lam in sampling.points(spec.theta):
        for z in lam + (1.0 + abs(lam)) / (2.0 * spec.K) * ring:
            count += 1
            val = _reference_bound(M, complex(z))
            if val > worst_val:
                worst_val, worst_z = val, complex(z)
            if val > bound * (1.0 + 1e-9):
                return worst_val, worst_z, count, complex(z)
    return worst_val, worst_z, count, None


def test_certify_names_first_singular_shift():
    sampling = SectorSampling(n_boundary=12, n_angles=3, interior_density=4)
    theta = 1.0
    pts = sampling.points(theta)
    first, second = pts[7], pts[20]
    # eigenvalues at -second and -first (matrix order reversed on purpose):
    # normal, in closed form; non-normal, on the singular values at the
    # shifts the Weyl bounds leave
    for M in (np.diag([-second, -first]), np.array([[-second, 1.0], [0.0, -first]])):
        A = MatrixOperator(M)
        with pytest.raises(NotSectorialAtAngle) as exc:
            certify_sector(A, theta, sampling)
        assert exc.value.shift == complex(first)
        assert A.certified is None
    assert A.normal_basis() is None


@pytest.mark.parametrize("theta", [0.0, 0.5 * np.pi, 0.9 * np.pi])
def test_certify_singular_operator_without_warnings(theta):
    # singular at the shifts 0 and 1: once 0 sets the running sup to inf,
    # the pruning of the other shifts must not form inf * 0
    A = MatrixOperator(np.array([[0.0, 1.0], [0.0, -1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotSectorialAtAngle) as exc:
            certify_sector(A, theta)
    assert exc.value.shift == 0.0


def test_certify_matches_per_shift_reference_nonnormal():
    M = _convection_diffusion(16)
    sampling = SectorSampling(n_boundary=24, n_angles=5, interior_density=8)
    for theta in (0.0, 1.0, 2.5):
        ref = max(1.0, max(_reference_bound(M, complex(z)) for z in sampling.points(theta)))
        k = certify_sector(MatrixOperator(M), theta, sampling, attach=False)
        assert k == pytest.approx(ref, rel=1e-12)


def test_extension_check_matches_per_shift_reference():
    M = _convection_diffusion(12)
    A = MatrixOperator(M)
    sampling = SectorSampling(n_boundary=8, n_angles=3, interior_density=4)
    theta = 1.2
    spec = SectorSpec(theta, certify_sector(A, theta, SectorSampling(), attach=False))
    chk = extended_sector_check(A, spec, sampling, n_disk=6)
    worst_val, worst_z, count, violated = _reference_extension(M, spec, sampling, 6)
    assert violated is None
    assert chk.worst_value == pytest.approx(worst_val, rel=1e-12)
    assert chk.worst_z == worst_z
    assert chk.n_samples == count


def test_extension_check_raises_at_first_violation():
    # K-hat is about 5 at theta = 2, so K = 1.5 is understated: the check
    # stops at the first circle point above 2K + 1 in sampling order
    M = _convection_diffusion(12)
    sampling = SectorSampling(n_boundary=8, n_angles=3, interior_density=4)
    spec = SectorSpec(2.0, 1.5)
    _, _, count, violated = _reference_extension(M, spec, sampling, 6)
    assert violated is not None and count > 1
    with pytest.raises(ExtensionViolated) as exc:
        extended_sector_check(MatrixOperator(M), spec, sampling, n_disk=6)
    assert exc.value.shift == violated


@pytest.mark.parametrize("sampling,share", [
    (SectorSampling(n_boundary=4, n_angles=2, interior_density=2), 2 / 6),
    (SectorSampling(), 1 / 3),
], ids=["coarse", "default"])
@pytest.mark.parametrize("theta", [0.5 * np.pi, 0.9 * np.pi])
def test_certification_decomposes_a_fraction_of_the_shifts(sampling, share, theta, monkeypatch):
    M = _convection_diffusion(32)
    pts = sampling.points(theta)
    distinct = len(np.unique(np.where(pts.imag < 0, pts.conj(), pts)))
    ref = max(1.0, float(np.max((1.0 + np.abs(pts)) * linops.resolvent_norms(M, pts))))
    decomposed = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        decomposed.append(a.shape[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert certify_sector(MatrixOperator(M), theta, sampling, attach=False) == ref
    assert sum(decomposed) <= share * distinct


def test_one_decomposition_of_A_per_operator(monkeypatch):
    # norm, inverse_norm and every certification share A's cached SVD, the
    # seed of the Weyl bounds; a sampled 0 takes its value from it
    zeros, decomposed = [], []
    real = linops._shifted_singular_values

    def counting(M, z):
        zeros.append(int(np.sum(z == 0)))
        decomposed.append(z.shape[0])
        return real(M, z)

    monkeypatch.setattr(linops, "_shifted_singular_values", counting)
    A = MatrixOperator(_convection_diffusion(32))
    coarse = SectorSampling(n_boundary=4, n_angles=2, interior_density=2)
    A.norm(), A.inverse_norm()
    K = certify_sector(A, 0.5 * np.pi, coarse, attach=False)
    certify_sector(A, 0.9 * np.pi, SectorSampling(), attach=False)
    extended_sector_check(A, SectorSpec(0.5 * np.pi, K))
    assert sum(zeros) == 1
    decomposed.clear()
    certify_sector(A, 0.7 * np.pi, coarse, attach=False)
    assert decomposed == [1]


def test_operator_holds_a_private_read_only_matrix():
    M = _convection_diffusion(8).astype(complex)
    fresh = MatrixOperator(M.copy())
    A = MatrixOperator(M)
    M[0, 0] += 100.0  # the caller's array, written after construction
    sampling = SectorSampling(n_boundary=8, interior_density=4)
    assert certify_sector(A, 2.0, sampling, attach=False) == certify_sector(
        fresh, 2.0, sampling, attach=False)
    assert A.norm() == fresh.norm()
    with pytest.raises(ValueError):
        A.matrix[0, 0] = 1
    with pytest.raises(AttributeError):  # nor can the cached metadata be orphaned
        A.matrix = M
    assert not MatrixOperator(M.real).matrix.flags.writeable


def test_extension_check_with_the_bounds_taken_in_blocks(monkeypatch):
    # a 4 KiB stack splits each chunk's bounding table into blocks of a few columns
    M = _convection_diffusion(3)
    A = MatrixOperator(M)
    sampling = SectorSampling(n_boundary=24, n_angles=5, interior_density=8)
    spec = SectorSpec(1.2, certify_sector(A, 1.2, sampling, attach=False))
    ring = _disk_ring(12)
    pts = np.concatenate([lam + (1.0 + abs(lam)) / (2.0 * spec.K) * ring
                          for lam in sampling.points(spec.theta)])
    ref = (1.0 + np.abs(pts)) * linops.resolvent_norms(M, pts)
    monkeypatch.setattr(linops, "_SHIFT_STACK_BYTES", 1 << 12)
    chk = extended_sector_check(A, spec, sampling, n_disk=12)
    assert chk.worst_value == np.max(ref)
    assert chk.worst_z == complex(pts[np.argmax(ref)])
    assert chk.n_samples == pts.shape[0]


def test_disk_ring_points_are_exact_conjugate_pairs():
    for n_disk in range(1, 17):
        ring = _disk_ring(n_disk)
        k = np.arange(n_disk)
        assert np.array_equal(ring[-k], ring.conj()), n_disk
        assert np.abs(ring - np.exp(2j * np.pi * k / n_disk)).max() <= 4 * np.finfo(float).eps


def test_extension_check_decomposes_each_conjugate_pair_once(monkeypatch):
    # a real A: the circles around conjugate centres are conjugate, so the
    # check never decomposes both z and conj(z)
    decomposed = []
    real = linops._shifted_singular_values
    monkeypatch.setattr(linops, "_shifted_singular_values",
                        lambda M, z: decomposed.extend(z.tolist()) or real(M, z))
    A = MatrixOperator(_convection_diffusion(8))
    sampling = SectorSampling(n_boundary=8, n_angles=3, interior_density=4)
    spec = SectorSpec(0.55 * np.pi, certify_sector(A, 0.55 * np.pi, sampling, attach=False))
    decomposed.clear()
    chk = extended_sector_check(A, spec, sampling, n_disk=12)
    pts = np.concatenate([lam + (1.0 + abs(lam)) / (2.0 * spec.K) * _disk_ring(12)
                          for lam in sampling.points(spec.theta)])
    assert set(pts.conj().tolist()) == set(pts.tolist())
    # no shift decomposed twice, not even as a near-conjugate of another
    u = np.array(decomposed)
    gap = np.abs(u[:, None] - u[None, :]) + np.diag(np.full(u.size, np.inf))
    assert np.all(gap > 1e-12 * (1.0 + np.abs(u)[:, None]))
    assert chk.n_samples == pts.shape[0]


def test_extension_check_rejects_empty_disk(scalar1):
    with pytest.raises(ValueError, match="n_disk"):
        extended_sector_check(scalar1, SectorSpec(np.pi / 2, 2.0), n_disk=0)


def test_certify_large_rotated_diagonal_matches_sigma_min_oracle():
    # normal, spectrum on rotated rays, dense through a random unitary:
    # above n = 128 the resolvent norm must stay exact
    rng = np.random.default_rng(2)
    m = 160
    lam = np.exp(1j * rng.uniform(-np.pi / 4, np.pi / 4, m)) * np.geomspace(1.0, 100.0, m)
    q, r = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    U = q * (np.diag(r) / np.abs(np.diag(r)))
    M = (U * lam) @ U.conj().T
    A = MatrixOperator(M)
    sampling = SectorSampling(n_boundary=4, n_angles=2, interior_density=2)
    for theta in np.linspace(0.5 * np.pi, 0.7 * np.pi, 9):
        pts = sampling.points(theta)
        s = np.linalg.svd(M[None] + pts[:, None, None] * np.eye(m), compute_uv=False)
        oracle = max(1.0, float(np.max((1.0 + np.abs(pts)) / s[:, -1])))
        assert certify_sector(A, theta, sampling, attach=False) == pytest.approx(
            oracle, rel=1e-10)


def test_inverse_norm_is_one_over_sigma_min():
    M = _convection_diffusion(8)
    assert MatrixOperator(M).inverse_norm() == pytest.approx(
        np.linalg.norm(np.linalg.inv(M), 2), rel=1e-12)
    with pytest.raises(SingularShift) as exc:
        MatrixOperator(np.diag([0.0, 1.0])).inverse_norm()
    assert exc.value.shift == 0.0


def test_decay_probe_scalar_bounded(scalar1):
    # ||A(A+z)^{-1}|| = 1/|1+z| <= 1 on the positive reals
    sup = decay_probe(scalar1, 0.5, 0.0, 0.0, [1.0])
    assert sup <= 1.0 + 1e-9


def test_decay_probe_scalar_eta_quarter(scalar1):
    # max over r >= 0 of r^{1/4}/(1+r) is attained at r = 1/3
    sup = decay_probe(scalar1, 0.5, 0.25, 0.0, [1.0])
    expected = (1.0 / 3.0) ** 0.25 / (4.0 / 3.0)
    assert sup <= expected + 1e-9
    assert sup >= expected * 0.98


def test_decay_probe_contract_violations():
    A = certified(np.diag([1.0, 10.0]), 2.0)
    with pytest.raises(ValueError):
        decay_probe(A, 0.9, 0.9, 1.0, np.ones(2))  # eta = phi
    with pytest.raises(ValueError):
        decay_probe(A, 0.5, 0.1, 2.5, np.ones(2))  # theta' above certificate


def test_normal_basis_cached_with_its_verdict(monkeypatch):
    calls = []
    real = linops.normal_basis
    monkeypatch.setattr(linops, "normal_basis", lambda M: calls.append(1) or real(M))
    lap = MatrixOperator(_convection_diffusion(8, b=0.0))
    cd = MatrixOperator(_convection_diffusion(8))
    for A in (lap, cd, lap, cd):
        certify_sector(A, 2.0, SectorSampling(n_boundary=8, interior_density=4))
        A.norm(), A.inverse_norm()
    assert len(calls) == 2
    assert lap.normal_basis() is lap.normal_basis()
    assert cd.normal_basis() is None


def test_normal_norms_from_basis():
    M = _convection_diffusion(32, b=0.0)
    A = MatrixOperator(M)
    assert A.normal_basis() is not None
    s = np.linalg.svd(M, compute_uv=False)
    assert A.norm() == pytest.approx(s[0], rel=1e-12)
    assert A.inverse_norm() == pytest.approx(1.0 / s[-1], rel=1e-12)
    with pytest.raises(SingularShift) as exc:
        MatrixOperator(np.diag([0.0, 1.0])).inverse_norm()
    assert exc.value.shift == 0.0


def test_commuting_pair_members_have_normal_bases():
    rng = np.random.default_rng(4)
    q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    Q = q * (np.diag(r) / np.abs(np.diag(r)))
    A = certified(Q @ np.diag([1.0, 2.0, 5.0, 8.0]) @ Q.conj().T, 0.9 * np.pi)
    B = certified(Q @ np.diag([0.5, 1.0, 2.0, 3.0]) @ Q.conj().T, 0.9 * np.pi)
    pair = CommutingPair(A, B)
    for op, d in ((pair.A, [1.0, 2.0, 5.0, 8.0]), (pair.B, [0.5, 1.0, 2.0, 3.0])):
        basis = op.normal_basis()
        assert basis is not None
        assert np.sort(basis[0].real) == pytest.approx(d, rel=1e-13)


def test_certify_normal_closed_form_matches_dense_path():
    A = MatrixOperator(_convection_diffusion(48, b=0.0))
    assert A.normal_basis() is not None
    sampling = SectorSampling()
    for theta in (0.0, 1.0, 2.5):
        pts = sampling.points(theta)
        dense = max(1.0, float(np.max((1.0 + np.abs(pts)) * linops.resolvent_norms(A.matrix, pts))))
        assert certify_sector(A, theta, sampling, attach=False) == pytest.approx(dense, rel=1e-11)


@pytest.mark.parametrize("M", [np.diag([1.0, 3.0, 10.0]), _convection_diffusion(8)],
                         ids=["normal", "convection-diffusion"])
def test_decay_probe_matches_per_shift_reference(M):
    A = certified(M, 2.5)
    y = np.arange(1.0, M.shape[0] + 1.0)
    sup = decay_probe(A, 0.5, 0.25, 1.0, y)
    x = complex_power(A, -0.5) @ y
    ref = max(
        np.linalg.norm(complex(z) ** 0.25 * (M @ np.linalg.solve(M + z * np.eye(len(y)), x)))
        for z in SectorSampling(r_max=1e6).points(1.0)
    )
    assert sup == pytest.approx(ref, rel=1e-12)


def test_sampling_points_come_in_exact_conjugate_pairs():
    pts = SectorSampling().points(0.9 * np.pi)
    assert set(pts.conj().tolist()) == set(pts.tolist())
    # so a real matrix's resolvent norms take one SVD per conjugate pair
    assert len(np.unique(np.where(pts.imag < 0, pts.conj(), pts))) == 220
    for n_angles in range(2, 11):
        pts = SectorSampling(n_angles=n_angles, n_boundary=4, interior_density=3).points(2.5)
        assert set(pts.conj().tolist()) == set(pts.tolist()), n_angles

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from sectorsum import (
    CommutingPair,
    closedness_certificate,
    complex_power,
    eadic_middle_eval,
    fractional_power,
    generate,
    resolvent_commute_check,
    split_integral_eval,
    sum_inverse,
    weighted_identity_left,
    weighted_identity_right,
)
from sectorsum.errors import SingularShift
from sectorsum.linops import ShiftedFactorization, operator_norm
from sectorsum.sums import sum_contour
from sectorsum.contour import build_nodes, fit_contour, gauss_panels
from conftest import certified


def make_pair(da, db, ang=0.9 * np.pi):
    return CommutingPair(certified(np.diag(da), ang), certified(np.diag(db), ang))


@pytest.fixture(scope="module")
def pair_1234():
    return make_pair([1.0, 2.0], [3.0, 4.0])


def test_commute_check_examples():
    A = certified(np.diag([1.0, 2.0]), 0.9 * np.pi)
    B = certified(np.diag([3.0, 4.0]), 0.9 * np.pi)
    assert resolvent_commute_check(A, B, 1.0, 1.0) < 1e-15
    J = certified([[2.0, 1.0], [0.0, 2.0]], 0.75 * np.pi)
    J1 = certified([[3.0, 1.0], [0.0, 3.0]], 0.75 * np.pi)
    assert resolvent_commute_check(J, J1, 1.0, 1.0) <= 1e-12
    Jt = certified([[2.0, 0.0], [1.0, 2.0]], 0.75 * np.pi)
    assert resolvent_commute_check(J, Jt, 1.0, 1.0) > 0.01
    with pytest.raises(ValueError):
        CommutingPair(J, Jt)


def test_sum_inverse_identity_pair():
    pair = make_pair([1.0, 1.0], [1.0, 1.0])
    K = sum_inverse(pair)
    assert np.abs(K - 0.5 * np.eye(2)).max() < 1e-8


def test_sum_inverse_diagonal(pair_1234):
    K = sum_inverse(pair_1234)
    assert np.abs(K - np.diag([0.25, 1.0 / 6.0])).max() < 1e-8


def test_sum_inverse_laplacian_rotation():
    A = generate("laplacian-1d", m=8)
    B = certified(np.exp(1j * np.pi / 3) * np.eye(8), 0.6 * np.pi)
    pair = CommutingPair(A, B)
    K = sum_inverse(pair)
    direct = np.linalg.inv(A.matrix + B.matrix)
    rel = operator_norm(K - direct) / operator_norm(direct)
    assert rel < 1e-6


def test_sum_inverse_two_sided(pair_1234):
    K = sum_inverse(pair_1234, tol=1e-6)
    S = pair_1234.A.matrix + pair_1234.B.matrix
    assert operator_norm(K @ S - np.eye(2)) <= 1e-6
    assert operator_norm(S @ K - np.eye(2)) <= 1e-6


def test_sum_inverse_large_laplacian_pair_passes_its_residual_gate():
    # K's error is 2e-9 relative, but ||A + B|| is about 1e5, so a contour
    # at 0.01 tol leaves a residual of 2.9e-6
    A = generate("laplacian-1d", m=128)
    B = certified(0.5 * np.exp(1j * np.pi / 8) * A.matrix, 0.8 * np.pi)
    pair = CommutingPair(A, B)
    K = sum_inverse(pair, tol=1e-6)
    assert _rel(K, np.linalg.inv(A.matrix + B.matrix)) <= 1e-8


def test_commutation_transport(pair_1234):
    K = sum_inverse(pair_1234)
    for lam in (0.5, 1.0 + 1.0j):
        R = ShiftedFactorization(pair_1234.A.matrix, lam).inverse()
        assert operator_norm(K @ R - R @ K) <= 1e-8


def test_weighted_identity_left_examples(pair_1234):
    lhs, rhs, diff = weighted_identity_left(pair_1234, -0.5)
    assert diff <= 1e-6
    oracle = np.diag([a / (a + b) * a ** -0.5 for a, b in [(1, 3), (2, 4)]])
    assert np.abs(lhs - oracle).max() < 1e-8

    pair_ii = make_pair([1.0], [1.0])
    lhs, rhs, diff = weighted_identity_left(pair_ii, -1.0)
    assert abs(lhs[0, 0] - 0.5) < 1e-8 and diff <= 1e-8

    with pytest.raises(ValueError):
        weighted_identity_left(pair_1234, 0.0 + 1.0j)


def test_weighted_identity_right_examples(pair_1234):
    lhs, rhs, diff = weighted_identity_right(pair_1234, -0.5)
    assert diff <= 1e-6
    oracle = np.diag([a / (a + b) * b ** -0.5 for a, b in [(1, 3), (2, 4)]])
    assert np.abs(lhs - oracle).max() < 1e-8

    pair_ii = make_pair([1.0], [1.0])
    lhs, rhs, diff = weighted_identity_right(pair_ii, -1.0)
    assert abs(lhs[0, 0] - 0.5) < 1e-8 and abs(rhs[0, 0] - 0.5) < 1e-8


def test_identity_coherence_over_w(pair_1234):
    rng = np.random.default_rng(4)
    for _ in range(3):
        w = complex(rng.uniform(-0.75, -0.25), rng.uniform(-2.0, 2.0))
        _, _, dl = weighted_identity_left(pair_1234, w)
        _, _, dr = weighted_identity_right(pair_1234, w)
        assert dl <= 1e-6 and dr <= 1e-6


def test_sum_inverse_path_shift_invariance(pair_1234):
    # K's integrand is holomorphic between the default path and a narrower
    # one with an arc inside the nearest pole -sigma(B) = -3, so both agree
    base = sum_contour(pair_1234)
    moved = fit_contour(base.theta - 0.1, [1.0, 2.0, -3.0, -4.0], (1.0, 1.0), 16.0, 1e-10,
                        rho=1.5, n_arc=32)
    K1 = sum_inverse(pair_1234, spec=base)
    K2 = sum_inverse(pair_1234, spec=moved)
    assert operator_norm(K1 - K2) <= 1e-7


def test_split_middle_empty_at_n0(pair_1234):
    p1, p2, p3 = split_integral_eval(pair_1234, 0.25, 0.25, 0.0, 0)
    assert np.all(p2 == 0.0)


def test_split_pieces_sum_right_variant(pair_1234):
    theta, phi, t = 0.25, 0.25, 0.3
    p1, p2, p3 = split_integral_eval(pair_1234, theta, phi, t, 3, variant="right")
    K = sum_inverse(pair_1234)
    Bw = complex_power(pair_1234.B, -theta + 1j * t)
    target = pair_1234.A.matrix @ K @ Bw
    recon = Bw + p1 + p2 + p3
    assert np.abs(target - recon).max() < 1e-7


def test_split_pieces_sum_left_variant(pair_1234):
    theta, phi, t = 0.25, 0.25, 0.0
    pieces = split_integral_eval(pair_1234, theta, phi, t, 3, variant="left")
    w = -(theta + phi) + 1j * t
    _, wil_rhs, _ = weighted_identity_left(pair_1234, w)
    Aphi = fractional_power(pair_1234.A, phi)
    assert np.abs(sum(pieces) - Aphi @ wil_rhs).max() < 1e-7
    # and directly against A K A^{-theta+it}
    K = sum_inverse(pair_1234)
    direct = pair_1234.A.matrix @ K @ complex_power(pair_1234.A, -theta + 1j * t)
    assert np.abs(sum(pieces) - direct).max() < 1e-7


def _split_oracle(a, b, theta, phi, t, n, variant, angle):
    """The three radial pieces of one eigenvalue pair (a of A, b of B)
    by scipy quad over r in [0, 1], [1, e^n] and [e^n, inf) on both rays
    at the contour angle: the upper ray outward, the lower ray inward."""
    w = -(theta + phi) + 1j * t
    s = -1.0 if variant == "right" else 1.0
    factor = -(b ** phi) if s < 0 else a ** phi

    def f(lam):
        return (-lam) ** (1.0 + w) / ((a + s * lam) * (b - s * lam))

    up, dn = cmath.exp(1j * angle), cmath.exp(-1j * angle)

    def integrand(r):
        return factor * (f(r * up) * up - f(r * dn) * dn) / (2j * np.pi)

    def quad(lo, hi):
        parts = (scipy.integrate.quad(lambda r: part(integrand(r)), lo, hi,
                                      epsabs=1e-14, epsrel=1e-13, limit=400)[0]
                 for part in (lambda z: z.real, lambda z: z.imag))
        return complex(*parts)

    e_n = math.exp(n)
    return quad(0.0, 1.0), quad(1.0, e_n), quad(e_n, math.inf)


@pytest.mark.parametrize("variant", ["right", "left"])
@pytest.mark.parametrize("n", [1, 3])
def test_split_pieces_match_scalar_quadrature(pair_1234, variant, n):
    # each piece on its own, entry by entry of the diagonal pair
    theta, phi, t = 0.25, 0.2, 0.3
    pieces = split_integral_eval(pair_1234, theta, phi, t, n, variant=variant)
    w = -(theta + phi) + 1j * t
    angle = sum_contour(pair_1234, w=w, s=-1.0 if variant == "right" else 1.0).theta
    for j, (a, b) in enumerate([(1.0, 3.0), (2.0, 4.0)]):
        oracle = _split_oracle(a, b, theta, phi, t, n, variant, angle)
        for piece, want in zip(pieces, oracle):
            assert abs(piece[j, j] - want) < 1e-8
            assert abs(piece[j, 1 - j]) < 1e-12


def test_split_tail_decay_matches_exponent(pair_1234):
    # the tail integrand scales like r^{-1-(theta+phi)}, so the tail piece
    # contracts by about e^{-(theta+phi) dn}
    sigma = 0.5
    n2 = operator_norm(split_integral_eval(pair_1234, 0.25, 0.25, 0.0, 2)[2])
    n6 = operator_norm(split_integral_eval(pair_1234, 0.25, 0.25, 0.0, 6)[2])
    assert n6 < n2
    ratio = n2 / n6
    assert np.exp(4 * sigma) * 0.5 <= ratio <= np.exp(4 * sigma) * 4.0


def test_eadic_single_panel(pair_1234):
    tc = sum_contour(pair_1234).theta
    mid_direct = split_integral_eval(pair_1234, 0.3, 0.2, -0.7, 1, variant="right")[1]
    mid_eadic = eadic_middle_eval(pair_1234, 0.3, 0.2, -0.7, 1, theta_contour=tc)
    assert np.abs(mid_direct - mid_eadic).max() < 1e-8


def test_eadic_matches_direct_quadrature(pair_1234):
    tc = sum_contour(pair_1234).theta
    for (th, ph, t, n) in [(0.25, 0.25, 0.0, 3), (0.25, 0.25, 0.5, 4)]:
        direct = split_integral_eval(pair_1234, th, ph, t, n, variant="right")[1]
        rearr = eadic_middle_eval(pair_1234, th, ph, t, n, theta_contour=tc)
        assert np.abs(direct - rearr).max() < 1e-8


def test_eadic_summand_scaling_factor(pair_1234):
    # the k-th summand equals e^{(1-theta)k} e^{ikt} e^{-k} times the k = 0
    # summand of the pair scaled by e^{-k}
    th, ph, t, k = 0.3, 0.3, 0.6, 2
    tc = sum_contour(pair_1234).theta
    s_k = (eadic_middle_eval(pair_1234, th, ph, t, k + 1, theta_contour=tc)
           - eadic_middle_eval(pair_1234, th, ph, t, k, theta_contour=tc))
    scaled_pair = make_pair(np.exp(-k) * np.diag(pair_1234.A.matrix).real,
                            np.exp(-k) * np.diag(pair_1234.B.matrix).real)
    s_0 = eadic_middle_eval(scaled_pair, th, ph, t, 1, theta_contour=tc)
    factor = np.exp((1.0 - th) * k) * np.exp(1j * k * t) * np.exp(-k)
    assert np.abs(s_k - factor * s_0).max() < 1e-9


def test_eadic_singular_shift_on_b_spectrum():
    # B has an eigenvalue at -e^{i theta_c} x_0 for the first [1, e] node
    # x_0 (the rule has four panels of 12 nodes), so the k = 0 solve
    # (s B + e^{i theta_c})^{-1} is singular
    tc = 0.6 * np.pi
    x0 = gauss_panels(np.linspace(1.0, np.e, 5), 12)[0][0]
    pair = CommutingPair(certified(np.diag([1.0, 2.0]), 0.9 * np.pi),
                         certified(np.diag([-np.exp(1j * tc) * x0, 2.0]), 0.5 * np.pi))
    with pytest.raises(SingularShift):
        eadic_middle_eval(pair, 0.3, 0.2, 0.5, 2, theta_contour=tc)


def test_sum_inverse_singular_shift_off_the_stride(pair_1234):
    # B has an eigenvalue at -z for a node z of radius in (1, 4) whose
    # index is not a multiple of 8, which a check of every 8th node skips;
    # the path at 0.6 pi is passed explicitly (B is certified only at
    # pi / 2, below it)
    spec = replace(sum_contour(pair_1234), theta=0.6 * np.pi)
    lam = build_nodes(spec)[0]
    z = next(l for j, l in enumerate(lam) if j % 8 and 1.0 < abs(l) < 4.0)
    pair = CommutingPair(certified(np.diag([1.0, 2.0]), 0.9 * np.pi),
                         certified(np.diag([-z, 4.0]), 0.5 * np.pi))
    with pytest.raises(SingularShift, match="hits a spectrum") as exc:
        sum_inverse(pair, spec=spec)
    assert exc.value.shift == z


def test_closedness_certificate_identity_pair():
    cert = closedness_certificate(make_pair([1.0, 1.0], [1.0, 1.0]))
    assert cert.C_AB == pytest.approx(0.5, abs=1e-7)


def test_closedness_certificate_eigen_oracle():
    cert = closedness_certificate(make_pair([1.0, 100.0], [1.0, 1.0]))
    assert cert.C_AB == pytest.approx(100.0 / 101.0, abs=1e-4)
    assert cert.residual_K <= 1e-6
    assert max(cert.theta_values) <= cert.C_AB * 1.1


def test_closedness_certificate_laplacian_stability():
    vals = []
    for m in (8, 16):
        A = generate("laplacian-1d", m=m)
        B = certified(np.exp(1j * np.pi / 3) * np.eye(m), 0.6 * np.pi)
        cert = closedness_certificate(CommutingPair(A, B))
        assert np.isfinite(cert.C_AB)
        vals.append(cert.C_AB)
    assert abs(vals[0] - vals[1]) <= 0.1 * max(vals)


def test_certificate_rejects_empty_probes(pair_1234):
    with pytest.raises(ValueError):
        closedness_certificate(pair_1234, probes=[])


def test_theta_grid_uniformity(pair_1234):
    cert = closedness_certificate(pair_1234, theta_grid=(0.4, 0.2, 0.1, 0.05))
    assert all(v <= cert.C_AB * 1.1 for v in cert.theta_values)


# ------------------------------------------------------ non-normal pair


def _rel(got, want):
    return operator_norm(got - want) / operator_norm(want)


def _power(M, w):
    return scipy.linalg.expm(w * scipy.linalg.logm(M))


def test_dense_pair_sum_inverse(dense_pair):
    A, B = dense_pair.A.matrix, dense_pair.B.matrix
    assert _rel(sum_inverse(dense_pair), np.linalg.inv(A + B)) <= 1e-6


@pytest.mark.parametrize("w", [-0.4, -0.5 + 0.7j])
def test_dense_pair_weighted_identities(dense_pair, w):
    A, B = dense_pair.A.matrix, dense_pair.B.matrix
    AK = A @ np.linalg.inv(A + B)
    for identity, X in ((weighted_identity_left, A), (weighted_identity_right, B)):
        lhs, rhs, _ = identity(dense_pair, w)
        oracle = AK @ _power(X, w)
        assert _rel(lhs, oracle) <= 1e-6 and _rel(rhs, oracle) <= 1e-6


def test_dense_pair_split_pieces(dense_pair):
    theta, phi, t = 0.25, 0.25, 0.4
    A, B = dense_pair.A.matrix, dense_pair.B.matrix
    AK = A @ np.linalg.inv(A + B)
    Bw = _power(B, -theta + 1j * t)
    right = split_integral_eval(dense_pair, theta, phi, t, 2, variant="right")
    assert _rel(Bw + sum(right), AK @ Bw) <= 1e-6
    left = split_integral_eval(dense_pair, theta, phi, t, 2, variant="left")
    assert _rel(sum(left), AK @ _power(A, -theta + 1j * t)) <= 1e-6


def _laplacian(m):
    return (m + 1) ** 2 * (2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))


@pytest.mark.parametrize("A, B, theta_b", [
    (_laplacian(8), 0.5 * np.exp(0.25j * np.pi) * _laplacian(8), 0.7 * np.pi),
    (_laplacian(16) + 10.0 * 17 * (np.eye(16, k=1) - np.eye(16, k=-1)),
     0.5 * np.exp(0.1j * np.pi) * (_laplacian(16) + 10.0 * 17 * (np.eye(16, k=1) - np.eye(16, k=-1))),
     0.8 * np.pi),
], ids=["laplacian-rotated", "convection-diffusion"])
def test_sum_inverse_resolves_a_ray_near_the_spectrum(A, B, theta_b):
    # K's ray at theta_B - 0.05 passes 0.21 rad (Laplacian, B certified at
    # 0.7 pi) or, for the non-normal pair, about 0.1 rad from -sigma(B);
    # the step set by that distance meets the residual gate
    pair = CommutingPair(certified(A, 0.9 * np.pi), certified(B, theta_b))
    K = sum_inverse(pair, tol=1e-6)
    direct = np.linalg.inv(A + B)
    assert operator_norm(K - direct) <= 1e-9 * operator_norm(direct)

"""50-digit oracles for non-normal operators.

``certify_sector`` on a Jordan block and on a nearly normal 2 x 2 upper
triangle must stay on the dense sigma_min path (``normal_basis`` rejects
both) and agree with sigma_min(M + z) taken in 50-digit arithmetic.
``complex_power`` of the Jordan block runs on its Schur form and must
agree with the exact binomial series of (2I + N)^z, and so must the
imaginary powers of ``ImaginaryPowerFamily``.
"""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from sectorsum import (  # noqa: E402
    MatrixOperator,
    SectorSampling,
    certify_sector,
    ImaginaryPowerFamily,
    complex_power,
    linops,
)

SAMPLING = SectorSampling(n_boundary=5, n_angles=3, r_min=1e-3, r_max=1e3, interior_density=3)

OPERATORS = {
    "jordan": 2.0 * np.eye(4) + np.eye(4, k=1),
    "2x2-1e-12": np.array([[1.0, 1e-12], [0.0, 2.0]]),
}


def _sigma_min_50_digits(M, z):
    """Smallest singular value of M + zI from the float64 data, at 50 digits."""
    with mpmath.workdps(50):
        n = M.shape[0]
        A = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                A[i, j] = mpmath.mpc(M[i, j].real, M[i, j].imag)
            A[i, i] += mpmath.mpc(z.real, z.imag)
        return float(min(mpmath.svd_c(A, compute_uv=False)))


@pytest.mark.parametrize("kind", OPERATORS)
@pytest.mark.parametrize("theta", [0.5, 1.5, 2.5])
def test_certify_nonnormal_matches_50_digit_sigma_min(kind, theta):
    M = OPERATORS[kind].astype(complex)
    A = MatrixOperator(M)
    assert A.normal_basis() is None
    pts = SAMPLING.points(theta)
    oracle = np.array([(1.0 + abs(z)) / _sigma_min_50_digits(M, complex(z)) for z in pts])
    got = (1.0 + np.abs(pts)) * linops.resolvent_norms(M, pts)
    assert np.max(np.abs(got - oracle) / oracle) <= 1e-12
    k_hat = certify_sector(A, theta, SAMPLING, attach=False)
    assert k_hat == pytest.approx(max(1.0, float(np.max(oracle))), rel=1e-12)


def _jordan_power_50_digits(z, n=4, lam=2):
    """(lam I + N)^z = sum_k binom(z, k) lam^(z - k) N^k for the nilpotent
    shift N, entry (i, i + k) carrying the k-th term, at 50 digits."""
    with mpmath.workdps(50):
        zc = mpmath.mpc(z.real, z.imag)
        coef = [mpmath.binomial(zc, k) * mpmath.power(lam, zc - k) for k in range(n)]
        return np.array([[complex(coef[j - i]) if j >= i else 0.0 for j in range(n)]
                         for i in range(n)])


@pytest.mark.parametrize("z", [-0.5, -0.75 + 0.5j])
def test_jordan_complex_power_matches_50_digit_series(z, schur_calls):
    A = MatrixOperator(OPERATORS["jordan"].astype(complex))
    certify_sector(A, 0.75 * np.pi)
    assert A.normal_basis() is None
    got = complex_power(A, z)
    assert schur_calls == [1]
    oracle = _jordan_power_50_digits(complex(z))
    assert np.linalg.norm(got - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_jordan_imaginary_powers_match_50_digit_series():
    # (2I + N_3)^{it} = 2^{it} (I + (it/2) N + (it)(it - 1)/8 N^2)
    A = MatrixOperator(2.0 * np.eye(3, dtype=complex) + np.eye(3, k=1))
    certify_sector(A, 0.75 * np.pi)
    ts = np.linspace(-8.0, 8.0, 17)
    got = ImaginaryPowerFamily(A, t_max=8.0).at_many(ts)
    for value, t in zip(got, ts):
        oracle = _jordan_power_50_digits(1j * t, n=3)
        assert np.linalg.norm(value - oracle, 2) <= 1e-9 * np.linalg.norm(oracle, 2)

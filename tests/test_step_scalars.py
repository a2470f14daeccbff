"""200-bit oracles for the Cauchy step scalars of a normal operator.

``maxreg._cauchy_step_scalars`` gives, for z = h d, the factors
c_cur = h (phi_1 - phi_2)(-z) and c_next = h phi_2(-z) of the exact
piecewise-linear step.  Both are taken here in 200-bit arithmetic from

    c_next = h (z + expm1(-z)) / z^2,   c_cur = h (1 - e^{-z} (1 + z)) / z^2,

and compared in relative error on both sides of |z| = 1, where the
library switches from the batched 3 x 3 block exponential to these
closed forms.
"""

import re

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from sectorsum.errors import OverflowRisk  # noqa: E402
from sectorsum.maxreg import _cauchy_step_matrices, _cauchy_step_scalars  # noqa: E402

EPS = np.finfo(float).eps
H = 1.0 / 64
# relative error allowed on either side of |z| = 1: 4 eps < 1e-15
BOUND = 4 * EPS


def oracle(z: complex, h: float) -> tuple[complex, complex]:
    """(c_cur, c_next) at z in 200-bit arithmetic."""
    with mpmath.workprec(200):
        z = mpmath.mpc(z)
        c_cur = h * (1 - mpmath.exp(-z) * (1 + z)) / z ** 2
        c_next = h * (z + mpmath.expm1(-z)) / z ** 2
        return complex(c_cur), complex(c_next)


def grid_points():
    # |z| from 1e-8 to 1e5, the doubles next to |z| = 1, at angles up to
    # 0.49 pi either side of the positive axis; then a few Re z < 0 inside
    # the sweeps' growth limit (Re z > -88.7).  No point is near a zero
    # of c_cur (z = -1 - W_k(-1/e): 2.09 +- 7.46i, 2.66 +- 13.9i, ...),
    # where no evaluation keeps relative accuracy
    radii = np.concatenate([np.logspace(-8, 5, 53), [np.nextafter(1.0, 0.0), 1.0,
                                                     np.nextafter(1.0, 2.0)]])
    angles = np.pi * np.array([0.0, 0.25, 0.45, 0.49, -0.25, -0.45, -0.49])
    growing = [-1.0, -5.0, -30.0, -88.0, -0.5 + 0.5j, -0.9j, -1.0 + 3.0j, -50.0 + 50.0j,
               -80.0 - 20.0j]
    return np.concatenate([np.multiply.outer(radii, np.exp(1j * angles)).ravel(), growing])


Z = grid_points()


def relative_errors(z, c_cur, c_next):
    want = np.array([oracle(zk, H) for zk in z])
    return (np.abs(c_cur - want[:, 0]) / np.abs(want[:, 0]),
            np.abs(c_next - want[:, 1]) / np.abs(want[:, 1]))


def test_step_scalars_match_mpmath_on_both_sides_of_one():
    z, c_cur, c_next = _cauchy_step_scalars(Z / H, H)
    assert np.array_equal(z, H * (Z / H))
    err_cur, err_next = relative_errors(Z, c_cur, c_next)
    stiff = np.abs(z) >= 1.0
    assert min(stiff.sum(), (~stiff).sum()) > 100
    assert err_cur.max() <= BOUND, Z[np.argmax(err_cur)]
    assert err_next.max() <= BOUND, Z[np.argmax(err_next)]


def test_block_exponential_loses_eps_times_z_in_c_cur():
    # the difference h (phi_1 - phi_2) of the block exponential, which the
    # stiff steps took before the closed forms: c_cur is off by about
    # eps |z| there, c_next is not
    big = Z[np.abs(Z) >= 1e4]
    _, C_cur, C_next = _cauchy_step_matrices((big / H)[:, None, None], H)
    err_cur, err_next = relative_errors(big, C_cur[:, 0, 0], C_next[:, 0, 0])
    assert err_cur.max() > 1e3 * BOUND and err_next.max() <= 8 * EPS
    _, c_cur, c_next = _cauchy_step_scalars(big / H, H)
    assert relative_errors(big, c_cur, c_next)[0].max() <= BOUND


def test_small_steps_keep_the_block_exponential_bit_for_bit():
    d = Z / H
    small = np.abs(Z) < 1.0
    _, c_cur, c_next = _cauchy_step_scalars(d, H)
    _, C_cur, C_next = _cauchy_step_matrices(d[small][:, None, None], H)
    assert np.array_equal(c_cur[small], C_cur[:, 0, 0])
    assert np.array_equal(c_next[small], C_next[:, 0, 0])


@pytest.mark.parametrize("lam", [0.0, 3e-7, 5.0 - 20.0j, 64.0, 1e5 + 1e5j, -1e3])
def test_a_scalar_step_stays_0_d(lam):
    # the derivative resolvent passes one complex lam
    z, c_cur, c_next = _cauchy_step_scalars(complex(lam), H)
    assert np.ndim(z) == np.ndim(c_cur) == np.ndim(c_next) == 0
    _, (want_cur,), (want_next,) = _cauchy_step_scalars(np.array([lam], dtype=complex), H)
    assert complex(c_cur) == want_cur and complex(c_next) == want_next
    if lam:
        exact = oracle(H * lam, H)
        assert abs(complex(c_cur) - exact[0]) <= BOUND * abs(exact[0])
        assert abs(complex(c_next) - exact[1]) <= BOUND * abs(exact[1])


def test_step_scalars_at_a_zero_of_c_cur():
    # at z = -1 - W_1(-1/e) the closed form's error is a few eps of its
    # terms h (1 + |e^{-z} (1 + z)|) / |z|^2, not of the vanishing value
    with mpmath.workprec(200):
        root = complex(-1 - mpmath.lambertw(-1 / mpmath.e, 1))
    _, c_cur, _ = _cauchy_step_scalars(np.array([root / H]), H)
    exact = oracle(root, H)[0]
    terms = H * (1 + abs(np.exp(-root) * (1 + root))) / abs(root) ** 2
    assert abs(exact) < 1e-3 * terms
    assert abs(c_cur[0] - exact) <= BOUND * terms


@pytest.mark.parametrize("d, h, norm", [
    ([10.0, 300.0], 6.25e298, "1.875e+301"),  # h z finite, z^2 not
    ([1e5 + 1e5j], 1e150, "1.414e+155"),
    ([0.5, -1e6], 1.0, "1.000e+06"),  # e^{-z} of the growing mode
], ids=["z2-overflows", "complex", "growth-overflows"])
def test_a_step_that_is_not_finite_names_h_norm_a(d, h, norm):
    message = f"the Cauchy step at h = {h:.3e} is not finite (h ||A|| = {norm})"
    with pytest.raises(OverflowRisk, match=re.escape(message)):
        _cauchy_step_scalars(np.array(d, dtype=complex), h)

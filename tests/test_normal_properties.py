"""Property tests of the normal-operator closed form against the dense
resolvent path (``linops.resolvents`` / ``linops.resolvent_norms``)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sectorsum import linops  # noqa: E402
from sectorsum.errors import SingularShift  # noqa: E402

# spectra in the sector |arg| <= pi/4; regular shifts in |arg| <= pi/2,
# so every eigenvalue of M + z stays at least sin(pi/4) |d| from 0
SPECTRUM_ANGLE = np.pi / 4
SHIFT_ANGLE = np.pi / 2


def _normal(seed, n):
    """Q diag(d) Q^* for a seeded random unitary Q and spectrum d in the
    sector; returns (M, d, rng) with rng left to draw shifts from."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    Q = q * (np.diag(r) / np.abs(np.diag(r)))
    d = np.exp(rng.uniform(-3.0, 3.0, n) + 1j * rng.uniform(-SPECTRUM_ANGLE, SPECTRUM_ANGLE, n))
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
    dense = linops.resolvents(M, shifts)
    closed = linops.resolvents(M, shifts, basis)
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
            linops.resolvents(M, shifts, b)
        assert exc.value.shift == first
        norms = linops.resolvent_norms(M, shifts, b)
        assert np.array_equal(np.isinf(norms), on_spectrum)

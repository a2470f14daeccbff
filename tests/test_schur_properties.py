"""Property tests of the Schur resolvent path: ``linops.triangular_resolvents``
and its stacks mapped back by ``linops.from_basis`` on non-normal
matrices against per-shift ``np.linalg.inv``, its singular-shift test,
and when ``MatrixOperator.schur_form`` is taken."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sectorsum import (  # noqa: E402
    ImaginaryPowerFamily,
    MatrixOperator,
    bip_fit,
    builtin_symbols,
    certify_sector,
    complex_power,
    decay_probe,
    extended_sector_check,
    hinf_apply,
    linops,
)
from sectorsum.errors import SingularShift  # noqa: E402
from conftest import resolvent_stack  # noqa: E402


def _convection_diffusion(m):
    lap = (m + 1) ** 2 * (2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))
    return lap + 10.0 * (m + 1) * (np.eye(m, k=1) - np.eye(m, k=-1))


def _nonnormal(seed, n, strength, jordan):
    """Q (D + N) Q^* for a seeded random unitary Q, a spectrum D in the
    sector |arg| <= pi/4 (one repeated eigenvalue when `jordan`) and a
    strictly upper N whose entries are `strength` times standard normal
    (a unit superdiagonal when `jordan`); returns (M, rng)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    Q = q * (np.diag(r) / np.abs(np.diag(r)))
    d = np.exp(rng.uniform(0.0, 1.5, n) + 1j * rng.uniform(-np.pi / 4, np.pi / 4, n))
    if jordan:
        T = d[0] * np.eye(n) + np.eye(n, k=1)
    else:
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        T = np.diag(d) + strength * np.triu(noise, 1)
    return Q @ T @ Q.conj().T, rng


def _regular_shifts(rng, count):
    # |arg z| <= pi/2 keeps every eigenvalue of M + z at least sin(pi/4) |d| from 0
    return np.exp(rng.uniform(-4.0, 4.0, count) + 1j * rng.uniform(-np.pi / 2, np.pi / 2, count))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), count=st.integers(1, 30),
       strength=st.floats(0.0, 1.0), jordan=st.booleans())
def test_schur_resolvents_match_per_shift_inverse(seed, n, count, strength, jordan):
    M, rng = _nonnormal(seed, n, strength, jordan)
    shifts = _regular_shifts(rng, count)
    ref = np.array([np.linalg.inv(M + z * np.eye(n)) for z in shifts])
    scale = np.linalg.norm(ref, axis=(1, 2))
    T, Q = linops.schur_form(M)
    for got in (resolvent_stack(M, shifts), resolvent_stack(M, shifts, (T, Q)),
                Q @ linops.triangular_resolvents(T, shifts) @ Q.conj().T):
        assert got.shape == (count, n, n) and got.dtype == np.complex128
        assert np.max(np.linalg.norm(got - ref, axis=(1, 2)) / scale) <= 1e-13
    X = linops.triangular_resolvents(T, shifts)
    assert np.all(np.tril(X, -1) == 0.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 20),
       kind=st.sampled_from(["jordan", "convection-diffusion"]), data=st.data())
def test_shift_on_an_eigenvalue_is_named(seed, count, kind, data):
    n = data.draw(st.integers(1, 8))
    M = (2.0 * np.eye(n) + np.eye(n, k=1)) if kind == "jordan" else _convection_diffusion(n)
    A = MatrixOperator(M)
    T, Q = A.schur_form()
    # the eigenvalues as the Schur form stores them; every regular shift
    # keeps |arg z| <= pi/2 from the positive real spectrum
    d = np.diagonal(T)
    shifts = list(_regular_shifts(np.random.default_rng(seed), count))
    for j in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
        shifts.insert(data.draw(st.integers(0, len(shifts))), -d[j])
    shifts = np.array(shifts)
    first = complex(shifts[np.argmax(np.isin(shifts, -d))])
    for resolve in (lambda: resolvent_stack(M, shifts),
                    lambda: resolvent_stack(M, shifts, A.schur_form()),
                    lambda: linops.triangular_resolvents(T, shifts)):
        with pytest.raises(SingularShift) as exc:
            resolve()
        assert exc.value.shift == first


def test_triangular_resolvents_edge_shapes():
    T = np.triu(np.arange(1.0, 10.0).reshape(3, 3))
    assert linops.triangular_resolvents(T, []).shape == (0, 3, 3)
    X = linops.triangular_resolvents([[2.0]], [1.0, 1j])
    np.testing.assert_array_equal(X[:, 0, 0], [1.0 / 3.0, 1.0 / (2.0 + 1j)])
    with pytest.raises(SingularShift) as exc:
        linops.triangular_resolvents(T, [1.0, -5.0, -1.0])
    assert exc.value.shift == -5.0


def test_schur_form_is_lazy_and_taken_once(monkeypatch):
    calls = []
    schur_form = linops.schur_form
    monkeypatch.setattr(linops, "schur_form", lambda M: calls.append(1) or schur_form(M))
    A = MatrixOperator(_convection_diffusion(16))
    certify_sector(A, 0.9 * np.pi)
    extended_sector_check(A, A.certified)
    assert A.normal_basis() is None
    # certification alone never pays for a Schur form
    assert calls == []
    complex_power(A, -0.5)
    complex_power(A, -0.75 + 0.5j)
    hinf_apply(builtin_symbols(np.pi / 2)["cayley-squared"], A)
    ImaginaryPowerFamily(A, t_max=2.0)
    decay_probe(A, 0.5, 0.2, 0.5 * np.pi, np.ones(16))
    assert calls == [1]
    # a normal operator resolves on its eigenvalues and never caches one
    B = MatrixOperator(np.diag([1.0, 2.0, 5.0]))
    certify_sector(B, 0.9 * np.pi)
    complex_power(B, -0.5)
    bip_fit(B)
    assert B.normal_basis() is not None and calls == [1]

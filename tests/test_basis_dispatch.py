"""Which basis ``linops.normal_basis`` takes: a diagonal matrix is its own
eigenbasis, an exactly Hermitian one is decomposed by ``eigh``, and every
other matrix keeps the commutator test and the Schur form.  The Hermitian
path is checked against the Schur path on the same operators."""

import numpy as np
import pytest

from sectorsum import (
    MatrixOperator,
    certify_sector,
    complex_power,
    generate,
    linops,
    maxreg_constant,
)
from sectorsum.maxreg import TimeGrid


def _schur_path(M):
    """The normal basis read off the complex Schur form, the path every
    matrix took before the diagonal and Hermitian dispatch."""
    T, Q = linops.schur_form(M)
    assert np.linalg.norm(np.triu(T, 1)) <= linops.departure_tolerance(linops.as_matrix(M))
    return np.diagonal(T).copy(), Q


def _random_hermitian(n, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = X @ X.conj().T + n * np.eye(n)
    return (H + H.conj().T) / 2  # Hermitian bit for bit


def _random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_diagonal_matrix_is_its_own_basis(schur_calls):
    M = np.diag([3.0, 1.0 + 2.0j, 1.0 + 2.0j, -0.5j, 0.0])
    d, Q = linops.normal_basis(M)
    assert np.array_equal(d, np.diagonal(M)) and np.array_equal(Q, np.eye(5))
    assert schur_calls == []


@pytest.mark.parametrize("M", [generate("laplacian-1d", m=16).matrix, _random_hermitian(12)],
                         ids=["laplacian", "random"])
def test_exactly_hermitian_matrix_never_takes_a_schur_form(M, schur_calls):
    d, Q = linops.normal_basis(M)
    assert not d.imag.any()
    assert np.linalg.norm((Q * d) @ Q.conj().T - M) <= 1e-13 * np.linalg.norm(M)
    A = MatrixOperator(M)
    certify_sector(A, 0.9 * np.pi)
    complex_power(A, -0.5)
    assert A.normal_basis() is not None and schur_calls == []


def test_hermitian_to_rounding_takes_the_schur_path(schur_calls):
    Q = _random_unitary(6, seed=11)
    M = (Q * np.linspace(1.0, 6.0, 6)) @ Q.conj().T
    assert not np.array_equal(M, M.conj().T)
    assert linops.normal_basis(M) is not None
    assert schur_calls == [1]


def _outputs(M):
    A = MatrixOperator(M)
    certify_sector(A, 0.9 * np.pi)
    shifts = 10.0 ** np.linspace(-2, 5, 15) * np.exp(1j * np.linspace(-2.5, 2.5, 15))
    report = maxreg_constant(A, TimeGrid(1.0, 64))
    return {"resolvent_norms": linops.resolvent_norms(M, shifts, A.normal_basis()),
            "power": complex_power(A, -0.5),
            "maxreg": np.array([report.constant_fprime, report.constant_Af])}


@pytest.mark.parametrize("M", [generate("laplacian-1d", m=m).matrix for m in (8, 48, 160)]
                         + [_random_hermitian(24)],
                         ids=["laplacian-8", "laplacian-48", "laplacian-160", "random"])
def test_hermitian_path_matches_the_schur_path(M, monkeypatch):
    # The two bases differ by the rounding of their eigenvalues, a few
    # eps ||A|| each.  A resolvent norm 1/dist and A^{-1/2} magnify that
    # by ||A|| ||(A + z)^{-1}|| and ||A|| ||A^{-1}||, so those two are
    # compared in units of that condition number: on the Laplacian at
    # m = 160 the Schur eigenvalues sit 7.6e-15 ||A|| from the exact
    # spectrum (eigh's 4e-16 ||A||), 2.5e-12 apart in plain relative terms.
    fast = _outputs(M)
    monkeypatch.setattr(linops, "normal_basis", _schur_path)
    ref = _outputs(M)
    norm_A = linops.operator_norm(M)
    cond = {"resolvent_norms": norm_A * ref["resolvent_norms"],
            "power": norm_A * linops.operator_norm(np.linalg.inv(M)),
            "maxreg": 1.0}
    for key, want in ref.items():
        gap = np.abs(fast[key] - want) if want.ndim == 1 else linops.operator_norm(fast[key] - want)
        scale = np.abs(want) if want.ndim == 1 else linops.operator_norm(want)
        assert np.all(gap <= 1e-12 * cond[key] * scale), key

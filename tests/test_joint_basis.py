"""The joint basis of a commuting pair: every pair integral reduced in
it (diagonal for a normal pair, triangular otherwise) against the same
integral with each member resolved in its own basis, the path a pair
without a joint basis takes."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sectorsum import (  # noqa: E402
    CommutingPair,
    eadic_middle_eval,
    generate,
    linops,
    split_integral_eval,
    sum_inverse,
    weighted_identity_left,
    weighted_identity_right,
)
from sectorsum.linops import operator_norm  # noqa: E402
from sectorsum.sums import JOINT_SLACK, JOINT_WEIGHT  # noqa: E402
from conftest import certified  # noqa: E402


def _rel(got, want):
    return operator_norm(got - want) / operator_norm(want)


def _two_basis(fn, *args, **kwargs):
    """fn(*args) with every pair resolved member by member, each in its
    own basis (the path a pair without a joint basis takes)."""
    with mock.patch.object(CommutingPair, "joint_basis", return_value=None):
        return fn(*args, **kwargs)


def _pair_outputs(pair):
    """K, both weighted identities (both sides), the split pieces of both
    variants and the e-adic middle annulus."""
    w = -0.45 + 0.35j
    out = {"K": [sum_inverse(pair)]}
    out["left"] = list(weighted_identity_left(pair, w)[:2])
    out["right"] = list(weighted_identity_right(pair, w)[:2])
    for variant in ("left", "right"):
        out["split-" + variant] = list(split_integral_eval(pair, 0.25, 0.2, 0.3, 2, variant=variant))
    out["eadic"] = [eadic_middle_eval(pair, 0.25, 0.2, 0.3, 2)]
    return out


def _assert_matches_two_basis(pair, rtol=1e-12):
    got, want = _pair_outputs(pair), _two_basis(_pair_outputs, pair)
    for key, values in want.items():
        scale = max(operator_norm(v) for v in values)
        for g, v in zip(got[key], values):
            assert operator_norm(g - v) <= rtol * scale, key


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 6),
       gap=st.sampled_from([1e-9, 1e-6, 1e-3, 5e-3]), psi=st.floats(-0.3, 0.3))
def test_normal_pair_joint_basis_matches_two_bases(seed, n, gap, psi):
    # A repeats its first eigenvalue and ends in a cluster of width gap;
    # B is rotated by psi
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    Q = q * (np.diag(r) / np.abs(np.diag(r)))
    da = rng.uniform(1.0, 8.0, n)
    da[1], da[-1] = da[0], da[-2] + gap
    db = np.exp(1j * psi) * rng.uniform(0.5, 3.0, n)
    pair = CommutingPair(certified((Q * da) @ Q.conj().T, 0.9 * np.pi),
                         certified((Q * db) @ Q.conj().T, 0.9 * np.pi - abs(psi)))
    assert pair.joint_basis()[0].ndim == 1
    _assert_matches_two_basis(pair)


@pytest.fixture(scope="module")
def jordan_pair():
    return CommutingPair(certified([[2.0, 1.0], [0.0, 2.0]], 0.75 * np.pi),
                         certified([[3.0, 1.0], [0.0, 3.0]], 0.75 * np.pi))


@pytest.mark.parametrize("name", ["jordan_pair", "dense_pair"])
def test_nonnormal_pair_triangular_basis_matches_two_bases(name, request):
    pair = request.getfixturevalue(name)
    Ta, Tb, Q = pair.joint_basis()
    assert Ta.ndim == 2 and not np.tril(Ta, -1).any() and not np.tril(Tb, -1).any()
    _assert_matches_two_basis(pair)


def test_normal_pair_integrals_resolve_no_matrix(monkeypatch):
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    pair = CommutingPair(certified((q * np.arange(1.0, 6.0)) @ q.conj().T, 0.9 * np.pi),
                         certified((q * np.linspace(0.5, 3.0, 5)) @ q.conj().T, 0.9 * np.pi))

    def forbidden(*args, **kwargs):
        raise AssertionError("a normal pair formed a matrix resolvent stack")

    monkeypatch.setattr(linops, "resolvents", forbidden)
    monkeypatch.setattr(linops, "triangular_resolvents", forbidden)
    outputs = _pair_outputs(pair)
    K = outputs["K"][0]
    assert _rel(K, np.linalg.inv(pair.A.matrix + pair.B.matrix)) <= 1e-6


def test_loosely_commuting_pair_keeps_two_bases():
    # commutes to 1e-14, inside COMMUTE_TOLERANCE, but its lower triangles
    # in the Schur basis of A + gamma B are well above rounding
    pair = CommutingPair(certified(np.diag([1.0, 2.0, 2.5]), 0.9 * np.pi),
                         certified(np.diag([3.0, 4.0, 5.0]) + 1e-12 * np.ones((3, 3)), 0.9 * np.pi))
    assert pair.commute_residual < 1e-13
    assert pair.joint_basis() is None
    with mock.patch.object(linops, "resolvents", wraps=linops.resolvents) as spy:
        K = sum_inverse(pair)
    assert spy.called
    assert np.array_equal(K, _two_basis(sum_inverse, pair))
    assert _rel(K, np.linalg.inv(pair.A.matrix + pair.B.matrix)) <= 1e-6



@pytest.fixture
def schur_args(monkeypatch):
    """The matrices linops.schur_form is called on, from here on."""
    args = []
    schur_form = linops.schur_form
    monkeypatch.setattr(linops, "schur_form", lambda M: args.append(M) or schur_form(M))
    return args


def test_hermitian_and_scalar_pair_takes_the_member_basis(schur_args):
    # the Laplacian's eigh basis diagonalises B = c I too: no Schur form
    m = 8
    pair = CommutingPair(certified(generate("laplacian-1d", m=m).matrix, 0.9 * np.pi),
                         certified(2.0 * np.exp(1j * np.pi / 3) * np.eye(m), 0.6 * np.pi))
    a, b, Q = pair.joint_basis()
    assert Q is pair.A.normal_basis()[1] and b.ndim == 1
    _assert_matches_two_basis(pair)
    assert schur_args == []


def test_repeated_eigenvalues_fall_back_to_the_schur_joint_basis(schur_args):
    # A = L (+) L repeats every eigenvalue and B = 10 [[2, 1], [1, 2]] (x) I
    # repeats each of its two: neither member's eigh basis diagonalises the
    # other, and the Schur vectors of A + gamma B (distinct eigenvalues) do
    L = generate("laplacian-1d", m=4).matrix
    A = np.kron(np.eye(2), L)
    B = 10.0 * np.kron(np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(4))
    pair = CommutingPair(certified(A, 0.9 * np.pi), certified(B, 0.9 * np.pi))
    for basis, other in ((pair.A.normal_basis(), B), (pair.B.normal_basis(), A)):
        form = basis[1].conj().T @ other @ basis[1]
        assert np.linalg.norm(np.triu(form, 1)) > 1.0
    a, b, Q = pair.joint_basis()
    assert a.ndim == 1 and len(schur_args) == 1
    assert np.array_equal(schur_args[0], A + JOINT_WEIGHT * B)
    _assert_matches_two_basis(pair)


@pytest.mark.parametrize("scale, joint", [(1.0, True), (1e-3, False), (1e-6, False)])
def test_partner_norm_ratio_bounds_the_joint_basis(schur_args, scale, joint):
    # as above with B = scale [[2, 1], [1, 2]] (x) I: the Schur vectors of
    # A + gamma B carry rounding of A's size (||A|| ~ 90).  Unscaled, B's
    # form drops more than B's own departure tolerance but within the capped
    # larger one, and one joint basis serves both; at a norm ratio of 3e4 and
    # more B's form would drop hundreds of times B's own tolerance, and the
    # pair is resolved member by member
    L = generate("laplacian-1d", m=4).matrix
    A = np.kron(np.eye(2), L)
    B = scale * np.kron(np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(4))
    pair = CommutingPair(certified(A, 0.9 * np.pi), certified(B, 0.9 * np.pi))
    found = pair.joint_basis()
    assert (found is not None) == joint and len(schur_args) == 1
    if joint:
        assert found[0].ndim == 1 and found[1].ndim == 1
        tol = [linops.departure_tolerance(M) for M in (A, B)]
        for M, own in zip((A, B), tol):
            form = found[2].conj().T @ M @ found[2]
            for strict in (np.tril(form, -1), np.triu(form, 1)):
                assert np.linalg.norm(strict) <= min(max(tol), JOINT_SLACK * own)
    _assert_matches_two_basis(pair)

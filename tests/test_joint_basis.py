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
    linops,
    split_integral_eval,
    sum_inverse,
    weighted_identity_left,
    weighted_identity_right,
)
from sectorsum.linops import operator_norm  # noqa: E402
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


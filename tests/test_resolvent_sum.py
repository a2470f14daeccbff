"""The weighted reduction behind every contour sum (contour._resolvent_sum),
against a per-node loop over dense inverses, and the nodes it resolves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sectorsum import (CommutingPair, build_nodes, builtin_symbols, calculus, complex_power, linops,
                       sum_inverse, sums)
from sectorsum.calculus import hinf_contour, power_contour
from sectorsum.sums import inverse_contour, sum_contour
from conftest import certified

SYMBOLS = sorted(builtin_symbols(np.pi / 2))


def _laplacian(m):
    return (m + 1) ** 2 * (2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))


def _convection_diffusion(m):
    """L + 20 D1: real, non-normal, with complex eigenvalues at m = 4."""
    return _laplacian(m) + 20.0 * (m + 1) / 2.0 * (np.eye(m, k=1) - np.eye(m, k=-1))


def _orthogonal(rng, n, real):
    G = rng.standard_normal((n, n))
    if not real:
        G = G + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(G)[0]


def _operator(kind, n, seed):
    """(matrix, certification angle) of one of the drawn operator kinds."""
    if kind == "convection-diffusion-4":
        return _convection_diffusion(4), 0.6 * np.pi
    rng = np.random.default_rng(seed)
    real = kind.startswith("real")
    radii = np.geomspace(1.0, 20.0, n) * rng.uniform(0.8, 1.25, n)
    eig = radii if real else radii * np.exp(1j * rng.uniform(-0.3, 0.3, n))
    Q = _orthogonal(rng, n, real)
    T = np.diag(eig)
    if kind.endswith("non-normal"):
        upper = rng.standard_normal((n, n))
        if not real:
            upper = upper + 1j * rng.standard_normal((n, n))
        T = T + 2.0 * np.triu(upper, 1)
    return Q @ T @ Q.conj().T, 0.7 * np.pi


def _reference(spec, g, resolvent, decay_exponent):
    """The contour sum, its tail estimate and its node count from a loop
    over every node with a dense resolvent there: ||g R|| |lambda| at the
    two outermost nodes of each ray end, extrapolated as dunford states."""
    lam, w = build_nodes(spec)
    value, ends = 0.0, {}
    n_arc, m = spec.n_arc, (len(lam) - spec.n_arc) // 2
    probes = {n_arc, n_arc + 1, n_arc + 2, n_arc + 3, len(lam) - 4, len(lam) - 3,
              len(lam) - 2, len(lam) - 1}
    for k, (l, wk) in enumerate(zip(lam, w)):
        R = resolvent(l)
        value = value + wk * g(np.array([l]))[0] * R
        if k in probes:
            ends[k] = abs(g(np.array([l]))[0]) * np.linalg.norm(R, 2) * abs(l)
    tail = 0.0
    for ray in (0, 1):
        g0, g1 = ends[n_arc + ray], ends[n_arc + 2 + ray]
        if spec.rho > 0:   # log(r_in / rho), from the map at u_lo to keep its digits
            tail += g0 * math.log1p(math.exp(spec.c + math.sinh(spec.u_lo)))
        elif g0 > 0:
            eta_0 = math.log(g1 / g0) / math.log(abs(lam[n_arc + 2 + ray]) / abs(lam[n_arc + ray]))
            tail += g0 / eta_0 if eta_0 > 0 else math.inf
        tail += ends[len(lam) - 2 + ray] / max(decay_exponent, 1e-3)
    return value, tail / (2.0 * np.pi), n_arc + 2 * m


def _assert_agrees(info, ref):
    value, tail, n_nodes = ref
    assert info.n_nodes == n_nodes
    assert np.linalg.norm(info.value - value, 2) <= 1e-13 * np.linalg.norm(value, 2)
    assert info.tail_estimate == pytest.approx(tail, rel=1e-13)


KINDS = ["real-normal", "complex-normal", "real-non-normal", "complex-non-normal",
         "convection-diffusion-4"]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(1, 8), seed=st.integers(0, 2 ** 16),
       re=st.floats(-1.6, -0.55), im=st.floats(-1.0, 1.0), symbol=st.sampled_from(SYMBOLS))
def test_symbol_integrals_match_a_per_node_dense_loop(kind, n, seed, re, im, symbol):
    M, angle = _operator(kind, n, seed)
    A = certified(M, angle)
    eye = np.eye(A.dim)
    resolvent = lambda l: np.linalg.inv(M + l * eye)  # noqa: E731
    z = complex(re, im)
    spec = power_contour(A, z)
    g = lambda lam: (-lam) ** z  # noqa: E731
    _assert_agrees(calculus._symbol_integral(A, spec, g, -re, math.inf),
                   _reference(spec, g, resolvent, -re))
    f = builtin_symbols(np.pi / 2)[symbol]
    spec = hinf_contour(f, A)
    _assert_agrees(calculus._symbol_integral(A, spec, f, f.decay_at_infinity(), math.inf),
                   _reference(spec, f, resolvent, f.decay_at_infinity()))


def _pair(kind, n, seed):
    """A commuting pair: A as drawn and B = A^2/4 + A + I, a polynomial
    in A, real when A is."""
    M, _ = _operator(kind, n, seed)
    B = 0.25 * M @ M + M + np.eye(n)
    return CommutingPair(certified(M, 0.75 * np.pi), certified(B, 0.6 * np.pi))


def _products(pair, s):
    """lam -> -(sA + lam)^{-1} (-sB + lam)^{-1}, from dense inverses."""
    Am, Bm, eye = pair.A.matrix, pair.B.matrix, np.eye(pair.dim)
    return lambda l: -np.linalg.inv(s * Am + l * eye) @ np.linalg.inv(-s * Bm + l * eye)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(KINDS[:4]), n=st.integers(1, 6), seed=st.integers(0, 2 ** 16),
       re=st.floats(-0.6, -0.25), im=st.floats(-1.0, 1.0), s=st.sampled_from([1.0, -1.0]))
def test_pair_integrals_match_a_per_node_dense_loop(kind, n, seed, re, im, s):
    pair = _pair(kind, n, seed)
    spec = inverse_contour(pair)
    ref = _reference(spec, np.ones_like, _products(pair, -1.0), 1.0)
    _assert_agrees(sums._pair_integral(pair, spec, -1.0), ref)
    K = sum_inverse(pair, spec)
    assert np.linalg.norm(K - ref[0], 2) <= 1e-13 * np.linalg.norm(ref[0], 2)
    w = complex(re, im)
    spec = sum_contour(pair, 1e-8, w, s)
    weight = lambda lam: (-lam) ** (1.0 + w)  # noqa: E731
    _assert_agrees(sums._pair_integral(pair, spec, s, w),
                   _reference(spec, weight, _products(pair, s), -re))


def _counted(monkeypatch):
    shifts = []
    resolve = linops.basis_resolvents

    def counting(basis, lam):
        shifts.append(len(lam))
        return resolve(basis, lam)

    monkeypatch.setattr(linops, "basis_resolvents", counting)
    return shifts


@pytest.mark.parametrize("M,real", [
    (_convection_diffusion(16), True),
    (_convection_diffusion(16) + 1j * np.diag(np.linspace(0.0, 1.0, 16)), False),
], ids=["real", "complex"])
def test_complex_power_resolves_one_shift_per_conjugate_pair(monkeypatch, M, real):
    # a real A has (A + conj(lambda))^{-1} = conj((A + lambda)^{-1}), so the
    # lower ray is read off the upper one: n_arc shifts plus one per node
    # of the ray rule; a complex A resolves every node
    A = certified(M, 0.9 * np.pi)
    assert A.normal_basis() is None
    spec = power_contour(A, -0.8 + 0.3j)
    n_rule = (len(build_nodes(spec)[0]) - spec.n_arc) // 2
    shifts = _counted(monkeypatch)
    _, info = complex_power(A, -0.8 + 0.3j, spec=spec, with_info=True)
    assert info.n_nodes == spec.n_arc + 2 * n_rule
    assert sum(shifts) == spec.n_arc + n_rule * (1 if real else 2)

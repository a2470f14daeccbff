"""The weighted reduction behind every contour sum (contour._resolvent_sum),
against a per-node loop over dense inverses, and the nodes it resolves."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from sectorsum import (CommutingPair, build_nodes, builtin_symbols, calculus, complex_power, contour,
                       linops, sum_inverse, sums)
from sectorsum.calculus import hinf_contour, power_contour
from sectorsum.errors import TruncationNotConverged
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
    _assert_agrees(sums._pair_integral(pair, spec, -1.0, None, math.inf), ref)
    K = sum_inverse(pair, spec)
    assert np.linalg.norm(K - ref[0], 2) <= 1e-13 * np.linalg.norm(ref[0], 2)
    w = complex(re, im)
    spec = sum_contour(pair, 1e-8, w, s)
    weight = lambda lam: (-lam) ** (1.0 + w)  # noqa: E731
    _assert_agrees(sums._pair_integral(pair, spec, s, w, math.inf),
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


def _counted_norms(monkeypatch):
    """One entry per end node whose norm a contour sum takes."""
    taken = []
    node_norms = contour._node_norms

    def counting(R):
        taken.append(len(R))
        return node_norms(R)

    monkeypatch.setattr(contour, "_node_norms", counting)
    return taken


@pytest.mark.parametrize("M,power,hinf", [
    (_convection_diffusion(16), 2, 3),
    (_convection_diffusion(16) + 1j * np.diag(np.linspace(0.0, 1.0, 16)), 4, 6),
], ids=["real", "complex"])
def test_norms_are_taken_only_at_the_end_nodes_the_estimate_reads(monkeypatch, M, power, hinf):
    # the tail estimate reads the inner end node of each ray, the next one
    # only on rays from the origin (hinf_apply's rho = 0), and the outer
    # end node; a real A reads both rays' norms off the upper ray's
    # resolvent, so complex_power's arc path takes 2 SVDs and hinf_apply's
    # 3, where a complex A takes one per node of each ray
    A = certified(M, 0.9 * np.pi)
    assert A.normal_basis() is None
    taken = _counted_norms(monkeypatch)
    complex_power(A, -0.8 + 0.3j)
    assert sum(taken) == power
    taken.clear()
    calculus.hinf_apply(builtin_symbols(np.pi / 2)["rational-eta"], A)
    assert sum(taken) == hinf


def _recorded_cases():
    def op(M, angle):
        return certified(np.asarray(M, dtype=complex), angle)

    N = np.array([[1.0, 0.3], [0.0, 2.0]])
    triangular = CommutingPair(op(N, 0.85 * np.pi), op(N @ N + np.eye(2), 0.85 * np.pi))
    diagonal = CommutingPair(op(np.diag([1.0, 2.0]), 0.9 * np.pi),
                             op(np.diag([3.0, 4.0]), 0.9 * np.pi))
    normal = op([[2.0, 1.0], [1.0, 3.0]], 0.9 * np.pi)
    schur = op([[1.0, 1.0], [0.0, 2.0]], 0.9 * np.pi)
    w = -0.4 + 0.3j
    return {
        "normal-power": (normal, lambda: complex_power(normal, -0.6 + 0.4j, with_info=True)[1]),
        "schur-hinf": (schur, lambda: calculus.hinf_apply(
            builtin_symbols(np.pi / 2)["rational-eta"], schur, with_info=True)[1]),
        "diagonal-pair": (diagonal, lambda: sums._pair_integral(
            diagonal, sum_contour(diagonal, 1e-8, w, 1.0), 1.0, w, math.inf)),
        "triangular-pair": (triangular, lambda: sums._pair_integral(
            triangular, inverse_contour(triangular), -1.0, None, math.inf)),
    }


# value (real and imaginary parts, row by row), tail estimate and node
# count of each case, as float.hex, from the contour sums before they took
# norms only at the end nodes read (x86-64, OpenBLAS, numpy 2.4)
RECORDED = {
    "normal-power": (['0x1.6786cc5eda43ap-1', '0x1.1e3d2c48b79dfp-3', '-0x1.7b603a1287c8ap-3',
                      '0x1.bbe774e350e20p-5', '-0x1.7b603a1287c89p-3', '0x1.bbe774e350e20p-5',
                      '0x1.08aebdda38517p-1', '0x1.8d3709818bd67p-3'],
                     '0x1.7a954a9e7c799p-38', 102),
    "schur-hinf": (['0x1.ffffffffffcd8p-2', '0x0.0p+0', '-0x1.d482220104c99p-6', '0x0.0p+0',
                    '0x0.0p+0', '0x0.0p+0', '0x1.e2b7dddfef80ep-2', '0x0.0p+0'],
                   '0x1.cc773027009bfp-38', 74),
    "diagonal-pair": (['0x1.000000000663fp-2', '-0x1.3e50000000000p-40', '0x0.0p+0', '0x0.0p+0',
                       '0x0.0p+0', '0x0.0p+0', '0x1.fa381e6e11660p-3', '0x1.ab3cb5fdaef1cp-5'],
                      '0x1.ff1517bf2950cp-37', 230),
    "triangular-pair": (['0x1.5555555552fd8p-2', '0x0.0p+0', '-0x1.d41d41d41ec79p-5', '0x0.0p+0',
                         '0x0.0p+0', '0x0.0p+0', '0x1.249249248c546p-3', '0x0.0p+0'],
                        '0x1.3a7542ae6a181p-38', 172),
}


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_contour_sums_keep_their_recorded_bits(case):
    # a normal and a Schur basis, a diagonal and a triangular joint basis
    owner, run = _recorded_cases()[case]
    basis = owner.joint_basis() if isinstance(owner, CommutingPair) else owner.resolvent_basis()
    assert basis[0].ndim == (1 if case.split("-")[0] in ("normal", "diagonal") else 2)
    info = run()
    parts, tail, n_nodes = RECORDED[case]
    assert [x.hex() for x in info.value.reshape(-1).view(float).tolist()] == parts
    assert info.tail_estimate.hex() == tail and info.n_nodes == n_nodes


# ------------------------------------------------------ the one tail gate


def _slow_power(z):
    """(A, A^z's default contour, the oracle A^z) at A = diag(1, 2): a
    decay of |Re z| at infinity cuts the rays at the ray rule's last
    finite radius, e^354, once |Re z| is small."""
    A = certified(np.diag([1.0, 2.0]), 0.9 * np.pi)
    return A, power_contour(A, z), np.diag([1.0, 2.0 ** z])


def test_a_tail_the_two_rays_cancel_passes_the_gate():
    # at z = -0.05 the rays' outer ends read 1.3e-7 apart; past the cut
    # their leading terms (-lambda)^z differ by the phases e^{-+i (pi -
    # theta) z}, and read summed they leave 1e-8, within tol_tail
    A, spec, oracle = _slow_power(-0.05)
    tol = 2e-8
    assert complex_power(A, -0.05, spec=spec, tol=math.inf, with_info=True)[1].tail_estimate > tol
    value, info = complex_power(A, -0.05, spec=spec, tol=tol, with_info=True)
    assert info.tail_estimate <= tol
    assert np.linalg.norm(value - oracle, 2) <= tol


def test_a_tail_past_both_readings_raises_naming_the_decay():
    # at z = -0.01 the rays leave out 0.9 apart and 0.014 summed
    A, spec, _ = _slow_power(-0.01)
    with pytest.raises(TruncationNotConverged,
                       match=r"^tail estimate .* with the rays' outer ends summed.* "
                             r"decay exponent 0.01 at infinity; pass a finer ray rule"):
        complex_power(A, -0.01, spec=spec, tol=1e-3)


def test_a_two_power_integrand_that_cancels_at_the_cut_still_raises():
    # lam F = lam ((-lam)^-0.3 - (-lam)^-0.6) / (1 + lam) takes conjugate
    # values on the two rays, and its imaginary part, half their
    # difference, changes sign at r*: rays cut there leave out 0.16, and
    # their outer ends alone, summed, read 3e-14.  The node before the cut
    # still sees the difference, so the gate raises.
    def F(lam):
        return ((-lam) ** -0.3 - (-lam) ** -0.6) / (1.0 + lam)

    def im(s):
        lam = np.exp(s + 0.5j * np.pi)
        return (lam * F(lam)).imag

    lo, hi = 0.0, 1.5          # log r* lies between, where im changes sign
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if im(lo) * im(mid) > 0 else (lo, mid)
    rule = dict(rho=0.0, theta=0.5 * np.pi, n_arc=0, h=0.02, u_lo=math.asinh(-80.0))
    cut = contour.ContourSpec(u_hi=math.asinh(hi), **rule)
    lam = build_nodes(cut)[0][-2:]
    assert abs(lam[0] * F(lam[0]) - lam[1] * F(lam[1])) < 1e-12
    left_out = contour.dunford(cut, F, 0.3).value - contour.dunford(
        contour.ContourSpec(u_hi=math.asinh(700.0), **rule), F, 0.3).value
    assert abs(left_out) > 0.1
    with pytest.raises(TruncationNotConverged, match=r"^tail estimate .*decay exponent 0.3 "):
        contour.dunford(cut, F, 0.3, tol_tail=1e-3)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(1, 6), seed=st.integers(0, 2 ** 16),
       re=st.floats(-1.2, -0.01), im=st.floats(-1.0, 1.0),
       cut=st.just(1.0) | st.floats(0.5, 1.0), share=st.floats(0.0, 1.0))
def test_every_gated_result_is_within_its_tol(kind, n, seed, re, im, cut, share):
    # a slow decay, or the rays cut short, gated at a tol_tail from the
    # summed reading to twice the first: the result carries a tail
    # estimate within tol_tail, and where the rays are cut past 2 ||A||
    # (inside it, where F has not yet reached its decay, both readings
    # may fall short) it is within tol_tail of A^z, up to the quadrature
    # error of the contour, fitted at 1e-9
    M, angle = _operator(kind, n, seed)
    A = certified(M, angle)
    z = complex(re, im)
    spec = power_contour(A, z)
    spec = replace(spec, u_hi=spec.u_lo + cut * (spec.u_hi - spec.u_lo))
    first = complex_power(A, z, spec=spec, tol=math.inf, with_info=True)[1].tail_estimate
    assume(0.0 < first < math.inf)
    try:
        summed = complex_power(A, z, spec=spec, tol=first * (1.0 - 1e-9),
                               with_info=True)[1].tail_estimate
    except TruncationNotConverged:
        summed = first
    tol = summed * (2.0 * first / summed) ** share
    value, info = complex_power(A, z, spec=spec, tol=tol, with_info=True)
    assert info.tail_estimate <= tol
    if abs(build_nodes(spec)[0][-1]) >= 2.0 * np.linalg.norm(M, 2):
        oracle = scipy.linalg.expm(z * scipy.linalg.logm(M))
        err = np.linalg.norm(value - oracle, 2)
        assert err <= tol + 1e-9 * max(1.0, np.linalg.norm(oracle, 2))

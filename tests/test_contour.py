import cmath
import importlib
import importlib.util
import math
import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.special import sici

from sectorsum import ContourSpec, build_nodes, contour, dunford, linops, pv_integral
from sectorsum.contour import fit_contour, gauss_panels
from sectorsum.errors import AsymmetryDetected, InvalidContour, TruncationNotConverged


def test_invalid_contours():
    with pytest.raises(InvalidContour):
        ContourSpec(rho=0.0, theta=np.pi / 4, n_arc=8)  # arc without rho
    with pytest.raises(InvalidContour):
        ContourSpec(rho=-1.0, theta=np.pi / 4, n_arc=8)  # negative rho
    with pytest.raises(InvalidContour):
        ContourSpec(rho=0.1, theta=0.0, n_arc=8)  # theta out of range
    with pytest.raises(InvalidContour):
        ContourSpec(rho=0.1, theta=np.pi / 4, n_arc=8, h=0.0)  # no step
    with pytest.raises(InvalidContour):
        ContourSpec(rho=0.1, theta=np.pi / 4, n_arc=8, u_lo=1.0, u_hi=1.0)


def test_rays_only_when_rho_zero():
    spec = ContourSpec(rho=0.0, theta=np.pi / 4, n_arc=0)
    lam, _ = build_nodes(spec)
    assert np.allclose(np.abs(np.abs(np.angle(lam))) - np.pi / 4, 0.0, atol=1e-14)


def test_nodes_lie_on_path():
    spec = ContourSpec(rho=0.3, theta=2 * np.pi / 3, n_arc=12)
    lam, _ = build_nodes(spec)
    on_ray = np.abs(np.abs(np.angle(lam)) - spec.theta) < 1e-14
    on_arc = np.abs(np.abs(lam) - spec.rho) < 1e-14 * spec.rho
    assert np.all(on_ray | on_arc)


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.05, 3.09), rho=st.sampled_from([0.0, 1e-3, 0.4, 7.0]),
       n_arc=st.sampled_from([0, 4, 17, 40]), c=st.floats(-5.0, 5.0), h=st.floats(0.02, 1.0),
       u_lo=st.floats(-6.0, 0.0), width=st.floats(0.1, 8.0))
def test_build_nodes_lie_on_the_path(theta, rho, n_arc, c, h, u_lo, width):
    spec = ContourSpec(rho=rho, theta=theta, n_arc=n_arc if rho else 0,
                       c=c, h=h, u_lo=u_lo, u_hi=u_lo + width)
    lam, _ = build_nodes(spec)
    arc, ray = lam[:spec.n_arc], lam[spec.n_arc:]
    assert np.allclose(np.abs(arc), rho, rtol=1e-13, atol=0.0)
    assert np.all(np.abs(np.angle(arc)) >= theta - 1e-12)
    assert len(ray) >= 6
    assert np.allclose(np.angle(ray[0::2]), theta, rtol=0.0, atol=1e-12)
    assert np.allclose(np.angle(ray[1::2]), -theta, rtol=0.0, atol=1e-12)
    r = np.abs(ray)
    assert np.all(r >= rho * (1.0 - 1e-13))
    assert np.all(np.diff(r[0::2]) >= 0.0)


def _scalar(f):
    return lambda lam: f(lam)[:, None, None]


def test_residue_oracle_closed_curve():
    # residue theorem oracle: the enclosed simple pole at lam = -2, with a
    # decay weight normalized so the residue is exactly 1.  (A bare
    # (lam - z0)^{-1} decays too slowly: its truncated-contour value picks
    # up a closing-arc term, so the engine requires |lam|^{-1-eta} decay.)
    spec = fit_contour(np.pi / 2, [-2.0], (0.5, 0.5), 2.0, 1e-10, rho=0.5, n_arc=16)
    res = dunford(spec, _scalar(lambda lam: np.sqrt(2.0) * (-lam) ** -0.5 / (lam + 2.0)),
                  decay_exponent=0.5)
    assert abs(res.value[0, 0] - 1.0) < 1e-9


def test_dunford_power_examples():
    # (-lam)^{-1/2} (4 + lam)^{-1} integrates to 4^{-1/2} = 0.5, and
    # (-lam)^{-1} (2 + lam)^{-1} to 1/2, on rules fitted to the pole and
    # to the |lam|^{-1/2} and |lam|^{-1} decay of lam times the integrand
    spec = fit_contour(0.75 * np.pi, [-4.0], (0.5, 0.5), 2.0, 1e-10, rho=0.1, n_arc=20)
    res = dunford(spec, _scalar(lambda lam: (-lam) ** -0.5 / (4.0 + lam)), 0.5, tol_tail=1e-10)
    assert abs(res.value[0, 0] - 0.5) < 1e-8
    spec2 = fit_contour(0.75 * np.pi, [-2.0], (0.0, 1.0), 2.0, 1e-10, rho=0.1, n_arc=20)
    res2 = dunford(spec2, _scalar(lambda lam: (-lam) ** -1.0 / (2.0 + lam)), 1.0, tol_tail=1e-10)
    assert abs(res2.value[0, 0] - 0.5) < 1e-8


def _diag13_integrand(lam):
    A, eye = np.diag([1.0, 3.0]), np.eye(2)
    return ((-lam) ** -0.5)[:, None, None] * np.linalg.inv(A + lam[:, None, None] * eye)


def test_dunford_convergence_order():
    # the trapezoid error is about e^{-2 pi d / h}: halving the step
    # squares it, far beyond the 2^4 of a fourth-order rule
    exact = np.diag([1.0, 3.0 ** -0.5])
    spec = fit_contour(0.7 * np.pi, [-1.0, -3.0], (0.5, 0.5), 2.0, 1e-4, rho=0.2, n_arc=40)
    spec = replace(spec, u_lo=spec.u_lo - 1.0, u_hi=spec.u_hi + 3.0)
    errs = [np.linalg.norm(dunford(replace(spec, h=h), _diag13_integrand, 0.5).value - exact, 2)
            for h in (spec.h, spec.h / 2)]
    assert errs[1] <= max(1e3 * errs[0] ** 2, 1e-13) and errs[0] / errs[1] >= 1e3


def test_dunford_tail_error_flag():
    spec = fit_contour(0.75 * np.pi, [-4.0], (0.5, 0.5), 2.0, 1e-10, rho=0.1, n_arc=16)
    with pytest.raises(TruncationNotConverged, match="^tail estimate"):
        dunford(replace(spec, u_hi=1.0), _scalar(lambda lam: (-lam) ** -0.5 / (4.0 + lam)),
                decay_exponent=0.5, tol_tail=1e-10)


def test_path_shift_invariance():
    # holomorphic between the base path and the narrower one with the
    # wider arc (both poles stay outside the arc), so both quadratures agree
    exact = np.diag([1.0, 3.0 ** -0.5])
    a, b = (dunford(fit_contour(theta, [-1.0, -3.0], (0.5, 0.5), 2.0, 1e-10,
                                rho=rho, n_arc=24), _diag13_integrand, 0.5).value
            for theta, rho in ((0.7 * np.pi, 0.25), (0.6 * np.pi, 0.5)))
    assert np.linalg.norm(a - b, 2) < 2e-8
    assert np.linalg.norm(a - exact, 2) < 1e-8


def _ray_ends(spec):
    """(radius, log-radius length left inside it down to rho, inf from
    the origin) of the inner end node of the rays, and the radius of the
    outer one, from the nodes alone."""
    lam = build_nodes(spec)[0][spec.n_arc:]
    r_in, r_out = np.abs(lam[0]), np.abs(lam[-1])
    rest_in = np.log(r_in / spec.rho) if spec.rho else math.inf
    return (r_in, rest_in), r_out


def _reference_dunford(spec, integrand, decay_exponent):
    """Per-node loop: the weighted sum, and at each of the four ray ends
    ||F|| |lambda| (spectral norm) times the log-radius window left
    beyond the end node (rho > 0: 1/eta beyond the outer end)."""
    lam, w = build_nodes(spec)
    (_, rest_in), _ = _ray_ends(spec)
    acc, g = 0.0, []
    for l, wk in zip(lam, w):
        value = integrand(np.array([l]))[0]
        acc = acc + wk * value
        g.append(np.linalg.norm(value, 2) * abs(l))
    ends = np.array(g[spec.n_arc:spec.n_arc + 2] + g[-2:])
    return acc, (ends[:2].sum() * rest_in + ends[2:].sum() / decay_exponent) / (2 * np.pi)


def test_dunford_chunks_match_per_node_loop(monkeypatch):
    A = np.array([[1.0, 2.0], [0.0, 3.0]])
    eye = np.eye(2)
    sizes = []

    def integrand(lam):
        sizes.append(len(lam))
        return ((-lam) ** -0.5)[:, None, None] * np.linalg.inv(A + lam[:, None, None] * eye)

    # a budget of 7 nodes of 2x2 complex values per chunk
    monkeypatch.setattr(linops, "_SHIFT_STACK_BYTES", 7 * 64)
    spec = fit_contour(0.7 * np.pi, [-1.0, -3.0], (0.5, 0.5), 4.0, 1e-10, rho=0.2, n_arc=12)
    res = dunford(spec, integrand, 0.5)
    n = len(build_nodes(spec)[0])
    assert sizes[0] == 1 and set(sizes[1:-1]) == {7} and sum(sizes) == n == res.n_nodes
    ref, ref_tail = _reference_dunford(spec, integrand, 0.5)
    assert np.max(np.abs(res.value - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert res.tail_estimate == pytest.approx(ref_tail, rel=1e-13)


@pytest.mark.parametrize("rho", [0.0, 1.0], ids=["line", "half-line"])
def test_ray_rule_integrates_each_window(rho):
    # the upper ray's weights, rotated back to the real axis, integrate
    # 1 / (1 + r)^2 over [rho, inf) by the trapezoid rule after the map
    spec = ContourSpec(rho=rho, theta=2.0, n_arc=0, c=0.5, h=0.1, u_lo=-4.5, u_hi=4.5)
    lam, w = build_nodes(spec)
    r, wr = np.abs(lam[0::2]), (w[0::2] * 2j * np.pi * np.exp(-1j * spec.theta)).real
    assert np.all(np.diff(r) >= 0) and np.all(wr > 0)
    assert np.sum(wr / (1.0 + r) ** 2) == pytest.approx(1 / (1 + rho), rel=1e-12)


def test_dunford_tail_is_the_end_nodes_extrapolated():
    # (-lambda)^(-1-eta) has ||F|| |lambda| = r^-eta on both rays, so the
    # outer end node extrapolates to r_out^-eta / eta exactly, and the
    # inner one covers the window of log-width rest_in down to the arc
    eta = 0.4
    for u_lo, u_hi in ((-4.0, 3.0), (-3.0, 3.7), (-2.0, 2.5)):
        spec = ContourSpec(rho=0.5, theta=0.6 * np.pi, n_arc=16, c=1.0, h=0.2,
                           u_lo=u_lo, u_hi=u_hi)
        res = dunford(spec, lambda lam: (-lam) ** (-1.0 - eta), decay_exponent=eta)
        (r_in, rest_in), r_out = _ray_ends(spec)
        expected = (r_in ** -eta * rest_in + r_out ** -eta / eta) / np.pi
        assert res.tail_estimate == pytest.approx(expected, rel=1e-12)
    # toward the origin the decay is the one measured at the two innermost
    # nodes: r^beta there, with a tail beyond the inner end of r_in^beta / beta
    beta = 0.7
    spec = ContourSpec(rho=0.0, theta=0.6 * np.pi, n_arc=0, c=0.0, h=0.15, u_lo=-3.5, u_hi=3.5)
    res = dunford(spec, lambda lam: (-lam) ** (beta - 1.0) / (1.0 + (-lam) ** (beta + eta)),
                  decay_exponent=eta)
    (r_in, _), r_out = _ray_ends(spec)
    g_out = r_out ** beta / (1.0 + r_out ** (beta + eta))
    expected = (r_in ** beta / beta + g_out / eta) / np.pi
    assert res.tail_estimate == pytest.approx(expected, rel=1e-6)


def test_fit_contour_step_follows_the_nearest_pole():
    # one pole at lam = -2 seen from rays phi off the negative axis: on
    # the line form centred on it, u = asinh(i phi) and d = asin(phi)
    for phi in (0.2, 0.5, 0.8):
        spec = fit_contour(np.pi - phi, [-2.0], (1.0, 1.0), 1.0, 1e-9)
        assert spec.c == pytest.approx(np.log(2.0), rel=1e-14)
        assert spec.h == pytest.approx(2 * np.pi * np.arcsin(phi) / np.log(16e9), rel=1e-12)
    # a pole on a ray leaves no strip
    with pytest.raises(InvalidContour, match="no strip of analyticity"):
        fit_contour(0.75 * np.pi, [-4.0 * np.exp(0.25j * np.pi)], (1.0, 1.0), 1.0, 1e-9)


def _fit_contour_uncached(theta, poles, decay, magnitude, tol, rho=0.0, n_arc=0):
    """fit_contour with its poles' part computed on every call: the
    reference the cached fit must equal."""
    from sectorsum.contour import _SHARE, _log_rho, _to_x
    base = ContourSpec(rho=rho, theta=theta, n_arc=n_arc)
    a = _log_rho(base)
    decay, p = [complex(zeta) for zeta in decay], np.ravel(poles).astype(complex)
    p = p[p != 0]
    logr = np.log(np.abs(p))
    xs = np.real(_to_x(np.maximum(logr, a + 1e-2).astype(complex), a))
    c = 0.5 * float(xs.min() + xs.max()) if len(p) else 0.0
    phase = np.angle(np.concatenate([p * np.exp(-1j * theta), p * np.exp(1j * theta)]))
    phase = np.concatenate([phase, phase - 2.0 * np.pi * np.sign(phase)])
    with np.errstate(all="ignore"):
        x = _to_x(np.tile(logr, 4) + 1j * phase, a)
    if not math.isinf(a):
        x = np.append(x, [1j * np.pi, -1j * np.pi])
    d = float(np.min(np.abs(np.imag(np.arcsinh(x[np.isfinite(x)] - c))), initial=1.0))
    for zeta in decay if math.isinf(a) else decay[1:]:
        d = min(d, math.atan2(zeta.real, abs(zeta.imag)))
    if d < 1e-3:
        raise InvalidContour("no strip")
    M = max(magnitude, 1.0)
    end_tol = 2.0 * np.pi * _SHARE * tol

    def cut(sign):
        if sign > 0 or math.isinf(a):
            eta = decay[sign > 0].real
            return float(np.real(_to_x(complex(sign * math.log(M / (eta * end_tol)) / eta), a)))
        bound = M * math.exp(min(decay[0].real * a, -decay[1].real * a))
        return math.log(math.expm1(min(end_tol / bound, 1.0)))

    h = 2.0 * np.pi * d / max(math.log(M / (_SHARE * tol)), 4.0)
    return replace(base, c=c, h=h, u_lo=math.asinh(min(cut(-1.0), c - 1.0) - c),
                   u_hi=math.asinh(max(cut(1.0), c + 1.0) - c))


_POLE = st.builds(lambda r, phi: r * cmath.exp(1j * phi),
                  st.sampled_from([0.0, 1e-3, 0.3, 1.0, 2.5, 40.0, 1e4]), st.floats(-3.1, 3.14))


@settings(max_examples=150, deadline=None)
@given(theta=st.floats(0.05, 3.09), rho=st.sampled_from([0.0, 1e-3, 0.4, 7.0]),
       poles=st.lists(_POLE, max_size=6), with_one=st.booleans(),
       re_0=st.just(0.0) | st.floats(0.1, 3.0), im_0=st.floats(-10.0, 10.0),
       re_inf=st.floats(0.1, 3.0), im_inf=st.floats(-10.0, 10.0),
       magnitude=st.floats(0.5, 1e6), tol=st.sampled_from([1e-4, 1e-9, 2.5e-11]),
       repeat=st.booleans())
def test_fit_contour_equals_the_uncached_fit(theta, rho, poles, with_one, re_0, im_0, re_inf,
                                             im_inf, magnitude, tol, repeat):
    # zero poles, rho = 0 and rho > 0, complex decays (Re zeta_0 = 0 as
    # ImaginaryPowerFamily's at the arc), and hinf's extra pole at 1; a
    # repeat reads the cached poles' part
    poles = np.array(poles + [1.0] * with_one, dtype=complex)
    args = (theta, poles, (complex(re_0, im_0), complex(re_inf, im_inf)), magnitude, tol)
    kwargs = dict(rho=rho, n_arc=8 if rho else 0)
    try:
        want = _fit_contour_uncached(*args, **kwargs)
    except InvalidContour:
        for _ in range(1 + repeat):
            with pytest.raises(InvalidContour):
                fit_contour(*args, **kwargs)
        return
    for _ in range(1 + repeat):
        assert fit_contour(*args, **kwargs) == want


def test_fit_contour_cache_is_bounded_and_keeps_no_failure():
    assert 0 < contour._pole_strip.cache_info().maxsize < 10_000
    on_ray = [-1.0, -4.0 * np.exp(0.25j * np.pi)]
    for _ in range(2):
        with pytest.raises(InvalidContour, match="no strip of analyticity"):
            fit_contour(0.75 * np.pi, on_ray, (1.0, 1.0), 1.0, 1e-9)
    # the same poles at another angle, and another decay, fit
    assert fit_contour(0.7 * np.pi, on_ray, (1.0, 1.0), 1.0, 1e-9).h > 0
    with pytest.raises(InvalidContour):
        fit_contour(0.75 * np.pi, on_ray, (0.5, 0.5), 2.0, 1e-6)


def test_powers_of_one_operator_fit_its_poles_once():
    # the poles' images, c and their d are computed once for every
    # exponent, family and tolerance on one operator and angle
    from sectorsum import ImaginaryPowerFamily, complex_power
    from conftest import certified
    A = certified(np.diag([1.0, 3.0, 9.0]) + 0.5 * np.eye(3, k=1), 0.8 * np.pi)
    contour._pole_strip.cache_clear()
    for z in (-0.3, -0.7 + 2.0j, -1.5, -1.0 + 8.0j):
        complex_power(A, z)
    complex_power(A, -0.5, tol=1e-6)
    ImaginaryPowerFamily(A, t_max=4.0)
    info = contour._pole_strip.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def test_fit_contour_caps_the_strip_where_the_weight_oscillates():
    # r^zeta with Im zeta = 2 grows along the strip's edge once
    # tan d > Re zeta / |Im zeta|: d = atan(0.5 / 2) at the unbounded end
    free = fit_contour(np.pi / 2, [-2.0], (1.0, 0.5), 1.0, 1e-9)
    spec = fit_contour(np.pi / 2, [-2.0], (1.0, 0.5 + 2.0j), 1.0, 1e-9)
    assert spec.h == pytest.approx(2 * np.pi * np.arctan(0.25) / np.log(16e9), rel=1e-12)
    assert spec.h < free.h


def test_pv_odd_kernels_vanish():
    assert abs(pv_integral(lambda s: (1.0 / s)[:, None], 50.0)[0]) < 1e-14
    assert abs(pv_integral(lambda s: (np.pi / np.sinh(np.pi * s))[:, None], 40.0)[0]) < 1e-14


def test_pv_sine_integral_oracle():
    # PV of e^{is}/s over [-S, S] equals 2i Si(S); at S = 50 this is
    # still 0.04 away from the pi*i limit
    S = 50.0
    val = pv_integral(lambda s: (np.exp(1j * s) / s)[:, None], S, n_nodes=400)[0]
    si, _ = sici(S)
    assert abs(val - 2j * si) < 1e-6
    assert abs(val - np.pi * 1j) < 0.05


def test_pv_asymmetry_detected():
    with pytest.raises(AsymmetryDetected):
        pv_integral(lambda s: (1.0 / np.abs(s))[:, None], 10.0)


def _pv_per_node(kernel, cutoff, n_nodes):
    """The mirrored rule node by node: one kernel call per s and per -s."""
    n_panels = max(8, int(np.ceil(cutoff)))
    q = int(np.clip(round(n_nodes / n_panels), 4, 16))
    acc = 0.0
    for si, wi in zip(*gauss_panels(np.linspace(0.0, cutoff, n_panels + 1), q)):
        acc = acc + wi * (kernel(np.array([si]))[0] + kernel(np.array([-si]))[0])
    return acc


PV_KERNELS = {
    "sine": (lambda s: (np.exp(1j * s) / s)[:, None], 50.0, 400),
    "sinh-rotated": (lambda s: (np.pi * np.exp(0.6 * s) / np.sinh(np.pi * s))[:, None], 12.0, 320),
    "matrix": (lambda s: np.exp(1j * np.multiply.outer(s, [[1.0, -2.0, 0.5], [3.0, 0.1, -1.0]]))
               / s[:, None, None], np.pi, 260),
    "coarse": (lambda s: (np.cos(s) + 1j / s)[:, None], 30.0, 100),
}


@pytest.mark.parametrize("case", sorted(PV_KERNELS))
def test_pv_batched_rule_matches_per_node_loop(case):
    kernel, cutoff, n_nodes = PV_KERNELS[case]
    calls = []

    def counted(s):
        calls.append(len(s))
        return kernel(s)

    got = pv_integral(counted, cutoff, n_nodes=n_nodes)
    ref = _pv_per_node(kernel, cutoff, n_nodes)
    assert len(calls) == 1
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())


# ------------------------------------------------------------ the one rule


def test_gauss_panels_reduces_to_leggauss():
    for q in (1, 4, 10, 17):
        x, w = gauss_panels([-1.0, 1.0], q)
        xg, wg = leggauss(q)
        assert np.array_equal(x, xg) and np.array_equal(w, wg)


def test_gauss_panels_exact_to_degree_2q_minus_1():
    edges = np.array([-0.3, 0.1, 0.15, 1.0, 2.7])
    for q in (2, 5, 10):
        x, w = gauss_panels(edges, q)
        assert x.shape == w.shape == (q * (len(edges) - 1),)
        for deg in range(2 * q):
            exact = (edges[-1] ** (deg + 1) - edges[0] ** (deg + 1)) / (deg + 1)
            assert np.dot(w, x ** deg) == pytest.approx(exact, rel=1e-13, abs=1e-13)


def _reference_nodes(spec):
    """Per-node loop over the path: the arc, then per node u of the ray
    rule the upper ray and the lower ray."""
    lam, w = [], []
    if spec.rho > 0 and spec.n_arc > 0:
        xg, wg = leggauss(spec.n_arc)
        half = np.pi - spec.theta
        for x, wx in zip(xg, wg):
            l = spec.rho * np.exp(1j * (np.pi + half * x))
            lam.append(l)
            w.append(-half * wx * 1j * l / (2j * np.pi))
    n = max(2, math.ceil((spec.u_hi - spec.u_lo) / spec.h - 1e-9))
    step = (spec.u_hi - spec.u_lo) / n
    for k in range(n + 1):
        u = spec.u_lo + k * step if k < n else spec.u_hi
        x = spec.c + math.sinh(u)
        if spec.rho == 0:       # the line
            s, ds = x, 1.0
        else:                   # the half-line: ds/dx is the logistic function at x
            s, ds = math.log(spec.rho) + math.log1p(math.exp(x)), 1.0 / (1.0 + math.exp(-x))
        ds *= math.cosh(u)
        for sign, theta in ((1.0, spec.theta), (-1.0, -spec.theta)):
            l = cmath.exp(s + 1j * theta)
            lam.append(l)
            w.append(sign * step * ds * l / (2j * np.pi))
    return np.array(lam), np.array(w)


@pytest.mark.parametrize("spec", [
    ContourSpec(rho=1.0, theta=np.pi / 2, n_arc=16),
    ContourSpec(rho=0.0, theta=2.0, n_arc=0, c=-1.5, h=0.2, u_lo=-3.0, u_hi=2.5),
    ContourSpec(rho=0.2, theta=0.7 * np.pi, n_arc=0, c=1.0, h=0.3),
], ids=["arc", "line", "window"])
def test_build_nodes_matches_reference_loop(spec):
    lam, w = build_nodes(spec)
    ref_lam, ref_w = _reference_nodes(spec)
    assert lam.dtype == w.dtype == np.complex128
    # the arc: the same Gauss-Legendre code, bit for bit
    arc = slice(spec.n_arc)
    assert np.array_equal(lam[arc], ref_lam[arc]) and np.array_equal(w[arc], ref_w[arc])
    # the ray map evaluates with numpy here and with math in the loop
    np.testing.assert_allclose(lam, ref_lam, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(w, ref_w, rtol=1e-13, atol=0.0)


def test_legendre_rule_and_dense_solves_stay_in_their_modules():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "sectorsum"
    legendre = {p.name for p in src.glob("*.py")
                if re.search(r"numpy\.polynomial(\.legendre| import legendre)", p.read_text())}
    assert legendre == {"contour.py"}
    assert sum(p.read_text().count("leggauss(") for p in src.glob("*.py")) == 1
    assert not re.search(r"np\.linalg\.(solve|inv)\b", (src / "sums.py").read_text())
    # every contour sum and every sector and t-sector resolvent comes from
    # linops
    assert {p.name for p in src.glob("*.py")
            if "ShiftedFactorization(" in p.read_text()} == {"linops.py"}
    for name in ("calculus.py", "sums.py", "sector.py", "tsector.py"):
        text = (src / name).read_text()
        assert not re.search(r"ShiftedFactorization|lu_factor|getrf|solve_shifted|"
                             r"np\.linalg\.(solve|inv)\b", text), name
    # resolvents are held in a basis and mapped back only through linops
    # (basis_resolvents, from_basis), and calculus does not pick the basis
    assert {p.name for p in src.glob("*.py")
            if re.search(r"(spectral|triangular)_resolvents\(", p.read_text())} == {"linops.py"}
    assert not re.search(r"(normal_basis|schur_form)\(", (src / "calculus.py").read_text())
    # sector and t-sector apply resolvents to vectors, which needs no matrix:
    # they call linops.basis_solve, never the stacks or their map back
    for name in ("sector.py", "tsector.py"):
        assert not re.search(r"(from_basis|basis_resolvents)\(", (src / name).read_text()), name


def test_tracer_methods_exist():
    # bench/tracer.py wraps these by name; a missing one breaks --trace 1
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer_under_test", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, classes in tracer.METHODS.items():
        mod = importlib.import_module(f"sectorsum.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                assert callable(getattr(cls, meth, None)), f"{layer}.{cls_name}.{meth}"

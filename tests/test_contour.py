import importlib
import importlib.util
import pathlib
import re

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import sici

from sectorsum import ContourSpec, build_nodes, contour, dunford, pv_integral
from sectorsum.contour import (
    DEFAULT_FLOOR_EXP,
    DEFAULT_PANEL_ORDER,
    MAX_PANEL_WIDTH,
    _graded_edges,
    gauss_panels,
    tail_radius,
)
from sectorsum.errors import AsymmetryDetected, InvalidContour, TruncationNotConverged


def test_invalid_contours():
    with pytest.raises(InvalidContour):
        ContourSpec(rho=0.0, theta=np.pi / 4, R=10.0, n_arc=8)  # arc without rho
    with pytest.raises(InvalidContour):
        ContourSpec(rho=2.0, theta=np.pi / 4, R=1.0, n_arc=8)  # R < rho
    with pytest.raises(InvalidContour):
        ContourSpec(rho=0.1, theta=0.0, R=1.0, n_arc=8)  # theta out of range
    with pytest.raises(InvalidContour):
        ContourSpec(rho=0.1, theta=np.pi / 4, R=1.0, n_ray=2, n_arc=8)
    with pytest.raises(InvalidContour):
        ContourSpec(rho=0.1, theta=np.pi / 4, R=1.0, n_arc=8, orientation="widdershins")


def test_arc_only_degenerate_rays():
    spec = ContourSpec(rho=1.0, theta=np.pi / 2, R=1.0, n_arc=16)
    lam, w = build_nodes(spec)
    assert lam.shape == w.shape == (16,)
    phis = np.angle(lam) % (2 * np.pi)
    assert np.all((phis >= np.pi / 2 - 1e-12) & (phis <= 1.5 * np.pi + 1e-12))


def test_rays_only_when_rho_zero():
    spec = ContourSpec(rho=0.0, theta=np.pi / 4, R=10.0, n_arc=0)
    lam, _ = build_nodes(spec)
    assert np.allclose(np.abs(np.abs(np.angle(lam))) - np.pi / 4, 0.0, atol=1e-14)
    assert np.max(np.abs(lam)) <= 10.0 + 1e-12


def test_nodes_lie_on_path():
    spec = ContourSpec(rho=0.3, theta=2 * np.pi / 3, R=50.0, n_arc=12, delta=-0.1)
    lam, _ = build_nodes(spec)
    base = lam - spec.delta
    on_ray = np.abs(np.abs(np.angle(base)) - spec.theta) < 1e-14
    on_arc = np.abs(np.abs(base) - spec.rho) < 1e-14 * spec.rho
    assert np.all(on_ray | on_arc)


def test_residue_oracle_closed_curve():
    # residue theorem oracle: the enclosed simple pole at lam = -2, with a
    # decay weight normalized so the residue is exactly 1.  (A bare
    # (lam - z0)^{-1} decays too slowly: its truncated-contour value picks
    # up a closing-arc term, so the engine requires |lam|^{-1-eta} decay.)
    spec = ContourSpec(rho=0.5, theta=np.pi / 2, R=1e20, n_arc=16, focus=(0.5, 50.0))
    res = dunford(
        spec,
        lambda lam: (np.sqrt(2.0) * (-lam) ** -0.5 / (lam + 2.0))[:, None, None],
        decay_exponent=0.5,
    )
    assert abs(res.value[0, 0] - 1.0) < 1e-9


def test_orientation_negation_exact():
    spec = ContourSpec(rho=0.5, theta=np.pi / 2, R=1e6, n_arc=16)
    f = lambda lam: ((-lam) ** -0.5 / (lam + 2.0))[:, None, None]  # noqa: E731
    a = dunford(spec, f).value
    b = dunford(spec.with_orientation("negated"), f).value
    assert np.array_equal(a, -b)


def test_dunford_power_examples():
    # (-lam)^{-1/2} (4 + lam)^{-1} integrates to 4^{-1/2} = 0.5; the
    # truncation radius follows the |lam|^{-3/2} tail rule
    R = tail_radius(0.5, 1.0, 1e-10)
    spec = ContourSpec(rho=0.1, theta=0.75 * np.pi, R=R, n_arc=20, focus=(0.05, 50.0))
    res = dunford(spec, lambda lam: ((-lam) ** -0.5 / (4.0 + lam))[:, None, None], 0.5)
    assert abs(res.value[0, 0] - 0.5) < 1e-8
    spec2 = ContourSpec(rho=0.1, theta=0.75 * np.pi, R=1e10, n_arc=20, focus=(0.05, 50.0))
    res2 = dunford(spec2, lambda lam: ((-lam) ** -1.0 / (2.0 + lam))[:, None, None], 1.0)
    assert abs(res2.value[0, 0] - 0.5) < 1e-8


def test_dunford_convergence_order():
    # doubling the per-ray budget must cut the error by far more than 2^4
    A = np.diag([1.0, 3.0])
    eye = np.eye(2)

    def integrand(lam):
        return ((-lam) ** -0.5)[:, None, None] * np.linalg.inv(A + lam[:, None, None] * eye)

    exact = np.diag([1.0, 3.0 ** -0.5])
    errs = []
    for n_ray in (60, 120):
        spec = ContourSpec(rho=0.2, theta=0.7 * np.pi, R=1e18, n_ray=n_ray,
                           n_arc=12, focus=(0.1, 10.0))
        got = dunford(spec, integrand, 0.5).value
        errs.append(np.linalg.norm(got - exact, 2))
    assert errs[0] / max(errs[1], 1e-16) >= 16.0


def test_dunford_tail_error_flag():
    spec = ContourSpec(rho=0.1, theta=0.75 * np.pi, R=50.0, n_arc=16)
    with pytest.raises(TruncationNotConverged):
        dunford(spec, lambda lam: ((-lam) ** -0.5 / (4.0 + lam))[:, None, None],
                decay_exponent=0.5, tol_tail=1e-10)


def test_path_shift_invariance():
    # holomorphic between the base path and the left-shifted, slightly
    # narrowed one, so both quadratures agree
    A = np.diag([1.0, 3.0])
    eye = np.eye(2)

    def integrand(lam):
        return ((-lam) ** -0.5)[:, None, None] * np.linalg.inv(A + lam[:, None, None] * eye)

    exact = np.diag([1.0, 3.0 ** -0.5])
    base = ContourSpec(rho=0.25, theta=0.7 * np.pi, R=1e18, n_arc=20, focus=(0.1, 10.0))
    shifted = ContourSpec(rho=0.25, theta=0.7 * np.pi - 0.05, R=1e18, n_arc=20,
                          delta=-0.1, focus=(0.1, 10.0))
    a = dunford(base, integrand, 0.5).value
    b = dunford(shifted, integrand, 0.5).value
    assert np.linalg.norm(a - b, 2) < 2e-8
    assert np.linalg.norm(a - exact, 2) < 1e-8


def _reference_dunford(spec, integrand, decay_exponent):
    """Per-node loop: weighted sum, and the tail mass of the nodes with
    the largest radii extrapolated over the outermost panel's log-width
    as in dunford (rho > 0 and no n_ray, so that panel has
    DEFAULT_PANEL_ORDER nodes on each ray)."""
    lam, w = build_nodes(spec)
    edges = _graded_edges(spec.rho, spec.R, spec.focus, spec.breaks)
    width = np.log(edges[-1] / edges[-2])
    tail = set(np.argsort(np.abs(lam - spec.delta))[-2 * DEFAULT_PANEL_ORDER:].tolist())
    acc, mass = 0.0, 0.0
    for k, (l, wk) in enumerate(zip(lam, w)):
        term = wk * integrand(np.array([l]))[0]
        acc = acc + term
        if k in tail:
            mass += np.linalg.norm(term)
    return acc, mass / np.expm1(decay_exponent * width)


def test_dunford_chunks_match_per_node_loop(monkeypatch):
    A = np.array([[1.0, 2.0], [0.0, 3.0]])
    eye = np.eye(2)
    sizes = []

    def integrand(lam):
        sizes.append(len(lam))
        return ((-lam) ** -0.5)[:, None, None] * np.linalg.inv(A + lam[:, None, None] * eye)

    # a budget of 7 nodes of 2x2 complex values per chunk
    monkeypatch.setattr(contour, "_SHIFT_STACK_BYTES", 7 * 64)
    spec = ContourSpec(rho=0.2, theta=0.7 * np.pi, R=1e12, n_arc=12, focus=(0.1, 10.0))
    res = dunford(spec, integrand, 0.5)
    n = len(build_nodes(spec)[0])
    assert sizes[0] == 1 and set(sizes[1:-1]) == {7} and sum(sizes) == n == res.n_nodes
    ref, ref_tail = _reference_dunford(spec, integrand, 0.5)
    assert np.max(np.abs(res.value - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert res.tail_estimate == pytest.approx(ref_tail, rel=1e-13)


def test_last_graded_panel_is_at_least_log2_wide():
    widths = []
    for R in np.geomspace(20.0, 1e9, 400):
        edges = _graded_edges(1.0, R, (1.0, 10.0), ())
        widths.append(np.log(edges[-1] / edges[-2]))
        assert edges[-1] == R and np.all(np.diff(edges) > 0)
    assert min(widths) >= np.log(2.0) - 1e-12
    assert max(widths) <= MAX_PANEL_WIDTH + np.log(2.0)
    # a forced break keeps its sliver, and the focus window keeps its
    # uniform panels up to R
    assert _graded_edges(1.0, 1e6, (1.0, 10.0), (0.999e6,))[-2] == 0.999e6
    edges = _graded_edges(1.0, 50.0, (1.0, 50.0), ())
    assert np.allclose(np.diff(np.log(edges)), np.log(50.0) / 6)


def test_dunford_tail_is_the_outer_panel_extrapolated():
    # (-lambda)^(-1-eta) has |.| = r^(-1-eta) on both rays, so the outer
    # panel's mass over its own log-width extrapolates to R^-eta / (pi eta)
    # exactly; with n_ray the panel has q != DEFAULT_PANEL_ORDER nodes
    eta = 0.4
    for R, n_ray in ((1e8, 96), (3.7e9, 0), (2.2e5, 48)):
        spec = ContourSpec(rho=0.5, theta=0.6 * np.pi, R=R, n_ray=n_ray, n_arc=16,
                           focus=(1.0, 10.0))
        res = dunford(spec, lambda lam: (-lam) ** (-1.0 - eta), decay_exponent=eta)
        assert res.tail_estimate == pytest.approx(R ** -eta / (np.pi * eta), rel=1e-10)
    assert contour._ray_mesh(spec)[1] != DEFAULT_PANEL_ORDER


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
    """Per-panel loop over the path: arc, stub, then per graded panel the
    upper ray and the lower ray."""
    lam, w = [], []
    if spec.rho > 0 and spec.n_arc > 0:
        xg, wg = leggauss(spec.n_arc)
        half = np.pi - spec.theta
        for x, wx in zip(xg, wg):
            l = spec.rho * np.exp(1j * (np.pi + half * x))
            lam.append(l)
            w.append(-half * wx * 1j * l / (2j * np.pi))
    if spec.R > spec.rho:
        r_inner, stub = spec.rho, None
        if spec.rho == 0.0:
            r_inner = spec.r_floor or min(1.0, spec.R) * DEFAULT_FLOOR_EXP
            stub = (0.0, r_inner)
        edges = _graded_edges(r_inner, spec.R, spec.focus, spec.breaks)
        q = DEFAULT_PANEL_ORDER
        if spec.n_ray:
            q = max(2, int(round(spec.n_ray / (len(edges) - 1 + (stub is not None)))))
        xg, wg = leggauss(q)
        up, dn = np.exp(1j * spec.theta), np.exp(-1j * spec.theta)
        if stub is not None:
            a, b = stub
            for sign, d in ((1.0, up), (-1.0, dn)):
                for x, wx in zip(xg, wg):
                    r = 0.5 * (b + a) + 0.5 * (b - a) * x
                    lam.append(r * d)
                    w.append(sign * (0.5 * (b - a) * wx) * d / (2j * np.pi))
        for a, b in zip(edges[:-1], edges[1:]):
            sa, sb = np.log(a), np.log(b)
            for sign, d in ((1.0, up), (-1.0, dn)):
                for x, wx in zip(xg, wg):
                    r = np.exp(0.5 * (sb + sa) + 0.5 * (sb - sa) * x)
                    lam.append(r * d)
                    w.append(sign * (0.5 * (sb - sa) * wx * r) * d / (2j * np.pi))
    lam = np.array(lam) + spec.delta
    w = np.array(w)
    return lam, (-w if spec.orientation == "negated" else w)


@pytest.mark.parametrize("spec", [
    ContourSpec(rho=1.0, theta=np.pi / 2, R=1.0, n_arc=16),
    ContourSpec(rho=0.0, theta=2.0, R=1e4, n_arc=0, r_floor=1e-12, focus=(0.1, 3.0),
                breaks=(0.5, 2.0, 40.0)),
    ContourSpec(rho=0.2, theta=0.7 * np.pi, R=1e18, n_ray=60, n_arc=12, focus=(0.1, 10.0)),
    ContourSpec(rho=0.3, theta=2 * np.pi / 3, R=50.0, n_arc=13, delta=-0.1),
    ContourSpec(rho=0.5, theta=np.pi / 2, R=1e6, n_arc=16, delta=0.25,
                orientation="negated"),
], ids=["arc", "stub-breaks", "n_ray", "delta", "negated"])
def test_build_nodes_matches_reference_loop(spec):
    lam, w = build_nodes(spec)
    ref_lam, ref_w = _reference_nodes(spec)
    assert lam.dtype == w.dtype == np.complex128
    assert np.array_equal(lam, ref_lam)
    assert np.array_equal(w, ref_w)


def test_legendre_rule_and_dense_solves_stay_in_their_modules():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "sectorsum"
    legendre = {p.name for p in src.glob("*.py")
                if re.search(r"numpy\.polynomial(\.legendre| import legendre)", p.read_text())}
    assert legendre == {"contour.py"}
    assert sum(p.read_text().count("leggauss(") for p in src.glob("*.py")) == 1
    assert not re.search(r"np\.linalg\.(solve|inv)\b", (src / "sums.py").read_text())
    # every contour sum takes its resolvents from linops.resolvents
    assert {p.name for p in src.glob("*.py")
            if "ShiftedFactorization(" in p.read_text()} == {"linops.py"}
    for name in ("calculus.py", "sums.py"):
        text = (src / name).read_text()
        assert not re.search(r"ShiftedFactorization|lu_factor|getrf|solve_shifted|"
                             r"np\.linalg\.(solve|inv)\b", text), name
    # resolvents are held in a basis and mapped back only through linops
    # (basis_resolvents, from_basis), and calculus does not pick the basis
    assert {p.name for p in src.glob("*.py")
            if re.search(r"(spectral|triangular)_resolvents\(", p.read_text())} == {"linops.py"}
    assert not re.search(r"(normal_basis|schur_form)\(", (src / "calculus.py").read_text())


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

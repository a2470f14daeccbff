"""Sector-boundary contours and quadrature engines.

The basic path is, for arc radius rho >= 0 and opening angle theta,

    { rho e^{i phi} : theta <= phi <= 2 pi - theta }
        union  { r e^{+- i theta} : r >= rho },

traversed positively around the region to the left of the sector: in
along the lower ray, around the arc (phi decreasing from 2 pi - theta
to theta), and out along the upper ray.  With this orientation the
weighted sum of resolvent values reproduces residues at enclosed
spectral points with a + sign, which is the convention every formula
in this package assumes.  Node weights absorb the path derivative and
the 1/(2 pi i) prefactor.

Every Gauss-Legendre sum in the package (contour rays and arc, mirrored
principal values, the imaginary-power rays, the bound assembly's s-mesh,
the e-adic panels) takes its nodes from gauss_panels(edges, q),
the one place Legendre nodes are mapped onto panels; the rule itself is
computed once per order q.  Ray quadrature
uses it on a radially graded mesh: panel widths are uniform in log r across a
caller-supplied "focus" window (where the integrand's poles live) and
coarsen geometrically with ratio 2 toward both endpoints 0 and R, where
the last panel is at least log 2 wide.  Endpoint power behavior |lambda|^w
is handled by the grading; truncation at R is estimated from the
outermost panel mass, that panel's log-width and the integrand's
configured decay exponent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AsymmetryDetected, InvalidContour, TruncationNotConverged
from .linops import _SHIFT_STACK_BYTES

_TWO_PI_I = 2.0j * np.pi

#: default per-panel Gauss-Legendre order when n_ray does not force one
DEFAULT_PANEL_ORDER = 10

#: deepest graded edge relative to min(1, R) when rho = 0 and no explicit
#: inner floor is given
DEFAULT_FLOOR_EXP = 2.0 ** -60


@dataclass(frozen=True)
class ContourSpec:
    """Parametrization of a (possibly shifted) sector-boundary path.

    Parameters
    ----------
    rho : float
        Arc radius; 0 collapses the arc and the rays meet at the origin.
    theta : float
        Ray half-opening angle, in (0, pi).
    R : float
        Radial truncation of the rays.
    n_ray : int
        Target node count per ray (distributed over graded panels).
    n_arc : int
        Node count on the arc (must be 0 when rho == 0).
    delta : float
        Additive shift of the whole path (signed; models +-delta + path).
    orientation : str
        "standard" or "negated"; negated flips every weight.
    r_floor : float or None
        Innermost graded edge for rho == 0 rays; below it a single stub
        panel reaches down to r = 0.
    focus : (float, float) or None
        Radial window that receives the finest panels.
    breaks : tuple of float
        Radii forced to be panel boundaries (spectral scales, split radii).
    """

    rho: float
    theta: float
    R: float
    n_ray: int = 0
    n_arc: int = 16
    delta: float = 0.0
    orientation: str = "standard"
    r_floor: float | None = None
    focus: tuple[float, float] | None = None
    breaks: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not (0.0 < self.theta < np.pi):
            raise InvalidContour(f"theta must lie in (0, pi), got {self.theta}")
        if self.rho < 0:
            raise InvalidContour("rho must be nonnegative")
        if self.R < self.rho or self.R <= 0:
            raise InvalidContour(f"R={self.R} must be at least rho={self.rho}")
        if self.R == self.rho and self.n_arc == 0:
            raise InvalidContour("degenerate rays need arc nodes")
        if self.rho == 0.0 and self.n_arc != 0:
            raise InvalidContour("rho = 0 admits no arc nodes")
        if self.orientation not in ("standard", "negated"):
            raise InvalidContour(f"unknown orientation {self.orientation!r}")
        if self.n_ray and self.n_ray < 4 and self.R > self.rho:
            raise InvalidContour("n_ray must be at least 4")
        if self.rho > 0 and self.n_arc and self.n_arc < 4:
            raise InvalidContour("n_arc must be at least 4 when the arc is present")

    def with_orientation(self, orientation: str) -> "ContourSpec":
        return replace(self, orientation=orientation)

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "theta": self.theta,
            "R": self.R,
            "n_ray": self.n_ray,
            "n_arc": self.n_arc,
            "delta": self.delta,
            "orientation": self.orientation,
            "r_floor": self.r_floor,
            "focus": list(self.focus) if self.focus else None,
            "breaks": list(self.breaks),
        }


#: widest admitted log-radial panel; keeps exponential-in-log integrands
#: resolvable by the default panel order
MAX_PANEL_WIDTH = 2.8


def _graded_edges(r_inner: float, R: float, focus, breaks) -> np.ndarray:
    """Radial panel edges: log-uniform inside the focus window, widths
    doubling (ratio 2) toward both r_inner and R outside it, capped at
    MAX_PANEL_WIDTH in log radius.  A last panel outside the focus
    window is at least log 2 wide unless a break bounds it."""
    base = np.log(2.0)
    lo = np.log(r_inner)
    hi = np.log(R)
    if focus is None:
        f_lo, f_hi = lo, hi
    else:
        f_lo = np.clip(np.log(focus[0]), lo, hi)
        f_hi = np.clip(np.log(focus[1]), lo, hi)
        if f_hi < f_lo:
            f_lo = f_hi = 0.5 * (f_lo + f_hi)
    edges = []
    n_mid = max(1, int(np.ceil((f_hi - f_lo) / base)))
    edges.extend(np.linspace(f_lo, f_hi, n_mid + 1))
    w = base
    s = f_lo
    while s > lo:
        s = max(lo, s - w)
        edges.append(s)
        w = min(2.0 * w, MAX_PANEL_WIDTH)
    w = base
    s = f_hi
    while s < hi:
        s = min(hi, s + w)
        edges.append(s)
        w = min(2.0 * w, MAX_PANEL_WIDTH)
    r_edges = list(np.exp(np.array(sorted(set(edges)))))
    r_edges[0], r_edges[-1] = r_inner, R
    for b in breaks:
        if r_inner < b < R:
            r_edges.append(float(b))
    r_edges = np.array(sorted(r_edges))
    # drop slivers from floating-point log/exp round trips
    keep = np.concatenate([[True], np.diff(np.log(r_edges)) > 1e-9])
    r_edges = r_edges[keep]
    r_edges[-1] = R
    # a graded last panel narrower than log 2 leaves dunford's tail
    # extrapolation a sliver to measure: fold it into its graded neighbour
    # unless the edge between them is a forced break
    last = np.log(r_edges[-2])
    if hi - last < base and last > f_hi + 1e-9 \
            and not np.any(np.isclose(r_edges[-2], breaks, rtol=1e-9, atol=0.0)):
        r_edges = np.delete(r_edges, -2)
    return r_edges


def _ray_mesh(spec: ContourSpec):
    """(edges, q, stub) of the graded ray panels of a spec, or None when
    it has no rays: the log-graded edges from r_inner to R, the per-panel
    Gauss-Legendre order, and the linear stub panel (0, r_floor) of a
    rho = 0 path (else None)."""
    if spec.R <= spec.rho:
        return None
    r_inner = spec.rho
    stub = None
    if spec.rho == 0.0:
        r_inner = spec.r_floor or min(1.0, spec.R) * DEFAULT_FLOOR_EXP
        stub = (0.0, r_inner)
    edges = _graded_edges(r_inner, spec.R, spec.focus, spec.breaks)
    q = DEFAULT_PANEL_ORDER
    if spec.n_ray:
        q = max(2, int(round(spec.n_ray / (len(edges) - 1 + (stub is not None)))))
    return edges, q, stub


@functools.lru_cache(maxsize=64)
def _legendre_rule(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The q-point Gauss-Legendre rule on [-1, 1], read-only, computed
    once per q."""
    x, w = leggauss(q)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_panels(edges, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite q-point Gauss-Legendre nodes and weights on the
    consecutive panels [edges[i], edges[i+1]], panel by panel in order."""
    xg, wg = _legendre_rule(q)
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1, None], edges[1:, None]
    x = 0.5 * (b + a) + 0.5 * (b - a) * xg
    w = 0.5 * (b - a) * wg
    return x.reshape(-1), w.reshape(-1)


def build_nodes(spec: ContourSpec) -> tuple[np.ndarray, np.ndarray]:
    """(lambda, weight) arrays for the contour: arc first, then the stub
    panel, then per graded panel the upper ray and the lower ray.

    Weights carry the positive-orientation signs (lower ray inward, arc
    with decreasing angle, upper ray outward) and the 1/(2 pi i) factor;
    a negated spec flips all of them.
    """
    return _nodes_on_mesh(spec, _ray_mesh(spec))


def _nodes_on_mesh(spec: ContourSpec, mesh) -> tuple[np.ndarray, np.ndarray]:
    """build_nodes(spec) on the spec's ray mesh, already taken."""
    lam_parts: list[np.ndarray] = []
    w_parts: list[np.ndarray] = []

    if spec.rho > 0 and spec.n_arc > 0:
        half = np.pi - spec.theta
        x, w = gauss_panels([-half, half], spec.n_arc)
        lam = spec.rho * np.exp(1j * (np.pi + x))
        lam_parts.append(lam)
        # d lambda = i rho e^{i phi} d phi, traversed with phi decreasing
        w_parts.append(-w * 1j * lam / _TWO_PI_I)

    if mesh is not None:
        edges, q, stub = mesh
        n_panels = len(edges) - 1
        up = np.exp(1j * spec.theta)
        dn = np.exp(-1j * spec.theta)
        if stub is not None:
            # innermost stub [0, r_floor], mapped linearly (integrable
            # endpoint power, tiny absolute mass)
            r, w = gauss_panels(stub, q)
            lam_parts += [r * up, r * dn]
            w_parts += [w * up / _TWO_PI_I, -w * dn / _TWO_PI_I]
        # Gauss nodes in log radius: dr = r ds
        s, ws = gauss_panels(np.log(edges), q)
        r = np.exp(s).reshape(n_panels, 1, q)
        w = ws.reshape(n_panels, 1, q) * r
        # per panel: upper ray outward, then lower ray inward
        lam_parts.append(np.concatenate([r * up, r * dn], axis=1).reshape(-1))
        w_parts.append(np.concatenate([w * up / _TWO_PI_I, -w * dn / _TWO_PI_I],
                                      axis=1).reshape(-1))

    lam = np.concatenate(lam_parts) + spec.delta
    w = np.concatenate(w_parts)
    if spec.orientation == "negated":
        w = -w
    return lam, w


@dataclass
class DunfordResult:
    """Contour-quadrature value with its truncation-error estimate."""

    value: np.ndarray
    tail_estimate: float
    n_nodes: int


def dunford(
    spec: ContourSpec,
    integrand: Callable[[np.ndarray], np.ndarray],
    decay_exponent: float = 1.0,
    tol_tail: float | None = None,
) -> DunfordResult:
    """Evaluate (1/2 pi i) * integral of `integrand` over the contour.

    Parameters
    ----------
    integrand : callable
        Vectorised: maps a 1-D array of k contour nodes to the (k, ...)
        stack of values there.  It sees the nodes in order, in chunks
        whose stacks fit ``_SHIFT_STACK_BYTES`` (the first chunk is one
        node), each reduced against the weights in one ``einsum``.  Any
        SingularShift raised by it propagates: the contour touches a
        spectrum and the caller chose a bad path.
    decay_exponent : float
        eta such that the integrand decays like |lambda|^(-1-eta); used
        to extrapolate the outermost ray panel's mass, over its actual
        log-width, into a tail estimate.
    tol_tail : float, optional
        If given, raise TruncationNotConverged when the tail estimate
        exceeds it.
    """
    mesh = _ray_mesh(spec)
    lam, w = _nodes_on_mesh(spec, mesh)
    # outermost ray panel mass, from the nodes with the largest radii (the
    # q nodes of that panel on each ray), and the panel's log-width
    q, width = DEFAULT_PANEL_ORDER, np.log(2.0)
    if mesh is not None:
        edges, q, _ = mesh
        width = float(np.log(edges[-1] / edges[-2]))
    order = np.argsort(np.abs(lam - spec.delta))
    in_tail = np.zeros(len(lam), dtype=bool)
    in_tail[order[-min(len(lam), 2 * q):]] = True
    acc, last_mass, lo, step = 0.0, 0.0, 0, 1
    while lo < len(lam):
        chunk = slice(lo, lo + step)
        values = np.asarray(integrand(lam[chunk]), dtype=complex)
        acc = acc + np.einsum("k,k...->...", w[chunk], values)
        tail = in_tail[chunk]
        norms = np.linalg.norm(values[tail].reshape(-1, values[0].size), axis=1)
        last_mass += float(np.abs(w[chunk][tail]) @ norms)
        lo += step
        step = max(1, _SHIFT_STACK_BYTES // values[0].nbytes)
    # a C r^(-1-eta) integrand puts C R^-eta (e^(eta width) - 1) / eta on
    # the last panel and C R^-eta / eta beyond R
    tail = last_mass / math.expm1(max(decay_exponent, 1e-3) * width)
    if tol_tail is not None and tail > tol_tail:
        raise TruncationNotConverged(
            f"tail estimate {tail:.3e} exceeds tol_tail {tol_tail:.3e} "
            f"(R={spec.R:.3e}, decay exponent {decay_exponent})"
        )
    return DunfordResult(acc, tail, len(lam))


def tail_radius(decay_exponent: float, magnitude: float, tol: float) -> float:
    """Truncation radius from the a-priori bound C r^(-1-eta) on the integrand.

    The neglected tail is about C R^(-eta) / eta; solve for R at the
    requested tolerance.  Clipped to [1e2, 1e60].
    """
    eta = max(decay_exponent, 1e-3)
    R = (magnitude / (eta * max(tol, 1e-300))) ** (1.0 / eta)
    return float(np.clip(R, 1e2, 1e60))


# ------------------------------------------------------------ principal value


def pv_integral(
    kernel: Callable[[np.ndarray], np.ndarray],
    cutoff: float,
    n_nodes: int = 200,
    asym_rtol: float = 1e-6,
) -> np.ndarray:
    """Principal value of integral over [-cutoff, cutoff] of a kernel with a
    single simple odd singularity at s = 0.

    The kernel is vectorised, as dunford's integrand: it maps a 1-D array
    of s to the (len(s), ...) stack of values, and is called once, on the
    asymmetry probes and the mirrored Gauss-Legendre nodes together.  Each
    positive node s is paired with -s so the odd divergent part cancels.

    Raises
    ------
    AsymmetryDetected
        If s*kernel(s) and -s*kernel(-s) disagree as s -> 0, i.e. the
        divergent part is not odd.
    """
    # the mirrored pair kernel(s) + kernel(-s) is regular at 0 (the odd
    # divergent part cancels in exact arithmetic), so uniform panels
    # suffice; width <= 1 keeps oscillatory factors resolvable
    n_panels = max(8, int(np.ceil(cutoff)))
    edges = np.linspace(0.0, cutoff, n_panels + 1)
    q = int(np.clip(round(n_nodes / n_panels), 4, 16))
    s, w = gauss_panels(edges, q)
    probes = cutoff * np.array([1e-7, 1e-9])
    values = np.asarray(kernel(np.concatenate([probes, -probes, s, -s])), dtype=complex)

    # odd-part consistency: s*kernel(s) and -s*kernel(-s) must share the
    # limit at 0.  At finite s they differ by O(s) from the regular part,
    # so probe two scales and demand the residual shrink with s.
    cp = probes[:, None] * values[:2].reshape(2, -1)
    cm = -probes[:, None] * values[2:4].reshape(2, -1)
    scale = float(np.linalg.norm(cp, axis=1).max())
    resids = np.linalg.norm(cp - cm, axis=1)
    if resids[1] > asym_rtol * max(scale, 1.0) and resids[1] > 0.5 * resids[0]:
        raise AsymmetryDetected(
            f"divergent part not odd: residuals {resids[0]:.3e}, {resids[1]:.3e} "
            f"do not vanish toward s = 0"
        )
    pairs = values[4:4 + len(s)] + values[4 + len(s):]
    return np.einsum("k,k...->...", w, pairs)

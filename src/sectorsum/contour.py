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

The arc takes its nodes from gauss_panels(edges, q), the one place
Legendre nodes are mapped onto panels (as do the principal values, the
imaginary-power rays, the bound assembly and the e-adic panels).

The rays take one trapezoid rule in u after a double-exponential map of
s = log r (Takahasi & Mori 1974).  With x = c + sinh u and a = log rho,
a ray is

    s = x                            rho = 0  (the line),
    s = a + log(1 + e^x)             rho > 0  (the half-line),

so an integrand that decays like a power of r at an unbounded end, or
stays bounded at r = rho, decays double-exponentially in u.  The
trapezoid error is then about e^{-2 pi d / h}, where d is the half-width
of the strip around the real u-axis in which the integrand is analytic
(Trefethen & Weideman, SIAM Rev. 2014).  fit_contour takes d from the
integrand's singular points, sets the step h from d and tol and the
truncation [u_lo, u_hi] from the integrand's decay.  The singular
points' share of that fit (their images under the map, the centre c and
their bound on d) is a function of theta, rho and the points alone, and
is cached by value on those (theta, log rho and the points' bytes), so
the many contours fitted to one spectrum compute it once.

Every contour sum is one weighted reduction (_resolvent_sum): a scalar
weight g and a stack of resolvents held in a basis, each chunk of nodes
reduced against c_k = w_k g(lambda_k) by one matrix product on the
stack's own memory layout.  The ray rule puts each lower-ray node at the
exact conjugate of an upper-ray node, so for a real operator the lower
ray's resolvents are the conjugates of the upper ray's and only the arc
and the upper ray are resolved.  The tail estimate takes norms at the
end nodes it reads (each ray's inner end, the next node on rays from the
origin, the outer end) and nowhere else, and is the one truncation gate
of every contour sum (see dunford): an estimate above the gate is read
again with the two rays summed at their last two nodes, which sees
their tails cancel past the cut.  calculus and sums call it;
dunford is its g = 1 case for any vectorised integrand.  The nodes'
angular tables (the ray directions, the arc's unit nodes and weights)
depend on theta and n_arc alone and are computed once per value of those.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AsymmetryDetected, InvalidContour, TruncationNotConverged
from .linops import stack_step

_TWO_PI_I = 2.0j * np.pi
#: the orientation of the rays' nodes: the upper ray out, the lower ray in
_SIGNS = np.array([1.0, -1.0])

#: share of fit_contour's tol given to the step and to each ray end's cut
_SHARE = 1.0 / 16.0
#: the largest |log r| of a ray node: r, 1/r and their squares stay finite
_S_MAX = 0.5 * math.log(np.finfo(float).max)
#: the largest real part at which expm1 stays finite
_EXPM1_MAX = 2.0 * _S_MAX


@dataclass(frozen=True)
class ContourSpec:
    """A sector-boundary path and its quadrature.

    rho is the arc radius (0 collapses the arc), theta in (0, pi) the ray
    angle, n_arc the arc's Gauss-Legendre node count (0 when rho == 0; 0
    with rho > 0 leaves the rays from rho alone).  c, h, u_lo and u_hi
    are the ray rule: the map x = c + sinh u and the trapezoid nodes
    u_lo + k h' (k = 0..n), h' <= h the widest step that divides
    [u_lo, u_hi] evenly; fit_contour sets them from the integrand.
    """

    rho: float
    theta: float
    n_arc: int = 16
    c: float = 0.0
    h: float = 0.125
    u_lo: float = -4.0
    u_hi: float = 4.0

    def __post_init__(self):
        if not (0.0 < self.theta < np.pi):
            raise InvalidContour(f"theta must lie in (0, pi), got {self.theta}")
        if self.rho < 0:
            raise InvalidContour("rho must be nonnegative")
        if self.rho == 0.0 and self.n_arc != 0:
            raise InvalidContour("rho = 0 admits no arc nodes")
        if not (self.h > 0 and self.u_lo < self.u_hi):
            raise InvalidContour(f"the ray rule needs h > 0 and u_lo < u_hi: {self}")
        if self.rho > 0 and self.n_arc and self.n_arc < 4:
            raise InvalidContour("n_arc must be at least 4 when the arc is present")


def _expit(x):
    """The logistic function 1 / (1 + e^-x), to full relative accuracy."""
    return np.exp(-np.logaddexp(0.0, -x))


def _log_rho(spec: ContourSpec) -> float:
    """The rays' inner log radius: log rho, or -inf for rays from the origin."""
    return math.log(spec.rho) if spec.rho > 0 else -math.inf


def _to_x(s, a: float):
    """The inverse of the ray map from log radius a, real or complex:
    log(expm1(y)) at y = s - a, which is y itself to double precision
    where expm1(y) would overflow (a cut or pole past e^709 rho)."""
    if math.isinf(a):
        return s
    y = s - a
    big = np.asarray(np.real(y) > _EXPM1_MAX)
    if not big.any():
        return np.log(np.expm1(y))
    return np.where(big, y, np.log(np.expm1(np.where(big, 1.0, y))))


def _ray_rule(spec: ContourSpec):
    """(s, ds/du, step, rest_in) at the ray rule's nodes; rest_in is the
    log-radius length left inside the inner end node (inf from the origin)."""
    a = _log_rho(spec)
    u_lo, u_hi = spec.u_lo, spec.u_hi   # stop at radius e^(+-_S_MAX); the tail covers the rest
    if a < -_S_MAX:
        u_lo = max(u_lo, math.asinh(_to_x(-_S_MAX, a) - spec.c))
    if a < _S_MAX:
        u_hi = min(u_hi, math.asinh(_to_x(_S_MAX, a) - spec.c))
    if not (u_lo < u_hi and a < _S_MAX):
        raise InvalidContour(f"the ray rule of {spec} lies beyond radius e^(+-{_S_MAX:.0f})")
    n = max(2, math.ceil((u_hi - u_lo) / spec.h - 1e-9))
    # np.linspace(u_lo, u_hi, n + 1), bit for bit, without its dispatch
    u = np.arange(n + 1.0)
    u *= (u_hi - u_lo) / n
    u += u_lo
    u[-1] = u_hi
    x = spec.c + np.sinh(u)
    if math.isinf(a):
        s, ds, rest_in = x, 1.0, math.inf
    else:
        log1p_ex = np.logaddexp(0.0, x)
        s, ds, rest_in = a + log1p_ex, _expit(x), float(log1p_ex[0])
    return s, ds * np.cosh(u), float(u[1]) - float(u[0]), rest_in


@functools.lru_cache(maxsize=256)
def _pole_strip(theta: float, a: float, poles: bytes) -> tuple[float, float]:
    """(c, d_pole) of fit_contour's ray rule at angle theta from inner log
    radius a, for the complex poles whose bytes are given: the centre c of
    the map and the half-width d_pole <= 1 of the strip the poles' images
    leave around the real u-axis.  It depends on nothing else, so it is
    cached by value on (theta, a, the poles' bytes)."""
    p = np.frombuffer(poles, dtype=complex)
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
    return c, d


def fit_contour(theta: float, poles, decay, magnitude: float, tol: float,
                rho: float = 0.0, n_arc: int = 0) -> ContourSpec:
    """The path at angle theta with its ray rule fitted to the integrand F.

    F is singular at ``poles`` (-sigma(A) for (A + lambda)^{-1}), lambda F
    behaves like r^zeta_0 as r -> 0 and like r^-zeta_inf as r -> inf
    (``decay``, complex), and ||lambda F|| <= M min(r^Re zeta_0,
    r^-Re zeta_inf) on the rays (``magnitude`` M).

    d is the smallest |Im u| of the poles on both rays (each at its
    nearest two images s + 2 pi i k) and of the half-line map's own
    singular points x = +-i pi, at most 1 and at most
    atan(Re zeta / |Im zeta|) at each unbounded end, past which r^zeta
    grows along the strip's edge.  Then h = 2 pi d / log(16 M / tol), c
    is the middle of the poles' log radii (taken into x), and each end is
    cut where its share of dunford's tail estimate, at the bound, is
    tol / 16.  InvalidContour when d < 1e-3: a pole on a ray, or no decay.

    The poles' part, c and the poles' bound on d, depends on theta, rho
    and the poles alone; it is computed once per value of those and
    cached (:func:`_pole_strip`, keyed by theta, log rho and the bytes
    of the poles as a complex array), so calls that differ only in the
    decay, M or tol, such as the powers of one operator, redo only the
    scalar caps, h and the two cuts.
    """
    base = ContourSpec(rho=rho, theta=theta, n_arc=n_arc)
    a = _log_rho(base)
    decay = [complex(zeta) for zeta in decay]
    c, d = _pole_strip(theta, a, np.ravel(poles).astype(complex).tobytes())
    for zeta in decay if math.isinf(a) else decay[1:]:   # the unbounded ends
        d = min(d, math.atan2(zeta.real, abs(zeta.imag)))
    if d < 1e-3:
        raise InvalidContour(f"no strip of analyticity around the rays at theta={theta:.6f} "
                             f"(half-width {d:.2e}): a pole lies on them or F does not decay")
    M = max(magnitude, 1.0)
    end_tol = 2.0 * np.pi * _SHARE * tol

    def cut(sign):
        if sign > 0 or math.isinf(a):     # M r^-eta / eta at the end node
            eta = decay[sign > 0].real
            return float(np.real(_to_x(complex(sign * math.log(M / (eta * end_tol)) / eta), a)))
        # the log-radius length left inside the end node, times the bound at rho
        bound = M * math.exp(min(decay[0].real * a, -decay[1].real * a))
        return math.log(math.expm1(min(end_tol / bound, 1.0)))

    h = 2.0 * np.pi * d / max(math.log(M / (_SHARE * tol)), 4.0)
    return ContourSpec(rho, theta, n_arc, c, h, math.asinh(min(cut(-1.0), c - 1.0) - c),
                       math.asinh(max(cut(1.0), c + 1.0) - c))


@functools.lru_cache(maxsize=64)
def _legendre_rule(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The q-point Gauss-Legendre rule on [-1, 1], read-only, computed
    once per q."""
    # numpy.polynomial takes 2-7 ms to import, which a process that needs
    # no Gauss-Legendre rule (a certification) does not pay
    from numpy.polynomial.legendre import leggauss

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
    """(lambda, weight) arrays for the contour: the arc first, then per
    node of the ray rule (u increasing) the upper ray and the lower ray.

    Weights carry the positive-orientation signs (lower ray inward, arc
    with decreasing angle, upper ray outward) and the 1/(2 pi i) factor.
    """
    return _nodes(spec, _ray_rule(spec))


@functools.lru_cache(maxsize=64)
def _angle_tables(theta: float, n_arc: int):
    """What a path's nodes take from theta and n_arc alone, read-only and
    computed once per value of those: the ray directions e^{+-i theta},
    and at the arc's n_arc Gauss-Legendre angles x the unit nodes
    e^{i (pi + x)} and -i times the angle weights."""
    d = np.exp([1j * theta, -1j * theta])
    half = np.pi - theta
    x, w = gauss_panels([-half, half], n_arc) if n_arc else (np.zeros(0), np.zeros(0))
    unit, dw = np.exp(1j * (np.pi + x)), -w * 1j
    for table in (d, unit, dw):
        table.flags.writeable = False
    return d, unit, dw


def _nodes(spec: ContourSpec, rule) -> tuple[np.ndarray, np.ndarray]:
    """build_nodes(spec) on the spec's ray rule, already taken."""
    d, unit, dw = _angle_tables(spec.theta, spec.n_arc if spec.rho > 0 else 0)
    s, ds, step, _ = rule
    n_arc = len(unit)
    lam = np.empty(n_arc + 2 * len(s), dtype=complex)
    w = np.empty_like(lam)
    # d lambda = i rho e^{i phi} d phi, traversed with phi decreasing
    np.multiply(spec.rho, unit, out=lam[:n_arc])
    np.divide(dw * lam[:n_arc], _TWO_PI_I, out=w[:n_arc])
    # d lambda = lambda (ds/du) du; per node the upper ray (out), then the lower (in)
    r = np.exp(s)[:, None]
    np.multiply(r, d, out=lam[n_arc:].reshape(-1, 2))
    np.divide((step * ds)[:, None] * r * d * _SIGNS, _TWO_PI_I, out=w[n_arc:].reshape(-1, 2))
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
        whose stacks fit :func:`linops.stack_step` (the first chunk is one
        node, which sets the chunk size), each reduced against the
        weights by one matrix product on the stack's own layout.  Any
        SingularShift raised by it propagates: the contour touches a
        spectrum and the caller chose a bad path.
    decay_exponent : float
        eta such that the integrand decays like |lambda|^(-1-eta) at infinity.
    tol_tail : float, optional
        If given, an estimate above it is read again with the rays
        summed, D = lambda F(lambda) on the upper ray less the lower (F
        called again on each ray's last two nodes): ||D|| at the cut,
        plus how far it moved from the node before at the stated decay,
        in place of the two rays' norms.  That sees the tails cancel past
        the cut, and not a D that changes sign at it.  Raise
        TruncationNotConverged when it exceeds tol_tail too, else return
        it as the estimate.  Both take F to decay so from the cut on.

    The tail estimate sums over the four ray ends g / (2 pi) times the
    log-radius length the rule leaves out there: the length down to rho
    inside the inner end of rays from rho > 0, else 1 / eta, with eta =
    ``decay_exponent`` at infinity and, toward the origin, the decay g
    shows between the two innermost nodes.  g = ||F(lambda)|| |lambda| at
    the end node, in the spectral norm: |v| of a scalar, max_i |v_i| of a
    1-D value (a matrix held on its eigenvalues), the largest singular
    value of a matrix.  Norms are taken at the nodes the estimate reads
    and nowhere else: each ray's inner end node, the next node only on
    rays from the origin, and the outer end node.  It covers the
    truncation of the rays only: the arc's fixed ``n_arc``-point
    Gauss-Legendre rule carries no error estimate, and loses digits when
    a pole of the integrand comes near the arc, so the caller keeps the
    poles well off it
    (``calculus.power_contour``'s radius 0.4/||A^{-1}|| leaves every
    eigenvalue at |lambda| >= 2.5 rho).

    This is the weighted sum of :func:`_resolvent_sum` with g = 1.
    """
    return _resolvent_sum(spec, np.ones_like, integrand,
                          decay_exponent=decay_exponent, tol_tail=tol_tail)


def _resolvent_sum(spec: ContourSpec, g, resolve, back=None, real: bool = False,
                   item_bytes: int | None = None, decay_exponent: float = 1.0,
                   tol_tail: float | None = None) -> DunfordResult:
    """(1/2 pi i) int of g(lambda) R(lambda) dlambda over spec, the
    one weighted reduction behind every contour sum.

    g is a scalar weight (vectorised over the nodes) and ``resolve``
    maps a chunk of nodes to the (k, ...) stack of R there, in a basis
    that ``back`` maps a (columns, ...) sum out of (the identity when
    None).  Per chunk, c_k = w_k g(lambda_k) is reduced against the
    stack by one matrix product (:func:`_weigh`).  Chunks hold
    ``item_bytes``-byte values up to :func:`linops.stack_step`; without
    ``item_bytes`` the first chunk is one node, which sets it.  The tail
    estimate and its gate are :func:`dunford`'s, with ||g R|| = |g| ||R||
    (norms in R's unitary basis) at the end nodes it reads, whose few
    indices are all the bookkeeping it keeps.

    ``real`` declares back(R(conj(lambda))) = conj(back(R(lambda))):
    true of the resolvents of a real matrix, and of products of those of
    two, in whatever basis they are held, since (A + conj(lambda))^{-1} =
    conj((A + lambda)^{-1}) and back is linear.  Once the lower ray's
    nodes are checked to be the exact conjugates of the upper ray's,
    only the arc and the upper ray are resolved: the lower ray's sum is
    conj(back(sum_k conj(c_dn,k) R_up,k)), a second column of the same
    product.
    """
    rule = _ray_rule(spec)
    lam, w = _nodes(spec, rule)
    s, _, _, rest_in = rule
    n_arc = len(lam) - 2 * len(s)
    gv = g(lam)
    with np.errstate(over="ignore", invalid="ignore"):
        c = w * gv
    if not np.isfinite(c).all():
        # a slow decay cuts the rays where |w_k g(lambda_k)| passes the double range
        raise TruncationNotConverged(
            f"node weights overflow on rays out to |lambda| = {np.abs(lam).max():.3e} "
            f"(u_hi = {spec.u_hi:.3f}): decay exponent {decay_exponent} is too slow "
            f"for a finite ray rule")
    # the ray-rule nodes the tail estimate reads: the inner end, the next
    # node for rays from the origin (the decay toward 0), the outer end
    ends = [0, 1, len(s) - 1] if math.isinf(rest_in) else [0, len(s) - 1]
    # nodes resolved: all of them, or for a real R the arc and the upper ray
    if real and np.array_equal(lam[n_arc + 1::2], lam[n_arc::2].conj()):
        nodes = np.concatenate([lam[:n_arc], lam[n_arc::2]])
        cols = np.zeros((len(nodes), 2), dtype=complex)
        cols[:n_arc, 0] = c[:n_arc]
        cols[n_arc:, 0] = c[n_arc::2]
        cols[n_arc:, 1] = c[n_arc + 1::2].conj()
        # both rays' j-th nodes read the upper one's R
        read = {n_arc + j: [(i, 0), (i, 1)] for i, j in enumerate(ends)}
    else:
        nodes, cols = lam, c[:, None]
        read = {n_arc + 2 * j + ray: [(i, ray)] for i, j in enumerate(ends) for ray in (0, 1)}
    r_norms = np.zeros((len(ends), 2))   # ||R|| at the end nodes, per ray
    acc, lo = 0.0, 0
    step = 1 if item_bytes is None else stack_step(item_bytes)
    while lo < len(nodes):
        R = np.asarray(resolve(nodes[lo:lo + step]), dtype=complex)
        acc = acc + _weigh(cols[lo:lo + step], R)
        at = [k for k in read if lo <= k < lo + len(R)]
        if at:
            for k, norm in zip(at, _node_norms(R[[k - lo for k in at]])):
                for slot in read[k]:
                    r_norms[slot] = norm
        lo += len(R)
        step = stack_step(R[0].nbytes)
    value = acc if back is None else back(acc)
    value = value[0] + value[1].conj() if cols.shape[1] == 2 else value[0]
    # |g| ||R|| |lambda| at the end nodes read, a row (upper, lower) per node
    gn = (np.abs(gv[n_arc:].reshape(-1, 2)[ends]) * r_norms * np.exp(s[ends])[:, None]).tolist()
    tail = 0.0
    for ray in (0, 1):
        g_in = gn[0][ray]
        if not math.isinf(rest_in):
            inner = g_in * rest_in
        elif g_in == 0:
            inner = 0.0
        else:
            # toward the origin, the decay g shows between the two innermost nodes
            ratio = gn[1][ray] / g_in
            eta_0 = float(np.log(ratio)) / float(s[1] - s[0]) if ratio > 0 else -math.inf
            inner = g_in / eta_0 if eta_0 > 0 else math.inf
        tail += inner + gn[-1][ray] * (1.0 / max(decay_exponent, 1e-3))
    tail /= 2.0 * np.pi
    if tol_tail is not None and tail > tol_tail:
        eta = max(decay_exponent, 1e-3)
        # the outer end read again with the rays summed (see dunford):
        # D = F_up - F_down at the rays' last two nodes, which resolve
        # once more, the inner one's carried to the cut at the decay eta
        R = np.asarray(resolve(lam[-4:]), dtype=complex)
        F = R * (gv[-4:] * lam[-4:]).reshape((4,) + (1,) * (R.ndim - 1))
        d_in, d_out = _node_norms(F[0::2] - F[1::2]).tolist()
        d_in *= math.exp(-eta * float(s[-1] - s[-2]))
        summed = tail - (gn[-1][0] + gn[-1][1] - d_out - abs(d_out - d_in)) / (2.0 * np.pi * eta)
        if summed > tol_tail:
            raise TruncationNotConverged(
                f"tail estimate {tail:.3e} ({summed:.3e} with the rays' outer ends summed) "
                f"exceeds tol_tail {tol_tail:.3e}: rays over u in [{spec.u_lo:.3f}, "
                f"{spec.u_hi:.3f}] cut at |lambda| = {abs(lam[-1]):.3e}, decay exponent "
                f"{decay_exponent:.4g} at infinity; pass a finer ray rule or a "
                f"faster-decaying weight")
        tail = summed
    return DunfordResult(value, tail, len(lam))


def _node_norms(R: np.ndarray) -> np.ndarray:
    """The spectral norm of each value of a stack: |v| of a scalar,
    max_i |v_i| of a 1-D value (a matrix held on its eigenvalues), the
    largest singular value of a matrix."""
    if R.ndim <= 2:
        return np.abs(R.reshape(len(R), -1)).max(axis=1)
    return np.linalg.norm(R, 2, axis=(-2, -1))


def _weigh(c: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_k c[k, j] stack[k] for every column j of c, as a (columns,
    ...) array: one matrix product on the stack's own memory layout,
    nodes last (triangular_resolvents' (n, n, k)) or first (the (k, n)
    of spectral_resolvents)."""
    k = stack.shape[0]
    last = stack.transpose(tuple(range(1, stack.ndim)) + (0,))
    if last.flags.c_contiguous:
        out = (last.reshape(-1, k) @ c).T
    else:
        out = c.T @ stack.reshape(k, -1)
    return out.reshape((c.shape[1],) + stack.shape[1:])


# ------------------------------------------------------------ principal value


def pv_integral(
    kernel: Callable[[np.ndarray], np.ndarray],
    cutoff: float,
    n_nodes: int = 200,
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
        If s*kernel(s) and -s*kernel(-s) disagree as s -> 0 (by more than
        1e-6 relative at the finer probe, not shrinking with s), i.e. the
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
    if resids[1] > 1e-6 * max(scale, 1.0) and resids[1] > 0.5 * resids[0]:
        raise AsymmetryDetected(
            f"divergent part not odd: residuals {resids[0]:.3e}, {resids[1]:.3e} "
            f"do not vanish toward s = 0"
        )
    pairs = values[4:4 + len(s)] + values[4 + len(s):]
    return np.einsum("k,k...->...", w, pairs)

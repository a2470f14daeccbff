"""Holomorphic functional calculus: complex and imaginary powers, bounded
imaginary power fits, decay-classed symbols and their calculus.

Complex powers with Re z < 0 come from the contour integral

    A^z = (1/2 pi i) * int over Gamma_{rho,theta} of (-lambda)^z (A+lambda)^{-1} dlambda

with (-lambda)^z on the principal branch (argument in (-pi, pi]), which
is continuous along the path because the rays keep arg(-lambda) at
+-(theta - pi).  A^0 is the identity by definition.  The H^inf calculus
f(-A) is the same integral with f(lambda) in place of (-lambda)^z.  Both
hold the resolvents in A's unitary basis (`MatrixOperator.resolvent_basis`:
the eigenbasis of a normal A, else its cached Schur form) and hand the
weight g and the stack of `linops.basis_resolvents` there to contour's
weighted reduction, which reduces each chunk against w_k g(lambda_k) in
one matrix product and maps back with one `linops.from_basis` per
integral.  For a real A the lower ray's resolvents are the conjugates of
the upper ray's, so only the arc and the upper ray are resolved.

Imaginary powers are A^{it} = A A^{-1+it}, with A^{-1+it} the same
integral on the contour of complex_power at z = -1 + i t_max.  On the
rays lambda = r e^{+-i theta}, (-lambda)^{it} = r^{it} e^{-+t (pi - theta)}
separates from the resolvents, so ImaginaryPowerFamily stores them at
the nodes once and sums the table for many t in a few matrix products;
the quadrature's error is amplified by at most e^{|t| (pi - theta)}.
The family depends only on A, its certificate and t_max, so every
caller in the library takes it from the two most recently used ones
that A keeps (`_cached_family`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import linops
from .contour import (ContourSpec, DunfordResult, _resolvent_sum, build_nodes, fit_contour,
                      gauss_panels)
from .errors import ClassViolated
from .linops import _sorted_distinct
from .sector import MatrixOperator, kept

_EYE = lambda n: np.eye(n, dtype=complex)  # noqa: E731


# ------------------------------------------------------- symbol integrals


def _symbol_integral(
    A: MatrixOperator,
    spec: ContourSpec,
    g: Callable[[np.ndarray], np.ndarray],
    decay_exponent: float,
    tol: float,
) -> DunfordResult:
    """(1/2 pi i) int of g(lambda) (A + lambda)^{-1} dlambda over spec.

    contour's weighted reduction takes g and the resolvents held in A's
    unitary basis (:func:`linops.basis_resolvents`: an (N, n) scalar
    stack for a normal A, a triangular stack otherwise) and maps the sum
    back once (:func:`linops.from_basis`).  Q is unitary, so every
    node's spectral norm, and with it the tail estimate, is the one of
    the dense (A + lambda_k)^{-1} stack.  For a real A the lower ray is
    read off the upper one's resolvents.
    """
    basis = A.resolvent_basis()
    return _resolvent_sum(spec, g, lambda lam: linops.basis_resolvents(basis, lam),
                          back=lambda X: linops.from_basis(basis, X),
                          real=not A.matrix.imag.any(), item_bytes=16 * basis[0].size,
                          decay_exponent=decay_exponent, tol_tail=tol)


# ----------------------------------------------------------- complex powers


def power_contour(A: MatrixOperator, z: complex, tol: float = 1e-9) -> ContourSpec:
    """Default contour for A^z: angle capped at pi/2 (widest analyticity
    strip in log-radius), arc radius inside the resolvent disk at 0, and
    the ray rule fitted to -sigma(A) and the |lambda|^(Re z) decay of
    lambda (-lambda)^z (A + lambda)^{-1}."""
    theta = min(0.5 * np.pi, 0.95 * A.angle())
    growth = np.exp(abs(np.imag(z)) * (np.pi - theta))
    K = A.constant() if A.certified else 2.0
    return fit_contour(theta, -linops.basis_eigenvalues(A.resolvent_basis()),
                       (1.0 + z, -z),
                       growth * max(K + 1.0, 2.0 * A.inverse_norm()), 0.25 * tol,
                       rho=0.4 / A.inverse_norm(), n_arc=24)


def complex_power(
    A: MatrixOperator,
    z: complex,
    spec: ContourSpec | None = None,
    tol: float = 1e-9,
    with_info: bool = False,
):
    """A^z for Re z < 0 (A^0 = I) by contour quadrature.

    Requires a certified operator whose angle is at least the contour
    angle and whose resolvent disk at the origin contains the arc.
    """
    z = complex(z)
    if z == 0:
        res = _EYE(A.dim)
        return (res, None) if with_info else res
    if np.real(z) >= 0:
        raise ValueError(f"complex_power needs Re z < 0, got z={z}")
    if A.certified is None:
        raise ValueError("operator must be certified before taking powers")
    if spec is None and np.real(z) > -0.5:
        # shallow exponents leave an r^{Re z - 1} integrand whose tail
        # cannot be truncated affordably; shift through A^z = A A^{z-1}
        value, info = complex_power(A, z - 1.0, tol=tol, with_info=True)
        res = A.matrix @ value
        return (res, info) if with_info else res
    spec = spec or power_contour(A, z, tol)
    if spec.theta > A.angle() + 1e-12:
        raise ValueError(
            f"contour angle {spec.theta} exceeds certified angle {A.angle()}"
        )

    info = _symbol_integral(A, spec, lambda lam: (-lam) ** z, -np.real(z), tol)
    return (info.value, info) if with_info else info.value


def fractional_power(A: MatrixOperator, s: float, tol: float = 1e-9) -> np.ndarray:
    """A^s for real s in (-1, 1), via A^s = A * A^{s-1} when s > 0."""
    if not (-1.0 < s < 1.0):
        raise ValueError(f"fractional_power handles s in (-1,1), got {s}")
    if s == 0.0:
        return _EYE(A.dim)
    if s < 0:
        return complex_power(A, s, tol=tol)
    return A.matrix @ complex_power(A, s - 1.0, tol=tol)


# --------------------------------------------------------- imaginary powers


def _phase_tables(mid: np.ndarray, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """The two short tables of an arithmetic progression ``mid`` with
    common difference ``spacing``: with B = ceil(sqrt(len(mid))),
    mid[B j + r] = head[r] + step[j] for r < B, up to rounding."""
    B = math.isqrt(len(mid) - 1) + 1
    return mid[:B], spacing * B * np.arange(-(-len(mid) // B))


def _progression_phases(t: np.ndarray, head: np.ndarray, step: np.ndarray,
                        n: int) -> np.ndarray:
    """e^{it mid_p} for p < n as an (n_t, n) array, from the tables of
    :func:`_phase_tables`: the outer product of e^{it step_j} and
    e^{it head_r}, len(head) + len(step) exponentials per t."""
    phases = (np.exp(1j * np.multiply.outer(t, step))[:, :, None]
              * np.exp(1j * np.multiply.outer(t, head))[:, None, :])
    return phases.reshape(len(t), len(step) * len(head))[:, :n]


class ImaginaryPowerFamily:
    """Precomputed quadrature data for t -> A^{it}, |t| <= t_max.

    A^{it} = A A^{-1+it}, and A^{-1+it} = sum_k w_k (-lam_k)^{-1+it}
    (A + lam_k)^{-1} over power_contour(A, -1 + i t_max, 1e-10): the arc,
    the lower ray inward, the upper ray outward, the rays in panels
    uniform in s = log r and no wider than min(0.8, 6 / t_max).  ``table``
    holds the resolvents at the nodes ``lam`` in A's unitary basis.  Node
    q of panel p sits at s = mid_p + offset_q, so on the rays
    w_k (-lam_k)^{-1+it} is +-(w_q / 2 pi i) e^{it mid_p} e^{it offset_q}
    e^{-+t (pi - theta)}.  The panel midpoints are an arithmetic
    progression, so with p = B j + r and B = ceil(sqrt(n_panel)) the
    phases e^{it mid_p} are the outer product of e^{it mid_r} (r < B)
    and e^{it 2 half B j}: a t costs ceil(n_panel / B) + B + 10 + n_arc
    exponentials.

    The table's entries that are zero at every node (a Schur basis'
    lower triangle) are found and left out once, here; ``table`` puts
    them back on access.  :meth:`at_many` sums a normal operator's
    (N, n) table panel first: for each ray, one product of the
    (n_t, n_panel) phases e^{it mid_p} with the table's rows as
    (n_panel, 10 n) blocks, then the weights e^{it offset_q} w_q and
    e^{-+t (pi - theta)} over the 10 offsets.  A Schur basis' table,
    whose used entries the blocks would have to gather into node-major
    order on every call, takes the (n_t, 10 n_panel) products
    e^{it mid_p} e^{it offset_q} times the table.  Either order is the
    node-by-node sum over the stored table up to rounding.
    """

    def __init__(self, A: MatrixOperator, t_max: float = 8.0):
        self.A = A
        self.t_max = float(t_max)
        spec = power_contour(A, -1.0 + 1j * self.t_max, 1e-10)
        self._decay = np.pi - spec.theta
        lam, w = build_nodes(spec)
        arc, arc_w = lam[:spec.n_arc], w[:spec.n_arc]
        self._log_arc = np.log(-arc)
        # the rays over the span of the fitted rule's nodes
        lo, hi = np.log(spec.rho), np.log(np.abs(lam).max())
        n_panel = int(np.ceil((hi - lo) / min(0.8, 6.0 / max(self.t_max, 1.0))))
        half = 0.5 * (hi - lo) / n_panel
        self._mid = lo + (2 * np.arange(n_panel) + 1) * half
        self._head, self._step = _phase_tables(self._mid, 2.0 * half)
        self._offset, ws = gauss_panels([-half, half], 10)
        self._panel_w = ws / (2j * np.pi)
        # dlambda = lambda ds on the rays; the lower ray runs inward
        r = np.exp(np.add.outer(self._mid, self._offset)).reshape(-1)
        ray_w = np.tile(self._panel_w, n_panel) * r
        dn, up = np.exp(-1j * spec.theta), np.exp(1j * spec.theta)
        self.lam = np.concatenate([arc, r * dn, r * up])
        self.w = np.concatenate([arc_w, -ray_w * dn, ray_w * up])
        self._basis = A.resolvent_basis()
        # in stack-budget chunks; a node's resolvent has D's entry count
        step = linops.stack_step(16 * self._basis[0].size)
        table = np.concatenate([
            linops.basis_resolvents(self._basis, self.lam[k:k + step])
            for k in range(0, len(self.lam), step)
        ])
        self._shape = table.shape[1:]
        table = table.reshape(len(self.lam), -1)
        # entries zero at every node (a Schur basis' lower triangle) stay out
        self._used = np.flatnonzero(table.any(axis=0))
        if len(self._used) < table.shape[1]:
            table = table[:, self._used]
        self._arc_t, dn_t, up_t = np.split(table, [spec.n_arc, spec.n_arc + r.size])
        self._panel_first = self._basis[0].ndim == 1
        if self._panel_first:
            # row p: the entries at nodes (p, 0), ..., (p, 9), a view of a
            # normal basis' node-major table
            dn_t, up_t = dn_t.reshape(n_panel, -1), up_t.reshape(n_panel, -1)
        self._dn_t, self._up_t = dn_t, up_t

    def at(self, t: float) -> np.ndarray:
        """A^{it} as a dense matrix."""
        return self.at_many([t])[0]

    def at_many(self, ts) -> np.ndarray:
        """A^{it} for every t as an (n_t, n, n) array: per chunk of t, one
        product with the arc's part of the table and one sum over the rays'
        part, panel first on a normal table (see the class); then one map
        back and one product with A.  A^{i0} is the identity, exactly.
        Raises ValueError for |t| > t_max, where the contour was not sized."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        if np.any(np.abs(ts) > self.t_max):
            raise ValueError(
                f"|t| = {np.max(np.abs(ts))} exceeds the family's t_max = {self.t_max}")
        n_arc, n_panel, n_q = len(self._log_arc), len(self._mid), len(self._offset)
        dn_t, up_t = self._dn_t, self._up_t
        out = np.zeros((len(ts), int(np.prod(self._shape))), dtype=complex)
        # per t: the arc, panel and offset phases and both rays' panel
        # products; or the outer product of the phases, the two ray sums
        # and the arc's
        used = len(self._used)
        step = linops.stack_step(16 * (n_arc + n_panel + n_q + 2 * dn_t.shape[1]
                                       if self._panel_first else n_panel * n_q + 3 * used))
        for lo in range(0, len(ts), step):
            t = ts[lo:lo + step]
            arc = np.exp(np.multiply.outer(-1.0 + 1j * t, self._log_arc)) * self.w[:n_arc]
            phase = np.exp(1j * np.multiply.outer(t, self._offset)) * self._panel_w
            panel = _progression_phases(t, self._head, self._step, n_panel)
            grow = np.exp(self._decay * t)[:, None]
            if self._panel_first:
                # each offset's sum over the panels first, then its weight
                ray_sum = sum((w[:, None] @ (panel @ tab).reshape(len(t), n_q, -1))[:, 0]
                              for w, tab in ((phase / grow, dn_t), (-grow * phase, up_t)))
            else:
                ray = (panel[:, :, None] * phase[:, None, :]).reshape(len(t), -1)
                # (ray @ dn_t) / grow - grow * (ray @ up_t), in place
                ray_sum = ray @ dn_t
                ray_sum /= grow
                up_sum = ray @ up_t
                up_sum *= grow
                ray_sum -= up_sum
            ray_sum += arc @ self._arc_t
            out[lo:lo + step, self._used] = ray_sum
        X = out.reshape((len(ts),) + self._shape)
        res = self.A.matrix @ linops.from_basis(self._basis, X)
        res[ts == 0.0] = _EYE(self.A.dim)
        return res


#: families kept on an operator, and the most bytes of node tables a kept
#: family may hold (a Schur table at n = 128 holds about 150 MB)
_FAMILIES_KEPT = 2
_FAMILY_BYTES = 16 << 20


def _cached_family(A: MatrixOperator, t_max: float) -> ImaginaryPowerFamily:
    """A's ImaginaryPowerFamily for t_max under its current certificate.

    The family depends on A, its certificate and t_max only, so A keeps
    the _FAMILIES_KEPT most recently used ones, keyed by
    ("family", t_max, certificate), with read-only arrays
    (:func:`sector.kept`).  A family whose node tables exceed
    _FAMILY_BYTES (16 MiB) is returned but not kept.
    ``ImaginaryPowerFamily(A, t_max)`` itself always builds a fresh one.
    """
    return kept(A, ("family", float(t_max), A.certified),
                lambda: ImaginaryPowerFamily(A, t_max), recent=_FAMILIES_KEPT,
                keep=lambda fam: fam._arc_t.nbytes + fam._dn_t.nbytes + fam._up_t.nbytes
                <= _FAMILY_BYTES)


def imaginary_power(A: MatrixOperator, t: float) -> np.ndarray:
    """A^{it} on the contour of complex_power, sized for max(|t|, 1),
    from A's kept family for that size (:func:`_cached_family`)."""
    return _cached_family(A, max(abs(t), 1.0)).at(t)


@dataclass
class BipFit:
    """Fit of log ||A^{it}|| <= log M + phi |t| over a symmetric grid."""

    M: float
    phi: float
    t_grid: np.ndarray
    norms: np.ndarray


def bip_fit(A: MatrixOperator, t_max: float = 4.0, n_t: int = 17) -> BipFit:
    """Least-squares fit of log ||A^{it}|| against |t|, one branch per
    sign of t (growth can be one-sided), then a one-sided shift so
    M e^{phi |t|} dominates every sample.  The family is A's kept one
    for t_max (:func:`_cached_family`)."""
    fam = _cached_family(A, t_max)
    t_grid = np.linspace(-t_max, t_max, n_t)
    norms = np.linalg.norm(fam.at_many(t_grid), 2, axis=(1, 2))
    x = np.abs(t_grid)
    y = np.log(np.maximum(norms, 1e-300))
    phi = 0.0
    for branch in (t_grid >= 0, t_grid <= 0):
        if np.count_nonzero(branch) >= 2:
            slope, _ = np.polyfit(x[branch], y[branch], 1)
            phi = max(phi, float(slope))
    # raise the intercept until the bound holds at every sample
    intercept = float(np.max(y - phi * x))
    M = max(1.0, float(np.exp(intercept)))
    return BipFit(M=M, phi=phi, t_grid=t_grid, norms=norms)


def cached_bip_fit(A: MatrixOperator) -> BipFit:
    """bip_fit(A) at its defaults, taken once per certificate of A and
    kept on A, one at a time, with read-only arrays (:func:`sector.kept`).
    The fit depends on A and its certificate only, so a certification to
    another sector or constant refits.  Its family (t_max 4) is taken
    from A's kept families (:func:`_cached_family`)."""
    return kept(A, ("bip", A.certified), lambda: bip_fit(A), recent=1)


# ------------------------------------------------------------------- symbols


@dataclass(frozen=True)
class HolomorphicSymbol:
    """Scalar symbol on the complement of Lambda_theta with a declared
    decay class.

    decay = "h0":       |f| <= c (|lambda| / (1+|lambda|^2))^eta
    decay = "extended": |f| <= c |lambda|^eta / (1+|lambda|), eta in (0,1)

    The default contour of :func:`hinf_apply` takes the evaluator to be
    singular only at lambda = 1, as every builtin symbol is; for a symbol
    singular elsewhere off the sector, pass a ``spec`` fitted to its
    singular points (``contour.fit_contour``), or the ray rule's step may
    not resolve them and no tail estimate reports it.
    """

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    theta: float
    decay: str
    c: float
    eta: float

    def __post_init__(self):
        if self.decay not in ("h0", "extended"):
            raise ValueError(f"unknown decay class {self.decay!r}")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.decay == "extended" and not (0.0 < self.eta < 1.0):
            raise ValueError("extended class needs eta in (0,1)")

    def __call__(self, lam):
        return self.evaluator(np.asarray(lam, dtype=complex))

    def envelope(self, lam) -> np.ndarray:
        """The declared majorant evaluated at lam."""
        r = np.abs(np.asarray(lam, dtype=complex))
        if self.decay == "h0":
            return self.c * (r / (1.0 + r * r)) ** self.eta
        return self.c * r ** self.eta / (1.0 + r)

    def decay_at_infinity(self) -> float:
        """Exponent eta' with |f| = O(|lambda|^-eta') as |lambda| -> inf."""
        return self.eta if self.decay == "h0" else 1.0 - self.eta

    def decay_at_zero(self) -> float:
        return self.eta

    @functools.cached_property
    def _class_record(self) -> dict:
        """:func:`symbol_class_check` of this symbol, taken on first use
        and kept on it: its fields are fixed, so the check's record is
        too.  A check that raises keeps nothing, so every use raises."""
        return symbol_class_check(self)


def _offsector_samples(theta: float) -> np.ndarray:
    """The standard off-sector grid: 60 log-spaced radii in [1e-8, 1e8]
    and radius 1, on 17 angles from theta to 2 pi - theta."""
    radii = _sorted_distinct(np.concatenate([np.geomspace(1e-8, 1e8, 60), [1.0]]))
    angles = np.linspace(theta, 2.0 * np.pi - theta, 17)
    return np.multiply.outer(radii, np.exp(1j * angles)).reshape(-1)


def _envelope_ratio(f: HolomorphicSymbol, lam: np.ndarray) -> np.ndarray:
    """|f| over its declared envelope at every lam."""
    return np.abs(f(lam)) / np.maximum(f.envelope(lam), 1e-300)


def symbol_class_check(f: HolomorphicSymbol) -> dict:
    """Verify |f| against its declared envelope on the standard log-polar
    grid off the sector at f.theta.  Returns the check record; raises
    ClassViolated with the offending point when the inequality fails."""
    lam = _offsector_samples(f.theta)
    ratio = _envelope_ratio(f, lam)
    worst = int(np.argmax(ratio))
    record = {
        "symbol": f.name,
        "theta": f.theta,
        "decay": f.decay,
        "c": f.c,
        "eta": f.eta,
        "worst_ratio": float(ratio[worst]),
        "worst_lambda": [float(lam[worst].real), float(lam[worst].imag)],
        "n_samples": int(lam.size),
        "passed": bool(ratio[worst] <= 1.0 + 1e-9),
    }
    if not record["passed"]:
        raise ClassViolated(
            f"symbol {f.name!r}: |f| exceeds its declared envelope by factor "
            f"{ratio[worst]:.4g} at lambda={lam[worst]:.6g}",
            point=complex(lam[worst]),
        )
    return record


def builtin_symbols(theta: float) -> dict[str, HolomorphicSymbol]:
    """Builtin symbol registry at a given sector angle.

    The decay constants c are measured on the standard off-sector grid
    and padded by 5 percent, so every builtin passes its own class check
    by construction; a theta so small that c overflows (every builtin
    has its pole at 1, at a distance of about theta) raises ClassViolated.
    """

    def sqrt_over_1minus(lam):
        return np.sqrt(-lam + 0j) / (1.0 - lam)

    def cayley_squared(lam):
        return -lam / (1.0 - lam) ** 2

    def rational_eta(lam):
        return (-lam / (1.0 - lam) ** 2 + 0j) ** 0.5

    lam = _offsector_samples(theta)
    reg = {}
    for name, evaluator, decay, eta in (
        ("sqrt-over-1minus", sqrt_over_1minus, "extended", 0.5),
        ("cayley-squared", cayley_squared, "h0", 1.0),
        ("rational-eta", rational_eta, "h0", 0.5),
    ):
        f = HolomorphicSymbol(name, evaluator, theta, decay, c=1.0, eta=eta)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            c = 1.05 * float(np.max(_envelope_ratio(f, lam)))
        if not np.isfinite(c):
            raise ClassViolated(f"symbol {name!r} has no finite decay constant at "
                                f"theta={theta:.3g}: its pole at 1 is within rounding of the rays")
        reg[name] = replace(f, c=c)
    return reg


# ------------------------------------------------------------- H-inf calculus


def hinf_contour(f: HolomorphicSymbol, A: MatrixOperator, tol: float = 1e-9) -> ContourSpec:
    """Gamma_theta (rho = 0) with the ray rule fitted to -sigma(A), the
    symbol's pole at lambda = 1 (its decay classes are normalised there,
    and every builtin symbol is singular there) and its decay exponents."""
    K = A.constant() if A.certified else 2.0
    poles = np.append(-linops.basis_eigenvalues(A.resolvent_basis()), 1.0)
    return fit_contour(f.theta, poles, (1.0 + f.decay_at_zero(), f.decay_at_infinity()),
                       f.c * max(K + 1.0, 2.0 * A.inverse_norm()), 0.25 * tol)


def hinf_apply(
    f: HolomorphicSymbol,
    A: MatrixOperator,
    spec: ContourSpec | None = None,
    tol: float = 1e-9,
    with_info: bool = False,
):
    """f(-A) = (1/2 pi i) int over Gamma_theta of f(lambda) (A+lambda)^{-1} dlambda.

    The operator must be certified strictly above the symbol angle, so
    the spectrum of -A stays inside the region the path encloses.  With
    ``with_info``, returns (value, DunfordResult).  f's decay class is
    checked (:func:`symbol_class_check`) on f's first use and the passing
    record kept on f, so a symbol that breaks its envelope raises
    ClassViolated on every call.

    Without ``spec``, :func:`hinf_contour` fits the ray rule to -sigma(A)
    and to lambda = 1 as f's only singular point; for a symbol singular
    elsewhere, pass a spec from ``contour.fit_contour`` with its
    singular points among the poles.
    """
    if A.certified is None or A.angle() <= f.theta:
        raise ValueError(
            "operator must be certified at an angle strictly above the symbol angle"
        )
    f._class_record  # noqa: B018 -- ClassViolated unless f keeps a passing check
    spec = spec or hinf_contour(f, A, tol)

    info = _symbol_integral(A, spec, f, f.decay_at_infinity(), tol)
    return (info.value, info) if with_info else info.value


def hinf_constant(A: MatrixOperator, family: Sequence[HolomorphicSymbol]) -> float:
    """Sampled lower bound for the calculus constant: max over the
    family of ||f(-A)|| / sup |f|, each symbol at its own angle."""
    family = list(family)
    if not family:
        raise ValueError("hinf_constant needs a nonempty symbol family")
    best = 0.0
    for f in family:
        fA = hinf_apply(f, A)
        sup_f = float(np.max(np.abs(f(_offsector_samples(f.theta)))))
        best = max(best, linops.operator_norm(fA) / max(sup_f, 1e-300))
    return best

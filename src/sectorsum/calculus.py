"""Holomorphic functional calculus: complex and imaginary powers, bounded
imaginary power fits, decay-classed symbols and their calculus.

Complex powers with Re z < 0 come from the contour integral

    A^z = (1/2 pi i) * int over Gamma_{rho,theta} of (-lambda)^z (A+lambda)^{-1} dlambda

with (-lambda)^z on the principal branch (argument in (-pi, pi]), which
is continuous along the path because the rays keep arg(-lambda) at
+-(theta - pi).  A^0 is the identity by definition.  The H^inf calculus
f(-A) is the same integral with f(lambda) in place of (-lambda)^z.  Both
hold the resolvents in A's unitary basis (`MatrixOperator.resolvent_basis`:
the eigenbasis of a normal A, else its cached Schur form), reduce
g(lambda_k) times the stack of `linops.basis_resolvents` there and map
back with one `linops.from_basis` per integral.

Imaginary powers are A^{it} = A A^{-1+it}, with A^{-1+it} the same
integral on the contour of complex_power at z = -1 + i t_max.  On the
rays lambda = r e^{+-i theta}, (-lambda)^{it} = r^{it} e^{-+t (pi - theta)}
separates from the resolvents, so ImaginaryPowerFamily stores them at
the nodes once and sums the table for many t in one matrix product; the
quadrature's error is amplified by at most e^{|t| (pi - theta)}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import linops
from .contour import ContourSpec, DunfordResult, build_nodes, dunford, fit_contour, gauss_panels
from .errors import ClassViolated
from .sector import MatrixOperator

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

    dunford reduces g(lambda_k) times the resolvents held in A's unitary
    basis (:func:`linops.basis_resolvents`: an (N, n) scalar stack for a
    normal A, a triangular (N, n, n) stack otherwise) and the sum is
    mapped back once (:func:`linops.from_basis`).  Q is unitary, so every
    node's spectral norm, and with it the tail estimate, is the one of
    the dense (A + lambda_k)^{-1} stack.
    """
    basis = A.resolvent_basis()

    def integrand(lam):
        R = linops.basis_resolvents(basis, lam)
        return g(lam).reshape((-1,) + (1,) * (R.ndim - 1)) * R

    info = dunford(spec, integrand, decay_exponent=decay_exponent, tol_tail=tol)
    return replace(info, value=linops.from_basis(basis, info.value))


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


class ImaginaryPowerFamily:
    """Precomputed quadrature data for t -> A^{it}, |t| <= t_max.

    A^{it} = A A^{-1+it}, and A^{-1+it} = sum_k w_k (-lam_k)^{-1+it}
    (A + lam_k)^{-1} over power_contour(A, -1 + i t_max, 1e-10): the arc,
    the lower ray inward, the upper ray outward, the rays in panels
    uniform in s = log r and no wider than min(0.8, 6 / t_max).  ``table``
    holds the resolvents at the nodes ``lam`` in A's unitary basis.  Node
    q of panel p sits at s = mid_p + offset_q, so on the rays
    w_k (-lam_k)^{-1+it} is +-(w_q / 2 pi i) e^{it mid_p} e^{it offset_q}
    e^{-+t (pi - theta)}: a t costs n_panel + 10 + n_arc exponentials.
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
        self.table = np.concatenate([
            linops.basis_resolvents(self._basis, self.lam[k:k + step])
            for k in range(0, len(self.lam), step)
        ])

    def at(self, t: float) -> np.ndarray:
        """A^{it} as a dense matrix."""
        return self.at_many([t])[0]

    def at_many(self, ts) -> np.ndarray:
        """A^{it} for every t as an (n_t, n, n) array: per chunk of t, one
        product with the arc's and each ray's part of the table; then one
        map back and one product with A.  A^{i0} is the identity, exactly.
        Raises ValueError for |t| > t_max, where the contour was not sized."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        if np.any(np.abs(ts) > self.t_max):
            raise ValueError(
                f"|t| = {np.max(np.abs(ts))} exceeds the family's t_max = {self.t_max}")
        n_arc, n_ray = len(self._log_arc), len(self._mid) * len(self._offset)
        table = self.table.reshape(len(self.lam), -1)
        # entries zero at every node (a Schur basis' lower triangle) stay out
        used = np.flatnonzero(table.any(axis=0))
        arc_t, dn_t, up_t = np.split(table[:, used], [n_arc, n_arc + n_ray])
        out = np.zeros((len(ts), table.shape[1]), dtype=complex)
        step = linops.stack_step(16 * n_ray)
        for lo in range(0, len(ts), step):
            t = ts[lo:lo + step]
            arc = np.exp(np.multiply.outer(-1.0 + 1j * t, self._log_arc)) * self.w[:n_arc]
            phase = np.exp(1j * np.multiply.outer(t, self._offset)) * self._panel_w
            ray = (np.exp(1j * np.multiply.outer(t, self._mid))[:, :, None]
                   * phase[:, None, :]).reshape(len(t), -1)
            grow = np.exp(self._decay * t)[:, None]
            out[lo:lo + step, used] = arc @ arc_t + (ray @ dn_t) / grow - grow * (ray @ up_t)
        X = out.reshape((len(ts),) + self.table.shape[1:])
        res = self.A.matrix @ linops.from_basis(self._basis, X)
        res[ts == 0.0] = _EYE(self.A.dim)
        return res


def imaginary_power(A: MatrixOperator, t: float) -> np.ndarray:
    """A^{it} on the contour of complex_power, sized for max(|t|, 1)
    (one-shot; build an ImaginaryPowerFamily for many t)."""
    return ImaginaryPowerFamily(A, t_max=max(abs(t), 1.0)).at(t)


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
    M e^{phi |t|} dominates every sample."""
    fam = ImaginaryPowerFamily(A, t_max=t_max)
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


def _offsector_samples(theta: float) -> np.ndarray:
    """The standard off-sector grid: 60 log-spaced radii in [1e-8, 1e8]
    and radius 1, on 17 angles from theta to 2 pi - theta."""
    radii = np.unique(np.concatenate([np.geomspace(1e-8, 1e8, 60), [1.0]]))
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
    by construction.
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
        reg[name] = replace(f, c=1.05 * float(np.max(_envelope_ratio(f, lam))))
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
    ``with_info``, returns (value, DunfordResult).

    Without ``spec``, :func:`hinf_contour` fits the ray rule to -sigma(A)
    and to lambda = 1 as f's only singular point; for a symbol singular
    elsewhere, pass a spec from ``contour.fit_contour`` with its
    singular points among the poles.
    """
    if A.certified is None or A.angle() <= f.theta:
        raise ValueError(
            "operator must be certified at an angle strictly above the symbol angle"
        )
    symbol_class_check(f)
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

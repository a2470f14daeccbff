"""Holomorphic functional calculus: complex and imaginary powers, bounded
imaginary power fits, decay-classed symbols and their calculus.

Complex powers with Re z < 0 come from the contour integral

    A^z = (1/2 pi i) * int over Gamma_{rho,theta} of (-lambda)^z (A+lambda)^{-1} dlambda

with (-lambda)^z on the principal branch (argument in (-pi, pi]), which
is continuous along the path because the rays keep arg(-lambda) at
+-(theta - pi).  A^0 is the identity by definition.  The H^inf calculus
f(-A) is the same integral with f(lambda) in place of (-lambda)^z.  Both
reduce in a unitary basis of A and form one Q (.) Q^* per integral: for
a normal A = Q diag(d) Q^* the quadrature sums the (N, n) stack
g(lambda_k) / (d + lambda_k) on the eigenvalues, and for any other A it
sums g(lambda_k) (T + lambda_k)^{-1} over the triangular factor of the
Schur form A = Q T Q^*, which the operator takes once and caches.

Imaginary powers use the real-axis formula

    A^{it} = (sinh(pi t) / (pi t)) * int_0^inf lambda^{it} (A+lambda)^{-2} A dlambda

evaluated after the substitution lambda = e^s.  The s-dependence then
separates from the matrix factors, so one table of resolvents serves
every t: that is what ImaginaryPowerFamily caches, and it sums the
table for many t in one matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import linops
from .contour import ContourSpec, DunfordResult, dunford, gauss_panels, tail_radius
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

    The sum is reduced in a unitary basis of A and mapped back once.
    For a normal A = Q diag(d) Q^* it is
    Q diag(sum_k w_k g(lambda_k) / (d + lambda_k)) Q^*, so dunford reduces
    the (N, n) scalar stack; otherwise A = Q T Q^* (complex Schur form)
    and it is Q (sum_k w_k g(lambda_k) (T + lambda_k)^{-1}) Q^*, over the
    triangular stacks of :func:`linops.triangular_resolvents`.  Q is
    unitary, so every node's Frobenius norm, and with it the tail
    estimate, is the one of the dense (A + lambda_k)^{-1} stack.
    """
    basis = A.normal_basis()
    if basis is not None:
        info = dunford(spec, lambda lam: g(lam)[:, None] * linops.spectral_resolvents(basis, lam),
                       decay_exponent=decay_exponent, tol_tail=tol)
        Q = basis[1]
        return replace(info, value=(Q * info.value) @ Q.conj().T)
    T, Q = A.schur_form()
    info = dunford(spec, lambda lam: g(lam)[:, None, None] * linops.triangular_resolvents(T, lam),
                   decay_exponent=decay_exponent, tol_tail=tol)
    return replace(info, value=Q @ info.value @ Q.conj().T)


# ----------------------------------------------------------- complex powers


def power_contour(
    A: MatrixOperator,
    z: complex,
    tol: float = 1e-9,
    theta: float | None = None,
) -> ContourSpec:
    """Default contour for A^z: angle capped at pi/2 (widest analyticity
    strip in log-radius), arc radius inside the resolvent disk at 0,
    truncation radius from the |lambda|^(Re z - 1) tail."""
    theta_a = A.angle()
    theta = theta or min(0.5 * np.pi, 0.95 * theta_a)
    rho = 0.4 / A.inverse_norm()
    eta = -np.real(z)
    growth = np.exp(abs(np.imag(z)) * (np.pi - theta))
    K = A.constant() if A.certified else 2.0
    R = tail_radius(eta, (K + 1.0) * growth, 0.25 * tol)
    lo, hi = A.scale_window()
    R = max(R, 10.0 * hi)
    return ContourSpec(rho=rho, theta=theta, R=R, n_arc=24, focus=(lo, hi))


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
    """Precomputed quadrature data for t -> A^{it}.

    After lambda = e^s the integrand is e^{its} V(s) with
    V(s) = (A + e^s)^{-2} A e^s independent of t, so the family stores
    V at the quadrature nodes once and each A^{it} is a weighted sum;
    :meth:`at_many` takes the sums for many t in one matrix product.
    """

    def __init__(
        self,
        A: MatrixOperator,
        t_max: float = 8.0,
        tol: float = 1e-10,
        span: float | None = None,
    ):
        self.A = A
        scale = max(abs(np.log(max(A.norm(), 1e-300))),
                    abs(np.log(max(1.0 / A.inverse_norm(), 1e-300))))
        S = span or (scale + np.log(1.0 / tol) + 2.0)
        width = min(0.8, 6.0 / max(t_max, 1.0))
        n_panel = int(np.ceil(2.0 * S / width))
        edges = np.linspace(-S, S, n_panel + 1)
        self.s, self.w = gauss_panels(edges, 10)
        # node q of panel p is mid_p + offset_q, so its phase e^{its} is
        # e^{it mid_p} e^{it offset_q}: n_panel + 10 exponentials per t
        self._mid = 0.5 * (edges[1:] + edges[:-1])
        self._offset = gauss_panels([-S / n_panel, S / n_panel], 10)[0]
        self.t_max = t_max
        lam = np.exp(self.s)
        self.V = np.empty((len(lam), A.dim, A.dim), dtype=complex)
        # in stack-budget chunks, so the table is the only full-size stack
        step = max(1, linops._SHIFT_STACK_BYTES // self.V[0].nbytes)
        basis = A.resolvent_basis()
        for lo in range(0, len(lam), step):
            part = slice(lo, lo + step)
            R = linops.resolvents(A.matrix, lam[part], basis)
            self.V[part] = R @ R @ A.matrix * lam[part, None, None]

    @staticmethod
    def _prefactor(t: np.ndarray) -> np.ndarray:
        # sin(i pi t) / (i pi t) on the real axis equals sinh(pi t)/(pi t)
        x = np.pi * np.where(t == 0.0, 1.0, t)
        return np.where(t == 0.0, 1.0, np.sinh(x) / x)

    def at(self, t: float) -> np.ndarray:
        """A^{it} as a dense matrix."""
        return self.at_many([t])[0]

    def at_many(self, ts) -> np.ndarray:
        """A^{it} for every t, stacked as an (n_t, n, n) array: one
        (n_t, n_s) @ (n_s, n^2) product against the V table per chunk of
        t whose phases fit the stack budget.  A^{i0} is the identity,
        exactly."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        n = self.A.dim
        table = self.V.reshape(len(self.s), n * n)
        out = np.empty((len(ts), n * n), dtype=complex)
        step = max(1, linops._SHIFT_STACK_BYTES // (16 * len(self.s)))
        for lo in range(0, len(ts), step):
            t = ts[lo:lo + step]
            phases = (np.exp(1j * np.multiply.outer(t, self._mid))[:, :, None]
                      * np.exp(1j * np.multiply.outer(t, self._offset))[:, None, :])
            phases = phases.reshape(len(t), -1) * self.w
            out[lo:lo + step] = self._prefactor(t)[:, None] * (phases @ table)
        out = out.reshape(-1, n, n)
        out[ts == 0.0] = _EYE(n)
        return out


def imaginary_power(A: MatrixOperator, t: float, t_max: float | None = None) -> np.ndarray:
    """A^{it} by real-axis quadrature (one-shot; build an
    ImaginaryPowerFamily for many t)."""
    fam = ImaginaryPowerFamily(A, t_max=t_max or max(abs(t), 1.0))
    return fam.at(t)


@dataclass
class BipFit:
    """Fit of log ||A^{it}|| <= log M + phi |t| over a symmetric grid."""

    M: float
    phi: float
    t_grid: np.ndarray
    norms: np.ndarray

    def bound(self, t: float) -> float:
        return self.M * np.exp(self.phi * abs(t))

    def to_dict(self) -> dict:
        return {
            "M": self.M,
            "phi": self.phi,
            "t_grid": self.t_grid.tolist(),
            "norms": self.norms.tolist(),
        }


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


def _offsector_samples(theta: float, n_r: int = 60, n_ang: int = 17) -> np.ndarray:
    radii = np.unique(np.concatenate([np.geomspace(1e-8, 1e8, n_r), [1.0]]))
    angles = np.linspace(theta, 2.0 * np.pi - theta, n_ang)
    return np.multiply.outer(radii, np.exp(1j * angles)).reshape(-1)


def symbol_class_check(
    f: HolomorphicSymbol,
    theta: float | None = None,
    n_r: int = 60,
    n_ang: int = 17,
) -> dict:
    """Verify |f| against its declared envelope on a log-polar grid off
    the sector.  Returns the check record; raises ClassViolated with the
    offending point when the inequality fails."""
    theta = f.theta if theta is None else theta
    lam = _offsector_samples(theta, n_r, n_ang)
    vals = np.abs(f(lam))
    env = f.envelope(lam)
    ratio = vals / np.maximum(env, 1e-300)
    worst = int(np.argmax(ratio))
    record = {
        "symbol": f.name,
        "theta": theta,
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


def _measured_constant(evaluator, envelope_fn, theta: float) -> float:
    lam = _offsector_samples(theta)
    vals = np.abs(evaluator(lam))
    base = envelope_fn(lam)
    return float(np.max(vals / np.maximum(base, 1e-300)))


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

    reg = {}
    c1 = 1.05 * _measured_constant(
        sqrt_over_1minus, lambda l: np.abs(l) ** 0.5 / (1.0 + np.abs(l)), theta
    )
    reg["sqrt-over-1minus"] = HolomorphicSymbol(
        "sqrt-over-1minus", sqrt_over_1minus, theta, "extended", c=c1, eta=0.5
    )
    r = lambda l: np.abs(l)  # noqa: E731
    c2 = 1.05 * _measured_constant(
        cayley_squared, lambda l: r(l) / (1.0 + r(l) ** 2), theta
    )
    reg["cayley-squared"] = HolomorphicSymbol(
        "cayley-squared", cayley_squared, theta, "h0", c=c2, eta=1.0
    )
    c3 = 1.05 * _measured_constant(
        rational_eta, lambda l: (r(l) / (1.0 + r(l) ** 2)) ** 0.5, theta
    )
    reg["rational-eta"] = HolomorphicSymbol(
        "rational-eta", rational_eta, theta, "h0", c=c3, eta=0.5
    )
    return reg


# ------------------------------------------------------------- H-inf calculus


def hinf_contour(f: HolomorphicSymbol, A: MatrixOperator, tol: float = 1e-9) -> ContourSpec:
    """Gamma_theta (rho = 0) sized from the symbol's decay exponents."""
    eta_inf = f.decay_at_infinity()
    eta_zero = f.decay_at_zero()
    K = A.constant() if A.certified else 2.0
    R = tail_radius(eta_inf, f.c * (K + 1.0), 0.25 * tol)
    lo, hi = A.scale_window()
    R = max(R, 10.0 * hi)
    r_floor = (0.25 * tol / max(f.c * A.inverse_norm(), 1e-300)) ** (
        1.0 / (1.0 + eta_zero)
    )
    r_floor = float(np.clip(r_floor, 1e-40, 0.5 * lo))
    return ContourSpec(
        rho=0.0, theta=f.theta, R=R, n_arc=0, r_floor=r_floor, focus=(lo, hi)
    )


def hinf_apply(
    f: HolomorphicSymbol,
    A: MatrixOperator,
    spec: ContourSpec | None = None,
    tol: float = 1e-9,
    check_class: bool = True,
    with_info: bool = False,
):
    """f(-A) = (1/2 pi i) int over Gamma_theta of f(lambda) (A+lambda)^{-1} dlambda.

    The operator must be certified strictly above the symbol angle, so
    the spectrum of -A stays inside the region the path encloses.  With
    ``with_info``, returns (value, DunfordResult).
    """
    if A.certified is None or A.angle() <= f.theta:
        raise ValueError(
            "operator must be certified at an angle strictly above the symbol angle"
        )
    if check_class:
        symbol_class_check(f)
    spec = spec or hinf_contour(f, A, tol)

    info = _symbol_integral(A, spec, f, f.decay_at_infinity(), tol)
    return (info.value, info) if with_info else info.value


def hinf_constant(
    A: MatrixOperator,
    theta: float,
    family: Sequence[HolomorphicSymbol],
    tol: float = 1e-9,
) -> float:
    """Sampled lower bound for the calculus constant:
    max over the family of ||f(-A)|| / sup |f|."""
    family = list(family)
    if not family:
        raise ValueError("hinf_constant needs a nonempty symbol family")
    best = 0.0
    for f in family:
        symbol_class_check(f)
        fA = hinf_apply(f, A, tol=tol, check_class=False)
        sup_f = float(np.max(np.abs(f(_offsector_samples(f.theta)))))
        best = max(best, linops.operator_norm(fA) / max(sup_f, 1e-300))
    return best

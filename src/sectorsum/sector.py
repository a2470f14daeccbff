"""Sectoriality model: resolvents, angle/constant certification, the
disk-thickened extension check, and the resolvent decay probe.

An operator A is held as a dense matrix together with an optional
certificate (theta, K) meaning: on the sampled sector
Lambda_theta = { z : |arg z| <= theta } u {0} every shift was resolvable
and (1 + |z|) ||(A + z)^{-1}|| <= K held.  The supremum over the
unbounded sector is sampled on the boundary rays with log-spaced radii
plus an interior polar grid; since (1+|z|)||(A+z)^{-1}|| -> 1 as
|z| -> infinity for matrices, a finite radial range suffices.  The
certificate keeps only (theta, K-hat); the sampling grid, where the sup
was attained and the values at r_min/r_max are not recorded.  K-hat is
therefore a lower bound for the true constant; the certify pipeline
reports it with its grid so re-checks are reproducible.

Every resolvent norm is taken as 1/sigma_min(A + z); no inverse is
formed.  A normal operator caches its unitary eigenbasis (d, Q)
(:meth:`MatrixOperator.normal_basis`), and then sigma_min(A + z) is
min_i |d_i + z| in closed form at every sampled shift.  Any other
operator takes sigma_min only at the shifts that can still set the sup
(:func:`linops.weighted_resolvent_norms`).  Below dimension
``SCHUR_NORMS_DIM`` (96) that is one SVD of A + z per shift; from 96 on
it is inverse Lanczos on A's kept Schur form (T + z)^{-1}
(:func:`linops.schur_sigma_min`), which falls back to the SVD of
T + z at a shift where it stalls or meets a singular pivot.  From s_min
and s_max bounding the singular values at a decomposed shift z',
Weyl's inequality bounds sigma_min(A + z) >= max(s_min - |z - z'|,
|z - z'| - s_max) at every other, less a rounding margin of
8 n eps (s_max + |z - z'|) (plus the Lanczos tolerance on the Schur
form), and a shift whose bounded value cannot reach the running sup is
skipped.  The first decomposed shift is z' = 0, that is A itself: a
MatrixOperator takes its singular values once and caches them, so ``norm()``,
``inverse_norm()`` and every certification and extension check of it
share one SVD of A, and the sampled origin is never decomposed again.
Certification takes the sup against max(sup, 1), since K-hat >= 1; the
extension check caps it at (2K+1)(1 + 1e-9), so every violation is
computed.  A skipped shift is provably resolvable, so K-hat, the worst
value and shift, and the first singular or violating shift in sampling
order are those of the exhaustive computation, and ``n_samples`` still
counts every sampled point.  The extension check's disk rings hold
exact conjugate pairs of points, so a real A decomposes each pair once.
What does not depend on the angle is computed once: the sampling radii
per (n, r_min, r_max), the singular values and the Schur form per
operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linops
from .linops import _sorted_distinct
from .errors import ExtensionViolated, NotSectorialAtAngle, SingularShift, UnboundedSuspected

#: a non-normal operator of at least this dimension takes sigma_min(A + z)
#: by inverse Lanczos on its kept Schur form (linops.schur_sigma_min), a
#: smaller one by the stacked SVD of A + z.  Per shift at one BLAS thread
#: on L + 20 D1, the iteration already wins at n = 64 on the shifts a
#: coarse certification decomposes, but loses by half on those of the
#: default sampling, where a third of them stall into the SVD; at 96 it
#: is no slower on either
SCHUR_NORMS_DIM = 96


@dataclass(frozen=True)
class SectorSpec:
    """Certified sector: angle theta in [0, pi) and constant K >= 1."""

    theta: float
    K: float

    def __post_init__(self):
        if not (0.0 <= self.theta < np.pi):
            raise ValueError(f"theta must lie in [0, pi), got {self.theta}")
        if self.K < 1.0:
            raise ValueError(f"K must be >= 1, got {self.K}")


@dataclass(frozen=True)
class SectorSampling:
    """Discretization of the sup over Lambda_theta.

    n_boundary log-spaced radii on each boundary ray, an interior polar
    grid with n_angles angular lines and interior_density radii, all in
    [r_min, r_max].  Radius 1 and the origin are always included.
    """

    n_boundary: int = 96
    n_angles: int = 9
    r_min: float = 1e-6
    r_max: float = 1e6
    interior_density: int = 24

    def __post_init__(self):
        counts = (self.n_boundary, self.n_angles, self.interior_density)
        if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) and c >= 1
                   for c in counts):
            raise ValueError(f"sampling counts must be integers >= 1, got {counts}")
        if not (0 < self.r_min < self.r_max < np.inf):
            raise ValueError(f"need 0 < r_min < r_max < inf, got {self.r_min}, {self.r_max}")

    def radii(self, n: int) -> np.ndarray:
        """n log-spaced radii in [r_min, r_max] and 1, ascending; one
        read-only array per (n, r_min, r_max)."""
        return _radii(n, self.r_min, self.r_max)

    def points(self, theta: float) -> np.ndarray:
        """All sampled shifts in Lambda_theta (origin included)."""
        pts = [np.array([0.0 + 0.0j])]
        rb = self.radii(self.n_boundary)
        if theta == 0.0:
            pts.append(rb.astype(complex))
        else:
            pts.append(rb * np.exp(1j * theta))
            pts.append(rb * np.exp(-1j * theta))
            ri = self.radii(self.interior_density)
            angles = np.linspace(-theta, theta, self.n_angles)
            if self.n_angles >= 2:  # exactly antisymmetric: exact conjugate pairs
                angles = 0.5 * (angles - angles[::-1])
            inner = np.multiply.outer(ri, np.exp(1j * angles)).reshape(-1)
            pts.append(inner)
        return _sorted_distinct(np.concatenate(pts))


@lru_cache(maxsize=64)
def _radii(n: int, r_min: float, r_max: float) -> np.ndarray:
    r = _sorted_distinct(np.concatenate([np.geomspace(r_min, r_max, n), [1.0]]))
    r.flags.writeable = False  # shared by every caller with these arguments
    return r


def kept(owner, key, build, recent=0, keep=None):
    """The value ``owner``, a MatrixOperator or a CommutingPair, keeps
    under ``key``: ``build()`` on first use, with its arrays (the value, a
    tuple's members or an object's attributes) made read-only.

    Everything an operator or a pair reuses across calls is kept here, in
    one private store per owner.  ``key[0]`` names the kind of value: with
    ``recent``, only that many of the most recently used keys of that kind
    are kept, and a hit on a kind without a limit changes nothing.  A
    value that ``keep`` rejects is returned but not kept, and nothing is
    when ``build`` raises.
    """
    store = vars(owner).setdefault("_kept", {})
    if key in store:
        if recent:
            store[key] = store.pop(key)
        return store[key]
    value = build()
    if keep is not None and not keep(value):
        return value
    attrs = getattr(value, "__dict__", {}).values()
    for part in value if isinstance(value, tuple) else (value, *attrs):
        if isinstance(part, np.ndarray):
            part.flags.writeable = False
    store[key] = value
    if recent:
        for old in [k for k in store if k[0] == key[0]][:-recent]:
            del store[old]
    return value


@dataclass
class MatrixOperator:
    """Dense operator with cached sector metadata.

    `certified` records the last successful certification.  The matrix
    is held as a private read-only copy and cannot be reassigned, so
    nothing kept from it can go stale.  What is derived from it is
    computed on first use and kept (:func:`kept`): the norms, the normal
    basis, the Schur form, the singular values of a non-normal A, the
    default bounded-imaginary-power fit (:func:`calculus.cached_bip_fit`)
    and the imaginary-power families (:func:`calculus._cached_family`).
    One SVD of A thus serves ``norm()``, ``inverse_norm()`` and, as the
    decomposition at the shift 0, the Weyl bounds of every certification
    and extension check of A (see :func:`linops.weighted_resolvent_norms`).
    """

    matrix: np.ndarray
    certified: SectorSpec | None = None

    def __post_init__(self):
        matrix = linops.as_matrix(self.matrix)
        if np.may_share_memory(matrix, self.matrix):  # a complex input is returned as is
            matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        if name == "matrix" and "matrix" in vars(self):
            raise AttributeError("a MatrixOperator's matrix is fixed; build a new operator")
        super().__setattr__(name, value)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def normal_basis(self):
        """(d, Q) with A = Q diag(d) Q^* when A is normal to working
        precision, else None (see :func:`linops.normal_basis`); kept,
        read-only."""
        return kept(self, ("basis",), lambda: linops.normal_basis(self.matrix))

    def schur_form(self):
        """Complex Schur form (T, Q) with A = Q T Q^* (see
        :func:`linops.schur_form`); kept, read-only."""
        return kept(self, ("schur",), lambda: linops.schur_form(self.matrix))

    def resolvent_basis(self):
        """The unitary basis A's resolvents are taken in:
        :meth:`normal_basis` when A is normal, else :meth:`schur_form`."""
        return self.normal_basis() or self.schur_form()

    def _singular_values(self) -> np.ndarray:
        """:func:`linops.singular_values` of A, descending."""
        return kept(self, ("sv",), lambda: linops.singular_values(self.matrix))

    def norm(self) -> float:
        def build():
            basis = self.normal_basis()
            if basis is None:
                return float(self._singular_values()[0])
            return float(np.max(np.abs(basis[0])))

        return kept(self, ("norm",), build)

    def inverse_norm(self) -> float:
        """||A^{-1}||; 1/inverse_norm lower-bounds the distance of the
        spectrum to the origin."""
        def build():
            # the weight 1 + |z| is 1 at z = 0
            inv_norm = float(_weighted_norms(self, np.zeros(1))[0])
            if inv_norm == np.inf:
                raise SingularShift("A is numerically singular (0 is on the spectrum)",
                                    shift=0.0)
            return inv_norm

        return kept(self, ("inv_norm",), build)

    def angle(self) -> float:
        if self.certified is None:
            raise ValueError("operator is not certified; run certify_sector first")
        return self.certified.theta

    def constant(self) -> float:
        if self.certified is None:
            raise ValueError("operator is not certified; run certify_sector first")
        return self.certified.K


def resolvent_apply(A: MatrixOperator, z: complex, x) -> np.ndarray:
    """(A + z)^{-1} x, resolved on A's cached basis (see
    :meth:`MatrixOperator.resolvent_basis`)."""
    return linops.basis_solve(A.resolvent_basis(), [z], linops.as_vector(x, A.dim))[0]


def _weighted_norms(A: MatrixOperator, pts: np.ndarray, floor=0.0, cap=np.inf) -> np.ndarray:
    """:func:`linops.weighted_resolvent_norms` of A at pts: in closed form
    on a normal basis, else seeded with A's cached singular values, and
    from dimension SCHUR_NORMS_DIM on with sigma_min taken on A's kept
    Schur form.  Shifts that are all 0 take their value from the singular
    values alone, so they build no Schur form."""
    basis, s0 = A.normal_basis(), None
    if basis is None:
        s0 = A._singular_values()
        if A.dim >= SCHUR_NORMS_DIM and pts.any():
            basis = A.schur_form()
    return linops.weighted_resolvent_norms(A.matrix, pts, basis, floor, cap, s0)


def certify_sector(
    A: MatrixOperator,
    theta: float,
    sampling: SectorSampling | None = None,
    attach: bool = True,
) -> float:
    """Sampled sup of (1+|z|) ||(A+z)^{-1}|| over Lambda_theta.

    Returns the sup K-hat (a lower bound for the true sector constant,
    nondecreasing in sampling density).  On success the certificate is
    attached to A unless attach=False.

    Raises
    ------
    NotSectorialAtAngle
        If any sampled shift is not resolvable; carries the first such z
        in the order of ``sampling.points(theta)``.
    """
    k_hat = _sampled_sup(A, theta, sampling)[0]
    if attach:
        A.certified = SectorSpec(theta=theta, K=k_hat)
    return k_hat


def _sampled_sup(A: MatrixOperator, theta: float,
                 sampling: SectorSampling | None) -> tuple[float, int]:
    """K-hat of :func:`certify_sector`, not attached, and the number of
    sampled shifts whose sigma_min was taken (every one on a normal
    basis; elsewhere those the Weyl bounds did not skip, a conjugate
    partner of a real A's shift and a sampled 0 counted too)."""
    if not (0.0 <= theta < np.pi):
        raise ValueError(f"theta must lie in [0, pi), got {theta}")
    sampling = sampling or SectorSampling()
    pts = sampling.points(theta)
    # K-hat >= 1, so a shift whose value is provably below max(sup, 1) is skipped
    values = _weighted_norms(A, pts, floor=1.0)
    singular = np.flatnonzero(values == np.inf)
    if singular.size:
        z = complex(pts[singular[0]])
        raise NotSectorialAtAngle(f"shift z={z} not resolvable at theta={theta}", shift=z)
    return max(float(np.max(values)), 1.0), int(np.count_nonzero(values > -np.inf))


@dataclass
class ExtensionCheck:
    """Outcome of the disk-enlargement verification."""

    passed: bool
    bound: float
    worst_value: float
    worst_margin: float
    worst_z: complex
    n_samples: int


def _disk_ring(n_disk: int) -> np.ndarray:
    """exp(2 pi i k / n_disk) for k = 0 .. n_disk - 1, with both parts of
    points k and n_disk - k averaged so that they are exact conjugates:
    the circles around a conjugate pair of sampled centres are then
    conjugate point by point, and a real A decomposes each pair once."""
    ring = np.exp(2j * np.pi * np.arange(n_disk) / n_disk)
    return 0.5 * (ring + ring[-np.arange(n_disk)].conj())


def extended_sector_check(
    A: MatrixOperator,
    spec: SectorSpec,
    sampling: SectorSampling | None = None,
    n_disk: int = 12,
) -> ExtensionCheck:
    """Verify (1+|z|) ||(A+z)^{-1}|| <= 2K+1 on the disk-thickened sector.

    Around each sampled lambda in Lambda_theta the disk of radius
    (1+|lambda|)/(2K) is probed on its boundary circle.  A violation
    beyond a relative 1e-9 (or an unresolvable z) raises
    ExtensionViolated, which flags that A was certified with an
    understated K.
    """
    if n_disk < 1:
        raise ValueError(f"n_disk must be >= 1, got {n_disk}")
    sampling = sampling or SectorSampling(n_boundary=48, interior_density=12)
    bound = 2.0 * spec.K + 1.0
    ring = _disk_ring(n_disk)
    # circle by circle, in the order of the sampled centres; scalar abs per
    # centre, since numpy's array abs can differ from it in the last bit
    pts = np.concatenate([
        lam + (1.0 + abs(lam)) / (2.0 * spec.K) * ring
        for lam in sampling.points(spec.theta)
    ])
    # every value above the cap is computed, so the first violation is exact
    cap = bound * (1.0 + 1e-9)
    values = _weighted_norms(A, pts, cap=cap)
    violations = np.flatnonzero(values > cap)
    if violations.size:
        z, val = complex(pts[violations[0]]), values[violations[0]]
        if val == np.inf:
            raise ExtensionViolated(
                f"unresolvable z={z} inside the enlargement (K={spec.K} likely understated)",
                shift=z,
            )
        raise ExtensionViolated(
            f"(1+|z|)||(A+z)^{{-1}}|| = {val:.6g} > 2K+1 = {bound:.6g} "
            f"at z={z} (K={spec.K} inconsistent with certification)",
            shift=z,
        )
    worst = int(np.argmax(values))
    worst_val = float(values[worst])
    return ExtensionCheck(
        passed=True,
        bound=bound,
        worst_value=worst_val,
        worst_margin=bound - worst_val,
        worst_z=complex(pts[worst]),
        n_samples=pts.shape[0],
    )


def decay_probe(
    A: MatrixOperator,
    phi: float,
    eta: float,
    theta_prime: float,
    y,
) -> float:
    """Sampled sup of ||z^eta A (A+z)^{-1} x|| over Lambda_theta', where
    x = A^{-phi} y, on the standard SectorSampling (radii up to 1e6).

    The sup must stabilize before the radial horizon: if the outermost
    decade [r_max/10, r_max] dominates everything below it by more than
    a factor 2, UnboundedSuspected is raised.
    """
    if not (0.0 < phi < 1.0):
        raise ValueError(f"phi must lie in (0,1), got {phi}")
    if not (0.0 <= eta < phi):
        raise ValueError(f"eta must lie in [0, phi), got eta={eta}, phi={phi}")
    if A.certified is None or theta_prime >= A.angle():
        raise ValueError("theta_prime must be below the certified angle of A")
    sampling = SectorSampling()

    from .calculus import complex_power  # deferred: calculus builds on this module

    y = linops.as_vector(y, A.dim)
    x = complex_power(A, -phi) @ y

    pts = sampling.points(theta_prime)
    resolved = linops.basis_solve(A.resolvent_basis(), pts, x)
    vals = np.linalg.norm(pts[:, None] ** eta * (resolved @ A.matrix.T), axis=1)
    outer = np.abs(pts) >= sampling.r_max / 10.0
    sup_inner = float(np.max(vals[~outer], initial=0.0))
    sup_outer = float(np.max(vals[outer], initial=0.0))
    if sup_outer > 2.0 * max(sup_inner, 1e-300):
        raise UnboundedSuspected(
            f"sup over [r_max/10, r_max] = {sup_outer:.3e} exceeds twice the "
            f"inner sup {sup_inner:.3e}; increase r_max or reduce eta"
        )
    return max(sup_inner, sup_outer)

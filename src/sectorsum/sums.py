"""Inverse of a commuting operator sum and the weighted contour identities.

For resolvent-commuting A, B with sector angles summing past pi, every
contour sum here is one pair integral, for s = +-1,

    I_s(w) = (1/2 pi i) int over Gamma of
                 (-lam)^{1+w} (A + s lam)^{-1} (B - s lam)^{-1} dlam,

over one contour formula (`sum_contour`) by one helper
(`_pair_integral`).  The closure of A + B has the bounded inverse

    K = I_{-1}(-1) = (1/2 pi i) int over Gamma_{theta_B} of
                         (A - z)^{-1} (B + z)^{-1} dz,

run at angle theta_B - eps so the path stays a positive angular margin
away from both spectra, and for Re w < 0 the weighted identities read

    A K A^w = I_{+1}(w) over Gamma_{theta_A - eps},
    A K B^w = B^w - I_{-1}(w) over Gamma_{theta_B - eps}

(the first is the reflected-path integral written over the standard
path; reflection and orientation reversal cancel, so no extra sign).
K's default contour (`inverse_contour`) runs at 0.01 tol / max(1,
||A|| + ||B||), since the residual gate of `sum_inverse` measures
||A + B|| times K's error.

Commuting matrices are simultaneously unitarily triangularisable, so
each pair integral runs in one joint basis (`CommutingPair.joint_basis`,
taken once per pair).  Q is first each member's normal basis, kept when
Q^* A Q and Q^* B Q are both diagonal to the departure test of
`linops.normal_basis` (within 8 n eps of each matrix's Frobenius norm);
a Hermitian operator with a diagonal partner thus needs no Schur form.
Else Q holds the Schur vectors of A + gamma B for the fixed generic
gamma = JOINT_WEIGHT, and the basis is accepted when the strict lower
triangles of Q^* A Q and Q^* B Q pass that test.
When the strict upper triangles pass it too, the pair is diagonal and a
node's integrand is the (N, n) scalar stack of products of the two
members' `linops.basis_resolvents`; otherwise it is the product of their
triangular stacks.  contour's weighted reduction reduces the stack
against the weight -(-lam)^{1+w} and each integral ends in one
`linops.from_basis`; when A and B are both real, only the arc and the
upper ray are resolved and the lower ray is read off their conjugates;
contour gates the tail.  A factor that does not depend on the node
(A^phi, B^phi of the splits and the e-adic sum) multiplies the reduced
value once.  A pair that
commutes only to COMMUTE_TOLERANCE, not to working precision, fails the
test and resolves each member in its own basis
(`MatrixOperator.resolvent_basis`) with dense (N, n, n) stacks; nothing
else selects that path.
Every node's resolvents are checked as they are built, by the pivot
test of `linops` on the diagonals: a node on either spectrum raises
SingularShift naming that node.  K depends only on the pair, whose
members are fixed, and on its contour and tol, so the pair keeps each K
that passed the residual gate with its residual
(`sector.kept`): the weighted identities share one, and
`closedness_certificate` reads the one `sum_inverse` took.  Radial splits at
|lambda| = 1 and e^n, and the e-adic rearrangement of the middle
annulus, are provided for the split diagnostics; both were
cross-checked against scalar residue oracles.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import linops
from .calculus import complex_power, fractional_power
from .contour import ContourSpec, DunfordResult, _resolvent_sum, fit_contour, gauss_panels
from .errors import SingularShift, TruncationNotConverged
from .sector import MatrixOperator, kept

PROBE_SEED = 0x5EC705  # recorded seed for certificate probe vectors

#: generic weight of the joint basis: where A + JOINT_WEIGHT B has distinct
#: eigenvalues, the commuting A and B are polynomials in it, so its Schur
#: vectors triangularise both (CommutingPair.joint_basis tests the rest)
JOINT_WEIGHT = np.exp(0.618j)

#: a member's form in the joint basis may drop up to the larger member's
#: departure tolerance, but at most this many times its own: the
#: smaller member's backward error grows with the norm ratio otherwise
JOINT_SLACK = 8.0


#: ||[(A + 1)^{-1}, (B + 1)^{-1}]|| a CommutingPair admits
COMMUTE_TOLERANCE = 1e-10

#: inverses K kept on a pair (see CommutingPair)
_INVERSES_KEPT = 4


@dataclass
class CommutingPair:
    """Certified operators A, B with theta_A + theta_B > pi whose
    resolvents at the shift 1 commute up to COMMUTE_TOLERANCE.

    The members are fixed: assigning A or B after construction raises
    AttributeError, so nothing cached from them can go stale.  The pair
    keeps its joint basis, K's contours (:func:`inverse_contour`) and
    the inverses K that passed :func:`sum_inverse`'s residual gate with
    their two-sided residuals, per (contour spec, tol), the _INVERSES_KEPT
    most recently used, with read-only arrays (:func:`sector.kept`): the
    weighted identities and :func:`closedness_certificate` reuse them.
    """

    A: MatrixOperator
    B: MatrixOperator

    def __setattr__(self, name, value):
        if name in ("A", "B") and name in vars(self):
            raise AttributeError("a CommutingPair's members are fixed; build a new pair")
        super().__setattr__(name, value)

    def __post_init__(self):
        if self.A.certified is None or self.B.certified is None:
            raise ValueError("both operators must be certified")
        if self.A.dim != self.B.dim:
            raise ValueError("operators must act on the same space")
        if self.A.angle() + self.B.angle() <= np.pi:
            raise ValueError(
                f"need theta_A + theta_B > pi, got "
                f"{self.A.angle():.4f} + {self.B.angle():.4f}"
            )
        resid = resolvent_commute_check(self.A, self.B, 1.0, 1.0)
        if resid > COMMUTE_TOLERANCE:
            raise ValueError(
                f"resolvent commutator {resid:.3e} exceeds tolerance {COMMUTE_TOLERANCE:.3e}"
            )
        self.commute_residual = resid

    @property
    def dim(self) -> int:
        return self.A.dim

    def angular_margin(self) -> float:
        return self.A.angle() + self.B.angle() - np.pi

    def joint_basis(self):
        """One unitary basis that triangularises both A and B, taken once
        and cached: (a, b, Q) with the diagonals of Q^* A Q and Q^* B Q
        when both are diagonal, (Ta, Tb, Q) with their upper triangles
        when both are triangular, and None otherwise.

        Q is first each member's normal basis in turn
        (:meth:`MatrixOperator.normal_basis`, no Schur form for a
        diagonal or Hermitian member), kept when both forms are diagonal
        in it; else Q holds the Schur vectors of A + JOINT_WEIGHT B.  A
        form counts as triangular (diagonal) when its strict lower (and
        upper) triangle is within the larger of the two members'
        :func:`linops.departure_tolerance` (the test
        :func:`linops.normal_basis` puts on a Schur form), as Q carries the
        rounding of the larger member, but within at most
        :data:`JOINT_SLACK` times the member's own.  Resolvents in this
        basis thus stay within the backward error of the dense path for
        the larger member and within JOINT_SLACK times it for the smaller;
        a pair whose norms differ so much that the smaller member's form
        needs more, or that commutes only to a looser tolerance, fails the
        test and is resolved member by member.
        """
        return kept(self, ("joint",), lambda: _joint_basis(self.A, self.B))


def _joint_basis(A: MatrixOperator, B: MatrixOperator):
    """See :meth:`CommutingPair.joint_basis`."""
    # Q carries the rounding of the matrix it came from (a member, or
    # A + JOINT_WEIGHT B), so the forms are held to the larger tolerance,
    # capped at JOINT_SLACK times the member's own
    tols = [linops.departure_tolerance(M) for M in (A.matrix, B.matrix)]
    members = [(M, min(max(tols), JOINT_SLACK * tol))
               for M, tol in zip((A.matrix, B.matrix), tols)]
    for basis in (A.normal_basis(), B.normal_basis()):
        if basis is not None:
            forms, triangular, diagonal = _joint_forms(members, basis[1])
            if diagonal:
                return tuple(np.diagonal(T).copy() for T in forms) + (basis[1],)
    _, Q = linops.schur_form(A.matrix + JOINT_WEIGHT * B.matrix)
    forms, triangular, diagonal = _joint_forms(members, Q)
    if not triangular:
        return None
    if diagonal:
        return tuple(np.diagonal(T).copy() for T in forms) + (Q,)
    return tuple(np.triu(T) for T in forms) + (Q,)


def _joint_forms(members, Q):
    """The forms Q^* M Q of both (M, tolerance) members, and whether both
    pass the departure test as triangular and as diagonal."""
    Qh = Q.conj().T
    forms = [(Qh @ M @ Q, tol) for M, tol in members]
    triangular = all(np.linalg.norm(np.tril(T, -1)) <= tol for T, tol in forms)
    diagonal = triangular and all(np.linalg.norm(np.triu(T, 1)) <= tol for T, tol in forms)
    return [T for T, _ in forms], triangular, diagonal


def resolvent_commute_check(A: MatrixOperator, B: MatrixOperator, lam, mu) -> float:
    """Norm of the commutator [(A+lam)^{-1}, (B+mu)^{-1}]."""
    ba, bb = A.resolvent_basis(), B.resolvent_basis()
    Ra = linops.from_basis(ba, linops.basis_resolvents(ba, [lam]))[0]
    Rb = linops.from_basis(bb, linops.basis_resolvents(bb, [mu]))[0]
    return linops.operator_norm(Ra @ Rb - Rb @ Ra)


def sum_contour(
    pair: CommutingPair, tol: float = 1e-8, w: complex = -1.0, s: float = -1.0
) -> ContourSpec:
    """Separating contour of I_s(w); the default is K's.

    Rays at theta_B - eps (s = -1) or theta_A - eps (s = +1), eps = 5
    percent of min(1, angular margin).  The ray rule is fitted to the
    integrand's poles, -s sigma(A) and s sigma(B) (from the joint basis,
    else each member's), and to its decay: like |lam|^{Re w} at infinity,
    with the constant K_A K_B grown by e^{|Im w| (pi - theta)}, and like
    |lam|^{2 + Re w} at the origin.
    """
    return _rays_from(pair, tol, w, s, 0.0)


def _rays_from(pair, tol, w, s, rho) -> ContourSpec:
    """sum_contour(pair, tol, w, s) over the rays from radius rho alone
    (no arc)."""
    eps = 0.05 * min(1.0, pair.angular_margin())
    theta = (pair.A if s > 0 else pair.B).angle() - eps
    growth = np.exp(abs(np.imag(w)) * (np.pi - theta))
    joint = pair.joint_basis()
    bases = ([(joint[0], joint[2]), (joint[1], joint[2])] if joint is not None
             else [pair.A.resolvent_basis(), pair.B.resolvent_basis()])
    poles = np.concatenate([-s * linops.basis_eigenvalues(bases[0]),
                            s * linops.basis_eigenvalues(bases[1])])
    M = growth * max(pair.A.constant() * pair.B.constant(),
                     4.0 * pair.A.inverse_norm() * pair.B.inverse_norm())
    return fit_contour(theta, poles, (2.0 + w, -w), M, 0.25 * tol, rho=rho)


def inverse_contour(pair: CommutingPair, tol: float = 1e-6) -> ContourSpec:
    """K's contour for a two-sided residual within tol.

    The residual ||(A + B) K - I|| grows like ||A + B|| ||K - (A + B)^{-1}||,
    so the quadrature runs at 0.01 tol / max(1, ||A|| + ||B||).  The pair
    keeps it per tol and certificates, so a kept K is found with no refit.
    """
    key = ("K contour", float(tol), pair.A.certified, pair.B.certified)
    return kept(pair, key, lambda: sum_contour(pair, tol=_inverse_tol(pair, tol)),
                recent=_INVERSES_KEPT)


def _inverse_tol(pair: CommutingPair, tol: float) -> float:
    """The tolerance of K's quadrature for a residual within tol."""
    return 0.01 * tol / max(1.0, pair.A.norm() + pair.B.norm())


def _resolvent_products(pair: CommutingPair, mu, nu, sa: float = 1.0, sb: float = 1.0):
    """(sa A + mu_k)^{-1} (sb B + nu_k)^{-1} at every k, for sa, sb = +-1.

    In the pair's joint basis (:meth:`CommutingPair.joint_basis`) it is
    the product of the two :func:`linops.basis_resolvents` stacks: an
    (N, n) elementwise product when that basis is diagonal, a product of
    triangular (N, n, n) stacks when it is triangular;
    :func:`_from_joint` maps a reduced sum back.  Without one, each
    member is resolved in its own basis and the (N, n, n) stack is
    dense.  A's shifts are checked first, each by the pivot test of
    :mod:`linops`, so a SingularShift names the first singular mu_k, else
    the first singular nu_k.
    """
    basis = pair.joint_basis()
    if basis is None:
        Da, Qa = pair.A.resolvent_basis()
        Db, Qb = pair.B.resolvent_basis()
        Ra = linops.basis_resolvents((sa * Da, Qa), mu)
        Rb = linops.basis_resolvents((sb * Db, Qb), nu)
        return linops.from_basis((Da, Qa), Ra) @ linops.from_basis((Db, Qb), Rb)
    Da, Db, Q = basis
    Ra = linops.basis_resolvents((sa * Da, Q), mu)
    Rb = linops.basis_resolvents((sb * Db, Q), nu)
    return Ra * Rb if Da.ndim == 1 else Ra @ Rb


def _from_joint(pair: CommutingPair, X: np.ndarray) -> np.ndarray:
    """A sum of :func:`_resolvent_products` stacks in the original
    coordinates: :func:`linops.from_basis` in the joint basis, X itself
    without one."""
    basis = pair.joint_basis()
    if basis is None:
        return X
    Da, _, Q = basis
    return linops.from_basis((Da, Q), X)


def _pair_integral(pair: CommutingPair, spec: ContourSpec, s: float, w: complex | None,
                   tol: float) -> DunfordResult:
    """I_s(w) over spec; w = None leaves the weight out (K, decaying like
    |lam|^{-2}).

    The integrand (A + s lam)^{-1} (B - s lam)^{-1} is written as
    -(sA + lam)^{-1} (-sB + lam)^{-1} (negation is exact), so both
    factors take the node itself as their shift and a SingularShift
    names the node.  contour's weighted reduction takes the scalar
    weight -(-lam)^{1+w} and the products in the pair's joint basis and
    maps the sum back once; Q is unitary, so every node's spectral norm,
    and with it the tail estimate, is the one of the dense stack.  When
    both members are real the lower ray is read off the upper one's
    resolvents.

    ``tol``, the tolerance the caller fitted spec to, is contour's
    ``tol_tail``: TruncationNotConverged when the rays cut off more than
    that, read with the two rays summed (:func:`contour.dunford`).
    """
    if w is None:
        g, decay = lambda lam: np.full(lam.shape, -1.0 + 0j), 1.0
    else:
        g, decay = lambda lam: -((-lam) ** (1.0 + w)), abs(np.real(w))
    basis = pair.joint_basis()
    return _resolvent_sum(
        spec, g, lambda lam: _resolvent_products(pair, lam, lam, s, -s),
        back=lambda X: _from_joint(pair, X),
        real=not (pair.A.matrix.imag.any() or pair.B.matrix.imag.any()),
        item_bytes=16 * (pair.dim ** 2 if basis is None else basis[0].size),
        decay_exponent=decay, tol_tail=tol)


def _inverse_residual(pair: CommutingPair, K: np.ndarray) -> float:
    """Two-sided residual max(||K(A+B) - I||, ||(A+B)K - I||)."""
    S = pair.A.matrix + pair.B.matrix
    eye = np.eye(pair.dim)
    return max(linops.operator_norm(K @ S - eye), linops.operator_norm(S @ K - eye))


def sum_inverse(
    pair: CommutingPair,
    spec: ContourSpec | None = None,
    tol: float = 1e-6,
) -> np.ndarray:
    """The bounded inverse K of A + B by separating-contour quadrature
    over spec (default :func:`inverse_contour` at tol).

    Raises TruncationNotConverged when the two-sided residual
    ||K(A+B) - I||, ||(A+B)K - I|| exceeds tol.  A K that passes is
    kept on the pair per (spec, tol), and a later call returns a copy
    of it.
    """
    return _inverse(pair, spec, tol)[0].copy()


def _inverse(pair: CommutingPair, spec: ContourSpec | None, tol: float):
    """(K, its two-sided residual) of :func:`sum_inverse`, K read-only
    and kept on the pair per ("K", spec, tol), the _INVERSES_KEPT most
    recently used (:func:`sector.kept`); nothing is kept when an error
    is raised."""
    spec = spec or inverse_contour(pair, tol)
    return kept(pair, ("K", spec, float(tol)), lambda: _gated_inverse(pair, spec, tol),
                recent=_INVERSES_KEPT)


def _gated_inverse(pair: CommutingPair, spec: ContourSpec, tol: float):
    """(K, its two-sided residual) over spec, or TruncationNotConverged
    when the residual exceeds tol.

    A residual that the tail estimate accounts for (within a factor 100,
    after scaling by ||A|| + ||B||) asks for a finer ray rule; one far
    above it points at spectrum inside the separating sector, which a
    certificate that overstates an angle lets in.
    """
    try:
        info = _pair_integral(pair, spec, -1.0, None, _inverse_tol(pair, tol))
    except SingularShift as exc:
        raise SingularShift(
            f"contour node z={exc.shift} hits a spectrum; pass a spec whose "
            f"rays avoid both spectra (theta={spec.theta:.4f})",
            shift=exc.shift,
        ) from exc
    resid = _inverse_residual(pair, info.value)
    if resid > tol:
        tail = info.tail_estimate
        if 100.0 * tail * max(1.0, pair.A.norm() + pair.B.norm()) >= resid:
            cause = f"pass a finer ray rule (tail estimate {tail:.3e})"
        else:
            cause = (
                f"the tail estimate {tail:.3e} is far below it, so the separating "
                f"sector may contain spectrum: a certificate that overstates an angle "
                f"(theta_A = {pair.A.angle():.4f}, theta_B = {pair.B.angle():.4f}), "
                f"or a ray step too coarse for a spectrum near the rays")
        raise TruncationNotConverged(
            f"sum-inverse residual {resid:.3e} exceeds {tol:.3e}; {cause}")
    return info.value, resid


def _weighted_identity(pair, w, spec, tol, s):
    """(A K X^w, its contour side, their gap) with X = A for s = +1
    (left) and X = B for s = -1 (right)."""
    w = complex(w)
    if np.real(w) >= 0:
        raise ValueError(f"weighted identities need Re w < 0, got {w}")
    K = sum_inverse(pair, tol=max(tol, 1e-8))
    Xw = complex_power(pair.A if s > 0 else pair.B, w, tol=tol)
    lhs = pair.A.matrix @ K @ Xw
    spec = spec or sum_contour(pair, tol=tol, w=w, s=s)
    integral = _pair_integral(pair, spec, s, w, tol).value
    rhs = integral if s > 0 else Xw - integral
    return lhs, rhs, linops.operator_norm(lhs - rhs)


def weighted_identity_left(
    pair: CommutingPair,
    w: complex,
    spec: ContourSpec | None = None,
    tol: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Both sides of A K A^w = (reflected contour integral), plus their gap."""
    return _weighted_identity(pair, w, spec, tol, 1.0)


def weighted_identity_right(
    pair: CommutingPair,
    w: complex,
    spec: ContourSpec | None = None,
    tol: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Both sides of A K B^w = B^w - (contour integral), plus their gap."""
    return _weighted_identity(pair, w, spec, tol, -1.0)


# ------------------------------------------------------------ radial splits


def _check_split(theta: float, phi: float, n: int) -> None:
    if not (0.0 < theta < 1.0 and 0.0 < phi < 1.0 and theta + phi < 1.0):
        raise ValueError("need theta, phi in (0,1) with theta + phi < 1")
    if n < 0:
        raise ValueError("n must be nonnegative")


def split_integral_eval(
    pair: CommutingPair,
    theta: float,
    phi: float,
    t: float,
    n: int,
    variant: str = "right",
    tol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three radial pieces (|lambda| <= 1, the annulus up to e^n, the
    tail) of the weighted contour integral at w = -(theta+phi) + i t.

    With I_rho the integral over the rays from radius rho to infinity,
    the pieces are I_0 - I_1, I_1 - I_{e^n} and I_{e^n}, each distinct
    radius integrated once, so the middle piece is exactly zero at n = 0.

    variant "right": pieces of
        -(1/2 pi i) int (A-lam)^{-1} B^phi (B+lam)^{-1} (-lam)^{1+w} dlam
    over Gamma at theta_B - eps; they satisfy
        A K B^{-theta+it} = B^{-theta+it} + p1 + p2 + p3.
    variant "left": pieces of
        (1/2 pi i) int A^phi (A+mu)^{-1} (B-mu)^{-1} (-mu)^{1+w} dmu
    over Gamma at theta_A - eps, summing to A K A^{-theta+it}.
    """
    _check_split(theta, phi, n)
    w = -(theta + phi) + 1j * t

    if variant not in ("right", "left"):
        raise ValueError(f"unknown variant {variant!r}")
    s = -1.0 if variant == "right" else 1.0
    # B^phi (right) or A^phi (left) does not depend on the node and
    # commutes with both resolvents, so it multiplies each ray integral once
    factor = fractional_power(pair.B if s < 0 else pair.A, phi, tol=tol)

    def ray_integral(rho):
        X = _pair_integral(pair, _rays_from(pair, tol, w, s, rho), s, w, tol).value
        return -(X @ factor) if s < 0 else factor @ X

    e_n = float(np.exp(n))
    rays = {rho: ray_integral(rho) for rho in dict.fromkeys((0.0, 1.0, e_n))}
    return rays[0.0] - rays[1.0], rays[1.0] - rays[e_n], rays[e_n]


def eadic_middle_eval(
    pair: CommutingPair,
    theta: float,
    phi: float,
    t: float,
    n: int,
    theta_contour: float | None = None,
) -> np.ndarray:
    """Middle annulus of the right-variant split, rearranged over the
    multiplicative panels [e^k, e^{k+1}] with the substitution r = x e^k,
    x on four 12-point Gauss-Legendre panels of [1, e].

    Each k-summand carries the factor x^{1-theta+it} e^{(1-theta)k} e^{ikt}
    together with the rescaled factor
        (x^{-1} e^{-k} B)^phi (x^{-1} e^{-k} B + e^{+-i theta_c})^{-1},
    computed from one B^phi and one resolvent of B per node.  Agrees with
    the direct annulus quadrature at quadrature level (the change of
    variables is exact).
    """
    _check_split(theta, phi, n)
    if n == 0:
        return np.zeros((pair.dim, pair.dim), dtype=complex)
    tc = theta_contour if theta_contour is not None else sum_contour(pair).theta
    sigma = theta + phi
    Bphi = fractional_power(pair.B, phi, tol=1e-9)

    x, wq = gauss_panels(np.linspace(1.0, np.e, 5), 12)
    # every (x, k) node, x outer and k inner
    k = np.tile(np.arange(n), len(x))
    x, wq = np.repeat(x, n), np.repeat(wq, n)
    s = np.exp(-k) / x
    common = x ** (1.0 - theta + 1j * t) * np.exp((1.0 - theta) * k) * np.exp(1j * k * t) / x * wq

    out = 0.0
    for sign in (1.0, -1.0):
        e = np.exp(sign * 1j * tc)
        c = e * np.exp(sign * (np.pi - tc) * (1j * sigma + t)) / (2j * np.pi)
        # (s B + e)^{-1} (s B)^phi = s^{phi - 1} (B + e/s)^{-1} B^phi, and
        # B^phi multiplies the sum once, in the original coordinates
        R = _resolvent_products(pair, -x * np.exp(k) * e, e / s)
        out = out + np.einsum("k,k...->...", sign * c * common * e * s ** (phi - 1.0), R)
    return _from_joint(pair, out) @ Bphi


# ------------------------------------------------------------- certificates


@dataclass
class ClosednessCertificate:
    """Record of the bounded-inverse closedness verification."""

    C_AB: float
    probe_count: int
    residual_K: float
    theta_grid: tuple[float, ...]
    theta_values: tuple[float, ...]
    seed: int
    contour: dict


def certificate_probes(dim: int, n_random: int = 16, seed: int = PROBE_SEED):
    """Canonical basis plus seeded pseudo-random unit vectors."""
    rng = np.random.default_rng(seed)
    probes = [np.eye(dim, dtype=complex)[:, j] for j in range(dim)]
    for _ in range(n_random):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        probes.append(v / np.linalg.norm(v))
    return probes


def closedness_certificate(
    pair: CommutingPair,
    probes=None,
    theta_grid: tuple[float, ...] = (0.4, 0.2, 0.1, 0.05),
) -> ClosednessCertificate:
    """C_AB = sup ||A K v|| / ||v|| over the probe set, the two-sided
    inverse residual of K (within 1e-6, as sum_inverse checks), and the
    uniformity record of ||A K B^{-theta} u|| / ||u|| over a theta grid
    descending to 0.  K and its residual are the ones sum_inverse keeps
    on the pair for its default contour at 1e-6."""
    if probes is not None and len(probes) == 0:
        raise ValueError("probe set must be nonempty")
    spec = inverse_contour(pair)
    K, residual = _inverse(pair, spec, 1e-6)
    if probes is None:
        probes = certificate_probes(pair.dim)
    probes = [linops.as_vector(p, pair.dim) for p in probes]
    if any(np.linalg.norm(p) == 0 for p in probes):
        raise ValueError("probes must be nonzero")

    def gain(T):
        return max(float(np.linalg.norm(T @ v) / np.linalg.norm(v)) for v in probes)

    AK = pair.A.matrix @ K
    C_AB = gain(AK)
    theta_values = [gain(AK @ complex_power(pair.B, -th)) for th in theta_grid]
    return ClosednessCertificate(
        C_AB=C_AB,
        probe_count=len(probes),
        residual_K=residual,
        theta_grid=tuple(theta_grid),
        theta_values=tuple(theta_values),
        seed=PROBE_SEED,
        contour=asdict(spec),
    )

"""Dense complex linear algebra substrate.

Everything above this module works through these primitives: shifted
solves ``(M + z)^{-1} rhs``; stacked resolvents ``(M + z_k)^{-1}`` and
solutions ``(M + z_k)^{-1} x_k`` over many shifts, taken in a unitary
basis of M; the two forms of that basis (the eigenbasis of a normal M
and the complex Schur form of any M) and the resolvents in it
(``1/(d_i + z_k)`` on the eigenvalues, ``(T + z_k)^{-1}`` for the
triangular T); resolvent norms ``||(M + z)^{-1}||`` over many shifts;
spectral norms; and matrix exponentials.  Matrices are plain ``numpy``
arrays of ``complex128``; all operations are pure and never mutate
their inputs.  Only the Schur form, the LU of
:class:`ShiftedFactorization` and :func:`matrix_exp` need
``scipy.linalg``, and each imports it when called, so a diagonal or
Hermitian operator is resolved with numpy alone.

Shifted solves go through LAPACK getrf (LU with partial pivoting) and
call a shift singular when the smallest pivot falls below
``SINGULAR_RTOL * ||M + zI||_F``.

Every contour quadrature holds its resolvents in a unitary basis (D, Q)
of M (:func:`basis_resolvents`, one stack per chunk of nodes), reduces
them there and maps the sum back with one ``Q (.) Q^*``
(:func:`from_basis`); :func:`basis_solve` applies them to vectors with
no matrix formed, O(n^2) per shift.  Any M has
its complex Schur form M = Q T Q^* (:func:`schur_form`), and
:func:`triangular_resolvents` inverts every ``T + z_k I`` of a chunk by
one row back-substitution vectorised over the shifts.  The pivots of
T + zI are t_ii + z and ``||T + zI||_F = ||M + zI||_F``, so a shift is
singular when ``min_i |t_ii + z| <= SINGULAR_RTOL * ||M + zI||_F``: the
pivot test above, on a matrix unitarily similar to M + zI.

A normal matrix has the closed form ``M = Q diag(d) Q^*`` with Q unitary.
:func:`normal_basis` returns (d, Q) when M is normal to working precision
and None otherwise: a diagonal M is its own basis, an exactly Hermitian
M takes ``numpy.linalg.eigh``, and any other M is tested on its complex
Schur form (its departure from normality must be within
``NORMAL_DEPARTURE * n eps ||M||_F``).  In that
basis the resolvents are the (N, n) array ``1/(d_i + z_k)``
(:func:`spectral_resolvents`), :func:`from_basis` forms
``Q diag(.) Q^*`` and :func:`resolvent_norms` returns
``1/min_i |d_i + z_k|``, with no factorization; the singular-shift test
is the one above with T diagonal.

Resolvent norms need no inverse: ``||(M + z)^{-1}||_2 = 1/sigma_min(M + z)``.
Without a normal basis, :func:`resolvent_norms` stacks ``M + z_k I`` in
bounded-memory chunks and takes the singular values of each chunk in
one call; a shift is singular when the smallest singular value falls
below ``SINGULAR_RTOL * ||M + zI||_F``, which for a normal M is the
closed form's test.

A sup of ``(1 + |z|) ||(M + z)^{-1}||`` over sampled shifts (a sector
constant) needs the norm only where it can set the sup.
:func:`weighted_resolvent_norms` decomposes the shifts one stacked chunk
at a time and bounds sigma_min at every shift not yet decomposed from
the singular values already taken: sigma_min(M + z) is 1-Lipschitz in
z (Weyl's inequality), so s of M + z' gives
``sigma_min(M + z) >= max(s_min - |z - z'|, |z - z'| - s_max)``, less
``8 n eps (s_max + |z - z'|)`` for rounding.  A shift is skipped when
that bound keeps its value below the running sup (or a caller's cap)
and also keeps it clear of the singular-shift test, so the sup, its
first argmax and the first singular shift are those of every shift.
A skipped shift stays skipped, since the running sup only rises, so
each decomposition bounds only the shifts still in play and the
bounding work shrinks as the sup is found.  The first decomposition is
always M itself, the shift z' = 0 (:func:`singular_values`), which a
caller that caches it (``sector.MatrixOperator``) passes in: its bounds
prime every shift, and a sampled 0 takes its value from it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, OverflowRisk, SingularShift

#: a shift is singular when the smallest pivot (ShiftedFactorization's LU,
#: the t_ii + z of the Schur or normal form of basis_resolvents) or singular
#: value (resolvent_norms) of M + zI is below SINGULAR_RTOL * ||M + zI||_F
SINGULAR_RTOL = 1e-13

#: normal_basis accepts M when the Henrici departure from normality of its
#: complex Schur form, ||strict_upper(T)||_F, is at most NORMAL_DEPARTURE
#: * n eps ||M||_F.  Normal matrices formed in floating point as
#: Q diag(d) Q^* reach 2.5 in these units at n = 2..5 (40 000 random
#: draws); the non-normal test operators (convection-diffusion, Jordan
#: blocks, [[1, 1e-12], [0, 2]]) sit at 1e3 and above
NORMAL_DEPARTURE = 8.0

# bytes of a stack per chunk, read only through stack_step; a 1 MiB stack
# keeps peak memory where a per-shift loop would
_SHIFT_STACK_BYTES = 1 << 20

#: largest spectral norm accepted by matrix_exp before scaling/squaring
#: is considered at risk of overflow (exp(1000) already overflows poorly
#: through intermediate powers; 200 leaves a wide safety margin)
EXP_NORM_BUDGET = 200.0


def as_matrix(m) -> np.ndarray:
    """Validate and return a square complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"expected a non-empty square matrix, got shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(v, dim=None) -> np.ndarray:
    """Validate and return a complex vector, optionally of fixed dimension."""
    x = np.asarray(v, dtype=complex).reshape(-1)
    if not (np.all(np.isfinite(x.real)) and np.all(np.isfinite(x.imag))):
        raise ValueError("vector entries must be finite")
    if dim is not None and x.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {x.shape[0]}")
    return x


class ShiftedFactorization:
    """LU factorization of M + zI, reusable across right-hand sides.

    Raises
    ------
    SingularShift
        If a diagonal pivot of U falls below ``SINGULAR_RTOL * ||M + zI||_F``,
        i.e. the shift is numerically on the spectrum.
    """

    def __init__(self, M: np.ndarray, z: complex):
        M = as_matrix(M)
        shifted = M + z * np.eye(M.shape[0])
        scale = np.linalg.norm(shifted, "fro")
        import scipy.linalg

        lu, piv, _ = scipy.linalg.lapack.zgetrf(shifted)
        pivot = np.min(np.abs(np.diagonal(lu)))
        if scale == 0.0 or pivot <= SINGULAR_RTOL * scale:
            raise SingularShift(
                f"shift z={z} is numerically on the spectrum "
                f"(min pivot {pivot:.3e}, scale {scale:.3e})",
                shift=z,
            )
        self._lu = (lu, piv)
        self.dim = M.shape[0]
        self.shift = z

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (M + zI) x = rhs for vector or matrix rhs."""
        rhs = np.asarray(rhs, dtype=complex)
        if rhs.shape[0] != self.dim:
            raise DimensionMismatch(
                f"rhs has leading dimension {rhs.shape[0]}, expected {self.dim}"
            )
        import scipy.linalg

        return scipy.linalg.lu_solve(self._lu, rhs, check_finite=False)

    def inverse(self) -> np.ndarray:
        """Dense (M + zI)^{-1}, from the LU factors (LAPACK getri)."""
        import scipy.linalg

        inv, _ = scipy.linalg.lapack.zgetri(*self._lu)
        return inv


def solve_shifted(M, z, rhs) -> np.ndarray:
    """Solve (M + zI) x = rhs.

    Convenience wrapper around :class:`ShiftedFactorization` for a single
    right-hand side.
    """
    return ShiftedFactorization(M, complex(z)).solve(as_vector(rhs))


def schur_form(M):
    """Complex Schur form (T, Q) of M: M = Q T Q^* with T upper
    triangular and Q unitary."""
    import scipy.linalg

    return scipy.linalg.schur(as_matrix(M), output="complex", check_finite=False)


def departure_tolerance(M) -> float:
    """NORMAL_DEPARTURE * n eps ||M||_F: the largest Frobenius norm of a
    strict triangle of a unitarily similar form of M that is taken as
    rounding (see :func:`normal_basis`)."""
    return NORMAL_DEPARTURE * M.shape[0] * np.finfo(float).eps * float(np.linalg.norm(M))


def normal_basis(M):
    """(d, Q) with M = Q diag(d) Q^* and Q unitary, or None.

    A diagonal M is exactly (diag M, I).  An M equal to its conjugate
    transpose bit for bit is Hermitian, hence normal, and its basis is
    the Hermitian eigendecomposition (LAPACK heevd).  Any
    other M is taken as normal when its complex Schur form M = Q T Q^*
    has ||strict_upper(T)||_F <= NORMAL_DEPARTURE * n eps ||M||_F
    (Henrici's departure from normality), so the closed forms built on
    (d, Q) stay within the backward error of the dense path.  A
    departure delta bounds the commutator ||MM^* - M^*M||_F by about
    4 delta ||M||_F plus the rounding of the two products, so a
    commutator above 8 times that tolerance turns M away before its
    Schur form is taken.
    """
    M = as_matrix(M)
    d = np.diagonal(M)
    if np.array_equal(M, np.diag(d)):
        return d.copy(), np.eye(M.shape[0], dtype=complex)
    if np.array_equal(M, M.conj().T):
        d, Q = np.linalg.eigh(M)
        return d.astype(complex), Q
    if _commutator_too_large(M):
        return None
    tol = departure_tolerance(M)
    T, Q = schur_form(M)
    if np.linalg.norm(np.triu(T, 1)) > tol:
        return None
    return np.diagonal(T).copy(), Q


def _commutator_too_large(M: np.ndarray) -> bool:
    """||MM^* - M^*M||_F > 8 departure_tolerance(M) ||M||_F, the test of
    :func:`normal_basis`, taken on M / 2^k with its largest entry below
    1, where the products cannot overflow.  The test is scale invariant
    and a power of two scales exactly (2^-k stays finite for a subnormal
    M)."""
    S = M * 2.0 ** -max(int(np.frexp(np.max(np.abs(M)))[1]), -1000)
    Sh = S.conj().T
    commutator = S @ Sh
    commutator -= Sh @ S
    return bool(np.linalg.norm(commutator) > 8.0 * departure_tolerance(S) * np.linalg.norm(S))


def _pivot_distances(d, z: np.ndarray, off: float = 0.0):
    """min_i |d_i + z_k| for every shift, and a mask of the singular ones.

    d is the diagonal of a triangular T whose strictly upper part has
    Frobenius norm ``off`` (0 for a normal basis); shift k is singular
    when min_i |d_i + z_k| <= SINGULAR_RTOL * ||T + z_k I||_F.  The
    d_i + z_k are the pivots of T + z_k I, and T is unitarily similar to
    M, so this is ShiftedFactorization's pivot test on a matrix with the
    Frobenius norm of M + z_k I.  The (shifts x n) distance table is
    taken a stack of shifts at a time, so memory stays within the stack
    budget whatever the number of shifts.
    """
    step = stack_step(16 * d.shape[0])
    if z.shape[0] <= step:
        return _pivot_chunk(d, z, off)
    chunks = [_pivot_chunk(d, z[lo:lo + step], off) for lo in range(0, z.shape[0], step)]
    return tuple(np.concatenate(parts) for parts in zip(*chunks))


def _pivot_chunk(d, z: np.ndarray, off: float):
    """:func:`_pivot_distances` of one stack of shifts."""
    dist = np.abs(z[:, None] + d)
    nearest = dist.min(axis=1)
    with np.errstate(over="ignore"):
        sq = (dist * dist).sum(axis=1)
    if off:
        sq += off * off
    scale = np.sqrt(sq)
    singular = nearest <= SINGULAR_RTOL * scale
    if singular.any():
        # a sum of squares that overflowed (|z| near the ray rule's clamp at
        # e^354, or a shift past 1e154) is taken again over the entries divided
        # by the row's largest, and the test made in that unit
        big = np.flatnonzero(np.isinf(scale))
        top = np.maximum(dist[big].max(axis=1), off)
        unit = np.sqrt(((dist[big] / top[:, None]) ** 2).sum(axis=1) + (off / top) ** 2)
        singular[big] = nearest[big] / top <= SINGULAR_RTOL * unit
    return nearest, singular


def _inverse_pivots(d, z: np.ndarray, off: float = 0.0) -> np.ndarray:
    """1/(d_i + z_k) as an (N, n) array; raises SingularShift for the
    first singular shift (see :func:`_pivot_distances`) in the order given."""
    nearest, singular = _pivot_distances(d, z, off)
    if singular.any():
        k = int(np.argmax(singular))
        raise SingularShift(
            f"shift z={complex(z[k])} is numerically on the spectrum "
            f"(distance {nearest[k]:.3e} to the nearest eigenvalue)",
            shift=complex(z[k]),
        )
    return 1.0 / (d + z[:, None])


def spectral_resolvents(basis, shifts) -> np.ndarray:
    """1/(d_i + z_k) for every shift, stacked as an (N, n) array: the
    eigenvalues of (M + z_k I)^{-1} for ``basis`` = (d, Q) from
    :func:`normal_basis`.  Raises SingularShift for the first singular
    shift in the order given."""
    return _inverse_pivots(basis[0], as_vector(shifts))


def triangular_resolvents(T, shifts) -> np.ndarray:
    """(T + z_k I)^{-1} for an upper-triangular T and every shift,
    stacked as an (N, n, n) array.

    Row back-substitution vectorised over the shifts: row i of every
    inverse is -(T[i, i+1:] X[i+1:, i+1:]) / (t_ii + z_k), one
    matrix-vector product over the (n - i - 1) N columns of the rows
    below, laid out (n, n, N) so those columns are contiguous.  Returns
    a view of that layout.  Raises SingularShift for the first singular
    shift in the order given.
    """
    T = as_matrix(T)
    z = as_vector(shifts)
    n, N = T.shape[0], z.shape[0]
    inv = _inverse_pivots(np.diagonal(T), z, np.linalg.norm(np.triu(T, 1))).T
    X = np.zeros((n, n, N), dtype=complex)
    diag = np.arange(n)
    X[diag, diag] = inv
    for i in range(n - 2, -1, -1):
        m = n - 1 - i
        below = X[i + 1:, i + 1:].reshape(m, m * N)
        X[i, i + 1:] = (T[i, i + 1:] @ below).reshape(m, N) * -inv[i]
    return np.moveaxis(X, 2, 0)


def basis_resolvents(basis, shifts) -> np.ndarray:
    """(M + z_k I)^{-1} held in a unitary basis (D, Q) of M: the (N, n)
    array 1/(d_i + z_k) for (d, Q) from :func:`normal_basis`, the
    (N, n, n) stack (T + z_k I)^{-1} for a Schur form (T, Q).  Raises
    SingularShift for the first singular shift in the order given."""
    D = basis[0]
    if D.ndim == 1:
        return spectral_resolvents(basis, shifts)
    return triangular_resolvents(D, shifts)


def basis_solve(basis, shifts, X) -> np.ndarray:
    """(M + z_k I)^{-1} x_k for every shift as an (N, n) array, x_k row k
    of X or X itself, solved in a unitary basis (D, Q) of M:
    Q ((Q^* x_k) / (d + z_k)) on a normal basis, one back-substitution
    over the rows of T + z_k I, vectorised over the shifts, on a Schur
    basis.  Raises SingularShift for the first singular shift in order."""
    D, Q = basis
    z = as_vector(shifts)
    C = np.asarray(X, dtype=complex) @ Q.conj()  # rows Q^* x_k
    if D.ndim == 1:
        return (_inverse_pivots(D, z) * C) @ Q.T
    inv = _inverse_pivots(np.diagonal(D), z, np.linalg.norm(np.triu(D, 1))).T
    Y = np.array(np.broadcast_to(np.atleast_2d(C).T, inv.shape))  # (n, N)
    for i in range(D.shape[0] - 1, -1, -1):
        Y[i] = (Y[i] - D[i, i + 1:] @ Y[i + 1:]) * inv[i]
    return Y.T @ Q.T


def basis_eigenvalues(basis) -> np.ndarray:
    """The eigenvalues of M read off a unitary basis (D, Q) of it: d
    itself for a normal basis, the diagonal of a Schur form's T."""
    D = basis[0]
    return D if D.ndim == 1 else np.diagonal(D)


def from_basis(basis, X) -> np.ndarray:
    """X mapped back from the unitary basis (D, Q) it is held in:
    Q diag(X) Q^* for a normal basis, Q X Q^* for a Schur basis, over
    any leading axes of X (see :func:`basis_resolvents`)."""
    D, Q = basis
    if D.ndim == 1:
        return (Q * X[..., None, :]) @ Q.conj().T
    return Q @ X @ Q.conj().T


def resolvent_norms(M, shifts, basis=None) -> np.ndarray:
    """||(M + z)^{-1}||_2 = 1/sigma_min(M + z) for every shift z.

    Returns a float array in the order of ``shifts``.  An entry is
    ``inf`` where sigma_min(M + z) <= ``SINGULAR_RTOL * ||M + zI||_F``
    (the Frobenius norm taken from the same singular values), i.e. the
    shift is numerically on the spectrum.  With ``basis`` = (d, Q) from
    :func:`normal_basis`, sigma_min(M + z) = min_i |d_i + z| and no
    matrix is formed.  Without one, a real M has M + conj(z) =
    conj(M + z) and the same singular values, so each distinct
    (Re z, |Im z|) is decomposed once.  Only that path reads (and
    validates) M.
    """
    z = as_vector(shifts)
    if basis is not None:
        nearest, singular = _pivot_distances(basis[0], z)
        out = np.full(z.shape[0], np.inf)
        out[~singular] = 1.0 / nearest[~singular]
        return out
    M = as_matrix(M)
    return _per_conjugate_pair(M, z, lambda u: _singular_value_norms(M, u))


def weighted_resolvent_norms(M, shifts, basis=None, floor=0.0, cap=np.inf,
                             s0=None) -> np.ndarray:
    """(1 + |z|) ||(M + z)^{-1}||_2 at every shift z that can still set
    min(max(sup, floor), cap), the sup taken over these values; ``-inf``
    at the others.

    With ``basis`` this is ``(1 + |z|) * resolvent_norms(M, z, basis)``
    at every shift.  Without one, sigma_min(M + z) is 1-Lipschitz in z
    (Weyl's inequality), so the singular values s of M + z' bound it at
    every other shift:

        sigma_min(M + z) >= max(s_min - |z - z'|, |z - z'| - s_max)
                            - 8 n eps (s_max + |z - z'|),

    the last term a margin for the rounding of both decompositions.
    The first decomposition is z' = 0: ``s0``, :func:`singular_values`
    of M, taken here unless the caller holds it.  Its bounds prime every
    shift, and a sampled 0 takes its value from it.  Then, best first in
    stacked chunks that double from one shift, every shift whose bound
    leaves it near singular or whose value bound (1 + |z|)/bound still
    reaches the target min(max(running max, floor), cap) is decomposed.
    A shift is left out only when its bound also exceeds
    ``SINGULAR_RTOL * (||M||_F + sqrt(n)|z|)``, so it is provably
    resolvable: the ``inf`` entries (singular shifts),
    the entries above ``cap`` and the first index of the largest entry
    are those of the exhaustive computation.  A real M decomposes each
    distinct (Re z, |Im z|) once, as in :func:`resolvent_norms`.
    """
    if basis is not None:
        return (1.0 + np.abs(shifts)) * resolvent_norms(M, shifts, basis)
    M = as_matrix(M)
    z = as_vector(shifts)
    if s0 is None:
        s0 = singular_values(M)
    return (1.0 + np.abs(z)) * _per_conjugate_pair(
        M, z, lambda u: _pruned_norms(M, u, floor, cap, s0))


def _per_conjugate_pair(M: np.ndarray, z: np.ndarray, norms) -> np.ndarray:
    """norms(shifts) at z; for a real M, whose M + conj(z) = conj(M + z)
    has the singular values of M + z, called once per distinct
    (Re z, |Im z|)."""
    if M.imag.any():
        return norms(z)
    upper, back = np.unique(np.where(z.imag < 0, z.conj(), z), return_inverse=True)
    return norms(upper)[back]


def _pruned_norms(M: np.ndarray, z: np.ndarray, floor: float, cap: float,
                  s0: np.ndarray) -> np.ndarray:
    """1/sigma_min(M + z_k) where (1 + |z_k|)/sigma_min can reach the
    target of :func:`weighted_resolvent_norms`, ``-inf`` elsewhere;
    ``s0`` is :func:`singular_values` of M."""
    n, N = M.shape[0], z.shape[0]
    norms = np.full(N, -np.inf)
    if not N:
        return norms
    weight = 1.0 + np.abs(z)
    resolvable = SINGULAR_RTOL * (np.linalg.norm(M) + np.sqrt(n) * np.abs(z))
    margin = 8.0 * n * np.finfo(float).eps
    lower = np.zeros(N)  # lower bounds on sigma_min(M + z_k)
    top = -np.inf
    step = stack_step(16 * n * n)
    # s holds the singular values at the points at; they give the norms at
    # take.  First M itself, at 0, which fills every sampled 0.
    take, at, s = np.flatnonzero(z == 0), np.zeros(1, dtype=complex), s0[None]
    live = np.delete(np.arange(N), take)
    chunk = 1
    while True:
        norms[take] = _norms_from_singular_values(s)
        top = max(top, float(np.max(weight[take] * norms[take], initial=-np.inf)))
        # the live x block distance table stays within one stack's bytes
        block = stack_step(16 * max(live.size, 1))
        for lo in range(0, at.size, block):
            dist = np.abs(z[live, None] - at[None, lo:lo + block])
            s_min, s_max = s[lo:lo + block, -1], s[lo:lo + block, 0]
            bound = np.maximum(s_min - dist, dist - s_max) - margin * (s_max + dist)
            lower[live] = np.maximum(lower[live], np.max(bound, axis=1))
        # a shift dropped here cannot come back: the target only rises
        target = min(max(top, floor), cap)
        keep = lower[live] <= resolvable[live]
        # after a singular shift the target is inf, which only the shifts
        # kept as near singular can reach (and inf * 0 is nan)
        if np.isfinite(target):
            keep |= weight[live] >= target * lower[live]
        live = live[keep]
        order = np.argsort(lower[live] / weight[live], kind="stable")
        take, live = live[order[:chunk]], live[order[chunk:]]
        if not take.size:
            return norms
        at = z[take]
        s = _shifted_singular_values(M, at)
        chunk = min(2 * chunk, step)


def _sorted_distinct(x) -> np.ndarray:
    """The distinct entries of a real or complex array without NaN,
    ascending, from one sort: np.unique(x), whose plain form imports
    numpy.ma (10-13 ms) to test for a mask."""
    x = np.sort(np.ravel(x))
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def stack_step(item_bytes: int) -> int:
    """Items of ``item_bytes`` bytes per stacked chunk, at least one: the
    one stack budget (1 MiB) of every chunked loop in the package."""
    return max(1, _SHIFT_STACK_BYTES // item_bytes)


def singular_values(M) -> np.ndarray:
    """The singular values of M, descending: the decomposition at the
    shift 0 that :func:`weighted_resolvent_norms` takes as ``s0``."""
    return _shifted_singular_values(as_matrix(M), np.zeros(1, dtype=complex))[0]


def _shifted_singular_values(M: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The singular values of every M + z_k I, descending, as an (N, n)
    array, from stacks taken in bounded-memory chunks."""
    n = M.shape[0]
    out = np.empty((z.shape[0], n))
    step = stack_step(16 * n * n)
    diag = np.arange(n)
    for lo in range(0, z.shape[0], step):
        zc = z[lo:lo + step]
        stack = np.repeat(M[None], zc.shape[0], axis=0)
        stack[:, diag, diag] += zc[:, None]
        out[lo:lo + step] = np.linalg.svd(stack, compute_uv=False)
    return out


def _norms_from_singular_values(s: np.ndarray) -> np.ndarray:
    """1/sigma_min for each row of singular values, ``inf`` where
    sigma_min <= SINGULAR_RTOL * (the row's Frobenius norm)."""
    s_min = s[:, -1]
    out = np.full(s.shape[0], np.inf)
    resolvable = s_min > SINGULAR_RTOL * np.sqrt(np.sum(s * s, axis=1))
    out[resolvable] = 1.0 / s_min[resolvable]
    return out


def _singular_value_norms(M: np.ndarray, z: np.ndarray) -> np.ndarray:
    """1/sigma_min(M + z_k), ``inf`` on singular shifts, from the
    singular values of M + z_k I stacked in bounded-memory chunks."""
    return _norms_from_singular_values(_shifted_singular_values(M, z))


def operator_norm(M) -> float:
    """Spectral norm (largest singular value) of M, from an exact SVD."""
    return float(np.linalg.norm(as_matrix(M), 2))


def matrix_exp(M) -> np.ndarray:
    """Matrix exponential via scaling and squaring.

    Raises
    ------
    OverflowRisk
        If ``||M||_2`` exceeds ``EXP_NORM_BUDGET``.
    """
    M = as_matrix(M)
    nrm = operator_norm(M)
    if nrm > EXP_NORM_BUDGET:
        raise OverflowRisk(
            f"||M|| = {nrm:.3e} exceeds the exponential scaling budget "
            f"{EXP_NORM_BUDGET:.1f}"
        )
    if nrm == 0.0:
        return np.eye(M.shape[0], dtype=complex)
    import scipy.linalg  # expm is looked up on the module, where it may be wrapped

    return scipy.linalg.expm(M)


# ----------------------------------------------------------------- file IO

def _format_entry(v: complex) -> str:
    re_s = format(v.real, ".17g")
    im = v.imag
    sign = "-" if np.signbit(im) else "+"
    return f"{re_s}{sign}{format(abs(im), '.17g')}i"


def _parse_entry(s: str) -> complex:
    """Parse 're+imi' / 're-imi'; the split sign is the last +/- not
    inside an exponent."""
    s = s.strip()
    if not s.endswith("i"):
        raise ValueError(f"cannot parse matrix entry {s!r}")
    body = s[:-1]
    split = -1
    for i in range(len(body) - 1, 0, -1):
        if body[i] in "+-" and body[i - 1] not in "eE":
            split = i
            break
    if split <= 0:
        raise ValueError(f"cannot parse matrix entry {s!r}")
    return complex(float(body[:split]), float(body[split:]))


def write_matrix(path, M) -> None:
    """Write a matrix as CSV: first line n, then n rows of 're+imi' entries.

    Entries use 17 significant decimal digits, enough for a bit-exact
    float64 round-trip.
    """
    M = as_matrix(M)
    n = M.shape[0]
    with open(path, "w") as fh:
        fh.write(f"{n}\n")
        for row in M:
            fh.write(",".join(_format_entry(v) for v in row) + "\n")


def read_matrix(path, max_dim: int | None = None) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix`.

    A dimension (the first line) above ``max_dim`` raises ValueError
    before any row is read."""
    with open(path) as fh:
        lines = filter(None, (ln.strip() for ln in fh))
        header = next(lines, None)
        if header is None:
            raise ValueError(f"{path}: empty matrix file")
        n = int(header)
        if n < 1:
            raise ValueError(f"{path}: matrix size {n} is not positive")
        if max_dim is not None and n > max_dim:
            raise ValueError(f"{path}: matrix size {n} is past the cap of {max_dim}")
        lines = list(lines)
    if len(lines) != n:
        raise ValueError(f"{path}: expected {n} rows, found {len(lines)}")
    rows = []
    for ln in lines:
        entries = [_parse_entry(tok) for tok in ln.split(",")]
        if len(entries) != n:
            raise ValueError(f"{path}: row with {len(entries)} entries, expected {n}")
        rows.append(entries)
    return np.array(rows, dtype=complex)

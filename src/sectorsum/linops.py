"""Dense complex linear algebra substrate.

Everything above this module works through three primitives: shifted
solves ``(M + z)^{-1} rhs``, spectral norms, and matrix exponentials.
Matrices are plain ``numpy`` arrays of ``complex128``; all operations
are pure and never mutate their inputs.

Shifted solves go through an LU factorization with partial pivoting
(``scipy.linalg.lu_factor``).  A factorization object can be kept and
reused for many right-hand sides, which is how contour quadratures
amortize the O(n^3) cost per node.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, OverflowRisk, SingularShift

#: pivots below PIVOT_RTOL * ||M + zI|| raise SingularShift
PIVOT_RTOL = 1e-13

#: largest spectral norm accepted by matrix_exp before scaling/squaring
#: is considered at risk of overflow (exp(1000) already overflows poorly
#: through intermediate powers; 200 leaves a wide safety margin)
EXP_NORM_BUDGET = 200.0

#: dimension above which operator_norm switches from exact SVD to power
#: iteration on the Gram operator
SVD_CUTOFF = 128


def as_matrix(m) -> np.ndarray:
    """Validate and return a square complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
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
        If a diagonal pivot of U falls below ``PIVOT_RTOL * ||M + zI||_F``,
        i.e. the shift is numerically on the spectrum.
    """

    def __init__(self, M: np.ndarray, z: complex):
        M = as_matrix(M)
        shifted = M + z * np.eye(M.shape[0])
        scale = np.linalg.norm(shifted, "fro")
        with warnings.catch_warnings():
            # exact singularity is reported through SingularShift below
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(shifted, check_finite=False)
        pivots = np.abs(np.diag(lu))
        if scale == 0.0 or np.min(pivots) <= PIVOT_RTOL * scale:
            raise SingularShift(
                f"shift z={z} is numerically on the spectrum "
                f"(min pivot {np.min(pivots):.3e}, scale {scale:.3e})",
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
        return scipy.linalg.lu_solve(self._lu, rhs, check_finite=False)

    def inverse(self) -> np.ndarray:
        """Dense (M + zI)^{-1}."""
        return self.solve(np.eye(self.dim, dtype=complex))


def solve_shifted(M, z, rhs) -> np.ndarray:
    """Solve (M + zI) x = rhs.

    Convenience wrapper around :class:`ShiftedFactorization` for a single
    right-hand side.
    """
    return ShiftedFactorization(M, complex(z)).solve(as_vector(rhs))


def operator_norm(M) -> float:
    """Spectral norm (largest singular value) of M.

    Uses an exact SVD up to ``SVD_CUTOFF`` and power iteration on the
    Gram operator M^H M above it.
    """
    M = as_matrix(M)
    n = M.shape[0]
    if n <= SVD_CUTOFF:
        return float(np.linalg.norm(M, 2))
    rng = np.random.default_rng(0x5EC7)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    sigma = 0.0
    for _ in range(200):
        y = M.conj().T @ (M @ x)
        new = np.linalg.norm(y)
        if new == 0.0:
            return 0.0
        x = y / new
        if abs(new - sigma) <= 1e-12 * new:
            sigma = new
            break
        sigma = new
    return float(np.sqrt(sigma))


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


def read_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix`."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    n = int(lines[0])
    if len(lines) != n + 1:
        raise ValueError(f"{path}: expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        entries = [_parse_entry(tok) for tok in ln.split(",")]
        if len(entries) != n:
            raise ValueError(f"{path}: row with {len(entries)} entries, expected {n}")
        rows.append(entries)
    return np.array(rows, dtype=complex)

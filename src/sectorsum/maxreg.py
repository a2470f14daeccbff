"""Time-derivative operator on a uniform grid and maximal-regularity
constants for the zero-initial-value parabolic problem f' + A f = g.

The derivative operator with domain {f(0) = 0} has empty spectrum on a
finite interval; its resolvent is the causal convolution

    ((B + lam)^{-1} g)(t) = int_0^t e^{lam (x - t)} g(x) dx,

valid for every complex lam, with the L^p bound
||(B+lam)^{-1}|| <= (1 - e^{-Re(lam) tau}) / Re(lam) for Re lam > 0 (the
L^1 norm of the kernel).  Both the scalar resolvent and the solution
map g -> f = int_0^t e^{(x-t)A} g dx are discretized by exact
integration of the exponential kernel against the piecewise-linear
interpolant of g, so quadrature error never pollutes the bound checks;
the only discretization error is O(dt^2) interpolation.

The Cauchy step f_{i+1} = e^{-hA} f_i + h (phi_1 - phi_2)(-hA) g_i
+ h phi_2(-hA) g_{i+1} uses the phi-functions phi_1(z) = (e^z - 1)/z and
phi_2(z) = (e^z - 1 - z)/z^2, read off the exponential of the block
matrix [[-hA, I, 0], [0, 0, I], [0, 0, 0]] with no inverse of A.  The
steps are built once per (A, dt) in one of two bases: a
maximal-regularity constant, its adversarial searches and every p of a
p sweep share one stepper.

- A normal operator steps in the eigenbasis (d, Q) that
  `MatrixOperator.normal_basis` caches: the step is diagonal there,
  its scalars come from closed forms in expm1 for the stiff steps,
  |h d| >= 1, and from one batched exponential of 3 x 3 blocks for the
  others (Kassam & Trefethen, SIAM J. Sci. Comput. 26, 2005), and
  a sweep is n scalar recurrences, run as a two-level elementwise scan
  over the time nodes (Hochbruck & Ostermann, Exponential integrators,
  Acta Numer. 2010; Blelloch, Prefix sums and their applications,
  1990): log2(b) window passes, then one recurrence over groups of b
  rows, b = 8 for n >= 40 and 16 for 16 <= n < 40.  For n < 16, and
  when N - 1 < b, the window passes alone are the plain log-depth scan,
  bit for bit.  The probe search of a constant stays in these
  coordinates, and so do the forcings it finds until their probe
  sweeps: Q is unitary and acts on the components only, so pointwise
  norms and the time-derivative stencil do not see it, A f is d f, and
  A^* W A is one product with the table w |d|^2.
  A stepper's first sweep builds the scan's step tables (2.4 MB at
  n = 48, N = 513), and every sweep of the stepper, forward or adjoint,
  runs on them; a constant takes 44.
- Any other operator takes one 3n x 3n exponential and sweeps the
  nodes one n x n product at a time.

The scalar resolvent of the derivative operator is the plain scan with
one scalar step, whose factors stay 0-d.  A sweep whose modes would grow
past e^{_GROWTH_LIMIT} over the grid raises OverflowRisk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BoundViolated, DimensionMismatch, OverflowRisk
from .sector import MatrixOperator

ADVERSARIAL_SEED = 0x9D3A17  # recorded seed for worst-case probe searches
# log of the largest growth e^{rate t} a Cauchy sweep may meet on its grid.
# A constant's power iteration takes norms (sums of squares) of an adjoint
# sweep of a forward one, so a growth G reaches G^4 there; the eighth root
# of the largest double leaves as much again for d, 1/h and the weights.
_GROWTH_LIMIT = np.log(np.finfo(float).max) / 8


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, tau] with N_t intervals (N_t + 1 nodes) and an
    L^p exponent.  Periodic grids (for the circle of circumference tau)
    carry N_t nodes and uniform quadrature weights."""

    tau: float
    N_t: int
    p: float = 2.0
    periodic: bool = False

    def __post_init__(self):
        if not (0.0 < self.tau < np.inf):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if isinstance(self.N_t, bool) or not isinstance(self.N_t, (int, np.integer)):
            raise ValueError(f"N_t must be an integer, got {self.N_t!r}")
        if self.N_t < 16:
            raise ValueError("N_t must be at least 16")
        if not (1.0 < self.p < np.inf):
            raise ValueError(f"p must lie in (1, inf), got {self.p}")
        if self.dt < np.finfo(float).tiny:
            raise ValueError(f"tau / N_t = {self.dt:g} is below the smallest normal double")

    @property
    def dt(self) -> float:
        return self.tau / self.N_t

    @property
    def n_nodes(self) -> int:
        return self.N_t if self.periodic else self.N_t + 1

    def times(self) -> np.ndarray:
        if self.periodic:
            return np.arange(self.N_t) * self.dt
        return np.linspace(0.0, self.tau, self.N_t + 1)

    def weights(self) -> np.ndarray:
        w = np.full(self.n_nodes, self.dt)
        if not self.periodic:
            w[0] *= 0.5
            w[-1] *= 0.5
        return w


@dataclass
class GridFunction:
    """Vector-valued samples on a TimeGrid, one row per node."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != self.grid.n_nodes:
            raise DimensionMismatch(
                f"{v.shape[0]} samples for a grid with {self.grid.n_nodes} nodes"
            )
        self.values = v

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def lp_norm(self, p: float | None = None) -> float:
        pointwise = np.linalg.norm(self.values, axis=1)
        return _weighted_lp_norm(pointwise, self.grid.weights(), p or self.grid.p)

    def map_values(self, fn) -> "GridFunction":
        return GridFunction(self.grid, fn(self.values))


# ------------------------------------------------- scalar derivative resolvent


def deriv_resolvent(lam: complex, g: GridFunction) -> GridFunction:
    """(B + lam)^{-1} g: the causal convolution with e^{lam(x-t)},
    integrated exactly against the piecewise-linear interpolant of g."""
    lam, h = complex(lam), g.grid.dt
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    tables = _StepTables(_cauchy_step_scalars(lam, h), g.values.shape, h)
    return GridFunction(g.grid, tables.sweep(g.values))


def deriv_resolvent_matrix(lam: complex, grid: TimeGrid) -> np.ndarray:
    """Dense matrix of the scalar discrete resolvent (acts on node values):
    the scalar sweep applied to the identity."""
    return deriv_resolvent(lam, GridFunction(grid, np.eye(grid.n_nodes))).values


def young_bound(lam: complex, tau: float) -> float:
    """(1 - e^{-Re(lam) tau}) / Re(lam); depends on Re(lam) only."""
    re = np.real(lam)
    if re <= 0:
        raise ValueError("the convolution bound needs Re(lam) > 0")
    return float(-np.expm1(-re * tau) / re)


def grid_operator_norm(M: np.ndarray, grid: TimeGrid) -> float:
    """Operator norm on L^p(0,tau), p = grid.p, of a node-value matrix.

    p = 2 is exact (weighted SVD); other p via 40 steps of Boyd's
    power-type iteration with the dual-exponent signum map, the largest
    entry divided out of every p-th power.
    """
    p = grid.p
    w = grid.weights()
    if abs(p - 2.0) < 1e-12:
        ws = np.sqrt(w)
        return float(np.linalg.norm((ws[:, None] * M) / ws[None, :], 2))
    q = p / (p - 1.0)
    rng = np.random.default_rng(ADVERSARIAL_SEED)
    x = rng.standard_normal(M.shape[1]) + 0j
    x /= _weighted_lp_norm(x, w, p)
    best = 0.0
    for _ in range(40):
        y = M @ x
        ny = _weighted_lp_norm(y, w, p)
        best = max(best, ny)
        if ny == 0.0:
            break
        x = _dual_direction(M.conj().T @ (_dual_direction(y, p - 1.0) * w), q - 1.0)
        nx = _weighted_lp_norm(x, w, p)
        if nx == 0.0:
            break
        x = x / nx
    return best


def _weighted_lp_norm(v: np.ndarray, w: np.ndarray, p: float) -> float:
    """(sum_i w_i |v_i|^p)^{1/p} with the largest |v_i| divided out, so
    that no power overflows or underflows at extreme p."""
    a = np.abs(v)
    top = a.max()
    if not 0.0 < top < np.inf:  # 0, inf or nan is the norm itself
        return float(top)
    return float(top * np.dot(w, (a / top) ** p) ** (1.0 / p))


def _dual_direction(v: np.ndarray, e: float) -> np.ndarray:
    """|v_i|^e e^{i arg v_i} up to a positive factor (Boyd's duality map
    with exponent e): the moduli are divided by the largest before the
    power, and the phases come from np.angle, never from dividing by a
    subnormal modulus."""
    a = np.abs(v)
    top = a.max()
    if 0.0 < top < np.inf:
        a /= top
    return a ** e * np.exp(1j * np.angle(v))


def deriv_resolvent_bound_check(
    lam: complex,
    grid: TimeGrid,
    slack_per_dt: float = 5.0,
) -> dict:
    """Verify the measured grid norm of (B+lam)^{-1} against the
    convolution-kernel bound, with an O(dt) grid allowance."""
    lam = complex(lam)
    bound = young_bound(lam, grid.tau)
    M = deriv_resolvent_matrix(lam, grid)
    measured = grid_operator_norm(M, grid)
    allowed = bound * (1.0 + slack_per_dt * grid.dt)
    record = {
        "lam": [lam.real, lam.imag],
        "tau": grid.tau,
        "N_t": grid.N_t,
        "p": grid.p,
        "bound": bound,
        "measured": measured,
        "allowed": allowed,
        "passed": bool(measured <= allowed),
    }
    if not record["passed"]:
        raise BoundViolated(
            f"measured resolvent norm {measured:.8f} exceeds "
            f"{allowed:.8f} = bound (1 + {slack_per_dt} dt); quadrature bug"
        )
    return record


# ------------------------------------------------------------- Cauchy solver


def _cauchy_step_matrices(A: np.ndarray, h: float):
    """(E, C_cur, C_next) with E = e^{-hA} and the exact piecewise-linear
    update f_{i+1} = E f_i + C_cur g_i + C_next g_{i+1}, where
    C_cur = h (phi_1 - phi_2)(-hA) and C_next = h phi_2(-hA).

    All three come from one exponential of the block matrix
    [[-hA, I, 0], [0, 0, I], [0, 0, 0]], whose first block row is
    [e^{-hA}, phi_1(-hA), phi_2(-hA)] (Higham, Functions of Matrices,
    SIAM 2008, 10.7).  Nothing inverts A, so singular and nearly
    singular A lose no digits.  A stack of matrices (..., n, n) takes
    one batched exponential of the (..., 3n, 3n) stack.  A step that is
    not finite raises OverflowRisk."""
    n = A.shape[-1]
    M = np.zeros(A.shape[:-2] + (3 * n, 3 * n), dtype=complex)
    M[..., :n, :n] = -h * A
    M[..., :n, n:2 * n] = np.eye(n)
    M[..., n:2 * n, 2 * n:] = np.eye(n)
    import scipy.linalg  # expm is looked up on the module, where it may be wrapped

    with np.errstate(all="ignore"):  # a step that overflows is caught just below
        X = scipy.linalg.expm(M)
    if not np.isfinite(X[..., :n, :]).all():
        raise _step_not_finite(h, float(np.max(np.linalg.norm(A, 2, axis=(-2, -1)))))
    E, phi1, phi2 = X[..., :n, :n], X[..., :n, n:2 * n], X[..., :n, 2 * n:]
    # a contiguous E keeps the per-node products on BLAS
    return E.copy(), h * (phi1 - phi2), h * phi2


def _step_not_finite(h: float, norm: float) -> OverflowRisk:
    """The error of a Cauchy step at spacing h that is not finite, for an
    operator (or the largest of a stack) of spectral norm ``norm``."""
    return OverflowRisk(f"the Cauchy step at h = {h:.3e} is not finite (h ||A|| = {h * norm:.3e})")


def _cauchy_step_scalars(d, h: float):
    """(z, c_cur, c_next) for A = diag(d): z = h d, so that each
    eigenvalue steps as f_{i+1} = e^{-z} f_i + c_cur g_i + c_next g_{i+1},
    with c_cur = h (phi_1 - phi_2)(-z) and c_next = h phi_2(-z).

    A stiff step, |z| >= 1, takes the closed forms

        c_next = h (z + expm1(-z)) / z^2,   c_cur = h (1 - e^{-z} (1 + z)) / z^2,

    both within 4 eps of 200-bit values for |z| up to 1e5, away from the
    zeros z = -1 - W_k(-1/e) of c_cur (the first at 2.09 +- 7.46i); the
    difference h (phi_1 - phi_2) of the block exponential loses eps |z|.
    Below |z| = 1 both numerators cancel to O(z^2), so those steps, and
    only those, come from :func:`_cauchy_step_matrices` of their 1 x 1
    blocks: one batched 3 x 3 exponential, with no squaring at that size,
    and none when every step is stiff.  A stiff step whose z^2 or e^{-z}
    overflows raises OverflowRisk, as a block exponential does."""
    d = np.asarray(d, dtype=complex)
    z = h * d
    small = np.abs(z) < 1.0
    with np.errstate(all="ignore"):  # the small steps are replaced, an overflow caught below
        zz = z * z
        c_next = np.asarray(h * ((z + np.expm1(-z)) / zz))
        c_cur = np.asarray(h * ((1.0 - np.exp(-z) * (1.0 + z)) / zz))
    if not (small | np.isfinite(zz) & np.isfinite(c_cur) & np.isfinite(c_next)).all():
        raise _step_not_finite(h, float(np.max(np.abs(d))))
    if small.any():
        _, cc, cn = _cauchy_step_matrices(d[small][:, None, None], h)
        c_cur[small], c_next[small] = cc[:, 0, 0], cn[:, 0, 0]
    return z, c_cur, c_next


def _check_growth(rate: float, N: int, h: float) -> None:
    """OverflowRisk when a mode growing like e^{rate t} passes
    e^{_GROWTH_LIMIT} over N nodes of spacing h."""
    if (N - 1) * h * rate > _GROWTH_LIMIT:
        raise OverflowRisk(
            f"the Cauchy sweep at h = {h:.3e} grows by e^{(N - 1) * h * rate:.1f} over the grid "
            f"(growth rate {rate:.3e}), past e^{_GROWTH_LIMIT:.1f}")


class _StepTables:
    """The causal sweep f_{i+1} = e^{-z} f_i + c_cur g_i + c_next g_{i+1},
    f_0 = 0, and its adjoint, for node values of one shape (N, k) and the
    steps (z, c_cur, c_next) of :func:`_cauchy_step_scalars` at spacing
    h: one step per column (the n eigenvalues of a normal stepper) or one
    scalar step shared by every column (the derivative resolvent).

    After the forcing terms, a sweep is the inclusive scan
    x_i <- sum_{k <= i} e^{-(i-k) z} x_k down the nodes, run in two
    levels for a group length b, a power of two (Blelloch, Prefix sums
    and their applications, 1990):

    - log2(b) elementwise window passes x[s:] += e^{-sz} x[:-s],
      s = 1, 2, 4, ... < b (Hillis & Steele), leave each row holding
      the sum over its last b inputs;
    - one forward recurrence x_i += e^{-bz} x_{i-b} over the rows after
      the first, viewed as contiguous groups of b rows, each a flat
      product with the b-fold tiled row e^{-bz}, finishes every row,
      the leftover rows of a last partial group too.

    That is O(N k) work in log2(b) + (N - 1) / b elementwise steps, where
    the plain scan, ceil(log2 N) passes, takes O(N k log N).  b comes from
    the shape: 8 for k >= 40 per-column steps, 16 for 16 <= k < 40.  For
    fewer columns, a scalar step, or N - 1 below that length, b is the
    smallest power of two above N - 1: no group follows the window
    passes, which are then the plain scan, bit for bit.  Each factor
    e^{-sz} comes from exp rather than by squaring, so it carries no
    error that grows with s; the recurrence adds one rounding per group.

    Per-column factors are stored broadcast to the rows they meet,
    e^{-sz} for every pass s as an (N - s, k) table, e^{-bz} as a (b, k)
    one and c_cur, c_next as (N - 1, k) ones, so that every product has
    contiguous operands of one shape (numpy runs a product with a
    broadcast row at about half that speed: 33 against 16 us at
    512 x 48, one thread).  A scalar step keeps its 0-d factors, read as
    tables with nothing allocated.  One (N - 1, k) scratch buffer takes
    the products.

    One set of tables serves both directions.  The adjoint's anticausal
    scan runs in place, without a reversed copy: its windows look ahead
    and its groups are counted from the last row, so the leftover rows
    are the first.  It needs the conjugate factors.  When every step
    scalar is real they are the factors themselves, up to the sign of a
    zero imaginary part.  Otherwise the adjoint runs on conjugated node
    values and is conjugated back: conj(a) conj(b) = conj(ab) holds
    exactly in floating point, and so does exp(conj w) = conj(exp w) for
    numpy's exp (the property tests compare both directions bit for bit
    with scans on broadcast rows, and the grouped scans with a sequential
    recurrence in extended precision)."""

    def __init__(self, steps, shape, h: float):
        z, c_cur, c_next = steps
        N, k = shape
        _check_growth(max(0.0, -float(np.min(np.real(z)))) / h, N, h)
        self.shape = shape
        self.real = not (np.any(z.imag) or np.any(c_cur.imag) or np.any(c_next.imag))
        plain = 1 << (N - 1).bit_length()
        b = plain if not np.ndim(z) or k < 16 else min(8 if k >= 40 else 16, plain)
        self.group = b
        shifts = [2 ** j for j in range(b.bit_length() - 1)]  # s = 1, 2, 4, ... < b
        factors = [np.exp(-s * z) for s in shifts]
        rows = [N - s for s in shifts]
        grouped = b <= N - 1
        if grouped:
            factors.append(np.exp(-b * z))
            rows.append(b)
        factors += [c_cur, c_next]
        rows += [N - 1, N - 1]
        if np.ndim(z):
            # one allocation, tables and scratch buffer: its pages fault in
            # once, where a dozen arrays of their own cost several builds
            self._store = np.empty((sum(rows) + N - 1, k), dtype=complex)
            *tables, self.scratch = np.split(self._store, np.cumsum(rows))
            for table, f in zip(tables, factors):
                table[:] = f
        else:
            tables = [np.broadcast_to(f, (r, k)) for f, r in zip(factors, rows)]
            self.scratch = np.empty((N - 1, k), dtype=complex)
        *F, self.c_cur, self.c_next = tables
        self.tiled = F.pop() if grouped else None
        self.passes = list(zip(shifts, F))

    def _recur(self, x: np.ndarray, anticausal: bool) -> None:
        """x_i += e^{-bz} x_{i-b} (x_{i+b} when anticausal) down the rows
        of x in place, b rows at a time: after the window passes, the
        inclusive scan of every row."""
        if self.tiled is None:
            return
        b = self.group
        full, rest = divmod(len(x), b)
        if anticausal:
            groups = list(x[rest:].reshape(full, -1))[::-1]
            lead, lag = x[:rest], x[b:b + rest]
        else:
            groups = list(x[:full * b].reshape(full, -1))
            lead, lag = x[full * b:], x[(full - 1) * b:(full - 1) * b + rest]
        tiled = self.tiled.reshape(-1)
        buf = self.scratch.reshape(-1)[:len(tiled)]
        for prev, cur in zip(groups, groups[1:]):
            cur += np.multiply(tiled, prev, out=buf)
        lead += np.multiply(self.tiled[:rest], lag, out=self.scratch[:rest])

    def sweep(self, g: np.ndarray) -> np.ndarray:
        """The causal sweep of g."""
        buf = self.scratch
        out = np.empty(self.shape, dtype=complex)
        out[0] = 0.0
        np.multiply(self.c_next, g[1:], out=out[1:])
        out[1:] += np.multiply(self.c_cur, g[:-1], out=buf)
        for s, F in self.passes:
            out[s:] += np.multiply(F, out[:-s], out=buf[:len(F)])
        self._recur(out[1:], anticausal=False)
        return out

    def sweep_adjoint(self, u: np.ndarray) -> np.ndarray:
        """The conjugate transpose of `sweep` applied to u: the anticausal
        scan z_j = u_j + e^{-conj z} z_{j+1}, then y_j = conj(c_cur) z_{j+1}
        + conj(c_next) z_j as in :meth:`_CauchyStepper.sweep_adjoint`."""
        buf = self.scratch
        y = np.empty(self.shape, dtype=complex)
        tail = y[:-1]  # u_1, ..., u_N, then z_1, ..., z_N, then y_0, ..., y_{N-1}
        if self.real:
            tail[:] = u[1:]
        else:
            np.conjugate(u[1:], out=tail)
        for s, F in self.passes:
            rows = len(tail) - s
            if rows <= 0:
                break
            tail[:-s] += np.multiply(F[:rows], tail[s:], out=buf[:rows])
        self._recur(tail, anticausal=True)
        np.multiply(self.c_next, tail, out=buf)
        np.multiply(self.c_cur, tail, out=tail)
        y[-1] = 0.0
        y[1:] += buf
        return y if self.real else np.conjugate(y, out=y)


class _CauchyStepper:
    """The exact exponential integrator of f' + A f = g, f(0) = 0, on a
    uniform grid of spacing dt, with its steps built once.

    ``basis`` is None or (d, Q) from :meth:`MatrixOperator.normal_basis`,
    as for :func:`linops.resolvent_norms`.  With it the stepper works in the
    eigen coordinates v Q-bar of node values v (one row per node), where
    the step is diagonal: each sweep is n scalar recurrences, and A acts
    as v d.  Its first sweep builds the :class:`_StepTables` of those
    recurrences for that sweep's node count, and every sweep, forward or
    adjoint, runs on them; node values of another shape raise
    DimensionMismatch.  Without a basis it works in the given coordinates
    with the step matrices of one block exponential, one n x n product
    per node; each sweep checks the growth of A's eigenvalues over the
    grid, and a result that is still not finite (transient growth)
    raises OverflowRisk.

    `forward` and `adjoint` map node values in the given coordinates;
    `sweep`, `sweep_adjoint`, `apply` and `weighted_gram` act in the
    stepper's own (`to_basis`, `from_basis`).  Q is unitary and acts on
    the components only, so pointwise norms and the time-derivative
    stencil do not see it."""

    def __init__(self, A: np.ndarray, dt: float, basis=None):
        self.dim = A.shape[0]
        self._A = A
        self._dt = dt
        self._basis = basis
        if basis is not None:
            self._steps = _cauchy_step_scalars(basis[0], dt)
            self._tables = None
            return
        E, C_cur, C_next = _cauchy_step_matrices(A, dt)
        self._rate = max(0.0, -float(np.linalg.eigvals(A).real.min()))
        # row form of the update: f_{i+1} = f_i E^T + [g_i, g_{i+1}] [C_cur^T; C_next^T]
        self._ET = E.T
        self._C = np.vstack([C_cur.T, C_next.T])
        self._EH_T = E.conj()
        self._CH = np.hstack([C_cur.conj(), C_next.conj()])

    def _step_tables(self, v: np.ndarray) -> _StepTables:
        """The step tables, built on the first sweep for its node values."""
        if self._tables is None:
            self._tables = _StepTables(self._steps, v.shape, self._dt)
        if v.shape != self._tables.shape:
            raise DimensionMismatch(
                f"node values of shape {v.shape}, step tables for {self._tables.shape}")
        return self._tables

    def _finite(self, v: np.ndarray) -> np.ndarray:
        """v, node values of a dense sweep, if they are finite."""
        if not np.isfinite(v).all():
            raise OverflowRisk(
                f"the Cauchy sweep at h = {self._dt:.3e} is not finite (growth rate {self._rate:.3e})")
        return v

    def _check(self, v: np.ndarray) -> None:
        if v.shape[1] != self.dim:
            raise DimensionMismatch(f"node values of dimension {v.shape[1]}, operator {self.dim}")

    def to_basis(self, v: np.ndarray) -> np.ndarray:
        """Node values in the given coordinates -> the stepper's."""
        self._check(v)
        return v if self._basis is None else v @ self._basis[1].conj()

    def from_basis(self, v: np.ndarray) -> np.ndarray:
        """Node values in the stepper's coordinates -> the given ones."""
        return v if self._basis is None else v @ self._basis[1].T

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A on node values in the stepper's coordinates."""
        return v @ self._A.T if self._basis is None else v * self._basis[0]

    def weighted_gram(self, w: np.ndarray):
        """The map v -> A^* W A v on node values in the stepper's
        coordinates, W the node weights w: one product with the table
        w |d|^2 on the eigen path, with A^T conj(A) and then the weights
        on the dense one (in row form)."""
        if self._basis is None:
            gram, table = self._A.T @ self._A.conj(), _part_table(w[:, None], self.dim)
            return lambda v: _scale_parts(v @ gram, table)
        table = _part_table(np.multiply.outer(w, np.abs(self._basis[0]) ** 2), self.dim)
        return lambda v: np.multiply(v.view(np.float64), table).view(complex)

    def forward(self, g: np.ndarray) -> np.ndarray:
        """The solution map g -> f on node values."""
        return self.from_basis(self.sweep(self.to_basis(g)))

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        """Conjugate transpose of `forward` on stacked node values."""
        return self.from_basis(self.sweep_adjoint(self.to_basis(u)))

    def sweep(self, g: np.ndarray) -> np.ndarray:
        """`forward` in the stepper's coordinates: on the dense path all
        forcing terms in one product, then one product per node for the
        causal sweep."""
        if self._basis is not None:
            return self._step_tables(g).sweep(g)
        _check_growth(self._rate, len(g), self._dt)
        out = np.zeros(g.shape, dtype=complex)
        np.matmul(np.hstack([g[:-1], g[1:]]), self._C, out=out[1:])
        rows = list(out)  # row views: cheaper to step through than indexing
        with np.errstate(over="ignore", invalid="ignore"):  # see _finite
            for prev, cur in zip(rows[1:], rows[2:]):
                cur += prev @ self._ET
        return self._finite(out)

    def sweep_adjoint(self, u: np.ndarray) -> np.ndarray:
        """`adjoint` in the stepper's coordinates.

        With f_i = sum_{k<=i} E^{i-k}(C_c g_{k-1} + C_n g_k), this is the
        anticausal sweep z_j = u_j + E^H z_{j+1} followed by
        y_j = C_c^H z_{j+1} + C_n^H z_j, where y_0 keeps only its C_c^H
        term (g_0 feeds only the first step) and y_N only its C_n^H term."""
        if self._basis is not None:
            return self._step_tables(u).sweep_adjoint(u)
        _check_growth(self._rate, len(u), self._dt)
        z = np.array(u, dtype=complex)
        rows = list(z)[::-1]
        with np.errstate(over="ignore", invalid="ignore"):  # see _finite
            for prev, cur in zip(rows, rows[1:]):
                cur += prev @ self._EH_T
        n = self.dim
        P = self._finite(z[1:]) @ self._CH
        y = np.zeros_like(z)
        y[:-1] = P[:, :n]
        y[1:] += P[:, n:]
        return y


def solve_cauchy(A: MatrixOperator, g: GridFunction) -> GridFunction:
    """f(t) = int_0^t e^{(x-t)A} g(x) dx on the grid, by exact exponential
    integration of the piecewise-linear interpolant (f(0) = 0)."""
    f = _CauchyStepper(A.matrix, g.grid.dt, A.normal_basis()).forward(g.values)
    return GridFunction(g.grid, f)


def solve_cauchy_adjoint(A: MatrixOperator, h: GridFunction) -> GridFunction:
    """Exact adjoint of the solution map w.r.t. the weighted grid product:
    W^{-1} S^H W with W the quadrature weights and S the map on node
    values."""
    w = h.grid.weights()[:, None]
    stepper = _CauchyStepper(A.matrix, h.grid.dt, A.normal_basis())
    return GridFunction(h.grid, stepper.adjoint(w * h.values) / w)


def time_derivative(f: GridFunction) -> GridFunction:
    """Second-order differences: centered inside, one-sided at the ends."""
    return GridFunction(f.grid, _time_derivative(f.values, f.grid.dt))


def _time_derivative(v: np.ndarray, h: float) -> np.ndarray:
    """`time_derivative` on node values v (one row per node)."""
    out = np.empty(v.shape, dtype=complex)
    np.subtract(v[2:], v[:-2], out=out[1:-1])
    out[0] = -3.0 * v[0] + 4.0 * v[1] - v[2]
    out[-1] = 3.0 * v[-1] - 4.0 * v[-2] + v[-3]
    return _scale_parts(out, 1.0 / (2.0 * h))


def _time_derivative_adjoint(v: np.ndarray, h: float) -> np.ndarray:
    """D^T v for the node-value matrix D of `time_derivative`."""
    out = np.empty(v.shape, dtype=complex)
    np.negative(v[1:-1], out=out[:-2])
    out[-2:] = 0.0
    out[2:] += v[1:-1]
    out[:3] += np.multiply.outer((-3.0, 4.0, -1.0), v[0])
    out[-3:] += np.multiply.outer((1.0, -4.0, 3.0), v[-1])
    return _scale_parts(out, 1.0 / (2.0 * h))


def _scale_parts(v: np.ndarray, factor) -> np.ndarray:
    """v (complex, C-contiguous) with the real and imaginary part of every
    entry multiplied by a real factor, a scalar or a :func:`_part_table`,
    in place.  The bits are those of v * factor, and of v / (1 / factor),
    which numpy takes as a product with the reciprocal; the speed is that
    of a real product of one shape (a broadcast column, or a complex
    operand, is 3-4 times slower at 257 x 8)."""
    x = v.view(np.float64)
    x *= factor
    return v


def _part_table(t: np.ndarray, n: int) -> np.ndarray:
    """The real (N, 2n) table that scales both parts of each of n
    components of complex node values by t, an (N, n) table or an
    (N, 1) column, in :func:`_scale_parts`."""
    return np.repeat(np.broadcast_to(t, (t.shape[0], n)), 2, axis=1)


def _pointwise_norms(v: np.ndarray) -> np.ndarray:
    """The Euclidean norm of every row (node) of complex node values v,
    from the sums of squares of their real and imaginary parts."""
    x = np.ascontiguousarray(v).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", x, x))


@dataclass
class MaxRegReport:
    """Measured maximal-regularity constants and their provenance."""

    constant_fprime: float
    constant_Af: float
    p: float
    tau: float
    N_t: int
    probe_labels: tuple[str, ...]
    per_probe_fprime: tuple[float, ...]
    per_probe_Af: tuple[float, ...]
    seed: int = ADVERSARIAL_SEED


def default_probes(A: MatrixOperator, grid: TimeGrid) -> list[tuple[str, GridFunction]]:
    """Constant, single-frequency, and seeded random forcings."""
    t = grid.times()
    n = A.dim
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    rng = np.random.default_rng(ADVERSARIAL_SEED)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    probes = [
        ("constant", GridFunction(grid, np.ones_like(t)[:, None] * e1[None, :])),
        ("sin", GridFunction(grid, np.sin(2 * np.pi * t / grid.tau)[:, None] * e1[None, :])),
        ("random", GridFunction(grid, (np.cos(3 * t) + 0.5)[:, None] * x[None, :])),
    ]
    return probes


@lru_cache(maxsize=16)
def _adversarial_start(shape: tuple[int, int]) -> np.ndarray:
    """The seeded complex Gaussian forcing every adversarial search starts
    from: one read-only array per node-value shape."""
    rng = np.random.default_rng(ADVERSARIAL_SEED)
    start = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    start.flags.writeable = False  # shared by every search on this shape
    return start


def _adversarial_search(grid: TimeGrid, modes, stepper: _CauchyStepper,
                        n_iter: int = 10) -> list[np.ndarray]:
    """Power iteration on the (weighted) composition  g -> D f  (mode
    "fprime") or  g -> A f  ("Af") to seek the worst forcing; fixed seed,
    fixed count.  Every mode starts from the same seeded forcing, whose
    forward sweep is taken once.  The iterates, and the forcings
    returned, stay in the stepper's coordinates; each iteration is a
    sweep, A^* W A or D^T W D on plain node values, and an adjoint sweep.
    """
    w = grid.weights()
    h = grid.dt
    weigh = _part_table(w[:, None], stepper.dim)
    unweigh = _part_table(1.0 / w[:, None], stepper.dim)
    gram = stepper.weighted_gram(w) if "Af" in modes else None
    start = stepper.to_basis(_adversarial_start((grid.n_nodes, stepper.dim)))
    first = stepper.sweep(start)
    found = []
    for mode in modes:
        v = start
        for k in range(n_iter):
            f = first if k == 0 else stepper.sweep(v)
            # the adjoint w.r.t. the weighted product is W^{-1} X^H W
            if mode == "fprime":
                z = _time_derivative_adjoint(_scale_parts(_time_derivative(f, h), weigh), h)
            else:
                z = gram(f)
            z = _scale_parts(stepper.sweep_adjoint(z), unweigh)
            nrm = _weighted_lp_norm(_pointwise_norms(z), w, 2.0)
            if nrm == 0.0:
                break
            v = _scale_parts(z, 1.0 / nrm)
        found.append(v)
    return found


def _adversarial_probes(grid: TimeGrid, modes, stepper: _CauchyStepper,
                        n_iter: int = 10) -> list[GridFunction]:
    """The forcings of :func:`_adversarial_search`, mapped back to the
    given coordinates."""
    return [GridFunction(grid, stepper.from_basis(v))
            for v in _adversarial_search(grid, modes, stepper, n_iter)]


def maxreg_constant(
    A: MatrixOperator,
    grid: TimeGrid,
    probes=None,
    adversarial: bool = True,
) -> MaxRegReport:
    """sup ||f'||_p / ||g||_p and sup ||A f||_p / ||g||_p over the probe
    set (plus a seeded power-iteration worst-case search when p = 2),
    every norm at the grid's p."""
    probes = list(probes) if probes is not None else default_probes(A, grid)
    if not probes:
        raise ValueError("probe set must be nonempty")
    stepper = _CauchyStepper(A.matrix, grid.dt, A.normal_basis())
    forcings = [(label, stepper.to_basis(g.values)) for label, g in probes]
    if adversarial and abs(grid.p - 2.0) < 1e-12:
        modes = ("fprime", "Af")
        forcings += [(f"adversarial-{mode}", v) for mode, v in
                     zip(modes, _adversarial_search(grid, modes, stepper))]
    return _probe_report(grid, _probe_sweeps(grid, forcings, stepper), grid.p)


def _probe_sweeps(grid: TimeGrid, forcings, stepper: _CauchyStepper):
    """(label, |g|, |f'|, |A f|) for every forcing (label, g) in the
    stepper's coordinates, each a pointwise norm over the nodes, with f
    from one sweep: none of them depends on p."""
    swept = []
    for label, g in forcings:
        f = stepper.sweep(g)
        swept.append((label, _pointwise_norms(g), _pointwise_norms(_time_derivative(f, grid.dt)),
                      _pointwise_norms(stepper.apply(f))))
    return swept


def _probe_report(grid: TimeGrid, swept, p: float) -> MaxRegReport:
    """||f'||_p / ||g||_p and ||A f||_p / ||g||_p for every probe that
    :func:`_probe_sweeps` swept on grid."""
    w = grid.weights()
    labels, r_fp, r_af = [], [], []
    for label, ng, nfp, naf in swept:
        ng = _weighted_lp_norm(ng, w, p)
        if ng == 0.0:
            raise ValueError(f"probe {label!r} is zero")
        labels.append(label)
        r_fp.append(_weighted_lp_norm(nfp, w, p) / ng)
        r_af.append(_weighted_lp_norm(naf, w, p) / ng)
    return MaxRegReport(
        constant_fprime=float(max(r_fp)),
        constant_Af=float(max(r_af)),
        p=p,
        tau=grid.tau,
        N_t=grid.N_t,
        probe_labels=tuple(labels),
        per_probe_fprime=tuple(map(float, r_fp)),
        per_probe_Af=tuple(map(float, r_af)),
    )


def p_independence_probe(
    A: MatrixOperator,
    tau: float,
    N_t: int,
    p_values=(1.5, 2.0, 3.0, 4.0),
) -> dict:
    """maxreg_constant across several p on a shared probe set; reports
    all constants and their spread.  Each probe is swept once and its
    pointwise norms taken once: only the weighted p-sums depend on p.
    The adversarial forcing is mapped to the given coordinates and back,
    so that each report is that of :func:`maxreg_constant` on the shared
    probes, bit for bit."""
    for p in p_values:
        if not (1.0 < p < np.inf):
            raise ValueError(f"p must lie in (1, inf), got {p}")
    base_grid = TimeGrid(tau, N_t, p=2.0)
    stepper = _CauchyStepper(A.matrix, base_grid.dt, A.normal_basis())  # every p shares dt
    shared = default_probes(A, base_grid)
    shared = shared + [
        ("adversarial-fprime", _adversarial_probes(base_grid, ("fprime",), stepper)[0]),
    ]
    swept = _probe_sweeps(base_grid, [(label, stepper.to_basis(g.values)) for label, g in shared],
                          stepper)
    results = {p: _probe_report(base_grid, swept, p) for p in p_values}
    consts = [results[p].constant_fprime for p in p_values]
    return {
        "p_values": list(p_values),
        "constants_fprime": [results[p].constant_fprime for p in p_values],
        "constants_Af": [results[p].constant_Af for p in p_values],
        "spread": float(max(consts) / max(min(consts), 1e-300)),
        "reports": results,
    }


class PointwiseOperator:
    """A acting pointwise in time on grid functions: (A f)(t) = A f(t)."""

    def __init__(self, A: MatrixOperator, grid: TimeGrid):
        self.A = A
        self.grid = grid

    def __call__(self, f: GridFunction) -> GridFunction:
        if f.dim != self.A.dim:
            raise DimensionMismatch("grid function dimension mismatch")
        return f.map_values(lambda v: v @ self.A.matrix.T)

    def commutator_with_resolvent(self, lam: complex, f: GridFunction) -> float:
        """|| [A, (B+lam)^{-1}] f ||_p on the grid."""
        a_then_r = deriv_resolvent(lam, self(f))
        r_then_a = self(deriv_resolvent(lam, f))
        return GridFunction(f.grid, a_then_r.values - r_then_a.values).lp_norm()


def extend_operator_to_lp(A: MatrixOperator, grid: TimeGrid) -> PointwiseOperator:
    """The natural extension of A to vector-valued L^p on the grid."""
    return PointwiseOperator(A, grid)

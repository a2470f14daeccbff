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
  its scalars come from one batched exponential of n 3 x 3 blocks, and
  a sweep is n scalar recurrences, run as a log-depth elementwise scan
  over the time nodes (Hochbruck & Ostermann, Exponential integrators,
  Acta Numer. 2010; Blelloch, Prefix sums and their applications,
  1990).  The probe loop of a constant stays in these coordinates: Q is
  unitary and acts on the components only, so pointwise norms and the
  time-derivative stencil do not see it, and A f is d f.
  Each scan pass multiplies an (N, n) array by a row of n factors,
  which numpy runs at about half the speed of two contiguous (N, n)
  operands (33 against 16 us at 512 x 48, one thread).  So a stepper's
  second sweep builds step tables: every factor broadcast once to a
  contiguous array, about 4.3 MB at n = 48, N = 513.  Every later sweep,
  forward or adjoint, runs on them with results equal to the broadcast
  scan's, and a stepper swept once (`solve_cauchy`) builds none.  A
  constant takes 44 sweeps; the tables made `maxreg_constant` on the
  Laplacian 1.35x faster at m = 8 and 1.1x at m = 48 (one thread).
- Any other operator takes one 3n x 3n exponential and sweeps the
  nodes one n x n product at a time.

The scalar resolvent of the derivative operator is the same scan with
one scalar step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundViolated, DimensionMismatch, OverflowRisk
from .sector import MatrixOperator

ADVERSARIAL_SEED = 0x9D3A17  # recorded seed for worst-case probe searches


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
        if self.N_t < 16:
            raise ValueError("N_t must be at least 16")
        if not (1.0 < self.p < np.inf):
            raise ValueError(f"p must lie in (1, inf), got {self.p}")

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
    out = _scalar_sweep(_cauchy_step_scalars(complex(lam), g.grid.dt), g.values)
    return GridFunction(g.grid, out)


def deriv_resolvent_matrix(lam: complex, grid: TimeGrid) -> np.ndarray:
    """Dense matrix of the scalar discrete resolvent (acts on node values):
    the scalar sweep applied to the identity."""
    return _scalar_sweep(_cauchy_step_scalars(complex(lam), grid.dt), np.eye(grid.n_nodes))


def young_bound(lam: complex, tau: float) -> float:
    """(1 - e^{-Re(lam) tau}) / Re(lam); depends on Re(lam) only."""
    re = np.real(lam)
    if re <= 0:
        raise ValueError("the convolution bound needs Re(lam) > 0")
    return float((1.0 - np.exp(-re * tau)) / re)


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

    X = scipy.linalg.expm(M)
    if not np.isfinite(X[..., :n, :]).all():
        scale = h * float(np.max(np.linalg.norm(A, 2, axis=(-2, -1))))
        raise OverflowRisk(f"the Cauchy step at h = {h:.3e} is not finite (h ||A|| = {scale:.3e})")
    E, phi1, phi2 = X[..., :n, :n], X[..., :n, n:2 * n], X[..., :n, 2 * n:]
    # a contiguous E keeps the per-node products on BLAS
    return E.copy(), h * (phi1 - phi2), h * phi2


def _cauchy_step_scalars(d, h: float):
    """(z, c_cur, c_next) for A = diag(d): z = h d, so that each
    eigenvalue steps as f_{i+1} = e^{-z} f_i + c_cur g_i + c_next g_{i+1},
    with c_cur and c_next from :func:`_cauchy_step_matrices` of the 1 x 1
    blocks (one batched 3 x 3 exponential, never a 3n x 3n one)."""
    d = np.asarray(d, dtype=complex)
    _, c_cur, c_next = _cauchy_step_matrices(d[..., None, None], h)
    return h * d, c_cur[..., 0, 0], c_next[..., 0, 0]


def _scan(z, x: np.ndarray) -> np.ndarray:
    """In place, x_i <- sum_{k <= i} e^{-(i-k) z} x_k down axis 0, with
    one z per column (or one shared by all): the recurrence
    x_i <- x_i + e^{-z} x_{i-1} as an inclusive scan of ceil(log2 len(x))
    elementwise passes x[s:] += e^{-sz} x[:-s], s = 1, 2, 4, ... (Hillis
    & Steele; Blelloch, Prefix sums and their applications, 1990).  Each
    pass takes e^{-sz} from exp rather than by squaring, so the factors
    carry no error that grows with s."""
    s = 1
    while s < len(x):
        x[s:] += np.exp(-s * z) * x[:-s]
        s *= 2
    return x


def _scalar_sweep(steps, g: np.ndarray) -> np.ndarray:
    """The causal sweep f_{i+1} = e^{-z} f_i + c_cur g_i + c_next g_{i+1},
    f_0 = 0, of every column of g at once, for ``steps`` = (z, c_cur,
    c_next) from :func:`_cauchy_step_scalars` (one entry per column, or
    scalars shared by all)."""
    z, c_cur, c_next = steps
    out = np.empty(g.shape, dtype=complex)
    out[0] = 0.0
    np.multiply(c_next, g[1:], out=out[1:])
    out[1:] += c_cur * g[:-1]
    return _scan(z, out)


def _scalar_sweep_adjoint(steps, u: np.ndarray) -> np.ndarray:
    """Conjugate transpose of :func:`_scalar_sweep`: the anticausal scan
    z_j = u_j + e^{-conj z} z_{j+1}, then y_j = conj(c_cur) z_{j+1} +
    conj(c_next) z_j as in :meth:`_CauchyStepper.sweep_adjoint`."""
    z, c_cur, c_next = steps
    tail = np.array(u[:0:-1], dtype=complex)  # u_N, ..., u_1
    tail = _scan(np.conj(z), tail)[::-1]       # z_1, ..., z_N
    y = np.empty(u.shape, dtype=complex)
    y[-1] = 0.0
    np.multiply(np.conj(c_cur), tail, out=y[:-1])
    y[1:] += np.conj(c_next) * tail
    return y


class _StepTables:
    """The scan of :func:`_scalar_sweep` and :func:`_scalar_sweep_adjoint`
    on contiguous tables, for node values of one shape (N, n).

    Each factor of the broadcast scans is stored broadcast to the rows it
    meets, so that every product has contiguous operands of one shape:
    e^{-s z} for every scan pass s as an (N - s, n) table, and c_cur and
    c_next as (N - 1, n) ones, with one (N - 1, n) scratch buffer for
    the products.  Every product and sum is the one the broadcast scans
    compute, in the same order, so the results are equal
    (``np.array_equal``).

    One set of tables serves both directions.  The adjoint's anticausal
    scan runs in place, without a reversed copy.  It needs the conjugate
    factors.  When every step scalar is real they are the factors
    themselves, up to the sign of a zero imaginary part.  Otherwise the
    adjoint runs on conjugated node values and is conjugated back:
    conj(a) conj(b) = conj(ab) holds exactly in floating point, and so
    does exp(conj w) = conj(exp w) for numpy's exp (the property tests
    compare the scans bit for bit)."""

    def __init__(self, steps, shape):
        z, c_cur, c_next = steps
        N, n = shape
        self.shape = shape
        self.real = not (np.any(z.imag) or np.any(c_cur.imag) or np.any(c_next.imag))
        shifts = [2 ** k for k in range((N - 1).bit_length())]  # s = 1, 2, 4, ... < N
        rows = [N - s for s in shifts]
        # one allocation for every table: its pages fault in once, where
        # a dozen arrays of their own cost several times the build
        self._store = np.empty((sum(rows) + 3 * (N - 1), n), dtype=complex)
        views = np.split(self._store, np.cumsum(rows + [N - 1, N - 1]))
        self.passes = list(zip(shifts, views))
        for s, F in self.passes:
            F[:] = np.exp(-s * z)
        self.c_cur, self.c_next, self.scratch = views[-3:]
        self.c_cur[:] = c_cur
        self.c_next[:] = c_next

    def sweep(self, g: np.ndarray) -> np.ndarray:
        """:func:`_scalar_sweep` of g."""
        buf = self.scratch
        out = np.empty(self.shape, dtype=complex)
        out[0] = 0.0
        np.multiply(self.c_next, g[1:], out=out[1:])
        out[1:] += np.multiply(self.c_cur, g[:-1], out=buf)
        for s, F in self.passes:
            out[s:] += np.multiply(F, out[:-s], out=buf[:len(F)])
        return out

    def sweep_adjoint(self, u: np.ndarray) -> np.ndarray:
        """:func:`_scalar_sweep_adjoint` of u."""
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
    the step is diagonal: each sweep is n scalar recurrences run as
    elementwise scans, and A acts as v d.  From its second sweep on, a
    normal stepper runs those scans on :class:`_StepTables` it builds
    once, for the node count of that sweep: every product on contiguous
    operands instead of a broadcast row, at about twice the speed, with
    the same results.  A stepper swept once (`solve_cauchy`,
    `solve_cauchy_adjoint`) builds none.  Without a basis it works in the
    given coordinates with the step matrices of one block exponential,
    one n x n product per node.

    `forward` and `adjoint` map node values in the given coordinates;
    `sweep`, `sweep_adjoint`, `apply` and `apply_adjoint` act in the
    stepper's own (`to_basis`, `from_basis`).  Q is unitary and acts on
    the components only, so pointwise norms and the time-derivative
    stencil do not see it."""

    def __init__(self, A: np.ndarray, dt: float, basis=None):
        self.dim = A.shape[0]
        self._A = A
        self._basis = basis
        if basis is not None:
            self._steps = _cauchy_step_scalars(basis[0], dt)
            self._swept = False
            self._tables = None
            return
        E, C_cur, C_next = _cauchy_step_matrices(A, dt)
        # row form of the update: f_{i+1} = f_i E^T + [g_i, g_{i+1}] [C_cur^T; C_next^T]
        self._ET = E.T
        self._C = np.vstack([C_cur.T, C_next.T])
        self._EH_T = E.conj()
        self._CH = np.hstack([C_cur.conj(), C_next.conj()])

    def _step_tables(self, v: np.ndarray):
        """The :class:`_StepTables` for node values v, or None for a first
        sweep or a shape the tables were not built for: they are built
        on the second sweep, so a stepper swept once never pays for them."""
        if self._tables is None:
            if not self._swept:
                self._swept = True
                return None
            self._tables = _StepTables(self._steps, v.shape)
        return self._tables if self._tables.shape == v.shape else None

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

    def apply_adjoint(self, v: np.ndarray) -> np.ndarray:
        """A^* on node values in the stepper's coordinates."""
        return v @ self._A.conj() if self._basis is None else v * self._basis[0].conj()

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
            tables = self._step_tables(g)
            return _scalar_sweep(self._steps, g) if tables is None else tables.sweep(g)
        out = np.zeros(g.shape, dtype=complex)
        np.matmul(np.hstack([g[:-1], g[1:]]), self._C, out=out[1:])
        rows = list(out)  # row views: cheaper to step through than indexing
        for prev, cur in zip(rows[1:], rows[2:]):
            cur += prev @ self._ET
        return out

    def sweep_adjoint(self, u: np.ndarray) -> np.ndarray:
        """`adjoint` in the stepper's coordinates.

        With f_i = sum_{k<=i} E^{i-k}(C_c g_{k-1} + C_n g_k), this is the
        anticausal sweep z_j = u_j + E^H z_{j+1} followed by
        y_j = C_c^H z_{j+1} + C_n^H z_j, where y_0 keeps only its C_c^H
        term (g_0 feeds only the first step) and y_N only its C_n^H term."""
        if self._basis is not None:
            tables = self._step_tables(u)
            return _scalar_sweep_adjoint(self._steps, u) if tables is None else tables.sweep_adjoint(u)
        z = np.array(u, dtype=complex)
        rows = list(z)[::-1]
        for prev, cur in zip(rows, rows[1:]):
            cur += prev @ self._EH_T
        n = self.dim
        P = z[1:] @ self._CH
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
    v = f.values
    h = f.grid.dt
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return GridFunction(f.grid, out)


def _time_derivative_adjoint(v: np.ndarray, h: float) -> np.ndarray:
    """D^T v for the node-value matrix D of `time_derivative`."""
    out = np.zeros_like(v)
    out[:-2] -= v[1:-1]
    out[2:] += v[1:-1]
    out[:3] += np.multiply.outer((-3.0, 4.0, -1.0), v[0])
    out[-3:] += np.multiply.outer((1.0, -4.0, 3.0), v[-1])
    return out / (2.0 * h)


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


def _adversarial_probes(grid: TimeGrid, modes, stepper: _CauchyStepper,
                        n_iter: int = 10) -> list[GridFunction]:
    """Power iteration on the (weighted) composition  g -> D f  (mode
    "fprime") or  g -> A f  ("Af") to seek the worst forcing; fixed seed,
    fixed count.  Every mode starts from the same seeded forcing, whose
    forward sweep is taken once.  The iterates stay in the stepper's
    coordinates and map back once."""
    rng = np.random.default_rng(ADVERSARIAL_SEED)
    start = rng.standard_normal((grid.n_nodes, stepper.dim)) + 1j * rng.standard_normal(
        (grid.n_nodes, stepper.dim)
    )
    start = stepper.to_basis(start)
    first = stepper.sweep(start)
    w = grid.weights()[:, None]
    found = []
    for mode in modes:
        v = start
        for k in range(n_iter):
            f = first if k == 0 else stepper.sweep(v)
            # the adjoint w.r.t. the weighted product is W^{-1} X^H W
            if mode == "fprime":
                y = time_derivative(GridFunction(grid, f)).values
                z = _time_derivative_adjoint(w * y, grid.dt)
            else:
                z = stepper.apply_adjoint(w * stepper.apply(f))
            z = stepper.sweep_adjoint(z) / w
            nrm = GridFunction(grid, z).lp_norm(2.0)
            if nrm == 0.0:
                break
            v = z / nrm
        found.append(GridFunction(grid, stepper.from_basis(v)))
    return found


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
    if adversarial and abs(grid.p - 2.0) < 1e-12:
        modes = ("fprime", "Af")
        probes = probes + [(f"adversarial-{mode}", g) for mode, g in
                           zip(modes, _adversarial_probes(grid, modes, stepper))]
    return _probe_report(grid, _probe_sweeps(grid, probes, stepper), grid.p)


def _probe_sweeps(grid: TimeGrid, probes, stepper: _CauchyStepper):
    """(label, g, f', A f) for every probe, with f from one sweep in the
    stepper's coordinates: none of them depends on p."""
    swept = []
    for label, g in probes:
        f = GridFunction(grid, stepper.sweep(stepper.to_basis(g.values)))
        swept.append((label, g, time_derivative(f), f.map_values(stepper.apply)))
    return swept


def _probe_report(grid: TimeGrid, swept, p: float) -> MaxRegReport:
    """||f'||_p / ||g||_p and ||A f||_p / ||g||_p for every probe that
    :func:`_probe_sweeps` swept on grid."""
    labels, r_fp, r_af = [], [], []
    for label, g, fp, af in swept:
        ng = g.lp_norm(p)
        if ng == 0.0:
            raise ValueError(f"probe {label!r} is zero")
        labels.append(label)
        r_fp.append(fp.lp_norm(p) / ng)
        r_af.append(af.lp_norm(p) / ng)
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
    all constants and their spread.  Each probe is swept once: only the
    norms depend on p."""
    for p in p_values:
        if not (1.0 < p < np.inf):
            raise ValueError(f"p must lie in (1, inf), got {p}")
    base_grid = TimeGrid(tau, N_t, p=2.0)
    stepper = _CauchyStepper(A.matrix, base_grid.dt, A.normal_basis())  # every p shares dt
    shared = default_probes(A, base_grid)
    shared = shared + [
        ("adversarial-fprime", _adversarial_probes(base_grid, ("fprime",), stepper)[0]),
    ]
    swept = _probe_sweeps(base_grid, shared, stepper)
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

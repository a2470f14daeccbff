"""Independent reference values for every benchmark task.

Nothing here calls into sectorsum: each oracle is a closed form, an
eigendecomposition, a direct dense solve, or scipy's own matrix
functions, so a task's output is checked against a second route to the
same number.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# ------------------------------------------------------------- test matrices


def laplacian(m: int) -> np.ndarray:
    """(m+1)^2 tridiag(-1, 2, -1): the Dirichlet Laplacian on m nodes."""
    return ((m + 1) ** 2 * (2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))).astype(complex)


def laplacian_eig(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenvalues and orthonormal sine eigenvectors."""
    k = np.arange(1, m + 1)
    lam = 4.0 * (m + 1) ** 2 * np.sin(k * np.pi / (2.0 * (m + 1))) ** 2
    j = np.arange(1, m + 1)
    V = np.sqrt(2.0 / (m + 1)) * np.sin(np.outer(j, k) * np.pi / (m + 1))
    return lam.astype(complex), V.astype(complex)


def convection_diffusion(m: int, b: float = 20.0) -> np.ndarray:
    """L + b D1 with the centred first difference D1: non-normal, real
    positive spectrum."""
    d1 = (m + 1) / 2.0 * (np.eye(m, k=1) - np.eye(m, k=-1))
    return laplacian(m) + b * d1


def random_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class Spectral:
    """A = V diag(lam) V^{-1}, used as the oracle of normal test operators
    (and of diagonalizable ones through fun())."""

    def __init__(self, lam, V):
        self.lam = np.asarray(lam, dtype=complex)
        self.V = np.asarray(V, dtype=complex)
        self.Vinv = np.linalg.inv(self.V)

    def matrix(self) -> np.ndarray:
        return (self.V * self.lam) @ self.Vinv

    def fun(self, f) -> np.ndarray:
        return (self.V * f(self.lam)) @ self.Vinv

    def sector_bound(self, pts) -> np.ndarray:
        """(1+|z|) / min_i |lam_i + z|, the exact resolvent bound of a
        normal operator at each shift z."""
        pts = np.asarray(pts, dtype=complex)
        dist = np.min(np.abs(self.lam[None, :] + pts[:, None]), axis=1)
        return (1.0 + np.abs(pts)) / dist


def sigma_min_bound(M: np.ndarray, pts, chunk: int = 64) -> np.ndarray:
    """(1+|z|) / sigma_min(M + z), one stacked SVD per chunk of shifts."""
    pts = np.asarray(pts, dtype=complex)
    eye = np.eye(M.shape[0])
    out = np.empty(len(pts))
    for lo in range(0, len(pts), chunk):
        z = pts[lo:lo + chunk]
        s = np.linalg.svd(M[None] + z[:, None, None] * eye, compute_uv=False)
        out[lo:lo + chunk] = (1.0 + np.abs(z)) / s[:, -1]
    return out


def sector_bound(op_oracle, M, pts) -> np.ndarray:
    if isinstance(op_oracle, Spectral):
        return op_oracle.sector_bound(pts)
    return sigma_min_bound(M, pts)


def disk_points(centres, K: float, n_disk: int) -> np.ndarray:
    """Circle of radius (1+|lam|)/(2K) around every sampled lam."""
    centres = np.asarray(centres, dtype=complex)
    ring = np.exp(2j * np.pi * np.arange(n_disk) / n_disk)
    radius = (1.0 + np.abs(centres)) / (2.0 * K)
    return (centres[:, None] + radius[:, None] * ring[None, :]).reshape(-1)


# ------------------------------------------------------------ matrix functions


def symbol_closed_forms():
    """f(-lam) for the builtin symbols, as functions of the eigenvalue d:
    sqrt-over-1minus, cayley-squared and rational-eta."""
    return {
        "sqrt-over-1minus": lambda d: np.sqrt(d) / (1.0 + d),
        "cayley-squared": lambda d: d / (1.0 + d) ** 2,
        "rational-eta": lambda d: np.sqrt(d / (1.0 + d) ** 2),
    }


def symbol_general(name: str, M: np.ndarray) -> np.ndarray:
    """f(-A) for a non-normal A from dense solves and sqrtm."""
    eye = np.eye(M.shape[0])
    cayley = np.linalg.solve(eye + M, np.linalg.solve(eye + M, M))
    if name == "cayley-squared":
        return cayley
    if name == "sqrt-over-1minus":
        return np.linalg.solve(eye + M, scipy.linalg.sqrtm(M))
    if name == "rational-eta":
        return scipy.linalg.sqrtm(cayley)
    raise KeyError(name)


def rel_err(got, ref) -> float:
    got = np.asarray(got)
    ref = np.asarray(ref)
    return float(np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300))


def op_norm(M) -> float:
    return float(np.linalg.norm(M, 2))


# ----------------------------------------------------------- eadic annulus


def annulus_piece(a: float, b: float, phi: float, w: complex, theta_c: float,
                  n: int) -> complex:
    """Scalar middle-annulus piece of the right-variant split:
    -(1/2 pi i) int (a - lam)^{-1} b^phi (b + lam)^{-1} (-lam)^{1+w} dlam
    over 1 <= |lam| <= e^n on both rays at angle theta_c (upper ray
    outward, lower ray inward), by adaptive scalar quadrature."""
    import scipy.integrate

    total = 0.0 + 0.0j
    for sign in (1.0, -1.0):
        e = np.exp(1j * sign * theta_c)

        def g(r, e=e):
            lam = r * e
            return (b ** phi) * (-lam) ** (1.0 + w) / ((a - lam) * (b + lam)) * e

        re = scipy.integrate.quad(lambda r: g(r).real, 1.0, np.exp(n), limit=200,
                                  epsabs=1e-14, epsrel=1e-12)[0]
        im = scipy.integrate.quad(lambda r: g(r).imag, 1.0, np.exp(n), limit=200,
                                  epsabs=1e-14, epsrel=1e-12)[0]
        total += sign * (re + 1j * im)
    return -total / (2j * np.pi)


# ------------------------------------------------------------ Cauchy problem


def pl_coefficients(lam, h: float):
    """(e^{-lam h}, c_cur, c_next) of the exact piecewise-linear step for
    f' + lam f = g, vectorised over lam."""
    lam = np.asarray(lam, dtype=complex)
    z = lam * h
    E = np.exp(-z)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    m0 = np.where(small, h * (1 - z / 2 + z * z / 6), -np.expm1(-zs) / np.where(small, 1.0, lam))
    m1 = np.where(small, h / 2 * (1 - z / 3 + z * z / 12), (h - m0) / zs)
    return E, m0 - m1, m1


def cauchy_modes(lam, V, g: np.ndarray, h: float) -> np.ndarray:
    """Exact piecewise-linear solution of f' + A f = g, f(0) = 0, with
    A = V diag(lam) V^H, integrated mode by mode as a linear recurrence."""
    import scipy.signal

    E, cc, cn = pl_coefficients(lam, h)
    gm = g @ V.conj()                                   # modal forcing (N, m)
    u = np.zeros_like(gm)
    u[1:] = cc[None, :] * gm[:-1] + cn[None, :] * gm[1:]
    fm = np.empty_like(gm)
    for j in range(len(lam)):
        fm[:, j] = scipy.signal.lfilter([1.0], [1.0, -E[j]], u[:, j])
    return fm @ V.T


def trapezoid_weights(n_nodes: int, h: float) -> np.ndarray:
    w = np.full(n_nodes, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def lp_norm(values: np.ndarray, w: np.ndarray, p: float) -> float:
    pointwise = np.linalg.norm(values.reshape(len(w), -1), axis=1)
    return float(np.sum(w * pointwise ** p) ** (1.0 / p))


def central_derivative(v: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return out


def maxreg_ratios(lam, V, g: np.ndarray, h: float, p: float, A: np.ndarray):
    """(||f'||_p / ||g||_p, ||A f||_p / ||g||_p) for one forcing."""
    f = cauchy_modes(lam, V, g, h)
    w = trapezoid_weights(g.shape[0], h)
    ng = lp_norm(g, w, p)
    return (lp_norm(central_derivative(f, h), w, p) / ng,
            lp_norm(f @ A.T, w, p) / ng)


def young_bound(lam: complex, tau: float) -> float:
    re = lam.real
    return float(-np.expm1(-re * tau) / re)


def deriv_resolvent_norm(lam: complex, tau: float, N_t: int) -> float:
    """Weighted L^2 norm of the discrete scalar resolvent matrix, built
    from its closed-form entries."""
    h = tau / N_t
    E, cc, cn = (complex(x[0]) for x in pl_coefficients(np.array([lam]), h))
    n = N_t + 1
    i = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    # f_i = sum_{k < i} E^{i-1-k} (cc g_k + cn g_{k+1})
    gap = i - k
    powE = np.where(gap >= 1, E ** np.maximum(gap - 1, 0), 0.0)
    M = cc * powE
    M[:, 1:] += cn * powE[:, :-1]
    ws = np.sqrt(trapezoid_weights(n, h))
    return op_norm((ws[:, None] * M) / ws[None, :])

"""sigma_min on a Schur form by inverse Lanczos: ``linops.schur_sigma_min``
against the dense SVD, its fallbacks, and where ``sector`` takes it.

The primitive runs Golub-Kahan-Lanczos on (T + z)^{-1} and falls back to
the SVD of T + z at a singular or stalled shift.  Its sigma_min is held
to the SVD of M + z within C n eps kappa(M + z), the accuracy either
decomposition has for the smallest singular value of a matrix with
condition number kappa.
"""

import numpy as np
import pytest

from sectorsum import MatrixOperator, SectorSampling, certify_sector, linops, sector

EPS = np.finfo(float).eps
# the ladder below reaches 0.07 of C n eps kappa, and the SVD of T + z sits
# as far from that of M + z
C = 1.0
LADDER = SectorSampling(n_boundary=4, n_angles=2, interior_density=2)  # bench sector-ladder


def _convection_diffusion(m):
    """L + 20 D1: the Dirichlet Laplacian plus 20 times the centred first
    difference, non-normal with a real positive spectrum."""
    lap = (m + 1) ** 2 * (2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))
    return (lap + 10.0 * (m + 1) * (np.eye(m, k=1) - np.eye(m, k=-1))).astype(complex)


def _random_nonnormal(n=100, seed=20260):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.diag(np.exp(rng.uniform(0.0, 3.0, n))) + noise


OPERATORS = {
    **{f"cd-{m}": (lambda m=m: _convection_diffusion(m), 0.9 * np.pi) for m in (64, 96, 128, 160)},
    "jordan-64": (lambda: 2.0 * np.eye(64) + np.eye(64, k=1), 0.75 * np.pi),
    "random-100": (_random_nonnormal, 0.5 * np.pi),
}


def _shifted_svd(M, pts):
    """The singular values of every M + z_k I, descending."""
    return linops._shifted_singular_values(linops.as_matrix(M), pts)


@pytest.mark.parametrize("sampling", [LADDER, SectorSampling()], ids=["ladder", "default"])
@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_sigma_min_within_n_eps_kappa_of_the_svd(name, sampling):
    build, theta = OPERATORS[name]
    M = build()
    n = M.shape[0]
    pts = sampling.points(theta)
    s_min, fro = linops.schur_sigma_min(linops.schur_form(M)[0], pts)
    s = _shifted_svd(M, pts)
    kappa = s[:, 0] / s[:, -1]
    assert np.all(np.abs(s_min / s[:, -1] - 1.0) <= C * n * EPS * kappa), name
    assert np.abs(fro / np.sqrt(np.sum(s * s, axis=1)) - 1.0).max() <= n * EPS


def _lanczos_results(monkeypatch):
    """What each _lanczos_sigma_min call returned, from here on (None: the
    shift fell back to the SVD)."""
    results = []
    real = linops._lanczos_sigma_min
    monkeypatch.setattr(linops, "_lanczos_sigma_min",
                        lambda *args: results.append(real(*args)) or results[-1])
    return results


def test_a_far_shift_falls_back_to_the_svd(monkeypatch):
    # at |z| = 1e6 every singular value of T + z lies within about 10 % of
    # |z|, so the top singular values of the inverse cluster and the
    # iteration stalls; near the spectrum it converges
    T = linops.schur_form(_convection_diffusion(64))[0]
    results = _lanczos_results(monkeypatch)
    z = np.array([1e6, 1e6 * np.exp(2.5j), 300j])
    s_min, _ = linops.schur_sigma_min(T, z)
    assert [r is None for r in results] == [True, True, False]
    dense = _shifted_svd(T, z[:2])[:, -1]
    assert np.array_equal(s_min[:2], dense)
    assert s_min[2] == pytest.approx(_shifted_svd(T, z[2:])[0, -1], rel=1e-12)


def test_a_singular_pivot_takes_the_svd_and_reads_singular(monkeypatch):
    M = _convection_diffusion(64)
    basis = linops.schur_form(M)
    eig = np.diagonal(basis[0])
    results = _lanczos_results(monkeypatch)
    z = np.array([-eig[3], 1.0])
    s_min, fro = linops.schur_sigma_min(basis[0], z)
    assert len(results) == 1  # the shift on the spectrum never iterates
    assert s_min[0] <= linops.SINGULAR_RTOL * fro[0]
    norms = linops.resolvent_norms(M, z, basis)
    assert norms[0] == np.inf and np.isfinite(norms[1])


def test_a_shift_is_the_same_whatever_it_is_taken_with():
    # each shift runs on its own from the seeded start vector, so a pruned
    # sup reads the values an exhaustive one does
    T = linops.schur_form(_convection_diffusion(96))[0]
    pts = LADDER.points(0.7 * np.pi)
    together = linops.schur_sigma_min(T, pts)
    alone = [linops.schur_sigma_min(T, [z]) for z in pts[::-1]][::-1]
    assert np.array_equal(together[0], [a[0][0] for a in alone])
    assert np.array_equal(together[1], [a[1][0] for a in alone])


def test_sector_takes_the_schur_form_from_the_crossover_on(monkeypatch, schur_calls):
    below = MatrixOperator(_convection_diffusion(sector.SCHUR_NORMS_DIM - 1))
    at = MatrixOperator(_convection_diffusion(sector.SCHUR_NORMS_DIM))
    results = _lanczos_results(monkeypatch)
    at.inverse_norm()  # the shift 0 is A's own singular values: no Schur form
    certify_sector(below, 0.7 * np.pi, LADDER, attach=False)
    assert not schur_calls and not results
    K = certify_sector(at, 0.7 * np.pi, LADDER, attach=False)
    assert len(schur_calls) == 1 and results
    pts = LADDER.points(0.7 * np.pi)
    dense = max(1.0, float(np.max((1.0 + np.abs(pts)) * linops.resolvent_norms(at.matrix, pts))))
    assert K == pytest.approx(dense, rel=1e-10)
    certify_sector(at, 0.6 * np.pi, LADDER, attach=False)
    assert len(schur_calls) == 1  # kept

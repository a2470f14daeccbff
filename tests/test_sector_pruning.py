"""The pruned sup of ``linops.weighted_resolvent_norms`` against the
exhaustive one on non-normal operators.

``certify_sector`` and ``extended_sector_check`` decompose only the
shifts whose Weyl bound on sigma_min(A + z) still lets them reach the
running sup.  K-hat, the extension check's worst value, worst shift,
sample count and raised shift must be those of every shift decomposed,
``(1 + |z|) * linops.resolvent_norms(M, pts)``, bit for bit, and with
sigma_min taken on A's Schur form (``linops.schur_sigma_min``), those of
``linops.resolvent_norms(M, pts, A.schur_form())``.  An operator
holds its singular values, which seed the bounds, across calls, so one
operator certified at many angles must give what fresh operators give.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sectorsum import (  # noqa: E402
    MatrixOperator,
    SectorSampling,
    SectorSpec,
    certify_sector,
    extended_sector_check,
    linops,
    sector,
)
from sectorsum.errors import (  # noqa: E402
    ExtensionViolated,
    NotSectorialAtAngle,
    SingularShift,
)
from sectorsum.sector import _disk_ring  # noqa: E402


def _exhaustive(M, pts, basis=None):
    norms = linops.resolvent_norms(M, pts, basis)
    if basis is not None:  # on either path a sampled 0 reads the singular values of M
        norms[pts == 0] = linops._norms_from_singular_values(linops.singular_values(M)[None])
    return (1.0 + np.abs(pts)) * norms


def _random_nonnormal(seed, n, complex_entries, strength):
    """diag(d) + strength * noise with a spectrum of d near the positive
    reals: real or complex, far from normal once strength is O(1)."""
    rng = np.random.default_rng(seed)
    d = np.exp(rng.uniform(-2.0, 3.0, n))
    noise = rng.standard_normal((n, n))
    if complex_entries:
        noise = noise + 1j * rng.standard_normal((n, n))
    return np.diag(d) + strength * noise


def _disk_points(sampling, spec, n_disk):
    ring = _disk_ring(n_disk)
    return np.concatenate([lam + (1.0 + abs(lam)) / (2.0 * spec.K) * ring
                           for lam in sampling.points(spec.theta)])


def _certify(A, theta, sampling):
    """K-hat, or the shift NotSectorialAtAngle names."""
    try:
        return certify_sector(A, theta, sampling, attach=False)
    except NotSectorialAtAngle as exc:
        return "raised", exc.shift


def _certify_exhaustive(M, theta, sampling, basis=None):
    pts = sampling.points(theta)
    ref = _exhaustive(M, pts, basis)
    if np.isinf(ref).any():
        return "raised", complex(pts[np.argmax(np.isinf(ref))])
    return max(1.0, float(np.max(ref)))


def _extension(A, spec, sampling, n_disk):
    """(worst value, worst shift, sample count), or the shift
    ExtensionViolated names."""
    try:
        chk = extended_sector_check(A, spec, sampling, n_disk)
    except ExtensionViolated as exc:
        return "raised", exc.shift
    return chk.worst_value, chk.worst_z, chk.n_samples


def _extension_exhaustive(M, spec, sampling, n_disk, basis=None):
    disk = _disk_points(sampling, spec, n_disk)
    ref = _exhaustive(M, disk, basis)
    violations = np.flatnonzero(ref > (2.0 * spec.K + 1.0) * (1.0 + 1e-9))
    if violations.size:
        return "raised", complex(disk[violations[0]])
    worst = int(np.argmax(ref))
    return ref[worst], complex(disk[worst]), disk.shape[0]


samplings = st.builds(SectorSampling, n_boundary=st.integers(1, 8), n_angles=st.integers(1, 4),
                      interior_density=st.integers(1, 4))
angles = st.floats(0.0, 0.95 * np.pi, exclude_max=True)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), complex_entries=st.booleans(),
       strength=st.floats(0.0, 4.0), theta=angles, sampling=samplings,
       k_scale=st.floats(0.5, 1.5), n_disk=st.integers(1, 6), schur=st.booleans())
def test_pruned_sup_equals_the_exhaustive_one(seed, n, complex_entries, strength, theta,
                                              sampling, k_scale, n_disk, schur):
    # schur: the crossover lowered to 1, so sigma_min is taken on A's Schur
    # form (linops.schur_sigma_min), pruned and exhaustive alike
    M = _random_nonnormal(seed, n, complex_entries, strength)
    A = MatrixOperator(M)
    if A.normal_basis() is not None:  # strength 0: the closed form, not the pruned path
        return
    basis = A.schur_form() if schur else None
    with pytest.MonkeyPatch.context() as mp:
        if schur:
            mp.setattr(sector, "SCHUR_NORMS_DIM", 1)
        k_hat = _certify(A, theta, sampling)
        assert k_hat == _certify_exhaustive(M, theta, sampling, basis)
        if isinstance(k_hat, tuple):
            return
        # K around K-hat: some checks pass, some raise at their first violation
        spec = SectorSpec(theta, max(1.0, k_scale * k_hat))
        assert (_extension(A, spec, sampling, n_disk)
                == _extension_exhaustive(M, spec, sampling, n_disk, basis))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10), complex_entries=st.booleans(),
       strength=st.floats(0.3, 4.0), thetas=st.lists(angles, min_size=2, max_size=4),
       sampling=samplings, k_scale=st.floats(0.5, 1.5), n_disk=st.integers(1, 6))
def test_one_operator_at_many_angles_matches_fresh_ones(seed, n, complex_entries, strength,
                                                        thetas, sampling, k_scale, n_disk):
    M = _random_nonnormal(seed, n, complex_entries, strength)
    A = MatrixOperator(M)
    if A.normal_basis() is not None:
        return
    for theta in thetas:
        k_hat = _certify(A, theta, sampling)
        assert k_hat == _certify(MatrixOperator(M), theta, sampling)
        assert k_hat == _certify_exhaustive(M, theta, sampling)
        if isinstance(k_hat, tuple):
            continue
        spec = SectorSpec(theta, max(1.0, k_scale * k_hat))
        chk = _extension(A, spec, sampling, n_disk)
        assert chk == _extension(MatrixOperator(M), spec, sampling, n_disk)
        assert chk == _extension_exhaustive(M, spec, sampling, n_disk)


@pytest.mark.parametrize("first", [0.0, None], ids=["origin", "left-of-origin"])
def test_singular_operator_names_its_first_singular_shift(first, monkeypatch):
    _names_its_first_singular_shift(first, False, monkeypatch)


@pytest.mark.parametrize("first", [0.0, None], ids=["origin", "left-of-origin"])
def test_singular_operator_on_a_schur_form_names_its_first_singular_shift(first, monkeypatch):
    _names_its_first_singular_shift(first, True, monkeypatch)


def _names_its_first_singular_shift(first, schur, monkeypatch):
    """[[0, 1], [0, -p]] is singular at the shifts 0 and p; p = None takes
    the sampled point left of the origin that comes first in sampling
    order.  ``schur``: sigma_min taken on the operator's Schur form."""
    sampling = SectorSampling(n_boundary=6, n_angles=3, interior_density=3)
    theta = 2.5
    p = complex(sampling.points(theta)[0]) if first is None else 1.0
    M = np.array([[0.0, 1.0], [0.0, -p]])
    A = MatrixOperator(M)
    assert A.normal_basis() is None
    if schur:
        monkeypatch.setattr(sector, "SCHUR_NORMS_DIM", 1)
    basis = A.schur_form() if schur else None
    with pytest.raises(SingularShift) as exc:
        A.inverse_norm()
    assert exc.value.shift == 0.0
    for th in (theta, 0.3, theta):
        assert _certify(A, th, sampling) == _certify_exhaustive(M, th, sampling, basis)
    assert _certify(A, theta, sampling) == ("raised", p if first is None else 0.0)

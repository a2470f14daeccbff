"""The pruned sup of ``linops.weighted_resolvent_norms`` against the
exhaustive one on non-normal operators.

``certify_sector`` and ``extended_sector_check`` decompose only the
shifts whose Weyl bound on sigma_min(A + z) still lets them reach the
running sup.  K-hat, the extension check's worst value, worst shift,
sample count and raised shift must be those of every shift decomposed,
``(1 + |z|) * linops.resolvent_norms(M, pts)``, bit for bit.
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
)
from sectorsum.errors import ExtensionViolated, NotSectorialAtAngle  # noqa: E402


def _exhaustive(M, pts):
    return (1.0 + np.abs(pts)) * linops.resolvent_norms(M, pts)


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
    ring = np.exp(2j * np.pi * np.arange(n_disk) / n_disk)
    return np.concatenate([lam + (1.0 + abs(lam)) / (2.0 * spec.K) * ring
                           for lam in sampling.points(spec.theta)])


samplings = st.builds(SectorSampling, n_boundary=st.integers(1, 8), n_angles=st.integers(1, 4),
                      interior_density=st.integers(1, 4))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), complex_entries=st.booleans(),
       strength=st.floats(0.0, 4.0), theta=st.floats(0.0, 0.95 * np.pi, exclude_max=True),
       sampling=samplings, k_scale=st.floats(0.5, 1.5), n_disk=st.integers(1, 6))
def test_pruned_sup_equals_the_exhaustive_one(seed, n, complex_entries, strength, theta,
                                              sampling, k_scale, n_disk):
    M = _random_nonnormal(seed, n, complex_entries, strength)
    A = MatrixOperator(M)
    if A.normal_basis() is not None:  # strength 0: the closed form, not the pruned path
        return
    pts = sampling.points(theta)
    ref = _exhaustive(M, pts)
    if np.isinf(ref).any():
        with pytest.raises(NotSectorialAtAngle) as exc:
            certify_sector(A, theta, sampling, attach=False)
        assert exc.value.shift == complex(pts[np.argmax(np.isinf(ref))])
        return
    k_hat = certify_sector(A, theta, sampling, attach=False)
    assert k_hat == max(1.0, float(np.max(ref)))

    # K around K-hat: some checks pass, some raise at their first violation
    spec = SectorSpec(theta, max(1.0, k_scale * k_hat))
    disk = _disk_points(sampling, spec, n_disk)
    ref = _exhaustive(M, disk)
    bound = 2.0 * spec.K + 1.0
    violations = np.flatnonzero(ref > bound * (1.0 + 1e-9))
    if violations.size:
        with pytest.raises(ExtensionViolated) as exc:
            extended_sector_check(A, spec, sampling, n_disk)
        assert exc.value.shift == complex(disk[violations[0]])
        return
    chk = extended_sector_check(A, spec, sampling, n_disk)
    worst = int(np.argmax(ref))
    assert chk.worst_value == ref[worst]
    assert chk.worst_z == complex(disk[worst])
    assert chk.n_samples == disk.shape[0]


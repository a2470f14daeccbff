"""The quadratures kept across calls: each pair's inverse K (with its
residual) and each operator's imaginary-power families.  A kept result
is bitwise the one a fresh object computes."""

import dataclasses
import json
import os

import numpy as np
import pytest

from sectorsum import (
    CommutingPair,
    bip_fit,
    bip_tsector_bound_assembly,
    certify_sector,
    closedness_certificate,
    generate,
    imaginary_power,
    resolvent_rep_real,
    resolvent_rep_rotated,
    sum_inverse,
    weighted_identity_left,
    weighted_identity_right,
)
from sectorsum import calculus, sums
from sectorsum.cli import main as cli_main
from sectorsum.errors import TruncationNotConverged
from sectorsum.sums import sum_contour
from conftest import certified


def _convection_diffusion(m):
    """L + 20 D1: (m+1)^2 tridiag(-1, 2, -1) plus 20 (m+1)/2 times the
    centred first difference; non-normal, so resolved in a Schur basis."""
    lap = (m + 1) ** 2 * (2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))
    return lap + 10.0 * (m + 1) * (np.eye(m, k=1) - np.eye(m, k=-1))


def _diag_pair():
    return CommutingPair(certified(np.diag([1.0, 2.0]), 0.9 * np.pi),
                         certified(np.diag([3.0, 4.0]), 0.9 * np.pi))


def _recipe_pair():
    return CommutingPair(generate("commuting-pair", role="a", n=4),
                         generate("commuting-pair", role="b", n=4))


def _dense_pair():
    # the conftest dense_pair: N and N^2 + I commute, neither is normal
    N = np.diag([1.0, 5.0 / 3.0, 7.0 / 3.0, 3.0]) + 0.3 * np.eye(4, k=1)
    return CommutingPair(certified(N, 0.85 * np.pi), certified(N @ N + np.eye(4), 0.85 * np.pi))


PAIRS = {"diag": _diag_pair, "commuting-pair-4": _recipe_pair, "dense": _dense_pair}
OPERATORS = {
    "diag": lambda: certified(np.diag([1.0, 2.0]), 0.9 * np.pi),
    "commuting-pair-4": lambda: generate("commuting-pair", role="a", n=4),
    "dense": lambda: _dense_pair().A,
    "schur-cd-8": lambda: certified(_convection_diffusion(8), 0.9 * np.pi),
}


def _same(a, b):
    """Bitwise equality of nested outputs."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a == b


def _certificate(pair):
    cert = closedness_certificate(pair)
    return cert.C_AB, cert.residual_K, cert.theta_values, cert.contour


PAIR_CALLS = [
    lambda pair, spec: sum_inverse(pair),
    lambda pair, spec: sum_inverse(pair, spec=spec),
    lambda pair, spec: weighted_identity_left(pair, -0.4 + 0.3j),
    lambda pair, spec: weighted_identity_right(pair, -0.4 + 0.3j),
    lambda pair, spec: _certificate(pair),
]


@pytest.mark.parametrize("name", PAIRS)
def test_kept_inverse_is_bitwise_a_fresh_one(name):
    kept = PAIRS[name]()
    spec = sum_contour(kept, tol=1e-9)
    first = [call(kept, spec) for call in PAIR_CALLS]
    again = [call(kept, spec) for call in PAIR_CALLS]
    fresh = [call(PAIRS[name](), spec) for call in PAIR_CALLS]
    assert _same(first, fresh) and _same(again, fresh)


def _assembly(A):
    return bip_tsector_bound_assembly(A, 0.3, 0.8, [np.ones(A.dim)], N_t=64)


def _x(A):
    return np.arange(1.0, A.dim + 1) + 0.5j


OPERATOR_CALLS = [
    lambda A: resolvent_rep_real(A, 0.7, _x(A)),
    lambda A: resolvent_rep_rotated(A, 0.7, 0.3, _x(A)),
    lambda A: (lambda fit: (fit.M, fit.phi, fit.norms))(bip_fit(A, t_max=3.0)),
    lambda A: imaginary_power(A, 1.7),
    _assembly,
]


@pytest.mark.parametrize("name", OPERATORS)
def test_kept_family_is_bitwise_a_fresh_one(name):
    A = OPERATORS[name]()
    first = [call(A) for call in OPERATOR_CALLS]
    again = [call(A) for call in OPERATOR_CALLS]
    fresh = [call(OPERATORS[name]()) for call in OPERATOR_CALLS]
    assert _same(first, fresh) and _same(again, fresh)


def _count_inverse_integrals(monkeypatch):
    calls = []
    pair_integral = sums._pair_integral

    def counted(pair, spec, s, w=None, tol=None):
        if w is None:
            calls.append(spec)
        return pair_integral(pair, spec, s, w, tol)

    monkeypatch.setattr(sums, "_pair_integral", counted)
    return calls


def test_mutating_a_returned_inverse_leaves_the_kept_one(monkeypatch):
    pair = _diag_pair()
    calls = _count_inverse_integrals(monkeypatch)
    K = sum_inverse(pair)
    expected = K.copy()
    K[:] = 0.0
    again = sum_inverse(pair)
    assert _same(again, expected) and len(calls) == 1
    assert again.flags.writeable and not np.shares_memory(again, K)


def test_closedness_reads_the_kept_inverse_and_residual(monkeypatch):
    pair = _recipe_pair()
    calls = _count_inverse_integrals(monkeypatch)
    K = sum_inverse(pair)
    cert = closedness_certificate(pair)
    S, eye = pair.A.matrix + pair.B.matrix, np.eye(pair.dim)
    residual = max(np.linalg.norm(K @ S - eye, 2), np.linalg.norm(S @ K - eye, 2))
    assert len(calls) == 1 and cert.residual_K == residual


def test_a_repeated_identity_refits_no_k_contour(monkeypatch):
    # the pair keeps K's contour (w = -1, sum_contour's default), so a
    # repeated identity finds its kept K without a refit; the identity's
    # own contour is fitted again
    fitted = []
    fit = sums.sum_contour
    monkeypatch.setattr(sums, "sum_contour", lambda pair, tol=1e-8, w=-1.0, s=-1.0: (
        fitted.append(w) or fit(pair, tol, w, s)))
    pair = _recipe_pair()
    first = weighted_identity_left(pair, -0.4 + 0.3j)
    assert fitted == [-1.0, -0.4 + 0.3j]
    fitted.clear()
    again = weighted_identity_left(pair, -0.4 + 0.3j)
    assert fitted == [-0.4 + 0.3j] and _same(again, first)


def test_a_kept_inverse_is_gated_again_at_another_tol():
    pair = _diag_pair()
    spec = sum_contour(pair, tol=1e-9)
    sum_inverse(pair, spec=spec, tol=1e-6)
    with pytest.raises(TruncationNotConverged):
        sum_inverse(pair, spec=spec, tol=1e-300)


def test_recertifying_a_member_changes_the_key(monkeypatch):
    pair = _diag_pair()
    calls = _count_inverse_integrals(monkeypatch)
    sum_inverse(pair)
    certify_sector(pair.B, 0.85 * np.pi)
    K = sum_inverse(pair)
    assert len(calls) == 2 and calls[0] != calls[1]
    sum_inverse(pair)
    assert len(calls) == 2
    fresh = CommutingPair(pair.A, certified(pair.B.matrix, 0.85 * np.pi))
    assert _same(K, sum_inverse(fresh))


def _spectrum_in_sector_pair(m):
    # B = (1/2) e^{i pi/10} A, certified at 0.8 pi: the certificate of A
    # at 0.9 pi covers spectrum for m = 2..8
    A = certified(_convection_diffusion(m), 0.9 * np.pi)
    return CommutingPair(A, certified(0.5 * np.exp(0.1j * np.pi) * A.matrix, 0.8 * np.pi))


def test_failed_inverse_keeps_nothing(monkeypatch):
    pair = _spectrum_in_sector_pair(4)
    calls = _count_inverse_integrals(monkeypatch)
    for expected in (1, 2):
        with pytest.raises(TruncationNotConverged):
            sum_inverse(pair)
        assert len(calls) == expected


def test_residual_error_names_spectrum_in_the_sector():
    # residual 1.7 against a tail estimate of 1e-14: the rays' truncation
    # is not the cause, the certificate of A is
    with pytest.raises(TruncationNotConverged) as exc:
        sum_inverse(_spectrum_in_sector_pair(4))
    msg = str(exc.value)
    assert "may contain spectrum" in msg and "finer ray rule" not in msg
    assert f"theta_A = {0.9 * np.pi:.4f}" in msg and f"theta_B = {0.8 * np.pi:.4f}" in msg


def test_residual_error_asks_for_a_finer_rule_when_the_tail_explains_it():
    pair = _diag_pair()
    spec = sum_contour(pair, tol=1e-6)
    # cut the rays' outer end short: the tail estimate accounts for the residual
    short = dataclasses.replace(spec, u_hi=0.5 * (spec.u_lo + spec.u_hi))
    with pytest.raises(TruncationNotConverged, match="finer ray rule"):
        sum_inverse(pair, spec=short, tol=1e-10)


def test_members_are_fixed():
    pair = _diag_pair()
    K = sum_inverse(pair)
    other = certified(np.diag([5.0, 7.0]), 0.9 * np.pi)
    for name in ("A", "B"):
        with pytest.raises(AttributeError, match="fixed"):
            setattr(pair, name, other)
    assert np.array_equal(pair.A.matrix, np.diag([1.0, 2.0]))
    assert _same(sum_inverse(pair), K)


def _count_family_builds(monkeypatch):
    builds = []

    class Counted(calculus.ImaginaryPowerFamily):
        def __init__(self, A, t_max=8.0):
            builds.append(t_max)
            super().__init__(A, t_max)

    monkeypatch.setattr(calculus, "ImaginaryPowerFamily", Counted)
    return builds


def test_two_families_are_kept_read_only(monkeypatch):
    A = certified(np.diag([1.0, 2.0]), 0.9 * np.pi)
    builds = _count_family_builds(monkeypatch)
    for t in (1.0, 2.0, 3.0, 3.0, 2.0, 1.0):
        imaginary_power(A, t)
    # 1 is the least recently used when 3 comes in, and is built again
    assert builds == [1.0, 2.0, 3.0, 1.0]
    fam = calculus._cached_family(A, 1.0)
    assert fam is calculus._cached_family(A, 1.0) and len(builds) == 4
    arrays = [v for v in vars(fam).values() if isinstance(v, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    # a fresh public family is built and writeable
    assert calculus.ImaginaryPowerFamily(A, 1.0).lam.flags.writeable


def test_a_family_past_the_byte_cap_is_used_but_not_kept(monkeypatch):
    A = certified(np.diag([1.0, 2.0]), 0.9 * np.pi)
    builds = _count_family_builds(monkeypatch)
    monkeypatch.setattr(calculus, "_FAMILY_BYTES", 0)
    first = imaginary_power(A, 1.5)
    assert _same(imaginary_power(A, 1.5), first) and len(builds) == 2


def test_sum_run_with_identities_and_certify_integrates_k_twice(monkeypatch, tmp_path):
    calls = _count_inverse_integrals(monkeypatch)
    cfg = {"schema_version": 1, "pipeline": "sum", "check_identities": [-0.5, 0.0],
           "certify": True, "recipe_a": {"kind": "diag-positive", "entries": [1, 2]},
           "recipe_b": {"kind": "diag-positive", "entries": [3, 4]}}
    path = os.path.join(tmp_path, "cfg.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert cli_main(["--out", str(tmp_path), "run", "--config", path]) == 0
    # tol 1e-6 (the run's K and the certificate) and 1e-8 (both identities)
    assert len(calls) == 2

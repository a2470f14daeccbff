"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured figure against its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

import sectorsum as ss
from sectorsum.linops import operator_norm
from sectorsum.sums import sum_contour
from conftest import certified


def report(num, label, value, requirement, passed):
    flag = "PASS" if passed else "FAIL"
    print(f"[acceptance {num:>2}] {label}: {value} ({requirement}) ... {flag}")
    assert passed, f"criterion {num}: {label} = {value}, needs {requirement}"


# ---------------------------------------------------------------- criteria


def test_01_dunford_power_accuracy(diag14):
    t0 = time.perf_counter()
    value, info = ss.complex_power(diag14, -0.5, with_info=True)
    elapsed = time.perf_counter() - t0
    err = np.abs(value - np.diag([1.0, 0.5])).max()
    report(1, "complex_power(diag(1,4), -1/2) error", f"{err:.2e}",
           "<= 1e-8 with <= 150 nodes in < 1 s",
           err <= 1e-8 and info.n_nodes <= 150 and elapsed < 1.0)


def test_02_power_semigroup_law():
    recipes = [
        ss.generate("diag-positive", n=6, spread=20.0),
        ss.generate("diag-rotated", psi=np.pi / 4, n=3),
        ss.generate("jordan", a=2.0, size=3),
        ss.generate("laplacian-1d", m=8),
        ss.generate("commuting-pair", role="a", n=5, seed=11),
    ]
    rng = np.random.default_rng(23)
    pool = [complex(-rng.uniform(0.2, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(8)]
    pairs = [(pool[rng.integers(8)], pool[rng.integers(8)]) for _ in range(20)]
    worst = 0.0
    for A in recipes:
        cache = {}

        def power(z, A=A, cache=cache):
            if z not in cache:
                cache[z] = ss.complex_power(A, z)
            return cache[z]

        for z1, z2 in pairs:
            gap = operator_norm(power(z1) @ power(z2) - power(z1 + z2))
            worst = max(worst, gap)
    report(2, "semigroup defect over 20 pairs x 5 recipes", f"{worst:.2e}",
           "<= 1e-6", worst <= 1e-6)


def test_03_hinf_matches_spectral_oracle():
    operators = [np.array([1.0, 4.0]), np.array([0.5, 2.0, 8.0])]
    worst = 0.0
    for d in operators:
        A = certified(np.diag(d), 0.9 * np.pi)
        for name, sym in ss.builtin_symbols(np.pi / 2).items():
            got = ss.hinf_apply(sym, A)
            expected = np.diag(sym(-d.astype(complex)))
            worst = max(worst, np.abs(got - expected).max())
    report(3, "hinf_apply vs spectral oracle (all builtins)", f"{worst:.2e}",
           "<= 1e-7", worst <= 1e-7)


def _acceptance_pairs():
    ang = 0.9 * np.pi
    pairs = [
        ss.CommutingPair(certified(np.diag([1.0, 2.0]), ang),
                         certified(np.diag([3.0, 4.0]), ang)),
        ss.CommutingPair(certified(np.diag(np.geomspace(1.0, 8.0, 8)), ang),
                         certified(np.diag(np.geomspace(0.5, 3.0, 8)), ang)),
        ss.CommutingPair(ss.generate("laplacian-1d", m=8),
                         certified(np.exp(1j * np.pi / 3) * np.eye(8), 0.6 * np.pi)),
        ss.CommutingPair(ss.generate("commuting-pair", role="a", n=6, seed=42),
                         ss.generate("commuting-pair", role="b", n=6, seed=42)),
        ss.CommutingPair(certified([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]],
                                   0.75 * np.pi),
                         certified([[3.0, 1.0, 0.0], [0.0, 3.0, 1.0], [0.0, 0.0, 3.0]],
                                   0.75 * np.pi)),
        ss.CommutingPair(certified(np.exp(1j * np.pi / 6) * np.diag([1.0, 2.0, 3.0]),
                                   0.7 * np.pi),
                         certified(np.diag([2.0, 5.0, 9.0]), ang)),
        ss.CommutingPair(certified(np.eye(4), ang), certified(np.eye(4), ang)),
        ss.CommutingPair(certified(np.diag([1.0, 100.0]), ang),
                         certified(np.eye(2), ang)),
        ss.CommutingPair(ss.generate("laplacian-1d", m=4),
                         certified(np.diag([1.0, 2.0, 3.0, 4.0]) * 0 + np.eye(4) * 2.5,
                                   ang)),
        ss.CommutingPair(certified(np.exp(-1j * np.pi / 6) * np.diag([2.0, 5.0]),
                                   0.7 * np.pi),
                         certified(np.exp(1j * np.pi / 6) * np.diag([1.0, 3.0]),
                                   0.7 * np.pi)),
    ]
    return pairs


def test_04_sum_inverse_vs_direct():
    worst = 0.0
    for pair in _acceptance_pairs():
        K = ss.sum_inverse(pair)
        direct = np.linalg.inv(pair.A.matrix + pair.B.matrix)
        rel = operator_norm(K - direct) / operator_norm(direct)
        worst = max(worst, rel)
    report(4, "sum_inverse relative error over 10 pairs", f"{worst:.2e}",
           "<= 1e-6", worst <= 1e-6)


def test_05_weighted_identities():
    pair = ss.CommutingPair(certified(np.diag([1.0, 2.0]), 0.9 * np.pi),
                            certified(np.diag([3.0, 4.0]), 0.9 * np.pi))
    worst = 0.0
    for w in (-0.25, -0.5 + 1j, -0.5 - 1j):
        _, _, dl = ss.weighted_identity_left(pair, w)
        _, _, dr = ss.weighted_identity_right(pair, w)
        worst = max(worst, dl, dr)
    report(5, "weighted identity defects over w grid", f"{worst:.2e}",
           "<= 1e-6", worst <= 1e-6)


def test_06_eadic_rearrangement():
    pair = ss.CommutingPair(certified(np.diag([1.0, 2.0]), 0.9 * np.pi),
                            certified(np.diag([3.0, 4.0]), 0.9 * np.pi))
    tc = sum_contour(pair).theta
    worst = 0.0
    for n in (1, 3, 5):
        direct = ss.split_integral_eval(pair, 0.25, 0.25, 0.4, n, variant="right")[1]
        rearranged = ss.eadic_middle_eval(pair, 0.25, 0.25, 0.4, n, theta_contour=tc)
        worst = max(worst, np.abs(direct - rearranged).max())
    # tail contraction is fastest when the annulus [e^2, e^6] carries
    # spectral weight near the contour and theta+phi is close to 1
    res_pair = ss.CommutingPair(
        certified(np.diag([1.0, 2.0]), 0.93 * np.pi),
        certified(np.diag([np.exp(3.0), np.exp(4.0)]), 0.97 * np.pi),
    )
    t2 = operator_norm(ss.split_integral_eval(res_pair, 0.45, 0.45, 0.0, 2)[2])
    t6 = operator_norm(ss.split_integral_eval(res_pair, 0.45, 0.45, 0.0, 6)[2])
    ratio = t2 / t6
    report(6, "e-adic equality / tail contraction",
           f"defect {worst:.2e}, decay x{ratio:.0f}",
           "<= 1e-8 and >= 100x", worst <= 1e-8 and ratio >= 100.0)


def test_07_representation_formulas(scalar1):
    worst = 0.0
    A9 = certified(np.diag([1.0, 9.0]), 0.9 * np.pi)
    x = np.array([1.0, 1.0])
    got = ss.resolvent_rep_real(A9, 0.5, x)
    worst = max(worst, np.abs(got - np.array([2 / 3, 2 / 11])).max())
    got = ss.resolvent_rep_rotated(A9, 1.0, np.pi / 4, x)
    direct = np.linalg.solve(np.eye(2) + np.exp(1j * np.pi / 4) * A9.matrix, x)
    worst = max(worst, np.abs(got - direct).max())
    got = ss.resolvent_rep_rotated(scalar1, 1.0, np.pi / 4, [1.0])
    scalar_err = abs(got[0] - (0.5 - 0.20710678j))
    worst = max(worst, scalar_err)
    report(7, "resolvent representation error", f"{worst:.2e}",
           "<= 1e-5 incl. 0.5 - 0.207107i case", worst <= 1e-5)


def test_08_hilbert_multiplier():
    N_t = 64
    grid = ss.TimeGrid(2 * np.pi, N_t, periodic=True)
    t = grid.times()
    worst = 0.0
    for k in range(-N_t // 4, N_t // 4 + 1):
        out = ss.discrete_hilbert(ss.GridFunction(grid, np.exp(1j * k * t)))
        expected = -1j * np.sign(k) * np.exp(1j * k * t)
        worst = max(worst, np.abs(out.values[:, 0] - expected).max())
    report(8, "Hilbert multiplier defect over |k| <= N_t/4", f"{worst:.2e}",
           "<= 1e-12", worst <= 1e-12)


def test_09_young_bound():
    grid = ss.TimeGrid(1.0, 1024)
    ok = True
    margins = []
    for lam in (1.0, 10.0, 1.0 + 5.0j):
        rec = ss.deriv_resolvent_bound_check(lam, grid, slack_per_dt=5.0)
        margins.append(rec["measured"] / rec["bound"])
        ok = ok and rec["passed"]
    report(9, "derivative resolvent norm / bound ratios",
           ", ".join(f"{m:.4f}" for m in margins),
           "<= 1 + 5 dt at N_t = 1024", ok)


def test_10_maxreg_oracle():
    A = certified([[1.0]], 0.8 * np.pi)
    rep = ss.maxreg_constant(A, ss.TimeGrid(1.0, 2048))
    oracle = np.sqrt((1.0 - np.exp(-2.0)) / 2.0)
    scalar_err = abs(rep.per_probe_fprime[0] - oracle)
    consts = []
    for m in (8, 16, 32):
        L = ss.generate("laplacian-1d", m=m)
        consts.append(ss.maxreg_constant(L, ss.TimeGrid(1.0, 192)).constant_Af)
    spread = max(consts) / min(consts) - 1.0
    report(10, "maxreg scalar oracle / laplacian stability",
           f"err {scalar_err:.2e}, spread {100 * spread:.1f}%",
           "<= 1e-3 and <= 10%", scalar_err <= 1e-3 and spread <= 0.10)


def test_11_parseval_tsectoriality(scalar1):
    ops = [
        np.diag([1.0, 2.0, 4.0]),
        np.diag(np.arange(1.0, 6.0)),
        ss.generate("laplacian-1d", m=4).matrix,
        np.diag([0.5, 1.5]),
        np.diag(np.geomspace(1.0, 10.0, 4)),
    ]
    ok = True
    for M in ops:
        A = certified(M, 0.9 * np.pi)
        xs = [np.eye(A.dim, dtype=complex)[:, j] for j in range(min(3, A.dim))]
        rec = ss.parseval_tsector_check(A, 0.0, 1.0, xs, N_t=256)
        ok = ok and rec["passed"] and rec["lhs"] <= rec["K_hat"] * rec["rhs"] + 1e-9
    val = ss.lhs_norm(scalar1, 0.0, 1.0, [[1.0], [1.0]], p=2.0, N_t=512)
    scalar_err = abs(val - 2.22008)
    report(11, "parseval checks / scalar n=1 value",
           f"lhs {val:.6f} (err {scalar_err:.1e})",
           "pass on 5 operators and 2.22008 +- 1e-4",
           ok and scalar_err <= 1e-4)


def test_12_bip_fit():
    A = certified(np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)]),
                  0.7 * np.pi)
    fit = ss.bip_fit(A, t_max=4.0)
    rel = abs(fit.phi - np.pi / 4) / (np.pi / 4)
    report(12, "power angle recovered", f"phi = {fit.phi:.6f}",
           "pi/4 within 5%", rel <= 0.05)


def test_13_closedness_certificate():
    pair = ss.CommutingPair(certified(np.diag([1.0, 100.0]), 0.9 * np.pi),
                            certified(np.eye(2), 0.9 * np.pi))
    cert = ss.closedness_certificate(pair)
    c_err = abs(cert.C_AB - 100.0 / 101.0)
    uniform = max(cert.theta_values) <= cert.C_AB * 1.1
    report(13, "C_AB and theta-grid uniformity",
           f"C_AB = {cert.C_AB:.6f} (err {c_err:.1e})",
           "0.990099 +- 1e-4 and grid <= 1.1 C_AB",
           c_err <= 1e-4 and uniform)

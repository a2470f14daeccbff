"""Properties over the configs of every pipeline run through the CLI:
every run exits 0, 1 or 2 with no uncaught exception and no warning,
and a passing report holds only finite numbers."""

import io
import json
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from sectorsum.cli import main as cli_main  # noqa: E402

# a size field past its cap: an array this long does not fit in memory
PAST_CAP = st.sampled_from([2049, 65537, 10 ** 12, 1e15])
GRID = {
    "tau": st.floats(0.0, 5.0, exclude_min=True),
    "nt": st.sampled_from([16, 32, 64]) | PAST_CAP,
    # p = 2 runs the adversarial searches, which sweep most often
    "p": st.just(2.0) | st.floats(1.0, 6.0, exclude_min=True),
}
MAXREG = st.fixed_dictionaries(
    {"pipeline": st.just("maxreg"),
     "recipe": st.fixed_dictionaries({
         "kind": st.just("diag-rotated"),
         "psi": st.floats(-np.pi, np.pi, exclude_min=True, exclude_max=True),
         "entries": st.lists(st.floats(1e-3, 1e5), min_size=1, max_size=3)})},
    optional={**GRID, "sweep_p": st.booleans(), "refine": st.booleans()})
SWEEP = st.fixed_dictionaries(
    {"pipeline": st.just("sweep")},
    optional={**GRID, "sizes": st.lists(st.integers(1, 6) | PAST_CAP, min_size=1, max_size=2)})


DIM = st.integers(-1, 6) | PAST_CAP
# every recipe kind, with parameters inside and outside their ranges
RECIPE = st.one_of(
    st.fixed_dictionaries({"kind": st.just("diag-positive")}, optional={
        "entries": st.lists(st.floats(-1.0, 1e300), max_size=4),
        "n": DIM, "spread": st.floats(-5.0, 1e300)}),
    st.fixed_dictionaries({"kind": st.just("diag-rotated")}, optional={
        "psi": st.floats(-4.0, 4.0), "entries": st.lists(st.floats(-1.0, 1e300), max_size=4),
        "n": DIM}),
    st.fixed_dictionaries({"kind": st.just("jordan")}, optional={
        "a": st.floats(-1e300, 1e300), "size": DIM}),
    st.fixed_dictionaries({"kind": st.just("laplacian-1d")}, optional={
        "m": st.integers(-1, 12) | PAST_CAP}),
    st.fixed_dictionaries({"kind": st.just("commuting-pair")}, optional={
        "role": st.sampled_from(["a", "b", "c"]), "n": DIM,
        "spread": st.floats(-5.0, 1e300)}),
)
CERTIFY = st.fixed_dictionaries(
    {"pipeline": st.just("certify"), "recipe": RECIPE, "theta": st.floats(-0.5, 3.5)},
    optional={"seed": st.integers(0, 2 ** 32), "sampling": st.fixed_dictionaries({}, optional={
        "n_boundary": st.integers(-1, 12) | PAST_CAP,
        "n_angles": st.integers(-1, 12) | PAST_CAP,
        "interior_density": st.integers(-1, 12) | PAST_CAP,
        "r_min": st.floats(-1.0, 1e3), "r_max": st.floats(-1.0, 1e12)})})
REP_CHECK = st.fixed_dictionaries(
    {"pipeline": st.just("rep-check"), "recipe": RECIPE, "rho": st.floats(-1.0, 1e300)},
    optional={"seed": st.integers(0, 2 ** 32), "theta": st.floats(-10.0, 10.0)})

ANGLE = st.floats(-0.5, 3.5)
# diagonal, Jordan and Laplacian recipes of one size commute, and so do
# the two roles of commuting-pair recipes on one seed
SUM = st.fixed_dictionaries(
    {"pipeline": st.just("sum"), "recipe_a": RECIPE, "recipe_b": RECIPE},
    optional={"seed": st.integers(0, 2 ** 32), "theta_a": ANGLE, "theta_b": ANGLE,
              "check_identities": st.lists(st.floats(-3.0, 0.5), min_size=2, max_size=2),
              "certify": st.booleans()})
# and pairs that commute and certify, so that most runs reach the contour sums
DIAG_PAIR = st.integers(1, 3).flatmap(lambda n: st.tuples(*(
    st.fixed_dictionaries({"kind": st.just("diag-positive"),
                           "entries": st.lists(st.floats(1e-3, 1e6), min_size=n, max_size=n)})
    for _ in "ab")))
ROLE_PAIR = st.tuples(st.integers(1, 5), st.floats(1.0, 1e4)).map(lambda ns: tuple(
    {"kind": "commuting-pair", "role": role, "n": ns[0], "spread": ns[1]} for role in "ab"))
SUM_PAIR = st.tuples(DIAG_PAIR | ROLE_PAIR, st.fixed_dictionaries({}, optional={
    "seed": st.integers(0, 2 ** 32), "theta_a": st.floats(1.0, 3.1),
    "theta_b": st.floats(1.0, 3.1), "certify": st.booleans(),
    "check_identities": st.tuples(st.floats(-3.0, -1e-3), st.floats(-5.0, 5.0)).map(list)})
).map(lambda pc: {"pipeline": "sum", "recipe_a": pc[0][0], "recipe_b": pc[0][1], **pc[1]})
HINF = st.fixed_dictionaries(
    {"pipeline": st.just("hinf"), "recipe": RECIPE,
     "symbol": st.sampled_from(["sqrt-over-1minus", "cayley-squared", "rational-eta", "nope"])},
    optional={"seed": st.integers(0, 2 ** 32), "theta": st.floats(-0.5, 3.5)})
TSECTOR = st.fixed_dictionaries(
    {"pipeline": st.just("t-sector"), "recipe": RECIPE},
    optional={"seed": st.integers(0, 2 ** 32), "theta": ANGLE, "phi": st.floats(-4.0, 4.0),
              "r": st.floats(0.0, 1.5), "p": st.floats(0.0, 8.0),
              "n": st.integers(-1, 3) | PAST_CAP, "N_t": st.integers(-1, 64) | PAST_CAP,
              "family": st.sampled_from(["pure-harmonics", "piecewise-constant",
                                         "proof-derived", "none"])})
POWER = st.fixed_dictionaries(
    {"pipeline": st.just("power"), "recipe": RECIPE},
    optional={"seed": st.integers(0, 2 ** 32), "re": st.floats(-3.0, 0.5),
              "im": st.floats(-20.0, 20.0), "theta": ANGLE})


def _numbers(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for item in doc:
            yield from _numbers(item)
    elif isinstance(doc, float):
        yield doc


@settings(max_examples=30, deadline=None)
# Re d = -3090: the modes grow by e^3090 over the grid
@example({"pipeline": "maxreg", "nt": 64,
          "recipe": {"kind": "diag-rotated", "psi": 1.885, "entries": [1e4, 1.0]}})
# certified at 2.5e-6, far below the pi/2 the constants need
@example({"pipeline": "maxreg", "nt": 64, "tau": 0.00088,
          "recipe": {"kind": "diag-rotated", "psi": 3.14159, "entries": [1e5]}})
# a grid past its cap
@example({"pipeline": "maxreg", "recipe": {"kind": "diag-positive"}, "nt": 1e15})
@given(MAXREG | SWEEP)
def test_maxreg_and_sweep_configs_exit_cleanly(cfg):
    _exits_cleanly(cfg)


@settings(max_examples=40, deadline=None)
@example({"pipeline": "certify", "theta": 0.0,
          "recipe": {"kind": "commuting-pair", "spread": 0.0}})
@example({"pipeline": "certify", "theta": 1.0, "recipe": {"kind": "diag-positive", "entries": []}})
@example({"pipeline": "certify", "theta": 1.0, "recipe": {"kind": "diag-rotated", "n": 0}})
# the commutator of the normality test squares entries of 1e85
@example({"pipeline": "certify", "theta": 0.0,
          "recipe": {"kind": "commuting-pair", "spread": 9.875427310270641e84}})
@example({"pipeline": "certify", "theta": 0.0, "recipe": {"kind": "jordan", "a": 9.48e153}})
@example({"pipeline": "rep-check", "rho": 5.93e291,
          "recipe": {"kind": "jordan", "a": 3.03e16}})
# a spectrum at 1e-154 sets a contour cut past the double range
@example({"pipeline": "rep-check", "rho": 1.0,
          "recipe": {"kind": "jordan", "a": 1.56e-154, "size": 1}})
# a sampling count past its cap
@example({"pipeline": "certify", "theta": 1.0, "recipe": {"kind": "diag-positive"},
          "sampling": {"n_boundary": 1e15}})
@given(CERTIFY | REP_CHECK)
def test_certify_and_rep_check_configs_exit_cleanly(cfg):
    _exits_cleanly(cfg)


@settings(max_examples=40, deadline=None)
# Re w = -1e-3: the identities' node weights pass the double range
@example({"pipeline": "sum", "check_identities": [-1e-3, 0.0],
          "recipe_a": {"kind": "diag-positive", "entries": [1, 2]},
          "recipe_b": {"kind": "diag-positive", "entries": [3, 4]}})
# a spectrum at 3.9e-103 puts the ray cut past e^709 times the arc radius
@example({"pipeline": "power", "recipe": {"kind": "jordan", "a": 3.8896847413439454e-103,
                                          "size": 1}})
@given(SUM | SUM_PAIR | POWER)
def test_sum_and_power_configs_exit_cleanly(cfg):
    _exits_cleanly(cfg)


@settings(max_examples=40, deadline=None)
# a grid and a dimension past their caps
@example({"pipeline": "t-sector", "recipe": {"kind": "diag-positive"}, "N_t": 1e15})
@example({"pipeline": "hinf", "symbol": "rational-eta",
          "recipe": {"kind": "laplacian-1d", "m": 1e12}})
# more harmonics than a grid of 256 steps resolves, and a grid below the 16
# steps of every TimeGrid
@example({"pipeline": "t-sector", "recipe": {"kind": "diag-positive"}, "n": 100})
@example({"pipeline": "t-sector", "recipe": {"kind": "diag-positive"}, "N_t": 8})
# more harmonics than have a scale e^-k in the double range, and the most
# that do, whose shifts e^k / r put each pivot's sum of squares past it
@example({"pipeline": "t-sector", "recipe": {"kind": "diag-positive"}, "n": 2049})
@example({"pipeline": "t-sector", "recipe": {"kind": "laplacian-1d"}, "n": 708,
          "r": 0.36787944117144233})
# the symbols' pole at 1 within rounding of the rays: their constant overflows
@example({"pipeline": "hinf", "symbol": "cayley-squared", "theta": 5.3e-238,
          "recipe": {"kind": "diag-positive"}})
@given(HINF | TSECTOR)
def test_hinf_and_t_sector_configs_exit_cleanly(cfg):
    _exits_cleanly(cfg)


# matrix files with one defect each: a malformed or non-finite entry, a
# ragged row or a missing one, no content, every modulus outside
# [1e-150, 1e150], or a dimension past its cap
ENTRY = st.builds(lambda re, im: f"{re!r}{im:+.17g}i", st.floats(-10.0, 10.0),
                  st.floats(-10.0, 10.0))
MALFORMED = st.sampled_from(["two+0i", "1+2", "1+2j", "i", "", "1e+i", "--1+0i", "1+0i+0i",
                             "0x1+0i", "1+ 0i"])
NON_FINITE = st.sampled_from(["nan+0i", "0+nani", "inf+0i", "1-infi", "-inf+0i", "1e999+0i"])
MODULUS = st.floats(1e-320, 1e-151) | st.floats(1.01e150, 1e308)


@st.composite
def bad_matrix_files(draw):
    n = draw(st.integers(1, 4))
    rows = [[draw(ENTRY) for _ in range(n)] for _ in range(n)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    header = str(n)
    defect = draw(st.sampled_from(["malformed", "non-finite", "ragged", "missing-row", "empty",
                                   "modulus", "past-cap"]))
    if defect == "malformed":
        rows[i][j] = draw(MALFORMED)
    elif defect == "non-finite":
        rows[i][j] = draw(NON_FINITE)
    elif defect == "ragged":
        rows[i] = rows[i][:-1] if n > 1 else rows[i] * 2
    elif defect == "missing-row":
        del rows[i]
    elif defect == "empty":
        return draw(st.sampled_from(["", "\n", "  \n\n"]))
    elif defect == "modulus":
        rows = [[f"{draw(MODULUS) * draw(st.sampled_from([1, -1]))!r}+0i" for _ in row]
                for row in rows]
    else:
        header = str(draw(PAST_CAP.map(int)))
    return header + "\n" + "".join(",".join(row) + "\n" for row in rows)


MATRIX_PIPELINES = st.sampled_from([
    {"pipeline": "certify", "theta": 1.0}, {"pipeline": "power"},
    {"pipeline": "rep-check", "rho": 1.0}, {"pipeline": "maxreg", "nt": 16}])


@settings(max_examples=60, deadline=None)
@example("2\n1+0i,0+0i\n0+0i\n", {"pipeline": "certify", "theta": 1.0})
@example("1\n1e-200+0i\n", {"pipeline": "certify", "theta": 1.0})
@example("2049\n1+0i\n", {"pipeline": "power"})
@given(bad_matrix_files(), MATRIX_PIPELINES)
def test_bad_matrix_files_exit_2(text, cfg):
    assert _exits_cleanly(cfg, matrix=text) == 2


def _exits_cleanly(cfg, matrix=None):
    """The exit code of a run of cfg through the CLI, after checking that it
    ran cleanly; with ``matrix``, the config reads a matrix file of that text."""
    with tempfile.TemporaryDirectory() as out:
        if matrix is not None:
            with open(os.path.join(out, "m.csv"), "w") as fh:
                fh.write(matrix)
            cfg = {**cfg, "matrix": os.path.join(out, "m.csv")}
        path = os.path.join(out, "cfg.json")
        with open(path, "w") as fh:
            json.dump({"schema_version": 1, **cfg}, fh)
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(stdout), redirect_stderr(stderr):
            warnings.simplefilter("always")
            rc = cli_main(["--out", out, "run", "--config", path])
        assert [str(w.message) for w in caught] == []
        assert rc in (0, 1, 2)
        if rc:
            assert stderr.getvalue().startswith(("check failed:", "config error:"))
            return rc
        (report,) = [p for p in json.loads(stdout.getvalue())["written"] if p.endswith(".json")]
        with open(report) as fh:
            doc = json.load(fh)
    assert doc["passed"]
    assert all(math.isfinite(x) for x in _numbers(doc["outputs"]))
    return rc

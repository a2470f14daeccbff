import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sectorsum
from sectorsum import CertificateReport, generate, report_diff, run_experiment
from sectorsum.cli import _parser, main as cli_main
from sectorsum.errors import ConfigInvalid, IncompatibleReports, InvalidRecipe, ReportInvalid
from sectorsum.harness import PIPELINES, laplacian_eigenvalues, run_config, validate_config
from sectorsum.linops import write_matrix


def test_generate_laplacian_eigenvalues():
    m = 3
    op = generate("laplacian-1d", m=m)
    expected = (m + 1) ** 2 * (2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))
    assert np.allclose(op.matrix, expected)
    eig = np.sort(np.linalg.eigvalsh(op.matrix.real))
    assert np.allclose(eig, laplacian_eigenvalues(m), rtol=1e-12)


def test_generate_diag_rotated_certified_angle():
    op = generate("diag-rotated", psi=np.pi / 4, entries=[1.0, 2.0, 3.0])
    assert np.allclose(op.matrix, np.diag(np.exp(1j * np.pi / 4) * np.arange(1.0, 4.0)))
    assert op.angle() >= np.pi / 2


def test_generate_jordan():
    op = generate("jordan", a=2.0, size=2)
    assert np.array_equal(op.matrix, np.array([[2.0, 1.0], [0.0, 2.0]]))


def test_generate_commuting_pair_commutes():
    A = generate("commuting-pair", role="a", n=4, seed=42)
    B = generate("commuting-pair", role="b", n=4, seed=42)
    assert np.linalg.norm(A.matrix @ B.matrix - B.matrix @ A.matrix) < 1e-10


def test_generate_determinism():
    a1 = generate("commuting-pair", role="a", n=4, seed=7)
    a2 = generate("commuting-pair", role="a", n=4, seed=7)
    assert np.array_equal(a1.matrix, a2.matrix)


def test_generate_rejects_unknown():
    with pytest.raises(InvalidRecipe):
        generate("heptadiagonal")
    with pytest.raises(InvalidRecipe):
        generate("jordan", a=2.0, size=2, bogus=1)


def test_validate_config_strict():
    good = {"schema_version": 1, "pipeline": "certify", "theta": 1.0,
            "recipe": {"kind": "diag-positive"}}
    validate_config(good)
    with pytest.raises(ConfigInvalid):
        validate_config({**good, "schema_version": 2})
    with pytest.raises(ConfigInvalid):
        validate_config({**good, "pipeline": "frobnicate"})
    with pytest.raises(ConfigInvalid):
        validate_config({**good, "unexpected": 1})


def test_run_experiment_certify_and_determinism(tmp_path):
    cfg = {"schema_version": 1, "pipeline": "certify", "theta": 1.0,
           "recipe": {"kind": "diag-positive", "n": 2}, "seed": 5}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    paths1, ok1 = run_experiment(str(cpath), str(tmp_path / "a"))
    paths2, ok2 = run_experiment(str(cpath), str(tmp_path / "b"))
    assert ok1 and ok2
    r1 = CertificateReport.load(paths1[0])
    r2 = CertificateReport.load(paths2[0])
    assert r1.payload_json() == r2.payload_json()  # byte identical sans envelope
    assert r1.equivalent(CertificateReport.from_json(r1.to_json()))


def test_run_experiment_sweep_csv(tmp_path):
    cfg = {"schema_version": 1, "pipeline": "sweep", "kind": "maxreg-laplacian",
           "sizes": [4, 8], "nt": 64}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    paths, ok = run_experiment(str(cpath), str(tmp_path))
    assert ok
    csv = [p for p in paths if p.endswith(".csv")]
    assert csv
    lines = open(csv[0]).read().strip().splitlines()
    assert lines[0] == "m,constant_fprime,constant_Af"
    assert len(lines) == 3
    # the eigenbasis sweeps of the Laplacians repeat byte for byte
    again, _ = run_experiment(str(cpath), str(tmp_path / "again"))
    assert (CertificateReport.load(paths[0]).payload_json()
            == CertificateReport.load(again[0]).payload_json())


def test_run_experiment_malformed_config(tmp_path):
    cpath = tmp_path / "bad.json"
    cpath.write_text(json.dumps({"schema_version": 1, "pipeline": "certify"}))
    with pytest.raises(ConfigInvalid):
        run_experiment(str(cpath), str(tmp_path))


def test_report_diff_identical_runs():
    rep = CertificateReport("op", {"x": 1}, {}, {"n": 3}, {"val": 1.25}, True)
    diff = report_diff(rep, CertificateReport("op", {"x": 1}, {}, {"n": 3},
                                              {"val": 1.25}, True))
    assert diff["all_within_tol"] and diff["max_abs_diff"] == 0.0


def test_report_diff_grid_refinement_model(tmp_path):
    # with the fixed probe set the constants are smooth functionals of
    # the grid, so N vs 2N differ within an O(dt^2) Richardson allowance
    from sectorsum import TimeGrid, maxreg_constant
    from conftest import certified

    A = certified([[1.0]], 0.8 * np.pi)
    reps = {}
    for N in (128, 256):
        r = maxreg_constant(A, TimeGrid(1.0, N), adversarial=False)
        reps[N] = CertificateReport(
            "maxreg", {"N_t": N}, {}, {"N_t": N},
            {"constant_fprime": r.constant_fprime}, True,
        )
    diff = report_diff(reps[128], reps[256], tol=50.0 * (1.0 / 128) ** 2)
    assert diff["fields"]["outputs.constant_fprime"]["within_tol"]


def test_report_diff_compares_complex_literals(tmp_path, monkeypatch, capsys):
    # the power report of a Laplacian m = 16 on the eigenvalue path and on
    # the Schur path (no normal basis): its "(a+bj)" matrix entries differ
    # in the last bits and compare as numbers
    cfg = {"schema_version": 1, "pipeline": "power", "re": -0.6, "im": 0.3,
           "recipe": {"kind": "laplacian-1d", "m": 16}}
    eigen = run_config(cfg, str(tmp_path / "eigen"))[0][0]
    monkeypatch.setattr(sectorsum.MatrixOperator, "normal_basis", lambda self: None)
    dense = run_config(cfg, str(tmp_path / "dense"))[0][0]
    diff = report_diff(CertificateReport.load(eigen), CertificateReport.load(dense))
    entries = [k for k in diff["fields"] if k.startswith("outputs.matrix")]
    assert len(entries) > 0 and all(diff["fields"][k]["abs_diff"] is not None for k in entries)
    assert 0.0 < diff["max_abs_diff"] <= 1e-14
    assert cli_main(["report-diff", eigen, dense, "--tol", "1e-12"]) == 0
    assert json.loads(capsys.readouterr().out)["all_within_tol"]


def test_report_diff_unparsed_string_is_a_null_mismatch():
    a = CertificateReport("op", {}, {}, {}, {"s": "(1+2j)", "t": "abc", "u": "(1+0j)"}, True)
    b = CertificateReport("op", {}, {}, {}, {"s": "(1+2.5j)", "t": "abd", "u": "(1+0j)"}, True)
    diff = report_diff(a, b, tol=1.0)
    assert diff["fields"]["outputs.s"]["abs_diff"] == 0.5
    assert diff["fields"]["outputs.s"]["within_tol"]
    assert diff["fields"]["outputs.t"]["abs_diff"] is None
    assert not diff["fields"]["outputs.t"]["within_tol"] and not diff["all_within_tol"]
    assert "outputs.u" not in diff["fields"]


def test_hinf_report_records_its_contour(tmp_path):
    from sectorsum import build_nodes, builtin_symbols
    from sectorsum.calculus import hinf_contour

    cfg = {"schema_version": 1, "pipeline": "hinf", "symbol": "rational-eta",
           "theta": 1.2, "recipe": {"kind": "laplacian-1d", "m": 8}}
    _, rep = run_config(cfg, str(tmp_path))
    op = generate("laplacian-1d", certify_angle=1.5, m=8)
    spec = hinf_contour(builtin_symbols(1.2)["rational-eta"], op)
    assert rep.node_counts["contour"] == len(build_nodes(spec)[0])
    assert 0.0 < rep.outputs["tail_estimate"] <= 1e-9


def test_report_diff_incompatible():
    a = CertificateReport("op-a", {}, {}, {}, {}, True)
    b = CertificateReport("op-b", {}, {}, {}, {}, True)
    with pytest.raises(IncompatibleReports):
        report_diff(a, b)


# ------------------------------------------------------------------- CLI


def test_cli_certify_and_power(tmp_path, capsys):
    mpath = tmp_path / "m.csv"
    write_matrix(mpath, np.diag([1.0, 4.0]).astype(complex))
    rc = cli_main(["--out", str(tmp_path), "certify-sector",
                   "--matrix", str(mpath), "--theta", "1.0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outputs"]["K_hat"] >= 1.0

    rc = cli_main(["--out", str(tmp_path), "power", "--matrix", str(mpath), "--re", "-0.5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["norm"] == pytest.approx(1.0, abs=1e-7)
    # plain complex literals, "(a+bj)"
    X = np.array([[complex(v) for v in row] for row in out["matrix"]])
    assert np.allclose(X, np.diag([1.0, 0.5]), atol=1e-7)


def test_cli_sum_inverse(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix(a, np.diag([1.0, 2.0]).astype(complex))
    write_matrix(b, np.diag([3.0, 4.0]).astype(complex))
    rc = cli_main(["--out", str(tmp_path), "sum-inverse",
                   "--matrix-a", str(a), "--matrix-b", str(b),
                   "--theta-a", "2.7", "--theta-b", "2.7"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outputs"]["relative_error_vs_direct"] <= 1e-6


def test_cli_run_config_exit_codes(tmp_path, capsys):
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps({"schema_version": 1, "pipeline": "certify",
                                 "theta": 1.0,
                                 "recipe": {"kind": "diag-positive", "n": 2}}))
    assert cli_main(["--out", str(tmp_path), "run", "--config", str(cpath)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "pipeline": "certify"}))
    assert cli_main(["--out", str(tmp_path), "run", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_cli_report_diff(tmp_path, capsys):
    rep = CertificateReport("op", {"x": 1}, {}, {}, {"v": 2.0}, True)
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    rep.save(p1)
    rep.save(p2)
    assert cli_main(["report-diff", str(p1), str(p2)]) == 0
    capsys.readouterr()


# report files that are not reports: each side of the diff in turn
BAD_REPORTS = {
    "missing": None,
    "not-json": '{"operation": "op", ',
    "no-operation": {"inputs": {}, "tolerances": {}, "node_counts": {}, "outputs": {},
                     "passed": True},
    "list": [1, 2],
    "outputs-not-object": {"operation": "op", "inputs": {}, "tolerances": {}, "node_counts": {},
                           "outputs": [2.0], "passed": True},
}


@pytest.mark.parametrize("case", BAD_REPORTS)
def test_cli_report_diff_bad_report_exits_2(tmp_path, capsys, case):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    CertificateReport("op", {"x": 1}, {}, {}, {"v": 2.0}, True).save(good)
    content = BAD_REPORTS[case]
    if content is not None:
        bad.write_text(content if isinstance(content, str) else json.dumps(content))
    with pytest.raises(ReportInvalid, match="cannot read report"):
        CertificateReport.load(bad)
    for pair in ((good, bad), (bad, good)):
        assert cli_main(["report-diff", str(pair[0]), str(pair[1])]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: cannot read report {bad}") and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_cli_report_diff_bad_tol_exits_2(tmp_path, capsys, tol):
    path = tmp_path / "r.json"
    CertificateReport("op", {}, {}, {}, {"v": 2.0}, True).save(path)
    assert cli_main(["report-diff", str(path), str(path), "--tol", tol]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --tol") and err.count("\n") == 1
    assert cli_main(["report-diff", str(path), str(path), "--tol", "-0.0"]) == 0
    capsys.readouterr()


def test_report_envelope_records_what_produced_it(tmp_path, monkeypatch):
    from sectorsum import harness

    monkeypatch.setenv("SECTORSUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = {"schema_version": 1, "pipeline": "certify", "theta": 1.0,
           "recipe": {"kind": "diag-positive", "n": 2}}
    paths, rep = run_config(cfg, str(tmp_path))
    env = CertificateReport.load(paths[0]).envelope
    assert env == rep.envelope
    assert set(env) == {"timestamp", "wall_s", "threads", "versions", "modules"}
    assert 0.0 < env["wall_s"] < 60.0
    assert env["threads"] == {v: os.environ[v] for v in harness._THREAD_VARS if v in os.environ}
    assert env["threads"]["SECTORSUM_THREADS"] == "1" and "MKL_NUM_THREADS" not in env["threads"]
    assert env["versions"]["python"] == "%d.%d.%d" % sys.version_info[:3]
    assert env["versions"]["numpy"] == np.__version__
    assert ("scipy" in env["versions"]) == ("scipy" in sys.modules)
    assert env["modules"] == sorted(m for m in sys.modules if m.startswith("sectorsum."))


def test_cli_hilbert_symbol_unknown(tmp_path, capsys):
    mpath = tmp_path / "m.csv"
    write_matrix(mpath, np.diag([1.0]).astype(complex))
    rc = cli_main(["--out", str(tmp_path), "hinf", "--matrix", str(mpath), "--symbol", "nope"])
    assert rc == 2
    capsys.readouterr()


def test_cli_tsector_and_repcheck_and_maxreg(tmp_path, capsys):
    mpath = tmp_path / "m.csv"
    write_matrix(mpath, np.diag([1.0, 2.0]).astype(complex))
    rc = cli_main(["--out", str(tmp_path), "t-sector", "--matrix", str(mpath), "--n", "1",
                   "--p", "2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["C_hat"] > 0

    rc = cli_main(["--out", str(tmp_path), "rep-check", "--matrix", str(mpath), "--rho", "1.0",
                   "--theta", "0.5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["error"] <= 1e-5

    rc = cli_main(["--out", str(tmp_path), "maxreg", "--matrix", str(mpath), "--nt", "64"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert np.isfinite(out["constant_fprime"])


def test_cli_maxreg_refine_writes_csv(tmp_path):
    cfg = {"schema_version": 1, "pipeline": "maxreg", "nt": 64, "refine": True,
           "recipe": {"kind": "diag-positive", "n": 2}}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    paths, ok = run_experiment(str(cpath), str(tmp_path))
    assert ok
    csvs = [p for p in paths if p.endswith(".csv")]
    assert csvs and open(csvs[0]).readline().startswith("N_t,")


def _write_config(path, cfg):
    path.write_text(json.dumps({"schema_version": 1, **cfg}))
    return str(path)


def test_run_sum_commuting_pair_passes(tmp_path, capsys):
    # A and B of a commuting-pair share the seeded basis only when both
    # sides are built from the same seed
    cfg = _write_config(tmp_path / "cfg.json", {
        "pipeline": "sum", "seed": 12345,
        "recipe_a": {"kind": "commuting-pair", "role": "a", "n": 4},
        "recipe_b": {"kind": "commuting-pair", "role": "b", "n": 4}})
    assert cli_main(["--out", str(tmp_path), "run", "--config", cfg]) == 0
    capsys.readouterr()
    assert CertificateReport.load(tmp_path / "sum.json").passed


def test_run_sum_identities_on_laplacian_passes(tmp_path, capsys):
    # B = e^{i pi/3} I certified at its angle puts K's ray 0.155 rad from
    # -sigma(B); the ray rule's step follows that distance, so K (and the
    # identities' inner sum_inverse, at an absolute residual of 1e-8 with
    # ||A|| ~ 320) reaches the tolerance
    cfg = _write_config(tmp_path / "cfg.json", {
        "pipeline": "sum", "check_identities": [-0.45, 0.0],
        "recipe_a": {"kind": "laplacian-1d", "m": 8},
        "recipe_b": {"kind": "diag-rotated", "psi": np.pi / 3, "entries": [1.0] * 8}})
    assert cli_main(["--out", str(tmp_path), "run", "--config", cfg]) == 0
    capsys.readouterr()
    report = CertificateReport.load(tmp_path / "sum.json")
    assert report.passed and report.outputs["relative_error_vs_direct"] <= 1e-10


def test_cli_sum_identities_at_a_slow_decay(tmp_path, capsys):
    # at w = -0.05 the identities' rays reach the ray rule's clamp radius
    # e^354, where the pivot test's sum of squares over the 4 eigenvalues
    # once overflowed: a RuntimeWarning, and the shift called singular
    mpath = tmp_path / "L4.csv"
    write_matrix(mpath, 25.0 * (2.0 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1)))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        rc = cli_main(["--out", str(tmp_path), "sum-inverse", "--matrix-a", str(mpath),
                       "--matrix-b", str(mpath), "--theta-a", "2.2", "--theta-b", "2.2",
                       "--check-identities", "-0.05", "0"])
    captured = capsys.readouterr()
    assert rc == 0 and not seen and captured.err == ""
    out = json.loads(captured.out)["outputs"]
    assert out["identity_left_diff"] <= 1e-8 and out["identity_right_diff"] <= 1e-8


@pytest.mark.parametrize("value", [[], 0, False, None], ids=["empty", "zero", "false", "null"])
def test_cli_falsy_check_identities_exits_2(tmp_path, capsys, monkeypatch, value):
    # a present check_identities is a weight or a config error, never ignored
    monkeypatch.chdir(tmp_path)
    write_matrix("m.csv", np.diag([1.0, 2.0]).astype(complex))
    cfg = _write_config(tmp_path / "cfg.json", {
        "pipeline": "sum", "matrix_a": "m.csv", "matrix_b": "m.csv", "check_identities": value})
    assert cli_main(["--out", str(tmp_path), "run", "--config", cfg]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "sum.json").exists()


def test_run_sum_honours_zero_angle(tmp_path):
    # theta_a = 0 certifies A at angle 0, so the pair's angle sum falls
    # below pi instead of A silently taking its recipe's default angle
    cfg = _write_config(tmp_path / "cfg.json", {
        "pipeline": "sum", "theta_a": 0.0,
        "recipe_a": {"kind": "diag-positive", "entries": [1.0, 2.0]},
        "recipe_b": {"kind": "diag-positive", "entries": [3.0, 4.0]}})
    with pytest.raises(ConfigInvalid, match="theta_A"):
        run_experiment(cfg, str(tmp_path))


@pytest.mark.parametrize("case", ["zero-angle", "not-commuting"])
def test_cli_sum_pair_that_is_not_admissible_exits_2(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    if case == "zero-angle":
        cfg = {"theta_a": 0.0, "recipe_a": {"kind": "diag-positive", "entries": [1.0, 2.0]},
               "recipe_b": {"kind": "diag-positive", "entries": [3.0, 4.0]}}
    else:
        write_matrix("a.csv", np.diag([1.0, 2.0]).astype(complex))
        write_matrix("b.csv", np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex))
        cfg = {"matrix_a": "a.csv", "matrix_b": "b.csv"}
    path = _write_config(tmp_path / "cfg.json", {"pipeline": "sum", **cfg})
    assert cli_main(["--out", str(tmp_path), "run", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert ("theta_A" if case == "zero-angle" else "resolvent commutator") in err


@pytest.mark.parametrize("content", [
    None, "2\n1+0i,0+0i\n0+0i,two+0i\n", "0\n", "2\n1+0i,0+0i\n0+0i,inf+0i\n",
    "2\n1+0i,0+nani\n0+0i,1+0i\n",
], ids=["missing", "malformed", "zero-size", "inf", "nan"])
def test_cli_bad_matrix_file_exits_2(tmp_path, capsys, content):
    mpath = tmp_path / "m.csv"
    if content is not None:
        mpath.write_text(content)
    rc = cli_main(["--out", str(tmp_path), "certify-sector", "--matrix", str(mpath),
                   "--theta", "1.0"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_readme_matrix_file_cap_is_checked_before_any_entry(tmp_path, capsys, monkeypatch):
    from sectorsum import linops

    row = re.search(r"^\| a matrix file \| .+ \| \[1, (\d+)\] \|$", _readme(), re.MULTILINE)
    assert row is not None
    cap = int(row.group(1))
    parsed = []
    parse = linops._parse_entry
    monkeypatch.setattr(linops, "_parse_entry", lambda s: parsed.append(s) or parse(s))
    mpath = tmp_path / "m.csv"
    # one past the cap, over as many one-entry rows: the row count holds,
    # so only the cap keeps the entries from being parsed
    mpath.write_text(f"{cap + 1}\n" + "1+0i\n" * (cap + 1))
    args = ["--out", str(tmp_path), "certify-sector", "--matrix", str(mpath), "--theta", "1.0"]
    assert cli_main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"size {cap + 1} is past the cap of {cap}" in err
    assert parsed == []
    # the cap itself is admitted: the file is refused for its row count
    mpath.write_text(f"{cap}\n1+0i\n")
    assert cli_main(args) == 2
    assert f"expected {cap} rows, found 1" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["run", "--config", "cfg.json"],
    ["certify-sector", "--matrix", "m.csv", "--theta", "1.0", "--rays", "0"],
], ids=["unknown-sampling-key", "zero-rays"])
def test_cli_bad_sampling_exits_2(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    write_matrix("m.csv", np.diag([1.0, 2.0]).astype(complex))
    _write_config(tmp_path / "cfg.json", {"pipeline": "certify", "matrix": "m.csv",
                                          "theta": 1.0, "sampling": {"bogus": 3}})
    assert cli_main(["--out", str(tmp_path), *args]) == 2
    assert "config error" in capsys.readouterr().err


# sampling values that are not integer counts or finite radii; the
# config is written as text, so 1e400 reaches the JSON reader as inf
BAD_SAMPLING = {
    "n_boundary-2.5": ["run", '{"n_boundary": 2.5}'],
    "n_angles-1.5": ["run", '{"n_angles": 1.5}'],
    "interior_density-1e300": ["run", '{"interior_density": 1e300}'],
    "n_boundary-true": ["run", '{"n_boundary": true}'],
    "r_max-1e400": ["run", '{"r_max": 1e400}'],
    "not-an-object": ["run", '[1, 2]'],
    "rmin-nan": ["--rmin", "nan"],
    "rmax-inf": ["--rmax", "inf"],
}


@pytest.mark.parametrize("case", BAD_SAMPLING)
def test_cli_sampling_values_are_config_errors(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    write_matrix("m.csv", np.diag([1.0, 2.0]).astype(complex))
    mode, value = BAD_SAMPLING[case]
    if mode == "run":
        (tmp_path / "cfg.json").write_text(
            '{"schema_version": 1, "pipeline": "certify", "matrix": "m.csv", "theta": 1.0, '
            f'"sampling": {value}}}')
        args = ["run", "--config", "cfg.json"]
    else:
        args = ["certify-sector", "--matrix", "m.csv", "--theta", "1.0", mode, value]
    assert cli_main(["--out", str(tmp_path), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("theta", ["0.0", "3.2"])
@pytest.mark.parametrize("mode", ["direct", "run"])
def test_cli_hinf_theta_out_of_range_exits_2(tmp_path, capsys, monkeypatch, theta, mode):
    monkeypatch.chdir(tmp_path)
    write_matrix("m.csv", np.diag([1.0, 2.0]).astype(complex))
    if mode == "direct":
        args = ["hinf", "--matrix", "m.csv", "--symbol", "rational-eta", "--theta", theta]
    else:
        args = ["run", "--config", _write_config(tmp_path / "cfg.json", {
            "pipeline": "hinf", "matrix": "m.csv", "symbol": "rational-eta",
            "theta": float(theta)})]
    assert cli_main(["--out", str(tmp_path), *args]) == 2
    assert "config error" in capsys.readouterr().err


# certification angles outside [0, pi), and a symbol angle at which
# hinf's certification angle min(0.95 pi, theta + 0.3) is not above it
BAD_ANGLES = {
    "certify-4.0": ["certify-sector", "--matrix", "m.csv", "--theta", "4.0"],
    "certify-negative": ["certify-sector", "--matrix", "m.csv", "--theta", "-1"],
    "power-4.0": ["power", "--matrix", "m.csv", "--re", "-0.5", "--theta", "4.0"],
    "tsector-3.5": ["t-sector", "--matrix", "m.csv", "--theta", "3.5"],
    "sum-theta-a-4.0": ["sum-inverse", "--matrix-a", "m.csv", "--matrix-b", "m.csv",
                        "--theta-a", "4.0", "--theta-b", "2.0"],
    "hinf-3.0": ["hinf", "--matrix", "m.csv", "--symbol", "rational-eta", "--theta", "3.0"],
    "run-power-3.2": {"pipeline": "power", "matrix": "m.csv", "theta": 3.2},
}


@pytest.mark.parametrize("case", list(BAD_ANGLES))
def test_cli_angle_out_of_range_exits_2(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    write_matrix("m.csv", np.diag([1.0, 2.0]).astype(complex))
    args = BAD_ANGLES[case]
    if isinstance(args, dict):
        args = ["run", "--config", _write_config(tmp_path / "cfg.json", args)]
    assert cli_main(["--out", str(tmp_path), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


BAD_GRIDS = [("tau", "nan"), ("tau", "inf"), ("tau", "0"), ("nt", "8"), ("p", "1.0")]


@pytest.mark.parametrize("key,value", BAD_GRIDS, ids=[f"{k}={v}" for k, v in BAD_GRIDS])
@pytest.mark.parametrize("mode", ["maxreg-direct", "maxreg-run", "sweep-run"])
def test_cli_bad_time_grid_exits_2(tmp_path, capsys, monkeypatch, key, value, mode):
    monkeypatch.chdir(tmp_path)
    write_matrix("m.csv", np.diag([1.0, 2.0]).astype(complex))
    if mode == "maxreg-direct":
        args = ["maxreg", "--matrix", "m.csv", f"--{key}", value]
    else:
        pipeline = mode.split("-")[0]
        source = {"matrix": "m.csv"} if pipeline == "maxreg" else {"sizes": [4]}
        args = ["run", "--config", _write_config(tmp_path / "cfg.json", {
            "pipeline": pipeline, **source, key: int(value) if key == "nt" else float(value)})]
    assert cli_main(["--out", str(tmp_path), *args]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("pipeline", ["maxreg", "sweep"])
def test_run_config_non_numeric_grid_exits_2(tmp_path, capsys, pipeline):
    source = {"recipe": {"kind": "diag-positive", "n": 2}} if pipeline == "maxreg" else {"sizes": [4]}
    args = ["run", "--config", _write_config(tmp_path / "cfg.json", {
        "pipeline": pipeline, **source, "tau": "abc"})]
    assert cli_main(["--out", str(tmp_path), *args]) == 2
    assert "config error" in capsys.readouterr().err


# (config, direct subcommand or None); each carries one value its field's
# type rejects
BAD_FIELDS = {
    "power-re": ({"pipeline": "power", "matrix": "m.csv", "re": "abc"},
                 ["power", "--matrix", "m.csv", "--re", "abc"]),
    "recipe-m": ({"pipeline": "power", "recipe": {"kind": "laplacian-1d", "m": "x"}}, None),
    "recipe-entries": ({"pipeline": "power",
                        "recipe": {"kind": "diag-positive", "entries": [1.0, "x"]}}, None),
    "tsector-N_t": ({"pipeline": "t-sector", "matrix": "m.csv", "N_t": "12x"}, None),
    "tsector-n": ({"pipeline": "t-sector", "matrix": "m.csv", "n": "x"},
                  ["t-sector", "--matrix", "m.csv", "--n", "x"]),
    "certify-theta": ({"pipeline": "certify", "matrix": "m.csv", "theta": "x"},
                      ["certify-sector", "--matrix", "m.csv", "--theta", "x"]),
    "hinf-theta": ({"pipeline": "hinf", "matrix": "m.csv", "symbol": "rational-eta",
                    "theta": "x"},
                   ["hinf", "--matrix", "m.csv", "--symbol", "rational-eta", "--theta", "x"]),
    "rep-check-rho": ({"pipeline": "rep-check", "matrix": "m.csv", "rho": "x"},
                      ["rep-check", "--matrix", "m.csv", "--rho", "x"]),
    "sum-identities": ({"pipeline": "sum", "matrix_a": "m.csv", "matrix_b": "m.csv",
                        "check_identities": ["a", 0.0]}, None),
    "sweep-sizes": ({"pipeline": "sweep", "sizes": [4, "x"]}, None),
    "maxreg-nt": ({"pipeline": "maxreg", "matrix": "m.csv", "nt": "12x"},
                  ["maxreg", "--matrix", "m.csv", "--nt", "12x"]),
    "seed": ({"pipeline": "power", "matrix": "m.csv", "seed": "x"}, None),
}


@pytest.mark.parametrize("case,mode", [(c, m) for c, (_, d) in BAD_FIELDS.items()
                                       for m in ("run", "direct")[:1 + (d is not None)]])
def test_cli_bad_numeric_field_exits_2(tmp_path, capsys, monkeypatch, case, mode):
    cfg, direct = BAD_FIELDS[case]
    monkeypatch.chdir(tmp_path)
    write_matrix("m.csv", np.diag([1.0, 2.0]).astype(complex))
    args = direct if mode == "direct" else [
        "run", "--config", _write_config(tmp_path / "cfg.json", cfg)]
    try:
        code = cli_main(["--out", str(tmp_path), *args])
    except SystemExit as exc:  # argparse rejects a mistyped flag itself
        code = exc.code
    assert code == 2
    assert "error" in capsys.readouterr().err


# each carries one value outside its field's range; all of them once
# exited 1 as failed checks, and the two sweeps ran and passed with no
# size or a truncated one
OUT_OF_RANGE = {
    "tsector-p": {"pipeline": "t-sector", "matrix": "m.csv", "p": 0.5},
    "tsector-r": {"pipeline": "t-sector", "matrix": "m.csv", "r": 5},
    "tsector-n": {"pipeline": "t-sector", "matrix": "m.csv", "n": -3},
    "tsector-N_t": {"pipeline": "t-sector", "matrix": "m.csv", "N_t": 4},
    "tsector-phi": {"pipeline": "t-sector", "matrix": "m.csv", "phi": 3.0},
    "tsector-family": {"pipeline": "t-sector", "matrix": "m.csv", "family": "sawtooth"},
    "sum-identities-re": {"pipeline": "sum", "matrix_a": "m.csv", "matrix_b": "m.csv",
                          "check_identities": [0.5, 0.0]},
    "power-re": {"pipeline": "power", "matrix": "m.csv", "re": 0.5},
    "power-re-nan": {"pipeline": "power", "matrix": "m.csv", "re": float("nan")},
    "rep-check-rho": {"pipeline": "rep-check", "matrix": "m.csv", "rho": -1},
    "sweep-no-sizes": {"pipeline": "sweep", "sizes": []},
    "sweep-fractional-size": {"pipeline": "sweep", "sizes": [2.5]},
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_cli_out_of_range_field_exits_2(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    write_matrix("m.csv", np.diag([1.0, 2.0]).astype(complex))
    cfg = _write_config(tmp_path / "cfg.json", OUT_OF_RANGE[case])
    assert cli_main(["--out", str(tmp_path), "run", "--config", cfg]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_cli_maxreg_near_singular_matrix(tmp_path, capsys):
    # certifies at 3 pi / 4 with K near 1e9; for this normal A the L^2
    # constants are at most 1 up to the grid's O(dt)
    mpath = tmp_path / "m.csv"
    write_matrix(mpath, np.diag([1e-9, 1.0]).astype(complex))
    assert cli_main(["--out", str(tmp_path), "maxreg", "--matrix", str(mpath), "--nt", "64"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["constant_fprime"] <= 1.0 + 5.0 / 64
    assert out["constant_Af"] <= 1.0 + 5.0 / 64


@pytest.mark.parametrize("cfg", [
    {"pipeline": "hinf", "symbol": "rational-eta", "theta": 1.0,
     "recipe": {"kind": "diag-positive", "entries": [1.0, 4.0]}},
    {"pipeline": "sum", "recipe_a": {"kind": "diag-positive", "entries": [1.0, 2.0]},
     "recipe_b": {"kind": "diag-positive", "entries": [3.0, 4.0]}},
], ids=["hinf", "sum"])
def test_contour_pipelines_record_node_count(tmp_path, cfg):
    _, report = run_config({"schema_version": 1, **cfg}, str(tmp_path))
    assert report.passed
    assert report.node_counts["contour"] > 0


TWINS = [
    (["certify-sector", "--matrix", "m.csv", "--theta", "1.0", "--rays", "8", "--arc", "3"],
     {"pipeline": "certify", "matrix": "m.csv", "theta": 1.0,
      "sampling": {"n_boundary": 8, "n_angles": 3}}),
    (["power", "--matrix", "m.csv", "--re", "-0.5", "--im", "0.25"],
     {"pipeline": "power", "matrix": "m.csv", "re": -0.5, "im": 0.25}),
    (["hinf", "--matrix", "m.csv", "--symbol", "rational-eta"],
     {"pipeline": "hinf", "matrix": "m.csv", "symbol": "rational-eta"}),
    (["sum-inverse", "--matrix-a", "m.csv", "--matrix-b", "b.csv", "--theta-a", "2.7",
      "--theta-b", "2.7"],
     {"pipeline": "sum", "matrix_a": "m.csv", "matrix_b": "b.csv", "theta_a": 2.7,
      "theta_b": 2.7}),
    (["t-sector", "--matrix", "m.csv", "--phi", "0.3", "--n", "2"],
     {"pipeline": "t-sector", "matrix": "m.csv", "phi": 0.3, "n": 2, "seed": 0}),
    (["rep-check", "--matrix", "m.csv", "--rho", "1.0", "--theta", "0.5"],
     {"pipeline": "rep-check", "matrix": "m.csv", "rho": 1.0, "theta": 0.5}),
    (["maxreg", "--matrix", "m.csv", "--nt", "64"],
     {"pipeline": "maxreg", "matrix": "m.csv", "nt": 64}),
]


@pytest.mark.parametrize("direct,cfg", TWINS, ids=[t[0][0] for t in TWINS])
def test_cli_direct_matches_run_config(tmp_path, capsys, monkeypatch, direct, cfg):
    monkeypatch.chdir(tmp_path)
    write_matrix("m.csv", np.diag([1.0, 2.0]).astype(complex))
    write_matrix("b.csv", np.diag([3.0, 4.0]).astype(complex))
    assert cli_main(["--out", "direct", *direct]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert cli_main(["--out", "run", "run", "--config",
                     _write_config(tmp_path / "cfg.json", cfg)]) == 0
    capsys.readouterr()
    mine = CertificateReport.load(os.path.join("direct", f"{direct[0]}.json"))
    twin = CertificateReport.load(os.path.join("run", f"{cfg['pipeline']}.json"))
    assert mine.outputs == twin.outputs
    assert printed.get("outputs", printed) == mine.outputs


def _src_env(**extra):
    """os.environ with the package source on PYTHONPATH, no BLAS thread
    variables, and ``extra`` set."""
    src = os.path.dirname(os.path.dirname(sectorsum.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def test_sectorsum_threads_caps_blas_on_import():
    # numpy's OpenBLAS and scipy's bundled copy report their pool sizes
    # through these symbols; scipy's loads only with the Schur form
    probe = (
        "import ctypes, sectorsum\n"
        "import numpy as np  # after sectorsum, which sets the caps as numpy loads\n"
        "def pool(symbol):\n"
        "    with open('/proc/self/maps') as fh:\n"
        "        libs = sorted({ln.split()[-1] for ln in fh\n"
        "                       if 'openblas' in ln.lower() and '/' in ln})\n"
        "    fns = [getattr(ctypes.CDLL(p), symbol, None) for p in libs]\n"
        "    fns = [f for f in fns if f is not None]\n"
        "    for f in fns:\n"
        "        f.restype, f.argtypes = ctypes.c_int, []\n"
        "    return fns[0]() if fns else -1\n"
        "numpy_pool = pool('scipy_openblas_get_num_threads64_')\n"
        "sectorsum.linops.schur_form(np.diag([1.0, 2.0]) + np.eye(2, k=1))\n"
        "print(numpy_pool, pool('scipy_openblas_get_num_threads'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=_src_env(SECTORSUM_THREADS="1"),
                          capture_output=True, text=True, timeout=120, check=True)
    numpy_pool, scipy_pool = map(int, proc.stdout.split())
    if numpy_pool < 0:
        pytest.skip("numpy's OpenBLAS exposes no thread-count symbol")
    assert numpy_pool == 1
    # the cap still holds when scipy loads after sectorsum
    if scipy_pool < 0:
        pytest.skip("scipy's OpenBLAS exposes no thread-count symbol")
    assert scipy_pool == 1


def test_numpy_only_pipelines_never_load_scipy(tmp_path):
    # the children of one process run in turn; the lists printed last say
    # whether scipy, and numpy.ma (which a plain np.unique imports), were
    # loaded at import and after each child
    probe = (
        "import json, sys\n"
        "import sectorsum, sectorsum.cli\n"
        "names = ('scipy', 'numpy.ma')\n"
        "loaded = {name: [name in sys.modules] for name in names}\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert sectorsum.cli.main(['--out', 'out', *argv]) == 0, argv\n"
        "    for name in names:\n"
        "        loaded[name].append(name in sys.modules)\n"
        "print(json.dumps(loaded))\n"
    )

    def loaded(*children):
        proc = subprocess.run([sys.executable, "-c", probe, json.dumps(children)],
                              env=_src_env(), cwd=tmp_path, capture_output=True, text=True,
                              timeout=120, check=True)
        return json.loads(proc.stdout.splitlines()[-1])

    m = 8
    L = generate("laplacian-1d", m=m).matrix
    write_matrix(tmp_path / "L.csv", L)
    write_matrix(tmp_path / "B.csv", 2.0 * np.exp(1j * np.pi / 3) * np.eye(m))
    write_matrix(tmp_path / "cd.csv", L + 10.0 * (m + 1) * (np.eye(m, k=1) - np.eye(m, k=-1)))
    lap = ["--matrix", "L.csv"]
    assert loaded(
        ["certify-sector", *lap, "--theta", "2.0"],
        ["power", *lap, "--re", "-0.5", "--im", "0.25"],
        ["hinf", *lap, "--symbol", "rational-eta"],
        ["t-sector", *lap, "--phi", "0.3", "--n", "2"],
        ["rep-check", *lap, "--rho", "1.0", "--theta", "0.5"],
        ["sum-inverse", "--matrix-a", "L.csv", "--matrix-b", "B.csv", "--theta-a", "2.7",
         "--theta-b", "2.0"],
    ) == {"scipy": [False] * 7, "numpy.ma": [False] * 7}
    # a non-normal operator takes a Schur form, and maxreg an exponential
    assert loaded(["power", "--matrix", "cd.csv", "--re", "-0.5"])["scipy"] == [False, True]
    assert loaded(["maxreg", *lap, "--nt", "64"])["scipy"] == [False, True]


def test_import_sectorsum_loads_no_module_until_a_name_is_used(tmp_path):
    probe = (
        "import json, sys\n"
        "import sectorsum\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('sectorsum.') or m == 'numpy')\n"
        "before = loaded()\n"
        "sectorsum.maxreg.default_probes\n"
        "print(json.dumps([before, loaded()]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=_src_env(), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=True)
    before, after = json.loads(proc.stdout)
    assert before == []
    assert after == ["numpy", "sectorsum.errors", "sectorsum.linops", "sectorsum.maxreg",
                     "sectorsum.sector"]


# the sectorsum modules each subcommand loads, on a Laplacian
CERTIFY_MODULES = ["cli", "errors", "harness", "linops", "reports", "sector"]
CONTOUR_MODULES = sorted([*CERTIFY_MODULES, "calculus", "contour"])
MAXREG_MODULES = sorted([*CERTIFY_MODULES, "maxreg"])
SUM_MODULES = sorted([*CONTOUR_MODULES, "sums"])
TSECTOR_MODULES = sorted([*CONTOUR_MODULES, "maxreg", "tsector"])
RUN_CONFIGS = {
    "certify": {"matrix": "L.csv", "theta": 2.0},
    "sweep": {"sizes": [4], "nt": 16},
    "sum": {"matrix_a": "L.csv", "matrix_b": "B.csv", "theta_a": 2.7, "theta_b": 2.0},
}
MODULE_SETS = {
    "certify-sector": (["certify-sector", "--matrix", "L.csv", "--theta", "2.0"],
                       CERTIFY_MODULES),
    "run-certify": (["run", "--config", "certify.json"], CERTIFY_MODULES),
    "power": (["power", "--matrix", "L.csv", "--re", "-0.5"], CONTOUR_MODULES),
    "hinf": (["hinf", "--matrix", "L.csv", "--symbol", "rational-eta"], CONTOUR_MODULES),
    "maxreg": (["maxreg", "--matrix", "L.csv", "--nt", "16"], MAXREG_MODULES),
    "run-sweep": (["run", "--config", "sweep.json"], MAXREG_MODULES),
    "sum-inverse": (["sum-inverse", "--matrix-a", "L.csv", "--matrix-b", "B.csv",
                     "--theta-a", "2.7", "--theta-b", "2.0"], SUM_MODULES),
    "run-sum": (["run", "--config", "sum.json"], SUM_MODULES),
    "t-sector": (["t-sector", "--matrix", "L.csv", "--n", "1"], TSECTOR_MODULES),
    "rep-check": (["rep-check", "--matrix", "L.csv", "--rho", "1.0"], TSECTOR_MODULES),
    "report-diff": (["report-diff", "r.json", "r.json"], ["cli", "errors", "reports"]),
}


@pytest.mark.parametrize("case", MODULE_SETS)
def test_each_subcommand_loads_only_its_modules(tmp_path, case):
    m = 4
    write_matrix(tmp_path / "L.csv", generate("laplacian-1d", m=m).matrix)
    write_matrix(tmp_path / "B.csv", 2.0 * np.exp(1j * np.pi / 3) * np.eye(m))
    for pipeline, cfg in RUN_CONFIGS.items():
        _write_config(tmp_path / f"{pipeline}.json", {"pipeline": pipeline, **cfg})
    CertificateReport("op", {}, {}, {}, {"v": 1.0}, True).save(tmp_path / "r.json")
    # one CLI run in a fresh process: its exit code, the sectorsum modules
    # it loaded and whether scipy loaded
    probe = (
        "import json, sys\n"
        "import sectorsum.cli\n"
        "rc = sectorsum.cli.main(['--out', 'out', *json.loads(sys.argv[1])])\n"
        "mods = sorted(m[len('sectorsum.'):] for m in sys.modules if m.startswith('sectorsum.'))\n"
        "print(json.dumps([rc, mods, 'scipy' in sys.modules]))\n"
    )
    argv, expected = MODULE_SETS[case]
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)], env=_src_env(),
                          cwd=tmp_path, capture_output=True, text=True, timeout=120, check=True)
    rc, modules, scipy_loaded = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0
    assert modules == expected
    # the report's envelope names the same modules, and scipy only if it loaded
    for path in (tmp_path / "out").glob("*.json"):
        envelope = json.loads(path.read_text())["envelope"]
        assert envelope["modules"] == [f"sectorsum.{m}" for m in expected]
        assert ("scipy" in envelope["versions"]) == scipy_loaded


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_pipelines_line_lists_every_pipeline():
    match = re.search(r"^Pipelines: ((?:`[^`]+`,?\s*)+)\.", _readme(), re.MULTILINE)
    assert match is not None
    assert re.findall(r"`([^`]+)`", match.group(1)) == list(PIPELINES)


def test_readme_cli_usage_names_every_subcommand():
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", _readme(), re.MULTILINE | re.DOTALL)
    assert block is not None
    named = re.findall(r"^sectorsum\s+(\S+)", block.group(1), re.MULTILINE)
    subparsers = next(a for a in _parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert sorted(named) == sorted(subparsers.choices)


# ------------------------------------------------ README's checked ranges

# a config per pipeline that runs through every field check; theta 2.0 is
# the certified angle (the README's theta) and n is 1 (its default)
RANGE_BASE = {
    "certify": {"matrix": "m.csv", "theta": 2.0},
    "power": {"matrix": "m.csv", "theta": 2.0},
    "hinf": {"matrix": "m.csv", "symbol": "rational-eta", "theta": 1.0},
    "sum": {"matrix_a": "m.csv", "matrix_b": "m.csv", "theta_a": 2.0, "theta_b": 2.0,
            "check_identities": [-0.5, 0.0]},
    "t-sector": {"matrix": "m.csv", "theta": 2.0, "N_t": 16},
    "rep-check": {"matrix": "m.csv", "rho": 1.0},
    "maxreg": {"matrix": "m.csv", "nt": 16},
    "sweep": {"sizes": [2], "nt": 16},
}
# m is the largest entry modulus of m.csv
RANGE_CONTEXT = {"theta": 2.0, "n": 1, "m": 2.0}
# the objects inside a config that the README's table names in place of a
# pipeline: each field of a recipe, with a kind that takes it, and of a
# certification's sampling
NESTED = {"recipe": {"m": "laplacian-1d", "n": "diag-positive", "size": "jordan"},
          "sampling": {"n_boundary": None, "n_angles": None, "interior_density": None}}
INTEGER_FIELDS = {"n", "N_t", "nt", "sizes", "m", "size", "n_boundary", "n_angles",
                  "interior_density"}


def _range_config(where: str, field: str, value) -> dict:
    """RANGE_BASE's config of a pipeline with field set to value, or a
    certify config with it inside a recipe or its sampling."""
    if where == "recipe":
        return {"pipeline": "certify", "theta": 2.0,
                "recipe": {"kind": NESTED["recipe"][field], field: value}}
    if where == "sampling":
        return {"pipeline": "certify", **RANGE_BASE["certify"], "sampling": {field: value}}
    return {"pipeline": where, **RANGE_BASE[where], field: value}


def _readme_value(text: str) -> float:
    """A bound as the README writes it: 0.95π, −θ, 1/e, 4(n + 1)."""
    expr = re.sub(r"(\d)([π(])", r"\1*\2", text.replace("−", "-").replace("θ", "theta"))
    return float(eval(expr.replace("π", "pi"), {"__builtins__": {}},
                      {"pi": np.pi, "e": np.e, **RANGE_CONTEXT}))


def _readme_range(cell: str):
    """(lo, hi, ends) of a numeric range cell, or the cell's kind."""
    for kind in ("one of", "with Re w < 0"):
        if kind in cell:
            return kind
    if match := re.match(r"([\[(])(.+?), (.+?)([\])])", cell):
        return (_readme_value(match.group(2)), _readme_value(match.group(3)),
                match.group(1) + match.group(4))
    if match := re.fullmatch(r"([<>≤≥]) (.+)", cell):
        op, value = match.group(1), _readme_value(match.group(2))
        return {"<": (None, value, "()"), "≤": (None, value, "(]"),
                ">": (value, None, "()"), "≥": (value, None, "[)")}[op]
    raise AssertionError(f"README range {cell!r} is not one the test reads")


def _readme_ranges() -> dict:
    """{(pipeline, field): range} from the README's table of checked ranges."""
    table = re.search(r"^\| pipeline \| field \| checked range \|\n\|[- |]+\|\n((?:\|.*\n)+)",
                      _readme(), re.MULTILINE)
    assert table is not None
    ranges = {}
    for row in table.group(1).splitlines():
        pipelines, fields, cell = (c.strip() for c in row.strip("|").split("|"))
        for pipeline in re.findall(r"`([^`]+)`", pipelines):
            for field in re.findall(r"`([^`]+)`", fields):
                assert (pipeline, field) not in ranges
                ranges[pipeline, field] = _readme_range(cell)
    return ranges


README_RANGES = _readme_ranges()


def _out_of_range(rng, integer: bool) -> list:
    """Values just outside a README range: at or past each end."""
    if rng == "one of":
        return ["none-of-these"]
    if rng == "with Re w < 0":
        return [[0.0, 0.0]]
    lo, hi, ends = rng
    step = (lambda v: 1) if integer else (lambda v: 1e-9 * max(1.0, abs(v)))
    values = []
    if lo is not None:
        values.append(lo - step(lo) if ends[0] == "[" else lo)
    if hi is not None:
        values.append(hi + step(hi) if ends[1] == "]" else hi)
    return [int(v) if integer else v for v in values]


def test_readme_ranges_are_the_ones_the_harness_checks(tmp_path, monkeypatch):
    # every range check of a pipeline, a recipe or a sampling goes through
    # harness._field, with bounds or a kind that validates; record them on
    # runs that pass
    from sectorsum import harness
    checked, field = {}, harness._field
    plain = (float, harness._integer)

    def recording(cfg, key, kind, default, lo=None, hi=None, ends="[]"):
        where = cfg.get("pipeline") or next((w for w in NESTED if key in NESTED[w]), None)
        if where and (lo is not None or hi is not None or kind not in plain):
            checked[where, key] = (lo, hi, ends) if lo is not None or hi is not None else kind
        return field(cfg, key, kind, default, lo, hi, ends)

    monkeypatch.setattr(harness, "_field", recording)
    monkeypatch.chdir(tmp_path)
    write_matrix("m.csv", np.diag([1.0, 2.0]).astype(complex))
    for pipeline, cfg in RANGE_BASE.items():
        run_config({"schema_version": 1, "pipeline": pipeline, **cfg}, str(tmp_path))
    for where, fields in NESTED.items():
        for key in fields:
            run_config({"schema_version": 1, **_range_config(where, key, 2)}, str(tmp_path))
    assert set(checked) == set(README_RANGES)
    for key, rng in README_RANGES.items():
        if isinstance(rng, tuple):
            lo, hi, ends = checked[key]
            assert (lo is None, hi is None) == (rng[0] is None, rng[1] is None), key
            assert lo is None or (lo == pytest.approx(rng[0], rel=1e-15) and ends[0] == rng[2][0])
            assert hi is None or (hi == pytest.approx(rng[1], rel=1e-15) and ends[1] == rng[2][1])
        else:
            assert not isinstance(checked[key], tuple), key


@pytest.mark.parametrize("pipeline,field", sorted(README_RANGES))
def test_readme_range_edges_exit_2(tmp_path, capsys, monkeypatch, pipeline, field):
    monkeypatch.chdir(tmp_path)
    write_matrix("m.csv", np.diag([1.0, 2.0]).astype(complex))
    values = _out_of_range(README_RANGES[pipeline, field], field in INTEGER_FIELDS)
    assert values
    if field == "sizes":  # each value as the one size, and no size at all
        values = [[v] for v in values] + [[]]
    for value in values:
        cfg = _write_config(tmp_path / "cfg.json", _range_config(pipeline, field, value))
        assert cli_main(["--out", str(tmp_path), "run", "--config", cfg]) == 2, value
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err, value

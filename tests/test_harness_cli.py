import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sectorsum
from sectorsum import CertificateReport, generate, report_diff, run_experiment
from sectorsum.cli import main as cli_main
from sectorsum.errors import ConfigInvalid, IncompatibleReports, InvalidRecipe
from sectorsum.harness import laplacian_eigenvalues, run_config, validate_config
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


def test_run_sum_honours_zero_angle(tmp_path):
    # theta_a = 0 certifies A at angle 0, so the pair's angle sum falls
    # below pi instead of A silently taking its recipe's default angle
    cfg = _write_config(tmp_path / "cfg.json", {
        "pipeline": "sum", "theta_a": 0.0,
        "recipe_a": {"kind": "diag-positive", "entries": [1.0, 2.0]},
        "recipe_b": {"kind": "diag-positive", "entries": [3.0, 4.0]}})
    with pytest.raises(ValueError, match="theta_A"):
        run_experiment(cfg, str(tmp_path))


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


def test_sectorsum_threads_caps_blas_on_import():
    # numpy's OpenBLAS reports its pool size through this symbol
    probe = (
        "import ctypes, sectorsum\n"
        "with open('/proc/self/maps') as fh:\n"
        "    libs = sorted({ln.split()[-1] for ln in fh if 'openblas' in ln.lower() and '/' in ln})\n"
        "fns = [getattr(ctypes.CDLL(p), 'scipy_openblas_get_num_threads64_', None) for p in libs]\n"
        "fns = [f for f in fns if f is not None]\n"
        "for f in fns:\n"
        "    f.restype, f.argtypes = ctypes.c_int, []\n"
        "print(fns[0]() if fns else -1)\n"
    )
    src = os.path.dirname(os.path.dirname(sectorsum.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["SECTORSUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    threads = int(proc.stdout)
    if threads < 0:
        pytest.skip("numpy's OpenBLAS exposes no thread-count symbol")
    assert threads == 1

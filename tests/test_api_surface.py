"""The public surface, pinned: the parameter names of every callable that
sectorsum exports and of every dataclass's __init__.  A new or removed
option shows up here as a one-line diff; update the table together with
CHANGES.md."""

import dataclasses
import importlib
import inspect
import pkgutil

import sectorsum

# sectorsum.<name>: its parameters (a class: its __init__'s, without self)
EXPORTED = {
    "BipFit": ("M", "phi", "t_grid", "norms"),
    "CertificateReport": ("operation", "inputs", "tolerances", "node_counts", "outputs", "passed",
                          "grids", "envelope"),
    "ClosednessCertificate": ("C_AB", "probe_count", "residual_K", "theta_grid", "theta_values",
                              "seed", "contour"),
    "CommutingPair": ("A", "B"),
    "ContourSpec": ("rho", "theta", "R", "n_arc", "c", "h", "u_lo", "u_hi"),
    "GridFunction": ("grid", "values"),
    "HolomorphicSymbol": ("name", "evaluator", "theta", "decay", "c", "eta"),
    "ImaginaryPowerFamily": ("A", "t_max"),
    "MatrixOperator": ("matrix", "certified", "_norm", "_inv_norm", "_basis", "_basis_known",
                       "_schur"),
    "MaxRegReport": ("constant_fprime", "constant_Af", "p", "tau", "N_t", "probe_labels",
                     "per_probe_fprime", "per_probe_Af", "seed"),
    "MultiplierFamily": ("kind",),
    "SectorSampling": ("n_boundary", "n_angles", "r_min", "r_max", "interior_density"),
    "SectorSpec": ("theta", "K"),
    "TSectorReport": ("C_hat", "witness", "phi", "r", "p", "n_terms", "N_t", "family_kind", "lhs",
                      "denominator"),
    "TimeGrid": ("tau", "N_t", "p", "periodic"),
    "bip_fit": ("A", "t_max", "n_t"),
    "bip_tsector_bound_assembly": ("A", "theta", "r", "xs", "p", "N_t", "bip"),
    "build_nodes": ("spec",),
    "builtin_symbols": ("theta",),
    "certify_sector": ("A", "theta", "sampling", "attach"),
    "closedness_certificate": ("pair", "probes", "theta_grid"),
    "complex_power": ("A", "z", "spec", "tol", "with_info"),
    "decay_probe": ("A", "phi", "eta", "theta_prime", "y"),
    "deriv_resolvent": ("lam", "g"),
    "deriv_resolvent_bound_check": ("lam", "grid", "slack_per_dt"),
    "discrete_hilbert": ("f",),
    "dunford": ("spec", "integrand", "decay_exponent", "tol_tail"),
    "eadic_middle_eval": ("pair", "theta", "phi", "t", "n", "theta_contour"),
    "extend_operator_to_lp": ("A", "grid"),
    "extended_sector_check": ("A", "spec", "sampling", "n_disk"),
    "fractional_power": ("A", "s", "tol"),
    "generate": ("kind", "certify_angle", "seed", "params"),
    "hinf_apply": ("f", "A", "spec", "tol", "check_class", "with_info"),
    "hinf_constant": ("A", "family"),
    "imaginary_power": ("A", "t"),
    "laplacian_eigenvalues": ("m",),
    "lhs_norm": ("A", "phi", "r", "xs", "p", "N_t"),
    "matrix_exp": ("M",),
    "maxreg_constant": ("A", "grid", "probes", "adversarial"),
    "operator_norm": ("M",),
    "p_independence_probe": ("A", "tau", "N_t", "p_values"),
    "parseval_tsector_check": ("A", "phi", "r", "xs", "N_t"),
    "pv_integral": ("kernel", "cutoff", "n_nodes"),
    "read_matrix": ("path",),
    "report_diff": ("a", "b", "tol"),
    "resolvent_apply": ("A", "z", "x"),
    "resolvent_commute_check": ("A", "B", "lam", "mu"),
    "resolvent_rep_real": ("A", "rho", "x", "bip", "tol_tail"),
    "resolvent_rep_rotated": ("A", "rho", "theta", "x", "bip", "tol_tail"),
    "run_experiment": ("config_path", "out_dir"),
    "solve_cauchy": ("A", "g"),
    "solve_shifted": ("M", "z", "rhs"),
    "split_integral_eval": ("pair", "theta", "phi", "t", "n", "variant", "tol"),
    "sum_inverse": ("pair", "spec", "tol"),
    "symbol_class_check": ("f",),
    "weighted_identity_left": ("pair", "w", "spec", "tol"),
    "weighted_identity_right": ("pair", "w", "spec", "tol"),
    "witness_search": ("A", "phi", "r", "xs", "p", "family", "N_t"),
    "write_matrix": ("path", "M"),
    "young_bound": ("lam", "tau"),
}

# <module>.<class> for every dataclass defined in sectorsum
DATACLASSES = {
    "calculus.BipFit": ("M", "phi", "t_grid", "norms"),
    "calculus.HolomorphicSymbol": ("name", "evaluator", "theta", "decay", "c", "eta"),
    "contour.ContourSpec": ("rho", "theta", "R", "n_arc", "c", "h", "u_lo", "u_hi"),
    "contour.DunfordResult": ("value", "tail_estimate", "n_nodes"),
    "maxreg.GridFunction": ("grid", "values"),
    "maxreg.MaxRegReport": ("constant_fprime", "constant_Af", "p", "tau", "N_t", "probe_labels",
                            "per_probe_fprime", "per_probe_Af", "seed"),
    "maxreg.TimeGrid": ("tau", "N_t", "p", "periodic"),
    "reports.CertificateReport": ("operation", "inputs", "tolerances", "node_counts", "outputs",
                                  "passed", "grids", "envelope"),
    "sector.ExtensionCheck": ("passed", "bound", "worst_value", "worst_margin", "worst_z",
                              "n_samples"),
    "sector.MatrixOperator": ("matrix", "certified", "_norm", "_inv_norm", "_basis",
                              "_basis_known", "_schur"),
    "sector.SectorSampling": ("n_boundary", "n_angles", "r_min", "r_max", "interior_density"),
    "sector.SectorSpec": ("theta", "K"),
    "sums.ClosednessCertificate": ("C_AB", "probe_count", "residual_K", "theta_grid",
                                   "theta_values", "seed", "contour"),
    "sums.CommutingPair": ("A", "B"),
    "tsector.MultiplierFamily": ("kind",),
    "tsector.TSectorReport": ("C_hat", "witness", "phi", "r", "p", "n_terms", "N_t",
                              "family_kind", "lhs", "denominator"),
}


def _params(obj) -> tuple[str, ...]:
    return tuple(inspect.signature(obj).parameters)


def test_exported_callables_take_the_pinned_parameters():
    exported = {name: _params(obj) for name, obj in vars(sectorsum).items()
                if not name.startswith("_") and not inspect.ismodule(obj) and callable(obj)}
    assert exported == EXPORTED


def test_dataclasses_take_the_pinned_fields():
    found = {}
    for info in pkgutil.iter_modules(sectorsum.__path__):
        mod = importlib.import_module(f"sectorsum.{info.name}")
        for name, obj in vars(mod).items():
            if (inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == mod.__name__):
                found[f"{info.name}.{name}"] = _params(obj)
    assert found == DATACLASSES

"""sectorsum: numerical calculus for sectorial matrix operators.

Contour-quadrature powers and H-infinity calculus, sector certification,
inverses of commuting operator sums with their weighted contour
identities, trigonometric-polynomial sectoriality tests, and
maximal-regularity constants for the abstract parabolic problem.

``import sectorsum`` loads none of its modules, and not numpy: each
public name, and each submodule such as ``sectorsum.maxreg``, is
imported on first access, so a process pays only for the modules it
uses.

SECTORSUM_THREADS, set before ``import sectorsum``, caps the BLAS thread
pools, provided numpy was not imported before: numpy then loads with the
first public name used, after the caps are in place.
"""

import os as _os

if _os.environ.get("SECTORSUM_THREADS"):  # OpenBLAS sizes its pools as numpy loads
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["SECTORSUM_THREADS"])

import importlib as _importlib

__version__ = "0.1.0"

# the module that defines each public name
_EXPORTS = {
    "contour": ("ContourSpec", "build_nodes", "dunford", "pv_integral"),
    "calculus": ("BipFit", "HolomorphicSymbol", "ImaginaryPowerFamily", "bip_fit",
                 "builtin_symbols", "complex_power", "fractional_power", "hinf_apply",
                 "hinf_constant", "imaginary_power", "symbol_class_check"),
    "linops": ("matrix_exp", "operator_norm", "read_matrix", "solve_shifted", "write_matrix"),
    "maxreg": ("GridFunction", "MaxRegReport", "TimeGrid", "deriv_resolvent",
               "deriv_resolvent_bound_check", "extend_operator_to_lp", "maxreg_constant",
               "p_independence_probe", "solve_cauchy", "young_bound"),
    "reports": ("CertificateReport", "report_diff"),
    "sector": ("MatrixOperator", "SectorSampling", "SectorSpec", "certify_sector",
               "decay_probe", "extended_sector_check", "resolvent_apply"),
    "sums": ("ClosednessCertificate", "CommutingPair", "closedness_certificate",
             "eadic_middle_eval", "resolvent_commute_check", "split_integral_eval",
             "sum_inverse", "weighted_identity_left", "weighted_identity_right"),
    "tsector": ("MultiplierFamily", "TSectorReport", "bip_tsector_bound_assembly",
                "discrete_hilbert", "lhs_norm", "parseval_tsector_check",
                "resolvent_rep_real", "resolvent_rep_rotated", "witness_search"),
    "harness": ("generate", "laplacian_eigenvalues", "run_experiment"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "errors"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import the module behind a public name, or a submodule, on first
    access (PEP 562) and bind the name here, so later accesses are plain
    lookups."""
    if name in _MODULE_OF:
        value = getattr(_importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})

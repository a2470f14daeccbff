"""sectorsum: numerical calculus for sectorial matrix operators.

Contour-quadrature powers and H-infinity calculus, sector certification,
inverses of commuting operator sums with their weighted contour
identities, trigonometric-polynomial sectoriality tests, and
maximal-regularity constants for the abstract parabolic problem.

SECTORSUM_THREADS caps the BLAS thread pools when set before numpy loads.
"""

import os as _os

if _os.environ.get("SECTORSUM_THREADS"):  # OpenBLAS sizes its pools as numpy loads
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["SECTORSUM_THREADS"])

from .contour import ContourSpec, build_nodes, dunford, pv_integral
from .calculus import (
    BipFit,
    HolomorphicSymbol,
    ImaginaryPowerFamily,
    bip_fit,
    builtin_symbols,
    complex_power,
    fractional_power,
    hinf_apply,
    hinf_constant,
    imaginary_power,
    symbol_class_check,
)
from .linops import matrix_exp, operator_norm, read_matrix, solve_shifted, write_matrix
from .maxreg import (
    GridFunction,
    MaxRegReport,
    TimeGrid,
    deriv_resolvent,
    deriv_resolvent_bound_check,
    extend_operator_to_lp,
    maxreg_constant,
    p_independence_probe,
    solve_cauchy,
    young_bound,
)
from .reports import CertificateReport, report_diff
from .sector import (
    MatrixOperator,
    SectorSampling,
    SectorSpec,
    certify_sector,
    decay_probe,
    extended_sector_check,
    resolvent_apply,
)
from .sums import (
    ClosednessCertificate,
    CommutingPair,
    closedness_certificate,
    eadic_middle_eval,
    resolvent_commute_check,
    split_integral_eval,
    sum_inverse,
    weighted_identity_left,
    weighted_identity_right,
)
from .tsector import (
    MultiplierFamily,
    TSectorReport,
    bip_tsector_bound_assembly,
    discrete_hilbert,
    lhs_norm,
    parseval_tsector_check,
    resolvent_rep_real,
    resolvent_rep_rotated,
    witness_search,
)
from .harness import generate, laplacian_eigenvalues, run_experiment

__version__ = "0.1.0"

"""Command-line interface.

Each direct subcommand turns its flags into an experiment config with
``out_prefix`` the subcommand name and ``seed`` 0, and runs it like
``run --config``.  Exit codes: 0 all checks passed, 1 a numerical check
failed, 2 configuration or usage error.
"""

import argparse
import json
import math
import sys

from .errors import (ConfigInvalid, IncompatibleReports, InvalidRecipe, ReportInvalid,
                     SectorsumError)
from .reports import CertificateReport, report_diff

# the other direct subcommands run the pipeline of their own name
PIPELINE_OF = {"certify-sector": "certify", "sum-inverse": "sum"}
# subcommands that print the whole report; the others print its outputs
FULL_REPORT = {"certify-sector", "sum-inverse"}
SAMPLING_FLAGS = {"rays": "n_boundary", "arc": "n_angles", "rmin": "r_min", "rmax": "r_max"}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectorsum",
        description="Sectorial-operator calculus: certification, contour powers, "
        "operator-sum inverses, and maximal-regularity constants.",
    )
    parser.add_argument("--out", default=".", help="output directory for reports")
    sub = parser.add_subparsers(dest="command", required=True)
    matrix = argparse.ArgumentParser(add_help=False)
    matrix.add_argument("--matrix", required=True)

    p = sub.add_parser("certify-sector", parents=[matrix], help="sample the sector bound")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--rays", type=int)
    p.add_argument("--arc", type=int)
    p.add_argument("--rmin", type=float)
    p.add_argument("--rmax", type=float)

    p = sub.add_parser("power", parents=[matrix], help="complex power by contour quadrature")
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float)
    p.add_argument("--theta", type=float, help="certification angle for the operator")

    p = sub.add_parser("hinf", parents=[matrix], help="apply a builtin symbol to -A")
    p.add_argument("--symbol", required=True)
    p.add_argument("--theta", type=float)

    p = sub.add_parser("sum-inverse", help="inverse of a commuting sum")
    p.add_argument("--matrix-a", required=True)
    p.add_argument("--matrix-b", required=True)
    p.add_argument("--theta-a", type=float, required=True)
    p.add_argument("--theta-b", type=float, required=True)
    p.add_argument("--check-identities", nargs=2, type=float, metavar=("W_RE", "W_IM"))
    p.add_argument("--certify", action="store_true")

    p = sub.add_parser("t-sector", parents=[matrix], help="witness search for the majorant bound")
    p.add_argument("--phi", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--family")
    p.add_argument("--theta", type=float)

    p = sub.add_parser("rep-check", parents=[matrix], help="principal-value resolvent formulas")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--theta", type=float)

    p = sub.add_parser("maxreg", parents=[matrix], help="maximal-regularity constants")
    p.add_argument("--tau", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--nt", type=int)
    p.add_argument("--sweep-p", action="store_true")
    p.add_argument("--refine", action="store_true")

    p = sub.add_parser("run", help="run a JSON experiment config")
    p.add_argument("--config", required=True)

    p = sub.add_parser("report-diff", help="numeric diff of two reports")
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.add_argument("--tol", type=float, default=0.0)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "report-diff":
            if not 0.0 <= args.tol < math.inf:
                raise ConfigInvalid(f"--tol must be finite and not negative, got {args.tol}")
            doc = report_diff(CertificateReport.load(args.report_a),
                              CertificateReport.load(args.report_b), tol=args.tol)
            print(json.dumps(doc, indent=2))
            return 0 if doc["all_within_tol"] else 1
        # only the subcommands that run a pipeline load the harness
        from .harness import run_config, run_experiment

        if args.command == "run":
            paths, ok = run_experiment(args.config, args.out)
            print(json.dumps({"written": paths, "passed": ok}, indent=2))
            return 0 if ok else _failed(paths[0])
        flags = {k: v for k, v in vars(args).items()
                 if k not in ("command", "out") and v is not None}
        sampling = {SAMPLING_FLAGS[k]: flags.pop(k) for k in list(flags) if k in SAMPLING_FLAGS}
        if sampling:
            flags["sampling"] = sampling
        cfg = {"schema_version": 1, "pipeline": PIPELINE_OF.get(args.command, args.command),
               "seed": 0, "out_prefix": args.command, **flags}
        _, report = run_config(cfg, args.out)
    except (ConfigInvalid, InvalidRecipe, IncompatibleReports, ReportInvalid) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SectorsumError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    print(report.to_json() if args.command in FULL_REPORT
          else json.dumps(report.outputs, indent=2))
    return 0 if report.passed else _failed(report.operation)


def _failed(what: str) -> int:
    """Exit code 1 for a report that did not pass, named on stderr."""
    print(f"check failed: {what} did not pass", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

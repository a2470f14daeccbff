"""Persisted certification records.

A report separates its reproducible payload (operation name, inputs
digest, tolerances, node counts, outputs, pass flag, optional grids)
from a volatile envelope (timestamps).  The digest and the equality
relation cover only the payload, so identical runs produce
byte-identical payload JSON regardless of when they ran.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import IncompatibleReports


def _canonical(obj):
    """JSON-stable form: floats via repr-faithful %.17g, arrays to lists."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(format(float(obj), ".17g"))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return {"re": _canonical(float(np.real(obj))), "im": _canonical(float(np.imag(obj)))}
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def digest(obj) -> str:
    payload = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class CertificateReport:
    operation: str
    inputs: dict
    tolerances: dict
    node_counts: dict
    outputs: dict
    passed: bool
    grids: dict = field(default_factory=dict)
    envelope: dict = field(default_factory=dict)

    def __post_init__(self):
        self.inputs = _canonical(self.inputs)
        self.tolerances = _canonical(self.tolerances)
        self.node_counts = _canonical(self.node_counts)
        self.outputs = _canonical(self.outputs)
        self.grids = _canonical(self.grids)
        if "timestamp" not in self.envelope:
            self.envelope["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    @property
    def inputs_digest(self) -> str:
        return digest(self.inputs)

    @property
    def run_id(self) -> str:
        return digest(self.payload())[:16]

    def payload(self) -> dict:
        return {
            "operation": self.operation,
            "inputs": self.inputs,
            "inputs_digest": self.inputs_digest,
            "tolerances": self.tolerances,
            "node_counts": self.node_counts,
            "outputs": self.outputs,
            "passed": self.passed,
            "grids": self.grids,
        }

    def to_json(self) -> str:
        doc = self.payload()
        doc["run_id"] = self.run_id
        doc["envelope"] = self.envelope
        return json.dumps(doc, sort_keys=True, indent=2)

    def payload_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "CertificateReport":
        doc = json.loads(text)
        return cls(
            operation=doc["operation"],
            inputs=doc["inputs"],
            tolerances=doc["tolerances"],
            node_counts=doc["node_counts"],
            outputs=doc["outputs"],
            passed=doc["passed"],
            grids=doc.get("grids", {}),
            envelope=doc.get("envelope", {}),
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "CertificateReport":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def equivalent(self, other: "CertificateReport") -> bool:
        return self.payload() == other.payload()


def _walk_numeric(prefix, a, b, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            _walk_numeric(f"{prefix}.{k}" if prefix else str(k), a.get(k), b.get(k), out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _walk_numeric(f"{prefix}[{i}]", x, y, out)
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        out[prefix] = {"a": a, "b": b, "abs_diff": abs(a - b)}
    elif a != b and (za := _complex_literal(a)) is not None \
            and (zb := _complex_literal(b)) is not None:
        out[prefix] = {"a": a, "b": b, "abs_diff": abs(za - zb)}
    else:
        if a != b:
            out[prefix] = {"a": a, "b": b, "abs_diff": None}


def _complex_literal(v):
    """complex(v) for a string that parses as a Python complex literal
    (the "(a+bj)" entries of a power report's matrix), else None."""
    if not isinstance(v, str):
        return None
    try:
        return complex(v)
    except ValueError:
        return None


def report_diff(a: CertificateReport, b: CertificateReport, tol: float = 0.0) -> dict:
    """Field-wise numeric diff of two reports of the same operation.

    Returns per-field absolute differences with a verdict at the given
    tolerance.  Two strings that both parse as Python complex literals
    compare as numbers, |a - b|; other non-numeric mismatches get a null
    diff and always fail.
    """
    if a.operation != b.operation:
        raise IncompatibleReports(
            f"cannot diff {a.operation!r} against {b.operation!r}"
        )
    fields: dict = {}
    _walk_numeric("outputs", a.outputs, b.outputs, fields)
    _walk_numeric("node_counts", a.node_counts, b.node_counts, fields)
    for rec in fields.values():
        rec["within_tol"] = rec["abs_diff"] is not None and rec["abs_diff"] <= tol
    worst = max((r["abs_diff"] for r in fields.values() if r["abs_diff"] is not None),
                default=0.0)
    return {
        "operation": a.operation,
        "tol": tol,
        "fields": fields,
        "max_abs_diff": worst,
        "all_within_tol": all(r["within_tol"] for r in fields.values()) if fields else True,
    }

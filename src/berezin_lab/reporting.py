"""Verification-report serialization.

Reports carry a fixed top-level field set (command, inputs, expected,
observed, stderr, z_score, verdict, duration, seed, version, then samples
when set).  ``expected`` is either a target value, when a z-score
criterion applies, or a two-sided interval [lo, hi] with None for an open
side.  JSON key order is fixed and CSV is the flat projection of the same
fields, so equal seeds reproduce reports byte for byte apart from
``duration``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from math import isinf
from typing import Any

import numpy as np

from . import __version__

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

FORMATS = ("json", "csv")


@dataclass
class VerificationReport:
    """One verification outcome; ``verdict`` is pass, fail or inconclusive."""

    command: str
    inputs: dict[str, Any]
    expected: Any
    observed: Any
    seed: int
    stderr: float | None = None
    z_score: float | None = None
    verdict: str | None = None
    duration: float | None = None
    version: str = __version__
    samples: Any = None  # the drawn samples themselves, when a command emits them

    def to_dict(self) -> dict[str, Any]:
        out = {
            "command": self.command,
            "inputs": jsonable(self.inputs),
            "expected": jsonable(self.expected),
            "observed": jsonable(self.observed),
            "stderr": jsonable(self.stderr),
            "z_score": jsonable(self.z_score),
            "verdict": self.verdict,
            "duration": None if self.duration is None else round(float(self.duration), 6),
            "seed": int(self.seed),
            "version": self.version,
        }
        if out["duration"] is None:
            del out["duration"]
        if self.samples is not None:
            out["samples"] = jsonable(self.samples)
        return out


def jsonable(value: Any) -> Any:
    """Recursively coerce numpy scalars/arrays and non-finite floats.

    Plain str, int, bool, None and float, which make up most report rows,
    are dispatched on their exact type before the isinstance chain that
    numpy types and subclasses of the builtins go through.
    """
    kind = type(value)
    if kind is str or kind is int or kind is bool or value is None:
        return value
    if kind is float:
        return _json_float(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        return _json_float(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    return value


def _json_float(value: float) -> float | str:
    """A finite float as is; NaN and the infinities by name, which JSON lacks."""
    if value != value:
        return "nan"
    if isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def in_interval(value: float, interval) -> bool:
    """Membership of value in [lo, hi], None meaning unbounded; NaN lies in no interval."""
    if np.isnan(value):
        return False
    lo, hi = interval
    if lo is not None and value < lo:
        return False
    if hi is not None and value > hi:
        return False
    return True


def render_report(report: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2) + "\n"
    return render_table([report.to_dict()])


def render_table(rows: list[dict[str, Any]], fmt: str = "csv") -> str:
    """Rows as CSV with a header, or as a JSON array when asked."""
    if fmt == "json":
        return json.dumps([jsonable(r) for r in rows], indent=2) + "\n"
    buf = io.StringIO()
    if not rows:
        return ""
    header = list(rows[0].keys())
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(jsonable(row.get(k))) for k in header])
    return buf.getvalue()


def _cell(value: Any) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"))
    if value is None:
        return ""
    return str(value)

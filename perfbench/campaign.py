"""Running checks in-process through ``berezin_lab.cli.main`` and judging them.

A pass runs every check of a workload once.  Only the time spent inside
``main(argv)`` counts towards the pass; parsing and judging the captured
output happen outside the timed region.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

from workloads import Check

REL_TOL_EXPECTED = 1e-9
MC_TARGET_REL_ERR = 1e-3


@dataclass
class Tally:
    """Checks attempted and failed over a run, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, argv: list[str], failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{' '.join(argv)}: {failure}")

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def call_cli(main, argv: list[str]) -> tuple[int | Exception, str, float]:
    """Run ``main(argv)`` with stdout and stderr captured.

    Returns the exit code (or the exception the call raised), the captured
    stdout and the wall time of the call.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a raising check is a failed check; the campaign goes on
        code = exc
    return code, out.getvalue(), perf_counter() - t0


def parse_output(argv: list[str], text: str):
    """The document a check printed: CSV rows, or the JSON value."""
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    return json.loads(text)


def judge(check: Check, argv: list[str], code, text: str, reference: float | None):
    """Return (failure message or None, parsed document or None)."""
    if isinstance(code, Exception):
        return f"raised {type(code).__name__}: {code}", None
    if code != check.exit_code:
        return f"exit code {code}, expected {check.exit_code}", None
    try:
        doc = parse_output(argv, text)
    except (ValueError, csv.Error) as exc:
        return f"output does not parse: {exc}", None
    if check.verdict is not None:
        if not isinstance(doc, dict) or doc.get("verdict") != check.verdict:
            got = doc.get("verdict") if isinstance(doc, dict) else type(doc).__name__
            return f"verdict {got!r}, expected {check.verdict!r}", doc
        rows = doc.get("samples")
    else:
        if not isinstance(doc, list):
            return f"expected a table, got {type(doc).__name__}", doc
        rows = doc
    if check.rows is not None and (rows is None or len(rows) != check.rows):
        return f"{'no' if rows is None else len(rows)} rows, expected {check.rows}", doc
    if check.min_rows and (rows is None or len(rows) < check.min_rows):
        return f"fewer than {check.min_rows} rows", doc
    if check.is_mc:
        return _judge_mc(doc, reference), doc
    return None, doc


def _judge_mc(doc: dict, reference: float) -> str | None:
    stderr, expected = doc.get("stderr"), doc.get("expected")
    if not _is_number(stderr) or not math.isfinite(stderr) or stderr <= 0:
        return f"stderr {stderr!r} is not a positive finite number"
    if not _is_number(expected) or abs(expected - reference) > REL_TOL_EXPECTED * abs(reference):
        return f"expected {expected!r} differs from the closed form {reference!r}"
    return None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def mc_time_to_target(seconds: float, doc: dict | None) -> float:
    """Time to reach relative standard error 1e-3 at this check's rate.

    A check's error shrinks as 1/sqrt(time), so the time to a target error
    is its duration times (its relative error / target) squared.  Zero for
    checks without a numeric verdict (inconclusive probes, tables).
    """
    if not doc or doc.get("verdict") not in ("pass", "fail"):
        return 0.0
    stderr, expected = doc.get("stderr"), doc.get("expected")
    if not (_is_number(stderr) and _is_number(expected)) or expected == 0:
        return 0.0
    return seconds * (stderr / abs(expected) / MC_TARGET_REL_ERR) ** 2


def run_pass(main, instances, references, tally: Tally, tracer=None) -> tuple[list[float], float]:
    """Run every check once; return (seconds per check, Monte Carlo time to 1e-3).

    With a tracer, each check's spans are tagged with the check's index.
    """
    times = []
    mc_time = 0.0
    for index, ((argv, check), reference) in enumerate(zip(instances, references)):
        if tracer is not None:
            tracer.request = index
        code, text, seconds = call_cli(main, argv)
        times.append(seconds)
        failure, doc = judge(check, argv, code, text, reference)
        tally.record(argv, failure)
        if check.is_mc and failure is None:
            mc_time += mc_time_to_target(seconds, doc)
    return times, mc_time

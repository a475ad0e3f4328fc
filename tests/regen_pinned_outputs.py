"""Regenerate tests/data/pinned_outputs.json: the CLI's stdout for a fixed set of argvs.

Each report is pinned as its list of lines, without the ``duration``
line of a JSON report or the ``duration`` column of a CSV report, so a
diff of the file shows the lines a change moved.  The file
also records the Python and numpy versions that printed it, and
tests/test_pinned_outputs.py compares the CLI's output with it byte for
byte.  Run from the repository root after a change that moves a pinned
number on purpose, and list each moved entry in CHANGES.md:

    PYTHONPATH=src python tests/regen_pinned_outputs.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import pathlib
import platform

import numpy as np

from berezin_lab.cli import main

PINS = pathlib.Path(__file__).resolve().parent / "data" / "pinned_outputs.json"

PINNED_ARGVS = [
    ["integral", "so", "--n", "3", "--lambda", "1,0.5,0", "--samples", "20000", "--seed", "7"],
    ["integral", "so", "--n", "8", "--lambda", "1,0.5,0,0,0,0,0,0", "--samples", "20000",
     "--seed", "7"],
    ["integral", "so", "--n", "3", "--lambda", "-0.8,0.3,0", "--samples", "20000", "--seed", "7"],
    ["boundary", "probe", "--p", "2", "--q", "4", "--r", "1", "--alpha", "1.0",
     "--samples", "20000", "--seed", "7"],
    ["boundary", "probe", "--p", "3", "--q", "6", "--r", "1", "--alpha", "1.0",
     "--samples", "20000", "--seed", "7"],
    ["plancherel", "rank1", "--q", "3", "--alpha", "2"],
    ["plancherel", "rank1", "--q", "20", "--alpha", "12"],
    ["integral", "u", "--n", "3", "--lambda", "1,0.5,0", "--mu", "0.5,0,0",
     "--samples", "20000", "--seed", "7"],
    ["integral", "u", "--n", "1", "--lambda", "-0.8", "--mu", "0.8",
     "--samples", "20000", "--seed", "6"],
    # Sp, a larger SO, a one-sided U at infinite variance and a probe above 2 alpha
    ["integral", "sp", "--n", "3", "--lambda", "1,0.5,0", "--samples", "20000", "--seed", "7"],
    ["integral", "sp", "--n", "8", "--lambda", "1,0.5,0,0,0,0,0,0", "--samples", "20000",
     "--seed", "7"],
    ["integral", "so", "--n", "12", "--lambda", "1,0.5,0,0,0,0,0,0,0,0,0,0", "--samples",
     "20000", "--seed", "7"],
    ["integral", "u", "--n", "1", "--lambda", "-0.8", "--mu", "0", "--samples", "20000",
     "--seed", "6"],
    ["boundary", "probe", "--p", "2", "--q", "4", "--r", "1", "--alpha", "1.8",
     "--samples", "20000", "--seed", "4"],
    # reports and tables that are mostly rendering: samples, blocks, rows
    ["haar", "so", "--n", "4", "--samples", "20", "--seed", "7"],
    ["haar", "u", "--n", "2", "--samples", "3", "--seed", "7"],
    ["haar", "sp", "--n", "3", "--samples", "5", "--seed", "7", "--format", "csv"],
    ["plancherel", "degeneration", "--p", "3", "--q", "7", "--alpha", "-2"],
    ["plancherel", "blocks", "--p", "2", "--q", "5", "--alpha", "0.4"],
    ["plancherel", "blocks", "--p", "3", "--q", "9", "--alpha", "-1.5", "--format", "csv"],
    ["plancherel", "weight", "--p", "5", "--q", "12", "--alpha", "3", "--samples", "20"],
    ["plancherel", "weight", "--p", "5", "--q", "12", "--alpha", "3", "--samples", "20",
     "--format", "csv"],
    ["catalog"],
    ["catalog", "--format", "csv"],
    ["ledger"],
    ["kernel", "gram", "--p", "2", "--q", "3", "--alpha", "1.5", "--seed", "7"],
    ["kernel", "covariance", "--p", "2", "--q", "3", "--alpha", "1.5", "--seed", "7"],
    ["kernel", "domination", "--p", "2", "--q", "3", "--alpha", "1.5", "--seed", "7"],
    ["kernel", "witness", "--p", "2", "--q", "3", "--alpha", "0.5", "--seed", "7"],
    # the geometry_io workload's kernel checks, the remaining CI kernel lines
    # and the README's witness example
    ["kernel", "gram", "--p", "2", "--q", "3", "--alpha", "1.5", "--samples", "500",
     "--seed", "1"],
    ["kernel", "witness", "--p", "2", "--q", "3", "--alpha", "1.5", "--seed", "1"],
    ["kernel", "domination", "--p", "2", "--q", "3", "--alpha", "1.5", "--samples", "1000",
     "--seed", "1"],
    ["kernel", "gram", "--p", "3", "--q", "5", "--alpha", "2", "--seed", "7"],
    ["kernel", "gram", "--p", "2", "--q", "3", "--alpha", "0.5", "--seed", "7"],
    ["kernel", "witness", "--p", "2", "--q", "3", "--alpha", "1.5", "--seed", "7"],
    ["kernel", "witness", "--p", "2", "--q", "5", "--alpha", "0.5", "--seed", "7"],
    ["kernel", "witness", "--p", "2", "--q", "3", "--alpha", "0.5", "--seed", "1"],
    # CSV reports, whose structured cells are compact JSON
    ["kernel", "covariance", "--p", "2", "--q", "3", "--alpha", "1.5", "--seed", "7",
     "--format", "csv"],
    ["integral", "so", "--n", "3", "--lambda", "1,0.5,0", "--samples", "20000", "--seed", "7",
     "--format", "csv"],
    ["plancherel", "degeneration", "--p", "3", "--q", "7", "--alpha", "-2", "--format", "csv"],
    # the spectral workload's remaining plancherel argvs
    ["plancherel", "degeneration", "--p", "4", "--q", "12", "--alpha", "-3"],
    ["plancherel", "weight", "--p", "5", "--q", "12", "--alpha", "3", "--samples", "2000"],
    # a weight past the float range, kept as +inf, and two exact zeros
    ["plancherel", "weight", "--p", "20", "--q", "20", "--alpha", "400", "--samples", "3",
     "--format", "csv"],
    # the spectral workload's half-integer degeneration, and two q = p degenerations that fail
    ["plancherel", "degeneration", "--p", "4", "--q", "12", "--alpha", "-2.5"],
    ["plancherel", "degeneration", "--p", "3", "--q", "3", "--alpha", "-4"],
    ["plancherel", "degeneration", "--p", "2", "--q", "2", "--alpha", "-2"],
    # real and complex sample tables as CSV
    ["haar", "so", "--n", "3", "--samples", "4", "--seed", "7", "--format", "csv"],
    ["haar", "u", "--n", "2", "--samples", "3", "--seed", "7", "--format", "csv"],
    # the README and CI lines that run at the default seed
    ["haar", "so", "--n", "2", "--seed", "1729"],
    ["boundary", "probe", "--p", "2", "--q", "4", "--r", "1", "--alpha", "1.0",
     "--seed", "1729"],
    # kernel checks on 1 x q points
    ["kernel", "gram", "--p", "1", "--q", "3", "--alpha", "1.5", "--seed", "7"],
    ["kernel", "covariance", "--p", "1", "--q", "3", "--alpha", "1.5", "--seed", "7"],
    # the README's integral examples, the remaining seeded CI integral lines and a
    # refused --tol name, which exits 3 with nothing on stdout
    ["integral", "so", "--n", "3", "--lambda", "1,0.5,0", "--samples", "200000", "--seed", "7"],
    ["integral", "so", "--n", "3", "--lambda", "-0.5,0.3,0", "--samples", "200000",
     "--seed", "7"],
    ["integral", "so", "--n", "3", "--lambda", "-0.5,0.3,0", "--samples", "2000", "--seed", "7"],
    ["integral", "so", "--n", "4", "--lambda", "0,0,0,0", "--samples", "2000", "--seed", "7"],
    ["integral", "sp", "--n", "1", "--lambda", "-2", "--samples", "20000", "--seed", "6"],
    ["plancherel", "blocks", "--p", "2", "--q", "5", "--alpha", "0.4", "--tol", "z=5"],
    # an SO vector with a nonzero last exponent, and a probe above its threshold
    # (nothing expected, so inconclusive)
    ["integral", "so", "--n", "3", "--lambda", "1.5,1,0.5", "--samples", "2000", "--seed", "7"],
    ["boundary", "probe", "--p", "2", "--q", "4", "--r", "1", "--alpha", "2.5",
     "--samples", "2000", "--seed", "7"],
]


def versions() -> dict[str, str]:
    """The versions whose arithmetic a pinned byte depends on."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def run(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout without the report's ``duration``) of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    if text.startswith("command,"):  # a CSV report: drop the duration column
        rows = list(csv.reader(io.StringIO(text)))
        at = rows[0].index("duration")
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(row[:at] + row[at + 1:] for row in rows)
        return code, buf.getvalue()
    lines = text.splitlines(keepends=True)
    return code, "".join(line for line in lines if not line.startswith('  "duration": '))


def regenerate() -> None:
    entries = []
    for argv in PINNED_ARGVS:
        code, stdout = run(argv)
        entries.append({"argv": " ".join(argv), "exit": code, "stdout": stdout.splitlines()})
    PINS.write_text(json.dumps({**versions(), "outputs": entries}, indent=1) + "\n",
                    encoding="utf-8")


if __name__ == "__main__":
    os.environ.pop("BEREZIN_SEED", None)  # plancherel rank1 reports the default seed
    regenerate()

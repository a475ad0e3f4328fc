"""Regenerate tests/data/pinned_outputs.json: what the CLI prints for a fixed set of argvs.

Each entry records an argv's exit code, its stdout and its stderr, each
output as its list of lines.  Stdout is pinned without the ``duration``
line of a JSON report or the ``duration`` column of a CSV report
(``mask_duration``), so a diff of the file shows the lines a change
moved.  The file also records the Python and numpy versions that printed
it.  ``mismatch`` is the one rule that judges a run against its pin:
tests/test_pinned_outputs.py applies it to ``cli.main`` in process, and
tests/replay_pins.py to the installed ``berezin-lab`` in a subprocess.
Run from the repository root after a change that moves a pinned output on
purpose, and list each moved entry in CHANGES.md:

    PYTHONPATH=src python tests/regen_pinned_outputs.py
"""

from __future__ import annotations

import contextlib
import csv
import difflib
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
    ["plancherel", "weight", "--p", "5", "--q", "12", "--alpha", "3", "--samples", "2000",
     "--format", "csv"],
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
    # a witness found past the first evaluation batch, and a budget that ends inside one
    ["kernel", "witness", "--p", "2", "--q", "3", "--alpha", "0.99", "--seed", "3"],
    ["kernel", "witness", "--p", "2", "--q", "3", "--alpha", "1.5", "--samples", "300",
     "--seed", "3"],
    # the remaining argvs of CI's entry-point step: a probe at the default seed, a tiny
    # table, the kernel checks at large |alpha| and a dash-led value in both spellings
    ["--version"],
    ["boundary", "probe", "--p", "2", "--q", "4", "--r", "1", "--alpha", "1.0",
     "--samples", "20000"],
    ["haar", "sp", "--n", "2", "--samples", "2", "--format", "csv"],
    ["kernel", "domination", "--p", "2", "--q", "3", "--alpha", "1000"],
    ["kernel", "gram", "--p", "2", "--q", "3", "--alpha", "1000", "--seed", "1"],
    ["kernel", "gram", "--p", "2", "--q", "3", "--alpha=-100000", "--seed", "1"],
    ["plancherel", "blocks", "--p", "2", "--q", "5", "--alpha", "-1e-1"],
    ["plancherel", "blocks", "--p", "2", "--q", "5", "--alpha=-1e-1"],
    # refusals: exit 3, nothing on stdout and the reason on stderr
    ["plancherel", "blocks", "--p", "2", "--q", "3", "--alpha", "nan"],
    ["plancherel", "blocks", "--p", "2", "--q", "5", "--alpha", "-inf"],
    ["kernel", "gram", "--p", "2", "--q", "3", "--alpha", "1", "--tol", "pd=inf"],
    ["integral", "so", "--n", "3", "--lambda", "1,0.5,0", "--samples", "2000", "--seed", "7",
     "--tol", "res=1e-30"],
    ["integral", "so", "--n", "3", "--lambda", "1,0.5,0", "--samples", "0"],
    ["kernel", "gram", "--p", "2", "--q", "3", "--alpha", "1.5", "--seed", "-1"],
    # the README example at 100,000 samples
    ["boundary", "probe", "--p", "2", "--q", "4", "--r", "1", "--alpha", "1.0",
     "--samples", "100000"],
    # open failures, pinned as they read today; each pin moves when its ROADMAP item lands:
    # no finite full-rank block, observed nan (items 2 and 20); no witness found where the
    # exact count has 20 negative directions (items 9, 23 and 24); a rank-1 residual of
    # 8.9e-2 and an oracle that does not converge by 1024 nodes (items 12 and 18); a probe
    # whose fourth moment is infinite, z = -3.14 (item 17)
    ["plancherel", "degeneration", "--p", "1", "--q", "1", "--alpha", "-1"],
    ["kernel", "witness", "--p", "3", "--q", "6", "--alpha", "1.5", "--seed", "3"],
    ["plancherel", "rank1", "--q", "30", "--alpha", "20"],
    ["plancherel", "rank1", "--q", "40", "--alpha", "30"],
    ["boundary", "probe", "--p", "1", "--q", "2", "--r", "0", "--alpha", "0.2",
     "--samples", "100"],
]


def versions() -> dict[str, str]:
    """The versions whose arithmetic a pinned byte depends on."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def same_versions(pins: dict) -> bool:
    """Whether this Python and numpy wrote ``pins``, so its bytes must match them exactly."""
    return all(pins[name] == value for name, value in versions().items())


def mask_duration(stdout: str) -> str:
    """``stdout`` without a report's ``duration``: the one field a rerun may change."""
    if stdout.startswith("command,"):  # a CSV report: drop the duration column
        rows = list(csv.reader(io.StringIO(stdout)))
        at = rows[0].index("duration")
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(row[:at] + row[at + 1:] for row in rows)
        return buf.getvalue()
    lines = stdout.splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith('  "duration": '))


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout without the report's ``duration``, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, mask_duration(out.getvalue()), err.getvalue()


def verdict(stdout: str) -> str | None:
    """The verdict of a JSON or CSV report; None for a table, which carries none."""
    if stdout.startswith("{"):
        return json.loads(stdout)["verdict"]
    if stdout.startswith("command,"):
        return next(csv.DictReader(io.StringIO(stdout)))["verdict"]
    return None


def lines(text: list[str]) -> str:
    """A pinned list of lines as the text that was printed."""
    return "".join(line + "\n" for line in text)


def mismatch(entry: dict, code: int, stdout: str, stderr: str, exact: bool) -> str:
    """How one run differs from its pin ``entry``, or "" when it matches.

    With ``exact`` (the run's Python and numpy are the pin file's) the
    exit code, stdout and stderr must match byte for byte.  Elsewhere the
    last digits may differ, so only the exit code and a report's verdict
    are compared.
    """
    if code != entry["exit"]:
        return f"exit code {code}, pinned {entry['exit']}"
    if not exact:
        now, then = verdict(stdout), verdict(lines(entry["stdout"]))
        return f"verdict {now}, pinned {then}" if now != then else ""
    diff = []
    for name, now in (("stdout", stdout), ("stderr", stderr)):
        diff += difflib.unified_diff(lines(entry[name]).splitlines(keepends=True),
                                     now.splitlines(keepends=True), f"pinned {name}", f"{name} now")
    return "".join(diff)


def regenerate() -> None:
    entries = []
    for argv in PINNED_ARGVS:
        code, stdout, stderr = run(argv)
        entries.append({"argv": " ".join(argv), "exit": code, "stdout": stdout.splitlines(),
                        "stderr": stderr.splitlines()})
    PINS.write_text(json.dumps({**versions(), "outputs": entries}, indent=1) + "\n",
                    encoding="utf-8")


if __name__ == "__main__":
    os.environ.pop("BEREZIN_SEED", None)  # plancherel rank1 reports the default seed
    regenerate()

"""What the CLI prints at fixed argvs against tests/data/pinned_outputs.json.

Each run is judged by ``regen_pinned_outputs.mismatch``, the rule that
tests/replay_pins.py also applies to the installed ``berezin-lab``.  On
the Python and numpy versions that wrote the pins the exit code, stdout
and stderr must match byte for byte; elsewhere the last digits may
differ, so only the exit code and a report's verdict are compared, and a
warning says so.  Every ``berezin-lab`` example in the README is a pin.
Regenerate with tests/regen_pinned_outputs.py.
"""

import csv
import io
import json
import pathlib
import re
import sys
import warnings

import pytest

import replay_pins
from regen_pinned_outputs import (PINNED_ARGVS, PINS, lines, mismatch, run, same_versions,
                                  versions)

_PINS = json.loads(PINS.read_text(encoding="utf-8"))
_SAME_VERSIONS = same_versions(_PINS)
_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_pinned_argv_has_one_pin():
    assert [entry["argv"].split() for entry in _PINS["outputs"]] == PINNED_ARGVS


@pytest.mark.parametrize("entry", _PINS["outputs"], ids=lambda entry: entry["argv"])
def test_cli_output_matches_its_pin(entry, monkeypatch):
    monkeypatch.delenv("BEREZIN_SEED", raising=False)
    if not _SAME_VERSIONS:
        warnings.warn(f"pins were written under {dict((k, _PINS[k]) for k in versions())}, "
                      f"this is {versions()}: comparing verdicts only")
    assert not mismatch(entry, *run(entry["argv"].split()), exact=_SAME_VERSIONS)


_CSV_REPORTS = [entry for entry in _PINS["outputs"]
                if lines(entry["stdout"]).startswith("command,")]


@pytest.mark.parametrize("entry", _CSV_REPORTS, ids=lambda entry: entry["argv"])
def test_the_cross_version_rule_reads_a_csv_reports_verdict(entry):
    rows = list(csv.DictReader(io.StringIO(lines(entry["stdout"]))))
    rows[0]["verdict"] = "inconclusive" if rows[0]["verdict"] != "inconclusive" else "pass"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    assert not mismatch(entry, entry["exit"], lines(entry["stdout"]), "", exact=False)
    assert mismatch(entry, entry["exit"], buf.getvalue(), "", exact=False).startswith("verdict")


def test_every_readme_example_is_a_pin(tmp_path, monkeypatch):
    monkeypatch.delenv("BEREZIN_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```sh\n(.*?)```", (_ROOT / "README.md").read_text(encoding="utf-8"),
                        re.S)
    examples = [line.split()[1:] for block in blocks for line in block.splitlines()
                if line.startswith("berezin-lab ")]
    assert examples
    for argv in examples:
        if "--out" in argv:  # the file holds what stdout would, on any version
            at = argv.index("--out")
            plain = argv[:at] + argv[at + 2:]
            code, stdout, _ = run(plain)
            assert run(argv) == (code, "", "")
            assert (tmp_path / argv[at + 1]).read_bytes() == stdout.encode("utf-8")
            argv = plain
        assert argv in PINNED_ARGVS, " ".join(argv)


def test_the_replay_fails_on_a_changed_pin(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(_ROOT / "src"))
    command = [sys.executable, "-m", "berezin_lab.cli"]
    version, refusal = (entry for entry in _PINS["outputs"] if entry["argv"] in
                        ("--version", "plancherel blocks --p 2 --q 3 --alpha nan"))
    assert replay_pins.problems({**_PINS, "outputs": [version, refusal]}, command, extra=[]) == []
    changed = [{**version, "exit": 2}]
    if _SAME_VERSIONS:  # elsewhere only exit codes and verdicts are compared
        changed += [{**version, "stdout": ["berezin-lab 0.0.0"]},
                    {**refusal, "stderr": ["berezin-lab: error"]}]
    for entry in changed:
        assert replay_pins.problems({**_PINS, "outputs": [entry]}, command, extra=[]), entry

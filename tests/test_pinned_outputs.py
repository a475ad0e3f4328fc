"""The CLI's stdout at fixed argvs against tests/data/pinned_outputs.json.

On the Python and numpy versions that wrote the pins the output
must match byte for byte; elsewhere the last digits may differ, so only
the exit code and, for a JSON report, the verdict are compared, and a
warning says so.
Regenerate with tests/regen_pinned_outputs.py.
"""

import difflib
import json
import warnings

import pytest

from regen_pinned_outputs import PINNED_ARGVS, PINS, run, versions

_PINS = json.loads(PINS.read_text(encoding="utf-8"))
_SAME_VERSIONS = all(_PINS[name] == value for name, value in versions().items())


def test_every_pinned_argv_has_one_pin():
    assert [entry["argv"].split() for entry in _PINS["outputs"]] == PINNED_ARGVS


@pytest.mark.parametrize("entry", _PINS["outputs"], ids=lambda entry: entry["argv"])
def test_cli_output_matches_its_pin(entry, monkeypatch):
    monkeypatch.delenv("BEREZIN_SEED", raising=False)
    code, stdout = run(entry["argv"].split())
    pinned = "".join(line + "\n" for line in entry["stdout"])
    if not _SAME_VERSIONS:
        warnings.warn(f"pins were written under {dict((k, _PINS[k]) for k in versions())}, "
                      f"this is {versions()}: comparing verdicts only")
        assert code == entry["exit"]
        if pinned.startswith("{"):  # a report; tables carry no verdict
            assert json.loads(stdout)["verdict"] == json.loads(pinned)["verdict"]
        return
    diff = "".join(difflib.unified_diff(pinned.splitlines(keepends=True),
                                        stdout.splitlines(keepends=True), "pinned", "now"))
    assert (code, stdout) == (entry["exit"], pinned), diff

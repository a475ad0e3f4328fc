"""Replay every pin of tests/data/pinned_outputs.json through the installed ``berezin-lab``.

Each argv runs twice, each time in its own process.  The two runs must
print the same exit code, stdout (``duration`` masked by
``regen_pinned_outputs.mask_duration``) and stderr, and the first is
judged against its pin by ``regen_pinned_outputs.mismatch``, the rule
tests/test_pinned_outputs.py applies in process: byte for byte on the
Python and numpy versions that wrote the pins, exit code and verdict
elsewhere.  Pins that recorded the same stdout must replay the same
stdout.  ``RERUN_ONLY`` argvs, too long to pin, are only run twice.
Prints one line per problem and exits 1 if there is any:

    python tests/replay_pins.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from regen_pinned_outputs import PINS, mask_duration, mismatch, same_versions

# the 1801-line Sp table whose rows are joined without csv.writer
RERUN_ONLY = [["haar", "sp", "--n", "3", "--samples", "50", "--format", "csv", "--seed", "5"]]


def replay(command: list[str], argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout without the report's ``duration``, stderr) of one process."""
    env = {name: value for name, value in os.environ.items() if name != "BEREZIN_SEED"}
    done = subprocess.run([*command, *argv], capture_output=True, env=env, check=False)
    return done.returncode, mask_duration(done.stdout.decode()), done.stderr.decode()


def problems(pins: dict, command: list[str], extra: list[list[str]]) -> list[str]:
    """One line per pin that ``command`` does not reproduce, or per rerun that differs."""
    exact = same_versions(pins)
    found, by_pinned = [], {}
    runs = [(entry["argv"].split(), entry) for entry in pins["outputs"]]
    for argv, entry in runs + [(argv, None) for argv in extra]:
        first, second = replay(command, argv), replay(command, argv)
        if first != second:
            found.append(f"{' '.join(argv)}: a rerun printed something else")
        if entry is None:
            continue
        if why := mismatch(entry, *first, exact=exact):
            found.append(f"{entry['argv']}: {why}")
        if by_pinned.setdefault("\n".join(entry["stdout"]), first[1]) != first[1]:
            found.append(f"{entry['argv']}: stdout differs from a pin that recorded the same")
    return found


if __name__ == "__main__":
    found = problems(json.loads(PINS.read_text(encoding="utf-8")), ["berezin-lab"], RERUN_ONLY)
    print("\n".join(found) or f"replayed {PINS.name} twice through berezin-lab: no difference")
    sys.exit(bool(found))

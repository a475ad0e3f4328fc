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
import json.encoder
import re
from dataclasses import dataclass
from itertools import chain
from math import isfinite
from typing import Any, NamedTuple

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
    seed: int | None  # None for a command that draws nothing
    stderr: float | None = None
    z_score: float | None = None
    verdict: str | None = None
    duration: float | None = None
    version: str = __version__
    samples: Any = None  # the drawn samples themselves, when a command emits them

    def _fields(self) -> dict[str, Any]:
        """The report's fields in their fixed order, values not yet coerced."""
        out = {
            "command": self.command,
            "inputs": self.inputs,
            "expected": self.expected,
            "observed": self.observed,
            "stderr": self.stderr,
            "z_score": self.z_score,
            "verdict": self.verdict,
            "duration": None if self.duration is None else round(float(self.duration), 6),
            "seed": None if self.seed is None else int(self.seed),
            "version": self.version,
        }
        if out["duration"] is None:
            del out["duration"]
        if self.samples is not None:
            out["samples"] = self.samples
        return out


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
        return _json(report._fields(), "") + "\n"
    return render_table([report._fields()])


class Table(NamedTuple):
    """Columns under one header, one per header name, for tables too long to build a row each.

    A column is a sequence of cells, and row i holds cell i of each.  Both
    formats write a Table as they write its rows as dicts.  A numpy column
    of bool, int or float dtype is converted in one pass: by CSV when it is
    1-d, by JSON also when it is 2-d, a column of equal-length lists.
    """

    header: list[str]
    columns: list


def render_table(rows: list[dict[str, Any]] | Table, fmt: str = "csv") -> str:
    """Rows as CSV with a header, or as a JSON array when asked.

    ``rows`` is a list of dicts, whose first one gives the CSV header, or
    a ``Table``.  The CSV is what ``csv.writer`` writes.
    When no cell needs quoting and there are at least two columns (a row
    of one empty cell is written quoted), the rows are joined with commas
    directly instead.
    """
    if fmt == "json":
        return _json(rows, "") + "\n"
    if isinstance(rows, Table):
        header, columns = rows
    elif rows:
        header = list(rows[0].keys())
        columns = [[row.get(k) for row in rows] for k in header]
    else:
        return ""
    head = ["" if k is None else str(k) for k in header]  # as csv writes a header cell
    cells = list(map(_csv_column, columns))
    columns = [column for column, _ in cells]
    if len(head) >= 2 and all(plain for _, plain in cells) and _plain(head):
        return "\n".join([",".join(head), *map(",".join, zip(*columns)), ""])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(head)
    writer.writerows(zip(*columns))
    return buf.getvalue()


def _csv_column(column) -> tuple[list[str], bool]:
    """A column's cells as the strings csv writes of them, and whether none needs quoting.

    csv writes a str, int, float or bool cell as its str(), and a numeric
    numpy column's ``tolist()`` holds only such cells, none of which needs
    quoting; any other cell is written as ``_cell`` writes what ``_json``
    writes of it, read back.
    """
    if isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype.kind in "biuf":
        return list(map(str, column.tolist())), True
    if _STR_CELLS.issuperset(map(type, column)):
        cells = list(map(str, column))
    else:
        cells = [_cell(v if type(v) in _PLAIN_JSON else json.loads(_json(v, ""))) for v in column]
    return cells, _plain(cells)


def _plain(cells: list[str]) -> bool:
    """True when csv writes none of ``cells`` quoted: none holds a comma, quote, CR or LF."""
    return not any(map(_QUOTED.search, set(cells)))


_QUOTED = re.compile('[,"\r\n]')


def _cell(value: Any) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"))
    if value is None:
        return ""
    return str(value)


_quote = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _float(value: float) -> str:
    """A finite float as ``json`` writes it; NaN and the infinities by name, which JSON lacks."""
    if isfinite(value):
        return float.__repr__(value)
    return '"nan"' if value != value else '"inf"' if value > 0 else '"-inf"'


# the writer of each plain type, dispatched on its exact type
_PLAIN_JSON = {str: _quote, int: int.__repr__, float: _float,
               bool: _CONSTANTS.__getitem__, type(None): _CONSTANTS.__getitem__}
_STR = {str}
_INT = {int}
_LISTS = {list, tuple}
_PLAIN_TYPES = set(_PLAIN_JSON)
_STR_CELLS = {str, int, float, bool}


def _json(value: Any, pad: str) -> str:
    """``value`` as ``json.dumps(indent=2)`` writes its JSON form, nested at ``pad``, in one walk.

    This is the report's one coercion: numpy values become Python ones,
    tuples lists and keys str, and ``_float`` names NaN and the
    infinities.  Plain types are dispatched on their exact type; the
    isinstance chain after them takes numpy types, tuples and subclasses,
    and writes int subclasses with ``int.__repr__`` as ``json`` does.  A
    finite float array is checked once and written by one ``%`` into the
    layout of its shape.  A ``Table`` is written as its rows as dicts are
    (``_table_json``).
    """
    write = _PLAIN_JSON.get(type(value))
    if write is not None:
        return write(value)
    inner = pad + "  "
    if isinstance(value, Table):  # before the tuple branch: a Table is a NamedTuple
        return _table_json(value, pad)
    if isinstance(value, dict):
        if not _STR.issuperset(map(type, value)):
            value = {str(k): v for k, v in value.items()}
        return _wrap("{}", [_quote(k) + ": " + _json(v, inner) for k, v in value.items()], pad)
    if isinstance(value, (list, tuple)):
        return _wrap("[]", [_json(v, inner) for v in value], pad)
    if isinstance(value, np.ndarray):
        if value.dtype == float and value.ndim and np.isfinite(value).all():
            return _float_layout(value.shape, pad) % tuple(value.ravel().tolist())
        return _json(value.tolist(), pad)  # a 0-d array's tolist() is its scalar
    if isinstance(value, (np.floating, float)):
        return _float(float(value))
    if isinstance(value, np.integer):
        return int.__repr__(int(value))
    if isinstance(value, np.bool_):
        return _CONSTANTS[bool(value)]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return _quote(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _table_json(table: Table, pad: str) -> str:
    """What ``_json`` writes of the table's rows as dicts, one ``%`` per run of rows.

    Each column becomes a flat list of ``%s`` slots (``_column_slots``).
    Rows whose list cells have the same lengths share one row layout, so a
    run of such rows is one layout repeated and filled by one ``%``.
    """
    header, columns = table
    if len(set(header)) < len(header):  # a dict keeps one of equal keys
        return _json([dict(zip(header, row)) for row in zip(*columns)], pad)
    n = min(map(len, columns), default=0)
    if not n:
        return "[]"
    inner, cell_pad = pad + "  ", pad + "    "
    slots = [_column_slots(column[:n], cell_pad) for column in columns]
    keys = [_quote(str(k)).replace("%", "%%") + ": " for k in header]
    varying = [width for width, _ in slots if isinstance(width, list)]
    cuts = [0, n]
    if varying:
        changes = np.flatnonzero(np.diff(np.array(varying), axis=1).any(axis=0)) + 1
        cuts = [0, *changes.tolist(), n]
    # each column's slot offset at each cut
    offsets = [np.concatenate(([0], np.cumsum(width)))[cuts].tolist() if isinstance(width, list)
               else [cut * (1 if width is None else width) for cut in cuts]
               for width, _ in slots]
    runs = []
    for i, (start, stop) in enumerate(zip(cuts[:-1], cuts[1:])):
        # a list cell's iterator is passed to zip once per entry, so zip reads whole rows
        fields, cells = [], []
        for key, (width, values), offset in zip(keys, slots, offsets):
            width = width[start] if isinstance(width, list) else width
            part = iter(values[offset[i]:offset[i + 1]])
            if width is None:
                fields.append(key + "%s")
                cells.append(part)
            else:
                fields.append(key + _float_layout((width,), cell_pad))
                cells += [part] * width
        row = _wrap("{}", fields, inner)
        runs.append((",\n" + inner).join([row] * (stop - start))
                    % tuple(chain.from_iterable(zip(*cells))))
    return _wrap("[]", runs, pad)


def _column_slots(column, pad: str) -> tuple[int | list[int] | None, list]:
    """A column's cells as ``%s`` slots that write their JSON, and the cells' widths.

    The width is None when each cell takes one slot, or the length of each
    list cell whose entries take one slot each: one int for a whole 2-d
    numpy column, a list of lengths for a column of lists of plain values.
    Any other cell is one slot of its ``_json`` text at ``pad``.
    """
    if isinstance(column, np.ndarray) and column.ndim in (1, 2) and column.dtype.kind in "biufU":
        width = None if column.ndim == 1 else column.shape[1]
        return width, _plain_slots(column.ravel().tolist())
    column = list(column)
    if _LISTS.issuperset(map(type, column)):
        slots = _plain_slots(list(chain.from_iterable(column)))
        if slots is not None:
            return list(map(len, column)), slots
    slots = _plain_slots(column)
    return None, [_json(v, pad) for v in column] if slots is None else slots


def _plain_slots(values: list) -> list | None:
    """Plain values as slots, None if any is not plain; ``%s`` writes an exact int as JSON does."""
    types = set(map(type, values))
    if _INT.issuperset(types):
        return values
    if _STR.issuperset(types):
        quoted = {v: _quote(v) for v in set(values)}
        return list(map(quoted.__getitem__, values))
    if _PLAIN_TYPES.issuperset(types):
        return [_PLAIN_JSON[type(v)](v) for v in values]
    return None


def _float_layout(shape: tuple[int, ...], pad: str) -> str:
    """The text ``_json`` writes of a float array of ``shape``, a ``%s`` slot per entry."""
    if not shape:
        return "%s"
    return _wrap("[]", [_float_layout(shape[1:], pad + "  ")] * shape[0], pad)


def _wrap(brackets: str, items: list[str], pad: str) -> str:
    """Rendered items one per line at ``pad`` plus two spaces, between ``brackets``."""
    if not items:
        return brackets
    inner = pad + "  "
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + brackets[1]

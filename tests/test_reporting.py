import collections
import csv
import enum
import io
import json
import re

import numpy as np

from berezin_lab import berezin, cli, reporting
from berezin_lab.reporting import (
    VerificationReport,
    in_interval,
    jsonable,
    render_report,
    render_table,
)


def _report(**overrides):
    base = dict(
        command="integral so",
        inputs={"n": 2, "lambda": [1.0, 0.0]},
        expected=1.0,
        observed=1.002,
        stderr=0.003,
        z_score=0.67,
        verdict="pass",
        duration=0.5,
        seed=7,
    )
    base.update(overrides)
    return VerificationReport(**base)


def test_report_key_order_is_fixed():
    d = _report().to_dict()
    assert list(d.keys()) == [
        "command",
        "inputs",
        "expected",
        "observed",
        "stderr",
        "z_score",
        "verdict",
        "duration",
        "seed",
        "version",
    ]


def test_json_rendering_round_trips():
    text = render_report(_report(), "json")
    parsed = json.loads(text)
    assert parsed["command"] == "integral so"
    assert parsed["observed"] == 1.002
    assert parsed["seed"] == 7


def test_reports_without_duration_omit_the_key():
    d = _report(duration=None).to_dict()
    assert "duration" not in d


def test_csv_rendering_is_flat_and_parseable():
    text = render_report(_report(), "csv")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 1
    assert rows[0]["command"] == "integral so"
    # structured cells are compact JSON
    assert json.loads(rows[0]["inputs"])["n"] == 2


def test_render_table_multiple_rows():
    text = render_table([{"a": 1, "b": [1, 2]}, {"a": 2, "b": []}])
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [r["a"] for r in rows] == ["1", "2"]
    assert json.loads(rows[0]["b"]) == [1, 2]


def test_jsonable_handles_numpy_and_nonfinite():
    out = jsonable(
        {
            "a": np.float64(1.5),
            "b": np.array([1, 2]),
            "c": float("inf"),
            "d": float("nan"),
            "e": -float("inf"),
        }
    )
    assert out == {"a": 1.5, "b": [1, 2], "c": "inf", "d": "nan", "e": "-inf"}
    json.dumps(out)  # must be serializable as-is


def _jsonable_reference(value):
    """``jsonable`` as a plain isinstance chain, the reference for its exact-type dispatch."""
    if isinstance(value, dict):
        return {str(k): _jsonable_reference(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable_reference(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable_reference(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if value != value:
            return "nan"
        if value in (float("inf"), float("-inf")):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    return value


class _Level(enum.IntEnum):
    LOW = 1


class _Real(float):
    pass


def test_jsonable_matches_the_isinstance_chain_on_every_kind():
    value = {
        "plain": ["s", 3, True, None, 2.5, float("nan"), float("inf"), -float("inf")],
        "numpy": (np.float64("nan"), np.float32(1.5), np.int64(3), np.bool_(True),
                  np.array([[1.0, np.inf], [-np.inf, np.nan]])),
        "subclasses": [_Level.LOW, _Real("inf"), collections.OrderedDict(b=_Real(2.0))],
        7: {"nested": [(np.int32(1), [np.float64(-0.0)])]},
    }
    out = jsonable(value)
    assert out == _jsonable_reference(value)
    assert json.dumps(out) == json.dumps(_jsonable_reference(value))


def _without_duration(text):
    return re.sub(r'"duration": [-+.e0-9]+', '"duration": 0', text)


def test_reports_render_byte_identical_through_the_isinstance_chain(capsys, monkeypatch):
    monkeypatch.setattr(berezin, "covariance_residual",
                        lambda g, z, u, alpha: np.array([0.0, np.nan, 0.0]))
    cases = [
        ["plancherel", "degeneration", "--p", "4", "--q", "12", "--alpha", "-3"],
        ["kernel", "covariance", "--p", "2", "--q", "3", "--alpha", "1.5", "--samples", "3"],
        ["haar", "u", "--n", "2", "--samples", "2", "--seed", "5", "--format", "csv"],
    ]

    def render_all():
        outs = []
        for argv in cases:
            cli.main(argv)
            outs.append(_without_duration(capsys.readouterr().out))
        return outs

    dispatched = render_all()
    monkeypatch.setattr(reporting, "jsonable", _jsonable_reference)
    reference = render_all()
    assert len(json.loads(dispatched[0])["inputs"]["blocks"]) == 551
    assert json.loads(dispatched[1])["observed"] == "nan"
    assert dispatched[2].count("\n") == 1 + 2 * 4  # header and one row per entry
    for argv, a, b in zip(cases, dispatched, reference):
        assert a == b, argv


def test_in_interval_with_open_sides():
    assert in_interval(0.5, [0.0, 1.0])
    assert not in_interval(1.5, [0.0, 1.0])
    assert in_interval(123.0, [0.0, None])
    assert in_interval(-5.0, [None, 0.0])
    assert not in_interval(-5.0, [0.0, None])


def test_nan_lies_in_no_interval():
    nan = float("nan")
    for interval in ([0.0, 1.0], [0.0, 0.0], [None, 0.0], [0.0, None], [None, None]):
        assert not in_interval(nan, interval)
        assert not in_interval(np.float64(nan), interval)

import csv
import io
import json

import numpy as np
import pytest

from berezin_lab.errors import InvalidParams
from berezin_lab.reporting import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    RunConfig,
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


def test_defaults():
    cfg = RunConfig()
    assert cfg.seed == DEFAULT_SEED == 1729
    assert cfg.n_samples == DEFAULT_SAMPLES == 200_000
    assert cfg.tol("z", 3.0) == 3.0
    cfg = RunConfig(tolerances={"z": 2.0})
    assert cfg.tol("z", 3.0) == 2.0


def test_runconfig_validation():
    with pytest.raises(InvalidParams):
        RunConfig(format="xml")
    with pytest.raises(InvalidParams):
        RunConfig(tolerances={"z": 0.0})
    with pytest.raises(InvalidParams):
        RunConfig(tolerances={"z": -1.0})


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

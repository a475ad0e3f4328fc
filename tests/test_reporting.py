import collections
import csv
import enum
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from berezin_lab import berezin, cli, reporting
from berezin_lab.reporting import (
    Table,
    VerificationReport,
    in_interval,
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
    d = json.loads(render_report(_report(), "json"))
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
    d = json.loads(render_report(_report(duration=None), "json"))
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
    assert render_table(Table(["a", "b"], [[1, 2], [[1, 2], []]])) == text


def _csv_of(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def test_numeric_numpy_columns_are_written_as_csv_writes_their_cells():
    columns = [
        np.array([-0.0, 1e-05, 1e16, 5e-324, np.nan, np.inf, -np.inf]),
        np.array([0, -1, 7, 2**62, -(2**63), 2**63 - 1, 10**16], dtype=np.int64),
        np.arange(7, dtype=np.uint8),
        np.array([-0.0, 1e-05, 1e16, 5e-324, np.nan, np.inf, -np.inf], dtype=np.float32),
        ["s", None, 2.5, True, [1.0, np.nan], np.float64(-0.0), ""],
    ]
    header = ["f8", "i8", "u1", "f4", "mixed"]
    text = render_table(Table(header, columns))
    plain = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    plain[-1] = ["s", None, 2.5, True, '[1.0,"nan"]', -0.0, ""]
    assert text == _csv_of([header, *zip(*plain)])
    assert [line.split(",")[0] for line in text.splitlines()[1:]] == [
        "-0.0", "1e-05", "1e+16", "5e-324", "nan", "inf", "-inf"]
    # the same cells as numpy scalars in dict rows take the per-cell route
    assert render_table([dict(zip(header, row)) for row in zip(*columns)]) == text


def test_csv_tables_are_what_csv_writer_writes(monkeypatch):
    numeric = [np.array([True, False, True]), np.array([0, -7, 2**62]),
               np.array([-0.0, 1e-05, np.nan])]
    cases = [
        (["a", "b"], [["x,y", "plain", "z"], [1, 2, 3]]),
        (["a", "b"], [['say "hi"', "", None], ["", None, "q"]]),
        (["a", "b"], [["cr\rhere", "lf\nhere", "crlf\r\n"], ["x", "y", "z"]]),
        (["a", "b"], [["", "", ""], [None, None, None]]),
        (["only"], [["x", "", None]]),
        (["only"], [np.array([1.5, 2.5])]),
        (["a,b", 'c"d'], [["1", "2"], ["3", "4"]]),
        (["x\ny", "z"], [["1", "2"], ["3", "4"]]),
        (["b", "i", "f", "s"], [*numeric, ["nul\x00", " spaced ", "tab\t"]]),
        (["b", "i", "f"], numeric),
        (["a", "b"], [[], []]),
    ]
    for header, columns in cases:
        plain = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        assert render_table(Table(header, columns)) == _csv_of([header, *zip(*plain)]), header
    # a table with nothing to quote is joined without csv.writer
    monkeypatch.setattr(reporting.csv, "writer", None)
    assert render_table(Table(["b", "i", "f"], numeric)) == (
        "b,i,f\nTrue,0,-0.0\nFalse,-7,1e-05\nTrue,4611686018427387904,nan\n")


def test_float_arrays_are_written_into_the_layout_of_their_shape():
    rng = np.random.default_rng(5)
    special = [-0.0, 5e-324, 1e16, 1e-05, 0.1, -2.5e300]
    for shape in [(0,), (3,), (2, 0), (2, 3, 2), (1, 1, 1, 2)]:
        size = int(np.prod(shape))
        value = np.resize(np.concatenate([special, rng.standard_normal(size)]), shape)
        for pad in ("  ", "      "):
            reference = json.dumps(value.tolist(), indent=2).replace("\n", "\n" + pad)
            assert reporting._json(value, pad) == reference, (shape, pad)
        nested = {"samples": [value]}
        assert reporting._json(nested, "") == json.dumps({"samples": [value.tolist()]}, indent=2)


def _rows(table):
    return [dict(zip(table.header, row)) for row in zip(*table.columns)]


def test_json_tables_are_written_as_their_rows_as_dicts():
    escaped = ['quote " backslash \\', "tab\t nul\x00", "caf\u00e9 \u2603", "per%cent %s"]
    cases = [
        Table(["a", "b"], [[], []]),
        Table([], []),
        Table(["x", "y%s", 3], [[float("nan"), float("inf"), -float("inf"), -0.0],
                                [True, False, None, 2**70], escaped]),
        # list cells of two widths in one table, in three runs
        Table(["r", "u", "s"], [[1, 2, 2, 1], [[0], [1, 2], [3, 4], [5]], ["a", "b", "c", "d"]]),
        Table(["f", "u", "b"], [np.array([0.5, np.nan, -np.inf]),
                                np.array([[1, 2], [3, 4], [5, 6]]),
                                np.array([True, False, True])]),
        Table(["empty", "mixed"], [[[], [], []], [[1.5, "s"], None, {"k": [np.int64(2)]}]]),
    ]
    for table in cases:
        assert render_table(table, "json") == render_table(_rows(table), "json"), table.header
        for pad in ("", "    "):
            nested = reporting._json({"t": [_rows(table)]}, pad)
            assert reporting._json({"t": [table]}, pad) == nested
    assert render_table(cases[0], "json") == "[]\n"
    first = {"x": "nan", "y%s": True, "3": escaped[0]}
    assert json.loads(render_table(cases[2], "json"))[0] == first


def _read_back(value):
    """What the emitter writes of ``value``, parsed: its JSON form."""
    return json.loads(reporting._json(value, ""))


def test_emitter_handles_numpy_and_nonfinite():
    out = _read_back(
        {
            "a": np.float64(1.5),
            "b": np.array([1, 2]),
            "c": float("inf"),
            "d": float("nan"),
            "e": -float("inf"),
        }
    )
    assert out == {"a": 1.5, "b": [1, 2], "c": "inf", "d": "nan", "e": "-inf"}


def _jsonable_reference(value):
    """A report value's JSON form as a plain isinstance chain, the reference for the emitter."""
    if isinstance(value, Table):  # its rows as dicts
        return [_jsonable_reference(dict(zip(value.header, row))) for row in zip(*value.columns)]
    if isinstance(value, dict):
        return {str(k): _jsonable_reference(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable_reference(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable_reference(value.tolist())
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


def test_emitter_matches_the_isinstance_chain_on_every_kind():
    value = {
        "plain": ["s", 3, True, None, 2.5, float("nan"), float("inf"), -float("inf")],
        "numpy": (np.float64("nan"), np.float32(1.5), np.int64(3), np.bool_(True),
                  np.array([[1.0, np.inf], [-np.inf, np.nan]])),
        "subclasses": [_Level.LOW, _Real("inf"), collections.OrderedDict(b=_Real(2.0))],
        7: {"nested": [(np.int32(1), [np.float64(-0.0)])]},
    }
    out = _read_back(value)
    assert out == _jsonable_reference(value)
    assert json.dumps(out) == json.dumps(_jsonable_reference(value))


def _reference_render(value, fmt):
    """The two-pass renderer: the isinstance chain, then json.dumps(indent=2) or a CSV."""
    if isinstance(value, VerificationReport):
        value = value._fields()
    if isinstance(value, Table):
        value = [dict(zip(value.header, row)) for row in zip(*value.columns)]
    if fmt == "json":
        return json.dumps(_jsonable_reference(value), indent=2) + "\n"
    rows = value if isinstance(value, list) else [value]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(rows[0]))
    for row in rows:
        writer.writerow([_reference_cell(_jsonable_reference(row.get(k))) for k in rows[0]])
    return buf.getvalue()


def _reference_cell(value):
    """A CSV cell of a JSON-ready value: compact JSON for an object or array, else its str()."""
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"))
    return "" if value is None else str(value)


def test_reports_render_byte_identical_through_the_isinstance_chain(capsys, monkeypatch):
    monkeypatch.setattr(berezin, "covariance_residual",
                        lambda g, z, u, alpha: np.array([0.0, np.nan, 0.0]))
    rendered = []

    def spy(render):
        def wrapped(value, fmt="csv"):
            text = render(value, fmt)
            rendered.append((text, _reference_render(value, fmt)))
            return text
        return wrapped

    monkeypatch.setattr(cli, "render_report", spy(reporting.render_report))
    monkeypatch.setattr(cli, "render_table", spy(reporting.render_table))
    cases = [
        ["plancherel", "degeneration", "--p", "4", "--q", "12", "--alpha", "-3"],
        ["kernel", "covariance", "--p", "2", "--q", "3", "--alpha", "1.5", "--samples", "3"],
        ["kernel", "covariance", "--p", "2", "--q", "3", "--alpha", "1.5", "--samples", "3",
         "--format", "csv"],
        ["haar", "u", "--n", "2", "--samples", "2", "--seed", "5", "--format", "csv"],
        ["haar", "sp", "--n", "2", "--samples", "2", "--seed", "5"],
        ["plancherel", "weight", "--p", "5", "--q", "12", "--alpha", "3", "--samples", "5",
         "--format", "csv"],
        ["plancherel", "blocks", "--p", "2", "--q", "5", "--alpha", "0.4"],
        ["catalog"],
    ]
    outs = []
    for argv in cases:
        cli.main(argv)
        outs.append(capsys.readouterr().out)
    assert len(json.loads(outs[0])["inputs"]["blocks"]) == 551
    assert json.loads(outs[1])["observed"] == "nan"
    assert outs[3].count("\n") == 1 + 2 * 4  # header and one row per entry
    assert np.array(json.loads(outs[4])["samples"]).shape == (2, 4, 4, 2)
    assert next(csv.DictReader(io.StringIO(outs[2])))["observed"] == "nan"
    assert len(rendered) == len(cases)
    for argv, out, (text, reference) in zip(cases, outs, rendered):
        assert out == text == reference, argv


_KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.floats(), st.booleans(), st.none())
_LEAVES = st.one_of(
    st.text(),  # non-ASCII and control characters included
    st.integers(min_value=-(2**300), max_value=2**300),
    st.floats(),  # +-0.0, nan and +-inf included
    st.booleans(),
    st.none(),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.just(_Level.LOW),
    st.floats().map(_Real),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
               elements=st.floats(width=64)),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=3),
               elements=st.floats(allow_nan=False, allow_infinity=False)),
)
_PLAIN = st.one_of(st.text(max_size=3), st.integers(-(2**70), 2**70), st.floats(), st.booleans(),
                   st.none())


@st.composite
def _tables(draw):
    """A small Table: plain, list, numpy and nested cells, list cells of varying widths."""
    header = draw(st.lists(_KEYS, max_size=3))
    n = draw(st.integers(0, 4))
    cells = st.one_of(_PLAIN, st.lists(_PLAIN, max_size=2), _LEAVES,
                      st.dictionaries(_KEYS, _PLAIN, max_size=2))
    columns = [draw(st.one_of(
        st.lists(cells, min_size=n, max_size=n),
        st.lists(st.lists(_PLAIN, max_size=3), min_size=n, max_size=n),
        st.lists(st.text(max_size=2), min_size=n, max_size=n).map(np.array),
        hnp.arrays(st.sampled_from([np.int64, np.float64, np.bool_]),
                   st.sampled_from([(n,), (n, 0), (n, 2)])),
    )) for _ in header]
    return Table(header, columns)


_VALUES = st.recursive(
    st.one_of(_LEAVES, _tables()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(value=_VALUES)
def test_emitter_writes_what_json_dumps_writes_of_the_isinstance_chain(value):
    assert reporting._json(value, "") == json.dumps(_jsonable_reference(value), indent=2)


@settings(max_examples=300, deadline=None)
@given(value=_VALUES)
def test_compact_emitter_writes_what_json_dumps_writes_with_compact_separators(value):
    # a CSV cell's object or array, written directly instead of indented, parsed and dumped
    expected = json.dumps(_jsonable_reference(value), separators=(",", ":"))
    assert reporting._json(value, None) == expected


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.dictionaries(st.sampled_from("abc"), _VALUES, min_size=1), min_size=1,
                     max_size=4))
def test_csv_cells_are_written_as_the_isinstance_chain_writes_them(rows):
    reference = _reference_render(rows, "csv")
    assert render_table(rows) == reference
    header = list(rows[0])
    assert render_table(Table(header, [[row.get(k) for row in rows] for k in header])) == reference


def test_emitter_writes_int_subclasses_and_0d_arrays_as_json_does():
    for value in (_Level.LOW, [_Level.LOW], np.array(2.5), np.array(np.nan), np.array(3),
                  np.zeros((2, 0)), np.ones((0, 3)), {1: "int key", "1": "str key"},
                  Table([1, "1"], [["int key"], ["str key"]])):
        assert reporting._json(value, "") == json.dumps(_jsonable_reference(value), indent=2)


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

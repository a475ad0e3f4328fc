import numpy as np
import pytest

from berezin_lab import hermitization
from berezin_lab.errors import InvalidParams
from berezin_lab.hermitization import catalog, corrupted_pair, dims_match, sweep_ok


def test_catalog_has_twelve_rows_with_distinct_indices():
    rows = catalog()
    assert len(rows) == 12
    assert [r.index for r in rows] == list(range(1, 13))
    assert all(r.name for r in rows)


def test_every_row_balances_dimensions_over_the_sweep():
    for row in catalog():
        for value in range(1, 9):
            params = {name: value for name in row.params}
            assert dims_match(row, params), (row.index, value)


def test_mixed_parameter_assignments_also_balance():
    for row in catalog():
        if len(row.params) < 2:
            continue
        params = {name: 2 + i for i, name in enumerate(row.params)}
        assert dims_match(row, params)


def test_corrupted_row_fails_for_every_parameter_value():
    bad = corrupted_pair()
    for value in range(1, 9):
        params = {name: value for name in bad.params}
        assert not dims_match(bad, params)


def test_sweep_checks_the_whole_grid_without_stopping_at_a_mismatch(monkeypatch):
    calls = []
    original = hermitization.dims_match
    monkeypatch.setattr(hermitization, "dims_match",
                        lambda pair, params: calls.append(params) or original(pair, params))
    assert not sweep_ok(corrupted_pair())
    assert calls == [{"n": n} for n in range(1, 9)]  # every n, although n = 1 already fails
    calls.clear()
    row2 = catalog()[1]
    assert row2.params == ("p", "q") and sweep_ok(row2)
    assert calls == [{"p": p, "q": q} for p in range(1, 9) for q in range(1, 9)]
    assert all(sweep_ok(row) for row in catalog())


def test_quaternionic_row_doubles_to_the_four_n_form():
    row8 = next(r for r in catalog() if r.index == 8)
    assert "SO*(4n)" in row8.name or "4n" in row8.name


def test_dims_match_validates_parameters():
    row = catalog()[0]
    with pytest.raises(InvalidParams):
        dims_match(row, {name: 0 for name in row.params})
    with pytest.raises(InvalidParams):
        dims_match(row, {})


def test_dims_match_takes_integral_values_but_not_bools():
    row = catalog()[0]
    assert dims_match(row, {"n": np.int64(2)})
    with pytest.raises(InvalidParams):
        dims_match(row, {"n": True})

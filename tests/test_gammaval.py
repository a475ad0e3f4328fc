import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezin_lab.errors import UncancelledPole
from berezin_lab.gammaval import (
    from_real,
    from_real_snapped,
    gamma_value,
    one,
    pochhammer_value,
)


def test_regular_values():
    assert gamma_value(0.5).to_float() == pytest.approx(math.sqrt(math.pi))
    assert gamma_value(5.0).to_float() == pytest.approx(24.0)
    assert gamma_value(-0.5).to_float() == pytest.approx(-2.0 * math.sqrt(math.pi))
    assert gamma_value(-1.5).to_float() == pytest.approx(4.0 * math.sqrt(math.pi) / 3.0)


def test_pole_bookkeeping():
    g = gamma_value(0.0)
    assert g.is_pole and g.pole_order == 1
    with pytest.raises(UncancelledPole):
        g.to_float()
    # the leading coefficient convention: Gamma(-m + eps) ~ (-1)^m / (m! eps)
    g3 = gamma_value(-3.0)
    assert g3.sign == -1
    assert g3.log_abs == pytest.approx(-math.log(6.0))
    # arguments within 1e-9 of a nonpositive integer are the pole there
    assert gamma_value(-2.0 + 1e-12).is_pole
    assert not gamma_value(-2.5).is_pole and not gamma_value(1.0).is_pole


def test_arrays_hold_the_0d_values():
    x = np.array([[0.5, -3.0, 2.0], [-2.5, 0.0, 4.0]])
    g = gamma_value(x)
    assert g.order.shape == x.shape
    for index in np.ndindex(x.shape):
        single = gamma_value(x[index])
        assert (g[index].order, g[index].sign, g[index].log_abs) == (
            single.order, single.sign, single.log_abs
        )
    assert np.array_equal(g.prod(axis=1).order, [1, 1])
    with pytest.raises(UncancelledPole):
        g.to_float()
    finite = (g / gamma_value(x)).to_float()
    assert finite.shape == x.shape and np.allclose(finite, 1.0)
    h = pochhammer_value([-3.0, 2.5], [5, 3])
    assert np.array_equal(h.is_zero, [True, False])
    assert h[1].to_float() == pytest.approx(2.5 * 3.5 * 4.5)
    z = from_real_snapped([0.0, 1e-12, -2.0])
    assert np.array_equal(z.order, [-1, -1, 0]) and z.to_float()[2] == -2.0


def test_pole_ratio_classic_value():
    # lim Gamma(-2 + eps) / Gamma(-5 + eps) = -5!/2! = -60
    ratio = gamma_value(-2.0) / gamma_value(-5.0)
    assert not ratio.is_pole and not ratio.is_zero
    assert ratio.to_float() == pytest.approx(-60.0)


def test_zero_annihilates():
    z = from_real(0.0)
    assert z.is_zero
    prod = z * gamma_value(2.5)
    assert prod.is_zero
    assert prod.to_float() == 0.0
    # zero against a simple pole cancels to a finite value
    mixed = z * gamma_value(0.0)
    assert not mixed.is_pole and not mixed.is_zero


def test_pochhammer_values():
    assert pochhammer_value(3.0, 0).to_float() == pytest.approx(1.0)
    assert pochhammer_value(2.5, 3).to_float() == pytest.approx(2.5 * 3.5 * 4.5)
    # negative-integer base: finite falling products, then zero
    assert pochhammer_value(-3.0, 2).to_float() == pytest.approx(6.0)
    assert pochhammer_value(-3.0, 5).is_zero


def test_from_real_snapped_rounds_near_integers():
    v = from_real_snapped(3.0000000000001)
    assert v.to_float() == pytest.approx(3.0)


def test_one_is_neutral():
    x = gamma_value(1.7)
    assert (x * one()).to_float() == pytest.approx(x.to_float())
    assert (x / one()).to_float() == pytest.approx(x.to_float())


ARGS = st.one_of(
    st.floats(min_value=-6.0, max_value=6.0, allow_nan=False).filter(
        lambda x: abs(x - round(x)) > 1e-3 or x > 0.5
    ),
    st.integers(min_value=-6, max_value=-1).map(float),
)


@settings(max_examples=150, deadline=None)
@given(x=ARGS, y=ARGS)
def test_orders_add_under_multiplication(x, y):
    gx, gy = gamma_value(x), gamma_value(y)
    prod = gx * gy
    net = (gx.pole_order - gx.zero_order) + (gy.pole_order - gy.zero_order)
    assert prod.pole_order - prod.zero_order == net
    assert prod.pole_order == 0 or prod.zero_order == 0


@settings(max_examples=150, deadline=None)
@given(x=ARGS)
def test_self_ratio_is_exactly_one(x):
    g = gamma_value(x)
    ratio = g / g
    assert not ratio.is_pole and not ratio.is_zero
    assert ratio.to_float() == pytest.approx(1.0)


@settings(max_examples=150, deadline=None)
@given(x=ARGS)
def test_reciprocal_is_involutive(x):
    g = gamma_value(x)
    back = g.reciprocal().reciprocal()
    assert back.pole_order == g.pole_order
    assert back.zero_order == g.zero_order
    assert back.sign == g.sign
    assert back.log_abs == pytest.approx(g.log_abs, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    x=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    n=st.integers(min_value=0, max_value=6),
)
def test_pochhammer_agrees_with_gamma_ratio(x, n):
    direct = pochhammer_value(x, n).to_float()
    via_gamma = (gamma_value(x + n) / gamma_value(x)).to_float()
    assert direct == pytest.approx(via_gamma, rel=1e-10)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, gammasgn

from berezin_lab.errors import UncancelledPole
from berezin_lab.gammaval import (
    from_real,
    from_real_snapped,
    gamma_value,
    lgamma,
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
    assert g.is_pole and g.order == 1
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


def test_lgamma_and_the_sign_match_scipy_off_the_poles():
    # x over [-1e12, 2e305]: log-uniform magnitudes of either sign, a grid over
    # [-150, 250] and points 1e-6 either side of the poles down to -149
    rng = np.random.default_rng(29)
    x = np.concatenate([
        10.0 ** rng.uniform(-8.0, 12.0, 4000) * rng.choice([-1.0, 1.0], 4000),
        10.0 ** rng.uniform(12.0, np.log10(2e305), 1000),
        np.linspace(-150.0, 250.0, 8001),
        -np.arange(150.0) + 1e-6,
        -np.arange(150.0) - 1e-6,
    ])
    x = x[np.abs(x - np.rint(x)) > 1e-6]
    ref = gammaln(x)
    assert np.all(np.abs(lgamma(x) - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
    value = gamma_value(x)
    assert np.array_equal(value.log_abs, lgamma(x)) and not value.order.any()
    # gammasgn reads +1 below -2^31; there the reference is (-1)^ceil(-x), in integers
    low = x < -2.0**31
    assert 0 < low.sum() < x.size
    assert np.array_equal(value.sign[~low], gammasgn(x[~low]))
    assert value.sign[low].tolist() == [(-1) ** math.ceil(-v) for v in x[low].tolist()]


def test_lgamma_is_exact_at_1_and_2_and_inf_where_math_lgamma_raises():
    assert lgamma([1.0, 2.0]).tolist() == [0.0, 0.0]
    assert lgamma(2.5).shape == () and lgamma(np.ones((2, 3))).shape == (2, 3)
    # at the poles and past ~2.5e305 math.lgamma raises, where gammaln returns inf
    edge = [0.0, -3.0, 2.6e305, 1e308, math.inf]
    assert lgamma(edge).tolist() == gammaln(edge).tolist() == [math.inf] * 5


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
    assert prod.order == gx.order + gy.order


@settings(max_examples=150, deadline=None)
@given(x=ARGS)
def test_self_ratio_is_exactly_one(x):
    g = gamma_value(x)
    ratio = g / g
    assert not ratio.is_pole and not ratio.is_zero
    assert ratio.to_float() == pytest.approx(1.0)


def _ref_poch(a, length):
    """(a)_length one factor at a time from a base within 1e-9 of -k taken as -k.

    A factor at zero is a unit-rate zero.
    """
    if round(a) <= 0 and abs(a - round(a)) <= 1e-9:
        a = float(round(a))
    log_abs, sign, order = 0.0, 1, 0
    for i in range(length):
        x = a + i
        if abs(x) <= 1e-9:
            order -= 1
        else:
            log_abs += math.log(abs(x))
            sign *= 1 if x > 0 else -1
    return log_abs, sign, order


def test_pochhammer_agrees_with_a_factor_by_factor_product():
    rng = np.random.default_rng(5)
    near_poles = -np.arange(6.0)[:, None] + rng.uniform(-1e-10, 1e-10, size=(6, 4))
    generic = rng.uniform(-6.0, 6.0, size=40)
    bases = np.concatenate([near_poles.ravel(), [0.0, -1.0, -5.0], generic, generic + 0.5])
    lengths = rng.integers(0, 9, size=bases.size)
    lengths[:9] = np.arange(9)
    value = pochhammer_value(bases, lengths)
    for i, (a, m) in enumerate(zip(bases.tolist(), lengths.tolist())):
        log_abs, sign, order = _ref_poch(a, m)
        assert (value.order[i], value.sign[i]) == (order, sign), (a, m)
        assert abs(value.log_abs[i] - log_abs) <= 1e-12 * max(abs(log_abs), 1.0), (a, m)

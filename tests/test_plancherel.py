import functools
import json
import math
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.special import loggamma, roots_jacobi

from berezin_lab import cli, gammaval, plancherel
from berezin_lab.errors import InvalidParams, OracleNotConverged, PoleOnContour
from berezin_lab.gammaval import GammaValue, gamma_value
from berezin_lab.plancherel import (
    PlancherelParams,
    coeff_C,
    coeff_CVQ_u,
    coeff_Q_o,
    coeff_V_o,
    continuous_weight_o,
    label_stacks,
    partial_sums,
    rank1_plancherel_probe,
    surviving_blocks,
)


# ---------------------------------------------------------------------------
# Parameters and block inventories
# ---------------------------------------------------------------------------


def test_params_default_h():
    assert PlancherelParams(2, 5, 1.0).h == pytest.approx(2.5)
    assert PlancherelParams(3, 3, 1.0).h == pytest.approx(2.0)
    with pytest.raises(InvalidParams):
        PlancherelParams(0, 5, 1.0)
    with pytest.raises(InvalidParams):
        PlancherelParams(3, 2, 1.0)
    assert PlancherelParams(np.int64(2), np.int64(5), 1.0).h == 2.5


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_params_refuse_a_non_finite_alpha(alpha):
    # surviving_blocks used to end in a bare ValueError (nan) or OverflowError (inf)
    with pytest.raises(InvalidParams, match="alpha must be finite"):
        PlancherelParams(2, 5, alpha)


@pytest.mark.parametrize("p, q", [(2.5, 5), (2, 5.0), (True, 5)])
def test_params_refuse_a_non_integer_p_or_q(p, q):
    # a float p used to pass and end in a TypeError inside surviving_blocks
    with pytest.raises(InvalidParams, match="must be integers"):
        PlancherelParams(p, q, 1.0)


def test_block_index_weights():
    # w_k = u_1 + ... + u_k + k/2, for one label and along each row of a stack
    assert partial_sums((2, 0, 1)).tolist() == [2.5, 3.0, 4.5]
    assert partial_sums(()).tolist() == []
    stack = np.array([[2, 0, 1], [0, 0, 0]])
    assert partial_sums(stack).tolist() == [[2.5, 3.0, 4.5], [0.5, 1.0, 1.5]]
    # a negative label is refused where labels enter the coefficients
    with pytest.raises(InvalidParams):
        coeff_C(np.array([[1, -1]]), 2)


def test_surviving_blocks_inventory():
    labels = set(surviving_blocks(PlancherelParams(2, 5, 0.5)))
    assert labels == {(), (0,), (1,), (0, 0)}
    # alpha = 0.4 loosens the bound to 2.1 and lets w_2 = 2.0 through
    labels = set(surviving_blocks(PlancherelParams(2, 5, 0.4)))
    assert labels == {(), (0,), (1,), (0, 0), (0, 1), (1, 0)}


def test_surviving_blocks_above_h_is_continuous_only():
    for p, q in [(1, 2), (2, 3), (2, 5), (3, 6)]:
        h = (p + q) / 2.0 - 1.0
        for alpha in [h, h + 0.5, h + 3.0]:
            blocks = surviving_blocks(PlancherelParams(p, q, alpha))
            assert blocks == [()]


def test_surviving_blocks_strict_versus_weak_boundary():
    # at alpha = 2 the r=1, u=(0,) block sits exactly on w_1 = h - alpha
    params = PlancherelParams(2, 5, 2.0)
    assert surviving_blocks(params) == [()]
    assert _filtered_product(params, strict=False) == [(), (0,)]


def _filtered_product(params, strict=True):
    """The block list built the long way: the whole (top+1)^r grid, filtered and sorted."""
    out = [()]
    for r in range(1, params.p + 1):
        slack = params.h - params.alpha - r / 2.0
        top = int(np.floor(slack - 1e-9)) if strict else int(np.floor(slack + 1e-9))
        if top >= 0:
            labels = sorted((u for u in product(range(top + 1), repeat=r) if sum(u) <= top),
                            key=lambda u: (sum(u), u))
            out.extend(labels)
    return out


@pytest.mark.parametrize("p,q,alpha", [
    (1, 2, -5.0), (2, 5, 0.4), (2, 5, 2.0), (3, 6, 0.25), (3, 3, 0.5),
    (4, 12, -3.0), (4, 12, -2.5), (4, 9, -1.0), (5, 8, -2.0),
])
@pytest.mark.parametrize("strict", [True, False])
def test_surviving_blocks_equal_the_filtered_product(p, q, alpha, strict):
    # the weak grid holds the strict one and the labels on w_r = h - alpha
    params = PlancherelParams(p, q, alpha)
    expected = [
        u for u in _filtered_product(params, strict)
        if strict or not u or partial_sums(u)[-1] < params.h - params.alpha - 1e-9
    ]
    assert surviving_blocks(params) == expected


def test_surviving_blocks_budget(monkeypatch):
    # (4, 12, -3) has 551 blocks
    assert len(surviving_blocks(PlancherelParams(4, 12, -3.0))) == 551
    monkeypatch.setattr(plancherel, "BLOCK_BUDGET", 550)
    with pytest.raises(InvalidParams, match="551 blocks"):
        surviving_blocks(PlancherelParams(4, 12, -3.0))
    monkeypatch.undo()
    # a large rank far below the threshold is refused before any enumeration
    with pytest.raises(InvalidParams, match="exceed the budget"):
        surviving_blocks(PlancherelParams(8, 20, -40.0))


def test_blocks_are_sorted_and_finite():
    blocks = surviving_blocks(PlancherelParams(3, 6, 0.25))
    assert blocks[0] == ()
    ranks = [len(u) for u in blocks]
    assert ranks == sorted(ranks)
    for r in set(ranks):
        keys = [(sum(u), u) for u in blocks if len(u) == r]
        assert keys == sorted(keys)
    assert len(blocks) < 40


# ---------------------------------------------------------------------------
# Continuous weight
# ---------------------------------------------------------------------------


def test_weight_is_nonnegative_on_a_grid():
    params = PlancherelParams(2, 5, 2.5)
    for s1 in np.linspace(0.0, 8.0, 17):
        assert continuous_weight_o(params, [s1, 1.3]) >= 0.0
    # coincident parameters kill the pair interaction
    assert continuous_weight_o(params, [1.3, 1.3]) == pytest.approx(0.0, abs=1e-12)


def test_weight_limit_behavior_at_zero_coordinate():
    # generically the 1/|Gamma(i s)|^2 ratio zero makes W vanish at s = 0
    assert continuous_weight_o(PlancherelParams(2, 5, 4.0), [0.0, 1.3]) == 0.0
    # at alpha = (p+q)/2 - 1 the per-coordinate Gamma factor has a
    # matching double pole and the limit is finite and positive
    assert continuous_weight_o(PlancherelParams(2, 5, 2.5), [0.0, 1.3]) > 0.0


def test_weight_symmetries():
    params = PlancherelParams(2, 5, 2.5)
    a = continuous_weight_o(params, [0.7, 2.1])
    assert continuous_weight_o(params, [2.1, 0.7]) == pytest.approx(a)
    assert continuous_weight_o(params, [-0.7, 2.1]) == pytest.approx(a)


def test_weight_equal_rank_case_runs():
    # q = p drops the Gamma-ratio factor entirely
    params = PlancherelParams(2, 2, 2.0)
    assert continuous_weight_o(params, [0.9, 0.4]) > 0.0


def test_weight_keeps_its_logarithm_through_the_pair_factors():
    # (2, 2, 119): the Gamma factors alone pass the float range, W does not
    s = np.array([1.0, 1.001])
    log_gamma = 2 * loggamma(59.0 + 0.5j * s).real.sum()
    pair = (s[0] ** 2 - s[1] ** 2) * math.tanh(math.pi * (s[0] - s[1]) / 2) * math.tanh(
        math.pi * (s[0] + s[1]) / 2
    )
    assert log_gamma > math.log(np.finfo(float).max)
    w = continuous_weight_o(PlancherelParams(2, 2, 119.0), s)
    assert math.log(w) == pytest.approx(log_gamma + math.log(pair), rel=1e-14)
    # (20, 20, 400): an overflowing W is +inf, and a zero pair factor still gives 0.0
    grid = np.column_stack([[0.0, 5.0, 10.0], np.tile(np.arange(2.0, 21.0), (3, 1))])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        weights = continuous_weight_o(PlancherelParams(20, 20, 400.0), grid)
    assert weights.tolist() == [math.inf, 0.0, 0.0]


# ---------------------------------------------------------------------------
# The two primitives of W against SciPy
# ---------------------------------------------------------------------------


def _near_poles(rng, size):
    """x within 1e-9 of a nonpositive integer down to -110, exactly on it included."""
    n = rng.integers(0, 111, size).astype(float)
    return -n + rng.choice([0.0, 1e-9, -1e-9, 3e-10], size)


def test_log_abs_gamma_matches_scipy_at_each_x():
    # one x per call, as W's coordinates take it, and 25 y on a log scale per x
    rng = np.random.default_rng(26)
    xs = np.concatenate([rng.uniform(-110.0, 210.0, 400), _near_poles(rng, 200)])
    worst = 0.0
    for x in xs:
        y = 10.0 ** rng.uniform(-8.0, np.log10(60.0), 25)
        ref = loggamma(x + 1j * y).real
        err = np.abs(gammaval.log_abs_gamma(x, y) - ref) / np.maximum(1.0, np.abs(ref))
        worst = max(worst, float(err.max()))
    assert worst <= 1e-14


def test_log_abs_gamma_reflects_far_below_zero():
    # below x = -100 the reflection formula replaces the shift, whose count would grow with -x
    rng = np.random.default_rng(27)
    for lo in (-130.0, -1e4, -1e6, -1e12):
        xs = rng.uniform(lo, -100.0, 100)
        xs = np.concatenate([xs, np.round(xs[:40]) + rng.choice([0.0, 1e-9, -1e-9], 40)])
        for x in xs:
            y = 10.0 ** rng.uniform(-8.0, np.log10(60.0), 25)
            ref = loggamma(x + 1j * y).real
            assert np.all(np.abs(gammaval.log_abs_gamma(x, y) - ref)
                          <= 1e-14 * np.maximum(1.0, np.abs(ref)))
    # an array across the cut: each side by its own route
    x = np.array([-1e9 + 0.25, -100.5, -99.5, -90.25])
    y = np.array([[1e-8], [0.7], [60.0]])
    ref = loggamma(x + 1j * y).real
    assert np.all(np.abs(gammaval.log_abs_gamma(x, y) - ref)
                  <= 1e-14 * np.maximum(1.0, np.abs(ref)))


def _terms_gate(z, ref):
    """1e-14 relative, plus one ulp of Stirling's largest term, |z| log|z|.

    Where log|Gamma| crosses 0 at large |z| those terms cancel, and both
    SciPy and the numpy series are off the exact value by about that ulp:
    at z = 23.3 + 60i, where log|Gamma| = 0.548, by 1.3e-14 and 1.5e-14.
    """
    size = np.abs(z)
    return 1e-14 * np.maximum(1.0, np.abs(ref)) + np.finfo(float).eps * size * np.log1p(size)


def test_log_abs_gamma_matches_scipy_on_a_grid_and_on_label_columns():
    y = np.geomspace(1e-8, 60.0, 40)[:, None]
    x = np.concatenate([np.linspace(-110.0, 210.0, 641), -np.arange(111.0) + 1e-9])
    for xk in x:
        z = xk + 1j * y
        ref = loggamma(z).real
        assert np.all(np.abs(gammaval.log_abs_gamma(xk, y) - ref) <= _terms_gate(z, ref))
    # an array of x, as Q's per-label columns: each entry is shifted by its own count,
    # so it gets the bits it gets alone
    for c in np.linspace(-30.0, 30.0, 61):
        cols = c + np.arange(12.0)
        z = cols + 1j * y
        ref = loggamma(z).real
        got = gammaval.log_abs_gamma(cols, y)
        assert got.shape == (40, 12)
        assert np.all(np.abs(got - ref) <= _terms_gate(z, ref))
        for j, x1 in enumerate(cols):
            assert np.array_equal(got[:, j], gammaval.log_abs_gamma(x1, y)[:, 0])
    # entries 103 apart: the 3.5 entry takes 5 shifts, not -99.5's 108, so it stays at 1e-14
    x = np.array([-99.5, 3.5])
    for y1 in np.concatenate([[0.7], y[:, 0]]):
        ref = loggamma(x + 1j * y1).real
        got = gammaval.log_abs_gamma(x, y1)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


def test_c_ratio_matches_scipy_for_every_d():
    # |Gamma(i s)| through Gamma(1 + i s) = i s Gamma(i s): SciPy's loggamma at i s itself
    # is off by up to 2e-14 near s = 1, which the elementary form is not
    rng = np.random.default_rng(26)
    for d in range(1, 41):
        s = np.concatenate([10.0 ** rng.uniform(-6.0, np.log10(50.0), 500),
                            np.geomspace(1e-6, 50.0, 200)])
        ref = 2 * loggamma(d / 2 + 1j * s).real - 2 * loggamma(1 + 1j * s).real + 2 * np.log(s)
        value = plancherel._c_ratio(d, s)
        assert np.all(value.order == 0) and np.all(value.sign == 1)
        assert np.all(np.abs(value.log_abs - ref) <= 2e-14 * np.maximum(1.0, np.abs(ref))), d


def test_c_ratio_has_the_gamma_form_limit_at_zero():
    s = np.array([0.0, 1e-13, -1e-12, 0.5])
    for d in range(1, 41):
        value = plancherel._c_ratio(d, s)
        gamma_form = (plancherel._abs_gamma_sq(d / 2, 1.0, s)
                      / plancherel._abs_gamma_sq(0.0, 1.0, s))
        assert value.order.tolist() == [-2, -2, -2, 0]
        assert np.array_equal(value.order, gamma_form.order)
        assert np.array_equal(value.log_abs[:3], gamma_form.log_abs[:3])
        # the coefficient of s^2: (d/2 - 1)!^2 for even d,
        # pi prod_{k < (d-1)/2} (k + 1/2)^2 for odd d
        coeff = math.factorial(d // 2 - 1) ** 2 if d % 2 == 0 else math.pi * math.prod(
            (k + 0.5) ** 2 for k in range((d - 1) // 2))
        assert value.log_abs[0] == pytest.approx(math.log(coeff), rel=1e-14, abs=1e-15)


# ---------------------------------------------------------------------------
# Block coefficients
# ---------------------------------------------------------------------------


def _row(u):
    """One block label as the (1, r) row of a label stack."""
    return np.array([u], dtype=np.int64).reshape(1, len(u))


def test_coeff_c_r0_value():
    # C at r = 0 is 2^p
    assert coeff_C(_row(()), 2).to_float()[0] == pytest.approx(4.0)
    assert coeff_C(_row(()), 3).to_float()[0] == pytest.approx(8.0)
    with pytest.raises(InvalidParams):
        coeff_C(_row((0, 0, 0)), 2)


def test_r0_product_reproduces_continuous_weight():
    p, q, alpha = 2, 5, 2.5
    params = PlancherelParams(p, q, alpha)
    cv = (coeff_C(_row(()), p) * coeff_V_o(alpha, _row(()), p, q)).to_float()[0]
    prefactor = 1.0
    for m in range(1, p + 1):
        prefactor *= 1.0 / gamma_value(alpha - m + 1).to_float()
    ratios = []
    for s in ([0.7, 0.3], [1.9, 1.1], [3.3, 0.9], [5.0, 2.2]):
        q0 = coeff_Q_o(alpha, _row(()), np.asarray(s), p, q).to_float()
        w = continuous_weight_o(params, s)
        ratios.append(cv * q0 / (prefactor * w))
    assert np.max(np.abs(np.diff(ratios))) < 1e-8
    # the constant of proportionality is the combinatorial factor 2^p
    assert ratios[0] == pytest.approx(2.0**p, rel=1e-10)


def _classify(alpha, u, p=2, q=5):
    cv = (coeff_C(_row(u), p) * coeff_V_o(alpha, _row(u), p, q))[0]
    if cv.is_pole:
        return "pole"
    if cv.is_zero:
        return "zero"
    return "finite"


def test_degeneration_at_minus_one():
    # every low-rank block is annihilated, no poles anywhere, and the
    # full-rank layer keeps specific finite survivors
    for u in [(), (0,), (1,), (2,), (3,)]:
        assert _classify(-1.0, u) == "zero"
    finite = {
        u
        for u in [(a, b) for a in range(4) for b in range(4)]
        if _classify(-1.0, u) == "finite"
    }
    assert (0, 0) in finite and (2, 0) in finite and (0, 2) in finite
    assert (1, 0) not in finite and (0, 1) not in finite and (1, 1) not in finite


def test_degeneration_at_minus_two():
    for u in [(), (0,), (1,), (2,), (3,)]:
        assert _classify(-2.0, u) == "zero"
    assert _classify(-2.0, (0, 0)) == "finite"
    assert _classify(-2.0, (1, 1)) == "finite"
    assert _classify(-2.0, (1, 0)) == "zero"


def test_no_degeneration_at_generic_alpha():
    for u in [(), (0,), (0, 0)]:
        assert _classify(1.3, u) == "finite"


def test_unitary_degeneration_only_at_even_negatives():
    def classify_u(alpha, w):
        c, v, _ = coeff_CVQ_u(alpha, w, [0.7, 0.3][: 2 - len(w)], 2, 5)
        cv = c * v
        if cv.is_pole:
            return "pole"
        if cv.is_zero:
            return "zero"
        return "finite"

    # even negative alpha degenerates: low-rank zero, some full-rank finite
    for w in [(), (0,), (1,)]:
        assert classify_u(-2.0, w) == "zero"
    assert classify_u(-2.0, (0, 1)) == "finite"
    # odd negative alpha does not degenerate at all
    for w in [(), (0,), (0, 1)]:
        assert classify_u(-1.0, w) == "finite"


def test_unitary_repeated_labels_vanish():
    c, v, _ = coeff_CVQ_u(2.5, (1, 1), [], 2, 5)
    assert (c * v).is_zero


def test_unitary_labels_are_checked_as_a_label_row():
    # a label that is not an integer is refused, not rounded down or parsed
    for w in ([1.7], ["2"], [1, 0.5], [[1]]):
        with pytest.raises(InvalidParams):
            coeff_CVQ_u(2.5, w, [0.7], 2, 5)
    for w in ([-1], [0, 1, 2]):
        with pytest.raises(InvalidParams):
            coeff_CVQ_u(2.5, w, [], 2, 5)
    # integer sequences of every kind, and the empty label, are accepted
    for w, same in [(np.array([1], dtype=np.int32), (1,)), (range(2), (0, 1)), ((), [])]:
        got, expect = coeff_CVQ_u(2.5, w, [0.7, 0.3][len(same):], 2, 5), coeff_CVQ_u(
            2.5, same, [0.7, 0.3][len(same):], 2, 5)
        assert [x.to_float() for x in got] == [x.to_float() for x in expect]


# ---------------------------------------------------------------------------
# Stacked C*V and W against factor-by-factor references
# ---------------------------------------------------------------------------

_POLE_TOL = 1e-9


def _ref_gamma(x):
    """(log |Gamma(x)|, sign, net order) by math.lgamma, with the unit-rate pole at -n."""
    n = round(x)
    if n <= 0 and abs(x - n) <= _POLE_TOL:
        return -math.lgamma(1 - n), (-1) ** (-n), 1
    sign = 1 if x > 0 else (-1) ** math.ceil(-x)
    return math.lgamma(x), sign, 0


def _ref_poch(a, length):
    """(a)_length one factor at a time; factors within 1e-9 of zero are unit-rate zeros."""
    log_abs, sign, order = 0.0, 1, 0
    for i in range(length):
        x = a + i
        if abs(x) <= _POLE_TOL:
            order -= 1
        else:
            log_abs += math.log(abs(x))
            sign *= 1 if x > 0 else -1
    return log_abs, sign, order


@functools.cache
def _reference_cv(alpha, u, p, q):
    """C*V of one label tuple as (net order, sign, log magnitude), factor by factor."""
    acc = [0.0, 1, 0]

    def times(factor, power=1):
        acc[0] += power * factor[0]
        acc[1] *= factor[1]
        acc[2] += power * factor[2]

    r = len(u)
    w = [sum(u[: j + 1]) + (j + 1) / 2 for j in range(r)]
    w_prev = [0.0] + w[:-1]
    half = (p + q) / 2
    const = 2.0 ** (p - r) * math.factorial(p) * (2 * math.pi) ** r / math.factorial(p - r)
    times((math.log(const), 1, 0))
    for uk in u:
        times((-math.lgamma(uk + 1), (-1) ** uk, 0))
    for mm in range(1, p + 1):
        times(_ref_gamma(alpha - mm + 1), -1)
    for k in range(r):
        times(_ref_gamma(alpha - p + 1 + 2 * w[k]))
        times(_ref_gamma(-alpha + q - 1 - 2 * w[k]))
        times(_ref_gamma(-alpha + half - 2 * w[k]), -1)
        times(_ref_poch(alpha - half + w[k] + w_prev[k] + 0.5, u[k]), -1)
        for m in range(k + 1, r):
            times(_ref_gamma(0.5 + w[m] - w[k]))
            times(_ref_gamma(w[m] - w[k]), -1)
            times(_ref_poch(0.5 + w_prev[k] - w[m], u[k]), -1)
            times(_ref_gamma(0.5 - alpha + half - w[k] - w[m]))
            times(_ref_gamma(-alpha + half - w[k] - w[m]), -1)
            times(_ref_poch(alpha - half + w[m] + w_prev[k] + 0.5, u[k]), -1)
    return acc[2], acc[1], acc[0]


def _reference_status(alpha, u, p, q):
    order = _reference_cv(alpha, u, p, q)[0]
    return "pole" if order > 0 else ("zero" if order < 0 else "finite")


_CV_SWEEP = [
    (4, 12, -3.0), (4, 12, -2.5), (5, 12, -12.0), (3, 7, -1.0), (2, 5, 0.4), (1, 3, -200.0),
    (4, 12, 0.37), (3, 3, -4.0),
]


@pytest.mark.parametrize("p,q,alpha", _CV_SWEEP)
@pytest.mark.parametrize("strict", [True, False])
def test_stacked_cv_matches_factor_by_factor_reference(p, q, alpha, strict):
    params = PlancherelParams(p, q, alpha)
    blocks = surviving_blocks(params) if strict else _filtered_product(params, strict=False)
    checked = 0
    for r, labels in label_stacks(blocks):
        assert labels.shape == (sum(len(u) == r for u in blocks), r)
        cv = coeff_C(labels, p) * coeff_V_o(alpha, labels, p, q)
        assert isinstance(cv, GammaValue) and cv.order.shape == (len(labels),)
        for i, u in enumerate(labels.tolist()):
            order, sign, log_abs = _reference_cv(alpha, tuple(u), p, q)
            assert cv.order[i] == order, u
            assert cv.sign[i] == sign, u
            assert abs(cv.log_abs[i] - log_abs) <= 1e-12 * max(abs(log_abs), 1.0), u
            checked += 1
    assert checked == len(blocks)


@pytest.mark.parametrize("p,q", [(4, 12), (3, 3)])
@pytest.mark.parametrize("alpha", [-3.0 - 1e-10, -3.0 + 1e-10, -2.5 + 1e-10])
def test_cv_near_a_degeneration_matches_the_reference(p, q, alpha):
    # 1e-10 off a degeneration each Gamma within 1e-9 of a pole is its unit-rate limit, so
    # orders and signs are exact; logs differ from the factor-by-factor reference by about
    # the offset, up to 1.4e-10 relative
    blocks = surviving_blocks(PlancherelParams(p, q, alpha))
    for _, labels in label_stacks(blocks):
        cv = coeff_C(labels, p) * coeff_V_o(alpha, labels, p, q)
        for i, u in enumerate(labels.tolist()):
            order, sign, log_abs = _reference_cv(alpha, tuple(u), p, q)
            assert (cv.order[i], cv.sign[i]) == (order, sign), u
            assert abs(cv.log_abs[i] - log_abs) <= 1e-9 * max(abs(log_abs), 1.0), u


def test_cv_takes_one_gamma_table_per_lattice(monkeypatch):
    # per rank, C reads one table of Gamma at half-integers and V one each from alpha and
    # -alpha: a few hundred Gamma values for all 551 blocks
    entries = []

    def spy(x):
        entries.append(np.size(x))
        return gamma_value(x)

    monkeypatch.setattr(plancherel, "gamma_value", spy)
    monkeypatch.setattr(gammaval, "gamma_value", spy)  # where pochhammer_value finds it
    p, q, alpha = 4, 12, -3.0
    stacks = label_stacks(surviving_blocks(PlancherelParams(p, q, alpha)))
    for _, labels in stacks:
        coeff_C(labels, p) * coeff_V_o(alpha, labels, p, q)
    assert len(entries) == 3 * len(stacks)
    assert sum(entries) <= 1000


def test_a_block_index_is_the_stack_of_one():
    p, q, alpha = 4, 12, -2.5
    blocks = surviving_blocks(PlancherelParams(p, q, alpha))
    stacks = dict(label_stacks(blocks))
    for u in [(), (3,), (1, 0, 2), (0, 2, 0, 1)]:
        single = coeff_C(_row(u), p) * coeff_V_o(alpha, _row(u), p, q)
        assert isinstance(single, GammaValue) and single.order.shape == (1,)
        labels = stacks[len(u)]
        row = labels.tolist().index(list(u))
        stacked = (coeff_C(labels, p) * coeff_V_o(alpha, labels, p, q))[row]
        assert (single.order[0], single.sign[0], single.log_abs[0]) == (
            stacked.order, stacked.sign, stacked.log_abs
        )
    # a label tuple is not a stack: one label is a (1, r) row
    with pytest.raises(InvalidParams):
        coeff_C((3,), p)


def test_label_stacks_keep_block_order():
    blocks = surviving_blocks(PlancherelParams(3, 6, 0.25))
    stacks = label_stacks(blocks)
    assert [r for r, _ in stacks] == sorted({len(u) for u in blocks})
    flat = [tuple(u) for _, labels in stacks for u in labels.tolist()]
    assert flat == blocks


def test_stacked_labels_are_validated():
    with pytest.raises(InvalidParams):
        coeff_C(np.array([[0, -1]]), 2)
    with pytest.raises(InvalidParams):
        coeff_V_o(1.0, np.array([[0.5, 1.0]]), 2, 5)
    with pytest.raises(InvalidParams):
        coeff_V_o(1.0, np.array([0, 1]), 2, 5)
    with pytest.raises(InvalidParams):
        coeff_C(np.zeros((4, 3), dtype=int), 2)
    # Q_o takes one label row through the same check
    for label in (np.zeros((2, 1), dtype=int), (1,), _row((0, 0, 0)), _row((-1,)), [[0.5]]):
        with pytest.raises(InvalidParams):
            coeff_Q_o(1.0, label, [0.5], 2, 5)


def test_large_labels_do_not_overflow():
    # u! past 170 overflows a float; both orthogonal and unitary C take log u! instead
    c = coeff_C(_row((200,)), 1)[0]
    assert c.log_abs == pytest.approx(math.log(2 * math.pi) - math.lgamma(201), rel=1e-14)
    assert c.sign == 1
    cu, _, _ = coeff_CVQ_u(-200.0, (181,), [], 1, 3)
    assert cu.log_abs == pytest.approx(math.log(2 * math.pi) - math.lgamma(182), rel=1e-14)
    assert cu.sign == -1
    # nor does p! past p = 170 in the constant 2^(p-r) (2 pi)^r p! / (p-r)!
    cu, _, qu = coeff_CVQ_u(400.0, range(171), [], 171, 171)
    log_c = (math.lgamma(172) + 171 * math.log(2 * math.pi)
             - sum(math.lgamma(k + 1) for k in range(171))
             + sum(2 * math.log(l - k) for k in range(171) for l in range(k + 1, 171)))
    assert cu.log_abs == pytest.approx(log_c, rel=1e-12)
    assert (cu.sign, cu.order, qu.to_float()) == (-1, 0, 1.0)


def test_q_past_the_float_range_keeps_its_logarithm():
    # log Q is about 4.3e4 here, far past the float range
    s = np.linspace(0.1, 3.0, 171)
    _, _, qu = coeff_CVQ_u(400.0, (), s, 171, 171)
    # r = 0 and p = q: per coordinate |Gamma(1/2 + i s/2)|^4 |Gamma(59/2 + i s/2)|^2
    # / |Gamma(i s)|^2, times the squared Vandermonde in s^2
    per_coordinate = (4 * loggamma(0.5 + 0.5j * s).real + 2 * loggamma(29.5 + 0.5j * s).real
                      - 2 * loggamma(1j * s).real)
    k, l = np.triu_indices(s.size, 1)
    log_q = per_coordinate.sum() + 2 * np.log(s[l] ** 2 - s[k] ** 2).sum()
    assert (qu.sign, qu.order) == (1, 0)
    assert qu.log_abs == pytest.approx(log_q, rel=1e-12)
    assert qu.log_abs == pytest.approx(42720.8, abs=0.1)
    # the orthogonal Q there: |Gamma(115 + i s/2)|^2 per coordinate times the pair factors,
    # whose float product alone overflows
    qo = coeff_Q_o(400.0, _row(()), s, 171, 171)
    pairs = (s[l] ** 2 - s[k] ** 2) * np.tanh(np.pi * (s[l] - s[k]) / 2) * np.tanh(
        np.pi * (s[l] + s[k]) / 2
    )
    log_qo = 2 * loggamma(115 + 0.5j * s).real.sum() + np.log(pairs).sum()
    assert (qo.sign, qo.order) == (1, 0)
    assert qo.log_abs == pytest.approx(log_qo, rel=1e-12)


def _reference_weight(params, point):
    """W at one point by the per-coordinate formula, s = 0 limits by explicit order counting."""
    p, q, alpha = params.p, params.q, params.alpha
    arg0 = (alpha - (p + q) / 2 + 1) / 2
    log_acc, order = 0.0, 0
    for sk in point:
        if abs(sk) > 1e-12:
            log_acc += 2 * loggamma(arg0 + 0.5j * sk).real
            if q > p:
                log_acc += 2 * loggamma((q - p) / 2 + 1j * sk).real
                log_acc -= 2 * loggamma(1j * sk).real
            continue
        # |Gamma(arg0 + i eps/2)|^2 and, for q > p, |Gamma((q-p)/2)|^2 |i eps|^2
        n = round(arg0)
        if n <= 0 and abs(arg0 - n) <= _POLE_TOL:
            log_acc += -2 * math.lgamma(1 - n) - 2 * math.log(0.5)
            order += 2
        else:
            log_acc += 2 * math.lgamma(arg0)
        if q > p:
            log_acc += 2 * math.lgamma((q - p) / 2)
            order -= 2
    if order > 0:
        raise PoleOnContour("net pole")
    if order < 0:
        return 0.0
    pairs = 1.0
    for k in range(p):
        for l in range(k + 1, p):
            sk, sl = point[k], point[l]
            pairs *= (sk**2 - sl**2) * math.tanh(math.pi * (sk - sl) / 2) * math.tanh(
                math.pi * (sk + sl) / 2
            )
    return math.exp(log_acc) * pairs


@pytest.mark.parametrize("p,q,alpha", [
    (5, 12, 3.0),   # s = 0 gives an exact zero
    (2, 5, 2.5),    # alpha = h: the double pole cancels, finite limit
    (2, 5, 4.0),
    (2, 2, 2.0),    # q = p: no ratio factor, finite limit
    (3, 3, 0.5),
    (1, 3, 2.0),
])
def test_stacked_weight_matches_per_point_reference(p, q, alpha):
    params = PlancherelParams(p, q, alpha)
    rng = np.random.default_rng(p * 100 + q)
    points = rng.uniform(-6.0, 6.0, size=(200, p))
    points[:20, 0] = 0.0
    points[20:25] = 0.0
    points[25:30, -1] = points[25:30, 0]  # coincident coordinates: the pair factor vanishes
    weights = continuous_weight_o(params, points)
    assert weights.shape == (200,)
    for point, w in zip(points.tolist(), weights.tolist()):
        ref = _reference_weight(params, point)
        if ref == 0.0 and 0.0 in point:
            assert w == 0.0
        else:
            assert abs(w - ref) <= 1e-12 * abs(ref) + 1e-300
        assert continuous_weight_o(params, point) == w
    assert isinstance(continuous_weight_o(params, points[30]), float)


def test_stacked_weight_exact_zero_and_pole_rows():
    # (5, 12, 3): generic alpha, q > p, so a zero coordinate gives an exact 0.0
    params = PlancherelParams(5, 12, 3.0)
    s1 = [0.0, 0.7, 1.3, 6.1, 9.9]
    grid = np.column_stack([s1, np.tile([2.0, 3.0, 4.0, 5.0], (len(s1), 1))])
    weights = continuous_weight_o(params, grid)
    assert weights[0] == 0.0 and np.all(weights[1:] > 0.0)
    # q = p and alpha = h: |Gamma(i s/2)|^2 has a double pole at s = 0 with nothing to cancel it
    params = PlancherelParams(2, 2, 1.0)
    off = np.array([[0.7, 1.9], [1.3, 0.2]])
    assert np.all(np.isfinite(continuous_weight_o(params, off)))
    with pytest.raises(PoleOnContour):
        continuous_weight_o(params, np.vstack([off, [[0.0, 1.1]]]))
    with pytest.raises(PoleOnContour):
        _reference_weight(params, [0.0, 1.1])
    with pytest.raises(InvalidParams):
        continuous_weight_o(params, np.zeros((3, 3)))
    # a non-finite coordinate is refused at every p, not turned into NaN
    for bad in ([[np.inf, 1.0]], [[0.5, np.nan]]):
        with pytest.raises(InvalidParams, match="finite"):
            continuous_weight_o(params, bad)
    with pytest.raises(InvalidParams, match="finite"):
        continuous_weight_o(PlancherelParams(1, 3, 2.0), [np.inf])


@pytest.mark.parametrize("p,q,alpha", _CV_SWEEP + [(2, 2, -2.0)])
def test_degeneration_report_matches_the_reference(capsys, p, q, alpha):
    code = cli.main(["plancherel", "degeneration", "--p", str(p), "--q", str(q),
                     "--alpha", f"{alpha:g}"])
    doc = json.loads(capsys.readouterr().out)
    blocks = surviving_blocks(PlancherelParams(p, q, alpha))
    rows = doc["inputs"]["blocks"]
    assert [(row["r"], tuple(row["u"])) for row in rows] == [(len(u), u) for u in blocks]
    statuses = [_reference_status(alpha, u, p, q) for u in blocks]
    assert [row["status"] for row in rows] == statuses
    low_rank_alive = sum(s != "zero" for u, s in zip(blocks, statuses) if len(u) < p)
    full_rank_finite = sum(s == "finite" for u, s in zip(blocks, statuses) if len(u) == p)
    if alpha == round(alpha):  # the rule: low-rank blocks vanish, some full-rank one is finite
        assert full_rank_finite > 0 and doc["observed"] == low_rank_alive
        ok = low_rank_alive == 0
    else:  # no block is a pole
        assert doc["observed"] == statuses.count("pole")
        ok = "pole" not in statuses
    # at q = p some low-rank blocks survive a negative integer alpha: the check fails there
    assert ok == ((p, q) != (3, 3) and (p, q) != (2, 2))
    assert doc["verdict"] == ("pass" if ok else "fail")
    assert code == (cli.EXIT_PASS if ok else cli.EXIT_FAIL)


def test_degeneration_at_very_negative_alpha(capsys):
    # (-1)^u / u! overflowed a float past u = 170 and crashed the command
    code = cli.main(["plancherel", "degeneration", "--p", "1", "--q", "3", "--alpha", "-200"])
    doc = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_PASS
    assert doc["verdict"] == "pass"
    rows = doc["inputs"]["blocks"]
    assert len(rows) == 202
    assert rows[0] == {"r": 0, "u": [], "status": "zero"}
    assert sum(row["status"] == "finite" for row in rows if row["r"] == 1) == 200


# ---------------------------------------------------------------------------
# Residual densities Q against recorded values
# ---------------------------------------------------------------------------

# Rows [family, p, q, alpha, label, s, Q] over (p, q) in {(2,5), (3,6), (2,2), (1,3)},
# alpha = -3..3.5 by 0.5 and labels of rank 0-2, recorded from the factor-by-factor
# implementation (a Python loop per coordinate with separate s = 0 limit helpers).
# Q is "pole" where PoleOnContour was raised.  Each (family, p, q, alpha, label) has a
# point with no zero coordinate, one with s_1 = 0 and, with two or more coordinates,
# the origin.
_Q_PINS = json.loads((Path(__file__).parent / "data" / "q_pins.json").read_text())


def _q(family, alpha, label, s, p, q):
    if family == "o":
        return coeff_Q_o(alpha, _row(label), np.asarray(s), p, q).to_float()
    return coeff_CVQ_u(alpha, label, s, p, q)[2].to_float()


def test_q_matches_recorded_values():
    assert len(_Q_PINS) == 1428
    statuses = {"pole": 0, "zero": 0, "finite": 0}
    for family, p, q, alpha, label, s, pinned in _Q_PINS:
        where = (family, p, q, alpha, label, s)
        if pinned == "pole":
            with pytest.raises(PoleOnContour):
                _q(family, alpha, label, s, p, q)
            statuses["pole"] += 1
            continue
        value = _q(family, alpha, label, s, p, q)
        assert isinstance(value, float), where
        if pinned == 0.0:
            assert value == 0.0, where
            statuses["zero"] += 1
        else:
            assert abs(value - pinned) <= 1e-13 * abs(pinned), where
            statuses["finite"] += 1
    assert all(statuses.values())


def _moved(s, eps):
    """``s`` with its j-th zero coordinate moved to eps * (j + 1)."""
    out, j = [], 0
    for x in s:
        if x == 0.0:
            j += 1
            x = eps * j
        out.append(x)
    return out


def test_q_at_a_zero_coordinate_is_the_limit():
    checked = 0
    for family, p, q, alpha, label, s, pinned in _Q_PINS:
        if pinned == "pole" or 0.0 not in s:
            continue
        near = _q(family, alpha, label, _moved(s, 1e-6), p, q)
        if pinned == 0.0:
            # a zero of order >= 2 in each moved coordinate: Q(1e-6) / Q(1e-2) <= 1e-8
            assert abs(near) <= 1e-6 * abs(_q(family, alpha, label, _moved(s, 1e-2), p, q))
        else:
            assert abs(near - pinned) <= 1e-6 * abs(pinned), (family, p, q, alpha, label, s)
        checked += 1
    assert checked > 500


# ---------------------------------------------------------------------------
# Rank-one spectral probe
# ---------------------------------------------------------------------------


def test_rank1_probe_parameter_validation():
    with pytest.raises(InvalidParams):
        rank1_plancherel_probe(1, 4.0)
    with pytest.raises(InvalidParams):
        rank1_plancherel_probe(3, 0.5)  # needs alpha > (1+q)/2 - 1


def test_rank1_probe_refuses_an_infinite_alpha():
    # it used to run to 1024 nodes and raise OracleNotConverged, "differ by nan"
    with pytest.raises(InvalidParams, match="alpha must be finite"):
        rank1_plancherel_probe(3, math.inf)


def test_gauss_jacobi_rule_matches_scipy():
    # a = (q - 3)/2 at q = 2, 3, 4 and 30, up to the probe's 1024 nodes
    for a in (-0.5, 0.0, 0.5, 13.5):
        for m in (32, 64, 128, 512, 1024):
            x, w = plancherel._gauss_jacobi(m, a)
            ref_x, ref_w = roots_jacobi(m, a, a)
            ref_w = ref_w / ref_w.sum()
            assert np.max(np.abs(x - ref_x)) <= 2e-15, (a, m)
            # far inside the 1e-10 to which the probe asks successive rules to agree
            assert np.max(np.abs(w - ref_w)) <= 5e-11 * ref_w.max(), (a, m)


def test_rank1_probe_flags_starved_oracle(monkeypatch):
    # at t = 10 the target is ~1e-17 of the t = 0 integral: no rule up to
    # 1024 nodes resolves it, and the probe says so instead of guessing
    monkeypatch.setattr(plancherel, "_RANK1_T_GRID", (10.0,))
    with pytest.raises(OracleNotConverged):
        rank1_plancherel_probe(3, 4.0)


def test_rank1_probe_resynthesizes_the_kernel():
    rep = rank1_plancherel_probe(3, 4.0)
    assert rep.max_residual < 1e-8
    assert rep.normalization > 0
    assert rep.oracle_error <= 1e-10
    assert 64 <= rep.nodes <= 1024
    assert rep.residuals.shape == rep.t_grid.shape


def test_rank1_probe_is_deterministic():
    a = rank1_plancherel_probe(4, 2.5)
    b = rank1_plancherel_probe(4, 2.5)
    assert np.array_equal(a.residuals, b.residuals)
    assert (a.nodes, a.oracle_error, a.s_step_error) == (b.nodes, b.oracle_error, b.s_step_error)


@pytest.mark.parametrize("alpha", [1.2, 1.01])
def test_rank1_s_step_error_covers_residual_near_threshold(alpha):
    # near alpha = (q-1)/2 the weight peaks too narrowly for the s-step;
    # more nodes cannot help, the half-grid estimate must flag it
    rep = rank1_plancherel_probe(3, alpha)
    assert rep.oracle_error <= 1e-10
    assert rep.max_residual > 1e-4
    assert rep.s_step_error >= rep.max_residual

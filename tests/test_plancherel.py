import functools
import json
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.special import loggamma

from berezin_lab import cli, plancherel
from berezin_lab.errors import InvalidParams, OracleNotConverged, PoleOnContour
from berezin_lab.gammaval import GammaValue, gamma_value
from berezin_lab.plancherel import (
    PlancherelParams,
    block_index,
    coeff_C,
    coeff_CVQ_u,
    coeff_Q_o,
    coeff_V_o,
    continuous_weight_o,
    label_stacks,
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


def test_block_index_weights():
    b = block_index((2, 0, 1))
    assert b.r == 3
    assert b.u == (2, 0, 1)
    assert b.w == pytest.approx((2.5, 3.0, 4.5))
    with pytest.raises(InvalidParams):
        block_index((1, -1))


def test_surviving_blocks_inventory():
    labels = {
        (b.r, b.u) for b in surviving_blocks(PlancherelParams(2, 5, 0.5))
    }
    assert labels == {(0, ()), (1, (0,)), (1, (1,)), (2, (0, 0))}
    # alpha = 0.4 loosens the bound to 2.1 and lets w_2 = 2.0 through
    labels = {
        (b.r, b.u) for b in surviving_blocks(PlancherelParams(2, 5, 0.4))
    }
    assert labels == {
        (0, ()),
        (1, (0,)),
        (1, (1,)),
        (2, (0, 0)),
        (2, (0, 1)),
        (2, (1, 0)),
    }


def test_surviving_blocks_above_h_is_continuous_only():
    for p, q in [(1, 2), (2, 3), (2, 5), (3, 6)]:
        h = (p + q) / 2.0 - 1.0
        for alpha in [h, h + 0.5, h + 3.0]:
            blocks = surviving_blocks(PlancherelParams(p, q, alpha))
            assert [(b.r, b.u) for b in blocks] == [(0, ())]


def test_surviving_blocks_strict_versus_weak_boundary():
    # at alpha = 2 the r=1, u=(0,) block sits exactly on w_1 = h - alpha
    params = PlancherelParams(2, 5, 2.0)
    strict = {(b.r, b.u) for b in surviving_blocks(params)}
    weak = {(b.r, b.u) for b in surviving_blocks(params, strict=False)}
    assert strict == {(0, ())}
    assert weak == {(0, ()), (1, (0,))}


def _filtered_product(params, strict=True):
    """The block list built the long way: the whole (top+1)^r grid, filtered and sorted."""
    out = [block_index(())]
    for r in range(1, params.p + 1):
        slack = params.h - params.alpha - r / 2.0
        top = int(np.floor(slack - 1e-9)) if strict else int(np.floor(slack + 1e-9))
        if top >= 0:
            labels = sorted((u for u in product(range(top + 1), repeat=r) if sum(u) <= top),
                            key=lambda u: (sum(u), u))
            out.extend(block_index(u) for u in labels)
    return out


@pytest.mark.parametrize("p,q,alpha", [
    (1, 2, -5.0), (2, 5, 0.4), (2, 5, 2.0), (3, 6, 0.25), (3, 3, 0.5),
    (4, 12, -3.0), (4, 12, -2.5), (4, 9, -1.0), (5, 8, -2.0),
])
@pytest.mark.parametrize("strict", [True, False])
def test_surviving_blocks_equal_the_filtered_product(p, q, alpha, strict):
    params = PlancherelParams(p, q, alpha)
    assert surviving_blocks(params, strict) == _filtered_product(params, strict)


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
    assert blocks[0].r == 0
    ranks = [b.r for b in blocks]
    assert ranks == sorted(ranks)
    for r in set(ranks):
        keys = [(sum(b.u), b.u) for b in blocks if b.r == r]
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


# ---------------------------------------------------------------------------
# Block coefficients
# ---------------------------------------------------------------------------


def test_coeff_c_r0_value():
    # C at r = 0 is 2^p
    assert coeff_C(block_index(()), 2).to_float() == pytest.approx(4.0)
    assert coeff_C(block_index(()), 3).to_float() == pytest.approx(8.0)
    with pytest.raises(InvalidParams):
        coeff_C(block_index((0, 0, 0)), 2)


def test_r0_product_reproduces_continuous_weight():
    p, q, alpha = 2, 5, 2.5
    params = PlancherelParams(p, q, alpha)
    b0 = block_index(())
    cv = (coeff_C(b0, p) * coeff_V_o(alpha, b0, p, q)).to_float()
    prefactor = 1.0
    for m in range(1, p + 1):
        prefactor *= 1.0 / gamma_value(alpha - m + 1).to_float()
    ratios = []
    for s in ([0.7, 0.3], [1.9, 1.1], [3.3, 0.9], [5.0, 2.2]):
        q0 = coeff_Q_o(alpha, b0, np.asarray(s), p, q)
        w = continuous_weight_o(params, s)
        ratios.append(cv * q0 / (prefactor * w))
    assert np.max(np.abs(np.diff(ratios))) < 1e-8
    # the constant of proportionality is the combinatorial factor 2^p
    assert ratios[0] == pytest.approx(2.0**p, rel=1e-10)


def _classify(alpha, u, p=2, q=5):
    cv = coeff_C(block_index(u), p) * coeff_V_o(alpha, block_index(u), p, q)
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
]


@pytest.mark.parametrize("p,q,alpha", _CV_SWEEP)
@pytest.mark.parametrize("strict", [True, False])
def test_stacked_cv_matches_factor_by_factor_reference(p, q, alpha, strict):
    blocks = surviving_blocks(PlancherelParams(p, q, alpha), strict)
    checked = 0
    for r, labels in label_stacks(blocks):
        assert labels.shape == (sum(b.r == r for b in blocks), r)
        cv = coeff_C(labels, p) * coeff_V_o(alpha, labels, p, q)
        assert isinstance(cv, GammaValue) and cv.order.shape == (len(labels),)
        for i, u in enumerate(labels.tolist()):
            order, sign, log_abs = _reference_cv(alpha, tuple(u), p, q)
            assert cv.order[i] == order, u
            assert cv.sign[i] == sign, u
            assert abs(cv.log_abs[i] - log_abs) <= 1e-12 * max(abs(log_abs), 1.0), u
            checked += 1
    assert checked == len(blocks)


def test_a_block_index_is_the_stack_of_one():
    p, q, alpha = 4, 12, -2.5
    blocks = surviving_blocks(PlancherelParams(p, q, alpha))
    stacks = dict(label_stacks(blocks))
    for u in [(), (3,), (1, 0, 2), (0, 2, 0, 1)]:
        b = block_index(u)
        single = coeff_C(b, p) * coeff_V_o(alpha, b, p, q)
        assert isinstance(single, GammaValue) and single.order.shape == ()
        labels = stacks[b.r]
        row = labels.tolist().index(list(u))
        stacked = (coeff_C(labels, p) * coeff_V_o(alpha, labels, p, q))[row]
        assert (single.order, single.sign, single.log_abs) == (
            stacked.order, stacked.sign, stacked.log_abs
        )


def test_label_stacks_keep_block_order():
    blocks = surviving_blocks(PlancherelParams(3, 6, 0.25))
    stacks = label_stacks(blocks)
    assert [r for r, _ in stacks] == sorted({b.r for b in blocks})
    flat = [(r, tuple(u)) for r, labels in stacks for u in labels.tolist()]
    assert flat == [(b.r, b.u) for b in blocks]


def test_stacked_labels_are_validated():
    with pytest.raises(InvalidParams):
        coeff_C(np.array([[0, -1]]), 2)
    with pytest.raises(InvalidParams):
        coeff_V_o(1.0, np.array([[0.5, 1.0]]), 2, 5)
    with pytest.raises(InvalidParams):
        coeff_V_o(1.0, np.array([0, 1]), 2, 5)
    with pytest.raises(InvalidParams):
        coeff_C(np.zeros((4, 3), dtype=int), 2)


def test_large_labels_do_not_overflow():
    # u! past 170 overflows a float; both orthogonal and unitary C take log u! instead
    c = coeff_C(block_index((200,)), 1)
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
    assert (cu.sign, cu.order, qu) == (-1, 0, 1.0)


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


@pytest.mark.parametrize("p,q,alpha", _CV_SWEEP + [(3, 3, -4.0), (2, 2, -2.0)])
def test_degeneration_report_matches_the_reference(capsys, p, q, alpha):
    code = cli.main(["plancherel", "degeneration", "--p", str(p), "--q", str(q),
                     "--alpha", f"{alpha:g}"])
    doc = json.loads(capsys.readouterr().out)
    blocks = surviving_blocks(PlancherelParams(p, q, alpha))
    rows = doc["inputs"]["blocks"]
    assert [(row["r"], tuple(row["u"])) for row in rows] == [(b.r, b.u) for b in blocks]
    statuses = [_reference_status(alpha, b.u, p, q) for b in blocks]
    assert [row["status"] for row in rows] == statuses
    low_rank_alive = sum(s != "zero" for b, s in zip(blocks, statuses) if b.r < p)
    full_rank_finite = sum(s == "finite" for b, s in zip(blocks, statuses) if b.r == p)
    assert doc["observed"] == low_rank_alive
    if alpha == round(alpha):
        ok = low_rank_alive == 0 and full_rank_finite > 0
    else:
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
        return coeff_Q_o(alpha, block_index(label), np.asarray(s), p, q)
    return coeff_CVQ_u(alpha, label, s, p, q)[2]


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
    with pytest.raises(InvalidParams):
        rank1_plancherel_probe(3, 4.0, n_quad=10)


def test_rank1_probe_flags_starved_oracle():
    # at t = 10 the target is ~1e-17 of the t = 0 integral: no rule up to
    # 1024 nodes resolves it, and the probe says so instead of guessing
    with pytest.raises(OracleNotConverged):
        rank1_plancherel_probe(3, 4.0, t_grid=[10.0])


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

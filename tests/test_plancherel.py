from itertools import product

import numpy as np
import pytest

from berezin_lab import plancherel
from berezin_lab.errors import InvalidParams, OracleNotConverged
from berezin_lab.gammaval import gamma_value
from berezin_lab.plancherel import (
    PlancherelParams,
    block_index,
    coeff_C,
    coeff_CVQ_u,
    coeff_Q_o,
    coeff_V_o,
    continuous_weight_o,
    rank1_plancherel_probe,
    surviving_blocks,
)


# ---------------------------------------------------------------------------
# Parameters and block inventories
# ---------------------------------------------------------------------------


def test_params_default_h():
    assert PlancherelParams(2, 5, 1.0).h == pytest.approx(2.5)
    assert PlancherelParams(3, 3, 1.0).h == pytest.approx(2.0)
    assert PlancherelParams(2, 5, 1.0, h=4.0).h == pytest.approx(4.0)
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

import math
from functools import lru_cache

import numpy as np
import pytest

from berezin_lab import berezin
from berezin_lab.ball import (
    one_minus_pivots,
    random_ball_point,
    random_pseudo_orthogonal,
)
from berezin_lab.berezin import (
    WINNING_COVARIANCE_VARIANT,
    ball_scale,
    berezin_kernel,
    covariance_convention_table,
    covariance_residual,
    domination_residual,
    gram_spectrum,
    pd_witness_search,
    restriction_closed_form,
    restriction_probe,
    restriction_threshold,
    wallach_admissible,
)
from berezin_lab.compact import REAL, _haar_so_batch, haar_sample_batch
from berezin_lab.errors import DomainError, InvalidParams, NonPositiveDeterminant
from berezin_lab.integrals import corner_power_mc

from conftest import assert_matches_one_pass, boundary_points, one_pass_draws


# ---------------------------------------------------------------------------
# Kernel basics
# ---------------------------------------------------------------------------


def test_kernel_symmetry_and_normalization():
    rng = np.random.default_rng(0)
    z = random_ball_point(2, 3, rng)
    u = random_ball_point(2, 3, rng)
    assert berezin_kernel(z, u, 1.3) == pytest.approx(berezin_kernel(u, z, 1.3))
    o = np.zeros((2, 3))
    assert berezin_kernel(o, u, 1.3) == pytest.approx(1.0)
    assert berezin_kernel(z, u, 0.0) == pytest.approx(1.0)


def test_kernel_rejects_shape_mismatch_and_degenerate_base():
    z = random_ball_point(2, 3, rng=1)
    u = random_ball_point(1, 3, rng=1)
    with pytest.raises(InvalidParams):
        berezin_kernel(z, u, 1.0)
    w = np.eye(2, 4)  # orthonormal rows
    with pytest.raises(NonPositiveDeterminant):
        berezin_kernel(w, w, 1.0)


def test_batched_kernel_matches_the_formula():
    zs = random_ball_point(2, 3, 31, 0.0, 0.99, size=50)
    us = random_ball_point(2, 3, 32, 0.0, 0.99, size=50)
    values = berezin_kernel(zs, us, 1.3)
    assert values.shape == (50,)
    for z, u, value in zip(zs, us, values):
        want = np.linalg.det(np.eye(2) - z @ u.T) ** -1.3
        assert value == pytest.approx(want, rel=1e-12, abs=0)
    assert isinstance(berezin_kernel(zs[0], us[0], 1.3), float)


def test_batched_kernel_checks_every_base():
    zs = random_ball_point(2, 4, 33, size=5)
    zs[3] = np.eye(2, 4)  # orthonormal rows: det(1 - z z^t) = 0
    with pytest.raises(NonPositiveDeterminant):
        berezin_kernel(zs, zs, 1.0)
    with pytest.raises(InvalidParams):
        berezin_kernel(zs, zs[:, :1], 1.0)


def test_kernel_refuses_a_pair_whose_pivots_are_all_negative():
    # 1 - z z^t = -3 * 1 at z = 2 E: its determinant 9 is positive, its pivots are not
    z = 2.0 * np.eye(2, 3)
    assert np.linalg.det(np.eye(2) - z @ z.T) == pytest.approx(9.0)
    with pytest.raises(NonPositiveDeterminant, match=r"pivot 1 of 1 - z u\^t is -3.000e\+00"):
        berezin_kernel(z, z, 1.5)
    with pytest.raises(NonPositiveDeterminant, match="pivot 1"):
        gram_spectrum([np.zeros((2, 3)), z], 1.5)


def test_a_kernel_value_past_the_float_range_is_inf_and_its_gram_stays_judged():
    z = 0.9 * np.eye(2, 3)  # det(1 - z z^t) = 0.19^2, so K(z, z) = 10^(1.44 alpha)
    assert np.isfinite(berezin_kernel(z, z, 200.0))
    for alpha in (400.0, 1e6):
        assert berezin_kernel(z, z, alpha) == np.inf
        # K(0, 0) = K(0, z) = 1: the normalised Gram of {0, z} is [[1, x], [x, 1]]
        # with x = 0.19^alpha, below 1e-288
        rep = gram_spectrum([np.zeros((2, 3)), z], alpha)
        assert (rep.min_eig, rep.max_eig) == (1.0, 1.0)
        # at -alpha the raw Gram [[1, 1], [1, 0.19^(2 alpha)]] has one negative
        # eigenvalue; scaled by 0.19^alpha it is [[x, 1], [1, x]], eigenvalues x -+ 1
        assert gram_spectrum([np.zeros((2, 3)), z], -alpha).ratio == pytest.approx(-1.0)
    # a NaN point is evidence: it passes through to fail
    assert np.isnan(berezin_kernel(np.full((2, 3), np.nan), z, 400.0))


def test_gram_matrix_refuses_an_out_of_domain_pair():
    pts = random_ball_point(2, 3, 36, size=(3, 4))
    berezin._gram_matrix(pts, 1.5)
    pts[1, 2] *= 1.0 / np.linalg.norm(pts[1, 2], 2) + 0.5  # one point past norm 1
    with pytest.raises(NonPositiveDeterminant, match="pivot"):
        berezin._gram_matrix(pts, 1.5)


def test_gram_spectrum_refuses_inputs_that_are_no_configuration():
    pts = random_ball_point(2, 3, 37, size=(2, 4))
    for bad in (pts[0, 0], pts[:0], pts[:, :0], pts[None], np.zeros(3)):
        with pytest.raises(InvalidParams, match="configuration"):
            gram_spectrum(bad, 1.5)
    assert np.shape(gram_spectrum(pts[:1], 1.5).min_eig) == (1,)
    assert isinstance(gram_spectrum(pts[0, :1], 1.5).min_eig, float)


def test_gram_spectrum_refuses_non_finite_points_and_a_gram_past_the_float_range():
    # refused before eigvalsh, whose LAPACK call need not converge on a NaN
    pts = random_ball_point(2, 3, 38, size=(3, 5))
    for bad in (np.nan, np.inf, -np.inf):
        stack = pts.copy()
        stack[1, 2, 0, 1] = bad
        for points in (stack, stack[1]):
            with pytest.raises(InvalidParams, match="points must be finite"):
                gram_spectrum(points, 1.5)
    # finite points: only a non-finite alpha, or alpha log det past the
    # float range (|alpha| near 1e308 here), leaves the Gram matrix non-finite
    assert np.isfinite(gram_spectrum(pts, 1e300).ratio).all()
    for alpha in (np.nan, np.inf, -np.inf, 1e308, -1e308):
        with pytest.raises(InvalidParams, match="not finite"):
            gram_spectrum(pts, alpha)


def test_wallach_admissible_set():
    # p = 2: {0, 1} union (1, inf)
    assert wallach_admissible(0.0, 2)
    assert wallach_admissible(1.0, 2)
    assert wallach_admissible(1.5, 2)
    assert wallach_admissible(7.0, 2)
    assert not wallach_admissible(0.5, 2)
    assert not wallach_admissible(-0.3, 2)
    # p = 1: {0} union (0, inf) = [0, inf)
    assert wallach_admissible(0.4, 1)
    assert not wallach_admissible(-0.1, 1)
    # within the tolerance of an endpoint or a point of the set counts as on it
    tol = 1e-12
    for p in (1, 2, 4):
        assert wallach_admissible(p - 1 - tol / 2, p)
        assert wallach_admissible(p - 1 + tol / 2, p)
        for k in range(p):
            assert wallach_admissible(k - tol / 2, p) and wallach_admissible(k + tol / 2, p)
    assert not wallach_admissible(1.5, 4) and not wallach_admissible(-2 * tol, 4)
    assert not wallach_admissible(math.nan, 2) and not wallach_admissible(-math.inf, 2)
    assert wallach_admissible(math.inf, 2)
    with pytest.raises(InvalidParams):
        wallach_admissible(1.0, 0)


# ---------------------------------------------------------------------------
# Gram spectra and the witness search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,q", [(1, 2), (2, 2), (2, 3)])
def test_gram_positive_semidefinite_on_admissible_alphas(p, q):
    rng = np.random.default_rng(3)
    alphas = [float(k) for k in range(p)] + [p - 1 + 0.5, p + 0.7]
    for alpha in alphas:
        assert wallach_admissible(alpha, p)
        for _ in range(10):
            pts = [random_ball_point(p, q, rng, 0.5, 0.98) for _ in range(6)]
            rep = gram_spectrum(pts, alpha)
            assert rep.min_eig >= -1e-8 * max(rep.max_eig, 1e-30)


def test_gram_spectrum_of_a_stack_matches_each_configuration():
    pts = random_ball_point(2, 3, 34, 0.5, 0.98, size=(40, 7))
    rep = gram_spectrum(pts, 0.7)
    assert rep.min_eig.shape == rep.max_eig.shape == (40,)
    for i, config in enumerate(pts):
        gram = np.array([[np.linalg.det(np.eye(2) - z @ u.T) ** -0.7 for u in config]
                         for z in config])
        scale = np.sqrt(np.diag(gram))
        eigs = np.linalg.eigvalsh(gram / np.outer(scale, scale))  # D^(-1/2) K D^(-1/2)
        assert abs(rep.min_eig[i] - eigs[0]) <= 1e-12 * eigs[-1]
        assert rep.max_eig[i] == pytest.approx(eigs[-1], rel=1e-12)
        single = gram_spectrum(config, 0.7)
        assert (single.min_eig, single.max_eig) == (rep.min_eig[i], rep.max_eig[i])


@pytest.mark.parametrize("alpha", [0.5, 1.5, 3.0])
def test_the_normalised_gram_has_the_inertia_of_the_raw_gram(alpha):
    # Sylvester's law: D^(-1/2) K D^(-1/2) times a positive scalar keeps K's
    # signs; compared where both spectra are clear of zero (1e-8 of the largest)
    trials = berezin._witness_trials(2, 3, np.random.default_rng(5))
    configs = []
    for counts, points in (next(trials) for _ in range(3)):
        configs += [points[end - m : end] for end, m in zip(np.cumsum(counts), counts)]
    judged = negative = 0
    for config in configs:
        raw = np.array([[np.linalg.det(np.eye(2) - z @ u.T) ** -alpha for u in config]
                        for z in config])
        normalised = berezin._gram_matrix(config[None], alpha)[0]
        assert np.max(normalised) <= 1.0 and np.all(np.diag(normalised) == 1.0)
        raw_eigs, eigs = np.linalg.eigvalsh(raw), np.linalg.eigvalsh(normalised)
        if min(np.min(np.abs(e)) / np.max(np.abs(e)) for e in (raw_eigs, eigs)) > 1e-8:
            judged += 1
            negative += np.any(raw_eigs < 0)
            assert np.sum(eigs < 0) == np.sum(raw_eigs < 0)
    assert judged >= 50
    assert (negative > 0) == (alpha == 0.5)  # off the Wallach set the shells find negatives


def test_shell_configs_match_the_planar_formula():
    gen = np.random.default_rng(43)
    left = np.linalg.qr(gen.standard_normal((4, 3, 2)))[0]
    right = np.linalg.qr(gen.standard_normal((4, 5, 2)))[0]
    etas = gen.uniform(0.5, 0.95, 4)
    for k in (3, 5, 8):
        shells = berezin._shell_points(np.full(4, k), etas, left, right).reshape(4, 2 * k, 3, 5)
        for s in range(4):
            planar = []
            for t in np.arange(k) * (2.0 * np.pi / k):
                planar.append(np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]))
            for t in np.arange(k) * (2.0 * np.pi / k):
                planar.append(np.array([[np.cos(t), np.sin(t)], [np.sin(t), -np.cos(t)]]))
            expect = np.stack([etas[s] * left[s] @ m @ right[s].T for m in planar])
            assert np.max(np.abs(shells[s] - expect)) < 1e-12
            assert np.allclose(np.linalg.norm(shells[s], 2, axis=(1, 2)), etas[s])
    # mixed rotation counts: the shells follow one another, each as if alone
    ks = np.array([5, 3, 8, 3])
    mixed = berezin._shell_points(ks, etas, left, right)
    alone = [berezin._shell_points(ks[s : s + 1], etas[s : s + 1], left[s : s + 1],
                                   right[s : s + 1]) for s in range(4)]
    assert mixed.shape == (2 * ks.sum(), 3, 5)
    assert np.array_equal(mixed, np.concatenate(alone))


def test_gram_spectrum_runs_a_large_stack_in_chunks(monkeypatch):
    pts = random_ball_point(2, 3, 35, size=(5, 12))
    whole = gram_spectrum(pts, 1.5)
    # 2 configurations of 12 points per chunk: chunks of 2, 2 and 1
    monkeypatch.setattr(berezin, "_GRAM_ENTRIES", 2 * 144)
    calls = []
    gram_matrix = berezin._gram_matrix

    def counted(stack, alpha):
        calls.append(len(stack))
        return gram_matrix(stack, alpha)

    monkeypatch.setattr(berezin, "_gram_matrix", counted)
    chunked = gram_spectrum(pts, 1.5)
    assert calls == [2, 2, 1]
    assert np.array_equal(chunked.min_eig, whole.min_eig)
    assert np.array_equal(chunked.max_eig, whole.max_eig)


@lru_cache
def _trial_ratios(p, q, alpha, seed, n_trials):
    """Each search trial's configuration evaluated on its own, in trial order."""
    ratios, configs = [], []
    for counts, points in berezin._witness_trials(p, q, np.random.default_rng(seed)):
        for end, m in zip(np.cumsum(counts), counts):
            rep = gram_spectrum(points[end - m : end], alpha)
            ratios.append(rep.min_eig / max(rep.max_eig, 1e-300))
            configs.append(points[end - m : end])
        if len(ratios) >= n_trials:
            return ratios[:n_trials], configs[:n_trials]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_witness_search_names_the_first_witnessing_trial(seed):
    rep = pd_witness_search(2, 3, 0.5, budget=1000, rng=seed)
    ratios, configs = _trial_ratios(2, 3, 0.5, seed, rep.n_configs)
    first = next(i for i, r in enumerate(ratios) if r < -1e-6)
    assert rep.found and rep.n_configs == first + 1
    assert rep.best_ratio == pytest.approx(ratios[first], rel=1e-12, abs=0)
    assert np.array_equal(rep.points, configs[first])
    # the trial stream does not depend on the budget
    if first:
        before = pd_witness_search(2, 3, 0.5, budget=first, rng=seed)
        assert not before.found and before.n_configs == first
        assert before.best_ratio == pytest.approx(min(ratios[:first]), rel=1e-12, abs=0)


@pytest.mark.parametrize("seed,n_configs", [(1, 2), (7, 2), (11, 2), (12, 4)])
def test_witness_search_stops_at_the_trial_the_raw_gram_stopped_at(seed, n_configs):
    # the trial indices the search stopped at when it formed raw kernel Grams
    rep = pd_witness_search(2, 3, 0.5, rng=seed)
    assert rep.found and rep.n_configs == n_configs


def test_witness_search_reports_the_best_ratio_over_the_budget():
    rep = pd_witness_search(2, 3, 1.5, budget=100, rng=6)
    ratios, _ = _trial_ratios(2, 3, 1.5, 6, 100)
    assert not rep.found and rep.n_configs == 100
    assert rep.best_ratio == pytest.approx(min(ratios), rel=1e-12, abs=0)


@pytest.mark.parametrize("budget", [1, 7, 8, 9, 24, 25, 504, 505, 1000])
def test_witness_search_stops_at_any_budget(budget):
    # the budget falls inside, at the end of and just past the chunks of 8, 16, ..., 512
    rep = pd_witness_search(2, 3, 1.5, budget=budget, rng=6)
    ratios, _ = _trial_ratios(2, 3, 1.5, 6, 1000)
    assert not rep.found and rep.n_configs == budget
    assert rep.best_ratio == pytest.approx(min(ratios[:budget]), rel=1e-12, abs=0)


def test_witness_chunks_double_up_to_the_last_chunk_size():
    trials = berezin._witness_trials(2, 3, np.random.default_rng(0))
    sizes = [len(next(trials)[0]) for _ in range(8)]
    assert sizes == [8, 16, 32, 64, 128, 256, 512, 512]


def test_witness_found_off_the_admissible_set():
    rep = pd_witness_search(2, 3, 0.5, budget=1000, rng=2)
    assert rep.found
    assert rep.n_configs <= 1000
    assert rep.best_ratio < -1e-6
    assert rep.points is not None and rep.points.shape[1:] == (2, 3)
    assert rep.seed == 2


def test_witness_absent_on_the_admissible_set():
    for alpha in [1.0, 2.0]:
        rep = pd_witness_search(2, 3, alpha, budget=300, rng=2)
        assert not rep.found
        assert rep.points is None
        assert rep.n_configs == 300


def test_witness_search_input_validation():
    with pytest.raises(InvalidParams):
        pd_witness_search(2, 3, 0.5, budget=0)
    with pytest.raises(InvalidParams):
        pd_witness_search(3, 2, 0.5)
    # a Gram matrix that is not finite is refused, so no ratio the search compares is NaN
    for alpha in (np.nan, 1e308):
        with pytest.raises(InvalidParams, match="not finite"):
            pd_witness_search(2, 3, alpha, budget=50, rng=1)


# ---------------------------------------------------------------------------
# Covariance and domination
# ---------------------------------------------------------------------------


def test_covariance_convention_enumeration_has_unique_winner():
    table = covariance_convention_table(rng=11)
    winner = "u-cocycle,+,+"
    assert table[winner] < 1e-12
    others = [v for k, v in table.items() if k != winner]
    assert min(others) > 1e-3
    assert WINNING_COVARIANCE_VARIANT == "u-cocycle-corrected"


def test_covariance_identity_matrix_case():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(40):
        g = random_pseudo_orthogonal(2, 3, rng)
        z = random_ball_point(2, 3, rng, 0.0, 0.9)
        u = random_ball_point(2, 3, rng, 0.0, 0.9)
        res = covariance_residual(g, z, u, 1.5)
        if np.isfinite(res):
            worst = max(worst, res)
    assert worst < 1e-10


def test_covariance_as_printed_variant_needs_square_shape():
    g = random_pseudo_orthogonal(2, 3, rng=13)
    z = random_ball_point(2, 3, rng=13)
    with pytest.raises(InvalidParams):
        covariance_residual(g, z, z, 1.0, variant="as-printed")
    with pytest.raises(InvalidParams):
        covariance_residual(g, z, z, 1.0, variant="mystery")


def test_batched_covariance_matches_a_loop_of_single_triples():
    gs = random_pseudo_orthogonal(2, 2, 36, size=30)
    zs = random_ball_point(2, 2, 37, 0.0, 0.9, size=30)
    us = random_ball_point(2, 2, 38, 0.0, 0.9, size=30)
    for variant in ("u-cocycle-corrected", "as-printed"):
        batched = covariance_residual(gs, zs, us, 1.5, variant)
        for i in range(30):
            single = covariance_residual(gs[i], zs[i], us[i], 1.5, variant)
            assert batched[i] == pytest.approx(single, rel=1e-12, abs=1e-12)
    # the as-printed law is off by O(1), so the comparison above is not vacuous
    assert np.max(covariance_residual(gs, zs, us, 1.5, "as-printed")) > 1e-3


def test_nonpositive_multiplier_gives_inf_element_by_element():
    # every other element reflects the first axis: det(a + z c) = det(a) = -1
    flips = np.arange(30) % 2 == 0
    gs = np.where(flips[:, None, None], np.diag([-1.0, 1.0, 1.0, 1.0]), np.eye(4))
    zs = random_ball_point(2, 2, 44, 0.0, 0.5, size=30)
    us = random_ball_point(2, 2, 45, 0.0, 0.5, size=30)
    res = covariance_residual(gs, zs, us, 1.5, "as-printed")
    assert np.array_equal(np.isinf(res), flips)
    # the two cocycles share a sign, so the corrected law stays finite
    assert np.max(covariance_residual(gs, zs, us, 1.5)) < 1e-12
    assert covariance_residual(gs[0], zs[0], us[0], 1.5, "as-printed") == np.inf


def test_batched_domination_matches_a_loop_and_propagates_nan():
    zs = random_ball_point(2, 3, 40, 0.0, 0.999, size=40)
    us = random_ball_point(2, 3, 41, 0.0, 0.999, size=40)
    cs = np.random.default_rng(42).uniform(0.0, 1.0, 40)
    batched = domination_residual(zs, us, cs, 1.7)
    loop = [domination_residual(z, u, c, 1.7) for z, u, c in zip(zs, us, cs)]
    assert np.array_equal(batched, loop)
    # the unclipped difference the residual is taken from, pair by pair
    diff = berezin_kernel(cs[:, None, None] * zs, cs[:, None, None] * us, 1.7) \
        - 2.0 ** (2 * 1.7) * berezin_kernel(zs, us, 1.7)
    assert np.all(diff < 0) and np.array_equal(batched, np.maximum(0.0, diff))
    zs[7] = np.nan
    with np.errstate(invalid="ignore"):
        res = domination_residual(zs, us, cs, 1.7)
    assert np.isnan(res[7]) and np.isnan(np.max(res))
    with pytest.raises(InvalidParams):
        domination_residual(zs, us, np.where(np.arange(40) == 3, 1.5, cs), 1.7)


def test_domination_residual_is_exactly_zero():
    rng = np.random.default_rng(14)
    for _ in range(200):
        z = random_ball_point(2, 3, rng, 0.0, 0.999)
        u = random_ball_point(2, 3, rng, 0.0, 0.999)
        c = float(rng.uniform(0.0, 1.0))
        assert domination_residual(z, u, c, 1.7) == 0.0
        assert domination_residual(z, u, 1.0 - 1e-3, 1.7) == 0.0


def test_domination_near_boundary_closure_pairs():
    rng = np.random.default_rng(15)
    for _ in range(50):
        z = boundary_points(2, 4, 1, 1, rng)[0]
        u = boundary_points(2, 4, 1, 1, rng)[0]
        assert domination_residual(z, u, 1.0 - 1e-3, 0.8) == 0.0


def test_a_domination_bound_past_the_float_range_is_judged():
    z = 0.5 * np.eye(2, 3)  # K(z, z) = 0.75^(-2 alpha) = 10^(0.25 alpha)
    # 2^(2 alpha) K(z, z) is 10^255 at alpha = 300, 10^341 at 400 and past the
    # range from there; K(z, z) itself is past it at 1e6
    for alpha in (300.0, 400.0, 1000.0, 1e6):
        assert domination_residual(z, z, 0.5, alpha) == 0.0
        # the bound holds with the log margin 2 alpha log 0.4, which stays finite
        lhs = -alpha * berezin._log_base(0.5 * z, 0.5 * z)
        rhs = -alpha * berezin._log_base(z, z) + 2 * alpha * math.log(2.0)
        assert lhs - rhs == pytest.approx(2 * alpha * math.log(0.4), rel=1e-12)
    assert np.isnan(domination_residual(np.full((2, 3), np.nan), z, 0.5, 1000.0))


def test_kernel_values_and_the_domination_bound_in_range_are_the_plain_expressions():
    # exp(-alpha L) carries the rounding of alpha L: 1e-15 relative per unit of |log K|
    zs = random_ball_point(2, 3, 44, 0.0, 0.9, size=50)
    us = random_ball_point(2, 3, 45, 0.0, 0.9, size=50)
    cs = np.random.default_rng(46).uniform(0.0, 1.0, 50)
    for alpha in (1.5, 50.0):
        values = berezin_kernel(zs, us, alpha)
        plain_values = one_minus_pivots(zs, us).prod(axis=0) ** -alpha
        rel = np.abs(values / plain_values - 1.0)
        assert np.all(rel <= 1e-15 * np.maximum(1.0, np.abs(np.log(plain_values))))
        lhs = berezin_kernel(cs[:, None, None] * zs, cs[:, None, None] * us, alpha)
        plain = np.maximum(0.0, lhs - 2.0 ** (2 * alpha) * values)
        # the residual is a log gap, exactly 0 wherever the plain bound holds
        assert np.all(plain == 0.0)
        assert np.array_equal(domination_residual(zs, us, cs, alpha), plain)


def test_domination_rejects_bad_parameters():
    z = random_ball_point(1, 2, rng=16)
    with pytest.raises(InvalidParams):
        domination_residual(z, z, 1.5, 1.0)
    with pytest.raises(InvalidParams):
        domination_residual(z, z, 0.5, -1.0)


def test_ball_scale_preserves_metadata():
    # a point stays a (p, q) point and a stack keeps its shape, one factor per point
    z = np.eye(2, 3)
    w = ball_scale(z, 0.5)
    assert w.shape == (2, 3) and np.allclose(w, 0.5 * np.eye(2, 3))
    zs = random_ball_point(2, 3, 46, size=(4, 5))
    cs = np.linspace(0.1, 0.9, 20).reshape(4, 5)
    ws = ball_scale(zs, cs)
    assert ws.shape == (4, 5, 2, 3)
    assert np.array_equal(ws[1, 2], cs[1, 2] * zs[1, 2])


# ---------------------------------------------------------------------------
# Boundary orbits and restriction probes
# ---------------------------------------------------------------------------


def test_boundary_sample_parameter_validation():
    # every boundary-orbit function needs 1 <= p < q and 0 <= r < p
    for p, q, r in [(2, 2, 0), (2, 4, 2), (2, 4, -1), (0, 3, 0)]:
        with pytest.raises(InvalidParams):
            restriction_threshold(p, q, r)
        with pytest.raises(InvalidParams):
            restriction_closed_form(p, q, r, 0.3)
        with pytest.raises(InvalidParams):
            restriction_probe(p, q, r, 0.3, n_samples=10, rng=0)


def test_boundary_sample_shapes_and_rank():
    batch = boundary_points(2, 4, 1, 300, 17)
    assert batch.shape == (300, 2, 4)
    gram = np.eye(2) - batch @ np.transpose(batch, (0, 2, 1))
    svals = np.linalg.svd(gram, compute_uv=False)
    ranks = np.sum(svals > 1e-9, axis=1)
    assert np.mean(ranks == 1) >= 0.99


def test_restriction_threshold_values():
    assert restriction_threshold(1, 2, 0) == pytest.approx(0.5)
    assert restriction_threshold(2, 4, 1) == pytest.approx(2.0)


def test_restriction_closed_form_values_and_divergence():
    # p = 1, q = 2, r = 0: the mean of (1 + cos t)^(-2/5) over the circle
    assert restriction_closed_form(1, 2, 0, 0.4) == pytest.approx(2.73151111630617)
    assert restriction_closed_form(2, 4, 1, 1.0) == pytest.approx(1.5)
    # at and above the threshold the integral diverges
    for alpha in [0.5, 0.7]:
        with pytest.raises(DomainError):
            restriction_closed_form(1, 2, 0, alpha)


def test_restriction_probe_matches_closed_form_below_threshold():
    est = restriction_probe(2, 4, 1, 1.0, n_samples=40_000, rng=1729)
    cf = restriction_closed_form(2, 4, 1, 1.0)
    assert abs(est.mean - cf) <= 3.0 * est.stderr


def test_restriction_probe_running_max_grows_above_threshold():
    alpha = restriction_threshold(1, 2, 0) + 0.5
    maxes = [
        restriction_probe(1, 2, 0, alpha, n_samples=n, rng=1729).max_abs
        for n in (10_000, 100_000)
    ]
    assert maxes[0] < maxes[1]
    assert maxes[1] / maxes[0] > 5.0


def test_restriction_probe_matches_a_one_pass_reduction():
    a = restriction_probe(2, 4, 1, 1.0, n_samples=20_000, rng=3)
    b = restriction_probe(2, 4, 1, 1.0, n_samples=20_000, rng=3)
    assert (a.mean, a.stderr, a.max_abs) == (b.mean, b.stderr, b.max_abs)
    assert a.n_resamples == 0

    # det(1 + [z]_1)^-1 on the boundary orbit, z the corner of SO(5)
    def draw(gen, count):
        mats = haar_sample_batch(REAL, 5, count, gen)
        return 1.0 / np.linalg.det(np.eye(1) + mats[:, :1, :1])

    assert_matches_one_pass(a, one_pass_draws(draw, 20_000, 3))


@pytest.mark.parametrize("p,q,r", [(1, 2, 0), (2, 4, 1), (3, 6, 1), (3, 5, 2), (2, 3, 0)])
def test_boundary_draws_equal_the_full_samples_corner(p, q, r):
    # the probe orthonormalises only the p - r columns it reads; its
    # estimate equals that of the full SO(q + r) sampler
    def whole(count, gen, cols=None):
        return _haar_so_batch(q + r, count, gen)

    est = restriction_probe(p, q, r, 0.3, n_samples=6000, rng=11)
    assert est == corner_power_mc(whole, np.full(p - r, -0.3), 6000, rng=11)

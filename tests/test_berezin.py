import numpy as np
import pytest

from berezin_lab.ball import (
    ball_point,
    moebius_act,
    random_ball_point,
    random_pseudo_orthogonal,
)
from berezin_lab.berezin import (
    WINNING_COVARIANCE_VARIANT,
    ball_scale,
    berezin_kernel,
    boundary_sample,
    boundary_sample_batch,
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
from berezin_lab.compact import REAL, haar_sample_batch
from berezin_lab.errors import DomainError, InvalidParams, NonPositiveDeterminant

from conftest import assert_matches_one_pass, one_pass_draws


# ---------------------------------------------------------------------------
# Kernel basics
# ---------------------------------------------------------------------------


def test_kernel_symmetry_and_normalization():
    rng = np.random.default_rng(0)
    z = random_ball_point(2, 3, rng)
    u = random_ball_point(2, 3, rng)
    assert berezin_kernel(z, u, 1.3) == pytest.approx(berezin_kernel(u, z, 1.3))
    o = ball_point(np.zeros((2, 3)))
    assert berezin_kernel(o, u, 1.3) == pytest.approx(1.0)
    assert berezin_kernel(z, u, 0.0) == pytest.approx(1.0)


def test_kernel_rejects_shape_mismatch_and_degenerate_base():
    z = random_ball_point(2, 3, rng=1)
    u = random_ball_point(1, 3, rng=1)
    with pytest.raises(InvalidParams):
        berezin_kernel(z, u, 1.0)
    w = ball_point(np.eye(2, 4), closure=True)  # orthonormal rows
    with pytest.raises(NonPositiveDeterminant):
        berezin_kernel(w, w, 1.0)


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


# ---------------------------------------------------------------------------
# Covariance and domination
# ---------------------------------------------------------------------------


def test_covariance_convention_enumeration_has_unique_winner():
    table = covariance_convention_table(alpha=1.0, n_trials=40, rng=11)
    winner = "u-cocycle,+,+"
    assert table[winner] < 1e-12
    others = [v for k, v in table.items() if k != winner]
    assert min(others) > 1e-3
    assert WINNING_COVARIANCE_VARIANT == "u-cocycle-corrected"


def test_covariance_identity_matrix_case():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(40):
        g = random_pseudo_orthogonal(2, 3, rng, boost_range=1.0)
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
        z = ball_point(boundary_sample(2, 4, 1, rng).entries, closure=True)
        u = ball_point(boundary_sample(2, 4, 1, rng).entries, closure=True)
        assert domination_residual(z, u, 1.0 - 1e-3, 0.8) == 0.0


def test_domination_rejects_bad_parameters():
    z = random_ball_point(1, 2, rng=16)
    with pytest.raises(InvalidParams):
        domination_residual(z, z, 1.5, 1.0)
    with pytest.raises(InvalidParams):
        domination_residual(z, z, 0.5, -1.0)


def test_ball_scale_preserves_metadata():
    z = ball_point(np.eye(2, 3), closure=True)
    w = ball_scale(z, 0.5)
    assert w.closure and np.allclose(w.entries, 0.5 * np.eye(2, 3))


# ---------------------------------------------------------------------------
# Boundary orbits and restriction probes
# ---------------------------------------------------------------------------


def test_boundary_sample_parameter_validation():
    with pytest.raises(InvalidParams):
        boundary_sample(2, 2, 0)  # needs p < q
    with pytest.raises(InvalidParams):
        boundary_sample(2, 4, 2)  # needs r < p
    with pytest.raises(InvalidParams):
        boundary_sample(2, 4, -1)


def test_boundary_sample_shapes_and_rank():
    batch = boundary_sample_batch(2, 4, 1, 300, rng=17)
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

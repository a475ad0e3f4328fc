from functools import partial
from math import lgamma, log

import numpy as np
import pytest

from berezin_lab import integrals
from berezin_lab.compact import (
    COMPLEX,
    QUATERNION,
    REAL,
    _haar_so_batch,
    _haar_sp_batch,
    _haar_u_batch,
    haar_sample_batch,
)
from berezin_lab.errors import DomainError, InvalidParams
from berezin_lab.integrals import (
    VARIANT_AS_PRINTED,
    VARIANT_CORRECTED,
    WINNING_SO_VARIANT,
    _mc_reduce,
    corner_power_mc,
    so_integral_closed_form,
    so_integral_mc,
    so_integral_quadrature,
    so_second_moment,
    sp_integral_closed_form,
    sp_integral_mc,
    sp_second_moment,
    u_integral_closed_form,
    u_integral_mc,
    u_second_moment,
)

from conftest import assert_matches_one_pass, one_pass_draws


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def test_so_variant_discriminator():
    # the benchmark signature: exact value 1, which only the corrected
    # constant reproduces; the uncorrected one gives 1/2
    lam = [1.0, 0.0]
    assert so_integral_closed_form(2, lam, VARIANT_CORRECTED) == pytest.approx(1.0)
    assert so_integral_closed_form(2, lam, VARIANT_AS_PRINTED) == pytest.approx(0.5)
    assert so_integral_quadrature(2, lam) == pytest.approx(1.0, rel=1e-14, abs=0.0)
    assert WINNING_SO_VARIANT == VARIANT_CORRECTED


def test_so_closed_form_more_exact_values():
    assert so_integral_closed_form(3, [1.0, 1.0, 0.0]) == pytest.approx(1.0)
    # n = 2, lambda = (2, 0): 2^2 B(5/2, 1/2) / B(1/2, 1/2) = 3/2
    assert so_integral_closed_form(2, [2.0, 0.0]) == pytest.approx(1.5)


def test_so_evaluations_shift_to_a_trailing_zero():
    # every deterministic SO evaluation sees lambda - lambda_n, bit for bit
    for evaluate in (partial(so_integral_closed_form, variant=VARIANT_CORRECTED),
                     partial(so_integral_closed_form, variant=VARIANT_AS_PRINTED),
                     so_integral_quadrature, so_second_moment):
        assert evaluate(3, [1.5, 1.0, 0.5]) == evaluate(3, [1.0, 0.5, 0.0])


@pytest.mark.parametrize("evaluate", [so_integral_closed_form, so_integral_quadrature,
                                      lambda n, lam: so_integral_mc(n, lam, 100, rng=0)])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_so_refuses_a_non_finite_exponent(evaluate, bad):
    # inf gave a NaN closed form and NaN a NaN Monte Carlo mean
    with pytest.raises(InvalidParams, match="finite"):
        evaluate(3, [bad, 0.0, 0.0])


def test_so_domain_error():
    # lambda_1 <= -(n-1)/2 diverges
    with pytest.raises(DomainError):
        so_integral_closed_form(2, [-0.5, 0.0])
    with pytest.raises(DomainError):
        so_integral_closed_form(3, [-1.0, 0.3, 0.0])


def test_so_rejects_bad_shapes_and_variants():
    with pytest.raises(InvalidParams):
        so_integral_closed_form(1, [0.0])
    with pytest.raises(InvalidParams):
        so_integral_closed_form(2, [1.0, 0.0, 0.0])
    with pytest.raises(InvalidParams):
        so_integral_closed_form(2, [1.0, 0.0], "corrected-harder")


def test_u_closed_form_n1_exact():
    assert u_integral_closed_form(1, [1.0], [1.0]) == pytest.approx(2.0)
    assert u_integral_closed_form(1, [1.0], [0.0]) == pytest.approx(1.0)


def test_u_domain_error():
    with pytest.raises(DomainError):
        u_integral_closed_form(1, [-1.0], [0.0])
    with pytest.raises(InvalidParams):
        u_integral_closed_form(2, [1.0], [0.0, 0.0])


def test_sp_closed_form_n1_exact():
    # Gamma(2) Gamma(5) / (Gamma(3) Gamma(4)) = 24 / 12 = 2
    assert sp_integral_closed_form(1, [2.0]) == pytest.approx(2.0)


def test_sp_domain_error():
    with pytest.raises(DomainError):
        sp_integral_closed_form(1, [-3.0])


def _factor_by_factor(n, lam, mu=None, family="so", corrected=True):
    """The three Gamma products written out one factor k at a time."""
    total = 0.0
    for k in range(1, n + (family != "so")):
        lk = lam[k - 1]
        if family == "so":
            a = n - k
            total += lgamma(a) + lgamma(lk + a / 2) - lgamma(a / 2) - lgamma(lk + a)
            total += lk * log(2.0) if corrected else 0.0
        elif family == "u":
            a, mk = n - k + 1, mu[k - 1]
            total += lgamma(a) + lgamma(a + lk + mk) - lgamma(a + lk) - lgamma(a + mk)
        else:
            a = 2 * (n - k + 1)
            total += lgamma(a) + lgamma(a + lk + 1) - lgamma(a + lk / 2) - lgamma(a + lk / 2 + 1)
    return np.exp(total)


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_forms_match_a_factor_by_factor_reference(n):
    gen = np.random.default_rng(n)
    lam, mu = gen.uniform(-0.3, 2.5, n), gen.uniform(-0.3, 2.5, n)
    for got, want in [
        (u_integral_closed_form(n, lam, mu), _factor_by_factor(n, lam, mu, "u")),
        (sp_integral_closed_form(n, lam), _factor_by_factor(n, lam, family="sp")),
    ]:
        assert got == pytest.approx(want, rel=1e-13, abs=0)
    if n >= 2:
        lam[-1] = 0.0
        for variant, corrected in [(VARIANT_CORRECTED, True), (VARIANT_AS_PRINTED, False)]:
            got = so_integral_closed_form(n, lam, variant)
            want = _factor_by_factor(n, lam, corrected=corrected)
            assert got == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize(
    "evaluate,args,k",
    [
        (so_integral_closed_form, (4, [1.0, 1.0, -0.5, 0.0]), 3),
        (so_integral_closed_form, (4, [1.0, -1.0, -0.5, 0.0]), 2),
        (so_integral_quadrature, (4, [1.0, -1.0, -0.5, 0.0]), 2),
        (u_integral_closed_form, (3, [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]), 3),
        (u_integral_closed_form, (3, [0.0, -2.0, -1.0], [0.0, 0.0, 0.0]), 2),
        (sp_integral_closed_form, (3, [0.0, 0.0, -4.0]), 3),
        (sp_integral_closed_form, (3, [-8.0, 0.0, -4.0]), 1),
    ],
    ids=["so-k3", "so-k2", "quadrature-k2", "u-mu-k3", "u-lambda-k2", "sp-k3", "sp-k1"],
)
def test_domain_error_names_the_first_divergent_factor(evaluate, args, k):
    with pytest.raises(DomainError, match=rf"violated at k = {k}$"):
        evaluate(*args)


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,lam",
    [
        (2, [1.0, 0.0]),
        (2, [-0.4, 0.0]),
        (3, [1.0, 1.0, 0.0]),
        (3, [-0.4, 0.3, 0.0]),
        (4, [2.0, 1.0, 0.5, 0.0]),
        (4, [0.6, -0.3, 0.2, 0.0]),
        (12, [1.0, 0.5] + [0.0] * 10),
        (30, [0.7] * 29 + [0.0]),
    ],
)
def test_quadrature_matches_corrected_closed_form(n, lam):
    quad = so_integral_quadrature(n, lam)
    cf = so_integral_closed_form(n, lam)
    assert quad == pytest.approx(cf, rel=1e-14, abs=0.0)


def test_quadrature_near_domain_edge():
    lam = [-(2 - 1) / 2 + 0.05, 0.0]
    assert so_integral_quadrature(2, lam) == pytest.approx(
        so_integral_closed_form(2, lam), rel=1e-8
    )


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------


def test_so_mc_matches_closed_form():
    est = so_integral_mc(3, np.array([1.0, 0.5, 0.0]), 60_000, rng=123)
    cf = so_integral_closed_form(3, [1.0, 0.5, 0.0])
    assert abs(est.mean - cf) <= 3.0 * est.stderr
    assert est.n_samples == 60_000


def test_u_mc_matches_closed_form_and_tracks_imaginary_part():
    lam, mu = np.array([1.0, 0.5]), np.array([0.7, 0.0])
    est = u_integral_mc(2, lam, mu, 60_000, rng=5)
    cf = u_integral_closed_form(2, lam, mu)
    assert abs(est.mean - cf) <= 3.0 * est.stderr
    assert est.imag_mean is not None and abs(est.imag_mean) < 3.0 * est.stderr


def test_sp_mc_matches_closed_form():
    est = sp_integral_mc(2, np.array([1.5, 0.8]), 60_000, rng=5)
    cf = sp_integral_closed_form(2, [1.5, 0.8])
    assert abs(est.mean - cf) <= 3.0 * est.stderr


def test_zero_exponents_give_exact_one():
    est = so_integral_mc(3, np.zeros(3), 4096, rng=0)
    assert est.mean == 1.0 and est.stderr == 0.0
    est = u_integral_mc(2, np.zeros(2), np.zeros(2), 4096, rng=0)
    assert est.mean == 1.0 and est.stderr == 0.0
    est = sp_integral_mc(2, np.zeros(2), 4096, rng=0)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_so_mc_is_shift_invariant():
    # the integrand only sees differences of consecutive exponents
    a = so_integral_mc(3, np.array([1.0, 0.5, 0.0]), 20_000, rng=77)
    b = so_integral_mc(3, np.array([1.7, 1.2, 0.7]), 20_000, rng=77)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_mc_seed_reproducibility_and_one_pass_agreement():
    lam = np.array([1.0, 0.5, 0.0])
    est = so_integral_mc(3, lam, 30_000, rng=9)
    again = so_integral_mc(3, lam, 30_000, rng=9)
    assert (again.mean, again.stderr, again.max_abs) == (est.mean, est.stderr, est.max_abs)
    assert est.seed == 9 and est.n_resamples == 0

    # the integrand det(1+[g]_1)^0.5 det(1+[g]_2)^0.5 by pivoted LAPACK det
    def draw(gen, count):
        mats = haar_sample_batch(REAL, 3, count, gen)
        dets = [np.linalg.det(np.eye(k) + mats[:, :k, :k]) for k in (1, 2)]
        return np.sqrt(dets[0] * dets[1])

    assert_matches_one_pass(est, one_pass_draws(draw, 30_000, 9))


def test_so_second_moment_gives_the_variance():
    # f^2 is the integrand at 2 lambda, so E f^2 - (E f)^2 is the variance;
    # at -0.8 the doubled exponent -1.6 leaves the domain lambda_1 > -1
    lam = np.array([1.0, 0.5, 0.0])
    est = so_integral_mc(3, lam, 200_000, rng=17)
    var = so_second_moment(3, lam) - so_integral_closed_form(3, lam) ** 2
    assert est.stderr**2 * est.n_samples == pytest.approx(var, rel=0.03)
    assert so_second_moment(3, [-0.8, 0.3, 0.0]) == np.inf
    assert np.isfinite(so_second_moment(3, [-0.4, 0.3, 0.0]))


def test_sp_second_moment_gives_the_variance():
    # f^2 is the integrand at 2 lambda; at n = 1 the doubled exponent needs
    # 3 + 2 lambda > 0, so the variance is infinite from lambda = -1.5 down
    lam = np.array([1.0, 0.5, 0.0])
    est = sp_integral_mc(3, lam, 200_000, rng=17)
    var = sp_second_moment(3, lam) - sp_integral_closed_form(3, lam) ** 2
    assert est.stderr**2 * est.n_samples == pytest.approx(var, rel=0.03)
    assert sp_second_moment(1, [-2.0]) == np.inf
    assert np.isfinite(sp_second_moment(1, [-1.4]))


def test_u_second_moment_gives_the_variance_of_the_real_part():
    # (Re f)^2 = (|f|^2 + Re f^2)/2: the integrand at (lambda + mu, lambda + mu)
    # and at (2 lambda, 2 mu); at n = 1, (-0.8, 0) the first leaves the domain.
    # At (-0.8, 0.8) |f| = 1, and E f^2 is the Gamma ratio continued past the
    # domain the closed form accepts, sin(1.6 pi)/(1.6 pi)
    for n, lam, mu in [(3, [1.0, 0.5, 0.0], [0.5, 0.0, 0.0]), (1, [-0.8], [0.8])]:
        est = u_integral_mc(n, lam, mu, 200_000, rng=17)
        var = u_second_moment(n, lam, mu) - u_integral_closed_form(n, lam, mu) ** 2
        assert est.stderr**2 * est.n_samples == pytest.approx(var, rel=0.03)
    assert 2.0 * u_second_moment(1, [-0.8], [0.8]) - 1.0 == pytest.approx(
        np.sin(1.6 * np.pi) / (1.6 * np.pi), rel=1e-14, abs=0.0)
    assert u_second_moment(1, [-0.5], [0.5]) == 0.5  # E f^2 = 1/Gamma(0) = 0
    assert u_second_moment(1, [-0.8], [0.0]) == np.inf
    assert np.isfinite(u_second_moment(1, [-0.4], [0.0]))


def whole(sampler, n):
    """``sampler`` of size n that ignores ``cols`` and returns every column."""
    return lambda count, gen, cols=None: sampler(n, count, gen)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_so_mc_equals_the_estimator_over_full_samples(n):
    # the sampler orthonormalises only the columns up to the last nonzero
    # exponent; two blocks, the second short, over full samples give the
    # same estimate, with every exponent nonzero and with trailing zeros
    for lam in (np.linspace(0.9, 0.0, n), np.r_[1.0, 0.5, np.zeros(n)][:n]):
        est = so_integral_mc(n, lam, 6000, rng=7)
        full = corner_power_mc(whole(_haar_so_batch, n), lam[:-1] - lam[-1], 6000, rng=7)
        assert est == full


def test_u_and_sp_mc_equal_the_estimator_over_full_samples():
    # U(3) reads 2 of 3 columns, Sp(3) 2 of 3 drawn columns (4 of 6 stored)
    lam, mu = np.array([1.0, 0.5, 0.0]), np.array([0.5, 0.0, 0.0])
    est = u_integral_mc(3, lam, mu, 6000, rng=7)
    assert est == corner_power_mc(whole(_haar_u_batch, 3), lam, 6000, rng=7, b=mu)
    est = sp_integral_mc(3, lam, 6000, rng=7)
    assert est == corner_power_mc(whole(_haar_sp_batch, 3), np.repeat(lam, 2) / 2, 6000, rng=7)


def _spy(monkeypatch, name):
    """Wrap the sampler ``integrals.<name>`` and record the ``cols`` of every call."""
    asked, sampler = [], getattr(integrals, name)

    def spy(n, count, gen, cols=None):
        asked.append(cols)
        return sampler(n, count, gen, cols=cols)

    monkeypatch.setattr(integrals, name, spy)
    return asked


def test_corner_power_mc_draws_columns_up_to_the_last_nonzero_exponent(monkeypatch):
    so_cols, u_cols = _spy(monkeypatch, "_haar_so_batch"), _spy(monkeypatch, "_haar_u_batch")
    so_integral_mc(8, [1.0, 0.5, 0, 0, 0, 0, 0, 0], 5000, rng=3)
    assert so_cols == [2, 2]  # two blocks, no redraw
    u_integral_mc(3, [1.0, 0.0, 0.0], [0.0, 0.0, 0.5], 5000, rng=3)
    assert u_cols == [3, 3]  # a conjugate exponent counts as well
    so_cols.clear()
    est = so_integral_mc(4, np.zeros(4), 5000, rng=3)
    assert so_cols == [1, 1]
    assert (est.mean, est.stderr, est.n_resamples) == (1.0, 0.0, 0)


def _disc_pivots(gen) -> np.ndarray:
    """Seeded points of the pivot disc |p - 1| <= 1: inside, on the circle and near p = 0."""
    inside = 1.0 + np.sqrt(gen.uniform(size=100)) * np.exp(1j * gen.uniform(-np.pi, np.pi, 100))
    circle = 1.0 + np.exp(1j * gen.uniform(-np.pi, np.pi, 30))
    # |s e^(i phi) - 1| <= 1 iff s <= 2 cos(phi); phi = arccos(s / 2) puts p on the circle
    s = 10.0 ** gen.uniform(-8.0, -1.0, 30)
    phi = np.concatenate([gen.uniform(-1.0, 1.0, 20), [1.0] * 5, [-1.0] * 5]) * np.arccos(s / 2)
    return np.concatenate([inside, circle, s * np.exp(1j * phi)])


def test_u_integrand_is_the_principal_power_of_each_pivot():
    # corner_power_mc forms p^a conj(p)^b as exp((a + b) log|p| + i (a - b) arg p);
    # two equal samples make the estimate that one value, real and imaginary part
    pivots = _disc_pivots(np.random.default_rng(41))
    for a, b in [(1.0, 0.5), (-0.8, 0.3), (0.25, -0.6), (2.5, 1.5), (-0.4, -0.45)]:
        for p in pivots:
            g = p - 1.0
            p = g + 1.0  # the pivot as the elimination forms it
            est = corner_power_mc(lambda count, gen, cols=None: np.full((count, 1, 1), g), [a],
                                  2, rng=0, b=[b])
            want = p**a * np.conj(p) ** b
            assert abs(complex(est.mean, est.imag_mean) - want) <= 1e-14 * abs(want), (p, a, b)


def test_u_mc_matches_one_pass_over_lapack_determinants():
    # integer exponents make every power single-valued: the integrand is
    # det(1+[g]_1) conj(det(1+[g]_2)) det(1+[g]_3)
    lam, mu = np.array([2.0, 1.0, 1.0]), np.array([1.0, 1.0, 0.0])
    est = u_integral_mc(3, lam, mu, 20_000, rng=11)
    assert est.n_resamples == 0

    def draw(gen, count):
        mats = haar_sample_batch(COMPLEX, 3, count, gen)
        dets = [np.linalg.det(np.eye(k) + mats[:, :k, :k]) for k in (1, 2, 3)]
        return dets[0] * np.conj(dets[1]) * dets[2]

    assert_matches_one_pass(est, one_pass_draws(draw, 20_000, 11))


def test_sp_mc_matches_one_pass_over_lapack_determinants():
    # the quaternionic determinant is the square root of the complex 2k x 2k one
    est = sp_integral_mc(2, np.array([1.5, 0.8]), 20_000, rng=13)
    assert est.n_resamples == 0

    def draw(gen, count):
        mats = haar_sample_batch(QUATERNION, 2, count, gen)
        dets = [np.abs(np.linalg.det(np.eye(2 * k) + mats[:, : 2 * k, : 2 * k])) for k in (1, 2)]
        return dets[0] ** ((1.5 - 0.8) / 2) * dets[1] ** (0.8 / 2)

    assert_matches_one_pass(est, one_pass_draws(draw, 20_000, 13))


def test_corner_power_mc_redraws_degenerate_samples():
    # g = -1 makes the first pivot 1 + g_11 vanish: every second sample of
    # the first draw is redrawn once, from the block's own stream
    draws = []

    def sample(count, gen, cols=None):
        mats = haar_sample_batch(REAL, 3, count, gen)
        if not draws:
            mats[::2] = -np.eye(3)
        draws.append(count)
        return mats

    est = corner_power_mc(sample, [1.0, 0.5], 4096, rng=5)
    assert draws == [4096, 2048] and est.n_resamples == 2048
    assert np.isfinite(est.mean) and 0 < est.max_abs <= 2.0**1.5


@pytest.mark.parametrize("field,bad", [
    # pivots (1, 0, 1): only the running log corner determinant through
    # pivot 2 sees it, since complex pivots have no sign test
    (COMPLEX, np.diag([0.0, -1.0, 0.0])),
    # pivots (1, -0.5, 1): every log is finite, only the sign test sees it
    (REAL, np.diag([0.0, -1.5, 0.0])),
], ids=["zero-complex", "negative-real"])
def test_corner_power_mc_redraws_what_only_a_later_pivot_shows(field, bad):
    def sample(count, gen, cols=None):
        mats = haar_sample_batch(field, 3, count, gen)
        if count == 4096:
            mats[::2] = bad
        return mats

    est = corner_power_mc(sample, [1.0, 0.5], 4096, rng=5)
    assert est.n_resamples == 2048
    assert np.isfinite(est.mean) and 0 < est.max_abs <= 2.0**1.5


def test_corner_power_mc_does_not_redraw_for_a_pivot_it_does_not_read():
    # diag(1, 1, -1) has pivots (2, 2, 0); pivot 3 is raised to the power 0,
    # which is exactly 1, so the redraw rule does not look at it
    def sample(count, gen, cols=None):
        mats = haar_sample_batch(REAL, 3, count, gen)
        mats[::2] = np.diag([1.0, 1.0, -1.0])
        return mats

    est = corner_power_mc(sample, [1.0, 0.5, 0.0], 4096, rng=5)
    assert est.n_resamples == 0
    assert est.max_abs == pytest.approx(2.0**1.5, rel=1e-15, abs=0)


def test_mc_stderr_survives_a_large_mean():
    # spread 1e-9 around 1: sum(x^2) - n mean^2 cancels to rounding noise,
    # the per-block (count, mean, M2) merge keeps the spread
    def block(gen, count, _source):
        return 1.0 + 1e-9 * gen.standard_normal(count), 0

    n = 50_000
    est = _mc_reduce(block, n, rng=3)
    assert est.stderr == pytest.approx(1e-9 / np.sqrt(n), rel=0.05, abs=0)
    assert abs(est.mean - 1.0) <= 5 * est.stderr
    again = _mc_reduce(block, n, rng=3)
    assert (again.mean, again.stderr) == (est.mean, est.stderr)
    # each deviation carries eps * mean / spread ~ 1e-7 relative rounding,
    # so two summation orders agree on the stderr only to about 1e-9
    assert_matches_one_pass(est, one_pass_draws(lambda g, c: block(g, c, g)[0], n, 3), rel=1e-8)


def test_mc_estimate_carries_seed_and_resample_count():
    est = sp_integral_mc(1, np.array([2.0]), 8192, rng=31)
    assert est.seed == 31
    assert est.n_resamples == 0
    assert est.max_abs is None or est.max_abs > 0

"""Acceptance suite: one test per numbered criterion.

Each test prints a single summary line on success; tolerances, sample
sizes and runtime budgets are stated inline next to each check.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

from berezin_lab import plancherel
from berezin_lab.ball import random_ball_point
from berezin_lab.berezin import (
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
from berezin_lab.compact import COMPLEX, QUATERNION, REAL, haar_sample_batch
from berezin_lab.gammaval import gamma_value
from berezin_lab.hermitization import catalog, corrupted_pair, dims_match
from berezin_lab.integrals import (
    VARIANT_AS_PRINTED,
    VARIANT_CORRECTED,
    so_integral_closed_form,
    so_integral_mc,
    so_integral_quadrature,
    sp_integral_closed_form,
    sp_integral_mc,
    u_integral_closed_form,
    u_integral_mc,
)
from berezin_lab.plancherel import (
    PlancherelParams,
    coeff_C,
    coeff_Q_o,
    coeff_V_o,
    continuous_weight_o,
    rank1_plancherel_probe,
    surviving_blocks,
)
from berezin_lab.ball import random_pseudo_orthogonal

from conftest import assert_matches_one_pass, boundary_points, label_tuples, one_pass_draws
from corner_calculus import (
    cayley_corner_residual,
    corner_det_multiplicativity_residual,
    cube_coords,
    equivariance_residual,
    upsilon,
)

SEED = 1729
FIELDS = (REAL, COMPLEX, QUATERNION)


def _announce(number: int, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {number}: PASS — {detail}")


def test_criterion_01_corner_reduction_calculus():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    comp = equi = mult = cay = 0.0
    count = 0
    for field in FIELDS:
        for n in (4, 5, 6):
            for _ in range(12):
                g = haar_sample_batch(field, n, 1, rng)[0]
                a = haar_sample_batch(field, n - 2, 1, rng)[0]
                b = haar_sample_batch(field, n - 2, 1, rng)[0]
                two = upsilon(upsilon(g, 1, field), 1, field)
                one = upsilon(g, 2, field)
                comp = max(comp, float(np.max(np.abs(two - one))))
                equi = max(equi, equivariance_residual(g, a, b, 2, field))
                mult = max(mult, corner_det_multiplicativity_residual(g, 1, n - 1, field))
                cay = max(cay, cayley_corner_residual(g, n - 2, field))
                count += 1
    elapsed = time.perf_counter() - t0
    assert count >= 100
    for name, worst in [("composition", comp), ("equivariance", equi),
                        ("multiplicativity", mult), ("cayley-corner", cay)]:
        assert worst < 1e-10, (name, worst)
    assert elapsed < 10.0
    _announce(1, f"{count} samples/identity, worst residual "
                 f"{max(comp, equi, mult, cay):.2e} < 1e-10, {elapsed:.1f}s < 10s")


def test_criterion_02_haar_pushforward_marginals():
    t0 = time.perf_counter()
    # KS at N = 1e6 and p > 1e-4: critical D 0.0022, family-wise false
    # positive rate 4e-4 over the four sizes
    ks_samples, n_samples = 1_000_000, 100_000
    rng = np.random.default_rng(SEED)
    pvals = {}
    for n in (2, 3, 4, 5):
        x = haar_sample_batch(REAL, n, ks_samples, rng)[:, 0, 0]
        cdf = stats.beta((n - 1) / 2.0, (n - 1) / 2.0, loc=-1.0, scale=2.0).cdf
        pvals[n] = float(stats.kstest(x, cdf).pvalue)
        assert pvals[n] > 1e-4, (n, pvals[n])
    coords = cube_coords(5, n_samples, SEED + 1)
    corr = np.corrcoef(coords.T)
    off = np.abs(corr[np.triu_indices(coords.shape[1], 1)])
    bound = 3.0 / np.sqrt(n_samples)
    assert np.all(off < bound)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(2, f"KS p-values {{{', '.join(f'{n}: {p:.2f}' for n, p in pvals.items())}}} "
                 f"all > 1e-4 at N=1e6; max |corr| {off.max():.1e} < {bound:.1e}; "
                 f"{elapsed:.1f}s < 60s")


SO_CASES = {
    2: [(1, 0), (2, 0), (0.5, 0), (-0.4, 0), (3, 0)],
    3: [(1, 0, 0), (1, 1, 0), (2, 1, 0), (0.7, 0.3, 0), (-0.4, 0.3, 0)],
    4: [(1, 0, 0, 0), (1, 1, 1, 0), (2, 1, 0.5, 0), (0.6, 0.4, 0.2, 0),
        (-0.5, 0.25, 0.5, 0)],
}


def test_criterion_03_orthogonal_integral_identity():
    t0 = time.perf_counter()
    worst_z = worst_rel = 0.0
    idx = 0
    for n, cases in SO_CASES.items():
        for lam in cases:
            lam = np.asarray(lam, dtype=float)
            quad = so_integral_quadrature(n, lam)
            cf = so_integral_closed_form(n, lam, VARIANT_CORRECTED)
            rel = abs(quad - cf) / abs(cf)
            est = so_integral_mc(n, lam, 200_000, rng=SEED + idx)
            z = abs(est.mean - quad) / est.stderr
            assert z <= 3.0, (n, tuple(lam), z)
            assert rel <= 1e-8, (n, tuple(lam), rel)
            worst_z, worst_rel = max(worst_z, z), max(worst_rel, rel)
            idx += 1
    # the discriminating signature: exactly 1 for the corrected constant,
    # 1/2 for the as-printed one
    assert so_integral_closed_form(2, [1, 0], VARIANT_CORRECTED) == pytest.approx(1.0)
    assert so_integral_closed_form(2, [1, 0], VARIANT_AS_PRINTED) == pytest.approx(0.5)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _announce(3, f"{idx} cases over n=2,3,4 at N=2e5: worst |z| {worst_z:.2f} <= 3, "
                 f"worst quadrature rel {worst_rel:.1e} <= 1e-8, discriminator 1 vs 1/2; "
                 f"{elapsed:.0f}s < 300s")


def test_criterion_04_unitary_and_symplectic_integrals():
    t0 = time.perf_counter()
    assert u_integral_closed_form(1, [1.0], [1.0]) == pytest.approx(2.0)
    assert u_integral_closed_form(1, [1.0], [0.0]) == pytest.approx(1.0)
    assert sp_integral_closed_form(1, [2.0]) == pytest.approx(2.0)
    zs = []
    lam, mu = np.array([1.0, 0.5]), np.array([0.7, 0.0])
    est = u_integral_mc(2, lam, mu, 200_000, rng=SEED + 50)
    zs.append(abs(est.mean - u_integral_closed_form(2, lam, mu)) / est.stderr)
    est = sp_integral_mc(1, np.array([2.0]), 200_000, rng=SEED + 51)
    zs.append(abs(est.mean - 2.0) / est.stderr)
    lam2 = np.array([1.5, 0.8])
    est = sp_integral_mc(2, lam2, 200_000, rng=SEED + 52)
    zs.append(abs(est.mean - sp_integral_closed_form(2, lam2)) / est.stderr)
    assert max(zs) <= 3.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    _announce(4, f"n=1 exact values 2, 1, 2; MC z-scores {[f'{z:.2f}' for z in zs]} "
                 f"all <= 3 at N=2e5; {elapsed:.0f}s < 180s")


def test_criterion_05_gram_positivity_and_witness_search():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    n_checked = 0
    for p, q in [(1, 2), (2, 2), (2, 3), (2, 4)]:
        alphas = [float(k) for k in range(p)] + [p - 0.5, p + 0.7]
        assert all(wallach_admissible(a, p) for a in alphas)
        for _ in range(200):
            pts = [
                random_ball_point(p, q, rng, 0.3, 0.98)
                for _ in range(int(rng.integers(4, 9)))
            ]
            for alpha in alphas:
                rep = gram_spectrum(pts, alpha)
                assert rep.min_eig >= -1e-8 * max(rep.max_eig, 1e-30)
                n_checked += 1
    found = [pd_witness_search(2, 3, 0.5, budget=1000, rng=s) for s in range(1, 6)]
    assert all(r.found for r in found)
    none_found = [pd_witness_search(2, 3, 1.0, budget=1000, rng=s) for s in range(1, 6)]
    assert not any(r.found for r in none_found)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _announce(5, f"{n_checked} admissible Gram spectra all >= -1e-8*max_eig; "
                 f"alpha=0.5 witness on 5/5 seeds (<= {max(r.n_configs for r in found)} "
                 f"configs), none at alpha=1.0; {elapsed:.0f}s < 120s")


def test_criterion_06_covariance_and_domination():
    t0 = time.perf_counter()
    table = covariance_convention_table(rng=SEED)
    winner = "u-cocycle,+,+"
    assert table[winner] < 1e-12
    assert min(v for k, v in table.items() if k != winner) > 1e-3
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        g = random_pseudo_orthogonal(2, 3, rng)
        z = random_ball_point(2, 3, rng, 0.0, 0.9)
        u = random_ball_point(2, 3, rng, 0.0, 0.9)
        res = covariance_residual(g, z, u, 1.5)
        if np.isfinite(res):
            worst = max(worst, res)
    assert worst < 1e-10
    n_dom = 0
    for _ in range(10_000):
        z = random_ball_point(2, 3, rng, 0.0, 0.999)
        u = random_ball_point(2, 3, rng, 0.0, 0.999)
        c = 1.0 - 1e-3 if n_dom % 10 == 0 else float(rng.uniform(0.0, 1.0))
        assert domination_residual(z, u, c, 1.7) == 0.0
        n_dom += 1
    elapsed = time.perf_counter() - t0
    _announce(6, f"unique convention winner at {table[winner]:.1e} < 1e-12; matrix-case "
                 f"residual {worst:.1e} < 1e-10; domination exactly 0 on {n_dom} samples "
                 f"incl. c=1-1e-3; {elapsed:.0f}s")


def test_criterion_07_boundary_restriction():
    t0 = time.perf_counter()
    # rank correctness on >= 99% of samples
    rates = {}
    for p, q, r in [(2, 4, 0), (2, 4, 1), (3, 5, 2)]:
        batch = boundary_points(p, q, r, 1000, SEED)
        gram = np.eye(p) - batch @ np.transpose(batch, (0, 2, 1))
        svals = np.linalg.svd(gram, compute_uv=False)
        ranks = np.sum(svals > 1e-9, axis=1)
        rates[(p, q, r)] = float(np.mean(ranks == r))
        assert rates[(p, q, r)] >= 0.99
    # probe versus the deterministic closed form at N = 1e5.  The square of
    # the integrand is the integrand at 2 alpha, so the variance is finite
    # only for 2 alpha < threshold; only there does the z-test mean
    # anything.  At the other points the quadrature of the same SO(q + r)
    # integral, with -alpha on the first p - r exponents, is the oracle.
    zscores = {}
    worst_quad = 0.0
    for p, q, r, alpha in [(1, 2, 0, 0.2), (2, 4, 1, 0.5), (1, 2, 0, 0.4), (2, 4, 1, 1.0)]:
        cf = restriction_closed_form(p, q, r, alpha)
        if 2 * alpha < restriction_threshold(p, q, r):
            est = restriction_probe(p, q, r, alpha, n_samples=100_000, rng=SEED)
            z = abs(est.mean - cf) / est.stderr
            zscores[(p, q, r, alpha)] = z
            assert z <= 3.0, ((p, q, r, alpha), z)
        else:
            lam = np.zeros(q + r)
            lam[: p - r] = -alpha
            rel = abs(so_integral_quadrature(q + r, lam) - cf) / cf
            worst_quad = max(worst_quad, rel)
            assert rel <= 1e-8, ((p, q, r, alpha), rel)
    # heavy-tail diagnostic above the threshold: the running maximum keeps
    # growing across N = 1e4, 1e5, 1e6
    for p, q, r in [(1, 2, 0), (2, 4, 1)]:
        alpha = restriction_threshold(p, q, r) + 0.5
        maxes = [
            restriction_probe(p, q, r, alpha, n_samples=n, rng=SEED).max_abs
            for n in (10_000, 100_000, 1_000_000)
        ]
        assert maxes[0] < maxes[1] < maxes[2]
        assert maxes[2] / maxes[0] > 5.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _announce(7, f"rank rates {list(rates.values())} all >= 0.99; probe z-scores "
                 f"{[f'{z:.2f}' for z in zscores.values()]} <= 3 at N=1e5 where the variance "
                 f"is finite, quadrature rel {worst_quad:.1e} <= 1e-8 where not; running max "
                 f"grows across 1e4->1e6 above threshold; {elapsed:.0f}s < 300s")


def test_criterion_08_plancherel_block_structure():
    t0 = time.perf_counter()
    # finiteness and the alpha >= h collapse on a (p <= 3, q <= 6) sweep
    n_swept = 0
    for p in (1, 2, 3):
        for q in range(p, 7):
            h = (p + q) / 2.0 - 1.0
            for alpha in np.arange(0.25, h + 2.0, 0.25):
                blocks = surviving_blocks(PlancherelParams(p, q, float(alpha)))
                assert len(blocks) < 200 and blocks.shape[1] == p
                labels = label_tuples(blocks)
                assert labels[0] == ()
                if alpha >= h:
                    assert labels == [()]
                n_swept += 1
    # negative-integer degeneration at p = 2: low-rank blocks all killed,
    # some full-rank block finite, no uncancelled poles
    for alpha in (-1.0, -2.0):
        statuses = {}
        for u in [(), (0,), (1,), (2,), (3,)] + [
            (a, b) for a in range(4) for b in range(4)
        ]:
            row = np.array([u], dtype=np.int64).reshape(1, len(u))
            cv = (coeff_C(row, 2) * coeff_V_o(alpha, row, 2, 5))[0]
            assert not cv.is_pole
            statuses[u] = "zero" if cv.is_zero else "finite"
        assert all(statuses[u] == "zero" for u in statuses if len(u) < 2)
        assert any(v == "finite" for u, v in statuses.items() if len(u) == 2)
    # r = 0 block coefficients reproduce the continuous weight up to an
    # s-independent constant
    p, q, alpha = 2, 5, 2.5
    row = np.zeros((1, 0), dtype=np.int64)
    cv = (coeff_C(row, p) * coeff_V_o(alpha, row, p, q)).to_float()[0]
    prefactor = 1.0
    for m in range(1, p + 1):
        prefactor *= 1.0 / gamma_value(alpha - m + 1).to_float()
    ratios = [
        cv * coeff_Q_o(alpha, row, np.asarray(s), p, q).to_float()
        / (prefactor * continuous_weight_o(PlancherelParams(p, q, alpha), s))
        for s in ([0.7, 0.3], [1.9, 1.1], [3.3, 0.9], [5.0, 2.2], [0.0, 1.3])
    ]
    spread = float(np.max(np.abs(np.asarray(ratios) - ratios[0])))
    assert spread < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _announce(8, f"{n_swept} sweep points finite with alpha>=h collapse; degeneration "
                 f"pattern verified at alpha=-1,-2; r=0 ratio spread {spread:.1e} < 1e-8; "
                 f"{elapsed:.1f}s < 30s")


def test_criterion_09_rank1_spectral_probe(monkeypatch):
    t0 = time.perf_counter()
    monkeypatch.setattr(plancherel, "_RANK1_T_GRID", (0.5, 1.0, 1.5, 2.0, 3.0))
    worst = 0.0
    for q, alpha in ((3, 4.0), (3, 2.0), (5, 3.0)):
        rep = rank1_plancherel_probe(q, alpha)
        assert rep.max_residual < 1e-8, (q, alpha, rep.max_residual)
        worst = max(worst, rep.max_residual)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _announce(9, f"Gauss-Jacobi resynthesis residual {worst:.1e} < 1e-8 on t in "
                 f"[0.5, 3] at (q, alpha) = (3,4), (3,2), (5,3); {elapsed:.2f}s")


def test_criterion_10_hermitization_catalog():
    t0 = time.perf_counter()
    rows = catalog()
    assert len(rows) == 12
    for row in rows:
        for value in range(1, 9):
            assert dims_match(row, {name: value for name in row.params})
    bad = corrupted_pair()
    assert all(
        not dims_match(bad, {name: value for name in bad.params})
        for value in range(1, 9)
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce(10, f"12/12 rows balance over sweep 1..8, corrupted control detected; "
                  f"{elapsed * 1000:.0f}ms < 1s")


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "berezin_lab.cli", *argv],
        capture_output=True,
        text=True,
    )


def test_criterion_11_harness_contracts():
    t0 = time.perf_counter()
    # byte-identical reports under a fixed seed
    a = _cli("haar", "so", "--n", "3", "--samples", "2", "--seed", "7")
    b = _cli("haar", "so", "--n", "3", "--samples", "2", "--seed", "7")
    assert a.returncode == 0 and a.stdout == b.stdout
    c = _cli("integral", "so", "--n", "2", "--lambda", "1,0",
             "--samples", "20000", "--seed", "7")
    d = _cli("integral", "so", "--n", "2", "--lambda", "1,0",
             "--samples", "20000", "--seed", "7")
    da, db = json.loads(c.stdout), json.loads(d.stdout)
    da.pop("duration"), db.pop("duration")
    assert da == db
    # exit-code semantics: 0 pass, 2 verification failure, 3 usage/domain
    assert c.returncode == 0
    fail = _cli("integral", "so", "--n", "2", "--lambda", "1,0",
                "--samples", "20000", "--seed", "7", "--tol", "z=1e-6")
    assert fail.returncode == 2
    usage = _cli("integral", "so", "--n", "0", "--lambda", "1,0")
    assert usage.returncode == 3
    # the Monte Carlo engine repeats under a fixed seed and its merged
    # blocks equal one pass over the concatenated block streams
    lam = np.array([1.0, 0.5, 0.0])
    est = so_integral_mc(3, lam, 50_000, rng=7)
    again = so_integral_mc(3, lam, 50_000, rng=7)
    assert (est.mean, est.stderr, est.max_abs) == (again.mean, again.stderr, again.max_abs)

    def draw(gen, count):
        mats = haar_sample_batch(REAL, 3, count, gen)
        dets = [np.linalg.det(np.eye(k) + mats[:, :k, :k]) for k in (1, 2)]
        return np.sqrt(dets[0] * dets[1])

    assert est.n_resamples == 0
    assert_matches_one_pass(est, one_pass_draws(draw, 50_000, 7))
    elapsed = time.perf_counter() - t0
    _announce(11, f"byte-identical reports, exit codes 0/2/3, seeded MC equal to one "
                  f"pass over its block streams; {elapsed:.0f}s")

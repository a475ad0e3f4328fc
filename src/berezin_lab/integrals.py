"""Haar integrals of corner-determinant products: closed forms and oracles.

Three independent evaluation routes are kept deliberately separate:

* closed forms as Gamma-function products (with variants where two
  candidate constants are in circulation for the real case),
* Monte Carlo over explicit Haar samples,
* for the real case, adaptive quadrature on the factorized density.

The Monte Carlo engine draws each logical block of 4096 samples from its
own seeded substream and merges block partials in block order, so the
result is bit-identical no matter how blocks are batched together.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log, sqrt

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .compact import _haar_so_batch, _haar_sp_batch, _haar_u_batch
from .errors import DomainError, InvalidParams, QuadratureFailure
from .rngs import block_rng, derive_root_seed

BLOCK = 4096

VARIANT_AS_PRINTED = "as-printed"
VARIANT_CORRECTED = "two-power-corrected"
SO_VARIANTS = (VARIANT_AS_PRINTED, VARIANT_CORRECTED)

# Adjudicated winner for the real-case constant: the discriminating n = 2
# evaluation (exponents (1, 0)) has exact value 1, which only the
# two-power-corrected form reproduces; Monte Carlo and quadrature agree.
WINNING_SO_VARIANT = VARIANT_CORRECTED


@dataclass
class MCEstimate:
    """Seeded Monte Carlo result with exact reproducibility metadata."""

    mean: float
    stderr: float
    n_samples: int
    seed: int
    n_resamples: int = 0
    imag_mean: float | None = None
    max_abs: float | None = None


# ---------------------------------------------------------------------------
# Parameter plumbing
# ---------------------------------------------------------------------------


def _exponents(lam, n: int, name: str = "lambda") -> np.ndarray:
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape != (n,):
        raise InvalidParams(f"{name} must have length n = {n}, got shape {lam.shape}")
    return lam


def _require_trailing_zero(lam: np.ndarray) -> None:
    # The real-case identity normalizes the last exponent to zero; the
    # integrand only sees differences, so shift the whole vector first.
    if abs(lam[-1]) > 0:
        raise InvalidParams(
            "the last exponent must be 0; subtract lambda[n-1] from every entry "
            "(the integrand depends only on the differences)"
        )


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def so_integral_closed_form(n: int, lam, variant: str = WINNING_SO_VARIANT) -> float:
    """Gamma product for the SO(n) corner-determinant integral.

    ``variant`` chooses between the two circulating constants: the
    ``two-power-corrected`` form carries an extra 2^lambda_k per factor.
    Requires lambda_k > -(n - k)/2 for k = 1..n-1 and a trailing zero.
    """
    if variant not in SO_VARIANTS:
        raise InvalidParams(f"variant must be one of {SO_VARIANTS}")
    if n < 2:
        raise InvalidParams("need n >= 2")
    lam = _exponents(lam, n)
    _require_trailing_zero(lam)
    _check_so_domain(n, lam)
    total = 0.0
    for k in range(1, n):
        a = float(n - k)
        lk = lam[k - 1]
        total += gammaln(a) + gammaln(lk + a / 2.0) - gammaln(a / 2.0) - gammaln(lk + a)
        if variant == VARIANT_CORRECTED:
            total += lk * log(2.0)
    return float(np.exp(total))


def _check_so_domain(n: int, lam: np.ndarray) -> None:
    bad = [k for k in range(1, n) if lam[k - 1] <= -(n - k) / 2.0]
    if bad:
        raise DomainError(
            f"convergence needs lambda_k > -(n-k)/2; violated at k = {bad} for n = {n}"
        )


def u_integral_closed_form(n: int, lam, mu) -> float:
    """Gamma product for the U(n) integral with holomorphic and conjugate exponents."""
    if n < 1:
        raise InvalidParams("need n >= 1")
    lam = _exponents(lam, n, "lambda")
    mu = _exponents(mu, n, "mu")
    total = 0.0
    for k in range(1, n + 1):
        a = float(n - k + 1)
        lk, mk = lam[k - 1], mu[k - 1]
        for arg in (a + lk + mk, a + lk, a + mk):
            if arg <= 0:
                raise DomainError(
                    f"convergence needs n-k+1+lambda_k, n-k+1+mu_k and their sum "
                    f"positive; violated at k = {k}"
                )
        total += gammaln(a) + gammaln(a + lk + mk) - gammaln(a + lk) - gammaln(a + mk)
    return float(np.exp(total))


def sp_integral_closed_form(n: int, lam) -> float:
    """Gamma product for the Sp(n) quaternionic corner-determinant integral."""
    if n < 1:
        raise InvalidParams("need n >= 1")
    lam = _exponents(lam, n)
    total = 0.0
    for k in range(1, n + 1):
        a = 2.0 * (n - k + 1)
        lk = lam[k - 1]
        for arg in (a + lk + 1.0, a + lk / 2.0, a + lk / 2.0 + 1.0):
            if arg <= 0:
                raise DomainError(f"convergence violated at k = {k} (argument {arg:.3f})")
        total += gammaln(a) + gammaln(a + lk + 1.0) - gammaln(a + lk / 2.0) - gammaln(a + lk / 2.0 + 1.0)
    return float(np.exp(total))


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------


def _mc_reduce(
    block_values,
    n_samples: int,
    rng,
    blocks_per_batch: int = 8,
    track_imag: bool = False,
) -> MCEstimate:
    """Reduce per-block values into a chunking-independent estimate.

    ``block_values(gen, count)`` returns (values, n_resampled) for one
    logical block.  Partials are always merged in block order, so
    ``blocks_per_batch`` only controls how much work is materialized at
    once and never changes the result.
    """
    if n_samples < 2:
        raise InvalidParams("need at least 2 samples")
    if blocks_per_batch < 1:
        raise InvalidParams("blocks_per_batch must be >= 1")
    root = derive_root_seed(rng)
    n_blocks = ceil(n_samples / BLOCK)
    n = 0
    mean = m2 = si = 0.0
    n_res = 0
    max_abs = 0.0
    for start in range(0, n_blocks, blocks_per_batch):
        partials = []
        for b in range(start, min(start + blocks_per_batch, n_blocks)):
            count = BLOCK if b < n_blocks - 1 else n_samples - BLOCK * (n_blocks - 1)
            vals, res = block_values(block_rng(root, b), count)
            re = np.real(vals)
            block_mean = float(re.mean())
            partials.append(
                (
                    count,
                    block_mean,
                    float(np.square(re - block_mean).sum()),
                    float(np.imag(vals).sum()),
                    res,
                    float(np.max(np.abs(vals))),
                )
            )
        # Chan-Golub-LeVeque merge of (count, mean, M2): the variance never
        # comes from cancelling sum(x^2) against n mean^2
        for count, block_mean, block_m2, block_si, res, block_max in partials:
            total = n + count
            delta = block_mean - mean
            mean += delta * count / total
            m2 += block_m2 + delta * delta * n * count / total
            n = total
            si += block_si
            n_res += res
            max_abs = max(max_abs, block_max)
    var = m2 / (n_samples - 1)
    return MCEstimate(
        mean=mean,
        stderr=sqrt(var / n_samples),
        n_samples=n_samples,
        seed=root,
        n_resamples=n_res,
        imag_mean=(si / n_samples) if track_imag else None,
        max_abs=max_abs,
    )


def _resample_until_valid(sampler, evaluate, gen, count: int):
    """Draw a block, redrawing the measure-zero samples whose base degenerates."""
    mats = sampler(count, gen)
    vals, ok = evaluate(mats)
    n_res = 0
    while not ok.all():
        idx = np.flatnonzero(~ok)
        n_res += idx.size
        fresh = sampler(idx.size, gen)
        fvals, fok = evaluate(fresh)
        vals[idx] = fvals
        ok[idx] = fok
    return vals, n_res


_TINY = 1e-300


def so_integral_mc(
    n: int,
    lam,
    n_samples: int,
    rng=None,
    blocks_per_batch: int = 8,
) -> MCEstimate:
    """Monte Carlo for the SO(n) corner-determinant integral.

    Accepts any exponent vector; the integrand is invariant under adding a
    constant to all entries, which is how it connects to the normalized
    closed form.
    """
    if n < 2:
        raise InvalidParams("need n >= 2")
    lam = _exponents(lam, n)
    diffs = lam[:-1] - lam[1:]

    def evaluate(mats):
        count = mats.shape[0]
        logs = np.zeros(count)
        ok = np.ones(count, dtype=bool)
        for k in range(1, n):
            d = np.linalg.det(np.eye(k) + mats[:, :k, :k])
            good = d > _TINY
            ok &= good
            logs += diffs[k - 1] * np.log(np.where(good, d, 1.0))
        return np.exp(logs), ok

    def block(gen, count):
        return _resample_until_valid(lambda c, g: _haar_so_batch(n, c, g), evaluate, gen, count)

    return _mc_reduce(block, n_samples, rng, blocks_per_batch)


def u_integral_mc(
    n: int,
    lam,
    mu,
    n_samples: int,
    rng=None,
    blocks_per_batch: int = 8,
) -> MCEstimate:
    """Monte Carlo for the U(n) integral.

    Complex powers are evaluated on the corner-determinant ratios
    r_k = det(1+[g]_k)/det(1+[g]_{k-1}), which live in the closed right
    half-plane, so the principal branch is safe sample by sample.
    """
    if n < 1:
        raise InvalidParams("need n >= 1")
    lam = _exponents(lam, n, "lambda")
    mu = _exponents(mu, n, "mu")

    def evaluate(mats):
        count = mats.shape[0]
        acc = np.zeros(count, dtype=complex)
        ok = np.ones(count, dtype=bool)
        prev = np.ones(count, dtype=complex)
        for k in range(1, n + 1):
            d = np.linalg.det(np.eye(k) + mats[:, :k, :k])
            good = np.abs(d) > _TINY
            ok &= good
            ratio = np.where(good, d, 1.0) / prev
            lg = np.log(ratio)
            acc += lam[k - 1] * lg + mu[k - 1] * np.conj(lg)
            prev = np.where(good, d, 1.0)
        return np.exp(acc), ok

    def block(gen, count):
        return _resample_until_valid(lambda c, g: _haar_u_batch(n, c, g), evaluate, gen, count)

    return _mc_reduce(block, n_samples, rng, blocks_per_batch, track_imag=True)


def sp_integral_mc(
    n: int,
    lam,
    n_samples: int,
    rng=None,
    blocks_per_batch: int = 8,
) -> MCEstimate:
    """Monte Carlo for the Sp(n) integral of quaternionic corner determinants."""
    if n < 1:
        raise InvalidParams("need n >= 1")
    lam = _exponents(lam, n)
    diffs = np.append(lam[:-1] - lam[1:], lam[-1])

    def evaluate(mats):
        count = mats.shape[0]
        logs = np.zeros(count)
        ok = np.ones(count, dtype=bool)
        for k in range(1, n + 1):
            _, logdet = np.linalg.slogdet(np.eye(2 * k) + mats[:, : 2 * k, : 2 * k])
            good = logdet > log(_TINY)
            ok &= good
            # quaternionic determinant is the square root of the complex one
            logs += diffs[k - 1] * np.where(good, logdet, 0.0) / 2.0
        return np.exp(logs), ok

    def block(gen, count):
        return _resample_until_valid(lambda c, g: _haar_sp_batch(n, c, g), evaluate, gen, count)

    return _mc_reduce(block, n_samples, rng, blocks_per_batch)


# ---------------------------------------------------------------------------
# Quadrature oracle (real case)
# ---------------------------------------------------------------------------


def so_integral_quadrature(n: int, lam) -> float:
    """Independent oracle: product of normalized 1-d moments of the corner law.

    Factor k is the mean of (1 + x)^lambda_k under the weight
    (1 - x^2)^((n-k-2)/2) on [-1, 1], evaluated with the algebraic-weight
    quadrature rule so the endpoint singularities are handled exactly.
    """
    if n < 2:
        raise InvalidParams("need n >= 2")
    lam = _exponents(lam, n)
    _require_trailing_zero(lam)
    _check_so_domain(n, lam)
    total = 1.0
    for k in range(1, n):
        e = (n - k - 2) / 2.0
        num = _alg_weight_integral(e + lam[k - 1], e)
        den = _alg_weight_integral(e, e)
        total *= num / den
    return total


def _alg_weight_integral(alpha: float, beta: float) -> float:
    # int_{-1}^{1} (1+x)^alpha (1-x)^beta dx via the QAWS algorithm
    val, err = quad(
        lambda _x: 1.0,
        -1.0,
        1.0,
        weight="alg",
        wvar=(alpha, beta),
        epsabs=1e-14,
        epsrel=1e-12,
        limit=200,
    )
    if err > max(1e-10 * abs(val), 1e-13):
        raise QuadratureFailure(f"estimated error {err:.2e} too large for value {val:.6e}")
    return val

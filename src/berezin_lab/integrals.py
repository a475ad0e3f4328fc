"""Haar integrals of corner-determinant products: closed forms and oracles.

Three independent evaluation routes are kept deliberately separate:

* closed forms as Gamma-function products (with variants where two
  candidate constants are in circulation for the real case),
* Monte Carlo over explicit Haar samples,
* for the real case, the corner law's own moments: the Haar pivots of
  SO(n) are independent, pivot k with density proportional to
  (1 - x^2)^((n-k-2)/2) on [-1, 1], so each factor is a Beta moment.

The Monte Carlo engine draws each logical block of 4096 samples from its
own seeded substream and merges block partials in block order, so a fixed
seed gives a bit-identical result.  Every estimate is one call to
``corner_power_mc``, which raises the corner pivots of one batched
elimination, ``compact.corner_pivots``, to one exponent vector per family,
and every closed form is one vectorised Gamma ratio.  A pivot raised to
the power 0 is exactly 1, so only the pivots up to the last nonzero
exponent are read, and the sampler of every field draws and
orthonormalises only those ``rows`` leading columns.  Gram-Schmidt fixes
column j from the first j Gaussian columns alone, and the SO(n) det = -1
sign flip changes column n alone, so the flip is skipped and the corner
is bit-identical to the full sample's.  Both kernels, the Gram-Schmidt
sampler and ``corner_pivots``, work with the sample axis last, so each
elementwise step sweeps a block's 4096 samples: the Gaussian is drawn as
(columns, d, samples), for Sp(n) the drawn columns only, copied into the
even slots of the (2 columns, d, samples) output, Gram-Schmidt
orthonormalises it in place through one (d, samples) temporary, the
sampler hands back a view of it, ``corner_pivots`` eliminates on that
storage's leading corner, and the pivots come back as (rows, samples).
The evaluation keeps that layout: the running log corner determinant and
the positivity test go row by row, and only the contraction with the
exponent vector takes one transposed copy.  The U(n) integrand p^a conj(p)^b is formed from log|p|,
which the redraw test needs anyway, and arg p, with no complex logarithm.

The Gaussian draw is about half of an estimate's work, so it runs a block
ahead, on the second core.  The calling thread makes each block's
generator ``block_rng(root, b)`` and allocates its storage
(``compact._gaussian``); one helper thread, the draw-ahead thread, fills
block b + 1's storage while the calling thread orthonormalises,
eliminates, evaluates and merges block b.  Block 0 is filled on the
calling thread while block 1 fills on the helper, and an estimate of one
block starts no thread.  Redraws stay on the calling thread and read
block b's generator after its first draw.  So each generator is read by
the same draws in the same order whichever thread makes them, the merge
order is fixed, and no estimate's bytes depend on the thread timing.  The
helper calls nothing but the generator: every function that
``perfbench/layers.py`` binds runs on the calling thread, whose span
stack is not thread-safe.  The helper is a daemon, started by the first
estimate of two or more blocks and serving every later one, and an
exception raised by a fill is raised again from the estimate that waits
for it.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass
from functools import partial
from math import ceil, log, sqrt

import numpy as np

from .compact import (
    COMPLEX,
    QUATERNION,
    REAL,
    _gaussian,
    _haar_so_batch,
    _haar_sp_batch,
    _haar_u_batch,
    corner_pivots,
)
from .errors import DomainError, InvalidParams
from .gammaval import gamma_value, lgamma
from .rngs import block_rng, derive_root_seed

BLOCK = 4096

VARIANT_AS_PRINTED = "as-printed"
VARIANT_CORRECTED = "two-power-corrected"
SO_VARIANTS = (VARIANT_AS_PRINTED, VARIANT_CORRECTED)

# Adjudicated winner for the real-case constant: the discriminating n = 2
# evaluation (exponents (1, 0)) has exact value 1, which only the
# two-power-corrected form reproduces; Monte Carlo and the corner law agree.
WINNING_SO_VARIANT = VARIANT_CORRECTED


@dataclass
class MCEstimate:
    """Seeded Monte Carlo result with exact reproducibility metadata."""

    mean: float
    stderr: float
    n_samples: int
    seed: int
    n_resamples: int = 0
    imag_mean: float = 0.0
    max_abs: float = 0.0


# ---------------------------------------------------------------------------
# Parameter plumbing
# ---------------------------------------------------------------------------


def _exponents(lam, n: int, name: str = "lambda", n_min: int = 1) -> np.ndarray:
    if n < n_min:
        raise InvalidParams(f"need n >= {n_min}")
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape != (n,):
        raise InvalidParams(f"{name} must have length n = {n}, got shape {lam.shape}")
    if not np.isfinite(lam).all():
        raise InvalidParams(f"{name} must be finite, got {lam.tolist()}")
    return lam


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


_LOG_FLOAT_MAX = log(sys.float_info.max)


def _gamma_ratio(num, den, what: str, two_power: float = 0.0) -> float:
    """2^two_power prod Gamma(num) / prod Gamma(den) over (factors, args) arrays.

    Row k - 1 holds the arguments of factor k.  Each integral converges
    exactly where every argument is positive; elsewhere the DomainError
    names the first divergent k and states the condition ``what``.  The
    power of 2 joins the log sum before its one exp, so only a value that
    is itself past the float range is refused, with InvalidParams.
    """
    bad = ~(np.all(num > 0, axis=1) & np.all(den > 0, axis=1))
    if bad.any():
        raise DomainError(f"convergence needs {what}; violated at k = {np.argmax(bad) + 1}")
    log_value = float(lgamma(num).sum() - lgamma(den).sum()) + two_power * log(2.0)
    if log_value > _LOG_FLOAT_MAX:
        raise InvalidParams(f"the Gamma product is e^{log_value:.6g}, past the float range")
    return float(np.exp(log_value))


_SO_DOMAIN = "lambda_k - lambda_n > -(n-k)/2"


def _so_exponents(n: int, lam) -> np.ndarray:
    """Checked SO(n) exponents, shifted to a trailing zero: lambda - lambda_n.

    The real-case identity is stated for a last exponent of zero, and the
    integrand only sees differences, so every SO evaluation shifts here.
    """
    lam = _exponents(lam, n, n_min=2)
    return lam - lam[-1]


def _so_gamma_args(n: int, lam) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked SO(n) exponents and the Gamma arguments of their n - 1 factors."""
    lam = _so_exponents(n, lam)
    a = n - np.arange(1.0, n)
    return lam, np.column_stack([a, lam[:-1] + a / 2.0]), np.column_stack([a / 2.0, lam[:-1] + a])


def so_integral_closed_form(n: int, lam, variant: str = WINNING_SO_VARIANT) -> float:
    """Gamma product for the SO(n) corner-determinant integral.

    ``variant`` chooses between the two circulating constants: the
    ``two-power-corrected`` form carries an extra 2^lambda_k per factor.
    Any exponent vector is shifted to a trailing zero first; converges iff
    lambda_k - lambda_n > -(n - k)/2 for k = 1..n-1.
    """
    if variant not in SO_VARIANTS:
        raise InvalidParams(f"variant must be one of {SO_VARIANTS}")
    lam, num, den = _so_gamma_args(n, lam)
    two_power = float(lam.sum()) if variant == VARIANT_CORRECTED else 0.0
    return _gamma_ratio(num, den, _SO_DOMAIN, two_power)


def u_integral_closed_form(n: int, lam, mu) -> float:
    """Gamma product for the U(n) integral with holomorphic and conjugate exponents."""
    lam = _exponents(lam, n, "lambda")
    mu = _exponents(mu, n, "mu")
    a = n - np.arange(0.0, n)
    return _gamma_ratio(
        np.column_stack([a, a + lam + mu]),
        np.column_stack([a + lam, a + mu]),
        "n-k+1+lambda_k, n-k+1+mu_k and their sum positive",
    )


def sp_integral_closed_form(n: int, lam) -> float:
    """Gamma product for the Sp(n) quaternionic corner-determinant integral."""
    lam = _exponents(lam, n)
    a = 2.0 * (n - np.arange(0.0, n))
    return _gamma_ratio(
        np.column_stack([a, a + lam + 1.0]),
        np.column_stack([a + lam / 2.0, a + lam / 2.0 + 1.0]),
        "2(n-k+1)+lambda_k/2 and 2(n-k+1)+lambda_k+1 positive",
    )


def _or_inf(closed_form, *args) -> float:
    """``closed_form(*args)``, or inf where it refuses its arguments.

    The square of an integrand is the same family's integrand at doubled
    exponents, so each second moment is a closed form, and the variance is
    infinite exactly where that form diverges.  A finite value past the
    float range is not infinite variance: its InvalidParams passes through.
    """
    try:
        return closed_form(*args)
    except DomainError:
        return float("inf")


def so_second_moment(n: int, lam) -> float:
    """E f^2 of the SO(n) integrand f: the closed form at 2 lambda."""
    return _or_inf(so_integral_closed_form, n, 2.0 * _exponents(lam, n, n_min=2))


def sp_second_moment(n: int, lam) -> float:
    """E f^2 of the Sp(n) integrand f: the closed form at 2 lambda."""
    return _or_inf(sp_integral_closed_form, n, 2.0 * _exponents(lam, n))


def u_second_moment(n: int, lam, mu) -> float:
    """E (Re f)^2 of the U(n) integrand f = prod p^lambda conj(p)^mu.

    (Re f)^2 = (|f|^2 + Re f^2)/2, |f|^2 is the integrand at (lambda + mu,
    lambda + mu) and f^2 the one at (2 lambda, 2 mu).  The variance is
    finite exactly where E |f|^2 is.  E f^2 then converges absolutely, also
    where the closed form refuses (2 lambda, 2 mu), and is its Gamma ratio
    continued: a signed value, 0 where a denominator Gamma has a pole.
    """
    lam, mu = _exponents(lam, n, "lambda"), _exponents(mu, n, "mu")
    abs_sq = _or_inf(u_integral_closed_form, n, lam + mu, lam + mu)
    if abs_sq == float("inf"):
        return abs_sq
    a = n - np.arange(0.0, n)
    sq = (gamma_value(a) * gamma_value(a + 2.0 * lam + 2.0 * mu)
          / (gamma_value(a + 2.0 * lam) * gamma_value(a + 2.0 * mu)))
    return (abs_sq + sq.prod(axis=0).to_float()) / 2.0


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------


_jobs = None  # the draw-ahead thread's queue of fills, made when the thread starts
_start_lock = threading.Lock()


def _draw_ahead(fill, gen):
    """Hand ``fill(gen)`` to the draw-ahead thread; the returned queue gets its exception or None.

    The thread is started by the first call, made by the first estimate of
    two or more blocks, and serves every later estimate, one fill at a time
    in the order they were handed in.  It is a daemon that waits on its
    queue between fills.  A process forked from this one starts its own.
    """
    global _jobs
    from queue import SimpleQueue  # here: a process with no estimate of two blocks never loads it

    with _start_lock:
        if _jobs is None:
            _jobs = SimpleQueue()
            threading.Thread(target=_serve, args=(_jobs,), name="berezin-draw-ahead",
                             daemon=True).start()
        jobs = _jobs
    done = SimpleQueue()
    jobs.put((fill, gen, done))
    return done


def _serve(jobs) -> None:
    while True:
        fill, gen, done = jobs.get()
        try:
            fill(gen)
        except BaseException as exc:  # raised again on the thread that waits for the fill
            done.put(exc)
        else:
            done.put(None)


def _forget_the_draw_ahead_thread() -> None:
    global _jobs, _start_lock
    _jobs, _start_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_the_draw_ahead_thread)


def _wait(done) -> None:
    exc = done.get()
    if exc is not None:
        raise exc


def _blocks(root: int, counts: list[int], draw):
    """(gen, count, source) for each block in order, with gen = ``block_rng(root, b)``.

    Without ``draw`` the source is gen.  With it, the source is the
    storage that ``draw(count)`` returned as (storage, fill), filled by
    fill(gen).  Generators and storage are made on the calling thread,
    one block ahead.  Block 0 is filled here while block 1 fills on the
    draw-ahead thread, and from then on block b + 1 fills there while the
    caller works on block b; a single block starts no thread.  Each
    generator is read by one fill, and later only by its own block's
    redraws, so what a block's generator yields does not depend on the
    thread timing.
    """
    if draw is None:
        for b, count in enumerate(counts):
            gen = block_rng(root, b)
            yield gen, count, gen
        return

    def start(b: int, here: bool):
        """The block's generator and storage, and what completes its fill: the fill
        itself, run here, or the wait for the draw-ahead thread that runs it."""
        gen = block_rng(root, b)
        storage, fill = draw(counts[b])
        return gen, storage, partial(fill, gen) if here else partial(_wait, _draw_ahead(fill, gen))

    ahead = start(0, here=True)
    for b, count in enumerate(counts):
        gen, storage, complete = ahead
        if b + 1 < len(counts):
            ahead = start(b + 1, here=False)
        complete()
        yield gen, count, storage


def _mc_reduce(block_values, n_samples: int, rng, draw=None) -> MCEstimate:
    """Reduce per-block values into one estimate.

    ``block_values(gen, count, source)`` returns (values, n_resampled) for
    one logical block of ``BLOCK`` samples (the last one short), drawn
    from its own stream ``gen = block_rng(root, b)``, where ``source`` is
    ``_blocks``' source of the block's first draw: gen itself, or with
    ``draw`` storage already filled from gen.  Block partials are merged
    in block order, so a fixed seed gives a fixed result, whichever thread
    made the draws and whenever.
    """
    if n_samples < 2:
        raise InvalidParams("need at least 2 samples")
    root = derive_root_seed(rng)
    n_blocks = ceil(n_samples / BLOCK)
    counts = [BLOCK] * (n_blocks - 1) + [n_samples - BLOCK * (n_blocks - 1)]
    n = 0
    mean = m2 = si = 0.0
    n_res = 0
    max_abs = 0.0
    for gen, count, source in _blocks(root, counts, draw):
        vals, res = block_values(gen, count, source)
        del source  # freed before _blocks makes block b + 2's storage
        re = np.real(vals)
        block_mean = float(re.mean())
        # Chan-Golub-LeVeque merge of (count, mean, M2): the variance never
        # comes from cancelling sum(x^2) against n mean^2
        total = n + count
        delta = block_mean - mean
        mean += delta * count / total
        m2 += float(np.square(re - block_mean).sum()) + delta * delta * n * count / total
        n = total
        si += float(np.imag(vals).sum())
        n_res += res
        max_abs = max(max_abs, float(np.max(np.abs(vals))))
    var = m2 / (n_samples - 1)
    return MCEstimate(
        mean=mean,
        stderr=sqrt(var / n_samples),
        n_samples=n_samples,
        seed=root,
        n_resamples=n_res,
        imag_mean=si / n_samples,
        max_abs=max_abs,
    )


_LOG_TINY = log(1e-300)


def corner_power_mc(sample, a, n_samples: int, rng=None, b=None, gaussian=None) -> MCEstimate:
    """Monte Carlo mean of prod_j p_j^a_j (times conj(p_j)^b_j when ``b`` is given).

    p_j = det(1+[g]_j) / det(1+[g]_{j-1}) are the corner pivots of the
    samples g = ``sample(count, gen, cols=rows)``, j counting stored rows.
    They telescope: prod_k det(1+[g]_k)^c_k = prod_j p_j^(sum_{k>=j} c_k),
    so every corner-determinant integrand is one exponent vector.  Without
    ``b`` the powers are taken of |p_j|; with it, p_j^a conj(p_j)^b is
    exp((a + b) log|p_j| + i (a - b) arg p_j).  Every pivot lies in the disc
    |p - 1| <= 1, so arg p_j is in [-pi/2, pi/2] and that is the principal
    branch.  The pivots are read as ``corner_pivots`` returns them, one row
    per j with the samples along it.

    A pivot raised to the power 0 is exactly 1, so ``rows`` is the last
    j with a_j or b_j nonzero (at least 1) and only pivots 1..rows are
    computed.  ``sample`` must return at least the leading rows x rows
    block of each matrix, and nothing outside it is read; the samplers of
    ``compact`` then draw and orthonormalise only those columns.  A
    sample is redrawn, and counted in ``n_resamples``, when one of those
    real pivots is <= 0 or a log corner determinant among them falls
    below log 1e-300.

    ``gaussian(count, cols)``, when given, returns (storage, draw) as
    ``compact._gaussian`` does for ``sample``, which then takes filled
    storage in place of a generator.  Each block's first draw is then
    made ahead, on the draw-ahead thread (see ``_blocks``); its
    orthonormalisation, the evaluation and every redraw stay on the
    calling thread, and the redraws read the block's generator after its
    first draw, as without ``gaussian``.
    """
    a = np.asarray(a, dtype=float)
    used = a != 0 if b is None else (a != 0) | (np.asarray(b) != 0)
    rows = int(np.flatnonzero(used)[-1]) + 1 if used.any() else 1
    a = a[:rows]
    if b is not None:
        b = np.asarray(b, dtype=float)[:rows]

    def evaluate(mats):
        piv = corner_pivots(mats, rows)  # (rows, count), sample axis last
        with np.errstate(divide="ignore"):
            logabs = np.log(np.abs(piv))
        # the running log corner determinant, one row at a time: the same
        # additions, in the same order, as a cumulative sum per sample
        total = logabs[0]
        ok = total > _LOG_TINY
        for row in logabs[1:]:
            total = total + row
            ok &= total > _LOG_TINY
        if not np.iscomplexobj(piv):
            ok &= np.all(piv > 0, axis=0)

        def contract(x, c):
            # (count, rows) @ c, rows of refused samples zeroed: one
            # transposed copy keeps the matrix-vector product's summation order
            x = x.T.copy()
            x[~ok] = 0.0
            return x @ c

        if b is None:
            return np.exp(contract(logabs, a)), ok
        # p^a conj(p)^b = exp((a + b) log|p| + i (a - b) arg p)
        return np.exp(contract(logabs, a + b) + 1j * contract(np.angle(piv), a - b)), ok

    def block(gen, count, source):
        vals, ok = evaluate(sample(count, source, cols=rows))
        n_res = 0
        while not ok.all():
            idx = np.flatnonzero(~ok)
            n_res += idx.size
            vals[idx], ok[idx] = evaluate(sample(idx.size, gen, cols=rows))
        return vals, n_res

    draw = None if gaussian is None else partial(gaussian, cols=rows)
    return _mc_reduce(block, n_samples, rng, draw)


def so_integral_mc(n: int, lam, n_samples: int, rng=None) -> MCEstimate:
    """Monte Carlo for the SO(n) corner-determinant integral, at lambda - lambda_n."""
    lam = _so_exponents(n, lam)
    return corner_power_mc(partial(_haar_so_batch, n), lam[:-1], n_samples, rng,
                           gaussian=partial(_gaussian, REAL, n))


def u_integral_mc(n: int, lam, mu, n_samples: int, rng=None) -> MCEstimate:
    """Monte Carlo for the U(n) integral, powers of the complex pivots."""
    lam = _exponents(lam, n, "lambda")
    mu = _exponents(mu, n, "mu")
    return corner_power_mc(partial(_haar_u_batch, n), lam, n_samples, rng, b=mu,
                           gaussian=partial(_gaussian, COMPLEX, n))


def sp_integral_mc(n: int, lam, n_samples: int, rng=None) -> MCEstimate:
    """Monte Carlo for the Sp(n) integral of quaternionic corner determinants.

    The quaternionic determinant is the square root of the complex one, so
    each exponent covers the two stored rows of its unit, halved.
    """
    lam = _exponents(lam, n)
    a = np.repeat(lam, 2) / 2.0
    return corner_power_mc(partial(_haar_sp_batch, n), a, n_samples, rng,
                           gaussian=partial(_gaussian, QUATERNION, n))


# ---------------------------------------------------------------------------
# Corner-law oracle (real case)
# ---------------------------------------------------------------------------


def so_integral_quadrature(n: int, lam) -> float:
    """Independent oracle: product of normalized 1-d moments of the corner law.

    Haar pivot k of SO(n), k = 1..n-1, has density proportional to
    (1 - x^2)^e on [-1, 1] with e = (n-k-2)/2, and the pivots are
    independent, so factor k is the mean of (1 + x)^lambda_k under that
    law, the Beta moment 2^lambda_k B(e+lambda_k+1, e+1) / B(e+1, e+1).
    The Gamma arguments are written from e, not taken from the closed
    form, so a mistyped closed form shows as a disagreement; the moment
    exists exactly where e + lambda_k + 1 > 0, which is the closed form's
    domain and names the same k.
    """
    lam = _so_exponents(n, lam)[:-1]
    e = (n - np.arange(1.0, n) - 2.0) / 2.0
    num = np.column_stack([e + lam + 1.0, 2.0 * e + 2.0])
    den = np.column_stack([2.0 * e + lam + 2.0, e + 1.0])
    return _gamma_ratio(num, den, _SO_DOMAIN, float(lam.sum()))

"""Berezin kernels on the matrix ball: positivity, covariance, restriction.

The kernel K_alpha(z, u) = det(1 - z u^t)^(-alpha) is positive definite
exactly for alpha in {0, 1, ..., p-1} together with the continuous ray
(p-1, infinity).  The module checks positivity spectrally, searches for
witnesses off that set, verifies the transformation law under the Moebius
action, and probes integrability of the kernel restricted to boundary
orbits against the closed form of the matching Haar integral.

Points are (p, q) arrays and stacks of them (..., p, q) arrays, as in
``ball``; a boundary-orbit point is a point of the closure.  Every
det(1 - z u^t), of a kernel value or of a Gram entry, is the product of
the pivots of one sample-axis-last elimination, ``compact.eliminate``,
and a pivot <= 0 refuses the pair as out of domain.  The checks work from
its logarithm L = log det(1 - z u^t), so log K = -alpha L at any alpha:
covariance and domination compare logs, and a Gram matrix is formed
normalised, D^(-1/2) K D^(-1/2) up to a positive scalar, with no entry
above 1.  The admissibility tolerance, the witness search's cloud size
and the convention table's trials are fixed settings, not parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ball import ball_scale, cocycle, moebius_act, one_minus_pivots, random_ball_point
from .compact import _haar_so_batch, eliminate
from .errors import InvalidParams, NonPositiveDeterminant
from .integrals import MCEstimate, so_integral_closed_form, so_integral_mc, so_integral_quadrature
from .rngs import as_generator, derive_root_seed

# Distance within which alpha counts as one of the integer Wallach points.
_WALLACH_TOL = 1e-12

# Kernel entries K(z_i, z_j) evaluated at once: a stack of Gram matrices
# runs in chunks of this many entries, so the pair grids take fixed memory
# whatever the number of configurations.
_GRAM_ENTRIES = 2**14


def berezin_kernel(z: np.ndarray, u: np.ndarray, alpha: float) -> float | np.ndarray:
    """K_alpha(z, u) = exp(-alpha log det(1 - z u^t)), +inf past the float range.

    Stacks of points (..., p, q) give one kernel value per pair.
    """
    with np.errstate(over="ignore"):
        return np.exp(-alpha * _log_base(z, u))


def _log_base(z: np.ndarray, u: np.ndarray) -> float | np.ndarray:
    """log det(1 - z u^t) per pair of points, from ``ball.one_minus_pivots``."""
    zs, us = np.asarray(z, dtype=float), np.asarray(u, dtype=float)
    if zs.shape[-2:] != us.shape[-2:]:
        raise InvalidParams("kernel arguments must share a shape")
    return _log_det(one_minus_pivots(zs, us))


def _log_det(piv: np.ndarray) -> np.ndarray:
    """log det(1 - z u^t) from its (p, ...) pivots; NaN passes through, to fail as evidence."""
    if (piv <= 0).any():
        # for contractions z, u every leading block of z u^t has its
        # eigenvalues inside the unit disc, so every pivot is positive and
        # a pivot <= 0 can only mean the inputs were out of domain
        j = tuple(np.argwhere(piv <= 0)[0])
        raise NonPositiveDeterminant(f"pivot {j[0] + 1} of 1 - z u^t is {piv[j]:.3e}")
    return np.log(piv.prod(axis=0))


def wallach_admissible(alpha: float, p: int) -> bool:
    """Membership of alpha in {0, 1, ..., p-1} union (p-1, infinity)."""
    if p < 1:
        raise InvalidParams("need p >= 1")
    return alpha > p - 1 - _WALLACH_TOL or any(abs(alpha - k) <= _WALLACH_TOL for k in range(p))


def _gram_matrix(points: np.ndarray, alpha: float) -> np.ndarray:
    # points: (N, m, p, q); the pair grid 1 - z_i z_j^t is built sample-last,
    # (p, p, N, m, m), one batched product per entry (a, b) written in
    # place, so it is the one array of its size here
    n, m, p, q = points.shape
    work = np.empty((p, p, n, m, m))
    for a in range(p):
        neg = np.negative(points[:, :, a])
        for b in range(p):
            np.matmul(neg, points[:, :, b].swapaxes(1, 2), out=work[a, b])
        work[a, a] += 1.0
    # exponents -alpha (L_ij - (L_ii + L_jj)/2) less the largest, 0 for alpha >= 0 by Hua
    logs = _log_det(eliminate(work))
    logs *= -alpha
    half = np.diagonal(logs, axis1=1, axis2=2) / 2
    logs -= half[:, :, None]
    logs -= half[:, None, :]
    logs -= logs.reshape(n, -1).max(axis=1)[:, None, None]
    return np.exp(logs, out=logs)


@dataclass
class GramReport:
    """Extreme eigenvalues of one normalised Gram matrix, or arrays of them over a stack."""

    min_eig: float | np.ndarray
    max_eig: float | np.ndarray

    @property
    def ratio(self) -> float | np.ndarray:
        """min_eig / max_eig, the scale-free positivity measure."""
        return self.min_eig / self.max_eig


def gram_spectrum(points, alpha: float) -> GramReport:
    """Eigenvalue range of D^(-1/2) [K_alpha(z_i, z_j)] D^(-1/2), D its diagonal.

    The matrix, taken up to a positive scalar, has the kernel Gram matrix's
    inertia, no entry above 1 and a largest eigenvalue >= 1 at any alpha.
    ``points`` is one configuration (a sequence of points or an (m, p, q)
    array), or an (N, m, p, q) stack of N configurations, which gives
    arrays of N extreme eigenvalues.  A large stack is evaluated in chunks
    of ``_GRAM_ENTRIES`` kernel entries.  Any other shape, an empty stack
    or configuration, a non-finite point, and an alpha at which the
    matrix is not finite (alpha non-finite, or alpha L past the float
    range) raise ``InvalidParams``, so both eigenvalues are always finite.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (3, 4) or 0 in pts.shape[:-2]:
        raise InvalidParams("need an (m, p, q) configuration or an (N, m, p, q) stack with "
                            f"N, m >= 1, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise InvalidParams("configuration points must be finite")
    stack = pts if pts.ndim == 4 else pts[None]
    per_chunk = max(1, _GRAM_ENTRIES // stack.shape[1] ** 2)
    extremes = []
    for i in range(0, len(stack), per_chunk):
        with np.errstate(over="ignore", invalid="ignore"):
            gram = _gram_matrix(stack[i : i + per_chunk], alpha)
        if not np.isfinite(gram).all():
            raise InvalidParams(f"the Gram matrix at alpha = {alpha} is not finite: alpha must "
                                "be finite and alpha log det(1 - z u^t) inside the float range")
        extremes.append(np.linalg.eigvalsh(gram)[:, [0, -1]])
    lo, hi = np.concatenate(extremes).T
    if pts.ndim == 3:
        lo, hi = float(lo[0]), float(hi[0])
    return GramReport(lo, hi)


@dataclass
class WitnessReport:
    """Outcome of a positivity-violation search."""

    found: bool
    n_configs: int
    min_eig: float
    best_ratio: float
    points: np.ndarray | None
    seed: int


_WITNESS_RATIO = -1e-6
_FIRST_TRIALS = 8
# Chunks double from _FIRST_TRIALS trials up to this many and stay there.
_LAST_CHUNK = 512
# Most points of a diffuse cloud trial; a cloud holds 3 to this many.
_CLOUD_POINTS = 8
# Rotation counts k of the shell trials, drawn from [lo, hi): a shell holds
# 2k points, so at most 2 (hi - 1).
_SHELL_K = (3, 9)


def _shell_points(
    ks: np.ndarray, eta: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Rotation and reflection orbits of planar sections, shell s at norm eta[s].

    Shell s holds ks[s] equally spaced rotations and then the ks[s]
    matching reflections, pushed into two-dimensional frames on both
    sides: ``left`` (S, p, 2) and ``right`` (S, q, 2) with orthonormal
    columns, one pair per shell.  The shells' points come one after the
    other, shape (sum 2 ks, p, q).  The alternating combination over the
    two families isolates the kernel component whose expansion coefficient
    turns negative between the integer admissible points, so these
    configurations expose non-definiteness that diffuse clouds miss.
    """
    sizes = 2 * ks
    shell = np.repeat(np.arange(ks.size), sizes)
    j = np.arange(shell.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    k = ks[shell]
    sign = np.where(j < k, 1.0, -1.0)  # rotations, then reflections
    theta = (j % k) * (2.0 * np.pi / k)
    c, s = np.cos(theta), np.sin(theta)
    planar = np.stack([np.stack([c, -sign * s], -1), np.stack([s, sign * c], -1)], -2)
    frames = left[shell] @ planar @ np.swapaxes(right[shell], 1, 2)
    return eta[shell, None, None] * frames


def _witness_trials(p: int, q: int, gen: np.random.Generator):
    """Endless stream of search trials, in chunks of 8, 16, ..., 512, 512, ... trials.

    Even trials (every trial when p < 2) are diffuse near-boundary clouds
    of 3 to 8 points, odd ones rotation-reflection shells of 6 to 16
    points.  Each chunk is yielded as (counts, points): the point count of
    each trial, and all their points as one (sum counts, p, q) array in
    trial order.  Trial i's configuration depends only on the generator
    and i, not on how many trials are later evaluated.
    """
    start = 0
    while True:
        size = _chunk_size(start)
        is_shell = (np.arange(start, start + size) % 2 == 1) & (p >= 2)
        counts = np.empty(size, dtype=int)
        counts[~is_shell] = 3 + gen.integers(_CLOUD_POINTS - 2, size=size - is_shell.sum())
        ks = gen.integers(*_SHELL_K, size=is_shell.sum())
        counts[is_shell] = 2 * ks
        etas = gen.uniform(0.5, 0.95, size=ks.size)
        in_shell = np.repeat(is_shell, counts)
        points = np.empty((in_shell.size, p, q))
        if ks.size:
            left = _haar_so_batch(p, ks.size, gen, cols=2)
            right = _haar_so_batch(q, ks.size, gen, cols=2)
            points[in_shell] = _shell_points(ks, etas, left, right)
        points[~in_shell] = random_ball_point(p, q, gen, 0.8, 0.999, size=(~in_shell).sum())
        yield counts, points
        start += size


def _chunk_size(start: int) -> int:
    """Trials in the chunk that starts at trial ``start``: each chunk up to the last size
    holds all trials before it plus ``_FIRST_TRIALS``, which doubles the size."""
    return min(start + _FIRST_TRIALS, _LAST_CHUNK)


def pd_witness_search(
    p: int,
    q: int,
    alpha: float,
    budget: int = 1000,
    rng=None,
) -> WitnessReport:
    """Search point configurations for a negative Gram eigenvalue.

    A configuration witnesses failure of positive definiteness when its
    smallest eigenvalue drops below -1e-6 times the largest.  Trials
    alternate between diffuse near-boundary clouds and planar
    rotation-reflection shells; on the admissible set both families must
    come up empty.  Trials are drawn in the chunks of ``_witness_trials``,
    8, 16, ..., 512, 512, ...; for evaluation the first chunk stands
    alone, so an early witness costs 8 trials, and after it consecutive
    whole chunks are merged into batches of at most 512 trials (16 to 256,
    then each 512 alone).  A batch takes one ``gram_spectrum`` call per
    point count, and each trial's spectrum is the same whatever batch it
    is evaluated in.  The report names the first witnessing trial
    (``n_configs`` is its index plus one) and the best ratio up to it.
    Every ratio is finite, since ``gram_spectrum`` refuses an alpha at
    which a Gram matrix is not.
    """
    if not 1 <= p <= q:
        raise InvalidParams(f"need 1 <= p <= q, got ({p}, {q})")
    if budget < 1:
        raise InvalidParams("budget must be positive")
    seed = derive_root_seed(rng)
    gen = as_generator(seed)
    best_ratio = best_min = np.inf
    trials = _witness_trials(p, q, gen)
    start = 0
    while True:
        # the first chunk alone, then whole chunks while the batch stays within _LAST_CHUNK
        chunks = [next(trials)]
        end = start + chunks[0][0].size
        while start and end < budget and end - start + _chunk_size(end) <= _LAST_CHUNK:
            chunks.append(next(trials))
            end += chunks[-1][0].size
        counts, points = chunks[0] if len(chunks) == 1 else map(np.concatenate, zip(*chunks))
        counts = counts[: budget - start]
        ends = np.cumsum(counts)
        ratios, mins = np.empty(counts.size), np.empty(counts.size)
        for m in np.unique(counts):
            sel = np.flatnonzero(counts == m)
            rep = gram_spectrum(points[(ends[sel] - m)[:, None] + np.arange(m)], alpha)
            ratios[sel], mins[sel] = rep.ratio, rep.min_eig
        hits = np.flatnonzero(ratios < _WITNESS_RATIO)
        stop = int(hits[0]) + 1 if hits.size else counts.size
        i = int(np.argmin(ratios[:stop]))
        if ratios[i] < best_ratio:
            best_ratio, best_min = float(ratios[i]), float(mins[i])
        if hits.size:
            last = ends[hits[0]]
            witness = points[last - counts[hits[0]] : last]
            return WitnessReport(True, start + stop, best_min, best_ratio, witness, seed)
        start += counts.size
        if start == budget:
            return WitnessReport(False, budget, best_min, best_ratio, None, seed)


# ---------------------------------------------------------------------------
# Transformation law
# ---------------------------------------------------------------------------

COVARIANCE_VARIANTS = ("as-printed", "u-cocycle-corrected")

# Adjudicated winner: the second multiplier must be the cocycle at u.  The
# scalar enumeration in covariance_convention_table singles it out, and the
# corrected identity holds to roundoff for every sampled (g, z, u).
WINNING_COVARIANCE_VARIANT = "u-cocycle-corrected"


def covariance_residual(
    g: np.ndarray,
    z: np.ndarray,
    u: np.ndarray,
    alpha: float,
    variant: str = WINNING_COVARIANCE_VARIANT,
) -> float | np.ndarray:
    """Relative error of K(z^[g], u^[g]) = K(z, u) (c_g(z) c_g(u))^alpha.

    Stacks of elements and points give one residual per triple; a
    nonpositive multiplier gives inf.  The sides are compared as logs, so
    the residual carries alpha times the roundoff of log det(1 - z u^t).
    The ``as-printed`` variant replaces the second cocycle with det(a + z u),
    which is only even defined for p = q; it is kept so the discrepancy can
    be demonstrated.
    """
    if variant not in COVARIANCE_VARIANTS:
        raise InvalidParams(f"variant must be one of {COVARIANCE_VARIANTS}")
    lhs = -alpha * _log_base(moebius_act(g, z), moebius_act(g, u))
    if variant == "u-cocycle-corrected":
        mult = cocycle(g, z) * cocycle(g, u)
        ok = mult > 0
    else:
        z, u = np.asarray(z, dtype=float), np.asarray(u, dtype=float)
        p, q = z.shape[-2:]
        if p != q:
            raise InvalidParams("the as-printed multiplier det(a + z u) needs p = q")
        m1 = cocycle(g, z)
        m2 = np.linalg.det(g[..., :p, :p] + z @ u)
        mult = m1 * m2
        ok = (m1 > 0) & (m2 > 0)
    rhs = -alpha * _log_base(z, u) + alpha * np.log(np.where(ok, mult, 1.0))
    return np.where(ok, np.abs(np.expm1(rhs - lhs)), np.inf)[()]


def covariance_convention_table(rng=None) -> dict[str, float]:
    """Max residual of each candidate scalar transformation law (p = q = 1, alpha = 1).

    Enumerates the second multiplier (cocycle at u versus a + z u) against
    all sign choices of the two exponents over 50 trials with boosts of
    rapidity up to 1.5; exactly one combination, the (u-cocycle, +, +) one,
    should sit at roundoff level.
    """
    from .ball import boost

    alpha = 1.0
    gen = as_generator(rng)
    g = boost(1, 1, gen.uniform(-1.5, 1.5, size=(50, 1)))
    z = random_ball_point(1, 1, gen, size=50)
    u = random_ball_point(1, 1, gen, size=50)
    lhs = berezin_kernel(moebius_act(g, z), moebius_act(g, u), alpha)
    base = berezin_kernel(z, u, alpha)
    m1 = cocycle(g, z)
    cands = {"u-cocycle": cocycle(g, u), "a+zu": g[:, 0, 0] + z[:, 0, 0] * u[:, 0, 0]}
    table: dict[str, float] = {}
    for name, m2 in cands.items():
        for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            key = f"{name},{'+' if s1 > 0 else '-'},{'+' if s2 > 0 else '-'}"
            rhs = base * m1 ** (s1 * alpha) * m2 ** (s2 * alpha)
            table[key] = float(np.max(np.abs(lhs - rhs) / np.abs(lhs)))
    return table


def domination_residual(
    z: np.ndarray, u: np.ndarray, c: float | np.ndarray, alpha: float
) -> float | np.ndarray:
    """Positive part of log K_alpha(c z, c u) - log(2^(p alpha) K_alpha(z, u)).

    Zero for every valid input: shrinking both arguments by c in [0, 1]
    can inflate the kernel by at most 2^(p alpha).  Stacks of pairs take
    one shrink factor each and give one residual per pair, at any alpha.
    """
    c = np.asarray(c, dtype=float)
    if not np.all((0.0 <= c) & (c <= 1.0)):
        raise InvalidParams("the shrink factor must lie in [0, 1]")
    if alpha < 0:
        raise InvalidParams("domination is stated for alpha >= 0")
    lhs = -alpha * _log_base(ball_scale(z, c), ball_scale(u, c))
    rhs = -alpha * _log_base(z, u) + np.shape(z)[-2] * alpha * np.log(2.0)
    return np.maximum(0.0, lhs - rhs)


# ---------------------------------------------------------------------------
# Boundary orbits
# ---------------------------------------------------------------------------


def _check_boundary_params(p: int, q: int, r: int) -> None:
    if not 1 <= p < q:
        raise InvalidParams(f"need 1 <= p < q, got ({p}, {q})")
    if not 0 <= r < p:
        raise InvalidParams(f"need 0 <= r < p, got r = {r}")


def restriction_threshold(p: int, q: int, r: int) -> float:
    """Largest alpha with finite restricted integral: (q - p + 2r)/2."""
    _check_boundary_params(p, q, r)
    return (q - p + 2 * r) / 2.0


def _restriction_exponents(p: int, q: int, r: int, alpha: float) -> np.ndarray:
    """The SO(q + r) exponents of the restricted integral: -alpha on the first p - r."""
    _check_boundary_params(p, q, r)
    lam = np.zeros(q + r)
    lam[: p - r] = -alpha
    return lam


def restriction_closed_form(p: int, q: int, r: int, alpha: float) -> float:
    """Closed form of the restricted-kernel integral over the rank-r orbit.

    Equals the Haar integral over SO(q + r) with the first p - r exponents
    set to -alpha; finiteness is exactly alpha < (q - p + 2r)/2.
    """
    return so_integral_closed_form(q + r, _restriction_exponents(p, q, r, alpha))


def restriction_quadrature(p: int, q: int, r: int, alpha: float) -> float:
    """The restricted integral by the SO(q + r) corner-law oracle at the same exponents."""
    return so_integral_quadrature(q + r, _restriction_exponents(p, q, r, alpha))


def restriction_probe(p: int, q: int, r: int, alpha: float, n_samples: int, rng=None) -> MCEstimate:
    """Monte Carlo mean of det(1 + [z]_{p-r})^(-alpha) over the rank-r orbit.

    Below the integrability threshold this converges to the closed form;
    above it the mean is infinite and the sample maximum grows without
    bound, which ``max_abs`` makes visible.  It is the SO(q + r) estimate
    at the closed form's exponents, so only the first p - r columns of
    each sample are drawn.
    """
    return so_integral_mc(q + r, _restriction_exponents(p, q, r, alpha), n_samples, rng)

"""Berezin kernels on the matrix ball: positivity, covariance, restriction.

The kernel K_alpha(z, u) = det(1 - z u^t)^(-alpha) is positive definite
exactly for alpha in {0, 1, ..., p-1} together with the continuous ray
(p-1, infinity).  The module checks positivity spectrally, searches for
witnesses off that set, verifies the transformation law under the Moebius
action, and probes integrability of the kernel restricted to boundary
orbits against the closed form of the matching Haar integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ball import BallPoint, PseudoOrthogonalElement, cocycle, moebius_act, random_ball_point
from .compact import _haar_so_batch
from .errors import InvalidParams, NonPositiveDeterminant
from .integrals import (
    MCEstimate,
    _corner_logdets,
    _mc_reduce,
    _resample_until_valid,
    so_integral_closed_form,
)
from .rngs import as_generator, derive_root_seed

_TINY = 1e-300


def berezin_kernel(z: BallPoint, u: BallPoint, alpha: float) -> float:
    """K_alpha(z, u) = det(1 - z u^t)^(-alpha); the base is always positive."""
    if (z.p, z.q) != (u.p, u.q):
        raise InvalidParams("kernel arguments must share a shape")
    base = float(np.linalg.det(np.eye(z.p) - z.entries @ u.entries.T))
    if base <= 0:
        # contractions have eigenvalues of z u^t inside the unit disc, so a
        # nonpositive value can only mean the inputs were out of domain
        raise NonPositiveDeterminant(f"det(1 - z u^t) = {base:.3e}")
    return base ** (-alpha)


def wallach_admissible(alpha: float, p: int, tol: float = 1e-12) -> bool:
    """Membership of alpha in {0, 1, ..., p-1} union (p-1, infinity)."""
    if p < 1:
        raise InvalidParams("need p >= 1")
    if alpha > p - 1 - tol:
        return alpha > p - 1 + tol or abs(alpha - (p - 1)) <= tol
    return any(abs(alpha - k) <= tol for k in range(p))


def _gram_matrix(points: np.ndarray, alpha: float) -> np.ndarray:
    # points: (n, p, q); dets of 1 - z_i z_j^t batched over the pair grid
    n, p, _ = points.shape
    cross = np.einsum("iak,jbk->ijab", points, points)
    mats = np.eye(p)[None, None] - cross
    dets = np.linalg.det(mats)
    if np.any(dets <= 0):
        raise NonPositiveDeterminant("a pair determinant came out nonpositive")
    return dets ** (-alpha)


@dataclass
class GramReport:
    """Extreme eigenvalues of one kernel Gram matrix."""

    n_points: int
    alpha: float
    min_eig: float
    max_eig: float


def gram_spectrum(points, alpha: float) -> GramReport:
    """Eigenvalue range of [K_alpha(z_i, z_j)] over a point configuration."""
    pts = _as_point_stack(points)
    eigs = np.linalg.eigvalsh(_gram_matrix(pts, alpha))
    return GramReport(pts.shape[0], alpha, float(eigs[0]), float(eigs[-1]))


def _as_point_stack(points) -> np.ndarray:
    if isinstance(points, np.ndarray) and points.ndim == 3:
        return points
    return np.stack([p.entries if isinstance(p, BallPoint) else np.asarray(p) for p in points])


@dataclass
class WitnessReport:
    """Outcome of a positivity-violation search."""

    found: bool
    n_configs: int
    min_eig: float
    best_ratio: float
    points: np.ndarray | None
    seed: int


def _shell_config(p: int, q: int, k: int, eta: float, gen: np.random.Generator) -> np.ndarray:
    """Rotation and reflection orbits of a planar section, all at norm eta.

    k equally spaced rotations plus the k matching reflections, pushed
    into random two-dimensional frames on both sides.  The alternating
    combination over the two families isolates the kernel component whose
    expansion coefficient turns negative between the integer admissible
    points, so these configurations expose non-definiteness that diffuse
    clouds miss.
    """
    left = np.linalg.qr(gen.standard_normal((p, 2)))[0]
    right = np.linalg.qr(gen.standard_normal((q, 2)))[0]
    thetas = np.arange(k) * (2.0 * np.pi / k)
    mats = []
    for t in thetas:
        c, s = np.cos(t), np.sin(t)
        mats.append(np.array([[c, -s], [s, c]]))
    for t in thetas:
        c, s = np.cos(t), np.sin(t)
        mats.append(np.array([[c, s], [s, -c]]))
    return np.stack([eta * left @ m @ right.T for m in mats])


def pd_witness_search(
    p: int,
    q: int,
    alpha: float,
    budget: int = 1000,
    rng=None,
    n_points: int = 8,
) -> WitnessReport:
    """Search point configurations for a negative Gram eigenvalue.

    A configuration witnesses failure of positive definiteness when its
    smallest eigenvalue drops below -1e-6 times the largest.  Trials
    alternate between diffuse near-boundary clouds and planar
    rotation-reflection shells; on the admissible set both families must
    come up empty.
    """
    if not 1 <= p <= q:
        raise InvalidParams(f"need 1 <= p <= q, got ({p}, {q})")
    if budget < 1:
        raise InvalidParams("budget must be positive")
    seed = derive_root_seed(rng)
    gen = as_generator(seed)
    best_ratio = np.inf
    best_min = np.inf
    for trial in range(budget):
        if trial % 2 == 0 or p < 2:
            pts = np.stack(
                [
                    random_ball_point(p, q, gen, 0.8, 0.999).entries
                    for _ in range(3 + int(gen.integers(n_points - 2)))
                ]
            )
        else:
            k = int(gen.integers(3, 9))
            pts = _shell_config(p, q, k, float(gen.uniform(0.5, 0.95)), gen)
        eigs = np.linalg.eigvalsh(_gram_matrix(pts, alpha))
        ratio = eigs[0] / max(eigs[-1], _TINY)
        if ratio < best_ratio:
            best_ratio = float(ratio)
            best_min = float(eigs[0])
            best_pts = pts
        if best_ratio < -1e-6:
            return WitnessReport(True, trial + 1, best_min, best_ratio, best_pts, seed)
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
    g: PseudoOrthogonalElement,
    z: BallPoint,
    u: BallPoint,
    alpha: float,
    variant: str = WINNING_COVARIANCE_VARIANT,
) -> float:
    """Relative error of K(z^[g], u^[g]) = K(z, u) (c_g(z) c_g(u))^alpha.

    The ``as-printed`` variant replaces the second cocycle with
    det(a + z u), which is only even defined for p = q; it is kept so the
    discrepancy can be demonstrated.
    """
    if variant not in COVARIANCE_VARIANTS:
        raise InvalidParams(f"variant must be one of {COVARIANCE_VARIANTS}")
    lhs = berezin_kernel(moebius_act(g, z), moebius_act(g, u), alpha)
    base = berezin_kernel(z, u, alpha)
    if variant == "u-cocycle-corrected":
        mult = cocycle(g, z) * cocycle(g, u)
        if mult <= 0:
            return float("inf")
        rhs = base * mult**alpha
    else:
        if z.p != z.q:
            raise InvalidParams("the as-printed multiplier det(a + z u) needs p = q")
        m1 = cocycle(g, z)
        m2 = float(np.linalg.det(g.a + z.entries @ u.entries))
        if m1 <= 0 or m2 <= 0:
            return float("inf")
        rhs = base * (m1 * m2) ** alpha
    return float(abs(lhs - rhs) / abs(lhs))


def covariance_convention_table(
    alpha: float = 1.0,
    n_trials: int = 50,
    rng=None,
    boost_range: float = 1.5,
) -> dict[str, float]:
    """Max residual of each candidate scalar transformation law (p = q = 1).

    Enumerates the second multiplier (cocycle at u versus a + z u) against
    all sign choices of the two exponents; exactly one combination, the
    (u-cocycle, +, +) one, should sit at roundoff level.
    """
    from .ball import boost

    gen = as_generator(rng)
    table: dict[str, float] = {}
    for trial in range(n_trials):
        t = gen.uniform(-boost_range, boost_range, size=1)
        g = boost(1, 1, t)
        z = random_ball_point(1, 1, gen)
        u = random_ball_point(1, 1, gen)
        lhs = berezin_kernel(moebius_act(g, z), moebius_act(g, u), alpha)
        base = berezin_kernel(z, u, alpha)
        m1 = cocycle(g, z)
        cands = {
            "u-cocycle": cocycle(g, u),
            "a+zu": float(g.a[0, 0] + z.entries[0, 0] * u.entries[0, 0]),
        }
        for name, m2 in cands.items():
            for s1 in (1, -1):
                for s2 in (1, -1):
                    key = f"{name},{'+' if s1 > 0 else '-'},{'+' if s2 > 0 else '-'}"
                    rhs = base * m1 ** (s1 * alpha) * m2 ** (s2 * alpha)
                    res = abs(lhs - rhs) / abs(lhs)
                    table[key] = max(table.get(key, 0.0), float(res))
    return table


def domination_residual(z: BallPoint, u: BallPoint, c: float, alpha: float) -> float:
    """Positive part of K_alpha(c z, c u) - 2^(p alpha) K_alpha(z, u).

    Zero for every valid input: shrinking both arguments by c in [0, 1]
    can inflate the kernel by at most 2^(p alpha).
    """
    if not 0.0 <= c <= 1.0:
        raise InvalidParams("the shrink factor must lie in [0, 1]")
    if alpha < 0:
        raise InvalidParams("domination is stated for alpha >= 0")
    lhs = berezin_kernel(ball_scale(z, c), ball_scale(u, c), alpha)
    rhs = 2.0 ** (z.p * alpha) * berezin_kernel(z, u, alpha)
    return float(max(0.0, lhs - rhs))


def ball_scale(z: BallPoint, c: float) -> BallPoint:
    return BallPoint(z.p, z.q, c * z.entries, closure=z.closure)


# ---------------------------------------------------------------------------
# Boundary orbits
# ---------------------------------------------------------------------------


@dataclass
class BoundaryOrbitPoint:
    """A p x q boundary point with 1 - z z^t of rank r."""

    p: int
    q: int
    r: int
    entries: np.ndarray


def _check_boundary_params(p: int, q: int, r: int) -> None:
    if not 1 <= p < q:
        raise InvalidParams(f"need 1 <= p < q, got ({p}, {q})")
    if not 0 <= r < p:
        raise InvalidParams(f"need 0 <= r < p, got r = {r}")


def boundary_sample(p: int, q: int, r: int, rng=None) -> BoundaryOrbitPoint:
    """Uniform point of the rank-r boundary orbit.

    The upper-left p x q block of a Haar SO(q + r) matrix lands on the
    orbit where 1 - z z^t has rank r (its complement block supplies a rank
    r factorization almost surely).
    """
    _check_boundary_params(p, q, r)
    z = boundary_sample_batch(p, q, r, 1, rng)[0]
    return BoundaryOrbitPoint(p, q, r, z)


def boundary_sample_batch(p: int, q: int, r: int, size: int, rng=None) -> np.ndarray:
    _check_boundary_params(p, q, r)
    g = _haar_so_batch(q + r, size, as_generator(rng))
    return g[:, :p, :q]


def restriction_threshold(p: int, q: int, r: int) -> float:
    """Largest alpha with finite restricted integral: (q - p + 2r)/2."""
    _check_boundary_params(p, q, r)
    return (q - p + 2 * r) / 2.0


def restriction_closed_form(p: int, q: int, r: int, alpha: float) -> float:
    """Closed form of the restricted-kernel integral over the rank-r orbit.

    Equals the Haar integral over SO(q + r) with the first p - r exponents
    set to -alpha; finiteness is exactly alpha < (q - p + 2r)/2.
    """
    _check_boundary_params(p, q, r)
    n = q + r
    lam = np.zeros(n)
    lam[: p - r] = -alpha
    return so_integral_closed_form(n, lam)


def restriction_probe(p: int, q: int, r: int, alpha: float, n_samples: int, rng=None) -> MCEstimate:
    """Monte Carlo mean of det(1 + [z]_{p-r})^(-alpha) over the rank-r orbit.

    Below the integrability threshold this converges to the closed form;
    above it the mean is infinite and the sample maximum grows without
    bound, which ``max_abs`` makes visible.
    """
    _check_boundary_params(p, q, r)
    n = q + r
    m = p - r

    def evaluate(mats):
        _, logdets, ok = _corner_logdets(mats, m, real=True)
        return np.exp(-alpha * logdets[:, -1]), ok

    def block(gen, count):
        return _resample_until_valid(lambda c, g: _haar_so_batch(n, c, g), evaluate, gen, count)

    return _mc_reduce(block, n_samples, rng)

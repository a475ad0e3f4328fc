"""Plancherel-type densities and analytic-continuation coefficients.

The continuous spectral weight W(s) is a product of squared Gamma moduli
and pair interactions.  Continued below its natural parameter range it
spawns finitely many discrete blocks indexed by (r, u) through
w_j = u_1 + ... + u_j + j/2; each block carries a combinatorial factor C,
a Gamma-product factor V and a residual continuous density Q over the
remaining p - r spectral variables.  All Gamma products run through the
pole-aware ``GammaValue`` so that negative-integer degenerations reduce to
order bookkeeping.

C and V work on an (N, r) array of same-rank labels and W on an (N, p)
array of points, each factor one array operation.  W, Q_o and the unitary Q
are products of one primitive, |Gamma(x0 + i rate s)|^2, which takes the
s = 0 limit itself, so a coordinate at s = 0 runs the same code as any
other and only the final collapse tells a net zero from a net pole.  Q
stays one block at a time, assembled factor by factor as the independent
side of the r = 0 check against W.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, count
from math import comb, log, pi
from operator import add

import numpy as np
from scipy.special import gammaln, loggamma, roots_jacobi

from .errors import InvalidParams, OracleNotConverged, PoleOnContour
from .gammaval import (  # perfbench/layers.py counts calls through every one of these names
    GammaValue,
    from_real,
    from_real_snapped,
    gamma_value,
    one,  # not called here: bound as plancherel.one
    pochhammer_value,
)

_ZERO_TOL = 1e-12


@dataclass
class PlancherelParams:
    """Rank/weight parameters (p, q, alpha) of the expansion."""

    p: int
    q: int
    alpha: float

    def __post_init__(self) -> None:
        if not 1 <= self.p <= self.q:
            raise InvalidParams(f"need 1 <= p <= q, got ({self.p}, {self.q})")

    @property
    def h(self) -> float:
        """The threshold (p + q)/2 - 1 below which discrete blocks appear."""
        return (self.p + self.q) / 2.0 - 1.0


@dataclass(frozen=True)
class BlockIndex:
    """Discrete block label (r, u) with its partial sums w."""

    r: int
    u: tuple[int, ...]
    w: tuple[float, ...]


def block_index(u) -> BlockIndex:
    u = tuple(int(x) for x in u)
    if any(x < 0 for x in u):
        raise InvalidParams("block labels are nonnegative integers")
    return _block(u)


def _block(u: tuple[int, ...]) -> BlockIndex:
    """The BlockIndex of a checked label tuple; w_j = u_1 + ... + u_j + j/2 by one running sum."""
    return BlockIndex(len(u), u, tuple(map(add, accumulate(u), count(0.5, 0.5))))


def label_stacks(blocks) -> list[tuple[int, np.ndarray]]:
    """The labels of ``blocks`` as one (N, r) integer array per rank, in order of rank."""
    by_rank: dict[int, list] = {}
    for b in blocks:
        by_rank.setdefault(b.r, []).append(b.u)
    return [(r, np.array(us, dtype=np.int64).reshape(len(us), r)) for r, us in by_rank.items()]


# Most blocks one expansion may enumerate.  The count grows like
# top^p / p!, so large ranks far below the threshold are refused with
# InvalidParams instead of enumerated for minutes; the benchmark's largest
# inventory, (4, 12, -3), has 551 blocks and (5, 12, -12) has 27,684.
BLOCK_BUDGET = 100_000


def surviving_blocks(params: PlancherelParams, strict: bool = True) -> list[BlockIndex]:
    """All blocks in the continued expansion at ``params.alpha``.

    The continuous block r = 0 is always present; a discrete block (r, u)
    survives when w_r < h - alpha (strict by default, weak inequality on
    request).  The list is finite because w_r >= r/2: for each rank it
    holds the labels with sum(u) <= top, ordered by (sum(u), u).  More
    than ``BLOCK_BUDGET`` blocks raise InvalidParams.
    """
    bound = params.h - params.alpha
    tops = {}
    for r in range(1, params.p + 1):
        slack = bound - r / 2.0
        top = int(np.floor(slack - 1e-9)) if strict else int(np.floor(slack + 1e-9))
        if top >= 0:
            tops[r] = top
    count = 1 + sum(comb(top + r, r) for r, top in tops.items())
    if count > BLOCK_BUDGET:
        raise InvalidParams(
            f"{count} blocks at (p, q, alpha) = ({params.p}, {params.q}, {params.alpha}) "
            f"exceed the budget of {BLOCK_BUDGET}"
        )
    out = [_block(())]
    for r, top in tops.items():
        out.extend(_block(u) for total in range(top + 1) for u in _compositions(total, r))
    return out


def _compositions(total: int, parts: int):
    """Tuples of ``parts`` nonnegative integers summing to ``total``, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


# ---------------------------------------------------------------------------
# Squared Gamma moduli (the one primitive of W and Q)
# ---------------------------------------------------------------------------


def _abs_gamma_sq(x0, rate: float, s) -> GammaValue:
    """|Gamma(x0 + i rate s)|^2 at every s, as a GammaValue.

    Off s = 0 the value is finite.  At s = 0 it is the limit in the unit-rate
    convention: |Gamma(x0)|^2, or the double pole 1 / (n! rate eps)^2 when x0
    is the nonpositive integer -n.  The limit is taken of x0 as given, before
    it is broadcast against s.  A Pochhammer square |(c + i rate s)_m|^2 is
    the ratio of this at c + m and at c, in the limit too.
    """
    s = np.asarray(s, dtype=float)
    at_zero = np.abs(s) <= _ZERO_TOL
    z = np.where(at_zero, 1.0, s)  # placeholder at s = 0, where the limit takes over
    off = 2.0 * np.real(loggamma(x0 + 1j * rate * z))
    limit = gamma_value(x0)
    limit_log = 2.0 * limit.log_abs - 2.0 * np.log(abs(rate)) * limit.is_pole
    return GammaValue(
        np.where(at_zero, limit_log, off),
        np.ones(off.shape, dtype=np.int64),
        np.where(at_zero, 2 * limit.order, 0),
    )


def _collapse(value: GammaValue):
    """Floats of a product over s: a net pole raises PoleOnContour, a net zero is exactly 0.0."""
    if np.any(value.is_pole):
        raise PoleOnContour(f"net pole of order {int(np.max(value.order))} at s = 0")
    return value.to_float()


def _pair_interactions(s: np.ndarray):
    """The pair product over the last axis: a float for one point, an array for a stack."""
    n = s.shape[-1]
    total = np.ones(s.shape[:-1])
    for k in range(n):
        for l in range(k + 1, n):
            sk, sl = s[..., k], s[..., l]
            dm, dp = sk - sl, sk + sl
            total = total * ((sk**2 - sl**2) * np.tanh(pi * dm / 2.0) * np.tanh(pi * dp / 2.0))
    return total if total.ndim else float(total)


# ---------------------------------------------------------------------------
# Continuous weight (orthogonal case)
# ---------------------------------------------------------------------------


def continuous_weight_o(params: PlancherelParams, s):
    """The spectral weight W(s) over p real parameters, orthogonal case.

    Per coordinate: |Gamma((alpha - (p+q)/2 + 1 + i s)/2)|^2 times, when
    q > p, the ratio |Gamma((q-p)/2 + i s)|^2 / |Gamma(i s)|^2 (for q = p
    the ratio cancels identically); pairs contribute
    (s_k^2 - s_l^2) tanh(pi (s_k - s_l)/2) tanh(pi (s_k + s_l)/2).
    ``s`` is one point of shape (p,), giving a float, or an (N, p) stack,
    giving an array of N weights.  Coordinates at s = 0 are evaluated as
    limits: net zeros give an exact zero, net poles raise PoleOnContour.
    """
    p, q, alpha = params.p, params.q, params.alpha
    s = np.asarray(s, dtype=float)
    if s.ndim not in (1, 2) or s.shape[-1] != p:
        raise InvalidParams(f"need {p} spectral parameters per point, got shape {s.shape}")
    points = s.reshape(-1, p)
    factors = _abs_gamma_sq((alpha - (p + q) / 2.0 + 1.0) / 2.0, 0.5, points)
    if q > p:
        ratio = _abs_gamma_sq((q - p) / 2.0, 1.0, points) / _abs_gamma_sq(0.0, 1.0, points)
        factors = factors * ratio
    weights = _collapse(factors.prod(axis=1)) * _pair_interactions(points)
    return weights if s.ndim == 2 else float(weights[0])


# ---------------------------------------------------------------------------
# Block coefficients (orthogonal case)
# ---------------------------------------------------------------------------


def _label_stack(labels, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, w, w_prev) of an (N, r) label stack; a BlockIndex is the stack of one.

    w holds the partial sums w_k = u_1 + ... + u_k + k/2 and w_prev the
    shifted sums w_{k-1}, with w_0 = 0.
    """
    if isinstance(labels, BlockIndex):
        u = np.array([labels.u], dtype=np.int64).reshape(1, labels.r)
    else:
        u = np.asarray(labels)
        if u.ndim != 2 or not (u.size == 0 or np.issubdtype(u.dtype, np.integer)):
            raise InvalidParams(f"block labels must be an (N, r) integer array, got {u.shape}")
        if np.any(u < 0):
            raise InvalidParams("block labels are nonnegative integers")
    r = u.shape[1]
    if r > p:
        raise InvalidParams(f"block rank {r} exceeds p = {p}")
    w = np.cumsum(u, axis=1) + np.arange(1, r + 1) / 2.0
    return u, w, w - u - 0.5


def _stack_result(labels, value: GammaValue) -> GammaValue:
    """The 0-d value of a single BlockIndex, the whole stack otherwise."""
    return value[0] if isinstance(labels, BlockIndex) else value


def _c_prefix(u: np.ndarray, p: int) -> GammaValue:
    """2^(p-r) (2 pi)^r p!/(p-r)! prod_k (-1)^u_k / u_k! over the last axis of labels u.

    Built in logs, with log u_k! from gammaln, so neither large p nor large
    labels overflow a float.
    """
    r = u.shape[-1]
    log_const = (p - r) * log(2.0) + r * log(2.0 * pi) + gammaln(p + 1) - gammaln(p - r + 1)
    return GammaValue(
        log_const - gammaln(u + 1.0).sum(axis=-1),
        1 - 2 * (u.sum(axis=-1) % 2),
        np.zeros(u.shape[:-1], dtype=np.int64),
    )


def coeff_C(labels, p: int) -> GammaValue:
    """Combinatorial block factor C over labels (r, u).

    ``labels`` is a BlockIndex, giving a 0-d GammaValue, or an (N, r)
    integer array of same-rank labels, giving N values.
    """
    u, w, w_prev = _label_stack(labels, p)
    k, m = np.triu_indices(u.shape[1], 1)
    gap = w[:, m] - w[:, k]
    pairs = gamma_value(0.5 + gap) / gamma_value(gap)
    pairs = pairs / pochhammer_value(0.5 + w_prev[:, k] - w[:, m], u[:, k])
    return _stack_result(labels, _c_prefix(u, p) * pairs.prod(axis=1))


def coeff_V_o(alpha: float, labels, p: int, q: int) -> GammaValue:
    """Gamma-product block factor V, orthogonal case.

    Includes the 1/Gamma(alpha - m + 1) prefactor over m = 1..p, so the
    r = 0 block reproduces the continuous expansion's prefactor exactly
    and negative-integer alpha degenerations appear as net zero orders.
    ``labels`` is a BlockIndex or an (N, r) stack, as for ``coeff_C``.
    """
    u, w, w_prev = _label_stack(labels, p)
    half = (p + q) / 2.0
    prefactor = gamma_value(alpha - np.arange(p)).prod(axis=0)
    singles = gamma_value(alpha - p + 1.0 + 2.0 * w) * gamma_value(-alpha + q - 1.0 - 2.0 * w)
    singles = singles / gamma_value(-alpha + half - 2.0 * w)
    singles = singles / pochhammer_value(alpha - half + w + w_prev + 0.5, u)
    k, m = np.triu_indices(u.shape[1], 1)
    both = w[:, k] + w[:, m]
    pairs = gamma_value(0.5 - alpha + half - both) / gamma_value(-alpha + half - both)
    pairs = pairs / pochhammer_value(alpha - half + w[:, m] + w_prev[:, k] + 0.5, u[:, k])
    out = singles.prod(axis=1) * pairs.prod(axis=1) / prefactor
    return _stack_result(labels, out)


def _spectral_args(s, n: int) -> np.ndarray:
    """``s`` as a float array of exactly n spectral parameters."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.shape != (n,):
        raise InvalidParams(f"need {n} spectral parameters, got shape {s.shape}")
    return s


def coeff_Q_o(alpha: float, u: BlockIndex, s, p: int, q: int) -> float:
    """Residual continuous density Q over the p - r remaining parameters.

    Assembled factor by factor, independently of ``continuous_weight_o``;
    at r = 0 the two must agree, which is what the consistency check in
    the test-suite exercises.
    """
    r = u.r
    if r > p:
        raise InvalidParams(f"block rank {r} exceeds p = {p}")
    s = _spectral_args(s, p - r)
    half = (p + q) / 2.0
    wr = u.w[-1] if r else 0.0
    value = _abs_gamma_sq((alpha - half + 1.0) / 2.0 + wr, 0.5, s)
    if q > p:
        value = value * (_abs_gamma_sq((q - p) / 2.0, 1.0, s) / _abs_gamma_sq(0.0, 1.0, s))
    # one column per label k: s down the rows, w_k and u_k across
    col = s[:, None]
    w, labels = np.array(u.w), np.array(u.u)
    per_label = _abs_gamma_sq((1.0 - alpha + half - 2.0 * w) / 2.0, 0.5, col)
    per_label = per_label / _abs_gamma_sq((-alpha + half - 2.0 * w) / 2.0, 0.5, col)
    c0 = (alpha - half + w) / 2.0
    per_label = per_label / (_abs_gamma_sq(c0 + labels, 0.5, col) / _abs_gamma_sq(c0, 0.5, col))
    value = value * per_label.prod(axis=1)
    return float(_collapse(value.prod(axis=0))) * _pair_interactions(s)


# ---------------------------------------------------------------------------
# Unitary case
# ---------------------------------------------------------------------------


def coeff_CVQ_u(alpha: float, w, s, p: int, q: int) -> tuple[GammaValue, GammaValue, float]:
    """Unitary-case block coefficients (C, V, Q) for integer labels w.

    Here the labels are plain nonnegative integers, repeated labels make C
    vanish through the squared Vandermonde, and the prefactor
    1/Gamma(alpha/2 - m + 1)^2 confines degeneration to even negative
    integers alpha.  C and V are 0-d GammaValues.
    """
    w = np.array([int(x) for x in w], dtype=np.int64)
    if np.any(w < 0):
        raise InvalidParams("block labels are nonnegative integers")
    r = w.size
    if r > p:
        raise InvalidParams(f"block rank {r} exceeds p = {p}")
    s = _spectral_args(s, p - r)
    k, l = np.triu_indices(r, 1)

    c_val = _c_prefix(w, p) * from_real_snapped((w[k] - w[l]) ** 2.0).prod(axis=0)

    shift = alpha - (p + q) + 1.0
    prefactor = gamma_value(alpha / 2.0 - np.arange(p))
    singles = gamma_value(alpha / 2.0 - p + 1.0 + w) * gamma_value(-alpha / 2.0 + q - w)
    singles = singles * singles / gamma_value(-alpha + (p + q) - 1.0 + 2.0 * w)
    singles = singles / pochhammer_value(shift + w, w)
    pairs = from_real_snapped(shift + w[k] + w[l])
    v_val = singles.prod(axis=0) * (pairs * pairs).prod(axis=0)
    v_val = v_val / (prefactor * prefactor).prod(axis=0)

    return c_val, v_val, _unitary_q(alpha, w, s, p, q)


def _unitary_q(alpha: float, w: np.ndarray, s: np.ndarray, p: int, q: int) -> float:
    """Q as one product: per coordinate, then the squared Vandermonde in s^2."""
    # (c_k^2 + s^2)^2 = |(c_k + i s)_1|^4, one column per label
    col = s[:, None]
    c = (alpha - (p + q) + 1.0 + 2.0 * w) / 2.0
    shifts = _abs_gamma_sq(c + 1.0, 1.0, col) / _abs_gamma_sq(c, 1.0, col)
    fin = _abs_gamma_sq((q - p + 1.0) / 2.0, 0.5, s)
    value = (shifts * shifts).prod(axis=1) * fin * fin
    value = value * _abs_gamma_sq((alpha - p - q + 1.0) / 2.0, 0.5, s) / _abs_gamma_sq(0.0, 1.0, s)
    m, n = np.triu_indices(s.size, 1)
    pairs = from_real(s[n] ** 2 - s[m] ** 2)
    return float(_collapse(value.prod(axis=0) * (pairs * pairs).prod(axis=0)))


# ---------------------------------------------------------------------------
# Rank-one end-to-end probe
# ---------------------------------------------------------------------------


@dataclass
class Rank1Report:
    """Residuals of the inverted continuous expansion at rank one.

    ``nodes`` is the Gauss-Jacobi rule the residuals come from and
    ``oracle_error`` the largest relative change of the spectral integrals
    between that rule and the one with half as many nodes.  ``s_step_error``
    estimates the error of the Simpson step in s by redoing the resynthesis
    on every other grid point; the node witness cannot see that error.
    """

    q: int
    alpha: float
    t_grid: np.ndarray
    residuals: np.ndarray
    max_residual: float
    normalization: float
    nodes: int
    oracle_error: float
    s_step_error: float


_RANK1_MIN_NODES = 32
_RANK1_MAX_NODES = 1024
_RANK1_AGREE = 1e-10


def rank1_plancherel_probe(
    q: int,
    alpha: float,
    t_grid=None,
    s_max: float = 25.0,
    n_quad: int = 201,
) -> Rank1Report:
    """Check cosh(t)^(-alpha) against its continuous spectral resynthesis.

    At p = 1 the spherical functions have the one-dimensional integral
    representation phi_s(t) = E[(cosh t - x sinh t)^(-rho - i s)] with
    rho = (q - 1)/2 and x the first coordinate of a uniform point of the
    (q-1)-sphere, whose density is proportional to (1 - x^2)^((q-3)/2).
    The expectation is a Gauss-Jacobi rule with that weight; the node count
    doubles from 32 until two successive rules agree to 1e-10 relative at
    every t and at the t = 0 calibration; ``OracleNotConverged`` is raised
    when the 1024-node rule still disagrees with the 512-node one.  phi is
    paired with the continuous weight, integrated over [0, s_max] by
    Simpson's rule, calibrated at t = 0 and compared with the target on the
    grid.
    """
    if q < 2:
        raise InvalidParams("need q >= 2")
    if alpha <= (1 + q) / 2.0 - 1.0:
        raise InvalidParams("the purely continuous expansion needs alpha > (1+q)/2 - 1")
    if n_quad < 5 or n_quad % 2 == 0:
        raise InvalidParams("n_quad must be odd and at least 5")
    from scipy.integrate import simpson

    t_grid = np.asarray([0.5, 1.0, 1.5] if t_grid is None else t_grid, dtype=float)
    ts = np.concatenate(([0.0], t_grid))
    rho = (q - 1) / 2.0
    a = (q - 3) / 2.0
    s = np.linspace(0.0, s_max, n_quad)
    params = PlancherelParams(1, q, alpha)
    weight = continuous_weight_o(params, s[:, None])

    def phi(m: int) -> np.ndarray:
        """phi_s(t) on the s-grid (rows) at every t in ``ts`` (columns)."""
        x, w = roots_jacobi(m, a, a)
        w = w / w.sum()
        out = np.empty((s.size, ts.size))
        for j, t in enumerate(ts):
            base = np.cosh(t) - x * np.sinh(t)
            out[:, j] = np.cos(np.outer(s, np.log(base))) @ (w * base ** (-rho))
        return out

    m = _RANK1_MIN_NODES
    prev = simpson(weight[:, None] * phi(m), x=s, axis=0)
    while True:
        m *= 2
        integrand = weight[:, None] * phi(m)
        integrals = simpson(integrand, x=s, axis=0)
        witness = float(np.max(np.abs(integrals - prev) / np.abs(integrals)))
        if witness <= _RANK1_AGREE:
            break
        if m >= _RANK1_MAX_NODES:
            raise OracleNotConverged(
                f"Gauss-Jacobi rules at {m // 2} and {m} nodes still differ by "
                f"{witness:.1e} relative (t up to {ts.max():g})"
            )
        prev = integrals

    target = np.cosh(t_grid) ** (-alpha)
    norm = 1.0 / integrals[0]
    residuals = np.abs(norm * integrals[1:] - target) / target
    coarse = simpson(integrand[::2], x=s[::2], axis=0)
    s_step = np.abs(coarse[1:] / coarse[0] - norm * integrals[1:]) / target
    return Rank1Report(
        q=q,
        alpha=alpha,
        t_grid=t_grid,
        residuals=residuals,
        max_residual=float(residuals.max()),
        normalization=float(norm),
        nodes=m,
        oracle_error=witness,
        s_step_error=float(s_step.max()),
    )

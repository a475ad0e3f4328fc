"""Plancherel-type densities and analytic-continuation coefficients.

The continuous spectral weight W(s) is a product of squared Gamma moduli
and pair interactions.  Continued below its natural parameter range it
spawns finitely many discrete blocks indexed by (r, u) through
w_j = u_1 + ... + u_j + j/2; each block carries a combinatorial factor C,
a Gamma-product factor V and a residual continuous density Q over the
remaining p - r spectral variables.  All Gamma products run through the
pole-aware arithmetic so that negative-integer degenerations reduce to
order bookkeeping.

C, V and W work on stacks: C and V on an (N, r) array of same-rank labels,
W on an (N, p) array of points, each factor one array operation.  Q stays
one block at a time, as the independent side of the r = 0 check against W.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, count
from math import comb, factorial, log, pi
from operator import add

import numpy as np
from scipy.special import gammaln, loggamma, roots_jacobi

from .errors import InvalidParams, OracleNotConverged, PoleOnContour
from .gammaval import (
    GammaStack,
    GammaValue,
    from_real,
    from_real_snapped,
    gamma_stack,
    gamma_value,
    nearest_nonpositive_int,
    one,
    pochhammer_stack,
    pochhammer_value,
)

_ZERO_TOL = 1e-12


@dataclass
class PlancherelParams:
    """Rank/weight parameters; ``h`` defaults to (p + q)/2 - 1."""

    p: int
    q: int
    alpha: float
    h: float | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.p <= self.q:
            raise InvalidParams(f"need 1 <= p <= q, got ({self.p}, {self.q})")
        if self.h is None:
            self.h = (self.p + self.q) / 2.0 - 1.0


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
# Squared-modulus helpers (shared primitive of W and Q)
# ---------------------------------------------------------------------------


def _log_abs_gamma_sq(z):
    """log |Gamma(z)|^2 at every entry of z, off the pole set."""
    return 2.0 * np.real(loggamma(z))


def _abs_gamma_sq_limit(x0: float, rate: float) -> GammaValue:
    """|Gamma(x0 + i rate eps)|^2 as eps -> 0, pole-aware in eps."""
    m = nearest_nonpositive_int(x0)
    if m is not None:
        mm = -m
        log_abs = -2.0 * float(gammaln(mm + 1)) - 2.0 * np.log(abs(rate))
        return GammaValue(log_abs, 1, pole_order=2)
    return GammaValue(2.0 * float(gammaln(x0)), 1)


def _inv_abs_gamma_sq_zero(rate: float) -> GammaValue:
    """1 / |Gamma(i rate eps)|^2 = (rate eps)^2 (1 + O(eps^2))."""
    return GammaValue(2.0 * np.log(abs(rate)), 1, zero_order=2)


def _abs_poch_sq_limit(base: float, m: int, rate: float) -> GammaValue:
    """|(base + i rate eps)_m|^2 as eps -> 0."""
    out = one()
    for i in range(m):
        x = base + i
        if abs(x) <= _ZERO_TOL:
            out = out * GammaValue(2.0 * np.log(abs(rate)), 1, zero_order=2)
        else:
            out = out * GammaValue(2.0 * np.log(abs(x)), 1)
    return out


def _log_abs_poch_sq(z: complex, m: int) -> float:
    total = 0.0
    for i in range(m):
        total += 2.0 * np.log(abs(z + i))
    return total


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


def _collapse(gv: GammaValue, where: str) -> float | None:
    """Finite value of a coordinate limit; None encodes an exact zero."""
    if gv.is_pole:
        raise PoleOnContour(f"net pole of order {gv.pole_order} at {where}")
    if gv.is_zero:
        return None
    return gv.log_abs


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
    limits, one constant for all of them: net zeros give an exact zero,
    net poles raise PoleOnContour.
    """
    p, q, alpha = params.p, params.q, params.alpha
    s = np.asarray(s, dtype=float)
    if s.ndim not in (1, 2) or s.shape[-1] != p:
        raise InvalidParams(f"need {p} spectral parameters per point, got shape {s.shape}")
    points = s.reshape(-1, p)
    arg0 = (alpha - (p + q) / 2.0 + 1.0) / 2.0
    off = np.abs(points) > _ZERO_TOL
    z = np.where(off, points, 1.0)  # placeholder at s = 0, where the limit below takes over
    log_terms = _log_abs_gamma_sq(arg0 + 0.5j * z)
    if q > p:
        log_terms += _log_abs_gamma_sq((q - p) / 2.0 + 1j * z) - _log_abs_gamma_sq(1j * z)
    on_zero = ~off.all(axis=1)
    piece = 0.0
    if on_zero.any():
        gv = _abs_gamma_sq_limit(arg0, 0.5)
        if q > p:
            gv = gv * _abs_gamma_sq_limit((q - p) / 2.0, 1.0) * _inv_abs_gamma_sq_zero(1.0)
        piece = _collapse(gv, "s = 0")
    if piece is None:
        weights = np.exp(log_terms.sum(axis=1)) * _pair_interactions(points)
        weights[on_zero] = 0.0
    else:
        weights = np.exp(np.where(off, log_terms, piece).sum(axis=1)) * _pair_interactions(points)
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


def _stack_result(labels, value: GammaStack):
    """The GammaValue of a single BlockIndex, the whole stack otherwise."""
    return value[0] if isinstance(labels, BlockIndex) else value


def coeff_C(labels, p: int):
    """Combinatorial block factor C over labels (r, u).

    ``labels`` is a BlockIndex, giving a GammaValue, or an (N, r) integer
    array of same-rank labels, giving a GammaStack of N values.
    """
    u, w, w_prev = _label_stack(labels, p)
    r = u.shape[1]
    log_const = (p - r) * log(2.0) + r * log(2.0 * pi) + gammaln(p + 1) - gammaln(p - r + 1)
    # prod (-1)^u_k / u_k!, with log u_k! from gammaln so large labels do not overflow
    out = GammaStack(
        log_const - gammaln(u + 1.0).sum(axis=1),
        1 - 2 * (u.sum(axis=1) % 2),
        np.zeros(u.shape[0], dtype=np.int64),
    )
    k, m = np.triu_indices(r, 1)
    gap = w[:, m] - w[:, k]
    pairs = gamma_stack(0.5 + gap) / gamma_stack(gap)
    pairs = pairs / pochhammer_stack(0.5 + w_prev[:, k] - w[:, m], u[:, k])
    return _stack_result(labels, out * pairs.prod(axis=1))


def coeff_V_o(alpha: float, labels, p: int, q: int):
    """Gamma-product block factor V, orthogonal case.

    Includes the 1/Gamma(alpha - m + 1) prefactor over m = 1..p, so the
    r = 0 block reproduces the continuous expansion's prefactor exactly
    and negative-integer alpha degenerations appear as net zero orders.
    ``labels`` is a BlockIndex or an (N, r) stack, as for ``coeff_C``.
    """
    u, w, w_prev = _label_stack(labels, p)
    half = (p + q) / 2.0
    prefactor = gamma_stack(alpha - np.arange(p)).prod(axis=0)
    singles = gamma_stack(alpha - p + 1.0 + 2.0 * w) * gamma_stack(-alpha + q - 1.0 - 2.0 * w)
    singles = singles / gamma_stack(-alpha + half - 2.0 * w)
    singles = singles / pochhammer_stack(alpha - half + w + w_prev + 0.5, u)
    k, m = np.triu_indices(u.shape[1], 1)
    both = w[:, k] + w[:, m]
    pairs = gamma_stack(0.5 - alpha + half - both) / gamma_stack(-alpha + half - both)
    pairs = pairs / pochhammer_stack(alpha - half + w[:, m] + w_prev[:, k] + 0.5, u[:, k])
    out = singles.prod(axis=1) * pairs.prod(axis=1) / prefactor
    return _stack_result(labels, out)


def coeff_Q_o(alpha: float, u: BlockIndex, s, p: int, q: int) -> float:
    """Residual continuous density Q over the p - r remaining parameters.

    Assembled factor by factor, independently of ``continuous_weight_o``;
    at r = 0 the two must agree, which is what the consistency check in
    the test-suite exercises.
    """
    r = u.r
    if r > p:
        raise InvalidParams(f"block rank {r} exceeds p = {p}")
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.shape != (p - r,):
        raise InvalidParams(f"need {p - r} spectral parameters, got shape {s.shape}")
    half = (p + q) / 2.0
    wr = u.w[-1] if r else 0.0
    arg0 = (alpha - half + 1.0) / 2.0
    log_acc = 0.0
    for idx in range(p - r):
        sl = float(s[idx])
        if abs(sl) > _ZERO_TOL:
            log_acc += _log_abs_gamma_sq(arg0 + wr + 0.5j * sl)
            if q > p:
                log_acc += _log_abs_gamma_sq((q - p) / 2.0 + 1j * sl)
                log_acc -= _log_abs_gamma_sq(1j * sl)
            for k in range(1, r + 1):
                wk = u.w[k - 1]
                a_num = (1.0 - alpha + half - 2.0 * wk) / 2.0
                a_den = (-alpha + half - 2.0 * wk) / 2.0
                c0 = (alpha - half + wk) / 2.0
                log_acc += _log_abs_gamma_sq(a_num + 0.5j * sl)
                log_acc -= _log_abs_gamma_sq(a_den + 0.5j * sl)
                log_acc -= _log_abs_poch_sq(c0 + 0.5j * sl, u.u[k - 1])
        else:
            gv = _abs_gamma_sq_limit(arg0 + wr, 0.5)
            if q > p:
                gv = gv * _abs_gamma_sq_limit((q - p) / 2.0, 1.0) * _inv_abs_gamma_sq_zero(1.0)
            for k in range(1, r + 1):
                wk = u.w[k - 1]
                gv = gv * _abs_gamma_sq_limit((1.0 - alpha + half - 2.0 * wk) / 2.0, 0.5)
                gv = gv / _abs_gamma_sq_limit((-alpha + half - 2.0 * wk) / 2.0, 0.5)
                gv = gv / _abs_poch_sq_limit((alpha - half + wk) / 2.0, u.u[k - 1], 0.5)
            piece = _collapse(gv, f"s[{idx}] = 0")
            if piece is None:
                return 0.0
            log_acc += piece
    return float(np.exp(log_acc)) * _pair_interactions(s)


# ---------------------------------------------------------------------------
# Unitary case
# ---------------------------------------------------------------------------


def coeff_CVQ_u(alpha: float, w, s, p: int, q: int) -> tuple[GammaValue, GammaValue, float]:
    """Unitary-case block coefficients (C, V, Q) for integer labels w.

    Here the labels are plain nonnegative integers, repeated labels make C
    vanish through the squared Vandermonde, and the prefactor
    1/Gamma(alpha/2 - m + 1)^2 confines degeneration to even negative
    integers alpha.
    """
    w = tuple(int(x) for x in w)
    if any(x < 0 for x in w):
        raise InvalidParams("block labels are nonnegative integers")
    r = len(w)
    if r > p:
        raise InvalidParams(f"block rank {r} exceeds p = {p}")
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.shape != (p - r,):
        raise InvalidParams(f"need {p - r} spectral parameters, got shape {s.shape}")

    c_val = from_real(2.0 ** (p - r) * factorial(p) * (2.0 * pi) ** r / factorial(p - r))
    for wk in w:
        c_val = c_val * GammaValue(-float(gammaln(wk + 1)), 1 if wk % 2 == 0 else -1)
    for k in range(r):
        for l in range(k + 1, r):
            c_val = c_val * from_real_snapped(float((w[k] - w[l]) ** 2))

    v_val = one()
    for m in range(1, p + 1):
        g = gamma_value(alpha / 2.0 - m + 1.0)
        v_val = v_val / (g * g)
    for wk in w:
        g1 = gamma_value(alpha / 2.0 - p + 1.0 + wk)
        g2 = gamma_value(-alpha / 2.0 + q - wk)
        v_val = v_val * g1 * g1 * g2 * g2
        v_val = v_val / gamma_value(-alpha + (p + q) - 1.0 + 2.0 * wk)
        v_val = v_val / pochhammer_value(alpha - (p + q) + 1.0 + wk, wk)
    for k in range(r):
        for l in range(k + 1, r):
            f = from_real_snapped(alpha - (p + q) + 1.0 + w[k] + w[l])
            v_val = v_val * f * f

    q_val = _unitary_q(alpha, w, s, p, q)
    return c_val, v_val, q_val


def _unitary_q(alpha: float, w: tuple[int, ...], s: np.ndarray, p: int, q: int) -> float:
    log_acc = 0.0
    shifts = [0.25 * (alpha - (p + q) + 1.0 + 2.0 * wk) ** 2 for wk in w]
    for idx in range(s.size):
        sn = float(s[idx])
        if abs(sn) > _ZERO_TOL:
            for shift in shifts:
                log_acc += 2.0 * np.log(shift + sn * sn)
            log_acc += 2.0 * _log_abs_gamma_sq((q - p + 1.0) / 2.0 + 0.5j * sn)
            log_acc += _log_abs_gamma_sq((alpha - p - q + 1.0) / 2.0 + 0.5j * sn)
            log_acc -= _log_abs_gamma_sq(1j * sn)
        else:
            gv = one()
            for shift in shifts:
                f = from_real_snapped(shift)
                gv = gv * f * f
            fin = _abs_gamma_sq_limit((q - p + 1.0) / 2.0, 0.5)
            gv = gv * fin * fin
            gv = gv * _abs_gamma_sq_limit((alpha - p - q + 1.0) / 2.0, 0.5)
            gv = gv * _inv_abs_gamma_sq_zero(1.0)
            piece = _collapse(gv, f"s[{idx}] = 0")
            if piece is None:
                return 0.0
            log_acc += piece
    total = float(np.exp(log_acc))
    for m in range(s.size):
        for n in range(m + 1, s.size):
            total *= float((s[n] ** 2 - s[m] ** 2) ** 2)
    return total


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

"""Plancherel-type densities and analytic-continuation coefficients.

The continuous spectral weight W(s) is a product of squared Gamma moduli
and pair interactions.  Continued below its natural parameter range it
spawns finitely many discrete blocks indexed by (r, u) through
w_j = u_1 + ... + u_j + j/2; each block carries a combinatorial factor C,
a Gamma-product factor V and a residual continuous density Q over the
remaining p - r spectral variables.  All Gamma products run through the
pole-aware ``GammaValue`` so that negative-integer degenerations reduce to
order bookkeeping.  Every Gamma argument of C and V is a half-integer
step from 0, alpha or -alpha, so a stack of labels reads C's from one
Gamma table and V's, on both of its lattices, from another, a Pochhammer
symbol (a)_u as Gamma(a + u)/Gamma(a).

A block label u is a row of the (N, p) integer array ``surviving_blocks``
returns: a label of rank r < p is padded at its tail with -1, and its w
is the ``partial_sums`` of its first r entries.  C and V work on any such
array, one value per row, whatever the ranks of its rows, and Q_o on one
label without pads, a (1, r) row; W works on an (N, p) array of points,
each factor one array operation, and a column that holds one value down
the stack is evaluated once.  W, Q_o and the unitary Q are products of
one primitive, |Gamma(x0 + i rate s)|^2, which takes the s = 0 limit
itself, so a coordinate at s = 0 runs the same code as any other; a net
pole raises PoleOnContour.  The primitive reads log|Gamma| from
``gammaval``, the one module that evaluates it: ``log_abs_gamma`` off
the real axis and ``gamma_value`` on it.  W's
c-function ratio |Gamma((q-p)/2 + i s)|^2 / |Gamma(i s)|^2 is
elementary, since q - p is an integer: a polynomial in s^2, times
s tanh(pi s) for odd q - p.  Q_o keeps that ratio's Gamma form,
so the r = 0 check compares two routes to it.  Q stays one block at a
time, assembled factor by factor as the independent side of that check.
W, like Q, multiplies its pair factors into the GammaValue before leaving
it, so a W or a Q past the float range keeps its sign and logarithm: W
comes back as +-inf, Q as a 0-d GammaValue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb, isfinite, log, perm, pi
from numbers import Integral

import numpy as np

from .errors import InvalidParams, OracleNotConverged, PoleOnContour
from .gammaval import (  # perfbench/layers.py counts calls through every one of these names
    GammaValue,
    from_real,
    from_real_snapped,
    gamma_value,
    one,  # not called here: bound as plancherel.one
    pochhammer_value,
)
from .gammaval import lgamma, log_abs_gamma, log_rising_sq

_ZERO_TOL = 1e-12


@dataclass
class PlancherelParams:
    """Rank/weight parameters (p, q, alpha) of the expansion."""

    p: int
    q: int
    alpha: float

    def __post_init__(self) -> None:
        if not all(isinstance(v, Integral) and not isinstance(v, bool) for v in (self.p, self.q)):
            raise InvalidParams(f"p and q must be integers, got ({self.p!r}, {self.q!r})")
        if not 1 <= self.p <= self.q:
            raise InvalidParams(f"need 1 <= p <= q, got ({self.p}, {self.q})")
        if not isfinite(self.alpha):
            raise InvalidParams(f"alpha must be finite, got {self.alpha}")

    @property
    def h(self) -> float:
        """The threshold (p + q)/2 - 1 below which discrete blocks appear."""
        return (self.p + self.q) / 2.0 - 1.0


def partial_sums(labels) -> np.ndarray:
    """w_k = u_1 + ... + u_k + k/2 along the last axis of one label or a label stack.

    In a row padded at its tail with -1, the entries before the first pad
    are the label's own.
    """
    u = np.asarray(labels)
    return np.cumsum(u, axis=-1) + np.arange(1, u.shape[-1] + 1) / 2.0


# Most blocks one expansion may enumerate.  The count grows like
# top^p / p!, so large ranks far below the threshold are refused with
# InvalidParams instead of enumerated for minutes; the benchmark's largest
# inventory, (4, 12, -3), has 551 blocks and (5, 12, -12) has 27,684.
BLOCK_BUDGET = 100_000


def surviving_blocks(params: PlancherelParams) -> np.ndarray:
    """The labels u of all blocks in the continued expansion at ``params.alpha``.

    One (N, p) int64 array, a row per block: a label of rank r < p fills
    the row's first r entries and -1 pads the rest, so the rank of a row
    is its count of entries >= 0 and ``len`` of the array is the block
    count.  The continuous block r = 0, the all-pad row, is always
    present; a discrete block (r, u) survives when w_r < h - alpha,
    strictly: a label on the boundary is left out.  The inventory is
    finite because w_r >= r/2: for each rank it holds the labels with
    sum(u) <= top.  The rows run by rank, and within a rank by (sum(u), u).
    More than ``BLOCK_BUDGET`` blocks raise InvalidParams.

    The top falls with the rank, so the lexicographically ordered labels
    of rank r - 1 that fit under rank r's top are its prefixes, each
    extended by every last entry its sum leaves room for, in increasing
    order; the rows stay in lexicographic order, and a stable sort by sum
    orders them by (sum(u), u).
    """
    bound = params.h - params.alpha
    tops = {}
    for r in range(1, params.p + 1):
        top = int(np.floor(bound - r / 2.0 - 1e-9))
        if top >= 0:
            tops[r] = top
    count = 1 + sum(comb(top + r, r) for r, top in tops.items())
    if count > BLOCK_BUDGET:
        raise InvalidParams(
            f"{count} blocks at (p, q, alpha) = ({params.p}, {params.q}, {params.alpha}) "
            f"exceed the budget of {BLOCK_BUDGET}"
        )
    out = np.full((count, params.p), -1, dtype=np.int64)
    labels, sums = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
    at = 1
    for r, top in tops.items():
        fits = sums <= top
        labels, sums = labels[fits], sums[fits]
        counts = top + 1 - sums
        rows = np.repeat(np.arange(sums.size), counts)
        last = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
        labels = np.concatenate([labels[rows], last[:, None]], axis=1)
        sums = sums[rows] + last
        out[at:at + len(labels), :r] = labels[np.argsort(sums, kind="stable")]
        at += len(labels)
    return out


# ---------------------------------------------------------------------------
# Squared Gamma moduli (the one primitive of W and Q) and W's c-function ratio
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
    off = 2.0 * log_abs_gamma(x0, rate * z)
    limit = gamma_value(x0)
    limit_log = 2.0 * limit.log_abs - 2.0 * np.log(abs(rate)) * limit.is_pole
    return GammaValue(
        np.where(at_zero, limit_log, off),
        np.ones(off.shape, dtype=np.int64),
        np.where(at_zero, 2 * limit.order, 0),
    )


def _c_ratio(d: int, s) -> GammaValue:
    """|Gamma(d/2 + i s)|^2 / |Gamma(i s)|^2 at every s for an integer d >= 1, as a GammaValue.

    By the reflection formulas it is elementary: prod_{k < d/2} (k^2 + s^2)
    for even d and s tanh(pi s) prod_{k < (d-1)/2} ((k + 1/2)^2 + s^2) for
    odd d.  At s = 0 both have the second-order zero s^2 Gamma(d/2)^2, that
    is s^2 (d/2 - 1)!^2 and s^2 pi prod (k + 1/2)^2, the limit
    ``_abs_gamma_sq`` gives the Gamma form.
    """
    s = np.asarray(s, dtype=float)
    at_zero = np.abs(s) <= _ZERO_TOL
    z = np.where(at_zero, 1.0, s)  # placeholder at s = 0, where the limit takes over
    if d % 2:
        off = np.log(z * np.tanh(pi * z)) + log_rising_sq(0.5, z, (d - 1) // 2)
    else:
        off = np.log(z * z) + log_rising_sq(1.0, z, d // 2 - 1)
    return GammaValue(
        np.where(at_zero, 2.0 * lgamma(d / 2.0), off),
        np.ones(s.shape, dtype=np.int64),
        np.where(at_zero, -2, 0),
    )


def _pole_checked(value: GammaValue) -> GammaValue:
    """A product over s, once it holds no net pole; a net pole raises PoleOnContour."""
    if np.any(value.is_pole):
        raise PoleOnContour(f"net pole of order {int(np.max(value.order))} at s = 0")
    return value


def _pair_factors(s: np.ndarray) -> np.ndarray:
    """One factor per pair k < l of the last axis: W and Q take their product as a GammaValue."""
    k, l = np.triu_indices(s.shape[-1], 1)
    return _pair_factor(s[..., k], s[..., l])


def _pair_factor(sk, sl):
    """(s_k^2 - s_l^2) tanh(pi (s_k - s_l)/2) tanh(pi (s_k + s_l)/2) at every entry."""
    return (sk**2 - sl**2) * np.tanh(pi * (sk - sl) / 2.0) * np.tanh(pi * (sk + sl) / 2.0)


def _row_product(f, points: np.ndarray, fixed: np.ndarray, *index) -> GammaValue:
    """f(*(points[:, i] for i in index)).prod(axis=-1), bit for bit, for an elementwise f.

    ``index`` holds equal-length arrays of column numbers, one column of
    f's value per entry, and ``fixed`` marks the columns of ``points`` that
    hold one value down the rows.  Where every column an entry reads is
    fixed, f takes only the first row.  Each entry of f's value gets the
    bits it gets alone, and the logs are added in column order, as
    ``GammaValue.prod`` adds them.
    """
    n = len(points)
    sign, order = np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    once = np.logical_and.reduce([fixed[i] for i in index])
    logs = [None] * once.size
    for rows, at in ((points[:1], np.flatnonzero(once)), (points, np.flatnonzero(~once))):
        if at.size:
            value = f(*(rows[:, i[at]] for i in index))
            sign = sign * value.sign.prod(axis=-1)
            order = order + value.order.sum(axis=-1)
            for j, column in zip(at.tolist(), value.log_abs.T):
                logs[j] = column
    log_abs = reduce(np.add, logs) if logs else np.zeros(n)  # the empty product is 1
    return GammaValue(np.broadcast_to(log_abs, (n,)), sign, order)


# ---------------------------------------------------------------------------
# Continuous weight (orthogonal case)
# ---------------------------------------------------------------------------


def continuous_weight_o(params: PlancherelParams, s):
    """The spectral weight W(s) over p real parameters, orthogonal case.

    Per coordinate: |Gamma((alpha - (p+q)/2 + 1 + i s)/2)|^2 times, when
    q > p, the ratio |Gamma((q-p)/2 + i s)|^2 / |Gamma(i s)|^2 in its
    elementary form (for q = p the ratio cancels identically); pairs
    contribute (s_k^2 - s_l^2) tanh(pi (s_k - s_l)/2) tanh(pi (s_k + s_l)/2).
    ``s`` is one point of shape (p,), giving a float, or an (N, p) stack,
    giving an array of N weights, each a point's value bit for bit.  A
    coordinate with the same bits at every point is evaluated once, as is
    a pair of two such coordinates.  Coordinates at s = 0 are evaluated as
    limits: net zeros give an exact zero, net poles of the Gamma factors
    raise PoleOnContour.  The product is exponentiated last, so a W past
    the float range is inf and a zero pair factor still gives 0.0.
    """
    p, q, alpha = params.p, params.q, params.alpha
    s = np.asarray(s, dtype=float)
    if s.ndim not in (1, 2) or s.shape[-1] != p:
        raise InvalidParams(f"need {p} spectral parameters per point, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise InvalidParams("spectral parameters must be finite")
    points = s.reshape(-1, p)
    bits = points.view(np.int64)
    fixed = (bits == bits[:1]).all(axis=0)  # columns of one value, such as the CLI's s_2..s_p
    x0 = (alpha - (p + q) / 2.0 + 1.0) / 2.0

    def per_coordinate(s):
        factors = _abs_gamma_sq(x0, 0.5, s)
        return factors * _c_ratio(q - p, s) if q > p else factors

    def per_pair(sk, sl):
        return from_real(_pair_factor(sk, sl))

    value = _pole_checked(_row_product(per_coordinate, points, fixed, np.arange(p)))
    value = value * _row_product(per_pair, points, fixed, *np.triu_indices(p, 1))
    with np.errstate(over="ignore"):  # past the float range W is +-inf, its sign kept
        weights = value.to_float()
    return weights if s.ndim == 2 else float(weights[0])


# ---------------------------------------------------------------------------
# Block coefficients (orthogonal case)
# ---------------------------------------------------------------------------


def _label_stack(labels, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, 2w, pad) of an (N, n) label array, n <= p, checked, each as an (n, N) array.

    A row of ``labels`` holds a label of rank r <= n in its first r
    entries and -1, a pad, in the rest; ``pad`` marks the pads.  u reads 0
    at the pads, and 2w holds the doubled partial sums, integers, which at
    the label's entries are the label's own.  Entry k of every label is
    row k of each result, so an operation on one entry runs down a row.
    """
    u = np.asarray(labels)
    if u.ndim != 2 or not (u.size == 0 or np.issubdtype(u.dtype, np.integer)):
        raise InvalidParams(f"block labels must be an (N, r) integer array, got {u.shape}")
    if u.shape[1] > p:
        raise InvalidParams(f"block rank {u.shape[1]} exceeds p = {p}")
    u = u.T.astype(np.int64, order="C")
    pad = u < 0
    if np.any(u < -1) or np.any(pad[:-1] > pad[1:]):
        raise InvalidParams("block labels are nonnegative integers, padded at the tail with -1")
    u[pad] = 0
    return u, 2 * np.cumsum(u, axis=0) + np.arange(1, len(u) + 1)[:, None], pad


def _c_prefix(u: np.ndarray, r, p: int) -> GammaValue:
    """2^(p-r) (2 pi)^r p!/(p-r)! prod_k (-1)^u_k over axis 0 of labels u of ranks r.

    Built in logs, so a large p does not overflow a float; p!/(p-r)! is an
    exact integer before its log.  The constant is read from a table over
    the ranks 0..p, and u must read 0 past each label's rank.  The
    prefix's 1/u_k! = 1/Gamma(1 + u_k) is left to the caller: ``coeff_C``
    reads it from its Gamma table.
    """
    log_const = np.array([(p - k) * log(2.0) + k * log(2.0 * pi) + log(perm(p, k))
                          for k in range(p + 1)])
    return GammaValue(
        np.asarray(log_const[r]),
        1 - 2 * (u.sum(axis=0) % 2),
        np.zeros(np.shape(r), dtype=np.int64),
    )


def _gamma_steps(*lattices) -> GammaValue:
    """prod_j Gamma(base + up_j/2) / prod_j Gamma(base + down_j/2) per label, per lattice.

    Each lattice is a (base, up, down) triple, ``up`` and ``down`` lists of
    (steps, pad) pairs: a (*, N) integer array of half-steps from ``base``,
    one column per label, and the mask of its entries that stay out of the
    product.  The lattices' products are multiplied in order.  One
    ``gamma_value`` call covers every step from each lattice's lowest to
    its highest, masked ones included, and the table holds each value's
    reciprocal after it, where ``down`` reads.  A masked entry reads one
    unit slot at the table's end, log -0.0, sign 1 and order 0, which
    changes no sum: x + (-0.0) = x for every float.  ``GammaValue.prod``
    adds a label's logs one row at a time, in row order, so a label gets
    the same bits alone as in a stack, pads or none.
    Signs and orders are read from int8 copies of the table, which keeps
    the gathered arrays an eighth of the size.
    """
    ats, args, size = [], [], 0
    for base, up, down in lattices:
        at = np.concatenate([steps for steps, _ in up + down])
        lo, hi = (at.min(), at.max()) if at.size else (0, -1)
        args.append(base + np.arange(lo, hi + 1) / 2.0)
        at += size - lo
        pad = np.concatenate([mask for _, mask in up + down])
        ats.append((at, pad, sum(len(steps) for steps, _ in up)))
        size += hi + 1 - lo
    gamma = gamma_value(np.concatenate(args))
    log_abs = np.concatenate([gamma.log_abs, -gamma.log_abs, [-0.0]])
    sign = np.concatenate([gamma.sign, gamma.sign, [1]]).astype(np.int8)
    order = np.concatenate([gamma.order, -gamma.order, [0]]).astype(np.int8)
    value = None
    for at, pad, ups in ats:
        at[ups:] += size  # a down step reads the reciprocal
        np.putmask(at, pad, 2 * size)
        part = GammaValue(log_abs[at], sign[at], order[at]).prod(axis=0)
        value = part if value is None else value * part
    return value


def coeff_C(labels, p: int) -> GammaValue:
    """Combinatorial block factor C over labels (r, u).

    ``labels`` is an (N, n) integer array, n <= p, giving N values: each
    row a label of its own rank r, padded at its tail with -1, as
    ``surviving_blocks`` returns them; a label of rank r is also a (1, r)
    row.  A row's value has the same bits with or without its pads.  Past
    the prefix, each pair k < m of the label gives
    Gamma(1/2 + w_m - w_k) / Gamma(w_m - w_k) / (a)_(u_k) with
    a = 1/2 + w_(k-1) - w_m.  Every argument is a half-integer step from 0,
    the prefix's 1/u_k! = 1/Gamma(1 + u_k) included, so one Gamma table
    serves the array, and (a)_u is Gamma(a + u) / Gamma(a).
    """
    u, tw, pad = _label_stack(labels, p)
    k, m = np.triu_indices(len(u), 1)
    pair = pad[m]  # k < m, so a pair is a pad where m is
    gap = tw[m] - tw[k]  # 2 (w_m - w_k), and a + u_k = w_k - w_m
    return _c_prefix(u, len(u) - pad.sum(axis=0), p) * _gamma_steps(
        (0.0, [(1 + gap, pair), (-gap - 2 * u[k], pair)],
         [(gap, pair), (-gap, pair), (2 + 2 * u, pad)])
    )


def coeff_V_o(alpha: float, labels, p: int, q: int) -> GammaValue:
    """Gamma-product block factor V, orthogonal case.

    Includes the 1/Gamma(alpha - m + 1) prefactor over m = 1..p, so the
    r = 0 block reproduces the continuous expansion's prefactor exactly
    and negative-integer alpha degenerations appear as net zero orders.
    ``labels`` is an (N, n) array of padded rows, as for ``coeff_C``.  Per
    label entry k it takes Gamma(alpha - p + 1 + 2 w_k)
    Gamma(q - 1 - alpha - 2 w_k) / Gamma(half - alpha - 2 w_k) /
    (a_kk)_(u_k), and per pair k < m Gamma(1/2 + half - alpha - w_k - w_m)
    / Gamma(half - alpha - w_k - w_m) / (a_km)_(u_k), where
    half = (p + q)/2 and a_km = alpha - half + w_m + w_(k-1) + 1/2.  Every
    argument is a half-integer step from alpha or from -alpha, so one
    Gamma table serves each, and (a)_u is Gamma(a + u) / Gamma(a).
    """
    u, tw, pad = _label_stack(labels, p)
    pq = p + q
    k, m = np.triu_indices(len(u), 1)
    pair = pad[m]
    both = tw[k] + tw[m]
    prefactor = np.broadcast_to(-2 * np.arange(p)[:, None], (p, u.shape[1]))
    # 2 (a_km + u_k - alpha) = 2 w_k + 2 w_m - p - q, the diagonal k = m included
    return _gamma_steps(
        (alpha,
         [(2 + 2 * tw - 2 * p, pad), (2 * tw - pq - 2 * u, pad), (both - pq - 2 * u[k], pair)],
         [(prefactor, np.zeros(prefactor.shape, dtype=bool)), (2 * tw - pq, pad),
          (both - pq, pair)]),
        (-alpha, [(2 * q - 2 - 2 * tw, pad), (1 + pq - both, pair)],
         [(pq - 2 * tw, pad), (pq - both, pair)]),
    )


def _one_label(label, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, 2w) of the one label of a (1, r) row, checked as a label array is; a pad is refused."""
    u, tw, pad = _label_stack(label, p)
    if u.shape[1] != 1:
        raise InvalidParams(f"one label is one (1, r) row, got shape {u.T.shape}")
    if pad.any():
        raise InvalidParams("one label is nonnegative integers, with no -1 pad")
    return u[:, 0], tw[:, 0]


def _spectral_args(s, n: int) -> np.ndarray:
    """``s`` as a float array of exactly n finite spectral parameters."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.shape != (n,):
        raise InvalidParams(f"need {n} spectral parameters, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise InvalidParams("spectral parameters must be finite")
    return s


def coeff_Q_o(alpha: float, label, s, p: int, q: int) -> GammaValue:
    """Residual continuous density Q over the p - r remaining parameters, a 0-d GammaValue.

    ``label`` is one (1, r) row without pads.  Assembled factor by factor,
    independently of ``continuous_weight_o``; at r = 0 the two must agree,
    which is what the consistency check in the test-suite exercises.
    """
    labels, tw = _one_label(label, p)
    w = tw / 2.0
    r = labels.size
    s = _spectral_args(s, p - r)
    half = (p + q) / 2.0
    wr = w[-1] if r else 0.0
    value = _abs_gamma_sq((alpha - half + 1.0) / 2.0 + wr, 0.5, s)
    if q > p:
        value = value * (_abs_gamma_sq((q - p) / 2.0, 1.0, s) / _abs_gamma_sq(0.0, 1.0, s))
    # one column per label k: s down the rows, w_k and u_k across
    col = s[:, None]
    per_label = _abs_gamma_sq((1.0 - alpha + half - 2.0 * w) / 2.0, 0.5, col)
    per_label = per_label / _abs_gamma_sq((-alpha + half - 2.0 * w) / 2.0, 0.5, col)
    c0 = (alpha - half + w) / 2.0
    per_label = per_label / (_abs_gamma_sq(c0 + labels, 0.5, col) / _abs_gamma_sq(c0, 0.5, col))
    value = value * per_label.prod(axis=1)
    return _pole_checked(value.prod(axis=0)) * from_real(_pair_factors(s)).prod(axis=0)


# ---------------------------------------------------------------------------
# Unitary case
# ---------------------------------------------------------------------------


def coeff_CVQ_u(
    alpha: float, w, s, p: int, q: int
) -> tuple[GammaValue, GammaValue, GammaValue]:
    """Unitary-case block coefficients (C, V, Q) for integer labels w.

    Here the labels are plain nonnegative integers, checked as one row of a
    label array with no pad, so a non-integer or negative label raises
    InvalidParams.  Repeated labels make C vanish through the squared
    Vandermonde, and the prefactor 1/Gamma(alpha/2 - m + 1)^2 confines
    degeneration to even negative integers alpha.  C, V and Q are 0-d GammaValues.
    """
    w = _one_label(np.asarray(w)[None], p)[0]
    r = w.size
    s = _spectral_args(s, p - r)
    k, l = np.triu_indices(r, 1)

    c_val = _c_prefix(w, r, p) / gamma_value(1.0 + w).prod(axis=0)
    c_val = c_val * from_real_snapped((w[k] - w[l]) ** 2.0).prod(axis=0)

    shift = alpha - (p + q) + 1.0
    prefactor = gamma_value(alpha / 2.0 - np.arange(p))
    singles = gamma_value(alpha / 2.0 - p + 1.0 + w) * gamma_value(-alpha / 2.0 + q - w)
    singles = singles * singles / gamma_value(-alpha + (p + q) - 1.0 + 2.0 * w)
    singles = singles / pochhammer_value(shift + w, w)
    pairs = from_real_snapped(shift + w[k] + w[l])
    v_val = singles.prod(axis=0) * (pairs * pairs).prod(axis=0)
    v_val = v_val / (prefactor * prefactor).prod(axis=0)

    return c_val, v_val, _unitary_q(alpha, w, s, p, q)


def _unitary_q(alpha: float, w: np.ndarray, s: np.ndarray, p: int, q: int) -> GammaValue:
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
    return _pole_checked(value.prod(axis=0) * (pairs * pairs).prod(axis=0))


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

    t_grid: np.ndarray
    residuals: np.ndarray
    max_residual: float
    normalization: float
    nodes: int
    oracle_error: float
    s_step_error: float


# The t at which the resynthesis is compared with its target, and the
# Simpson grid in s: 201 points on [0, 25], an odd count, as is its half grid's 101.
_RANK1_T_GRID = (0.5, 1.0, 1.5)
_RANK1_S_MAX = 25.0
_RANK1_S_POINTS = 201
_RANK1_MIN_NODES = 32
_RANK1_MAX_NODES = 1024
_RANK1_AGREE = 1e-10


def _simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson's rule down axis 0 of ``y``: an odd number of samples h apart."""
    weights = np.ones(y.shape[0])
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return h / 3.0 * (weights @ y)


def _gauss_jacobi(m: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss rule for the weight (1 - x^2)^a on [-1, 1], m >= 2: nodes, weights.

    Golub and Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues
    of the symmetric Jacobi matrix of the weight, and the weights are the
    squared first components of its eigenvectors, scaled here to sum to 1.
    The weight is even, so the diagonal is 0; the off-diagonal entries are
    sqrt(b_k), b_k = k (k + 2a) / ((2k + 2a)^2 - 1) for k = 1..m-1.  At
    k = 1 that is 1/(3 + 2a), written out because the quotient is 0/0 at
    a = -1/2.
    """
    k = np.arange(2.0, m)
    b = np.concatenate(([1.0 / (3.0 + 2.0 * a)], k * (k + 2 * a) / ((2 * k + 2 * a) ** 2 - 1)))
    x, v = np.linalg.eigh(np.diag(np.sqrt(b), -1))
    w = v[0] ** 2
    return x, w / w.sum()


def rank1_plancherel_probe(q: int, alpha: float) -> Rank1Report:
    """Check cosh(t)^(-alpha) against its continuous spectral resynthesis.

    At p = 1 the spherical functions have the one-dimensional integral
    representation phi_s(t) = E[(cosh t - x sinh t)^(-rho - i s)] with
    rho = (q - 1)/2 and x the first coordinate of a uniform point of the
    (q-1)-sphere, whose density is proportional to (1 - x^2)^((q-3)/2).
    The expectation is a Gauss-Jacobi rule with that weight; the node count
    doubles from 32 until two successive rules agree to 1e-10 relative at
    every t and at the t = 0 calibration; ``OracleNotConverged`` is raised
    when the 1024-node rule still disagrees with the 512-node one.  phi is
    paired with the continuous weight, integrated over [0, 25] by Simpson's
    rule on 201 points, calibrated at t = 0 and compared with the target at
    t = 0.5, 1 and 1.5.
    """
    if q < 2:
        raise InvalidParams("need q >= 2")
    params = PlancherelParams(1, q, alpha)
    if alpha <= (1 + q) / 2.0 - 1.0:
        raise InvalidParams("the purely continuous expansion needs alpha > (1+q)/2 - 1")
    t_grid = np.asarray(_RANK1_T_GRID, dtype=float)
    ts = np.concatenate(([0.0], t_grid))
    rho = (q - 1) / 2.0
    a = (q - 3) / 2.0
    s = np.linspace(0.0, _RANK1_S_MAX, _RANK1_S_POINTS)
    weight = continuous_weight_o(params, s[:, None])

    def phi(m: int) -> np.ndarray:
        """phi_s(t) on the s-grid (rows) at every t in ``ts`` (columns)."""
        x, w = _gauss_jacobi(m, a)
        out = np.empty((s.size, ts.size))
        for j, t in enumerate(ts):
            base = np.cosh(t) - x * np.sinh(t)
            out[:, j] = np.cos(np.outer(s, np.log(base))) @ (w * base ** (-rho))
        return out

    m = _RANK1_MIN_NODES
    h = s[1] - s[0]
    prev = _simpson(weight[:, None] * phi(m), h)
    while True:
        m *= 2
        integrand = weight[:, None] * phi(m)
        integrals = _simpson(integrand, h)
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
    coarse = _simpson(integrand[::2], 2.0 * h)
    s_step = np.abs(coarse[1:] / coarse[0] - norm * integrals[1:]) / target
    return Rank1Report(
        t_grid=t_grid,
        residuals=residuals,
        max_residual=float(residuals.max()),
        normalization=float(norm),
        nodes=m,
        oracle_error=witness,
        s_step_error=float(s_step.max()),
    )

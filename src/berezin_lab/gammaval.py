"""Pole-aware Gamma arithmetic for coefficient formulas.

A ``GammaValue`` models the leading behavior c * eps^(zero - pole) of a
product of Gamma factors as a regularizing offset eps -> 0 is added to the
arguments.  Near a pole, Gamma(-m + eps) ~ (-1)^m / (m! eps); all factors
use this unit-rate convention in their own argument, which is enough to
cancel poles against zeros order by order and to read off finite limits
up to the direction of approach.

The fields are arrays: the sign and log magnitude of c and one net order,
poles minus zeros, which is all a product needs because orders only add.
A single value is the 0-d case.  Products broadcast like the arrays they
hold, and every constructor takes a scalar or an array.  The Pochhammer
symbol is the ratio Gamma(a + m) / Gamma(a), in the same convention.

This module is the one place log|Gamma| is evaluated, in two primitives.
``lgamma`` takes real arguments, one stdlib ``math.lgamma`` per entry,
and ``gamma_value`` reads its signs from the parity of floor(x).
``log_abs_gamma`` takes x + i y off the real axis in numpy: the recurrence
shifts x up until Re >= 8, where Stirling's series takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from math import log, pi

import numpy as np

from .errors import InvalidParams, UncancelledPole

# Arguments this close to a nonpositive integer are poles, values this close to 0 zeros.
_INT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GammaValue:
    """Arrays of leading coefficients (sign, log magnitude) and net orders.

    ``order`` is poles minus zeros: positive entries are poles, negative
    ones zeros.
    """

    log_abs: np.ndarray
    sign: np.ndarray
    order: np.ndarray

    @property
    def is_pole(self) -> np.ndarray:
        return self.order > 0

    @property
    def is_zero(self) -> np.ndarray:
        return self.order < 0

    def __mul__(self, other: "GammaValue") -> "GammaValue":
        return GammaValue(
            self.log_abs + other.log_abs, self.sign * other.sign, self.order + other.order
        )

    def __truediv__(self, other: "GammaValue") -> "GammaValue":
        return GammaValue(
            self.log_abs - other.log_abs, self.sign * other.sign, self.order - other.order
        )

    def prod(self, axis: int) -> "GammaValue":
        """The product along ``axis``, multiplied slice by slice in index order.

        Each slice of a stack then takes the same additions as it does
        alone, which numpy's pairwise ``sum`` over 8 or more entries does
        not.  An empty axis gives the empty product, 1.
        """
        slices = np.moveaxis(self.log_abs, axis, 0)
        log_abs = reduce(np.add, slices) if len(slices) else slices.sum(0)
        return GammaValue(log_abs, self.sign.prod(axis), self.order.sum(axis))

    def __getitem__(self, index) -> "GammaValue":
        return GammaValue(self.log_abs[index], self.sign[index], self.order[index])

    def to_float(self):
        """Collapse to floats: any pole raises, zeros are exactly 0; a 0-d value gives a float."""
        if np.any(self.is_pole):
            raise UncancelledPole(f"net pole of order {int(np.max(self.order))}")
        value = np.where(self.is_zero, 0.0, self.sign * np.exp(self.log_abs))
        return float(value) if value.ndim == 0 else value


def one() -> GammaValue:
    return from_real(1.0)


def from_real(x) -> GammaValue:
    """Wrap plain reals; an exact zero becomes a first-order zero."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise InvalidParams(f"cannot wrap non-finite value {x!r}")
    zero = x == 0.0
    return GammaValue(
        np.log(np.abs(np.where(zero, 1.0, x))), np.where(x < 0.0, -1, 1), -zero.astype(np.int64)
    )


def from_real_snapped(x) -> GammaValue:
    """As ``from_real`` but values within 1e-9 of 0 count as zeros."""
    x = np.asarray(x, dtype=float)
    return from_real(np.where(np.abs(x) <= _INT_TOL, 0.0, x))


def gamma_value(x) -> GammaValue:
    """Gamma at every entry of x; entries within 1e-9 of -n are unit-rate poles."""
    x = np.asarray(x, dtype=float)
    m = np.rint(x)
    pole = (m <= 0) & (np.abs(x - m) <= _INT_TOL)
    # Gamma(-n + eps) ~ (-1)^n / (n! eps), and n! = Gamma(1 - m) at m = -n
    log_abs = lgamma(np.where(pole, 1.0 - m, x))
    # Gamma(x) < 0 exactly where floor(x) is negative and odd, and at -n the sign is (-1)^n
    lead = np.where(pole, m, np.floor(x))
    sign = np.where((lead < 0) & (lead % 2 == 1), -1, 1)
    return GammaValue(np.where(pole, -log_abs, log_abs), sign, pole.astype(np.int64))


def pochhammer_value(a, m) -> GammaValue:
    """Rising factorial (a)_m = a (a+1) ... (a+m-1) = Gamma(a+m) / Gamma(a) at every entry.

    Each entry has its own length m.  A base within 1e-9 of -k is -k
    itself, and in the unit-rate convention it gives the finite
    (-1)^m k!/(k-m)! for m <= k and, for m > k, a first-order zero with
    coefficient (-1)^k k! (m-k-1)!, so the result composes correctly with
    Gamma poles.
    """
    a, m = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(m))
    if np.any(m < 0):
        raise InvalidParams("Pochhammer length must be nonnegative")
    base = gamma_value(a)
    return gamma_value(np.where(base.is_pole, np.rint(a), a) + m) / base


# ---------------------------------------------------------------------------
# log |Gamma| at real arguments and off the real axis
# ---------------------------------------------------------------------------


def _lgamma_or_inf(x: float) -> float:
    try:
        return math.lgamma(x)
    except (OverflowError, ValueError):  # past the float range, and at a pole
        return math.inf


def lgamma(x) -> np.ndarray:
    """log |Gamma(x)| at every entry of x, by the stdlib's ``math.lgamma``.

    It is exactly 0 at 1 and 2.  At a pole, and past the float range (x
    beyond about 2.5e305), it is inf.
    """
    x = np.asarray(x, dtype=float)
    values = map(_lgamma_or_inf, x.ravel().tolist())
    return np.fromiter(values, float, x.size).reshape(x.shape)


# Stirling's series for log Gamma(z) holds to below 1e-16 once Re z >= 8:
# its terms are B_2k / (2k (2k - 1) z^(2k-1)) for k = 1..8, through B_16.
_STIRLING_MIN_X = 8.0
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)
_HALF_LOG_2PI = 0.5 * log(2.0 * pi)
# Factors (x + k)^2 + y^2 multiplied before one log is taken of their product
_LOG_GROUP = 8
# Below this x the reflection formula replaces the shift, whose cost grows with -x
_REFLECT_BELOW = -100.0


def log_rising_sq(x, y, n):
    """log |(x + i y)_n|^2 = sum over k < n of log((x + k)^2 + y^2), one log per 8 factors.

    n is one count or one per entry of x.  The factors below the smallest
    count apply to every entry, the others only where k < n, so each entry
    takes the same operations as it would alone.
    """
    y2 = y * y
    top = int(np.max(n, initial=0))
    common = int(np.min(n, initial=top))
    total = 0.0
    for start in range(0, top, _LOG_GROUP):
        prod = 1.0
        for k in range(start, min(start + _LOG_GROUP, top)):
            factor = (x + k) ** 2 + y2
            prod = prod * (factor if k < common else np.where(k < n, factor, 1.0))
        total = total + np.log(prod)
    return total


def log_abs_gamma(x, y) -> np.ndarray:
    """log |Gamma(x + i y)| at every broadcast entry, for y off 0.

    The recurrence shifts each x up by n, the count it needs to reach
    Re >= 8, and Stirling's series through B_16 takes over there.  An x
    below -100 is reflected first, so n stays below 109.  Each entry of an
    array of x gets the bits it gets alone.  It agrees with SciPy's complex
    log Gamma to 1e-14 max(1, |value|) for y in [1e-8, 60], apart from
    about one ulp of |z| log|z| where the value crosses 0 at large |z|.
    """
    x = np.asarray(x, dtype=float)
    if np.min(x, initial=0.0) < _REFLECT_BELOW:
        # |Gamma(z)| = pi / (|sin(pi z)| |Gamma(1 - z)|), and |Gamma(1 - z)| = |Gamma(1 - x + i y)|
        reflect = x < _REFLECT_BELOW
        far = log_abs_gamma(np.where(reflect, 1.0 - x, x), y)
        return np.where(reflect, log(pi) - _log_abs_sin_pi(x, y) - far, far)
    n = np.maximum(np.ceil(_STIRLING_MIN_X - x), 0.0)
    xn = x + n
    inv = 1.0 / (xn + 1j * y)
    inv2 = inv * inv
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = series * inv2 + c
    stirling = ((xn - 0.5) * (0.5 * np.log(xn * xn + y * y)) - y * np.arctan2(y, xn) - xn
                + _HALF_LOG_2PI + np.real(series * inv))
    return stirling - 0.5 * log_rising_sq(x, y, n)


def _log_abs_sin_pi(x, y):
    """log |sin(pi (x + i y))| for y off 0.

    |sin|^2 = sin^2(pi x) + sinh^2(pi y), scaled by e^(-2 pi |y|) so that a
    large |y| does not overflow; x is first reduced to [-1/2, 1/2].
    """
    a = 2.0 * pi * np.abs(y)
    sin = np.sin(pi * (x - np.rint(x)))
    return 0.5 * a - log(2.0) + 0.5 * np.log(4.0 * sin * sin * np.exp(-a) + np.expm1(-a) ** 2)

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
hold, and every constructor takes a scalar or an array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, gammasgn

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
    def pole_order(self) -> np.ndarray:
        return np.maximum(self.order, 0)

    @property
    def zero_order(self) -> np.ndarray:
        return np.maximum(-self.order, 0)

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

    def reciprocal(self) -> "GammaValue":
        return GammaValue(-self.log_abs, self.sign, -self.order)

    def prod(self, axis: int) -> "GammaValue":
        """The product of the values along ``axis``."""
        return GammaValue(
            self.log_abs.sum(axis), self.sign.prod(axis), self.order.sum(axis)
        )

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
    arg = np.where(pole, 1.0 - m, x)
    log_abs = gammaln(arg)
    odd = (np.where(pole, m, 0.0).astype(np.int64) & 1).astype(bool)
    sign = np.where(odd, -1, gammasgn(arg).astype(np.int64))
    return GammaValue(np.where(pole, -log_abs, log_abs), sign, pole.astype(np.int64))


def pochhammer_value(a, m) -> GammaValue:
    """Rising factorial (a)_m = a (a+1) ... (a+m-1) at every entry, factor by factor.

    Each entry has its own length m: factor i counts only while i < m there.
    Factors within 1e-9 of zero are unit-rate zeros, so the result composes
    correctly with Gamma poles.
    """
    a, m = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(m))
    if np.any(m < 0):
        raise InvalidParams("Pochhammer length must be nonnegative")
    log_abs = np.zeros(a.shape)
    negative = np.zeros(a.shape, dtype=np.int64)
    zeros = np.zeros(a.shape, dtype=np.int64)
    for i in range(int(m.max(initial=0))):
        x = a + i
        live = i < m
        zero = live & (np.abs(x) <= _INT_TOL)
        factor = live & ~zero
        log_abs += np.log(np.abs(np.where(factor, x, 1.0)))
        negative += factor & (x < 0)
        zeros += zero
    return GammaValue(log_abs, 1 - 2 * (negative % 2), -zeros)

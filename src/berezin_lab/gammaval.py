"""Pole-aware Gamma arithmetic for coefficient formulas.

A ``GammaValue`` models the leading behavior c * eps^(zero - pole) of a
product of Gamma factors as a regularizing offset eps -> 0 is added to the
arguments.  Near a pole, Gamma(-m + eps) ~ (-1)^m / (m! eps); all factors
use this unit-rate convention in their own argument, which is enough to
cancel poles against zeros order by order and to read off finite limits
up to the direction of approach.

A ``GammaStack`` holds many such values as arrays, for coefficient
formulas evaluated over a stack of block labels at once.  Its single net
order (poles minus zeros) carries what a ``GammaValue`` keeps as two
reduced orders: orders only add under products, so the net is enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, log

import numpy as np
from scipy.special import gammaln, gammasgn

from .errors import InvalidParams, UncancelledPole

_INT_TOL = 1e-9


@dataclass(frozen=True)
class GammaValue:
    """Leading coefficient (sign, log magnitude) and net pole/zero orders."""

    log_abs: float
    sign: int
    pole_order: int = 0
    zero_order: int = 0

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise InvalidParams("sign must be +1 or -1")
        if self.pole_order < 0 or self.zero_order < 0:
            raise InvalidParams("orders must be nonnegative")
        if self.pole_order and self.zero_order:
            raise InvalidParams("orders must be reduced; use _make")

    @property
    def is_pole(self) -> bool:
        return self.pole_order > 0

    @property
    def is_zero(self) -> bool:
        return self.zero_order > 0

    def __mul__(self, other: "GammaValue") -> "GammaValue":
        return _make(
            self.log_abs + other.log_abs,
            self.sign * other.sign,
            self.pole_order + other.pole_order,
            self.zero_order + other.zero_order,
        )

    def __truediv__(self, other: "GammaValue") -> "GammaValue":
        return self * other.reciprocal()

    def reciprocal(self) -> "GammaValue":
        return _make(-self.log_abs, self.sign, self.zero_order, self.pole_order)

    def to_float(self) -> float:
        """Collapse to a float: poles raise, zeros are exactly 0."""
        if self.is_pole:
            raise UncancelledPole(f"net pole of order {self.pole_order}")
        if self.is_zero:
            return 0.0
        return self.sign * float(np.exp(self.log_abs))


def _make(log_abs: float, sign: int, pole: int, zero: int) -> GammaValue:
    net = pole - zero
    return GammaValue(log_abs, sign, max(net, 0), max(-net, 0))


def one() -> GammaValue:
    return GammaValue(0.0, 1)


def from_real(x: float) -> GammaValue:
    """Wrap a plain real number; an exact zero becomes a first-order zero."""
    if not isfinite(x):
        raise InvalidParams(f"cannot wrap non-finite value {x!r}")
    if x == 0.0:
        return GammaValue(0.0, 1, zero_order=1)
    return GammaValue(log(abs(x)), 1 if x > 0 else -1)


def nearest_nonpositive_int(x: float, tol: float = _INT_TOL):
    """The nonpositive integer within ``tol`` of x, or None."""
    m = round(x)
    if m <= 0 and abs(x - m) <= tol:
        return int(m)
    return None


def gamma_value(x: float, tol: float = _INT_TOL) -> GammaValue:
    """Gamma(x) as a GammaValue; at x = -m it is the unit-rate pole."""
    return gamma_stack(x, tol)[()]


def pochhammer_value(a: float, m: int, tol: float = _INT_TOL) -> GammaValue:
    """Rising factorial (a)_m = a (a+1) ... (a+m-1), factor by factor.

    Factors within ``tol`` of zero are counted as unit-rate zeros, so the
    result composes correctly with Gamma poles.
    """
    return pochhammer_stack(a, m, tol)[()]


def from_real_snapped(x: float, tol: float = _INT_TOL) -> GammaValue:
    """As ``from_real`` but values within ``tol`` of 0 count as zeros."""
    if abs(x) <= tol:
        return GammaValue(0.0, 1, zero_order=1)
    return from_real(x)


# ---------------------------------------------------------------------------
# Stacks of values
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GammaStack:
    """Arrays of leading coefficients (sign, log magnitude) and net orders.

    ``order`` is poles minus zeros: positive entries are poles, negative
    ones zeros.  Products broadcast like the arrays they hold.
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

    def __mul__(self, other: "GammaStack") -> "GammaStack":
        return GammaStack(
            self.log_abs + other.log_abs, self.sign * other.sign, self.order + other.order
        )

    def __truediv__(self, other: "GammaStack") -> "GammaStack":
        return GammaStack(
            self.log_abs - other.log_abs, self.sign * other.sign, self.order - other.order
        )

    def prod(self, axis: int) -> "GammaStack":
        """The product of the values along ``axis``."""
        return GammaStack(
            self.log_abs.sum(axis), self.sign.prod(axis), self.order.sum(axis)
        )

    def __getitem__(self, index) -> GammaValue:
        net = int(self.order[index])
        return GammaValue(
            float(self.log_abs[index]), int(self.sign[index]), max(net, 0), max(-net, 0)
        )


def gamma_stack(x, tol: float = _INT_TOL) -> GammaStack:
    """Gamma at every entry of x; entries within ``tol`` of -m are unit-rate poles."""
    x = np.asarray(x, dtype=float)
    m = np.rint(x)
    pole = (m <= 0) & (np.abs(x - m) <= tol)
    # Gamma(-n + eps) ~ (-1)^n / (n! eps), and n! = Gamma(1 - m) at m = -n
    arg = np.where(pole, 1.0 - m, x)
    log_abs = gammaln(arg)
    odd = (np.where(pole, m, 0.0).astype(np.int64) & 1).astype(bool)
    sign = np.where(odd, -1, gammasgn(arg).astype(np.int64))
    return GammaStack(np.where(pole, -log_abs, log_abs), sign, pole.astype(np.int64))


def pochhammer_stack(a, m, tol: float = _INT_TOL) -> GammaStack:
    """(a)_m at every entry, each with its own length m, factor by factor.

    Factor i of an entry counts only while i < m there; factors within
    ``tol`` of zero are unit-rate zeros, as in ``pochhammer_value``.
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
        zero = live & (np.abs(x) <= tol)
        factor = live & ~zero
        log_abs += np.log(np.abs(np.where(factor, x, 1.0)))
        negative += factor & (x < 0)
        zeros += zero
    return GammaStack(log_abs, 1 - 2 * (negative % 2), -zeros)

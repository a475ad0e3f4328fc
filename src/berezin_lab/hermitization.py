"""Catalog of symmetric pairs and their hermitizations.

Each row pairs a classical symmetric space G/K with the Hermitian
symmetric space G°/K° that hermitizes it; for G already Hermitian the
hermitization is the product G x G.  The checkable invariant is that the
real dimension of G/K equals the complex (holomorphic) dimension of
G°/K°, which pins every row down, including the rank-doubled orthogonal
quaternionic row where GL(n, H)/Sp(n) has real dimension n(2n - 1) and
only SO*(4n)/U(2n) matches it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from numbers import Integral
from typing import Callable

from .errors import InvalidParams

# Every parameter of a sweep runs over 1..SWEEP_MAX.
SWEEP_MAX = 8


@dataclass(frozen=True)
class SymmetricPair:
    """One catalog row with dimension formulas in the listed parameters."""

    index: int
    g_family: str
    g_circ_family: str
    params: tuple[str, ...]
    dim_real: Callable[..., int]  # real dimension of G/K
    dim_cplx: Callable[..., int]  # complex dimension of G°/K°

    @property
    def name(self) -> str:
        return f"{self.g_family} -> {self.g_circ_family}"


def catalog() -> list[SymmetricPair]:
    """The twelve symmetric pairs with their hermitizations."""
    return [
        SymmetricPair(1, "GL(n,R)", "Sp(2n,R)", ("n",),
                      lambda n: n * (n + 1) // 2, lambda n: n * (n + 1) // 2),
        SymmetricPair(2, "O(p,q)", "U(p,q)", ("p", "q"),
                      lambda p, q: p * q, lambda p, q: p * q),
        SymmetricPair(3, "Sp(2n,R)", "Sp(2n,R) x Sp(2n,R)", ("n",),
                      lambda n: n * (n + 1), lambda n: n * (n + 1)),
        SymmetricPair(4, "GL(n,C)", "U(n,n)", ("n",),
                      lambda n: n * n, lambda n: n * n),
        SymmetricPair(5, "SO(n,C)", "SO*(2n)", ("n",),
                      lambda n: n * (n - 1) // 2, lambda n: n * (n - 1) // 2),
        SymmetricPair(6, "Sp(2n,C)", "Sp(4n,R)", ("n",),
                      lambda n: n * (2 * n + 1), lambda n: 2 * n * (2 * n + 1) // 2),
        SymmetricPair(7, "U(p,q)", "U(p,q) x U(p,q)", ("p", "q"),
                      lambda p, q: 2 * p * q, lambda p, q: 2 * p * q),
        SymmetricPair(8, "GL(n,H)", "SO*(4n)", ("n",),
                      lambda n: n * (2 * n - 1), lambda n: 2 * n * (2 * n - 1) // 2),
        SymmetricPair(9, "Sp(p,q)", "U(2p,2q)", ("p", "q"),
                      lambda p, q: 4 * p * q, lambda p, q: 2 * p * 2 * q),
        SymmetricPair(10, "SO*(2n)", "SO*(2n) x SO*(2n)", ("n",),
                      lambda n: n * (n - 1), lambda n: n * (n - 1)),
        SymmetricPair(11, "SO(2,n)", "SO(2,n) x SO(2,n)", ("n",),
                      lambda n: 2 * n, lambda n: 2 * n),
        SymmetricPair(12, "SO(1,p) x SO(1,q)", "SO(2,p+q)", ("p", "q"),
                      lambda p, q: p + q, lambda p, q: p + q),
    ]


def dims_match(pair: SymmetricPair, params: dict[str, int]) -> bool:
    """Whether the two dimension formulas agree at the given parameters."""
    for name in pair.params:
        if name not in params:
            raise InvalidParams(f"row {pair.index} needs parameter {name!r}")
        value = params[name]
        if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
            raise InvalidParams(f"parameter {name!r} must be a positive integer")
    args = {name: params[name] for name in pair.params}
    return pair.dim_real(**args) == pair.dim_cplx(**args)


def sweep_ok(pair: SymmetricPair) -> bool:
    """Whether the dimensions agree at every parameter tuple in 1..SWEEP_MAX.

    The whole grid is checked with no early exit, so a sweep always makes
    SWEEP_MAX ** len(pair.params) calls of ``dims_match``.
    """
    grid = product(range(1, SWEEP_MAX + 1), repeat=len(pair.params))
    return all([dims_match(pair, dict(zip(pair.params, values))) for values in grid])


def corrupted_pair() -> SymmetricPair:
    """Negative-control fixture: row 8 with the undersized hermitization.

    Pairs GL(n,H) with SO*(2n); the dimensions n(2n - 1) and n(n - 1)/2
    differ for every n >= 1, so any sweep must flag it.
    """
    row = catalog()[7]
    return replace(
        row,
        g_circ_family="SO*(2n) [corrupted]",
        dim_cplx=lambda n: n * (n - 1) // 2,
    )

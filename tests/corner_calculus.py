"""The corner reduction calculus, as plain reference code for the identity tests.

A group element g of size n, split into blocks (P Q; R T) with P the
leading m x m corner, reduces to Upsilon_m(g) = T - R (1 + P)^(-1) Q, an
element of size n - m; Upsilon sends Haar measure to Haar measure.  A
quaternionic element is stored in its 2n x 2n complex realization, so m
units are 2m stored rows.  Nothing here validates its input or guards the
singular set det(1 + P) = 0, which Haar samples avoid almost surely.
"""

import numpy as np

from berezin_lab.compact import QUATERNION, REAL, _haar_so_batch, corner_pivots


def stored_rows(units, field):
    """Rows of a stored element of ``units`` units: 2 per unit for quaternions, else 1."""
    return 2 * units if field == QUATERNION else units


def _det_one_plus_corner(g, units, field):
    k = stored_rows(units, field)
    return np.linalg.det(np.eye(k) + g[:k, :k])


def upsilon(g, m, field=REAL):
    """Corner reduction by m units: (P Q; R T) |-> T - R (1 + P)^(-1) Q."""
    k = stored_rows(m, field)
    return g[k:, k:] - g[k:, :k] @ np.linalg.solve(np.eye(k) + g[:k, :k], g[:k, k:])


def cayley(g):
    """Cayley transform (g - 1)(g + 1)^(-1), solved as X (g + 1) = g - 1."""
    one = np.eye(len(g))
    return np.linalg.solve((g + one).T, (g - one).T).T


def equivariance_residual(g, a, b, m, field=REAL):
    """Residual of Upsilon_m(diag(1, A) g diag(1, B)) = A Upsilon_m(g) B, A and B of size n - m."""
    k = stored_rows(m, field)
    left, right = np.eye(len(g), dtype=g.dtype), np.eye(len(g), dtype=g.dtype)
    left[k:, k:], right[k:, k:] = a, b
    lhs = upsilon(left @ g @ right, m, field)
    return float(np.max(np.abs(lhs - a @ upsilon(g, m, field) @ b)))


def corner_det_multiplicativity_residual(g, m, p, field=REAL):
    """Relative residual of det(1+[g]_p) = det(1+[g]_m) det(1+[Upsilon_m(g)]_(p-m))."""
    full = _det_one_plus_corner(g, p, field)
    rest = _det_one_plus_corner(upsilon(g, m, field), p - m, field)
    return float(abs(full - _det_one_plus_corner(g, m, field) * rest) / max(abs(full), 1e-30))


def cayley_corner_residual(g, p, field=REAL):
    """Residual of {cayley(g)}_p = cayley(Upsilon_(n-p)(g)), braces the lower-right p units.

    Cayley entries grow like the reciprocal distance to the singular set,
    so the residual is relative to the corner's largest entry, if above 1.
    """
    k = len(g) - stored_rows(p, field)
    lhs = cayley(g)[k:, k:]
    rhs = cayley(upsilon(g, len(g) // stored_rows(1, field) - p, field))
    return float(np.max(np.abs(lhs - rhs))) / max(1.0, float(np.max(np.abs(lhs))))


def cube_coords(n, size, rng):
    """Cube coordinates of ``size`` Haar SO(n) samples, shape (size, n - 1).

    x_j is the (1, 1) entry after n - 1 - j reduction steps, so the
    coordinates are the corner pivots minus 1, last pivot first; under
    Haar measure they are independent with density c (1 - x^2)^((j-2)/2).
    Only the n - 1 columns the pivots read are drawn.
    """
    gen = np.random.default_rng(rng)
    return corner_pivots(_haar_so_batch(n, size, gen, cols=n - 1), n - 1)[::-1].T - 1.0

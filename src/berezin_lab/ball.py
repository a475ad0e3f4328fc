"""The matrix ball and the Moebius action of O(p, q) on it.

Points are real p x q matrices of spectral norm below one (p <= q).  The
group O(p, q) acts by z |-> (a + z c)^(-1) (b + z d), where g = (a b; c d)
is block-decomposed with g^t J g = J and J = diag(1_p, -1_q); the scalar
cocycle of the action is det(a + z c).

A point is a (p, q) array and a stack of points the same array with
leading axes, (..., p, q).  An element is its (p+q, p+q) matrix and a stack
of elements a (..., p+q, p+q) array; composition is ``g @ h`` and the
identity ``np.eye(p + q)``.  The action and the cocycle read p and q off
the point and take the blocks a, b, c, d as views of g.  The action, the
cocycle, ``boost`` and ``ball_scale`` take stacks.
"""

from __future__ import annotations

import numpy as np

from .compact import _haar_orthogonal_batch, eliminate
from .errors import InvalidParams, NearSingularCocycle
from .rngs import as_generator

_COND_BOUND = 1e12
# Largest |rapidity| of a random pseudo-orthogonal element's boost.
_BOOST_RANGE = 2.0


def _spectral_norm(z: np.ndarray) -> np.ndarray:
    """Largest singular value of each (p, q) point, p >= 1, as sqrt of z z^t's top eigenvalue.

    For p <= 2 the eigenvalue is closed-form: with z z^t = [[a, b], [b, c]]
    formed from the rows of z it is (a + c)/2 + hypot((a - c)/2, b), a sum
    of two nonnegative terms, and for p = 1 (b = c = 0) it is a.  For
    p >= 3 LAPACK's symmetric eigenvalues of the (p, p) Gram stack give
    it; that stack is no larger than the point because p <= q.
    """
    if z.shape[-2] > 2:
        return np.sqrt(np.linalg.eigvalsh(z @ np.swapaxes(z, -1, -2))[..., -1])
    rows = np.einsum("...ij,...ij->...i", z, z)
    if z.shape[-2] == 1:
        return np.sqrt(rows[..., 0])
    a, c = rows[..., 0], rows[..., 1]
    b = np.einsum("...j,...j->...", z[..., 0, :], z[..., 1, :])
    return np.sqrt((a + c) / 2 + np.hypot((a - c) / 2, b))


def random_ball_point(
    p: int,
    q: int,
    rng: int | np.random.Generator | None = None,
    norm_min: float = 0.0,
    norm_max: float = 0.95,
    size: int | tuple[int, ...] | None = None,
) -> np.ndarray:
    """Gaussian direction rescaled to a uniform spectral norm in [min, max).

    One (p, q) point, or with ``size`` (an int or a shape) a stack of shape
    size + (p, q).  All Gaussians are drawn before all norms, so a single
    point consumes the generator as a stack of one does.  Each direction's
    norm comes from ``_spectral_norm``: closed-form for p <= 2, LAPACK's
    ``eigvalsh`` for p >= 3.
    """
    if not 0.0 <= norm_min <= norm_max < 1.0:
        raise InvalidParams("need 0 <= norm_min <= norm_max < 1")
    if not 1 <= p <= q:
        raise InvalidParams(f"need 1 <= p <= q, got shape ({p}, {q})")
    shape = (1,) if size is None else tuple(np.atleast_1d(size))
    if min(shape, default=0) < 0:
        raise InvalidParams(f"need a size of nonnegative extents, got {size}")
    gen = as_generator(rng)
    z = gen.standard_normal((*shape, p, q))
    target = gen.uniform(norm_min, norm_max, size=shape)
    pts = z * (target / _spectral_norm(z))[..., None, None]
    # the scale comes from a rounded eigenvalue, so the ball constraint is
    # checked again on every scaled point, by another route: every pivot of
    # 1 - z z^t is positive (1 - z z^t positive definite); the norm is
    # computed only to name the failure
    if not np.all(one_minus_pivots(pts, pts) > 0):
        raise InvalidParams(f"spectral norm {np.max(_spectral_norm(pts)):.6f} violates the "
                            "ball constraint")
    return pts[0] if size is None else pts


def one_minus_pivots(z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Pivots of 1 - z u^t for points or stacks (..., p, q), shape (p, ...).

    1 - z u^t is one negating copy of z u^t with the sample axes moved
    last, reduced by ``compact.eliminate``, which also says why no
    pivoting is needed inside the ball.  The product of the pivots is
    det(1 - z u^t).
    """
    work = np.negative(np.moveaxis(z @ np.swapaxes(u, -1, -2), (-2, -1), (0, 1)), order="C")
    for a in range(len(work)):
        work[a, a] += 1.0
    return eliminate(work)


def ball_scale(z: np.ndarray, c: float | np.ndarray) -> np.ndarray:
    """c z; a stack of points takes one shrink factor each from a stack of factors."""
    return np.asarray(c, dtype=float)[..., None, None] * np.asarray(z, dtype=float)


def _action_base(g: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a + z c; refuses an element whose last two axes are not (p+q, p+q) for (p, q) points."""
    d = sum(z.shape[-2:])
    if z.ndim < 2 or np.shape(g)[-2:] != (d, d):
        raise InvalidParams(f"an element of shape {np.shape(g)} cannot act on points of "
                            f"shape {z.shape}")
    p = z.shape[-2]
    m = g[..., :p, :p] + z @ g[..., p:, :p]
    if np.any(np.linalg.cond(m) > _COND_BOUND):
        raise NearSingularCocycle("a + z c is too ill conditioned")
    return m


def moebius_act(g: np.ndarray, z: np.ndarray) -> np.ndarray:
    """z |-> (a + z c)^(-1) (b + z d); preserves the ball and its closure.

    A (..., p, q) stack maps to a stack, each point moved by its own
    element when g is a stack too.
    """
    z = np.asarray(z, dtype=float)
    m = _action_base(g, z)
    p = z.shape[-2]
    return np.linalg.solve(m, g[..., :p, p:] + z @ g[..., p:, p:])


def cocycle(g: np.ndarray, z: np.ndarray) -> float | np.ndarray:
    """det(a + z c), the multiplier attached to the Moebius action at z (one per stacked point)."""
    return np.linalg.det(_action_base(g, np.asarray(z, dtype=float)))


def boost(p: int, q: int, t: np.ndarray) -> np.ndarray:
    """The diagonal boost B(t): cosh/sinh in p planes, identity elsewhere.

    Rapidities of shape (..., p) give a stack of boosts.
    """
    if p > q:
        raise InvalidParams(f"need p <= q, got ({p}, {q})")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape[-1:] != (p,):
        raise InvalidParams(f"boost needs {p} rapidities, got shape {t.shape}")
    a, b = np.arange(p), p + np.arange(p)
    g = np.broadcast_to(np.eye(p + q), t.shape[:-1] + (p + q, p + q)).copy()
    g[..., a, a] = g[..., b, b] = np.cosh(t)
    g[..., a, b] = g[..., b, a] = np.sinh(t)
    return g


def random_pseudo_orthogonal(
    p: int,
    q: int,
    rng: int | np.random.Generator | None = None,
    size: int | None = None,
) -> np.ndarray:
    """KAK sample: k1 B(t) k2 with k_i in O(p) x O(q), |t_j| <= 2.

    One (p+q, p+q) element, or with ``size`` a stack of that many.  All
    rapidities are drawn first, then the O(p) and O(q) frames of k1 and of
    k2 as four batches, so a single sample consumes the generator as a
    stack of one does.
    """
    gen = as_generator(rng)
    n = 1 if size is None else size
    t = gen.uniform(-_BOOST_RANGE, _BOOST_RANGE, size=(n, p))
    frames = np.zeros((2, n, p + q, p + q))
    for frame in frames:
        frame[:, :p, :p] = _haar_orthogonal_batch(p, n, gen)
        frame[:, p:, p:] = _haar_orthogonal_batch(q, n, gen)
    mat = frames[0] @ (boost(p, q, t) @ frames[1])
    return mat[0] if size is None else mat

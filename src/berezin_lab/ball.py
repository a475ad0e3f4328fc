"""The matrix ball, its Moebius action and pseudo-orthogonal transport.

Points are real p x q matrices of spectral norm below one (p <= q).  The
group O(p, q), block-decomposed as g = (a b; c d) with g^t J g = J and
J = diag(1_p, -1_q), acts by z |-> (a + z c)^(-1) (b + z d); the scalar
cocycle of the action is det(a + z c).

A point is a (p, q) array and a stack of points the same array with
leading axes, (..., p, q).  The action, the cocycle and ``ball_scale``
take either; ``orbit_rank`` and ``transport_to_origin`` take one point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compact import _haar_orthogonal_batch
from .errors import InvalidParams, NearSingularCocycle
from .rngs import as_generator

_COND_BOUND = 1e12


def ball_point(entries: np.ndarray, closure: bool = False, tol: float = 1e-9) -> np.ndarray:
    """``entries`` as a checked (p, q) point: spectral norm < 1, or <= 1 + tol with ``closure``."""
    entries = np.asarray(entries, dtype=float)
    if entries.ndim != 2:
        raise InvalidParams("a ball point is a 2-d real matrix")
    p, q = entries.shape
    if p > q:
        raise InvalidParams(f"need p <= q, got shape ({p}, {q})")
    norm = float(np.linalg.norm(entries, 2)) if entries.size else 0.0
    limit_ok = norm <= 1.0 + tol if closure else norm < 1.0
    if not limit_ok:
        raise InvalidParams(f"spectral norm {norm:.6f} violates the ball constraint")
    return entries


def origin(p: int, q: int) -> np.ndarray:
    return ball_point(np.zeros((p, q)))


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
    point consumes the generator as a stack of one does.
    """
    if not 0.0 <= norm_min <= norm_max < 1.0:
        raise InvalidParams("need 0 <= norm_min <= norm_max < 1")
    if p > q:
        raise InvalidParams(f"need p <= q, got shape ({p}, {q})")
    gen = as_generator(rng)
    shape = (1,) if size is None else tuple(np.atleast_1d(size))
    z = gen.standard_normal((*shape, p, q))
    cur = np.linalg.norm(z, 2, axis=(-2, -1))
    target = gen.uniform(norm_min, norm_max, size=shape)
    pts = z * (target / cur)[..., None, None]
    # the ball constraint, checked on every point through the eigenvalues
    # of z z^t rather than the SVD that set the scale
    norms = np.sqrt(np.linalg.eigvalsh(pts @ np.swapaxes(pts, -1, -2))[..., -1])
    if not np.all(norms < 1.0):
        raise InvalidParams(f"spectral norm {np.max(norms):.6f} violates the ball constraint")
    return pts[0] if size is None else pts


def ball_scale(z: np.ndarray, c: float | np.ndarray) -> np.ndarray:
    """c z; a stack of points takes one shrink factor each from a stack of factors."""
    return np.asarray(c, dtype=float)[..., None, None] * np.asarray(z, dtype=float)


@dataclass
class PseudoOrthogonalElement:
    """An O(p, q) element in block form g = (a b; c d).

    The blocks may carry leading stack axes, (size, p, p) and so on, for a
    stack of elements acting elementwise on a stack of points.
    """

    p: int
    q: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        top = np.concatenate([self.a, self.b], axis=-1)
        bot = np.concatenate([self.c, self.d], axis=-1)
        return np.concatenate([top, bot], axis=-2)

    @classmethod
    def from_matrix(cls, p: int, q: int, mat: np.ndarray) -> "PseudoOrthogonalElement":
        mat = np.asarray(mat, dtype=float)
        if mat.ndim < 2 or mat.shape[-2:] != (p + q, p + q):
            raise InvalidParams(f"expected a {(p + q)} x {(p + q)} matrix")
        return cls(
            p,
            q,
            mat[..., :p, :p].copy(),
            mat[..., :p, p:].copy(),
            mat[..., p:, :p].copy(),
            mat[..., p:, p:].copy(),
        )

    @classmethod
    def identity(cls, p: int, q: int) -> "PseudoOrthogonalElement":
        return cls.from_matrix(p, q, np.eye(p + q))


def signature_matrix(p: int, q: int) -> np.ndarray:
    return np.diag(np.concatenate([np.ones(p), -np.ones(q)]))


def validate_pseudo_orthogonal(g: PseudoOrthogonalElement, tol: float = 1e-9) -> float:
    """Frobenius residual of g^t J g = J; raises when it exceeds ``tol``."""
    j = signature_matrix(g.p, g.q)
    mat = g.matrix
    res = float(np.linalg.norm(mat.T @ j @ mat - j)) / np.sqrt(g.p + g.q)
    if res > tol:
        raise InvalidParams(f"g^t J g - J residual {res:.3e} exceeds tolerance {tol:.1e}")
    return res


def _action_base(g: PseudoOrthogonalElement, z: np.ndarray) -> np.ndarray:
    if z.shape[-2:] != (g.p, g.q):
        raise InvalidParams(f"point shape {z.shape[-2:]} does not match group ({g.p}, {g.q})")
    m = g.a + z @ g.c
    if np.any(np.linalg.cond(m) > _COND_BOUND):
        raise NearSingularCocycle("a + z c is too ill conditioned")
    return m


def moebius_act(g: PseudoOrthogonalElement, z: np.ndarray) -> np.ndarray:
    """z |-> (a + z c)^(-1) (b + z d); preserves the ball and its closure.

    A (..., p, q) stack maps to a stack, each point moved by its own
    element when g is a stack too.
    """
    z = np.asarray(z, dtype=float)
    return np.linalg.solve(_action_base(g, z), g.b + z @ g.d)


def cocycle(g: PseudoOrthogonalElement, z: np.ndarray) -> float | np.ndarray:
    """det(a + z c), the multiplier attached to the Moebius action at z (one per stacked point)."""
    return np.linalg.det(_action_base(g, np.asarray(z, dtype=float)))


def orbit_rank(z: np.ndarray, tol: float = 1e-9) -> int:
    """Numerical rank h of 1 - z z^t; h = p in the interior, h < p on boundary orbits."""
    z = np.asarray(z, dtype=float)
    s = np.linalg.svd(np.eye(z.shape[0]) - z @ z.T, compute_uv=False)
    floor = tol * max(float(s[0]) if s.size else 0.0, 1.0)
    return int(np.sum(s > floor))


def boost(p: int, q: int, t: np.ndarray) -> PseudoOrthogonalElement:
    """The diagonal boost B(t): cosh/sinh in p planes, identity elsewhere.

    Rapidities of shape (..., p) give a stack of boosts.
    """
    if p > q:
        raise InvalidParams(f"need p <= q, got ({p}, {q})")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape[-1:] != (p,):
        raise InvalidParams(f"boost needs {p} rapidities, got shape {t.shape}")
    stack = t.shape[:-1]
    diag = np.arange(p)
    a = np.zeros(stack + (p, p))
    a[..., diag, diag] = np.cosh(t)
    b = np.zeros(stack + (p, q))
    b[..., diag, diag] = np.sinh(t)
    c = np.zeros(stack + (q, p))
    c[..., diag, diag] = np.sinh(t)
    d = np.broadcast_to(np.eye(q), stack + (q, q)).copy()
    d[..., diag, diag] = np.cosh(t)
    return PseudoOrthogonalElement(p, q, a, b, c, d)


def compose(g: PseudoOrthogonalElement, h: PseudoOrthogonalElement) -> PseudoOrthogonalElement:
    if (g.p, g.q) != (h.p, h.q):
        raise InvalidParams("cannot compose elements of different signatures")
    return PseudoOrthogonalElement.from_matrix(g.p, g.q, g.matrix @ h.matrix)


def transport_to_origin(z: np.ndarray) -> PseudoOrthogonalElement:
    """An element g with z^[g] = 0, built from the SVD of z.

    With z = U diag(sigma) V^t, the product diag(U, V) B(-atanh sigma)
    moves z to the origin; its cocycle at z is prod(1 / cosh(atanh sigma)).
    """
    p, q = np.shape(z)
    u, sig, vt = np.linalg.svd(z)
    if sig.size and sig[0] >= 1.0:
        raise InvalidParams("transport needs an interior point")
    if np.linalg.det(u) < 0:
        # flip one singular pair jointly: z is unchanged and the cocycle
        # at z comes out positive, as advertised
        u[:, -1] *= -1.0
        vt[p - 1, :] *= -1.0
    frame = np.zeros((p + q, p + q))
    frame[:p, :p] = u
    frame[p:, p:] = vt.T
    k = PseudoOrthogonalElement.from_matrix(p, q, frame)
    return compose(k, boost(p, q, -np.arctanh(sig)))


def random_pseudo_orthogonal(
    p: int,
    q: int,
    rng: int | np.random.Generator | None = None,
    boost_range: float = 2.0,
    size: int | None = None,
) -> PseudoOrthogonalElement:
    """KAK sample: k1 B(t) k2 with k_i in O(p) x O(q), |t_j| <= boost_range.

    With ``size`` the element holds a stack of that many samples.  All
    rapidities are drawn first, then the O(p) and O(q) frames of k1 and of
    k2 as four batches, so a single sample consumes the generator as a
    stack of one does.
    """
    gen = as_generator(rng)
    n = 1 if size is None else size
    t = gen.uniform(-boost_range, boost_range, size=(n, p))
    frames = np.zeros((2, n, p + q, p + q))
    for frame in frames:
        frame[:, :p, :p] = _haar_orthogonal_batch(p, n, gen)
        frame[:, p:, p:] = _haar_orthogonal_batch(q, n, gen)
    mat = frames[0] @ (boost(p, q, t).matrix @ frames[1])
    return PseudoOrthogonalElement.from_matrix(p, q, mat[0] if size is None else mat)

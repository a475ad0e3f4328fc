"""Haar sampling on SO(n), U(n), Sp(n) and the corner reduction calculus.

Quaternionic matrices are stored in the interleaved 2n x 2n complex
realization: the quaternion a + b i + c j + d k occupies a 2 x 2 block

    [[a + b i,  c + d i],
     [-c + d i, a - b i]]

so a matrix M is quaternionic iff M Jhat = Jhat conj(M) with
Jhat = diag([[0, -1], [1, 0]], ...).  Even-indexed columns determine the
odd-indexed ones through the antilinear map S(u) = Jhat conj(u).

A group element is its stored matrix, (n, n) for the real and complex
fields and (2n, 2n) complex for the quaternion field, and a stack of them
is a (size, d, d) array.  The corner calculus takes the field as an
argument, REAL by default, and reads n off the matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams, NegativeRealDeterminant, SingularCayley, SingularUpsilon
from .rngs import as_generator

REAL = "real"
COMPLEX = "complex"
QUATERNION = "quaternion"
FIELDS = (REAL, COMPLEX, QUATERNION)

_SINGULAR_TOL = 1e-12


def matrix_dim(field: str, n: int) -> int:
    """Side length of the stored matrix: n, except 2n for quaternions."""
    return _unit(field) * n


# ---------------------------------------------------------------------------
# Haar samplers
# ---------------------------------------------------------------------------


def _gram_schmidt(gauss: np.ndarray, step: int = 1) -> np.ndarray:
    """Batched Gram-Schmidt with positive norms: the Q of G = Q R, R_jj > 0.

    Positive norms make the factorization unique, so Q is exactly Haar on
    the unitary group of a Gaussian's field (Mezzadri, math-ph/0609050).
    ``gauss`` holds the columns of G sample-axis-last, shape (columns, d,
    size) with gauss[j] column j, so every elementwise step sweeps the
    contiguous samples of a block.  Exactly the columns given are
    orthonormalised, in place: column j of Q depends on the first j
    columns of G only, so a leading slice of ``gauss`` gives the first
    columns of the full factor, bit for bit.  With ``step`` 2 the m drawn
    columns (m, 2m, size) fill the even slots of a fresh (2m, 2m, size)
    array and each is followed by its S-partner: S(u) is orthogonal to u
    and the span of finished pairs is S-invariant, so the result is the
    QR factor of the S-paired Gaussian and lies in Sp(m).

    Each column is projected off the finished columns one at a time
    (modified Gram-Schmidt), in two passes.  The result is returned as a
    (size, d, columns) view of Q, with no copy.
    """
    m = len(gauss)
    q = gauss if step == 1 else np.empty((2 * m, *gauss.shape[1:]), dtype=gauss.dtype)
    for i, col in enumerate(gauss):
        j = step * i
        for _ in range(2 if j else 0):  # the second pass removes cancellation error
            for u in q[:j]:
                col -= (u.conj() * col).sum(axis=0) * u
        col /= np.linalg.norm(col, axis=0)
        if step == 2:
            q[j] = col
            _structure_map(col, q[j + 1])
    return q.transpose(2, 1, 0)


def _complex_normal(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Complex Gaussians x + iy: one real draw with the (x, y) pairs last, viewed as complex."""
    return gen.standard_normal((*shape, 2)).view(complex).reshape(shape)


def _haar_orthogonal_batch(n: int, size: int, gen: np.random.Generator) -> np.ndarray:
    """Haar O(n), both determinant components."""
    return _gram_schmidt(gen.standard_normal((n, n, size)))


def _haar_so_batch(
    n: int, size: int, gen: np.random.Generator, cols: int | None = None
) -> np.ndarray:
    """Haar SO(n): Haar O(n) with the last column flipped on det = -1.

    With ``cols`` < n only the first ``cols`` Gaussian columns are drawn
    and orthonormalised, shape (size, n, cols), and the flip, which
    changes column n alone, is skipped.  The draw is column-major, so
    those are the leading columns of the full sample's draw and the
    result is the full sample's first columns, bit for bit; only the
    stream position afterwards differs, by (n - cols) n size normals.
    """
    if cols is not None and cols < n:
        return _gram_schmidt(gen.standard_normal((cols, n, size)))
    q = _haar_orthogonal_batch(n, size, gen)
    q[np.linalg.det(q) < 0, :, -1] *= -1.0
    return q


def _haar_u_batch(
    n: int, size: int, gen: np.random.Generator, cols: int | None = None
) -> np.ndarray:
    """Haar U(n), or with ``cols`` < n its first ``cols`` columns, shape (size, n, cols).

    As for SO(n), the draw is column-major and column j reads the first j
    Gaussian columns only, so a cut is the full sample's leading columns,
    bit for bit, and leaves (n - cols) n size complex normals undrawn.
    """
    return _gram_schmidt(_complex_normal(gen, (n if cols is None else min(n, cols), n, size)))


def _haar_sp_batch(
    n: int, size: int, gen: np.random.Generator, cols: int | None = None
) -> np.ndarray:
    """Haar Sp(n) in the complex realization: n drawn columns, each with its S-partner.

    ``cols`` counts stored columns: ceil(cols / 2) columns are drawn, each
    followed by its partner, shape (size, 2n, 2 ceil(cols / 2)).  They are
    the full sample's leading columns, bit for bit, since a drawn column
    is projected off the finished pairs only.
    """
    m = n if cols is None else min(n, -(-cols // 2))
    return _gram_schmidt(_complex_normal(gen, (m, 2 * n, size)), step=2)


def _structure_map(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """S(u) = Jhat conj(u) along the first axis, into ``out``; S pairs quaternionic columns.

    Writing in place makes no temporaries, which on a block of samples is
    several times faster than assigning the negated conjugate.
    """
    np.negative(np.conj(u[1::2], out=out[0::2]), out=out[0::2])
    np.conj(u[0::2], out=out[1::2])
    return out


def block_j(n: int) -> np.ndarray:
    """The antisymmetric structure matrix Jhat = diag([[0,-1],[1,0]], ...)."""
    j2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    out = np.zeros((2 * n, 2 * n))
    for i in range(n):
        out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = j2
    return out


def quaternionic_structure_residual(mat: np.ndarray) -> float:
    """How far a 2n x 2n complex matrix is from M Jhat = Jhat conj(M)."""
    n2 = mat.shape[0]
    jh = block_j(n2 // 2)
    return float(np.max(np.abs(mat @ jh - jh @ np.conj(mat))))


_BATCH_SAMPLERS = {REAL: _haar_so_batch, COMPLEX: _haar_u_batch, QUATERNION: _haar_sp_batch}


def haar_sample_batch(
    field: str, n: int, size: int, rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """Stack of ``size`` Haar samples, shape (size, d, d) with d = matrix_dim.

    Every column is drawn: the column cut ``cols`` of the per-field
    samplers is for callers that read a leading corner only.  The stack
    is a view of a sample-axis-last array, so its samples are not
    contiguous in memory.
    """
    if field not in FIELDS:
        raise InvalidParams(f"unknown field {field!r}; expected one of {FIELDS}")
    if n < 1 or size < 0:
        raise InvalidParams("need n >= 1 and size >= 0")
    return _BATCH_SAMPLERS[field](n, size, as_generator(rng))


def haar_sample_uncorrected(
    field: str, n: int, rng: int | np.random.Generator | None = None, size: int = 1
) -> np.ndarray:
    """Raw-QR sampler WITHOUT the diagonal correction.  Not Haar.

    Kept as the negative control: LAPACK's sign convention skews the
    distribution (for the real field the top-left entry never changes sign),
    which a one-sample KS test against the true marginal detects instantly.
    """
    gen = as_generator(rng)
    if field == REAL:
        q, _ = np.linalg.qr(gen.standard_normal((size, n, n)))
        dets = np.linalg.det(q)
        q[dets < 0, :, -1] *= -1.0
        return q
    if field == COMPLEX:
        q, _ = np.linalg.qr(gen.standard_normal((size, n, n)) + 1j * gen.standard_normal((size, n, n)))
        return q
    raise InvalidParams("uncorrected sampler exists for the real and complex fields only")


# ---------------------------------------------------------------------------
# Corner reduction calculus
# ---------------------------------------------------------------------------


def _unit(field: str) -> int:
    """Stored rows per group unit of size: 2 for quaternions else 1."""
    if field not in FIELDS:
        raise InvalidParams(f"unknown field {field!r}; expected one of {FIELDS}")
    return 2 if field == QUATERNION else 1


def _size(g: np.ndarray, field: str) -> int:
    """The group size n of a stored element: a square matrix of n whole units of ``field``."""
    unit, shape = _unit(field), np.shape(g)
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] % unit:
        raise InvalidParams(f"a {field} group element is a square matrix of {unit} x {unit} "
                            f"units, got shape {shape}")
    return shape[0] // unit


def corner(g: np.ndarray, k: int, field: str = REAL) -> np.ndarray:
    """Leading principal k x k corner [g]_k (2k x 2k for quaternions)."""
    g = np.asarray(g)
    n = _size(g, field)
    if not 1 <= k <= n:
        raise InvalidParams(f"corner index must satisfy 1 <= k <= {n}, got {k}")
    s = _unit(field) * k
    return g[:s, :s]


def _upsilon_matrix(mat: np.ndarray, m_rows: int) -> np.ndarray:
    """T - R (1 + P)^(-1) Q for the (m_rows + rest) block split of ``mat``."""
    p_blk = mat[:m_rows, :m_rows]
    q_blk = mat[:m_rows, m_rows:]
    r_blk = mat[m_rows:, :m_rows]
    t_blk = mat[m_rows:, m_rows:]
    lhs = np.eye(m_rows, dtype=mat.dtype) + p_blk
    sign, logdet = np.linalg.slogdet(lhs)
    if sign == 0 or logdet < np.log(_SINGULAR_TOL):
        raise SingularUpsilon(
            f"det(1 + corner) ~ {np.exp(logdet) if sign != 0 else 0.0:.3e} is below threshold"
        )
    return t_blk - r_blk @ np.linalg.solve(lhs, q_blk)


def upsilon(g: np.ndarray, m: int, field: str = REAL) -> np.ndarray:
    """Corner reduction by m units: blocks (P Q; R T) |-> T - R (1+P)^(-1) Q.

    Maps the group of size n onto the group of size n - m and sends Haar
    measure to Haar measure.  Composes additively: upsilon(k) o upsilon(m)
    equals upsilon(k + m).
    """
    g = np.asarray(g)
    n = _size(g, field)
    if not 1 <= m < n:
        raise InvalidParams(f"reduction step must satisfy 1 <= m < {n}, got {m}")
    return _upsilon_matrix(g, _unit(field) * m)


def cayley(g: np.ndarray) -> np.ndarray:
    """Cayley transform (g - 1)(g + 1)^(-1); defined when det(g + 1) != 0."""
    mat = np.asarray(g)
    d = _size(mat, REAL)
    lhs = mat + np.eye(d, dtype=mat.dtype)
    sign, logdet = np.linalg.slogdet(lhs)
    if sign == 0 or logdet < np.log(_SINGULAR_TOL):
        raise SingularCayley("det(g + 1) is below threshold")
    # solve X (g+1) = (g-1) through the plain-transposed system
    rhs = mat - np.eye(d, dtype=mat.dtype)
    return np.linalg.solve(lhs.T, rhs.T).T


def eliminate(work: np.ndarray) -> np.ndarray:
    """Pivots of unpivoted elimination on a (k, k, ...) stack, shape (k, ...).

    The sample axes come last, so each step sweeps every sample's entry
    at once.  ``work`` is reduced in place (row j ends divided by pivot j)
    and the pivots are returned as a view of its diagonal: step j leaves
    entry (j, j) and every earlier row alone.  Pivot j is det(M_j) /
    det(M_(j-1)) for the leading j x j blocks M_j, so the product of the
    pivots is det(M).  A zero pivot leaves the later pivots of its sample
    meaningless.

    Unpivoted elimination is safe on both of the library's domains:

    * 1 + [g]_k for a unitary g (``corner_pivots``): pivot j is 1 plus a
      unitary matrix entry, so it lies in the disc |p - 1| <= 1 and the
      reduced entries cannot grow.
    * 1 - A with A = z u^t and ||A|| = rho < 1 (the Berezin kernel and the
      ball check): pivot j is 1 / ((1 - A_j)^(-1))_jj, so |pivot| >= 1 - rho
      and growth is bounded by 1 / (1 - rho).  Every pivot is then
      positive, and a pivot <= 0 means the input left the domain.
    """
    for j in range(len(work) - 1):
        row, pivot = work[j, j + 1 :], work[j, j]
        np.divide(row, pivot, out=row, where=pivot != 0)  # a zero pivot divides by 1
        work[j + 1 :, j + 1 :] -= work[j + 1 :, j : j + 1] * work[j : j + 1, j + 1 :]
    return np.einsum("ii...->i...", work)


def corner_pivots(mats: np.ndarray, k: int) -> np.ndarray:
    """Pivots of unpivoted elimination on 1 + [g]_k for a stack g, shape (k, size).

    ``k`` counts stored rows (two per quaternionic unit).  The j-th pivot
    is det(1+[g]_j) / det(1+[g]_{j-1}), which is 1 plus the (1, 1) entry of
    g reduced j - 1 times by one row.  ``eliminate`` runs on a (k, k, size)
    copy, and every entry sees the same operations in the same order as in
    a per-sample elimination, so the pivots are bit for bit the same.  It
    draws nothing: the Gaussian draws behind a seeded estimate are the
    sampler's, and the estimate differs from a per-sample computation only
    where Q does, at rounding level.  The result keeps the sample axis
    last: it is ``eliminate``'s view of that copy's diagonal, whose row j
    holds pivot j of every sample contiguously.
    """
    work = np.add(mats[:, :k, :k].transpose(1, 2, 0), np.eye(k)[:, :, None], order="C")
    return eliminate(work)


def cube_coords_batch(
    n: int, size: int, rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """Cube coordinates of ``size`` fresh Haar SO(n) samples, shape (size, n-1).

    x_j is the (1, 1) entry after n - 1 - j corner reduction steps, so the
    coordinates are the corner pivots minus 1 in reverse order; under Haar
    measure they are independent with density c (1 - x^2)^((j-2)/2).
    Samples whose reduction chain comes within 1e-12 of the singular set
    are redrawn; the event has probability zero and only guards roundoff.
    """
    if n < 2:
        raise InvalidParams("cube coordinates need n >= 2")
    gen = as_generator(rng)
    out = np.empty((size, n - 1))
    todo = np.arange(size)
    while todo.size:
        piv = corner_pivots(_haar_so_batch(n, todo.size, gen, cols=n - 1), n - 1)
        ok = np.all(np.abs(piv[:-1]) > _SINGULAR_TOL, axis=0)
        out[todo[ok]] = piv[::-1, ok].T - 1.0
        todo = todo[~ok]
    return out


def equivariance_residual(
    g: np.ndarray, a: np.ndarray, b: np.ndarray, m: int, field: str = REAL
) -> float:
    """Residual of upsilon_m(diag(1, A) g diag(1, B)) = A upsilon_m(g) B.

    A and B are group elements of size n - m; the reduction only sees the
    left-upper corner, so framing the complement acts by outer translation.
    """
    n = _size(g, field)
    if _size(a, field) != n - m or _size(b, field) != n - m:
        raise InvalidParams("A and B must live in the size n - m group")
    u = _unit(field)
    left = np.eye(u * n, dtype=complex if field != REAL else float)
    right = left.copy()
    left[u * m :, u * m :] = a
    right[u * m :, u * m :] = b
    lhs = upsilon(left @ g @ right, m, field)
    rhs = a @ upsilon(g, m, field) @ b
    return float(np.max(np.abs(lhs - rhs)))


def cayley_corner_residual(g: np.ndarray, p: int, field: str = REAL) -> float:
    """Scale-aware residual of {cayley(g)}_p = cayley(upsilon(g, n-p)).

    The braces take the lower-right p x p corner (2p x 2p for
    quaternions).  Cayley entries grow like the reciprocal distance to the
    singular set, so the comparison is normalized by the corner magnitude.
    """
    n = _size(g, field)
    if not 1 <= p < n:
        raise InvalidParams(f"corner size must satisfy 1 <= p < {n}, got {p}")
    u = _unit(field)
    m = n - p
    lhs = cayley(g)[u * m :, u * m :]
    rhs = cayley(upsilon(g, m, field))
    scale = max(1.0, float(np.max(np.abs(lhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


def corner_det_multiplicativity_residual(
    g: np.ndarray, m: int, p: int, field: str = REAL
) -> float:
    """Residual of det(1+[g]_p) = det(1+[g]_m) det(1+[upsilon_m(g)]_{p-m})."""
    n = _size(g, field)
    if not 1 <= m < p <= n:
        raise InvalidParams(f"need 1 <= m < p <= {n}, got m={m}, p={p}")
    u = _unit(field)
    full = np.linalg.det(np.eye(u * p) + corner(g, p, field))
    part = np.linalg.det(np.eye(u * m) + corner(g, m, field))
    red = upsilon(g, m, field)
    rest = np.linalg.det(np.eye(u * (p - m)) + corner(red, p - m, field))
    return float(abs(full - part * rest) / max(abs(full), 1e-30))


# ---------------------------------------------------------------------------
# Quaternionic determinant
# ---------------------------------------------------------------------------

# Largest quaternionic-structure residual, relative to the largest entry (at least 1).
_QUATERNIONIC_TOL = 1e-9


def _real_realization(mat: np.ndarray) -> np.ndarray:
    """4n x 4n real left-multiplication realization from the complex one."""
    n = mat.shape[0] // 2
    out = np.zeros((4 * n, 4 * n))
    for i in range(n):
        for j in range(n):
            alpha = mat[2 * i, 2 * j]
            beta = mat[2 * i, 2 * j + 1]
            a, b = float(np.real(alpha)), float(np.imag(alpha))
            c, d = float(np.real(beta)), float(np.imag(beta))
            out[4 * i : 4 * i + 4, 4 * j : 4 * j + 4] = [
                [a, -b, -c, -d],
                [b, a, -d, c],
                [c, d, a, -b],
                [d, -c, b, a],
            ]
    return out


def quaternionic_det(a: np.ndarray) -> float:
    """Nonnegative quaternionic determinant of a quaternionic matrix.

    Computed as sqrt(det) of the 2n x 2n complex realization and
    cross-checked against det^(1/4) of the 4n x 4n real realization,
    which must come out nonnegative.
    """
    mat = np.asarray(a, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
        raise InvalidParams("expected a 2n x 2n complex realization")
    scale = max(float(np.max(np.abs(mat))), 1.0)
    if quaternionic_structure_residual(mat) > _QUATERNIONIC_TOL * scale:
        raise InvalidParams("matrix does not satisfy the quaternionic structure relation")
    sign_c, log_c = np.linalg.slogdet(mat)
    if sign_c == 0:
        return 0.0
    if abs(np.imag(sign_c)) > 1e-6 or np.real(sign_c) < 0:
        raise NegativeRealDeterminant(f"complex-realization determinant has sign {sign_c:.6f}")
    sign_r, log_r = np.linalg.slogdet(_real_realization(mat))
    if sign_r < 0:
        raise NegativeRealDeterminant("real-realization determinant is negative")
    if sign_r != 0 and abs(log_r / 4.0 - log_c / 2.0) > 1e-6 * max(1.0, abs(log_c)):
        raise InvalidParams("complex and real realizations disagree on the determinant")
    return float(np.exp(log_c / 2.0))

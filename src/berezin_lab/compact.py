"""Haar sampling on SO(n), U(n), Sp(n) and the elimination behind every corner determinant.

Quaternionic matrices are stored in the interleaved 2n x 2n complex
realization: the quaternion a + b i + c j + d k occupies a 2 x 2 block

    [[a + b i,  c + d i],
     [-c + d i, a - b i]]

so a matrix M is quaternionic iff M Jhat = Jhat conj(M) with
Jhat = diag([[0, -1], [1, 0]], ...).  Even-indexed columns determine the
odd-indexed ones through the antilinear map S(u) = Jhat conj(u).

A group element is its stored matrix, (n, n) for the real and complex
fields and (2n, 2n) complex for the quaternion field, and a stack of them
is a (size, d, d) array.  ``corner_pivots`` reads the leading corners of
a stack, counting stored rows, two per quaternionic unit.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams
from .rngs import as_generator

REAL = "real"
COMPLEX = "complex"
QUATERNION = "quaternion"
FIELDS = (REAL, COMPLEX, QUATERNION)


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


_BATCH_SAMPLERS = {REAL: _haar_so_batch, COMPLEX: _haar_u_batch, QUATERNION: _haar_sp_batch}


def haar_sample_batch(
    field: str, n: int, size: int, rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """Stack of ``size`` Haar samples, shape (size, d, d) with d = n, or 2n for Sp(n).

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
# Corner pivots
# ---------------------------------------------------------------------------


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

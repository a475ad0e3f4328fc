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


def _gram_schmidt(q: np.ndarray, step: int = 1) -> np.ndarray:
    """Batched Gram-Schmidt with positive norms: the Q of G = Q R, R_jj > 0.

    Positive norms make the factorization unique, so Q is exactly Haar on
    the unitary group of a Gaussian's field (Mezzadri, math-ph/0609050).
    ``q`` holds the columns of G sample-axis-last, shape (columns, d,
    size) with q[j] column j, so every elementwise step sweeps the
    contiguous samples of a block.  The columns are orthonormalised in
    place: column j of Q depends on the first j columns of G only, so a
    leading slice of ``q`` gives the first columns of the full factor, bit
    for bit.  With ``step`` 2 only the even slots of a (2m, d, size) ``q``
    hold drawn columns, and each finished column writes its S-partner into
    the odd slot after it: S(u) is orthogonal to u and the span of
    finished pairs is S-invariant, so the result is the QR factor of the
    S-paired Gaussian and lies in Sp(m).  The odd slots need no values.

    Each column is projected off the finished columns one at a time
    (modified Gram-Schmidt), in two passes, as col -= (conj(u) col).sum(0) u,
    and normalised by its 2-norm, computed as ``np.linalg.norm`` does.
    Every step writes into one (d, size) temporary and one (size,)
    accumulator, through the same ufuncs in the same order as those
    expressions, so the result is theirs bit for bit.  With ``step`` 2
    the temporary is the odd slot after the column in hand, which the
    structure map fills only once that column is finished.  The result is
    returned as a (size, d, columns) view of ``q``, with no copy.
    """
    conj = np.conjugate if np.iscomplexobj(q) else lambda u, out: u  # a real u is its conjugate
    tmp = np.empty(q.shape[1:], dtype=q.dtype) if step == 1 else None
    acc = np.empty(q.shape[2:], dtype=q.dtype)
    norm = acc.real  # the float view of a complex accumulator
    for j in range(0, len(q), step):
        col = q[j]
        if step == 2:
            tmp = q[j + 1]  # free until the structure map fills it
        for _ in range(2 if j else 0):  # the second pass removes cancellation error
            for u in q[:j]:
                np.multiply(conj(u, out=tmp), col, out=tmp)
                np.multiply(np.add.reduce(tmp, axis=0, out=acc), u, out=tmp)
                np.subtract(col, tmp, out=col)
        np.multiply(conj(col, out=tmp), col, out=tmp)
        np.sqrt(np.add.reduce(tmp.real, axis=0, out=norm), out=norm)
        np.divide(col, norm, out=col)
        if step == 2:
            _structure_map(col, q[j + 1])
    return q.transpose(2, 1, 0)


def _gaussian(field: str, n: int, size: int, cols: int | None = None):
    """Storage for the Gaussian columns of ``field`` samples, and the draw that fills it.

    Returns (g, draw).  g is unfilled, shape (m, d, size), sample axis
    last, with d = n, or 2n for the quaternion field.  m counts the drawn
    columns: min(n, cols), or min(n, ceil(cols / 2)) for the quaternion
    field, whose sampler adds an S-partner after each.  ``draw(gen)``
    fills g in one column-major draw, a complex entry taking its (x, y)
    off the stream in turn, and returns it.  It is the only step of a
    sampler that reads the stream, and it calls nothing but ``gen``.
    Allocating and drawing are apart so that the draw can run on another
    thread, into storage that the calling thread owns.
    """
    if field == QUATERNION:
        m, d = (n if cols is None else min(n, -(-cols // 2))), 2 * n
    else:
        m, d = (n if cols is None else min(n, cols)), n
    g = np.empty((m, d, size), dtype=float if field == REAL else complex)

    def draw(gen: np.random.Generator) -> np.ndarray:
        gen.standard_normal(out=g.view(float))
        return g

    return g, draw


def _drawn(gen, field: str, n: int, size: int, cols: int | None) -> np.ndarray:
    """The filled Gaussian storage of a sampler call: drawn from the Generator ``gen``,
    or ``gen`` itself when it is storage that ``_gaussian``'s draw has already filled."""
    if isinstance(gen, np.ndarray):
        return gen
    return _gaussian(field, n, size, cols)[1](gen)


def _haar_orthogonal_batch(n: int, size: int, gen: np.random.Generator) -> np.ndarray:
    """Haar O(n), both determinant components."""
    return _gram_schmidt(gen.standard_normal((n, n, size)))


def _haar_so_batch(n: int, size: int, gen, cols: int | None = None) -> np.ndarray:
    """Haar SO(n): Haar O(n) with the last column flipped on det = -1.

    With ``cols`` < n only the first ``cols`` Gaussian columns are drawn
    and orthonormalised, shape (size, n, cols), and the flip, which
    changes column n alone, is skipped.  The draw is column-major, so
    those are the leading columns of the full sample's draw and the
    result is the full sample's first columns, bit for bit; only the
    stream position afterwards differs, by (n - cols) n size normals.

    ``gen`` is a Generator, or the storage that ``_gaussian`` made for
    the same (n, size, cols) with its draw already made; so are the other
    fields' ``gen``.
    """
    q = _gram_schmidt(_drawn(gen, REAL, n, size, cols))
    if q.shape[2] == n:
        q[np.linalg.det(q) < 0, :, -1] *= -1.0
    return q


def _haar_u_batch(n: int, size: int, gen, cols: int | None = None) -> np.ndarray:
    """Haar U(n), or with ``cols`` < n its first ``cols`` columns, shape (size, n, cols).

    As for SO(n), the draw is column-major and column j reads the first j
    Gaussian columns only, so a cut is the full sample's leading columns,
    bit for bit, and leaves (n - cols) n size complex normals undrawn.
    """
    return _gram_schmidt(_drawn(gen, COMPLEX, n, size, cols))


def _haar_sp_batch(n: int, size: int, gen, cols: int | None = None) -> np.ndarray:
    """Haar Sp(n) in the complex realization: n drawn columns, each with its S-partner.

    ``cols`` counts stored columns: ceil(cols / 2) columns are drawn, each
    followed by its partner, shape (size, 2n, 2 ceil(cols / 2)).  They are
    the full sample's leading columns, bit for bit, since a drawn column
    is projected off the finished pairs only.  The drawn columns are one
    column-major draw, copied into the even slots of the output.
    """
    g = _drawn(gen, QUATERNION, n, size, cols)
    q = np.empty((2 * len(g), 2 * n, size), dtype=complex)
    q[0::2] = g
    return _gram_schmidt(q, step=2)


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
    meaningless.  Step j updates the rows below j one at a time, row i
    losing work[i, j] times row j, through one (k - 1, ...) temporary
    made per call, so no step forms a (k - j - 1)^2 block product; each
    entry sees the products and subtractions of a block update, in the
    same order, and the result is that update's bit for bit.  ``work`` may
    be a strided view, as ``corner_pivots``' view of a sampler's storage
    is; the elimination runs on the thread that calls it and never on the
    draw-ahead thread, so its arithmetic is the same whatever that
    thread is doing.

    Unpivoted elimination is safe on both of the library's domains:

    * 1 + [g]_k for a unitary g (``corner_pivots``): pivot j is 1 plus a
      unitary matrix entry, so it lies in the disc |p - 1| <= 1 and the
      reduced entries cannot grow.
    * 1 - A with A = z u^t and ||A|| = rho < 1 (the Berezin kernel and the
      ball check): pivot j is 1 / ((1 - A_j)^(-1))_jj, so |pivot| >= 1 - rho
      and growth is bounded by 1 / (1 - rho).  Every pivot is then
      positive, and a pivot <= 0 means the input left the domain.
    """
    tmp = np.empty_like(work[0, 1:])
    for j in range(len(work) - 1):
        row, pivot = work[j, j + 1 :], work[j, j]
        np.divide(row, pivot, out=row, where=pivot != 0)  # a zero pivot divides by 1
        for lower in work[j + 1 :]:
            np.subtract(lower[j + 1 :], np.multiply(lower[j], row, out=tmp[j:]), out=lower[j + 1 :])
    return np.einsum("ii...->i...", work)


def corner_pivots(mats: np.ndarray, k: int) -> np.ndarray:
    """Pivots of unpivoted elimination on 1 + [g]_k for a stack g, shape (k, size).

    ``k`` counts stored rows (two per quaternionic unit).  The j-th pivot
    is det(1+[g]_j) / det(1+[g]_{j-1}), which is 1 plus the (1, 1) entry of
    g reduced j - 1 times by one row.  ``eliminate`` runs on ``mats``' own
    storage, through a (k, k, size) view of its leading corner, so that
    corner is overwritten and nothing is copied.  Every entry sees the
    same operations in the same order as in a per-sample elimination, so
    the pivots are bit for bit the same.  It draws nothing: the Gaussian
    draws behind a seeded estimate are the sampler's, and the estimate
    differs from a per-sample computation only where Q does, at rounding
    level.  In a Monte Carlo estimate that Gaussian may have been drawn on
    the draw-ahead thread (see ``integrals``), but the draw was complete
    before the sampler orthonormalised it, and only the calling thread
    touches the storage after that, so the pivots cannot depend on the
    thread timing.  The result keeps the sample axis last: it is ``eliminate``'s
    view of the corner's diagonal, whose row j holds pivot j of every
    sample, contiguously for a sampler's stack.
    """
    work = mats[:, :k, :k].transpose(1, 2, 0)
    diagonal = np.einsum("ii...->i...", work)
    diagonal += 1.0
    return eliminate(work)

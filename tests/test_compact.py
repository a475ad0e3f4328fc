import numpy as np
import pytest

from berezin_lab.ball import random_ball_point
from berezin_lab.compact import (
    COMPLEX,
    QUATERNION,
    REAL,
    corner_pivots,
    eliminate,
    haar_sample_batch,
    haar_sample_uncorrected,
    _gram_schmidt,
    _haar_so_batch,
    _haar_sp_batch,
    _haar_u_batch,
    _structure_map,
)
from berezin_lab.errors import InvalidParams

from conftest import corner_entry_cdf, ks_pvalue
from corner_calculus import (
    cayley,
    cayley_corner_residual,
    corner_det_multiplicativity_residual,
    cube_coords,
    equivariance_residual,
    stored_rows,
    upsilon,
)

FIELDS = [REAL, COMPLEX, QUATERNION]


def _structure_residual(mats):
    """Largest entry of M Jhat - Jhat conj(M) over a stack, Jhat = diag([[0, -1], [1, 0]], ...)."""
    jhat = np.kron(np.eye(mats.shape[-1] // 2), [[0.0, -1.0], [1.0, 0.0]])
    return float(np.max(np.abs(mats @ jhat - jhat @ mats.conj())))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_haar_samples_are_unitary(field, n):
    batch = haar_sample_batch(field, n, 40, rng=3)
    d = stored_rows(n, field)
    assert batch.shape == (40, d, d)
    eye = np.eye(d)
    worst = max(float(np.max(np.abs(m.conj().T @ m - eye))) for m in batch)
    assert worst < 1e-12


def test_special_orthogonal_determinant_is_one():
    batch = haar_sample_batch(REAL, 4, 200, rng=1)
    assert np.allclose(np.linalg.det(batch), 1.0, atol=1e-10)
    assert np.isrealobj(batch)


def test_symplectic_samples_respect_structure():
    batch = haar_sample_batch(QUATERNION, 2, 50, rng=2)
    j = np.kron(np.eye(2), [[0.0, -1.0], [1.0, 0.0]])
    assert _structure_residual(batch) < 1e-12
    for m in batch:
        assert np.max(np.abs(m.T @ j @ m - j)) < 1e-12


def test_corner_entry_marginal_matches_beta_law():
    # one-sample KS for the top-left entry at several sizes
    rng = np.random.default_rng(1729)
    for n in [2, 3, 5]:
        x = haar_sample_batch(REAL, n, 20_000, rng)[:, 0, 0]
        assert ks_pvalue(x, corner_entry_cdf(n)) > 0.01


def test_unitary_corner_entry_marginal_matches_beta_law():
    # |g_11|^2 of Haar U(n) is |first coordinate|^2 of a uniform point of
    # the unit sphere in C^n: Beta(1, n - 1)
    from scipy import stats

    rng = np.random.default_rng(1729)
    for n in [2, 3, 5]:
        x = np.abs(haar_sample_batch(COMPLEX, n, 20_000, rng)[:, 0, 0]) ** 2
        assert ks_pvalue(x, stats.beta(1.0, n - 1.0).cdf) > 0.01


def test_symplectic_first_component_marginal():
    # the (0,0) entry's real part of the complex realization is the first
    # component of a uniform unit quaternion: 2 Beta(3/2, 3/2) - 1
    from scipy import stats

    x = haar_sample_batch(QUATERNION, 1, 40_000, rng=1729)[:, 0, 0].real
    cdf = stats.beta(1.5, 1.5, loc=-1.0, scale=2.0).cdf
    assert ks_pvalue(x, cdf) > 0.01


def _paired(drawn):
    """The S-paired Gaussian: drawn column i in slot 2i, its S-partner in 2i + 1."""
    size, d, m = drawn.shape
    full = np.empty((size, d, d), dtype=complex)
    full[:, :, 0::2] = drawn
    rows_first = np.moveaxis(drawn, 1, 0)
    full[:, :, 1::2] = np.moveaxis(_structure_map(rows_first, np.empty_like(rows_first)), 0, 1)
    return full


def _columns(rng, field, cols, d, size):
    """A Gaussian of the field's scalars with its columns first and its samples last."""
    drawn = rng.standard_normal((cols, d, size))
    if field != REAL:
        drawn = drawn + 1j * rng.standard_normal((cols, d, size))
    return drawn


@pytest.mark.parametrize("field", FIELDS)
def test_gram_schmidt_equals_qr_with_positive_diagonal(field):
    # Gram-Schmidt with positive norms is the unique QR with R_jj > 0
    rng = np.random.default_rng(30)
    n, size = 8, 200
    step = 2 if field == QUATERNION else 1
    drawn = _columns(rng, field, n // step, n, size)
    stack = drawn.transpose(2, 1, 0)  # (size, n, columns), a view
    full = stack if field != QUATERNION else _paired(stack)
    q, r = np.linalg.qr(full)
    diag = np.einsum("...ii->...i", r)
    reference = q * (diag / np.abs(diag))[:, None, :]
    got = _gram_schmidt(drawn, step)
    assert got.shape == (size, n, n)
    # real and complex columns are orthonormalised in place, S-paired ones
    # go to a fresh array; either way the stack is a view of sample-last Q
    assert np.shares_memory(got, drawn) == (step == 1)
    assert got.transpose(2, 1, 0).flags.c_contiguous
    assert np.max(np.abs(got - reference)) < 1e-12


@pytest.mark.parametrize("field, n", [(REAL, 12), (COMPLEX, 8), (QUATERNION, 8)])
def test_gram_schmidt_stays_orthonormal_on_nearly_dependent_columns(field, n):
    # Gaussian column 2 is column 1 plus 1e-9 noise: one projection pass
    # would leave an orthogonality error near 1e-7, the second removes it
    rng = np.random.default_rng(32)
    size, d = 50, stored_rows(n, field)
    drawn = _columns(rng, field, n, d, size)
    noise = _columns(rng, field, 1, d, size)[0]
    drawn[1] = drawn[0] + 1e-9 * noise
    q = _gram_schmidt(drawn, 2 if field == QUATERNION else 1)
    assert q.shape == (size, d, d)
    gram = np.conj(np.swapaxes(q, 1, 2)) @ q
    assert np.max(np.abs(gram - np.eye(d))) <= 1e-13
    if field == QUATERNION:
        assert _structure_residual(q) <= 1e-13


@pytest.mark.parametrize("n", range(2, 9))
def test_so_sampler_columns_are_the_full_samples_leading_columns(n):
    # the draw is column-major and column j of Gram-Schmidt reads Gaussian
    # columns 1..j only, while the det = -1 flip touches column n only; a
    # draw of k columns takes exactly k n size normals off the stream
    size = 300
    for k in range(1, n):
        gen, gen2, gen3 = (np.random.default_rng(41) for _ in range(3))
        part = _haar_so_batch(n, size, gen, cols=k)
        assert part.shape == (size, n, k)
        assert (part == _haar_so_batch(n, size, gen2)[:, :, :k]).all()
        gen3.standard_normal(k * n * size)
        assert (gen.standard_normal(3) == gen3.standard_normal(3)).all()


@pytest.mark.parametrize("n", range(1, 6))
def test_u_and_sp_sampler_columns_are_the_full_samples_leading_columns(n):
    # U(n) draws its first k Gaussian columns, Sp(n) the first ceil(k / 2)
    # with their S-partners, both column-major; each complex normal takes
    # two real normals off the stream
    size = 200
    cuts = [(_haar_u_batch, k, k, 2 * k * n) for k in range(1, n)]
    cuts += [(_haar_sp_batch, k, 2 * (-(-k // 2)), 4 * (-(-k // 2)) * n) for k in range(1, 2 * n)]
    for sampler, k, kept, normals in cuts:
        gen, gen2, gen3 = (np.random.default_rng(43) for _ in range(3))
        part = sampler(n, size, gen, cols=k)
        full = sampler(n, size, gen2)
        assert part.shape == (size, full.shape[1], kept)
        assert (part == full[:, :, :kept]).all()
        gen3.standard_normal(normals * size)
        assert (gen.standard_normal(3) == gen3.standard_normal(3)).all()


def test_uncorrected_sampler_fails_the_marginal_test():
    # negative control: the raw LAPACK QR convention is badly non-Haar
    x = haar_sample_uncorrected(REAL, 3, rng=0, size=5_000)[:, 0, 0]
    assert ks_pvalue(x, corner_entry_cdf(3)) < 1e-6


def test_sampling_rejects_bad_arguments():
    with pytest.raises(InvalidParams):
        haar_sample_batch("octonion", 2, 1)
    with pytest.raises(InvalidParams):
        haar_sample_batch(REAL, 0, 1)
    with pytest.raises(InvalidParams):
        haar_sample_uncorrected(QUATERNION, 2)


def test_matrix_dim_by_field():
    # a sample of n units has n stored rows, two per unit for quaternions
    for field, side in [(REAL, 3), (COMPLEX, 3), (QUATERNION, 6)]:
        assert haar_sample_batch(field, 3, 2, rng=0).shape == (2, side, side)
        assert stored_rows(3, field) == side


# ---------------------------------------------------------------------------
# Corner reduction calculus
# ---------------------------------------------------------------------------


def test_upsilon_on_rotation_is_trivial():
    theta = 0.7
    g = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    out = upsilon(g, 1)
    assert out.shape == (1, 1)
    assert np.allclose(out, [[1.0]], atol=1e-14)


@pytest.mark.parametrize("field", FIELDS)
def test_upsilon_composes_additively(field):
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = haar_sample_batch(field, 4, 1, rng)[0]
        twice = upsilon(upsilon(g, 1, field), 1, field)
        once = upsilon(g, 2, field)
        assert np.max(np.abs(twice - once)) < 1e-12


@pytest.mark.parametrize("field", FIELDS)
def test_upsilon_equivariance(field):
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = haar_sample_batch(field, 4, 1, rng)[0]
        a = haar_sample_batch(field, 3, 1, rng)[0]
        b = haar_sample_batch(field, 3, 1, rng)[0]
        assert equivariance_residual(g, a, b, 1, field) < 1e-12


@pytest.mark.parametrize("field", FIELDS)
def test_corner_det_multiplicativity(field):
    rng = np.random.default_rng(6)
    for _ in range(20):
        g = haar_sample_batch(field, 5, 1, rng)[0]
        for m, p in [(1, 2), (1, 5), (2, 4)]:
            assert corner_det_multiplicativity_residual(g, m, p, field) < 1e-10


@pytest.mark.parametrize("field", FIELDS)
def test_cayley_corner_identity(field):
    rng = np.random.default_rng(7)
    for _ in range(15):
        g = haar_sample_batch(field, 4, 1, rng)[0]
        for p in [1, 2, 3]:
            assert cayley_corner_residual(g, p, field) < 1e-10


def test_cayley_of_rotation_is_skew():
    g = haar_sample_batch(REAL, 4, 1, rng=9)[0]
    s = cayley(g)
    assert np.max(np.abs(s + s.T)) < 1e-12


def test_cayley_rejects_minus_one():
    # -1 lies on the singular set det(1 + g) = 0: the reference transform
    # cannot be solved there, and the library's first corner pivot is 0
    with pytest.raises(np.linalg.LinAlgError):
        cayley(-np.eye(2))
    piv = corner_pivots(-np.eye(2)[None], 2)
    assert piv[0, 0] == 0.0 and np.prod(piv) == 0.0


def test_upsilon_rejects_singular_corner():
    # a corner with det(1 + P) = 0 has no reduction, and its pivot is 0
    g = np.diag([-1.0, -1.0])
    with pytest.raises(np.linalg.LinAlgError):
        upsilon(g, 1)
    assert corner_pivots(g[None], 1)[0, 0] == 0.0


@pytest.mark.parametrize("field", FIELDS)
def test_corner_pivots_are_ratios_of_corner_determinants(field):
    rng = np.random.default_rng(31)
    n = 8 if field != QUATERNION else 4
    d = stored_rows(n, field)
    mats = haar_sample_batch(field, n, 1000, rng)
    piv = corner_pivots(mats, d).T
    # every pivot is 1 plus a unitary matrix entry; the last one sits on the
    # circle |p - 1| = 1, and rounding grows like 1 / (smallest earlier pivot)
    earlier = np.hstack([np.ones((len(piv), 1)), np.abs(piv[:, :-1])])
    growth = 1.0 / np.minimum.accumulate(np.minimum(earlier, 1.0), axis=1)
    assert np.all(np.abs(piv - 1.0) <= 1.0 + 1e-12 * growth)
    assert np.all(np.abs(piv[:, : d - 1] - 1.0) <= 1.0 + 1e-12)
    # each route's relative error is rounding times the condition number of
    # 1 + [g]_k, which blows up near det(1 + [g]_k) = 0, so the bound
    # scales with it per sample
    products = np.cumprod(piv, axis=1)
    eps = np.finfo(float).eps
    for k in range(1, d + 1):
        shifted = np.eye(k) + mats[:, :k, :k]
        dets = np.linalg.det(shifted)
        rel = np.abs(products[:, k - 1] - dets) / np.abs(dets)
        ratio = rel / (16 * eps * np.linalg.cond(shifted))
        assert np.max(ratio) <= 1.0, (k, np.max(ratio))


def _pivots_sample_axis_first(mats, k):
    """Reference elimination with the sample axis first, one pivot column per step."""
    work = mats[:, :k, :k] + np.eye(k)
    piv = np.empty(work.shape[:2], dtype=work.dtype)
    for j in range(k):
        p = work[:, j, j]
        piv[:, j] = p
        safe = np.where(p != 0, p, 1.0)[:, None, None]
        work[:, j + 1 :, j + 1 :] -= work[:, j + 1 :, j : j + 1] * (work[:, j : j + 1, j + 1 :] / safe)
    return piv


@pytest.mark.parametrize("field", FIELDS)
def test_corner_pivots_equal_the_sample_first_elimination_bit_for_bit(field):
    # the same operations on every entry in the same order: only the memory layout differs
    n = 8 if field != QUATERNION else 4
    d = stored_rows(n, field)
    mats = haar_sample_batch(field, n, 500, rng=33)
    mats[0, 0, 0] = -1.0  # a zero first pivot takes the safe-divisor branch
    for k in (1, 3, d):
        piv = corner_pivots(mats, k)
        assert piv.shape == (k, 500)
        assert np.array_equal(piv, _pivots_sample_axis_first(mats, k).T)
    assert corner_pivots(mats[:0], d).shape == (d, 0)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_eliminate_pivots_multiply_to_the_determinant(p):
    # 1 - z u^t for points up to norm 0.999, the kernel's domain, sample axes last
    z = random_ball_point(p, p + 2, 51, 0.0, 0.999, size=400)
    u = random_ball_point(p, p + 2, 52, 0.0, 0.999, size=400)
    mats = np.eye(p) - z @ np.swapaxes(u, 1, 2)
    for stack in (mats[:0], mats[:1], mats, mats.reshape(20, 20, p, p)):
        work = np.moveaxis(stack, (-2, -1), (0, 1)).copy()
        piv = eliminate(work)
        assert piv.shape == (p, *stack.shape[:-2])
        assert np.all(piv > 0)
        dets = np.linalg.det(stack)
        assert np.all(np.abs(np.prod(piv, axis=0) - dets) <= 1e-12 * np.abs(dets))
    # one matrix, with no sample axis, gives the pivots of a stack of one
    one = np.moveaxis(mats[:1], (-2, -1), (0, 1)).copy()
    assert np.array_equal(eliminate(mats[0].copy()), eliminate(one)[:, 0])


def test_corner_shapes():
    # m units are 2m stored rows of a quaternionic element, m rows otherwise
    g = haar_sample_batch(QUATERNION, 3, 5, rng=1)
    assert corner_pivots(g, stored_rows(2, QUATERNION)).shape == (4, 5)
    assert upsilon(g[0], 2, QUATERNION).shape == (2, 2)
    h = haar_sample_batch(REAL, 3, 5, rng=1)
    assert corner_pivots(h, 2).shape == (2, 5)
    assert upsilon(h[0], 2).shape == (1, 1)


# ---------------------------------------------------------------------------
# Cube coordinates
# ---------------------------------------------------------------------------


def test_cube_coords_shape_and_range():
    coords = cube_coords(4, 500, 3)
    assert coords.shape == (500, 3)
    assert np.all(np.abs(coords) <= 1.0)


def test_cube_coords_match_elementwise_definition():
    # x_j is the top-left entry after n - 1 - j upsilon steps; the same
    # seed hands both routes the same matrices
    n = 4
    coords = cube_coords(n, 50, 12)
    mats = haar_sample_batch(REAL, n, 50, rng=12)
    for x, g in zip(coords, mats):
        chain = [g[0, 0]]
        for _ in range(n - 2):
            g = upsilon(g, 1)
            chain.append(g[0, 0])
        assert np.max(np.abs(x - chain[::-1])) < 1e-12


def test_cube_coordinates_have_the_stagewise_marginals():
    # x_j is the corner entry of an SO(j+1) sample
    coords = cube_coords(4, 20_000, 1729)
    for j in [1, 2, 3]:
        assert ks_pvalue(coords[:, j - 1], corner_entry_cdf(j + 1)) > 0.01


def test_cube_coordinates_are_uncorrelated():
    n_samples = 20_000
    coords = cube_coords(5, n_samples, 5)
    corr = np.corrcoef(coords.T)
    off = np.abs(corr[np.triu_indices(4, 1)])
    assert np.all(off < 3.0 / np.sqrt(n_samples))


# ---------------------------------------------------------------------------
# Quaternionic determinant
# ---------------------------------------------------------------------------


def _quaternionic_det(piv):
    """Quaternionic determinant per sample, sqrt(prod |pivot|) over the stored rows.

    The Sp integral reads it so from the pivots of the complex realization.
    """
    return np.sqrt(np.prod(np.abs(piv), axis=0))


def _quaternion(a, b, c, d):
    """a + b i + c j + d k as its 2 x 2 complex block."""
    return np.array([[a + b * 1j, c + d * 1j], [-c + d * 1j, a - b * 1j]])


def test_quaternionic_det_exact_values():
    # det(1 + g) for the unit quaternions 1 and j: |2| = 2 and |1 + j| = sqrt(2)
    g = np.stack([_quaternion(1, 0, 0, 0), _quaternion(0, 0, 1, 0)])
    assert _structure_residual(g) == 0.0
    piv = corner_pivots(g, 2)
    assert np.array_equal(piv[:, 0], [2.0, 2.0])
    assert _quaternionic_det(piv) == pytest.approx([2.0, np.sqrt(2.0)], rel=1e-15)


def test_quaternionic_det_of_one_plus_unit_quaternion():
    # for a unit quaternion g with real part a, det(1 + g) = |1 + g| = sqrt(2 + 2a)
    g = haar_sample_batch(QUATERNION, 1, 10, rng=21)
    expect = np.sqrt(2.0 + 2.0 * g[:, 0, 0].real)
    assert _quaternionic_det(corner_pivots(g, 2)) == pytest.approx(expect, rel=1e-10)


def test_quaternionic_det_is_multiplicative_on_samples():
    # the complex determinant of a quaternionic matrix is real and nonnegative,
    # and its square root is multiplicative
    a, b = haar_sample_batch(QUATERNION, 2, 2, rng=22)
    mats = [np.eye(4) + a, np.eye(4) + b]
    mats.append(mats[0] @ mats[1])
    piv = [eliminate(m.copy()) for m in mats]
    for p in piv:
        det = np.prod(p)
        assert abs(det.imag) <= 1e-12 * abs(det) and det.real > 0
    da, db, dab = (_quaternionic_det(p) for p in piv)
    assert dab == pytest.approx(da * db, rel=1e-9)


def test_quaternionic_det_rejects_structure_violation():
    # a complex 2 x 2 matrix off the quaternionic structure: the structure
    # check sees it, and its determinant is negative, which no quaternionic
    # matrix has, so it has no quaternionic determinant
    bad = np.arange(1.0, 5.0).reshape(2, 2) + 0j
    assert _structure_residual(bad[None]) > 1.0
    assert np.prod(eliminate(bad.copy())) == -2.0
    assert _structure_residual(haar_sample_batch(QUATERNION, 1, 5, rng=23)) < 1e-12


def test_quaternionic_det_of_singular_matrix_is_zero():
    # g = diag(1, -1) in Sp(2): 1 + g = diag(2, 0) has a zero quaternionic
    # determinant, and the zero pivot sits after two nonzero ones
    g = np.zeros((4, 4), dtype=complex)
    g[:2, :2], g[2:, 2:] = _quaternion(1, 0, 0, 0), _quaternion(-1, 0, 0, 0)
    piv = corner_pivots(g[None], 4)
    assert np.array_equal(piv[:, 0], [2.0, 2.0, 0.0, 0.0])
    assert _quaternionic_det(piv)[0] == 0.0
    assert np.prod(eliminate(np.zeros((2, 2), dtype=complex))) == 0.0

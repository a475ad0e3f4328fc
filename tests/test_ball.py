import numpy as np
import pytest

from berezin_lab.ball import (
    _spectral_norm,
    boost,
    cocycle,
    moebius_act,
    random_ball_point,
    random_pseudo_orthogonal,
)
from berezin_lab.berezin import berezin_kernel
from berezin_lab.errors import InvalidParams, NearSingularCocycle, NonPositiveDeterminant

from conftest import boundary_points

PQ = [(1, 2), (2, 2), (2, 3), (3, 5)]


def _j_residual(g, p):
    """Frobenius residual of g^t J g = J, J = diag(1_p, -1_q), per element of a stack."""
    q = g.shape[-1] - p
    j = np.diag(np.r_[np.ones(p), -np.ones(q)])
    return np.linalg.norm(np.swapaxes(g, -1, -2) @ j @ g - j, axis=(-2, -1)) / np.sqrt(p + q)


def _orbit_rank(z):
    """Rank of 1 - z z^t at a closure point, singular values below 1e-9 counted as zero."""
    svals = np.linalg.svd(np.eye(len(z)) - z @ z.T, compute_uv=False)
    return int(np.sum(svals > 1e-9))


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


def test_ball_point_validation():
    # a point enters the library through the action and the kernel: both
    # refuse a point that is not a matrix
    g = boost(2, 2, np.array([0.4, -0.3]))
    with pytest.raises(InvalidParams):
        moebius_act(g, np.zeros(4))
    with pytest.raises(InvalidParams):
        berezin_kernel(np.zeros(3), np.zeros((1, 3)), 1.0)
    # p > q is refused where points are drawn
    with pytest.raises(InvalidParams):
        random_ball_point(3, 2, rng=0)
    # norm 1 is not interior: the kernel has no value on the diagonal there
    with pytest.raises(NonPositiveDeterminant):
        berezin_kernel(np.eye(2), np.eye(2), 1.0)
    # but it is admissible on the closure, which the action preserves
    w = moebius_act(g, np.eye(2))
    assert np.linalg.norm(w, 2) == pytest.approx(1.0, abs=1e-12)


def test_random_ball_point_norm_window():
    rng = np.random.default_rng(0)
    for p, q in PQ:
        for _ in range(10):
            z = random_ball_point(p, q, rng, 0.3, 0.9)
            norm = np.linalg.norm(z, 2)
            assert 0.3 <= norm <= 0.9 + 1e-12
    with pytest.raises(InvalidParams):
        random_ball_point(1, 2, rng, 0.5, 1.0)


@pytest.mark.parametrize("p,q", PQ)
def test_random_ball_point_stack_norm_window(p, q):
    pts = random_ball_point(p, q, 1, 0.3, 0.9, size=500)
    assert pts.shape == (500, p, q)
    norms = np.array([np.linalg.norm(z, 2) for z in pts])
    assert np.all(norms >= 0.3 - 1e-12) and np.all(norms < 0.9 + 1e-12)
    for lo, hi in [(0.5, 1.0), (-0.1, 0.5), (0.6, 0.5)]:
        with pytest.raises(InvalidParams):
            random_ball_point(p, q, 1, lo, hi, size=3)
    with pytest.raises(InvalidParams):
        random_ball_point(q + 1, q, 1, size=3)
    # a window of one norm: the eigenvalue scale hits it up to rounding
    pts = random_ball_point(p, q, 2, 0.5, 0.5, size=200)
    norms = np.array([np.linalg.norm(z, 2) for z in pts])
    assert np.max(np.abs(norms - 0.5)) <= 8 * np.finfo(float).eps
    # a shape gives an array of that shape of points, drawn as one flat stack
    grid = random_ball_point(p, q, 4, size=(6, 5))
    assert grid.shape == (6, 5, p, q)
    assert np.array_equal(grid.reshape(30, p, q), random_ball_point(p, q, 4, size=30))


def test_random_ball_point_rejects_empty_rows_and_negative_sizes():
    for p, size in [(0, None), (0, 4), (-1, None)]:
        with pytest.raises(InvalidParams, match="need 1 <= p <= q"):
            random_ball_point(p, 3, 1, size=size)
    for size in (-1, (3, -1)):
        with pytest.raises(InvalidParams, match="nonnegative"):
            random_ball_point(2, 3, 1, size=size)
    assert random_ball_point(2, 3, 1, size=0).shape == (0, 2, 3)


def _spectral_norm_cases():
    rng = np.random.default_rng(3)
    # the closed form's shapes (p <= 2) at 20000 points, the eigvalsh route's at 20
    for p, q, count in [(1, 1, 20), (1, 4, 20_000), (1, 5, 20), (2, 2, 20_000), (2, 3, 20_000),
                        (2, 9, 20_000), (3, 5, 20), (4, 7, 20)]:
        z = rng.standard_normal((count, p, q))
        yield pytest.param(z, id=f"gaussian-{p}x{q}")
        rank1 = rng.standard_normal((count, p, 1)) * rng.standard_normal((count, 1, q))
        yield pytest.param(rank1, id=f"rank1-{p}x{q}")
        yield pytest.param(np.zeros((3, p, q)), id=f"zero-{p}x{q}")
        for norm in (0.999, 1 - 1e-12):
            scaled = z * (norm / np.linalg.norm(z, 2, axis=(-2, -1)))[:, None, None]
            yield pytest.param(scaled, id=f"norm{norm!r}-{p}x{q}")


@pytest.mark.parametrize("stack", _spectral_norm_cases())
def test_spectral_norm_matches_the_svd(stack):
    expect = np.linalg.norm(stack, 2, axis=(-2, -1))
    assert _spectral_norm(stack) == pytest.approx(expect, rel=1e-15, abs=0)
    # one point at a time, with no stack axis
    assert [float(_spectral_norm(z)) for z in stack[:20]] == pytest.approx(expect[:20], rel=1e-15,
                                                                          abs=0)


def test_spectral_norm_of_the_zero_point_and_of_parallel_rows():
    assert _spectral_norm(np.zeros((1, 4))) == 0.0
    assert _spectral_norm(np.zeros((2, 3))) == 0.0
    # rows 1 and -2 times (1, 2, 2): z z^t = [[9, -18], [-18, 36]], top eigenvalue 45
    assert _spectral_norm(np.array([[1.0, 2.0, 2.0], [-2.0, -4.0, -4.0]])) == np.sqrt(45.0)


def test_random_ball_point_stack_checks_every_norm():
    class Outside(np.random.Generator):
        """Hands out a norm of 1.5 to the last point of a stack."""

        def uniform(self, low=0.0, high=1.0, size=None):
            out = super().uniform(low, high, size)
            out[-1] = 1.5
            return out

    with pytest.raises(InvalidParams, match="violates the ball constraint"):
        random_ball_point(2, 3, Outside(np.random.PCG64(1)), size=10)


def test_seeded_random_ball_point_is_unchanged():
    # the single-point sampler as it stood before points came in stacks,
    # scaled by the top eigenvalue of z z^t as the sampler now is: for p <= 2
    # the closed form over the rows' dot products, for p >= 3 eigvalsh
    def top_eigenvalue(z):
        if len(z) > 2:
            return np.linalg.eigvalsh(z @ z.T)[-1]
        rows = np.einsum("ij,ij->i", z, z)
        if len(z) == 1:
            return rows[0]
        a, c = rows
        b = np.einsum("j,j->", z[0], z[1])
        return (a + c) / 2 + np.hypot((a - c) / 2, b)

    def reference(gen, p, q, lo, hi):
        z = gen.standard_normal((p, q))
        cur = np.sqrt(top_eigenvalue(z))
        target = gen.uniform(lo, hi)
        return z * (target / cur)

    for seed in (0, 7, 1729):
        ref_gen, gen = np.random.default_rng(seed), np.random.default_rng(seed)
        for p, q in PQ:
            expect = reference(ref_gen, p, q, 0.2, 0.9)
            assert np.array_equal(random_ball_point(p, q, gen, 0.2, 0.9), expect)
        expect = reference(np.random.default_rng(seed), 2, 3, 0.0, 0.95)
        assert np.array_equal(random_ball_point(2, 3, seed), expect)


def test_origin_is_fixed_by_boosts_only_when_trivial():
    z = np.zeros((2, 3))
    g = boost(2, 3, np.array([0.3, -0.2]))
    moved = moebius_act(g, z)
    assert np.linalg.norm(moved) > 0


# ---------------------------------------------------------------------------
# Group elements and the action
# ---------------------------------------------------------------------------


def test_signature_matrix_and_validation():
    # boosts and sampled elements keep J = diag(1_p, -1_q), and the residual
    # the element tests rely on does see a matrix that breaks it
    g = random_pseudo_orthogonal(2, 3, rng=4)
    assert _j_residual(g, 2) < 1e-9
    assert _j_residual(boost(2, 3, np.array([1.5, -0.7])), 2) < 1e-9
    bad = g.copy()
    bad[:2, :2] *= 2
    assert _j_residual(bad, 2) > 1e-3
    # J depends on p, so the same matrix fails as an O(1, 4) element
    assert _j_residual(g, 1) > 1e-3


@pytest.mark.parametrize("p,q", PQ)
def test_random_pseudo_orthogonal_stack_elements(p, q):
    g = random_pseudo_orthogonal(p, q, 3, size=40)
    assert g.shape == (40, p + q, p + q)
    assert np.all(_j_residual(g, p) < 1e-9)
    # a stack of one is the single sample, bit for bit
    one = random_pseudo_orthogonal(p, q, 5, size=1)
    assert np.array_equal(one[0], random_pseudo_orthogonal(p, q, 5))


@pytest.mark.parametrize("p,q", PQ)
def test_batched_action_and_cocycle_match_the_formulas(p, q):
    gs = random_pseudo_orthogonal(p, q, 21, size=30)
    zs = random_ball_point(p, q, 22, size=30)
    w = moebius_act(gs, zs)
    c = cocycle(gs, zs)
    single = random_pseudo_orthogonal(p, q, 23)
    w_single = moebius_act(single, zs)
    for i, z in enumerate(zs):
        a, b, cc, d = gs[i, :p, :p], gs[i, :p, p:], gs[i, p:, :p], gs[i, p:, p:]
        assert np.max(np.abs(w[i] - np.linalg.solve(a + z @ cc, b + z @ d))) < 1e-12
        assert c[i] == pytest.approx(np.linalg.det(a + z @ cc), rel=1e-12, abs=0)
        a, b, cc, d = single[:p, :p], single[:p, p:], single[p:, :p], single[p:, p:]
        assert np.max(np.abs(w_single[i] - np.linalg.solve(a + z @ cc, b + z @ d))) < 1e-12
    # one point maps to one point, and a stack of one agrees with it
    z0 = zs[0]
    g0 = gs[0]
    assert moebius_act(g0, z0).shape == (p, q)
    assert np.array_equal(moebius_act(g0, z0), moebius_act(g0, zs[:1])[0])
    assert isinstance(cocycle(g0, z0), float)


@pytest.mark.parametrize("p,q", PQ)
def test_identity_acts_trivially(p, q):
    z = random_ball_point(p, q, rng=6)
    e = np.eye(p + q)
    assert np.allclose(moebius_act(e, z), z)
    assert cocycle(e, z) == pytest.approx(1.0)


@pytest.mark.parametrize("p,q", PQ)
def test_action_composes_and_cocycle_chains(p, q):
    rng = np.random.default_rng(7)
    for _ in range(12):
        g = random_pseudo_orthogonal(p, q, rng)
        h = random_pseudo_orthogonal(p, q, rng)
        z = random_ball_point(p, q, rng)
        # the action is a right action: z^[gh] = (z^[g])^[h]
        gh = g @ h
        one = moebius_act(gh, z)
        two = moebius_act(h, moebius_act(g, z))
        assert np.max(np.abs(one - two)) < 1e-9
        lhs = cocycle(gh, z)
        rhs = cocycle(g, z) * cocycle(h, moebius_act(g, z))
        assert lhs == pytest.approx(rhs, rel=1e-9)


@pytest.mark.parametrize("p,q", PQ)
def test_action_preserves_the_ball(p, q):
    rng = np.random.default_rng(8)
    for _ in range(12):
        g = random_pseudo_orthogonal(p, q, rng)
        z = random_ball_point(p, q, rng, 0.0, 0.99)
        w = moebius_act(g, z)
        assert np.linalg.norm(w, 2) < 1.0


@pytest.mark.parametrize("p,q", PQ)
def test_transport_to_origin(p, q):
    # with z = U diag(sigma) V^t, diag(U, V) B(-atanh sigma) moves z to the
    # origin, and its cocycle at z is prod(1 / cosh(atanh sigma))
    rng = np.random.default_rng(9)
    for _ in range(10):
        z = random_ball_point(p, q, rng, 0.0, 0.95)
        u, sig, vt = np.linalg.svd(z)
        if np.linalg.det(u) < 0:
            # flip one singular pair jointly: z is unchanged and the cocycle is positive
            u[:, -1] *= -1.0
            vt[p - 1, :] *= -1.0
        frame = np.zeros((p + q, p + q))
        frame[:p, :p], frame[p:, p:] = u, vt.T
        g = frame @ boost(p, q, -np.arctanh(sig))
        assert _j_residual(g, p) < 1e-8
        assert np.max(np.abs(moebius_act(g, z))) < 1e-9
        expect = float(np.prod(1.0 / np.cosh(np.arctanh(sig))))
        assert cocycle(g, z) == pytest.approx(expect, rel=1e-9)


def test_boost_composition_adds_rapidity():
    g = boost(2, 3, np.array([0.5, -0.2]))
    h = boost(2, 3, np.array([0.1, 0.4]))
    direct = boost(2, 3, np.array([0.6, 0.2]))
    assert np.allclose(g @ h, direct, atol=1e-12)
    with pytest.raises(InvalidParams):
        boost(2, 3, np.array([0.5]))
    with pytest.raises(InvalidParams):  # p > q: more boost planes than the q side holds
        boost(3, 2, np.zeros(3))


def test_shape_mismatches_are_rejected():
    g = random_pseudo_orthogonal(2, 3, rng=10)
    z = random_ball_point(1, 2, rng=10)
    with pytest.raises(InvalidParams):
        moebius_act(g, z)
    # an element whose last two axes are not (p+q, p+q) is refused for either map
    for bad in (np.eye(4), g[:, :4], g[0], np.zeros((3, 4, 5))):
        for act in (moebius_act, cocycle):
            with pytest.raises(InvalidParams):
                act(bad, random_ball_point(2, 3, rng=10))
    with pytest.raises(InvalidParams):
        cocycle(g, np.zeros(3))


def test_one_point_and_one_matrix_inputs_are_validated():
    # a single element and a single point pass the checks a stack does
    g = random_pseudo_orthogonal(2, 3, rng=11)
    z = random_ball_point(2, 3, rng=11)
    for bad in (g[:4, :4], np.zeros((4, 5))):
        with pytest.raises(InvalidParams):
            moebius_act(bad, z)
    with pytest.raises(InvalidParams):
        cocycle(g, z[0])
    with pytest.raises(InvalidParams):
        boost(2, 3, np.zeros((4, 3)))  # three rapidities per element for p = 2
    # a boundary point has no kernel value with itself
    with pytest.raises(NonPositiveDeterminant):
        berezin_kernel(np.eye(2, 3), np.eye(2, 3), 1.0)


def test_near_singular_cocycle_is_flagged():
    # a closure point aligned against a strong boost sends a + z c to zero
    t = 30.0
    g = boost(1, 1, np.array([t]))
    z = np.array([[-1.0 / np.tanh(t)]])
    with pytest.raises(NearSingularCocycle):
        moebius_act(g, z)
    # in a stack, one ill-conditioned element is enough
    stack = np.array([[[0.5]], [[0.1]], z])
    with pytest.raises(NearSingularCocycle):
        cocycle(g, stack)
    assert cocycle(g, stack[:2]).shape == (2,)


# ---------------------------------------------------------------------------
# Orbit rank
# ---------------------------------------------------------------------------


def test_orbit_rank_interior_and_compact_orbit():
    # drawn points are interior, rank p, up to the top of the norm window
    for z in random_ball_point(2, 4, 11, 0.9, 0.999, size=50):
        assert _orbit_rank(z) == 2
    # orthonormal rows sit on the compact orbit, rank 0, and stay there
    w = np.eye(3, 5)
    assert _orbit_rank(w) == 0
    assert _orbit_rank(moebius_act(random_pseudo_orthogonal(3, 5, rng=11), w)) == 0


def test_orbit_rank_is_action_invariant_on_boundary_points():
    # the orbit of a closure point z is fixed by the rank of 1 - z z^t
    rng = np.random.default_rng(12)
    for p, q, r in [(2, 4, 0), (2, 4, 1), (3, 5, 2)]:
        for _ in range(10):
            zp = boundary_points(p, q, r, 1, rng)[0]
            g = random_pseudo_orthogonal(p, q, rng)
            moved = moebius_act(g, zp)
            for z in (zp, moved):
                assert _spectral_norm(z) <= 1.0 + 1e-9
                assert _orbit_rank(z) == r

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

import gframes as gf
from gframes import GFrame, duality, linalg
from gframes.errors import IsRieszBasis, NotADual, ZeroProbe
from gframes.frames import analysis
from gframes.linalg import fro, random_unitary

from conftest import (conditioned_frame, count_decompositions, random_frame, random_gon,
                      random_riesz, redundant_frame)


def scaled(F, c):
    return F.map_blocks(lambda B: c * B)


class TestKernelVector:
    def test_orthogonal_to_range_and_unit(self, mercedes):
        v = duality.kernel_vector(mercedes)
        T = analysis(mercedes)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert np.linalg.norm(T.conj().T @ v) <= 1e-10

    def test_deterministic(self, mercedes):
        v1 = duality.kernel_vector(mercedes)
        v2 = duality.kernel_vector(mercedes)
        np.testing.assert_array_equal(v1, v2)

    def test_tall_frame_seeded(self, rng):
        F = random_frame(rng, 8, (1,) * 400)
        T = analysis(F)
        v = {seed: duality.kernel_vector(F, seed=seed) for seed in (0, 1)}
        for seed, u in v.items():
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
            assert np.linalg.norm(T.conj().T @ u) <= 1e-12
            np.testing.assert_array_equal(u, duality.kernel_vector(F, seed=seed))
            # phase convention: the first nonzero entry is real positive
            assert u[0].real > 0 and abs(u[0].imag) <= 1e-15
        assert np.linalg.norm(v[0] - v[1]) > 0.1

    def test_draw_inside_the_range_is_replaced(self):
        """A one-column frame drawn from the stream kernel_vector then draws
        from: its first draw is T's column, which projects to exactly 0."""
        F = random_frame(np.random.default_rng(1166), 1, (2,))
        v = duality.kernel_vector(F, seed=1166)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert np.linalg.norm(analysis(F).conj().T @ v) <= 1e-12

    def test_riesz_has_none(self, rng):
        F = random_gon(rng, 4, (2, 2))
        with pytest.raises(IsRieszBasis):
            duality.kernel_vector(F)


class TestAlternateDual:
    def test_mercedes_dual_reconstructs(self, mercedes, rng):
        alt = gf.construct_alternate_dual(mercedes, np.array([1.0, 0.0]))
        assert gf.check_dual_pair(mercedes, alt, tol_eq=1e-9)
        for _ in range(100):
            f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            rec = sum(C.conj().T @ (B @ f)
                      for B, C in zip(mercedes.blocks, alt.blocks))
            assert np.linalg.norm(rec - f) <= 1e-9 * np.linalg.norm(f)

    def test_differs_from_canonical(self, mercedes):
        alt = gf.construct_alternate_dual(mercedes, np.array([1.0, 0.0]))
        can = gf.canonical_dual(mercedes)
        assert max(fro(A - C) for A, C in zip(alt.blocks, can.blocks)) > 1e-6

    def test_perturbation_is_the_stated_rank_one_map(self, mercedes):
        """The added map is c <g0, .> kv_j with c the power of two nearest
        1/sigma_min: 1 for Mercedes (sigma_min = sqrt(3/2)), 1/4 for
        Mercedes x 4."""
        g0 = np.array([0.3, -0.7 + 0.2j])
        off = np.cumsum((0,) + mercedes.block_dims)
        for scale, c in ((1.0, 1.0), (4.0, 0.25)):
            F = mercedes.map_blocks(lambda B: scale * B)
            alt = gf.construct_alternate_dual(F, g0)
            can = gf.canonical_dual(F)
            kv = duality.kernel_vector(F)
            for j, (A, C) in enumerate(zip(alt.blocks, can.blocks)):
                np.testing.assert_allclose(
                    A - C, c * np.outer(kv[off[j]:off[j + 1]], g0.conj()), atol=1e-14)

    def test_riesz_input_rejected(self, rng):
        F = random_gon(rng, 4, (2, 2))
        with pytest.raises(IsRieszBasis):
            gf.construct_alternate_dual(F, np.ones(4))

    def test_zero_probe_rejected(self, mercedes):
        with pytest.raises(ZeroProbe):
            gf.construct_alternate_dual(mercedes, np.zeros(2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("size", [1e-200, 1e200])
    def test_probe_whose_norm_leaves_binary64(self, mercedes, size):
        """A probe is refused only when it is zero: one whose sum of squares
        underflows to 0 or overflows still gives the canonical dual plus
        <g0, .> kv (c = 1 for Mercedes), with no warning."""
        g0 = size * np.array([1.0, 0.5])
        alt = gf.construct_alternate_dual(mercedes, g0)
        T_can = analysis(gf.canonical_dual(mercedes))
        kv = duality.kernel_vector(mercedes)
        np.testing.assert_array_equal(alt.matrix, T_can + np.outer(kv, g0.conj()))

    def test_range_orthogonality(self, rng):
        F = random_frame(rng, 4, (2, 2, 2))
        g0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        alt = gf.construct_alternate_dual(F, g0)
        T = analysis(F)
        T_can = analysis(gf.canonical_dual(F))
        T_alt = analysis(alt)
        for _ in range(20):
            f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            ip = np.vdot(T @ g, (T_alt - T_can) @ f)
            assert abs(ip) <= 1e-9 * np.linalg.norm(f) * np.linalg.norm(g)


class TestSimilarity:
    def test_self_similar_identity(self, rng):
        F = random_frame(rng, 4, (2, 2, 1))
        X = duality.check_similar(F, F)
        np.testing.assert_allclose(X, np.eye(4), atol=1e-10)

    def test_canonical_dual_similar_via_frame_operator(self, rng):
        F = random_frame(rng, 4, (2, 2, 1))
        D = gf.canonical_dual(F)
        X = duality.check_similar(F, D)
        assert X is not None
        np.testing.assert_allclose(X, gf.frame_operator(F), atol=1e-8)

    def test_incomplete_family_gets_a_singular_x(self):
        """For a family that is not complete, X = T_G^+ T_F still maps G
        onto F block by block, but has F's rank: it is not invertible."""
        rng = np.random.default_rng(0)
        T = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
        F = gf.GFrame(4, tuple(np.split(T, 3)))
        X = duality.check_similar(F, F)
        for B in F.blocks:
            np.testing.assert_allclose(B @ X, B, atol=1e-12)
        assert np.linalg.matrix_rank(X) == F.rank() == 2

    def test_incomplete_family_inside_the_range(self, rng):
        """An incomplete F whose range lies inside a frame G's is F = G X
        with the singular X = T_G^+ T_F, here the rank-2 Y of T_F = T_G Y."""
        G = random_frame(rng, 4, (2, 2, 2))
        Y = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
        F = gf.GFrame(4, tuple(B @ Y for B in G.blocks))
        X = duality.check_similar(F, G)
        assert X is not None
        np.testing.assert_allclose(X, Y, atol=1e-12)
        assert np.linalg.matrix_rank(X) == 2

    def test_factors_only_g(self, rng, monkeypatch):
        """On two frames with no cached factor, check_similar runs one SVD,
        of T_G: the residual decides, so F is never factored."""
        G = random_frame(rng, 4, (2, 2, 2))
        F = gf.GFrame(4, tuple(2.0 * B for B in G.blocks))
        calls = count_decompositions(monkeypatch)
        assert duality.check_similar(F, G) is not None
        assert len(calls) == 1
        name, A = calls[0]
        assert name == "svd" and A is G.matrix

    def test_different_range_returns_none(self, mercedes, rng):
        other = random_frame(rng, 2, (1, 1, 1))
        assert duality.check_similar(mercedes, other) is None

    def test_equivalence_composition(self, rng):
        F = random_frame(rng, 4, (2, 2, 1))
        G = gf.canonical_dual(F)
        H = gf.parseval_transform(F)
        X_fg = duality.check_similar(F, G)
        X_gh = duality.check_similar(G, H)
        X_fh = duality.check_similar(F, H)
        assert X_fg is not None and X_gh is not None and X_fh is not None
        np.testing.assert_allclose(X_gh @ X_fg, X_fh, atol=1e-8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@seed(2701)
@settings(max_examples=60, deadline=None)
@given(st.integers(-500, 500), st.integers(0, 2 ** 32 - 1))
@example(-500, 0)
@example(500, 0)
def test_similarity_is_exact_under_powers_of_two(k, seed):
    """check_similar(2^k F, 2^k G) is check_similar(F, G) bit for bit, and a
    pair off each other's range is refused at every k, with no warning: X
    reads G's cached factor, which scales exactly with T_G (see
    GFrame.spectrum)."""
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    Y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    other = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    G, F, H = (GFrame(4, tuple(np.split(A, 3))) for A in (T, T @ Y, other))
    X = duality.check_similar(F, G)
    assert X is not None and duality.check_similar(H, G) is None
    c = 2.0 ** k
    Gk = scaled(G, c)
    np.testing.assert_array_equal(duality.check_similar(scaled(F, c), Gk), X)
    assert duality.check_similar(scaled(H, c), Gk) is None


def _similarity_margin(F, G):
    """The largest blockwise residual of check_similar(F, G)'s X over its
    threshold tol * max(2^e, ||F_j||), with the rule's tol and units."""
    X = duality.check_similar(F, G)
    assert X is not None
    s, r = G.spectrum[0], G.rank()
    tol = max(linalg.TOL_EQ, 16 * np.finfo(np.float64).eps * s[0] / s[r - 1])
    e = linalg.exponent(F.matrix)
    err = np.ldexp(linalg.block_norms(G.matrix @ X - F.matrix, F.block_dims), -e)
    scale = np.maximum(1.0, np.ldexp(linalg.block_norms(F.matrix, F.block_dims), -e))
    return float(np.max(err / (tol * scale)))


@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 1e8, 1e10])
def test_one_solve_leaves_a_tenfold_margin(kappa):
    """check_similar's single least-squares solve, with no refinement, puts
    every blockwise residual below a tenth of its threshold: on G =
    conditioned_frame(kappa) with F = G X0 for cond(X0) = 1, 1e3 and 1e6,
    and, where G is a frame (kappa < 1e6), on the canonical-dual pairs
    (D, G), (G, D) and (F, D), whose D borrows G's cached factor.  The
    worst is about 0.02, at kappa = 1e4.  Where the tolerance is
    16 eps cond(T_G) (kappa above about 3e4), (D, G) reads about 0.09 at
    kappa = 1e5 (a residual of about 1.5 eps cond(T_G)), which a refinement
    step lowers only to about 0.08."""
    G = conditioned_frame(kappa)
    D = gf.canonical_dual(G) if gf.classify(G).is_frame else None
    pairs = [(D, G), (G, D)] if D else []
    rng = np.random.default_rng(7)
    for cond in (1.0, 1e3, 1e6):
        X0 = (random_unitary(16, rng) * np.geomspace(1.0, 1.0 / cond, 16)) @ random_unitary(16, rng)
        F = GFrame._from_matrix(G.matrix @ X0, G.block_dims)
        pairs += [(F, G), (F, D)] if D else [(F, G)]
    assert max(_similarity_margin(*pair) for pair in pairs) <= 0.1


class TestNormDecomposition:
    def test_canonical_dual_has_no_excess(self, rng):
        F = random_frame(rng, 4, (2, 2, 1))
        D = gf.canonical_dual(F)
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a, mid, b = gf.dual_norm_decomposition(F, D, f)
        assert mid <= 1e-12 * b
        assert a == pytest.approx(b, rel=1e-10)

    def test_pythagorean_identity(self, mercedes, rng):
        g0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        alt = gf.construct_alternate_dual(mercedes, g0)
        for _ in range(100):
            f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a, mid, b = gf.dual_norm_decomposition(mercedes, alt, f)
            assert a + mid == pytest.approx(b, rel=1e-9)
            assert a <= b + 1e-10

    def test_zero_vector(self, mercedes):
        D = gf.canonical_dual(mercedes)
        assert gf.dual_norm_decomposition(mercedes, D, np.zeros(2)) == (0, 0, 0)

    def test_not_a_dual(self, mercedes):
        with pytest.raises(NotADual):
            gf.dual_norm_decomposition(mercedes, mercedes, np.ones(2))


class TestGramCharacterization:
    def test_canonical_vs_alternate(self, mercedes):
        can = gf.canonical_dual(mercedes)
        alt = gf.construct_alternate_dual(mercedes, np.array([0.4, 0.9j]))
        assert gf.gram_characterization(mercedes, can, alt)
        assert not gf.gram_characterization(mercedes, alt, can)

    def test_canonical_with_itself(self, mercedes):
        can = gf.canonical_dual(mercedes)
        assert gf.gram_characterization(mercedes, can, can)

    def test_requires_duals(self, mercedes):
        can = gf.canonical_dual(mercedes)
        with pytest.raises(NotADual):
            gf.gram_characterization(mercedes, mercedes, can)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@seed(2701)
@settings(max_examples=40, deadline=None)
@given(st.integers(-500, 500))
@example(-500)
@example(-333)
@example(20)
@example(333)
@example(500)
def test_gram_characterization_on_large_duals(k):
    """On the redundant frame scaled by 2^k, the Gram test tells the
    canonical dual from the alternate one with no warning.  Its product is
    formed from duals scaled by one power of two, so ||M1||, about 4^-k,
    cannot overflow (it did at 1e-100, k = -333), and it is compared at the
    scale ||T_Th||_F^2 with no floor at 1, which made the test vacuous from
    k = 18 up."""
    F = redundant_frame(2.0 ** k)
    can = gf.canonical_dual(F)
    alt = gf.construct_alternate_dual(F, np.array([0.4, 0.9j, 0, 0, 1, 0, 0, -0.3]))
    assert gf.gram_characterization(F, can, alt)
    assert not gf.gram_characterization(F, alt, can)


def test_minimality_across_alternate_duals(rng):
    F = random_frame(rng, 4, (2, 2, 2))
    T_can = analysis(gf.canonical_dual(F))
    for trial in range(5):
        g0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        alt = gf.construct_alternate_dual(F, g0, seed=trial)
        T_alt = analysis(alt)
        for _ in range(50):
            f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert (np.linalg.norm(T_can @ f)
                    <= np.linalg.norm(T_alt @ f) + 1e-10)

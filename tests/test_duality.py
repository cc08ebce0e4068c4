import numpy as np
import pytest

import gframes as gf
from gframes import duality
from gframes.errors import IsRieszBasis, NotADual, ZeroProbe
from gframes.frames import analysis
from gframes.linalg import fro

from conftest import random_frame, random_gon, random_riesz


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
        g0 = np.array([0.3, -0.7 + 0.2j])
        alt = gf.construct_alternate_dual(mercedes, g0)
        can = gf.canonical_dual(mercedes)
        kv = duality.kernel_vector(mercedes)
        off = np.cumsum((0,) + mercedes.block_dims)
        for j, (A, C) in enumerate(zip(alt.blocks, can.blocks)):
            np.testing.assert_allclose(A - C,
                                       np.outer(kv[off[j]:off[j + 1]], g0.conj()),
                                       atol=1e-14)

    def test_riesz_input_rejected(self, rng):
        F = random_gon(rng, 4, (2, 2))
        with pytest.raises(IsRieszBasis):
            gf.construct_alternate_dual(F, np.ones(4))

    def test_zero_probe_rejected(self, mercedes):
        with pytest.raises(ZeroProbe):
            gf.construct_alternate_dual(mercedes, np.zeros(2))

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

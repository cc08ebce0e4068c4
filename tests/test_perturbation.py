import numpy as np
import pytest

import gframes as gf
from gframes.errors import (
    DegenerateTheta,
    NotAFrame,
    PremiseNotVerifiable,
)
from gframes.frames import GFrame
from gframes.linalg import TOL_FLOOR

from conftest import count_decompositions, decomposition_counts, random_frame


def energy(F, f):
    return sum(float(np.linalg.norm(B @ f) ** 2) for B in F.blocks)


def diff_energy(F, G, f):
    return sum(float(np.linalg.norm((B - C) @ f) ** 2)
               for B, C in zip(F.blocks, G.blocks))


class TestOptimalM:
    def test_identical_pair(self, mercedes):
        rep = gf.optimal_M(mercedes, mercedes)
        assert rep.m_opt == pytest.approx(0.0, abs=1e-12)
        assert rep.guaranteed_lower == pytest.approx(1.5 / 2.0)

    def test_doubled_blocks(self, mercedes):
        G = mercedes.map_blocks(lambda B: 2.0 * B)
        rep = gf.optimal_M(mercedes, G)
        assert rep.m_lambda == pytest.approx(1.0, rel=1e-10)
        assert rep.m_theta == pytest.approx(0.25, rel=1e-10)
        assert rep.m_opt == pytest.approx(1.0, rel=1e-10)

    def test_sampling_never_exceeds_m_opt(self, rng):
        F = random_frame(rng, 4, (2, 2, 1))
        G = random_frame(rng, 4, (2, 2, 1))
        rep = gf.optimal_M(F, G)
        for _ in range(500):
            f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            num = diff_energy(F, G, f)
            den = min(energy(F, f), energy(G, f))
            assert num <= rep.m_opt * den * (1.0 + 1e-8)

    def test_maximizer_attains_bound(self, rng):
        """The top eigenvector of the whitened pencil, mapped back, attains
        m_opt as a direct ratio of energies."""
        F = random_frame(rng, 4, (2, 2, 1))
        G = random_frame(rng, 4, (2, 2, 1))
        rep = gf.optimal_M(F, G)
        side = F if rep.m_lambda >= rep.m_theta else G
        _, s, Vh = np.linalg.svd(side.matrix, full_matrices=False)
        W = Vh.conj().T / s   # W† S W = I for the denominator's S
        DW = (F.matrix - G.matrix) @ W
        f = W @ np.linalg.eigh(DW.conj().T @ DW)[1][:, -1]
        den = energy(side, f)
        assert diff_energy(F, G, f) / den == pytest.approx(rep.m_opt, rel=1e-6)

    def test_small_rotation_within_guarantee(self, mercedes):
        eps = 1e-3
        R = np.array([[np.cos(eps), -np.sin(eps)],
                      [np.sin(eps), np.cos(eps)]])
        G = mercedes.map_blocks(lambda B: B @ R)
        rep = gf.optimal_M(mercedes, G)
        assert rep.m_opt < 1e-5
        assert rep.actual_lower >= rep.guaranteed_lower - 1e-12
        assert rep.actual_upper <= rep.guaranteed_upper + 1e-12

    def test_non_frame_rejected(self, mercedes):
        G = mercedes.map_blocks(lambda B: 0.0 * B)
        with pytest.raises(NotAFrame):
            gf.optimal_M(mercedes, G)


class TestOneSidedM:
    def test_identical(self, mercedes):
        m3, lower = gf.one_sided_M(mercedes, mercedes)
        assert m3 == pytest.approx(0.0, abs=1e-12)
        assert lower == pytest.approx(1.5 / 2.0)
        assert lower <= 1.5

    def test_halved_blocks(self, mercedes):
        G = mercedes.map_blocks(lambda B: 0.5 * B)
        m3, lower = gf.one_sided_M(mercedes, G)
        assert m3 == pytest.approx(1.0, rel=1e-10)
        assert lower == pytest.approx(1.5 / 4.0)
        assert gf.frame_bounds(G).lower >= lower - 1e-12

    def test_degenerate_denominator(self, rng):
        F = random_frame(rng, 2, (1, 1))
        G = GFrame(2, (F.blocks[0], np.zeros((1, 2))))
        with pytest.raises(DegenerateTheta):
            gf.one_sided_M(F, G)


class TestGavruta:
    def test_canonical_dual_premise_trivial(self, rng):
        F = random_frame(rng, 4, (2, 2, 1))
        G = gf.canonical_dual(F)
        rep = gf.gavruta_check(F, G, m=1e-10, n=0.0)
        assert rep.m_measured <= 1e-10
        assert rep.actual_lower_theta >= rep.guaranteed_lower_theta - 1e-12
        assert rep.actual_lower_lambda >= rep.guaranteed_lower_lambda - 1e-12

    def test_one_eigendecomposition_per_frame(self, rng, monkeypatch):
        """Every decomposition made through np.linalg is counted (the
        2-norm that np.linalg.norm takes of I - V is a measurement of V, not
        a factorization of a frame): at most one per frame."""
        F = random_frame(rng, 4, (2, 2, 1))
        G = gf.canonical_dual(F)
        F = gf.GFrame(F.hilbert_dim, F.blocks)   # the same family, uncached
        calls = count_decompositions(monkeypatch)
        rep = gf.gavruta_check(F, G, m=1e-10, n=0.0)
        assert sum(decomposition_counts(calls).values()) <= 2
        assert all(A is F.matrix or A is G.matrix for _, A in calls)
        assert rep.actual_lower_lambda == gf.frame_bounds(F).lower
        assert rep.actual_lower_theta == gf.frame_bounds(G).lower
        assert sum(decomposition_counts(calls).values()) <= 2

    @pytest.mark.parametrize("n, expected", [(0.0, 1), (0.1, 0)])
    def test_spectral_norms_taken(self, mercedes, monkeypatch, n, expected):
        """Each np.linalg.norm(., 2) is a hidden SVD: n = 0 takes the one of
        I - V that is its premise constant, and sampling takes none."""
        taken = []
        norm = np.linalg.norm

        def counted(x, ord=None, *args, **kwargs):
            if ord == 2:
                taken.append(x)
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        G = mercedes.map_blocks(lambda B: (2.0 / 3.0) * 1.01 * B)
        gf.gavruta_check(mercedes, G, m=0.5, n=n, samples=50)
        assert len(taken) == expected

    def test_parseval_self(self):
        F = gf.make_gon_basis(4, (2, 2))
        rep = gf.gavruta_check(F, F, m=1e-12, n=0.0)
        assert rep.m_measured <= 1e-12

    def test_scaled_mercedes(self, mercedes):
        eps = 0.01
        G = mercedes.map_blocks(lambda B: (2.0 / 3.0 + eps) * B)
        # V = (1 + 1.5 eps) identity, so the premise holds with m = 1.5 eps
        rep = gf.gavruta_check(mercedes, G, m=1.5 * eps, n=0.0)
        assert rep.m_measured == pytest.approx(1.5 * eps, rel=1e-9)
        assert rep.actual_lower_theta >= rep.guaranteed_lower_theta - 1e-12

    def test_norm_bound(self, rng):
        F = random_frame(rng, 4, (2, 2, 1))
        G = gf.canonical_dual(F).map_blocks(
            lambda B: B + 0.01 * (rng.standard_normal(B.shape)
                                  + 1j * rng.standard_normal(B.shape)))
        gf.gavruta_check(F, G, m=0.9, n=0.0)
        # ||V|| <= ||T_F|| ||T_G|| = sqrt(B1 B2)
        V = gf.analysis(F).conj().T @ gf.analysis(G)
        bound = np.sqrt(gf.frame_bounds(F).upper * gf.frame_bounds(G).upper)
        assert np.linalg.norm(V, 2) <= bound + 1e-9

    def test_nonzero_n_sampling_path(self, mercedes):
        G = mercedes.map_blocks(lambda B: (2.0 / 3.0) * 1.1 * B)
        # V = 1.1 I: ||f - Vf|| = 0.1 ||f|| <= 0 * ||f|| + n ||Vf|| needs
        # n >= 0.1/1.1
        rep = gf.gavruta_check(mercedes, G, m=0.0, n=0.1, samples=500)
        assert rep.premise_holds

    @pytest.mark.parametrize("samples", [1, 700, 5000])
    def test_sampling_matches_per_sample_loop(self, rng, samples):
        F = random_frame(rng, 4, (2, 2, 1))
        G = gf.canonical_dual(F).map_blocks(
            lambda B: B + 0.05 * (rng.standard_normal(B.shape)
                                  + 1j * rng.standard_normal(B.shape)))
        V = gf.analysis(F).conj().T @ gf.analysis(G)
        # n < 0 keeps every residual positive, so each sample competes
        n, seed = -0.5, 8
        ref = np.random.default_rng(seed)
        m_ref, witness, where = 0.0, None, None
        for k in range(samples):
            f = ref.standard_normal(4) + 1j * ref.standard_normal(4)
            f /= np.linalg.norm(f)
            r = np.linalg.norm(f - V @ f) - n * np.linalg.norm(V @ f)
            if r > m_ref:
                m_ref, witness, where = float(r), f, k
        # of 5000 samples the last quarter holds the maximizer, so an
        # evaluation in batches must search every batch
        assert samples < 5000 or where > 4096
        rep = gf.gavruta_check(F, G, m=0.99, n=n, samples=samples, seed=seed)
        assert m_ref > 0.4
        assert abs(rep.m_measured - m_ref) <= 1e-12
        # the same witness: a refuting m makes the check raise with it
        with pytest.raises(PremiseNotVerifiable) as exc:
            gf.gavruta_check(F, G, m=m_ref - 1e-6, n=n, samples=samples,
                             seed=seed)
        np.testing.assert_allclose(exc.value.witness, witness, rtol=0,
                                   atol=1e-15)

    def test_empty_sample_rejected(self, mercedes):
        G = mercedes.map_blocks(lambda B: (2.0 / 3.0) * 1.1 * B)
        for samples in (0, -5):
            with pytest.raises(ValueError):
                gf.gavruta_check(mercedes, G, m=0.0, n=0.1, samples=samples)

    def test_premise_refuted(self, mercedes):
        G = mercedes.map_blocks(lambda B: 3.0 * B)
        with pytest.raises(PremiseNotVerifiable) as exc:
            gf.gavruta_check(mercedes, G, m=0.5, n=0.0)
        # n = 0 spectral path carries no witness; sampling path does
        rep_err = exc.value
        assert "exceeds" in str(rep_err)

    def test_negative_m_reported_vacuous(self, rng):
        # no V meets m < 0 (||f - Vf|| >= 0 > m ||f||), so the premise is
        # vacuously strong; the check accepts it within its TOL_FLOOR slack
        # on m, and for m <= 0 the bounds it guarantees then hold to within
        # a factor (1 + TOL_FLOOR)^2
        F = random_frame(rng, 4, (2, 2, 1))
        G = gf.canonical_dual(F)
        rep = gf.gavruta_check(F, G, m=-1e-11, n=0.0)
        slack = (1.0 + TOL_FLOOR) ** 2
        assert rep.guaranteed_lower_theta <= slack * rep.actual_lower_theta
        assert rep.guaranteed_lower_lambda <= slack * rep.actual_lower_lambda

    def test_adjoint_symmetry(self, rng):
        # W = V† exactly, so the two implied lower bounds hold simultaneously
        F = random_frame(rng, 4, (2, 2, 1))
        G = gf.canonical_dual(F)
        TF = gf.analysis(F)
        TG = gf.analysis(G)
        V = TF.conj().T @ TG
        W = TG.conj().T @ TF
        np.testing.assert_allclose(W, V.conj().T, atol=1e-13)

    def test_bad_m_or_n(self, mercedes):
        with pytest.raises(ValueError):
            gf.gavruta_check(mercedes, mercedes, m=1.0, n=0.0)
        with pytest.raises(ValueError):
            gf.gavruta_check(mercedes, mercedes, m=0.0, n=-1.0)
        # NaN fails every comparison, so it must not pass the premise checks
        with pytest.raises(ValueError):
            gf.gavruta_check(mercedes, mercedes, m=np.nan, n=0.0)
        with pytest.raises(ValueError):
            gf.gavruta_check(mercedes, mercedes, m=0.0, n=np.nan)

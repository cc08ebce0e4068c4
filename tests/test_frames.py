import numpy as np
import pytest

import gframes as gf
from gframes.errors import (
    DimensionMismatch,
    NotAFrame,
    NotUnitary,
    ShapeMismatch,
    Singular,
)
from gframes.linalg import TOL_EQ, fro, random_unitary

from conftest import count_inverse_roots, random_frame, random_gon


def coordinate_slicing():
    return gf.make_gon_basis(4, (2, 2))


class TestAnalysis:
    def test_coordinate_slicing_is_identity(self):
        T = gf.analysis(coordinate_slicing())
        np.testing.assert_allclose(T, np.eye(4), atol=0)

    def test_single_block(self):
        F = gf.GFrame(2, (2.0 * np.eye(2),))
        np.testing.assert_allclose(gf.analysis(F), 2.0 * np.eye(2))

    def test_mercedes_stack_gram(self, mercedes):
        T = gf.analysis(mercedes)
        assert T.shape == (3, 2)
        # oracle: direct 3x2 multiplication
        oracle = np.vstack([B for B in mercedes.blocks])
        np.testing.assert_allclose(T, oracle)
        np.testing.assert_allclose(T.conj().T @ T, 1.5 * np.eye(2), atol=1e-14)

    def test_block_slicing_roundtrip(self, rng):
        F = random_frame(rng, 5, (2, 3, 1))
        stacked = gf.analysis(F)
        off = np.cumsum((0,) + F.block_dims)
        f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        for j, B in enumerate(F.blocks):
            np.testing.assert_allclose(stacked[off[j]:off[j + 1]] @ f, B @ f)


    def test_frames_compare_and_hash_by_identity(self, rng):
        F = random_frame(rng, 4, (2, 2, 1))
        G = gf.GFrame(F.hilbert_dim, F.blocks)
        assert F == F and not F != F
        assert F != G and not F == G
        assert {F, G, F} == {F, G} and len({F, G, F}) == 2


class TestFrameOperator:
    def test_parseval_family(self):
        np.testing.assert_allclose(gf.frame_operator(coordinate_slicing()),
                                   np.eye(4), atol=1e-14)

    def test_mercedes(self, mercedes):
        np.testing.assert_allclose(gf.frame_operator(mercedes),
                                   1.5 * np.eye(2), atol=1e-14)

    def test_riesz_diag(self, rng):
        X = np.diag([2.0, 1.0, 1.0, 1.0]).astype(complex)
        F = gf.make_griesz(coordinate_slicing(), X)
        np.testing.assert_allclose(gf.frame_operator(F),
                                   np.diag([4.0, 1.0, 1.0, 1.0]), atol=1e-14)

    def test_equals_block_sum(self, rng):
        F = random_frame(rng, 4, (2, 2, 3))
        S = sum(B.conj().T @ B for B in F.blocks)
        np.testing.assert_allclose(gf.frame_operator(F), S, atol=1e-13)


class TestFrameBounds:
    def test_parseval_flags(self):
        b = gf.frame_bounds(coordinate_slicing())
        assert b.is_frame and b.is_tight and b.is_parseval
        assert b.lower == pytest.approx(1.0) and b.upper == pytest.approx(1.0)

    def test_mercedes_tight(self, mercedes):
        b = gf.frame_bounds(mercedes)
        assert b.is_tight and not b.is_parseval
        assert b.lower == pytest.approx(1.5) and b.upper == pytest.approx(1.5)

    def test_zero_blocks_not_a_frame(self):
        F = gf.GFrame(2, (np.zeros((2, 2)),))
        b = gf.frame_bounds(F)
        assert not b.is_frame
        assert b.lower == 0.0 and b.upper == 0.0

    def test_sampling_bound(self, rng):
        F = random_frame(rng, 6, (2, 3, 2))
        b = gf.frame_bounds(F)
        for _ in range(200):
            f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            f /= np.linalg.norm(f)
            e = sum(np.linalg.norm(B @ f) ** 2 for B in F.blocks)
            assert b.lower - 1e-9 <= e <= b.upper + 1e-9


class TestCanonicalDual:
    def test_parseval_fixed_point(self):
        F = coordinate_slicing()
        D = gf.canonical_dual(F)
        for B, C in zip(F.blocks, D.blocks):
            np.testing.assert_allclose(B, C, atol=1e-12)

    def test_mercedes_scaled_by_two_thirds(self, mercedes):
        D = gf.canonical_dual(mercedes)
        for B, C in zip(mercedes.blocks, D.blocks):
            np.testing.assert_allclose(C, (2.0 / 3.0) * B, atol=1e-14)
        # measured on the dual's matrix: its cached factor is the frame's
        s = np.linalg.svd(D.matrix, compute_uv=False)
        assert s[-1] ** 2 == pytest.approx(2.0 / 3.0)

    def test_riesz_diag_dual(self):
        X = np.diag([2.0, 1.0, 1.0, 1.0]).astype(complex)
        F = gf.make_griesz(coordinate_slicing(), X)
        D = gf.canonical_dual(F)
        oracle = gf.make_griesz(coordinate_slicing(),
                                np.diag([0.5, 1.0, 1.0, 1.0]).astype(complex))
        for B, C in zip(oracle.blocks, D.blocks):
            np.testing.assert_allclose(B, C, atol=1e-14)
        s = np.linalg.svd(D.matrix, compute_uv=False)
        assert s[-1] ** 2 == pytest.approx(0.25) and s[0] ** 2 == pytest.approx(1.0)

    def test_reciprocal_bounds_and_double_dual(self, rng):
        F = random_frame(rng, 5, (2, 2, 2))
        b = gf.frame_bounds(F)
        D = gf.canonical_dual(F)
        # measured on the dual's matrix: its cached factor is F's
        s = np.linalg.svd(D.matrix, compute_uv=False)
        assert s[-1] ** 2 == pytest.approx(1.0 / b.upper, rel=1e-8)
        assert s[0] ** 2 == pytest.approx(1.0 / b.lower, rel=1e-8)
        # the dual of D's blocks, refactored: D's stored factor would give
        # back F's own factor, whatever D's matrix holds
        DD = gf.canonical_dual(gf.GFrame(D.hilbert_dim, D.blocks))
        for B, C in zip(F.blocks, DD.blocks):
            assert fro(B - C) <= 1e-8 * max(1.0, fro(B))

    def test_resolution_of_identity(self, rng):
        F = random_frame(rng, 4, (3, 2))
        D = gf.canonical_dual(F)
        S1 = sum(B.conj().T @ C for B, C in zip(F.blocks, D.blocks))
        S2 = sum(C.conj().T @ B for B, C in zip(F.blocks, D.blocks))
        assert fro(S1 - np.eye(4)) <= 1e-9
        assert fro(S2 - np.eye(4)) <= 1e-9

    def test_non_frame_raises(self):
        F = gf.GFrame(2, (np.zeros((2, 2)),))
        with pytest.raises(NotAFrame):
            gf.canonical_dual(F)

    def test_formed_once_per_frame(self, rng, monkeypatch):
        formed = count_inverse_roots(monkeypatch)
        F = random_frame(rng, 4, (3, 2))
        D = gf.canonical_dual(F)
        assert gf.canonical_dual(F) is D
        gf.construct_alternate_dual(F, np.ones(4))
        gf.dual_norm_decomposition(F, D, np.ones(4))
        assert formed == [2]


class TestParsevalTransform:
    def test_parseval_fixed_point(self):
        F = coordinate_slicing()
        P = gf.parseval_transform(F)
        for B, C in zip(F.blocks, P.blocks):
            np.testing.assert_allclose(B, C, atol=1e-12)

    def test_mercedes_scaled(self, mercedes):
        P = gf.parseval_transform(mercedes)
        for B, C in zip(mercedes.blocks, P.blocks):
            np.testing.assert_allclose(C, np.sqrt(2.0 / 3.0) * B, atol=1e-14)
        assert fro(gf.frame_operator(P) - np.eye(2)) <= 1e-12

    def test_riesz_input_becomes_on_basis(self, rng):
        X = np.diag([2.0, 1.0, 1.0, 1.0]).astype(complex)
        F = gf.make_griesz(random_gon(rng, 4, (2, 2)), X)
        P = gf.parseval_transform(F)
        assert gf.classify(P).is_on_basis

    def test_idempotent(self, rng):
        F = random_frame(rng, 4, (2, 2, 1))
        P1 = gf.parseval_transform(F)
        P2 = gf.parseval_transform(P1)
        for B, C in zip(P1.blocks, P2.blocks):
            assert fro(B - C) <= 1e-9


class TestClassify:
    def test_coordinate_slicing_all_true(self):
        c = gf.classify(coordinate_slicing())
        assert all([c.is_bessel, c.is_frame, c.is_complete,
                    c.is_orthonormal_set, c.is_on_basis, c.is_riesz_basis])

    def test_mercedes_overcomplete(self, mercedes):
        c = gf.classify(mercedes)
        assert c.is_frame and c.is_complete
        assert not c.is_riesz_basis and not c.is_on_basis

    def test_riesz_non_unitary(self, rng):
        X = np.diag([2.0, 1.0, 1.0, 1.0]).astype(complex)
        F = gf.make_griesz(random_gon(rng, 4, (2, 2)), X)
        c = gf.classify(F)
        assert c.is_riesz_basis and not c.is_on_basis

    def test_incomplete_family(self):
        F = gf.GFrame(3, (np.array([[1.0, 0.0, 0.0]]),))
        c = gf.classify(F)
        assert not c.is_complete and not c.is_frame

    def test_rank_from_cached_singular_values(self, rng):
        M = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 5))
        assert gf.GFrame(5, (M,)).rank() == 3

    def test_gon_coisometry(self, rng):
        # analysis operator of an o.n. operator basis is unitary onto the stack
        F = random_gon(rng, 6, (2, 2, 2))
        T = gf.analysis(F)
        assert fro(T @ T.conj().T - np.eye(6)) <= 1e-10


class TestDualPairAndBiorthogonality:
    def test_canonical_dual_is_dual(self, rng):
        F = random_frame(rng, 4, (2, 2, 2))
        assert gf.check_dual_pair(F, gf.canonical_dual(F))
        assert gf.check_dual_pair(gf.canonical_dual(F), F)

    def test_parseval_self_dual(self):
        F = coordinate_slicing()
        assert gf.check_dual_pair(F, F)

    def test_mercedes_not_self_dual(self, mercedes):
        assert not gf.check_dual_pair(mercedes, mercedes)

    def test_shape_mismatch(self, mercedes):
        with pytest.raises(ShapeMismatch):
            gf.check_dual_pair(mercedes, coordinate_slicing())

    def test_gon_self_biorthogonal(self, rng):
        F = random_gon(rng, 4, (2, 2))
        assert gf.check_biorthogonal(F, F)

    def test_riesz_biorthogonal_with_dual(self, rng):
        X = np.diag([2.0, 1.0, 1.0, 1.0]).astype(complex) + 0.1 * random_unitary(4, rng)
        F = gf.make_griesz(random_gon(rng, 4, (2, 2)), X)
        assert gf.check_biorthogonal(F, gf.canonical_dual(F))

    def test_mercedes_not_biorthogonal_with_dual(self, mercedes):
        assert not gf.check_biorthogonal(mercedes, gf.canonical_dual(mercedes))


class TestGenerators:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gf.make_gon_basis(3, (2, 2))

    def test_rotated_gon_passes_checks(self, rng):
        F = random_gon(rng, 4, (2, 2))
        assert gf.classify(F).is_on_basis

    def test_rejects_non_unitary_rotation(self):
        with pytest.raises(NotUnitary):
            gf.make_gon_basis(2, (1, 1), rotation=np.diag([2.0, 1.0]))

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("dims", [(1,) * 6, (3, 1, 2), (6,)],
                             ids=["one-row", "uneven", "one-block"])
    def test_rotation_rule_is_classify(self, rng, dims, factor):
        """make_gon_basis takes a rotation exactly when classify calls the
        rotated family an orthonormal basis.  Row 0 of a random unitary is
        scaled by 1 + eps, so the Gram's first block is off the identity by
        2 eps + eps^2 against its norm sqrt(d_0), to 1e-10: eps is `factor`
        times the blockwise threshold."""
        eps = factor * TOL_EQ * np.sqrt(dims[0]) / 2
        U = random_unitary(6, rng)
        U[0] *= 1.0 + eps
        expected = gf.classify(gf.GFrame(6, tuple(np.split(U, np.cumsum(dims)[:-1])))).is_on_basis
        assert expected == (factor < 1.0)
        try:
            gf.make_gon_basis(6, dims, rotation=U)
        except NotUnitary:
            assert not expected
        else:
            assert expected

    def test_rotation_of_the_wrong_shape(self):
        with pytest.raises(NotUnitary, match="must be square"):
            gf.make_gon_basis(2, (1, 1), rotation=np.eye(3)[:2])
        with pytest.raises(DimensionMismatch):
            gf.make_gon_basis(2, (1, 1), rotation=np.eye(3))

    def test_griesz_identity_factor(self, rng):
        gon = random_gon(rng, 4, (2, 2))
        F = gf.make_griesz(gon, np.eye(4))
        for B, C in zip(gon.blocks, F.blocks):
            np.testing.assert_allclose(B, C)

    def test_griesz_diag_bounds(self):
        F = gf.make_griesz(coordinate_slicing(),
                           np.diag([2.0, 1.0, 1.0, 1.0]).astype(complex))
        b = gf.frame_bounds(F)
        assert b.lower == pytest.approx(1.0) and b.upper == pytest.approx(4.0)

    def test_griesz_scaled_unitary_tight(self, rng):
        X = 2.0 * random_unitary(4, rng)
        F = gf.make_griesz(coordinate_slicing(), X)
        b = gf.frame_bounds(F)
        assert b.is_tight and b.lower == pytest.approx(4.0)

    def test_griesz_rejects_singular(self):
        with pytest.raises(Singular):
            gf.make_griesz(coordinate_slicing(),
                           np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("diagonal, ratio2", [
        ((1.0, 1.0, 0.0), "0.000e+00"), ((1.0, 1.0, 1e-320), "0.000e+00"),
        ((1e200, 1.0, 1e-200), "0.000e+00"), ((1.0, 1.0, 1e-7), "1.000e-14")],
        ids=["zero", "subnormal", "wide", "ill-conditioned"])
    def test_griesz_singular_reports_the_ratio_it_read(self, diagonal, ratio2):
        """Singular names the (sigma_min / sigma_max)^2 that the frame rule
        read, 0 for a singular X, with no division that can overflow: at
        diag(1e200, 1, 1e-200) no warning escapes."""
        with pytest.raises(Singular) as raised:
            gf.make_griesz(gf.make_gon_basis(3, (1, 1, 1)), np.diag(diagonal))
        assert f"(sigma_min / sigma_max)^2 = {ratio2}," in str(raised.value)

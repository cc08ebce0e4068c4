import numpy as np
import pytest

import gframes as gf
from gframes import GFrame, linalg
from gframes.errors import NonFinite


def test_make_griesz_rejects_non_finite_factor():
    gon = gf.make_gon_basis(2, (1, 1))
    with pytest.raises(NonFinite):
        gf.make_griesz(gon, np.array([[np.nan, 0.0], [0.0, 1.0]]))


def range_basis(M):
    """Orthonormal basis of the column space of M, from `GFrame.range_basis`
    of the one-block family with analysis matrix M."""
    return GFrame(M.shape[1], (M,)).range_basis()


def projector(M):
    """The range projector U U† formed from `range_basis`."""
    U = range_basis(M)
    return U @ U.conj().T


class TestRangeProjector:
    def test_zero_matrix(self):
        P = projector(np.zeros((3, 2)))
        assert not P.any()

    def test_identity(self):
        np.testing.assert_allclose(projector(np.eye(3)), np.eye(3),
                                   atol=1e-12)

    def test_tall_full_rank_matches_normal_equations(self, rng):
        M = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        P = projector(M)
        oracle = M @ np.linalg.inv(M.conj().T @ M) @ M.conj().T
        np.testing.assert_allclose(P, oracle, atol=1e-10)
        assert abs(np.trace(P).real - 2.0) <= 1e-10

    def test_idempotent_hermitian_fixes_columns(self, rng):
        M = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        P = projector(M)
        assert np.linalg.norm(P @ P - P) <= 1e-10
        assert np.linalg.norm(P - P.conj().T) <= 1e-10
        assert np.linalg.norm(P @ M - M) <= 1e-10 * np.linalg.norm(M)


class TestProjectorGap:
    @staticmethod
    def dense_gap(A, B):
        """||P_A - P_B||_F with both projectors formed from pseudo-inverses."""
        return np.linalg.norm(A @ np.linalg.pinv(A) - B @ np.linalg.pinv(B))

    @pytest.mark.parametrize("m, n", [(6, 3), (40, 5), (9, 9)])
    def test_matches_dense_projectors(self, rng, m, n):
        for _ in range(5):
            A = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            B = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            for other in (A @ X, B):   # the same range, and another one
                gap = linalg.projector_gap(range_basis(A),
                                           range_basis(other))
                assert abs(gap - self.dense_gap(A, other)) <= 1e-12

    def test_nested_ranges_of_unequal_rank(self, rng):
        G = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
        A = G @ rng.standard_normal((2, 4))
        B = np.hstack([G, rng.standard_normal((7, 2))])
        gap = linalg.projector_gap(range_basis(A), range_basis(B))
        assert abs(gap - self.dense_gap(A, B)) <= 1e-12
        # P_B - P_A projects onto a 2-dim complement
        assert gap == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_random_unitary_is_unitary(rng):
    U = linalg.random_unitary(7, rng)
    assert np.linalg.norm(U.conj().T @ U - np.eye(7)) <= 1e-12


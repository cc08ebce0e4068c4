import numpy as np
import pytest

from gframes import linalg
from gframes.errors import NonFinite, NotHermitian, NotPositiveDefinite


def random_hermitian(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2


class TestHermEig:
    def test_identity(self):
        w, Q = linalg.herm_eig(np.eye(3))
        np.testing.assert_allclose(w, [1, 1, 1])

    def test_diagonal_sorted_ascending(self):
        w, _ = linalg.herm_eig(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(w, [1.0, 4.0])

    def test_reconstruction(self, rng):
        M = random_hermitian(rng, 6)
        w, Q = linalg.herm_eig(M)
        err = np.linalg.norm((Q * w) @ Q.conj().T - M)
        assert err <= 1e-10 * np.linalg.norm(M)
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(6)) <= 1e-12

    def test_rejects_nonhermitian(self):
        with pytest.raises(NotHermitian):
            linalg.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nan(self):
        with pytest.raises(NonFinite):
            linalg.herm_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rayleigh_quotient_within_spectral_extremes(self, rng):
        M = random_hermitian(rng, 5)
        w, _ = linalg.herm_eig(M)
        lo = hi = None
        for _ in range(200):
            f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            r = (np.vdot(f, M @ f) / np.vdot(f, f)).real
            lo = r if lo is None else min(lo, r)
            hi = r if hi is None else max(hi, r)
        assert w[0] - 1e-8 <= lo and hi <= w[-1] + 1e-8


class TestHermFunc:
    def test_diag_sqrt(self):
        out = linalg.herm_func(np.diag([4.0, 1.0]), "sqrt")
        np.testing.assert_allclose(out, np.diag([2.0, 1.0]), atol=1e-12)

    def test_diag_inv_sqrt(self):
        out = linalg.herm_func(np.diag([4.0, 1.0]), "inv_sqrt")
        np.testing.assert_allclose(out, np.diag([0.5, 1.0]), atol=1e-12)

    def test_inverse_multiplies_back(self, rng):
        X = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        S = X.conj().T @ X + np.eye(5)  # comfortably invertible
        Si = linalg.herm_func(S, "inverse")
        assert np.linalg.norm(S @ Si - np.eye(5)) <= 1e-10 * np.linalg.norm(S)

    def test_sqrt_squares_back(self, rng):
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        S = X.conj().T @ X + 0.1 * np.eye(4)
        R = linalg.herm_func(S, "sqrt")
        assert np.linalg.norm(R @ R - S) <= 1e-10 * np.linalg.norm(S)

    def test_composition_is_identity(self, rng):
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        S = X.conj().T @ X + 0.1 * np.eye(4)
        a = linalg.herm_func(S, "inv_sqrt")
        b = linalg.herm_func(S, "sqrt")
        out = a @ b @ b @ a
        assert np.linalg.norm(out - np.eye(4)) <= 1e-9

    def test_several_functions_match_single_ones(self, rng):
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        S = X.conj().T @ X + 0.1 * np.eye(4)
        kinds = ("sqrt", "inv_sqrt", "inverse")
        for kind, out in zip(kinds, linalg.herm_funcs(S, kinds)):
            np.testing.assert_array_equal(out, linalg.herm_func(S, kind))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.herm_func(np.diag([1.0, -1.0]), "sqrt")
        with pytest.raises(NotPositiveDefinite):
            linalg.herm_funcs(np.diag([1.0, -1.0]), ("sqrt", "inverse"))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            linalg.herm_func(np.eye(2), "exp")


def projector(M):
    """The range projector U U† formed from `range_basis`."""
    U = linalg.range_basis(M)
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
                gap = linalg.projector_gap(linalg.range_basis(A),
                                           linalg.range_basis(other))
                assert abs(gap - self.dense_gap(A, other)) <= 1e-12

    def test_nested_ranges_of_unequal_rank(self, rng):
        G = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
        A = G @ rng.standard_normal((2, 4))
        B = np.hstack([G, rng.standard_normal((7, 2))])
        gap = linalg.projector_gap(linalg.range_basis(A), linalg.range_basis(B))
        assert abs(gap - self.dense_gap(A, B)) <= 1e-12
        # P_B - P_A projects onto a 2-dim complement
        assert gap == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_random_unitary_is_unitary(rng):
    U = linalg.random_unitary(7, rng)
    assert np.linalg.norm(U.conj().T @ U - np.eye(7)) <= 1e-12


def test_numerical_rank(rng):
    M = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 5))
    assert linalg.numerical_rank(M) == 3

import numpy as np
import pytest

import gframes as gf
from gframes import GFrame, linalg
from gframes.errors import NonFinite, NotUnitary, PremiseNotVerifiable


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


def test_overflowing_product_is_not_unitary():
    # A†A overflows to inf and NaN entries, and a NaN defect is never within
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NotUnitary):
            linalg.check_unitary(np.array([[1e200, 1e200], [1e200, -1e200]]))


class TestWithin:
    """linalg.within: every entry of `measured` at most tol * max(1, scale)."""

    def test_floor_holds_below_scale_one(self):
        for scale in (0.0, 2.0 ** -40, 0.5):
            assert linalg.within(0.9e-10, 1e-10, scale)
            assert not linalg.within(1.1e-10, 1e-10, scale)

    def test_relative_above_scale_one(self):
        for scale in (2.0, 2.0 ** 40):
            assert linalg.within(0.9e-10 * scale, 1e-10, scale)
            assert not linalg.within(1.1e-10 * scale, 1e-10, scale)

    def test_elementwise_over_block_norms(self):
        scales = np.array([0.5, 1.0, 4.0])
        assert linalg.within(np.array([1e-10, 1e-10, 4e-10]), 1e-10, scales)
        assert not linalg.within(np.array([1e-10, 1e-10, 5e-10]), 1e-10, scales)
        assert not linalg.within(np.array([2e-10, 1e-10, 1e-10]), 1e-10, scales)

    def test_floor_is_unit_in_power_of_two_units(self):
        unit = 2.0 ** -60   # the value of 1 in the units compared
        for scale in (0.5 * unit, 4.0 * unit):
            assert linalg.within(0.9e-10 * max(unit, scale), 1e-10, scale, unit)
            assert not linalg.within(1.1e-10 * max(unit, scale), 1e-10, scale, unit)
        # a unit that underflowed to 0 leaves the test relative
        assert linalg.within(0.9e-10, 1e-10, 1.0, 0.0)
        assert not linalg.within(1e-300, 1e-10, 0.0, 0.0)

    def test_nan_is_never_within(self):
        assert not linalg.within(np.nan, 1e-10)
        assert not linalg.within(0.0, 1e-10, np.nan)
        assert not linalg.within(np.array([0.0, np.nan]), 1e-10, np.array([1.0, 1.0]))
        assert not linalg.within(np.array([0.0, 0.0]), 1e-10, np.array([1.0, np.nan]))


# n = 8: the norm 2 sqrt(2) of the identity, the scale of a dual pair and of
# a unitary, is large enough that a site comparing at scale 1 would fail
N = 8


def _frame(top, c):
    """The (N + 2) x N frame c [top; 0] in two blocks of N / 2 + 1 rows."""
    return GFrame(N, tuple(np.split(c * np.vstack([top, np.zeros((2, N))]), 2)))


def _diag(first):
    return np.diag([first] + [1.0] * (N - 1))


def _dual_pair(factor, c):
    # T_G† T_F = diag(1 + eps, 1, ...), whose norm is sqrt(N) to 1e-10
    eps = factor * linalg.TOL_EQ * np.sqrt(N)
    return gf.check_dual_pair(_frame(np.eye(N), c), _frame(_diag(1.0 + eps), 1 / c))


def _gram(factor, c):
    # Th = G + e_N g† with G the canonical dual, so M1 - M2 = g g†, of norm
    # |g|^2, and M1 = I / c^2 + g g†
    g2 = factor * linalg.TOL_EQ * max(1.0, np.sqrt(N) / c ** 2)
    F, G = _frame(np.eye(N), c), _frame(np.eye(N), 1 / c)
    T = G.matrix.copy()
    T[N, 0] = np.sqrt(g2)
    return gf.duality.gram_characterization(F, GFrame._from_matrix(T, G.block_dims), G)


def _unitary(factor, c):
    # ||A†A - I|| = 2 eps + eps^2 and ||A|| = sqrt(N), to 1e-10
    try:
        linalg.check_unitary(_diag(1.0 + factor * linalg.TOL_EQ * np.sqrt(N) / 2))
    except NotUnitary:
        return False
    return True


def _similar(factor, c):
    # F is G plus d on row N, off G's range, in the first block of N + 1
    # rows: that block's residual is d, against ||F_1|| = c sqrt(N) to 1e-10
    d = factor * linalg.TOL_EQ * max(1.0, c * np.sqrt(N))
    TG = c * np.vstack([np.eye(N), np.zeros((2, N))])
    TF = TG.copy()
    TF[N, 0] = d
    G, F = GFrame._from_matrix(TG, (N + 1, 1)), GFrame._from_matrix(TF, (N + 1, 1))
    return gf.duality.check_similar(F, G) is not None


def _tight(factor, c):
    # (sigma_min / sigma_max)^2 = 1 - delta
    delta = factor * linalg.TOL_EQ
    return gf.frame_bounds(_frame(_diag(np.sqrt(1.0 - delta)), c)).is_tight


def _gavruta(factor, c):
    # I - V = diag(eps, 0, ...), so sigma_max(I - V) - m = factor * TOL_FLOOR
    m = 0.25
    eps = m + factor * linalg.TOL_FLOOR
    try:
        gf.gavruta_check(_frame(np.eye(N), c), _frame(_diag(1.0 - eps), 1 / c), m, 0.0)
    except PremiseNotVerifiable:
        return False
    return True


# check_unitary compares with the identity, which has no scale; check_similar's
# blockwise test is reached only past the scale-free range test at
# PROJECTOR_TOL, so a defect at its floor needs blocks above about 1e-2
_SITES = [(_dual_pair, (-40, 40)), (_gram, (-40, 40)), (_unitary, (0,)),
          (_similar, (-4, 40)), (_tight, (-40, 40)), (_gavruta, (-40, 40))]


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("site, k", [
    pytest.param(site, k, id=f"{site.__name__[1:]}-2^{k}")
    for site, ks in _SITES for k in ks])
def test_each_decision_sits_on_its_threshold(site, k, factor):
    """Each equality decision accepts a defect of half its threshold and
    rejects one of twice it, at frames scaled by 2^k: the threshold is the
    rule's tol * max(1, scale) with the site's scale, and TOL_FLOOR for the
    Gavruta premise."""
    assert site(factor, 2.0 ** k) == (factor < 1.0)

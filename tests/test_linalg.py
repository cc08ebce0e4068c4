import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


def test_random_unitary_is_unitary(rng):
    U = linalg.random_unitary(7, rng)
    assert np.linalg.norm(U.conj().T @ U - np.eye(7)) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_product_is_not_unitary():
    # the plain A†A overflows; check_unitary forms it from A scaled by a
    # power of two, so it raises NotUnitary with no warning, here and
    # through make_gon_basis's rotation
    A = np.array([[1e200, 1e200], [1e200, -1e200]])
    with pytest.raises(NotUnitary):
        linalg.check_unitary(A)
    with pytest.raises(NotUnitary):
        gf.make_gon_basis(2, (1, 1), rotation=A)
    # the same matrix scaled to a unitary passes
    linalg.check_unitary(A / (np.sqrt(2.0) * 1e200))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.integers(-500, 500), st.integers(0, 2 ** 32 - 1))
@example(300, 0)
@example(0, 0)
def test_identity_rule_at_every_scale(k, seed):
    """On a random 6 x 3 frame F scaled by 2^k, with no warning: F and its
    canonical dual are a dual pair, F is not its own dual, and 2^k U is
    unitary only at k = 0.  The identity Gram is formed from factors scaled
    by powers of two, so T_F† T_F at 2^300 does not overflow."""
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    F = GFrame(3, tuple(np.split(2.0 ** k * T, 3)))
    assert gf.check_dual_pair(F, gf.canonical_dual(F))
    assert not gf.check_dual_pair(F, F)
    U = 2.0 ** k * linalg.random_unitary(3, rng)
    if k == 0:
        linalg.check_unitary(U)
    else:
        with pytest.raises(NotUnitary):
            linalg.check_unitary(U)


class TestExponent:
    """linalg.exponent: the e with the largest real or imaginary part in
    [2^(e-1), 2^e)."""

    def test_powers_of_two_and_their_neighbours(self):
        for k in (-1073, -1022, -40, 0, 40, 1023):
            x = 2.0 ** k
            assert linalg.exponent(np.array([[x]])) == k + 1
            assert linalg.exponent(np.array([[np.nextafter(x, 0.0)]])) == k
        assert linalg.exponent(np.array([[np.finfo(np.float64).max]])) == 1024

    def test_reads_the_largest_part_of_either_sign(self):
        assert linalg.exponent(np.array([[0.3 - 5.0j, 1.0]])) == 3
        assert linalg.exponent(np.array([[-0.75j, 0.5]])) == 0
        # a column slice of a matrix, not contiguous in memory
        M = np.array([[3.0, 100.0], [-6.0j, 0.0]])
        assert linalg.exponent(M[:, 0]) == 3

    def test_zero_and_empty(self):
        assert linalg.exponent(np.zeros((2, 3), dtype=complex)) == 0
        assert linalg.exponent(np.zeros((0, 3), dtype=complex)) == 0


class TestWithin:
    """linalg.within: every entry of `measured` at most tol * scale, with no
    floor.  The floors that gram_rules and check_similar apply at their calls
    are pinned by every orthonormal-basis test and by the _similar_floor
    site below."""

    def test_relative_below_scale_one(self):
        for scale in (2.0 ** -1000, 2.0 ** -40, 0.5):
            assert linalg.within(0.9e-10 * scale, 1e-10, scale)
            assert not linalg.within(1.1e-10 * scale, 1e-10, scale)
        assert linalg.within(0.0, 1e-10, 0.0)
        assert not linalg.within(1e-300, 1e-10, 0.0)

    def test_relative_above_scale_one(self):
        for scale in (2.0, 2.0 ** 40):
            assert linalg.within(0.9e-10 * scale, 1e-10, scale)
            assert not linalg.within(1.1e-10 * scale, 1e-10, scale)

    def test_elementwise_over_block_norms(self):
        scales = np.array([0.5, 1.0, 4.0])
        assert linalg.within(np.array([0.5e-10, 1e-10, 4e-10]), 1e-10, scales)
        assert not linalg.within(np.array([0.5e-10, 1e-10, 5e-10]), 1e-10, scales)
        assert not linalg.within(np.array([0.6e-10, 1e-10, 1e-10]), 1e-10, scales)

    def test_no_floor_below_scale_one(self):
        """A defect below tol, at a scale below 1, is not within: the rule
        has no floor at 1, in any units."""
        for scale in (0.5, 2.0 ** -60, 0.0):
            assert not linalg.within(0.9e-10, 1e-10, scale)

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
    # Th = G + e_N g† with G the canonical dual, so T_Th†(T_Th - T_G) = g g†,
    # of norm |g|^2, at the scale ||T_Th||_F^2 = N / c^2 + |g|^2, no floor
    g2 = factor * linalg.TOL_EQ * N / c ** 2
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
    # rows: that block's residual is d, against ||F_1|| = c sqrt(N) to 1e-10,
    # above the floor 2c, T_F's power-of-two unit
    d = factor * linalg.TOL_EQ * c * np.sqrt(N)
    TG = c * np.vstack([np.eye(N), np.zeros((2, N))])
    TF = TG.copy()
    TF[N, 0] = d
    G, F = GFrame._from_matrix(TG, (N + 1, 1)), GFrame._from_matrix(TF, (N + 1, 1))
    return gf.duality.check_similar(F, G) is not None


def _similar_floor(factor, c):
    # F is G plus d in a one-row block of its own, where G is 0: that block's
    # residual is d, all of ||F_2||, so only the floor 2c, T_F's power-of-two
    # unit, accepts it
    d = factor * linalg.TOL_EQ * 2 * c
    TG = c * np.vstack([np.eye(N), np.zeros((1, N))])
    TF = TG.copy()
    TF[N, 0] = d
    G, F = GFrame._from_matrix(TG, (N, 1)), GFrame._from_matrix(TF, (N, 1))
    return gf.duality.check_similar(F, G) is not None


def _biorthogonal(factor, c):
    # T_G T_F† = diag(1 + eps, 1, ...) for F = c I and G = diag(1 + eps, 1,
    # ...) / c in two blocks of N / 2 rows: the first block's defect eps
    # against its norm sqrt(N / 2) = 2, to 1e-10
    eps = factor * linalg.TOL_EQ * 2
    F = GFrame(N, tuple(np.split(c * np.eye(N), 2)))
    return gf.check_biorthogonal(F, GFrame(N, tuple(np.split(_diag(1.0 + eps) / c, 2))))


def _rank(factor, c):
    # sigma_min = factor * TOL_RANK * sigma_max: True when the rank rule
    # counts it as zero, so the frame is not complete
    return not gf.classify(_frame(_diag(factor * linalg.TOL_RANK), c)).is_complete


def _parseval(factor, c):
    # every sigma^2 is 1 + delta, so the frame is tight and the lower bound
    # is 1 + delta
    delta = factor * linalg.TOL_EQ
    return gf.frame_bounds(_frame(np.sqrt(1.0 + delta) * np.eye(N), c)).is_parseval


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


# check_unitary compares with the identity and Parseval's rule with a bound
# of 1, neither of which has a scale
_SITES = [(_dual_pair, (-40, 40)), (_gram, (-40, 40)), (_unitary, (0,)),
          (_similar, (-40, -4, 40)), (_similar_floor, (-40, 40)), (_tight, (-40, 40)),
          (_gavruta, (-40, 40)), (_biorthogonal, (-40, 40)), (_rank, (-40, 40)),
          (_parseval, (0,))]


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("site, k", [
    pytest.param(site, k, id=f"{site.__name__[1:]}-2^{k}")
    for site, ks in _SITES for k in ks])
def test_each_decision_sits_on_its_threshold(site, k, factor):
    """Each equality decision accepts a defect of half its threshold and
    rejects one of twice it, at frames scaled by 2^k: the threshold is the
    rule's tol * scale with the site's scale, floored at the unit for the
    identity and similarity sites, and TOL_FLOOR for the Gavruta premise.
    The rank rule counts a singular value of half TOL_RANK * sigma_max as
    zero and one of twice it as nonzero."""
    assert site(factor, 2.0 ** k) == (factor < 1.0)

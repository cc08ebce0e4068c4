"""The stored analysis matrix and its one cached factorization.

Every derivation from the cached (sigma, V†, U) is checked against an
independent numpy reference at cond(S) = 1, 1e4 and 1e8, on frames built as
T = U diag(sigma) V† so that the exact answers are known too.  References
that form S = T†T are accurate only to about eps * cond(S); the exact ones
hold the code to eps * cond(T), which a route through S would miss at
cond(S) = 1e8.
"""
import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

import gframes as gf
from gframes import duality, frame_io, frames, linalg, perturbation
from gframes.errors import NonFinite, NotOnBasis, ShapeMismatch, Singular
from gframes.linalg import TOL_EQ, TOL_PD, TOL_RANK, fro, random_unitary

from conftest import (
    conditioned_frame,
    count_decompositions,
    decomposition_counts,
    on_basis_cases,
    projector_gap,
    random_gon,
    traced_peak,
)

EPS = np.finfo(float).eps
KAPPAS = (1.0, 1e4, 1e8)


def conditioned(rng, kappa, n=12, blocks=10, rows=3):
    """A frame T = U diag(sigma) V† with cond(S) = kappa, and U, sigma, V."""
    U = random_unitary(blocks * rows, rng)[:, :n]
    V = random_unitary(n, rng)
    s = np.geomspace(1.0, kappa ** -0.5, n)
    T = (U * s) @ V.conj().T
    return gf.GFrame(n, tuple(np.split(T, blocks))), U, s, V


def rel(A, B):
    return np.linalg.norm(A - B) / np.linalg.norm(B)


def classify_reference(F, tol_eq=TOL_EQ, tol_rank=TOL_RANK, tol_pd=TOL_PD):
    """classify as written with per-block loops: the bounds from eigvalsh of
    S, the rank from a second SVD, and the J^2 loop of block products.  The
    orthonormal-basis flag keeps the independent rule ||S - I||_F <=
    tol * max(1, n), which agrees with orthonormal set and Riesz basis at
    the default tolerance."""
    T = np.vstack(F.blocks)
    n, m = F.hilbert_dim, T.shape[0]
    S = T.conj().T @ T
    w = np.linalg.eigvalsh((S + S.conj().T) / 2.0)
    is_frame = max(w[0], 0.0) > tol_pd * max(w[-1], 0.0)
    s = np.linalg.svd(T, compute_uv=False)
    rank = int(np.sum(s > tol_rank * s[0]))
    on_set = True
    for j, Bj in enumerate(F.blocks):
        for k, Bk in enumerate(F.blocks):
            G = Bj @ Bk.conj().T
            target = np.eye(len(Bj)) if j == k else 0.0
            on_set &= fro(G - target) <= tol_eq * max(1.0, fro(G))
    on_basis = on_set and fro(S - np.eye(n)) <= tol_eq * max(1.0, float(n))
    return dict(is_bessel=True, is_frame=is_frame, is_complete=rank == n,
                is_orthonormal_set=on_set, is_on_basis=on_basis,
                is_riesz_basis=(is_frame and rank == m) or on_basis)


class TestStoredMatrix:
    def test_split_blocks_share_the_array(self, rng):
        """Consecutive slices of T are stacked into the frame's own copy of
        T, and the frame's blocks are views of that one array."""
        T = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
        for blocks in (np.split(T, [2, 5]), [T[0:3], T[3:4], T[4:9]], [T]):
            F = gf.GFrame(4, tuple(blocks))
            assert not np.shares_memory(F.matrix, T)
            np.testing.assert_array_equal(F.matrix, T)
            assert all(np.shares_memory(B, F.matrix) for B in F.blocks)

    def test_frame_of_frame_blocks_shares_the_matrix(self, rng):
        """A frame built from another frame's blocks holds an equal matrix
        of its own, which its blocks share."""
        F = gf.GFrame(4, tuple(rng.standard_normal((3, 4)) for _ in range(3)))
        G = gf.GFrame(4, F.blocks)
        assert not np.shares_memory(G.matrix, F.matrix)
        np.testing.assert_array_equal(G.matrix, F.matrix)
        assert all(np.shares_memory(B, G.matrix) for B in G.blocks)

    def test_other_blocks_are_stacked_once(self, rng):
        """Whatever the blocks are, the frame stacks them once into a matrix
        of its own."""
        T = rng.standard_normal((9, 6)) + 1j * rng.standard_normal((9, 6))
        cases = [
            [T[0:2], T[3:5]],               # a gap between the slices
            [T[3:5], T[0:3]],               # out of order
            list(np.split(T[:, ::2], 3)),   # not C-contiguous
            [T[0:2].copy(), T[2:4].copy()],  # separate arrays
            [T[0:2], T[2:4].real],          # real rows are converted
        ]
        for blocks in cases:
            F = gf.GFrame(blocks[0].shape[1], tuple(blocks))
            assert not np.shares_memory(F.matrix, T)
            assert not any(np.shares_memory(F.matrix, B) for B in blocks)
            np.testing.assert_array_equal(F.matrix, np.vstack(blocks))
            assert all(np.shares_memory(B, F.matrix) for B in F.blocks)

    def test_blocks_and_matrix_are_read_only(self, rng):
        T = rng.standard_normal((4, 2)) + 0j
        F = gf.GFrame(2, tuple(np.split(T, 2)))
        with pytest.raises(ValueError):
            F.blocks[0][0, 0] = 1.0
        with pytest.raises(ValueError):
            F.matrix[0, 0] = 1.0

    def test_frame_owns_its_matrix(self, rng):
        """The caller's arrays stay writable, and a write to them, after the
        spectrum is cached, changes neither the frame nor its spectrum."""
        T = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        parts = np.split(T, 2)
        F = gf.GFrame(2, tuple(parts))
        before = F.matrix.copy()
        spectrum = [A.copy() for A in F.spectrum]
        T[0] *= 3.0
        for B in parts:
            B[1, 1] = 5.0
        np.testing.assert_array_equal(F.matrix, before)
        np.testing.assert_array_equal(np.vstack(F.blocks), before)
        U, s, Vh = np.linalg.svd(F.matrix, full_matrices=False)
        for cached, kept, fresh in zip(F.spectrum, spectrum, (s, Vh, U)):
            np.testing.assert_array_equal(cached, kept)
            np.testing.assert_array_equal(cached, fresh)

    def test_constructors_return_views_of_one_matrix(self, rng, mercedes):
        F = gf.GFrame(4, tuple(rng.standard_normal((2, 4)) for _ in range(4)))
        gon = random_gon(rng, 4, (2, 2))
        built = [gf.canonical_dual(F), gf.parseval_transform(F),
                 duality.construct_alternate_dual(F, np.ones(4)),
                 gon, gf.make_griesz(gon, 2.0 * np.eye(4)),
                 frame_io.parse_spec(frame_io.serialize(F))[0]]
        for G in built:
            assert all(np.shares_memory(B, G.matrix) for B in G.blocks)

    def test_package_constructors_check_the_matrix_once(self, rng, monkeypatch):
        """Every frame the package forms comes from GFrame._from_matrix,
        never through the per-block checks of GFrame(n, blocks): a
        read-only, C-contiguous matrix, its row views as blocks and the
        stored heights."""
        from gframes import coherent
        F = gf.GFrame(4, tuple(rng.standard_normal((2, 4)) for _ in range(4)))
        gon = random_gon(rng, 4, (2, 2))
        riesz = gf.make_griesz(gon, np.diag([1.0, 2.0, 3.0, 4.0]) + 0j)
        text = frame_io.serialize(F)

        def refuse(self, *args):
            raise AssertionError("a package constructor ran the per-block checks")

        monkeypatch.setattr(gf.GFrame, "__init__", refuse)
        # the Riesz family's Fock columns come from its SVD, with no frame
        coherent.bicoherent_family(riesz, 1e-6, 2e-6)
        built = [gf.canonical_dual(F), gf.parseval_transform(F),
                 duality.construct_alternate_dual(F, np.ones(4)),
                 gf.make_gon_basis(4, (3, 1)), gf.make_griesz(gon, 2.0 * np.eye(4)),
                 frame_io.parse_spec(text)[0]]
        for G in built:
            assert G.matrix.flags.c_contiguous and not G.matrix.flags.writeable
            assert type(G.block_dims) is tuple
            assert G.block_dims == tuple(B.shape[0] for B in G.blocks)
            assert all(np.shares_memory(B, G.matrix) for B in G.blocks)
            np.testing.assert_array_equal(np.vstack(G.blocks), G.matrix)

    def test_frame_stores_only_its_matrix_and_heights(self, rng):
        """Until a cached attribute is read, a frame holds T and its heights
        and nothing else.  n is read from T, and the blocks are read-only
        views of T, made on the first read and kept."""
        T = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        text = frame_io.serialize(gf.GFrame._from_matrix(T, (2, 3)))
        for F in (gf.GFrame(3, tuple(np.split(T, [2]))), gf.GFrame._from_matrix(T, (2, 3)),
                  frame_io.parse_spec(text)[0]):
            assert set(vars(F)) == {"matrix", "block_dims"}
            assert type(F.hilbert_dim) is int and F.hilbert_dim == 3
            blocks = F.blocks
            assert set(vars(F)) == {"matrix", "block_dims", "blocks"}
            assert F.blocks is blocks
            assert [B.shape[0] for B in blocks] == [2, 3]
            assert all(np.shares_memory(B, F.matrix) for B in blocks)
            assert not any(B.flags.writeable for B in blocks)
            for name, value in (("matrix", T), ("block_dims", (5,)), ("hilbert_dim", 3)):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(F, name, value)

    def test_repr_shows_the_shape_not_the_entries(self, rng):
        """A frame the size of the benchmark's n = 256 one, 512 rows in
        blocks of 1 to 4, prints in under 1 KB."""
        dims = (1, 2, 3, 4) * 51 + (2,)
        F = gf.GFrame._from_matrix(rng.standard_normal((512, 256)), dims)
        assert repr(F) == f"GFrame(hilbert_dim=256, block_dims={dims})"
        assert len(repr(F)) < 1024

    def test_from_matrix_checks_the_matrix_and_heights(self, rng):
        T = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        F = gf.GFrame._from_matrix(T, (2, 3))
        assert F.hilbert_dim == 3 and F.block_dims == (2, 3)
        # the frame reads T through a read-only view; T stays the caller's
        assert np.shares_memory(F.matrix, T) and T.flags.writeable
        with pytest.raises(ValueError):
            F.matrix[0, 0] = 1.0
        for dims in [(2, 2), (2, 4), (5, 0), (6, -1), ()]:
            with pytest.raises(ShapeMismatch):
                gf.GFrame._from_matrix(T, dims)
        T[1, 2] = np.inf
        with pytest.raises(NonFinite):
            gf.GFrame._from_matrix(T, (5,))

    def test_cache_holds_the_three_factors(self, rng):
        """The cache is (sigma, V†, U) of one thin SVD, read-only, and the
        range basis is a view of U."""
        F, _, s, V = conditioned(rng, 1e4)
        sigma, Vh, U = F.spectrum
        assert F.spectrum is F.spectrum
        assert sigma.shape == (12,) and Vh.shape == (12, 12) and U.shape == (30, 12)
        np.testing.assert_allclose(sigma, s, rtol=1e-12)
        assert fro(np.abs(Vh @ V) - np.eye(12)) <= 1e-8
        assert fro(U.conj().T @ U - np.eye(12)) <= 100 * EPS
        assert rel((U * sigma) @ Vh, F.matrix) <= 100 * EPS
        assert not any(A.flags.writeable for A in F.spectrum)
        assert np.shares_memory(F.range_basis(), U)


class TestOneFactorization:
    def test_frames_dense_suite_factors_each_frame_once(self, rng, monkeypatch):
        """The frame suite of one benchmark case on an n = 16 Parseval frame
        and its perturbed twin: each frame is factored once, its canonical
        dual and S never."""
        n, dims = 16, (1, 4, 3, 2, 4, 1, 3, 4, 2, 4, 2, 2)
        T = rng.standard_normal((32, n)) + 1j * rng.standard_normal((32, n))
        w, Q = np.linalg.eigh(T.conj().T @ T)
        T = T @ ((Q / np.sqrt(w)) @ Q.conj().T)
        twin = T + 0.05 / np.sqrt(n) * rng.standard_normal(T.shape)
        spec = frame_io.serialize(gf.GFrame(n, np.split(T, np.cumsum(dims[:-1]))))
        spec_twin = frame_io.serialize(gf.GFrame(n, np.split(twin, np.cumsum(dims[:-1]))))
        g0, f = np.ones(n), np.arange(n) + 1j

        calls = count_decompositions(monkeypatch)
        F, _ = frame_io.parse_spec(spec)
        G, _ = frame_io.parse_spec(spec_twin)
        frames.classify(F)
        frames.frame_bounds(F)
        D = frames.canonical_dual(F)
        frames.parseval_transform(F)
        A = duality.construct_alternate_dual(F, g0, seed=3)
        assert frames.check_dual_pair(F, A, tol_eq=1e-9)
        duality.gram_characterization(F, D, A)
        duality.gram_characterization(F, A, D)
        duality.dual_norm_decomposition(F, A, f)
        assert duality.check_similar(D, F) is not None
        perturbation.optimal_M(F, G)
        perturbation.one_sided_M(F, G)
        perturbation.gavruta_check(F, G, 0.5, 0.0)
        perturbation.gavruta_check(F, G, 0.5, 0.1, samples=100, seed=1)
        frame_io.serialize(D)

        svds = [A for name, A in calls if name == "svd"]
        assert sum(A is F.matrix for A in svds) == 1
        assert len(svds) == 2
        # the dual's factor is F's, read in reverse
        assert {id(A) for A in svds} == {id(F.matrix), id(G.matrix)}
        counts = decomposition_counts(calls)
        assert counts["lstsq"] == 0
        # the range bases are the cached U factors, so no QR
        assert counts["qr"] == 0
        # 2 SVDs (F and G) and 3 pencils
        assert sum(counts.values()) <= 5


@pytest.mark.parametrize("kappa", KAPPAS)
class TestDerivationsAgainstNumpy:
    def test_bounds(self, rng, kappa):
        F, _, s, _ = conditioned(rng, kappa)
        b = gf.frame_bounds(F)
        assert b.upper == pytest.approx(s[0] ** 2, rel=50 * EPS)
        assert b.lower == pytest.approx(s[-1] ** 2, rel=50 * EPS * np.sqrt(kappa))
        assert F.rank() == 12

    def test_canonical_dual(self, rng, kappa):
        F, U, s, V = conditioned(rng, kappa)
        T = F.matrix
        D = gf.canonical_dual(F).matrix
        assert rel(D, T @ np.linalg.inv(T.conj().T @ T)) <= 20 * EPS * kappa
        assert rel(D, (U / s) @ V.conj().T) <= 50 * EPS * np.sqrt(kappa)

    def test_parseval_transform(self, rng, kappa):
        F, U, s, V = conditioned(rng, kappa)
        T = F.matrix
        w, Q = np.linalg.eigh(T.conj().T @ T)
        P = gf.parseval_transform(F).matrix
        assert rel(P, T @ ((Q / np.sqrt(w)) @ Q.conj().T)) <= 20 * EPS * kappa
        assert rel(P, U @ V.conj().T) <= 50 * EPS * np.sqrt(kappa)

    def test_similarity_solution(self, rng, kappa):
        F, _, _, _ = conditioned(rng, kappa)
        Y = np.eye(12) + 0.1 * (rng.standard_normal((12, 12))
                                + 1j * rng.standard_normal((12, 12)))
        TG = F.matrix @ Y
        X = duality.check_similar(gf.GFrame(12, tuple(np.split(TG, 10))), F)
        assert X is not None
        X_ref = np.linalg.lstsq(F.matrix, TG, rcond=None)[0]
        assert rel(X, X_ref) <= 50 * EPS * np.sqrt(kappa)

    def test_range_basis(self, rng, kappa):
        F, _, _, _ = conditioned(rng, kappa)
        Q = F.range_basis()
        U = np.linalg.svd(F.matrix, full_matrices=False)[0]
        assert Q.shape == (30, 12)
        assert fro(Q.conj().T @ Q - np.eye(12)) <= 100 * EPS
        assert fro(Q @ Q.conj().T - U @ U.conj().T) <= 100 * EPS * np.sqrt(kappa)

    def test_classify_matches_per_block_loop(self, rng, kappa, mercedes):
        F, _, s, _ = conditioned(rng, kappa)
        X = random_unitary(12, rng) * s
        gon = random_gon(rng, 12, (3, 3, 3, 3))
        wide = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
        families = [F, gon, gf.make_griesz(gon, X), gf.GFrame(12, gon.blocks[:2]),
                    gf.GFrame(12, tuple(np.split(wide, [2]))), mercedes,
                    gf.GFrame(12, tuple(np.split(F.matrix[:12], 4)))]
        for G in families:
            assert dataclasses.asdict(gf.classify(G)) == classify_reference(G)
            partners = [G] + ([gf.canonical_dual(G)] if gf.classify(G).is_frame else [])
            for H in partners:
                ref = all(
                    fro(Hk @ Gj.conj().T - (np.eye(len(Hk)) if j == k else 0.0))
                    <= TOL_EQ * max(1.0, fro(Hk @ Gj.conj().T))
                    for j, Gj in enumerate(G.blocks) for k, Hk in enumerate(H.blocks))
                assert gf.check_biorthogonal(G, H) == ref


SWEEP = (1e3, 1e4, 1e5, 9e5)


@pytest.mark.parametrize("kappa", SWEEP)
def test_duals_reconstruct_up_to_the_frame_rule(kappa):
    """Below the frame rule's limit cond(T) = 1e6 the canonical dual
    reconstructs at TOL_EQ, and the Parseval transform is orthonormal to
    round-off: neither goes through S^{-1}, whose error grows as
    cond(T)^2."""
    F = conditioned_frame(kappa)
    assert gf.classify(F).is_frame
    D = gf.canonical_dual(F)
    assert gf.check_dual_pair(F, D, tol_eq=TOL_EQ)
    M = D.matrix.conj().T @ F.matrix
    assert fro(M - np.eye(16)) <= 1e-10 * fro(M)
    P = gf.parseval_transform(F).matrix
    assert fro(P.conj().T @ P - np.eye(16)) <= 100 * EPS


@pytest.mark.parametrize("kappa", SWEEP)
class TestDualFactorIsTheFrames:
    """The canonical dual's cached (sigma, V†, U) is F's factor read in
    reverse, never a second SVD."""

    def test_matches_a_fresh_svd(self, kappa):
        """The stored sigma match the dual matrix's own to 50 eps kappa.  The
        range projectors agree to 5 eps kappa: forming U Sigma^-1 V† rounds
        by eps / sigma_min, which turns the matrix's range, not the stored
        one, by about eps kappa."""
        F = conditioned_frame(kappa)
        D = gf.canonical_dual(F)
        s, _, U = D.spectrum
        U_ref, s_ref, _ = np.linalg.svd(D.matrix, full_matrices=False)
        assert np.max(np.abs(s - s_ref) / s_ref) <= 50 * EPS * kappa
        assert projector_gap(D.range_basis(), U_ref) <= 5 * EPS * kappa
        assert rel((U * s) @ D.spectrum[1], D.matrix) <= 50 * EPS * kappa

    def test_views_of_the_frames_factor(self, kappa):
        F = conditioned_frame(kappa)
        D = gf.canonical_dual(F)
        assert not any(A.flags.writeable for A in D.spectrum)
        assert D.spectrum[1].base is F.spectrum[1]
        assert D.spectrum[2].base is F.spectrum[2]

    def test_holds_no_reference_to_the_frame(self, kappa):
        """F caches D, so a reference back would be a cycle that keeps F
        alive until the cyclic collector runs."""
        gc.disable()
        try:
            F = conditioned_frame(kappa)
            D = gf.canonical_dual(F)
            alive = weakref.ref(F)
            del F
            assert alive() is None
            assert D.spectrum[0].shape == (16,)
        finally:
            gc.enable()

    def test_allocates_the_dual_matrix_only(self, kappa):
        """Forming D and reading its factor allocates what forming the
        Parseval transform does (one m x n product from an n x n operand,
        wrapped as a frame) plus O(n), not the m x n left factor that a
        second SVD would add.  tracemalloc's peak for the same call wanders
        by about 2 KB between runs, so the margin is a quarter of that
        factor (4 KB here)."""
        F = conditioned_frame(kappa)
        F.spectrum
        m, n = F.matrix.shape
        formed, _ = traced_peak(lambda: gf.parseval_transform(F))
        peak, _ = traced_peak(lambda: gf.canonical_dual(F).spectrum)
        assert formed <= m * n * 16 + n * n * 16 + 16 * 1024
        assert peak <= formed + m * n * 16 // 4

    def test_similarity_rejects_a_dual_off_the_range(self, kappa):
        """The exact dual is similar to F at every kappa, since the
        blockwise rule allows the 16 eps cond(T) that its X carries.  A dual
        plus a term outside F's range of 1e-6 times its norm, keeping the
        stored factor of the exact dual, is not F X: the blockwise residual
        rejects it."""
        F = conditioned_frame(kappa)
        D = gf.canonical_dual(F)
        assert duality.check_similar(D, F) is not None
        size = 1e-6 * np.linalg.norm(D.matrix)
        term = size * np.outer(duality.kernel_vector(F), np.ones(16) / 4)
        Dp = gf.GFrame(16, np.split(D.matrix + term, np.cumsum(D.block_dims[:-1])))
        Dp.__dict__["spectrum"] = D.spectrum
        assert duality.check_similar(Dp, F) is None


def test_rank_deficient_range_basis(rng):
    A = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    T = A @ (rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
    F = gf.GFrame(5, (T,))
    assert F.rank() == 3
    Q = F.range_basis()
    U = np.linalg.svd(T)[0][:, :3]
    assert Q.shape == (8, 3)
    assert fro(Q @ Q.conj().T - U @ U.conj().T) <= 1e-12
    # rank 0: an empty basis, and every unit vector is a kernel vector
    Z = gf.GFrame(5, (np.zeros((8, 5)),))
    assert Z.rank() == 0 and Z.range_basis().shape == (8, 0)
    assert np.linalg.norm(duality.kernel_vector(Z)) == pytest.approx(1.0)


def test_block_rule_matches_per_block_loop_near_threshold(rng, mercedes):
    for F, _ in on_basis_cases(rng, mercedes):
        assert dataclasses.asdict(gf.classify(F)) == classify_reference(F)


def test_griesz_accepts_exactly_what_classify_calls_riesz(rng):
    """make_griesz shares the frame rule: at cond(X) either side of
    TOL_PD^{-1/2} = 1e6 it succeeds exactly when the family it would
    build is a Riesz basis."""
    n = 8
    gon = random_gon(rng, n, (2,) * 4)
    U, V = random_unitary(n, rng), random_unitary(n, rng)
    made = []
    for cond_x in (1e4, 10 ** 5.9, 10 ** 6.1, 1e8):
        X = (U * np.geomspace(1.0, cond_x, n)) @ V.conj().T
        riesz = gf.classify(gf.GFrame(n, tuple(np.split(gon.matrix @ X, 4)))).is_riesz_basis
        try:
            gf.make_griesz(gon, X)
            made.append(True)
        except Singular:
            made.append(False)
        assert made[-1] == riesz
    assert made == [True, True, False, False]


def test_griesz_basis_rule_agrees_with_classify(rng, mercedes):
    for F, expected in on_basis_cases(rng, mercedes):
        assert gf.classify(F).is_on_basis == expected
        # at any tolerance classify returns (it raises when an orthonormal
        # basis is no Riesz basis) and an orthonormal basis is a Riesz basis
        for tol in (1e-10, 1e-6, 0.3, 1.5):
            cls = gf.classify(F, tol_eq=tol)
            assert cls.is_riesz_basis or not cls.is_on_basis
        if expected:
            gf.make_griesz(F, 2.0 * np.eye(F.hilbert_dim))
        else:
            with pytest.raises(NotOnBasis):
                gf.make_griesz(F, 2.0 * np.eye(F.hilbert_dim))


def test_on_basis_rule_is_classify(rng, mercedes):
    """`_is_on_basis` answers as classify does, and forms no spectrum on a
    basis.  Beyond the shared families: a basis scaled by 2 (a Riesz basis
    far from orthonormal) and two equal rows in C^2 (no frame)."""
    gon = random_gon(rng, 6, (2, 2, 2))
    cases = [F for F, _ in on_basis_cases(rng, mercedes)]
    cases += [gon.map_blocks(lambda B: 2.0 * B),
              gf.GFrame(2, (np.array([[1.0, 0.0]]),) * 2)]
    for F in cases:
        assert frames._is_on_basis(F) == gf.classify(F).is_on_basis
    assert frames._is_on_basis(gon)
    assert "spectrum" not in vars(gon)


@pytest.mark.filterwarnings("error")
class TestScale:
    def test_random_frame_classifies_alike_at_1e100(self):
        rng = np.random.default_rng(1)
        blocks = [rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
                  for _ in range(3)]
        flags = [gf.classify(gf.GFrame(4, tuple(c * B for B in blocks)))
                 for c in (1.0, 1e100)]
        assert flags[0] == flags[1]
        assert not flags[1].is_orthonormal_set

    def test_scaled_orthonormal_basis_is_not_orthonormal(self, rng):
        gon = random_gon(rng, 6, (2, 2, 2))
        for c in (1e100, 2.0 ** 400, 1e-100):
            F = gon.map_blocks(lambda B: c * B)
            cls = gf.classify(F)
            assert not cls.is_orthonormal_set and not cls.is_on_basis
            assert not gf.check_biorthogonal(F, F)
            assert not frames._is_on_basis(F)
        # at scale 1 the same basis passes every test
        assert gf.classify(gon).is_on_basis and gf.check_biorthogonal(gon, gon)

    def test_gram_rule_is_exact_under_powers_of_two(self, rng):
        """A basis just outside the tolerance stays outside when scaled by
        2^k and its Gram compared with 4^k I: the rule reads the same
        rounded numbers."""
        gon = random_gon(rng, 6, (2, 2, 2))
        E = rng.standard_normal((6, 6))
        T = gon.matrix + 1e-9 * E
        for k in (0, 300, 500):
            c = 2.0 ** k
            passes = linalg.gram_rules(c * T, T / c, (2, 2, 2), 1e-9)
            assert passes == linalg.gram_rules(T, T, (2, 2, 2), 1e-9)

    @pytest.mark.parametrize("c", [1e160, 1e-160])
    def test_similarity_at_extreme_scales(self, c):
        """check_similar finds the same X at 1e+-160 as at scale 1, where
        sigma^2 or T†T would overflow or underflow, and still refuses a
        frame that is not similar."""
        rng = np.random.default_rng(1)
        T = np.vstack([rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
                       for _ in range(3)])
        Y = np.diag([1.0, 2.0, 3.0, 4.0]) + 0.5j * np.eye(4, k=1)
        X1 = duality.check_similar(gf.GFrame(4, tuple(np.split(T @ Y, 3))),
                                   gf.GFrame(4, tuple(np.split(T, 3))))
        G = gf.GFrame(4, tuple(np.split(c * T, 3)))
        X = duality.check_similar(gf.GFrame(4, tuple(np.split(c * T @ Y, 3))), G)
        assert X is not None and np.isfinite(X).all()
        assert rel(X, Y) <= 1e-13 and rel(X, X1) <= 1e-13
        other = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        assert duality.check_similar(gf.GFrame(4, tuple(np.split(c * other, 3))), G) is None

    def test_classify_at_extreme_scales(self):
        """At 1e-160 and 1e-170 the flags are those at scale 1 (not a
        complete non-frame); at 1e160 the upper bound sigma_max^2 is beyond
        binary64, which is an error rather than an infinite bound."""
        rng = np.random.default_rng(1)
        blocks = [rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
                  for _ in range(3)]
        F1 = gf.GFrame(4, tuple(blocks))
        for c in (1e-160, 1e-170):
            F = gf.GFrame(4, tuple(c * B for B in blocks))
            assert gf.classify(F) == gf.classify(F1)
            b = gf.frame_bounds(F)
            assert b.is_frame and not b.is_tight
            assert rel(c * gf.canonical_dual(F).matrix, gf.canonical_dual(F1).matrix) <= 1e-13
        with pytest.raises(NonFinite, match="overflows"):
            gf.classify(gf.GFrame(4, tuple(1e160 * B for B in blocks)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@seed(2701)
@settings(max_examples=60, deadline=None)
@given(st.integers(-500, 500), st.integers(0, 2 ** 32 - 1))
@example(-500, 0)
@example(460, 0)
@example(500, 0)
@example(1, 1_937_282_199)
def test_spectrum_is_exact_under_powers_of_two(k, seed):
    """The bounds of 2^k F are exactly 4^k times those of F, and its
    canonical dual exactly 2^-k times F's, with no warning: a T beyond
    LAPACK's unscaled range is factored at unit scale, where LAPACK would
    rescale it by a factor that is not a power of two."""
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    F, Fk = gf.GFrame(4, tuple(np.split(T, 3))), gf.GFrame(4, tuple(np.split(2.0 ** k * T, 3)))
    b, bk = gf.frame_bounds(F), gf.frame_bounds(Fk)
    assert (bk.lower, bk.upper) == (4.0 ** k * b.lower, 4.0 ** k * b.upper)
    assert (bk.is_frame, bk.is_tight) == (b.is_frame, b.is_tight)
    np.testing.assert_array_equal(gf.canonical_dual(Fk).matrix,
                                  2.0 ** -k * gf.canonical_dual(F).matrix)

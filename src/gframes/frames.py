"""Core operator-frame representation and operations.

An operator frame is an ordered family of complex blocks Lambda_j of shape
(d_j, n), each mapping the ambient space C^n into its own target C^{d_j}.
The family is a frame when the summed block energies sum_j ||Lambda_j f||^2
are sandwiched between A ||f||^2 and B ||f||^2 with A > 0.

A frame stores its analysis operator T (the blocks stacked, sum d_j x n)
once, and caches one thin SVD T = U Sigma V† of it, keeping all three
factors.  Bounds and rank come from Sigma, the range basis is U_r, and the
canonical dual T S^{-1} = U Sigma^{-1} V† and the Parseval transform
T S^{-1/2} = U V† are formed from U.  So S = T†T is never decomposed and
S^{-1} never formed, either of which would square the condition number.
The canonical dual is never factored: its SVD is F's, read in reverse.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    NonFinite,
    NotAFrame,
    NotOnBasis,
    ShapeMismatch,
    Singular,
)
from .linalg import TOL_EQ, TOL_PD, TOL_RANK, as_cmatrix, fro, within


def _spectral_rules(s: np.ndarray, n: int) -> tuple:
    """(ratio2, is_frame, rank) from the singular values s (descending) of
    an analysis matrix with n columns.

    ratio2 is (sigma_min / sigma_max)^2, and 0 with fewer than n values; the
    frame rule is ratio2 > TOL_PD and the rank counts the values above
    TOL_RANK * sigma_max.  Both rules read ratios of singular values, never
    their squares, so they do not change when T is rescaled and cannot
    overflow or underflow where T itself does not."""
    ratio2 = float((s[-1] / s[0]) ** 2) if s.size == n and s[0] > 0.0 else 0.0
    return ratio2, ratio2 > TOL_PD, int(np.sum(s > TOL_RANK * s[0]))


@dataclass(frozen=True, eq=False, init=False, repr=False)
class GFrame:
    """Ordered family of complex blocks, all with the same column count.

    It stores the stacked analysis operator T, read-only, as `matrix` and
    the block heights as `block_dims`; `blocks` are row views of T made on
    first read.  Given blocks are stacked into a T the frame owns, so later
    writes to them change neither the frame nor its cached spectrum.

    Frames compare and hash by identity."""

    matrix: np.ndarray
    block_dims: tuple

    def __init__(self, hilbert_dim: int, blocks):
        n = hilbert_dim
        if n < 1:
            raise DimensionMismatch("hilbert_dim must be >= 1")
        if not blocks:
            raise DimensionMismatch("block list must be nonempty")
        blocks = [np.asarray(B, dtype=np.complex128) for B in blocks]
        for j, A in enumerate(blocks):
            if A.ndim != 2:
                raise ValueError(f"expected a 2-d array, got ndim={A.ndim}")
            if A.shape[1] != n:
                raise ShapeMismatch(f"block {j} has {A.shape[1]} columns, expected {n}")
            if A.shape[0] < 1:
                raise ShapeMismatch(f"block {j} has zero rows")
        self._hold(np.concatenate(blocks), tuple(A.shape[0] for A in blocks))

    @classmethod
    def _from_matrix(cls, T, dims) -> "GFrame":
        """The frame whose analysis matrix is T, in blocks of heights
        `dims`: the package's constructor for a matrix it has formed, which
        checks T and the heights once, with no work per block.  T stays
        writable; the frame holds a read-only view of it."""
        F = cls.__new__(cls)
        F._hold(T, tuple(dims))
        return F

    def _hold(self, T, dims: tuple) -> None:
        """Store T (checked by as_cmatrix, C-contiguous and read through a
        read-only view) and its heights."""
        T = np.ascontiguousarray(as_cmatrix(T)).view()
        T.flags.writeable = False
        m, n = T.shape
        if n < 1 or not dims or min(dims) < 1 or sum(dims) != m:
            raise ShapeMismatch(f"block heights do not tile the {m} x {n} matrix")
        object.__setattr__(self, "matrix", T)
        object.__setattr__(self, "block_dims", dims)

    def __repr__(self):
        return f"GFrame(hilbert_dim={self.hilbert_dim}, block_dims={self.block_dims})"

    @property
    def hilbert_dim(self) -> int:
        """Dimension n of the ambient space C^n, the column count of T."""
        return self.matrix.shape[1]

    @cached_property
    def blocks(self) -> tuple:
        """The blocks Lambda_j, read-only row views of T."""
        ends = np.cumsum(self.block_dims).tolist()
        return tuple(self.matrix[a:b] for a, b in zip([0] + ends[:-1], ends))

    @property
    def total_dim(self):
        """Dimension of the stacked target space, sum of the d_j."""
        return self.matrix.shape[0]

    @cached_property
    def spectrum(self) -> tuple:
        """(sigma, V†, U) of a thin SVD T = U Sigma V† of the analysis
        operator: the min(m, n) singular values in descending order, the
        rows of V† and the m x min(m, n) left factor U, all read-only."""
        U, s, Vh = np.linalg.svd(self.matrix, full_matrices=False)
        for A in (s, Vh, U):
            A.flags.writeable = False
        return s, Vh, U

    @cached_property
    def canonical_dual(self) -> "GFrame":
        """The family Lambda_j S^{-1}, formed once from the cached factor;
        raises NotAFrame when the family is not a frame, and NonFinite when
        the dual's entries overflow.

        U Sigma^{-1} V† is already a thin SVD of the dual once its terms are
        put in descending order of 1/sigma, so the dual's spectrum is stored
        rather than computed: a new read-only 1/sigma[::-1] and the read-only
        views V†[::-1] and U[:, ::-1] of this frame's factors.  The dual
        holds those arrays, not this frame, so caching it makes no reference
        cycle.  The Parseval transform stores no factor: nothing reads it,
        and a stored sigma = 1 would pass every Parseval test of it by
        construction."""
        if not frame_bounds(self).is_frame:
            raise NotAFrame("canonical dual requires a frame")
        s, Vh, U = self.spectrum
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                D = _times_inverse_root(self, 2)
        except NonFinite:
            raise NonFinite(f"canonical dual overflows: sigma_min = {s[-1]:.3e}") from None
        s_dual = 1.0 / s[::-1]
        s_dual.flags.writeable = False
        D.__dict__["spectrum"] = (s_dual, Vh[::-1], U[:, ::-1])
        return D

    def rank(self) -> int:
        """Number of singular values above TOL_RANK * sigma_max."""
        return _spectral_rules(self.spectrum[0], self.hilbert_dim)[2]

    def range_basis(self) -> np.ndarray:
        """Orthonormal basis of the analysis range, as the columns of an
        m x r matrix: U_r, the left singular vectors of the r = rank()
        leading singular values, a read-only view of the cached factor."""
        return self.spectrum[2][:, :self.rank()]

    def map_blocks(self, fn) -> "GFrame":
        return GFrame(self.hilbert_dim, tuple(fn(B) for B in self.blocks))

    def same_shape(self, other: "GFrame") -> bool:
        return (
            self.hilbert_dim == other.hilbert_dim
            and self.block_dims == other.block_dims
        )


@dataclass(frozen=True)
class FrameBounds:
    lower: float
    upper: float
    is_frame: bool
    is_tight: bool
    is_parseval: bool


@dataclass(frozen=True)
class Classification:
    is_bessel: bool
    is_frame: bool
    is_complete: bool
    is_orthonormal_set: bool
    is_on_basis: bool
    is_riesz_basis: bool

    def __post_init__(self):
        # implication chain: on basis => Riesz => frame => Bessel and complete
        if self.is_on_basis and not self.is_riesz_basis:
            raise ValueError("on basis must be a Riesz basis")
        if self.is_riesz_basis and not self.is_frame:
            raise ValueError("Riesz basis must be a frame")
        if self.is_frame and not (self.is_bessel and self.is_complete):
            raise ValueError("frame must be Bessel and complete")


def analysis(F: GFrame) -> np.ndarray:
    """The blocks of F stacked into one (sum d_j) x n matrix (read-only)."""
    return F.matrix


def frame_operator(F: GFrame) -> np.ndarray:
    """S = T†T = sum_j Lambda_j† Lambda_j, Hermitian n x n."""
    T = F.matrix
    S = T.conj().T @ T
    return (S + S.conj().T) / 2.0


def _times_inverse_root(F: GFrame, k: int) -> GFrame:
    """The frame with analysis matrix T S^{-k/2} = U Sigma^{1-k} V†, from
    the cached factor: the canonical dual U Sigma^{-1} V† (k = 2) and the
    Parseval transform U V† (k = 1), the polar factor of T.

    No product forms S^{-1}, whose error grows as cond(T)^2, and Sigma^{-1}
    is already at the scale of the result, so nothing overflows where the
    result itself does not."""
    s, Vh, U = F.spectrum
    R = U @ (s[:, None] ** float(1 - k) * Vh)
    return GFrame._from_matrix(R, F.block_dims)


_SQRT_MAX = float(np.sqrt(np.finfo(np.float64).max))


def frame_bounds(F: GFrame, tol_eq: float = TOL_EQ) -> FrameBounds:
    """Optimal bounds: the spectral extremes sigma_min^2 and sigma_max^2 of
    the frame operator (the lower one is 0 with fewer than n rows).

    The flags compare the ratio sigma_min / sigma_max with the tolerances,
    as lower > TOL_PD * upper and |upper - lower| <= tol_eq * upper would,
    so they do not change when T is rescaled.  A non-frame (degenerate
    lower bound) is a value, not an error; an upper bound beyond binary64
    raises NonFinite.
    """
    s = F.spectrum[0]
    if s[0] > _SQRT_MAX:
        raise NonFinite(f"upper frame bound overflows: sigma_max = {s[0]:.3e}")
    upper = float(s[0] ** 2)
    lower = float(s[-1] ** 2) if s.size == F.hilbert_dim else 0.0
    ratio2, is_frame, _ = _spectral_rules(s, F.hilbert_dim)
    is_tight = is_frame and within(1.0 - ratio2, tol_eq)
    is_parseval = is_tight and within(abs(lower - 1.0), tol_eq)
    return FrameBounds(lower, upper, is_frame, is_tight, is_parseval)


def canonical_dual(F: GFrame) -> GFrame:
    """The family Lambda_j S^{-1}; a (1/B, 1/A) frame whose own dual is F.
    F forms it once, so every call on F returns the same frame."""
    return F.canonical_dual


def parseval_transform(F: GFrame) -> GFrame:
    """The family Lambda_j S^{-1/2}; always Parseval, and an orthonormal
    operator basis whenever F is a Riesz operator basis."""
    if not frame_bounds(F).is_frame:
        raise NotAFrame("Parseval transform requires a frame")
    return _times_inverse_root(F, 1)


def _unit_scaled(A: np.ndarray):
    """A / 2^e and 2^-e, with e >= 0 the smallest that brings max|A| below 1.

    Scaling by a power of two is exact, so products of the scaled matrix
    round exactly as the originals would, but cannot overflow."""
    e = int(np.frexp(np.abs(A).max())[1])
    if e <= 0:
        return A, 1.0
    unit = 2.0 ** -e
    return A * unit, unit


def _gram_rules(A: np.ndarray, B: np.ndarray, dims, tol_eq: float) -> tuple:
    """(is_identity, near_identity) for the m x m Gram G = A B† (blocks of
    heights `dims`): whether every block G_jk is within tol_eq of
    delta_jk I at the scale ||G_jk||_F, and whether ||G - I||_F <= 1/2.

    G is formed once from A and B scaled by powers of two, so that it cannot
    overflow, and is compared in those units."""
    As, a = _unit_scaled(A)
    Bs, b = (As, a) if B is A else _unit_scaled(B)
    unit = a * b
    G = As @ Bs.conj().T
    g = G.diagonal().copy()
    G.flat[::G.shape[0] + 1] -= unit
    starts = np.cumsum((0,) + tuple(dims[:-1]))
    err2 = np.add.reduceat(np.add.reduceat(G.real ** 2 + G.imag ** 2, starts, axis=0),
                           starts, axis=1)
    # ||G_jj||^2 = ||G_jj - I||^2 + sum_i (|g_ii|^2 - |g_ii - 1|^2), in units
    ref2 = err2.copy()
    ref2[np.diag_indices(len(starts))] += np.add.reduceat(
        np.abs(g) ** 2 - np.abs(g - unit) ** 2, starts)
    return (within(np.sqrt(err2), tol_eq, np.sqrt(ref2), unit),
            bool(np.sqrt(err2.sum()) <= 0.5 * unit))


def _is_on_basis(F: GFrame, tol_eq: float) -> bool:
    """classify(F, tol_eq).is_on_basis, with no decomposition in the usual
    case: a square T with ||T T† - I||_F <= 1/2 has every sigma^2 in
    [1/2, 3/2], so (sigma_min / sigma_max)^2 >= 1/3 and T has full rank,
    and classify's frame and rank rules hold.  Any other orthonormal set
    is classified."""
    T = F.matrix
    if T.shape[0] != T.shape[1]:
        return False
    is_on_set, near_identity = _gram_rules(T, T, F.block_dims, tol_eq)
    return is_on_set and (near_identity or classify(F, tol_eq).is_on_basis)


def classify(F: GFrame, tol_eq: float = TOL_EQ) -> Classification:
    """Classification flags for an arbitrary operator family, one rule each.

    Completeness <=> rank(T) = n; Riesz basis <=> frame whose analysis
    operator is surjective, i.e. rank(T) = sum d_j.  Orthonormal set <=>
    T T† = I blockwise: with more rows than columns T T† has rank at most
    n < m, so ||T T† - I||_F >= 1 and the answer is no (at any tolerance
    below 1/(2m)); otherwise one m x m Gram is tested block by block.
    Orthonormal basis <=> orthonormal set that is a Riesz basis (Sun 2006),
    so the implication chain holds at every tolerance.
    """
    bounds = frame_bounds(F, tol_eq=tol_eq)
    rank = F.rank()
    n, m = F.hilbert_dim, F.total_dim
    is_riesz = bounds.is_frame and rank == m
    is_on_set = m <= n and _gram_rules(F.matrix, F.matrix, F.block_dims, tol_eq)[0]
    return Classification(
        is_bessel=True,  # finite families always admit an upper bound
        is_frame=bounds.is_frame,
        is_complete=rank == n,
        is_orthonormal_set=is_on_set,
        is_on_basis=is_on_set and is_riesz,
        is_riesz_basis=is_riesz,
    )


def check_dual_pair(F: GFrame, G: GFrame, tol_eq: float = TOL_EQ) -> bool:
    """True iff T_G† T_F = identity (reconstruction from both sides)."""
    if not F.same_shape(G):
        raise ShapeMismatch("dual-pair check needs identical block shapes")
    M = G.matrix.conj().T @ F.matrix
    return within(fro(M - np.eye(F.hilbert_dim)), tol_eq, fro(M))


def check_biorthogonal(F: GFrame, G: GFrame) -> bool:
    """True iff G_k F_j† = delta_jk * identity for all j, k: one Gram
    T_G T_F†, which cannot be the identity with more rows than columns."""
    if not F.same_shape(G):
        raise ShapeMismatch("biorthogonality check needs identical block shapes")
    if F.total_dim > F.hilbert_dim:
        return False
    return _gram_rules(G.matrix, F.matrix, F.block_dims, TOL_EQ)[0]


def make_gon_basis(n: int, dims, rotation=None) -> GFrame:
    """Coordinate-slicing orthonormal operator basis, optionally composed with
    a unitary rotation: block j takes rows offset..offset+d_j of U."""
    dims = tuple(int(d) for d in dims)
    if sum(dims) != n:
        raise DimensionMismatch(f"sum of block dims {sum(dims)} != {n}")
    if rotation is None:
        U = np.eye(n, dtype=np.complex128)
    else:
        U = linalg.check_unitary(rotation)
        if U.shape[0] != n:
            raise DimensionMismatch("rotation size does not match hilbert_dim")
        U = U.copy()
    return GFrame._from_matrix(U, dims)


def make_griesz(gon: GFrame, X) -> GFrame:
    """Riesz operator basis theta_j X from an orthonormal operator basis and an
    invertible X, which must pass the frame rule of `_spectral_rules` as
    `classify` reads it.  Bounds land in [||X^{-1}||^{-2}, ||X||^2]."""
    if not _is_on_basis(gon, TOL_EQ):
        raise NotOnBasis("make_griesz requires an orthonormal operator basis")
    A = as_cmatrix(X)
    if A.shape != (gon.hilbert_dim, gon.hilbert_dim):
        raise DimensionMismatch("X must be square of size hilbert_dim")
    s = np.linalg.svd(A, compute_uv=False)
    if not _spectral_rules(s, gon.hilbert_dim)[1]:
        raise Singular(f"condition number {s[0] / max(s[-1], 1e-300):.3e} too large")
    return GFrame._from_matrix(gon.matrix @ A, gon.block_dims)

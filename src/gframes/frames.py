"""Core operator-frame representation and operations.

An operator frame is an ordered family of complex blocks Lambda_j of shape
(d_j, n), each mapping the ambient space C^n into its own target C^{d_j}.
The family is a frame when the summed block energies sum_j ||Lambda_j f||^2
are sandwiched between A ||f||^2 and B ||f||^2 with A > 0.

A frame stores its analysis operator T (the blocks stacked, sum d_j x n)
once, and caches one thin SVD T = U Sigma V† of it, keeping only Sigma and
V†.  Bounds, rank, S^{-1} and S^{-1/2} (S = T†T = V Sigma^2 V†) and range
bases all come from that cache; S itself is never decomposed, which would
square the condition number.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
from .linalg import TOL_EQ, TOL_PD, TOL_RANK, as_cmatrix, fro

_ITEM = np.dtype(np.complex128).itemsize


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


def _row_blocks(T: np.ndarray, dims) -> tuple:
    """Consecutive row slices of T with heights `dims`."""
    ends = np.cumsum(dims).tolist()
    return tuple(T[a:b] for a, b in zip([0] + ends[:-1], ends))


def _tiled(blocks, n: int):
    """The m x n matrix the blocks tile, as a read-only view, when they are
    consecutive row slices of one C-contiguous complex array; else None.

    Blocks that share one base tile a range of its buffer when each starts
    where the previous one ends, so the view stays within that buffer and
    keeps it alive."""
    first = blocks[0]
    base = first.base
    if base is None and len(blocks) > 1:
        return None
    row = n * _ITEM
    ptr = first.__array_interface__["data"][0]
    for B in blocks:
        if (B.base is not base or not B.flags.c_contiguous
                or B.__array_interface__["data"][0] != ptr):
            return None
        ptr += B.shape[0] * row
    m = sum(B.shape[0] for B in blocks)
    return np.lib.stride_tricks.as_strided(first, shape=(m, n), strides=(row, _ITEM),
                                           writeable=False)


@dataclass(frozen=True)
class GFrame:
    """Ordered family of complex blocks, all with the same column count.

    `matrix` is the stacked analysis operator T; the blocks are read-only
    row views of it.  Blocks that already are consecutive row slices of one
    C-contiguous complex array (`np.split` of it, say) share its memory;
    any others are stacked once."""

    hilbert_dim: int
    blocks: tuple
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.hilbert_dim
        if n < 1:
            raise DimensionMismatch("hilbert_dim must be >= 1")
        if not self.blocks:
            raise DimensionMismatch("block list must be nonempty")
        blocks = [np.asarray(B, dtype=np.complex128) for B in self.blocks]
        for j, A in enumerate(blocks):
            if A.ndim != 2:
                raise ValueError(f"expected a 2-d array, got ndim={A.ndim}")
            if A.shape[1] != n:
                raise ShapeMismatch(f"block {j} has {A.shape[1]} columns, expected {n}")
            if A.shape[0] < 1:
                raise ShapeMismatch(f"block {j} has zero rows")
        T = _tiled(blocks, n)
        if T is None:
            T = np.concatenate(blocks)
            T.flags.writeable = False
        else:
            # the caller's blocks share T's memory: a write through one
            # would change a frame whose spectrum may already be cached
            for A in blocks:
                A.flags.writeable = False
        if not np.isfinite(T).all():
            raise NonFinite("matrix contains NaN or Inf entries")
        object.__setattr__(self, "matrix", T)
        object.__setattr__(self, "blocks", _row_blocks(T, [A.shape[0] for A in blocks]))

    @property
    def block_dims(self):
        return tuple(B.shape[0] for B in self.blocks)

    @property
    def total_dim(self):
        """Dimension of the stacked target space, sum of the d_j."""
        return self.matrix.shape[0]

    @cached_property
    def spectrum(self) -> tuple:
        """(sigma, V†) of a thin SVD T = U Sigma V† of the analysis operator:
        the min(m, n) singular values in descending order and the rows of
        V†.  U is not kept."""
        _, s, Vh = np.linalg.svd(self.matrix, full_matrices=False)
        return s, Vh

    def rank(self) -> int:
        """Number of singular values above TOL_RANK * sigma_max."""
        return _spectral_rules(self.spectrum[0], self.hilbert_dim)[2]

    def range_basis(self) -> np.ndarray:
        """Orthonormal basis of the analysis range, as the columns of an
        m x r matrix: the Q factor of T V_r, with V_r the right singular
        vectors of the r = rank() leading singular values."""
        r = self.rank()
        if r == 0:
            return np.zeros((self.total_dim, 0), dtype=np.complex128)
        Q, _ = np.linalg.qr(self.matrix @ self.spectrum[1][:r].conj().T)
        return Q

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
    """The frame with analysis matrix T S^{-k/2} = T V Sigma^{-k} V†, from
    the cached factor.

    Sigma is first divided by 2^e, the power of two at sigma_max, so that
    Sigma^{-k} cannot overflow; multiplying back by 2^-e, k times, is exact
    and gives the same bits as the unscaled product."""
    s, Vh = F.spectrum
    e = int(np.frexp(s[0])[1])
    R = F.matrix @ ((Vh.conj().T * np.ldexp(s, -e) ** float(-k)) @ Vh)
    for _ in range(k):
        R *= 2.0 ** -e
    return GFrame(F.hilbert_dim, _row_blocks(R, F.block_dims))


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
    is_tight = is_frame and 1.0 - ratio2 <= tol_eq
    is_parseval = is_tight and abs(lower - 1.0) <= tol_eq
    return FrameBounds(lower, upper, is_frame, is_tight, is_parseval)


def canonical_dual(F: GFrame) -> GFrame:
    """The family Lambda_j S^{-1}; a (1/B, 1/A) frame whose own dual is F."""
    if not frame_bounds(F).is_frame:
        raise NotAFrame("canonical dual requires a frame")
    return _times_inverse_root(F, 2)


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


def _block_rule(G: np.ndarray, unit: float, dims, tol_eq: float) -> bool:
    """Whether every block G_jk of the m x m Gram G (blocks of heights
    `dims`) meets ||G_jk - delta_jk I||_F <= tol_eq * max(1, ||G_jk||_F),
    with G given in units of `unit` (G / unit is the Gram itself)."""
    g = G.diagonal().copy()
    G.flat[::G.shape[0] + 1] -= unit
    starts = np.cumsum((0,) + tuple(dims[:-1]))
    err2 = np.add.reduceat(np.add.reduceat(G.real ** 2 + G.imag ** 2, starts, axis=0),
                           starts, axis=1)
    # ||G_jj||^2 = ||G_jj - I||^2 + sum_i (|g_ii|^2 - |g_ii - 1|^2), in units
    ref2 = err2.copy()
    ref2[np.diag_indices(len(starts))] += np.add.reduceat(
        np.abs(g) ** 2 - np.abs(g - unit) ** 2, starts)
    return bool(np.all(np.sqrt(err2) <= tol_eq * np.maximum(unit, np.sqrt(ref2))))


def _gram_is_identity(A: np.ndarray, B: np.ndarray, dims, tol_eq: float) -> bool:
    """The block rule of `_block_rule` on A B†, formed once from A and B
    scaled by powers of two so that it cannot overflow."""
    As, a = _unit_scaled(A)
    Bs, b = (As, a) if B is A else _unit_scaled(B)
    return _block_rule(As @ Bs.conj().T, a * b, dims, tol_eq)


def _is_on_basis(T: np.ndarray, dims, tol_eq: float) -> bool:
    """Orthonormal operator basis test on a stacked analysis matrix, with no
    decomposition: the block rule on T T† (orthonormal set) and
    ||T†T - I||_F <= tol_eq * max(1, n) (S = I)."""
    m, n = T.shape
    if m > n:
        return False
    Ts, a = _unit_scaled(T)
    unit = a * a
    Th = Ts.conj().T
    if not _block_rule(Ts @ Th, unit, dims, tol_eq):
        return False
    S = Th @ Ts
    S.flat[::n + 1] -= unit
    return fro(S) <= tol_eq * max(1.0, float(n)) * unit


def classify(F: GFrame, tol_eq: float = TOL_EQ) -> Classification:
    """Classification flags for an arbitrary operator family.

    Completeness <=> rank(T) = n; Riesz basis <=> frame whose analysis
    operator is surjective, i.e. rank(T) = sum d_j.  Orthonormal set <=>
    T T† = I blockwise: with more rows than columns T T† has rank at most
    n < m, so ||T T† - I||_F >= 1 and the answer is no (at any tolerance
    below 1/(2m)); otherwise one m x m Gram is tested block by block.
    """
    s = F.spectrum[0]
    bounds = frame_bounds(F, tol_eq=tol_eq)
    rank = F.rank()
    n, m = F.hilbert_dim, F.total_dim
    is_complete = rank == n
    is_frame = bounds.is_frame
    is_riesz = is_frame and rank == m

    is_on_set = m <= n and _gram_is_identity(F.matrix, F.matrix, F.block_dims, tol_eq)
    # S - I has eigenvalues sigma^2 - 1, and -1 on the n - m missing ones;
    # hypot sums their squares without overflow
    gap = np.hypot.reduce(np.concatenate((s ** 2 - 1.0, np.ones(n - s.size))))
    is_on_basis = is_on_set and bool(gap <= tol_eq * max(1.0, float(n)))

    return Classification(
        is_bessel=True,  # finite families always admit an upper bound
        is_frame=is_frame,
        is_complete=is_complete,
        is_orthonormal_set=is_on_set,
        is_on_basis=is_on_basis,
        is_riesz_basis=is_riesz or is_on_basis,
    )


def check_dual_pair(F: GFrame, G: GFrame, tol_eq: float = TOL_EQ) -> bool:
    """True iff T_G† T_F = identity (reconstruction from both sides)."""
    if not F.same_shape(G):
        raise ShapeMismatch("dual-pair check needs identical block shapes")
    M = G.matrix.conj().T @ F.matrix
    return fro(M - np.eye(F.hilbert_dim)) <= tol_eq * max(1.0, fro(M))


def check_biorthogonal(F: GFrame, G: GFrame) -> bool:
    """True iff G_k F_j† = delta_jk * identity for all j, k: one Gram
    T_G T_F†, which cannot be the identity with more rows than columns."""
    if not F.same_shape(G):
        raise ShapeMismatch("biorthogonality check needs identical block shapes")
    if F.total_dim > F.hilbert_dim:
        return False
    return _gram_is_identity(G.matrix, F.matrix, F.block_dims, TOL_EQ)


def induce_vector_frame(F: GFrame) -> list:
    """The vectors Lambda_j† e_k, i.e. the conjugated rows of each block,
    listed block by block.  Their ordinary-frame bounds equal frame_bounds(F)."""
    return list(F.matrix.conj())


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
    return GFrame(n, _row_blocks(U, dims))


def make_griesz(gon: GFrame, X) -> GFrame:
    """Riesz operator basis theta_j X from an orthonormal operator basis and an
    invertible X.  Bounds land in [||X^{-1}||^{-2}, ||X||^2]."""
    if not _is_on_basis(gon.matrix, gon.block_dims, TOL_EQ):
        raise NotOnBasis("make_griesz requires an orthonormal operator basis")
    A = as_cmatrix(X)
    if A.shape != (gon.hilbert_dim, gon.hilbert_dim):
        raise DimensionMismatch("X must be square of size hilbert_dim")
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] <= TOL_PD * s[0]:
        raise Singular(f"condition number {s[0] / max(s[-1], 1e-300):.3e} too large")
    return GFrame(gon.hilbert_dim, _row_blocks(gon.matrix @ A, gon.block_dims))

"""Non-canonical duals, similarity, and dual-minimality.

The alternate-dual construction perturbs the canonical dual by a rank-one
map per block built from a unit vector in the orthogonal complement of the
analysis range; the perturbation leaves the reconstruction identity intact
because every cross term against the analysis range vanishes.
"""
from __future__ import annotations

import numpy as np

from . import frames
from .errors import IsRieszBasis, NotADual, ShapeMismatch, ZeroProbe
from .frames import GFrame, analysis, canonical_dual, check_dual_pair, classify
from .linalg import TOL_EQ, TOL_RANK, fro, projector_gap, range_basis

PROJECTOR_TOL = 1e-8  # looser than TOL_EQ: two SVDs compound error


def kernel_vector(F: GFrame, seed: int = 0, tol_rank: float = TOL_RANK) -> np.ndarray:
    """Unit vector orthogonal to the analysis range, deterministically chosen.

    A complex Gaussian vector drawn from `default_rng(seed)` (seed >= 0) has
    its component in the range removed by projecting out an orthonormal range
    basis from the thin SVD, twice, which restores orthogonality to working
    precision ("twice is enough").  Cost and memory are O(m n) for m stacked
    rows.  The vector is re-signed so its first nonzero entry is real
    positive.
    """
    T = analysis(F).matrix
    U = range_basis(T, tol_rank=tol_rank)
    m = T.shape[0]
    if U.shape[1] >= m:
        raise IsRieszBasis("analysis operator is surjective; no kernel vector")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    for _ in range(2):
        v -= U @ (U.conj().T @ v)
    v /= np.linalg.norm(v)
    idx = int(np.argmax(np.abs(v) > 1e-12))
    phase = v[idx] / abs(v[idx])
    v = v / phase
    return v


def construct_alternate_dual(F: GFrame, g0, seed: int = 0) -> GFrame:
    """A verified dual of F that differs from the canonical dual.

    Block j of the result is the canonical-dual block plus the rank-one map
    f -> <g0, f> F_j, with F_j the j-th slice of a unit cokernel vector of
    the analysis operator.
    """
    cls = classify(F)
    if cls.is_riesz_basis:
        raise IsRieszBasis("a Riesz operator basis has a unique dual")
    if not cls.is_frame:
        from .errors import NotAFrame

        raise NotAFrame("alternate dual requires a frame")
    g0 = np.asarray(g0, dtype=np.complex128).ravel()
    if g0.shape[0] != F.hilbert_dim:
        raise ShapeMismatch("probe vector has wrong dimension")
    if np.linalg.norm(g0) == 0.0:
        raise ZeroProbe("probe vector must be nonzero")

    kv = kernel_vector(F, seed=seed)
    dual = canonical_dual(F)
    stacked = analysis(F)
    blocks = []
    for j, B in enumerate(dual.blocks):
        end = stacked.offsets[j + 1] if j + 1 < len(stacked.offsets) else kv.shape[0]
        Fj = kv[stacked.offsets[j]:end]
        blocks.append(B + np.outer(Fj, g0.conj()))
    return GFrame(F.hilbert_dim, tuple(blocks))


def check_similar(F: GFrame, G: GFrame, tol_eq: float = TOL_EQ,
                  tol_proj: float = PROJECTOR_TOL):
    """Invertible X with F_j = G_j X for all j, or None.

    Two frames are similar exactly when their analysis operators have the
    same range; the range test measures the distance of the orthogonal
    projectors from orthonormal range bases, then X is recovered by least
    squares on the stacked systems and verified blockwise.
    """
    if not F.same_shape(G):
        raise ShapeMismatch("similarity check needs identical block shapes")
    TF = analysis(F).matrix
    TG = analysis(G).matrix
    UF = range_basis(TF)
    # ||P_F||_F = sqrt(rank F)
    if projector_gap(UF, range_basis(TG)) > tol_proj * max(1.0, np.sqrt(UF.shape[1])):
        return None
    X, *_ = np.linalg.lstsq(TG, TF, rcond=None)
    for Bf, Bg in zip(F.blocks, G.blocks):
        if fro(Bg @ X - Bf) > tol_eq * max(1.0, fro(Bf)):
            return None
    return X


def dual_norm_decomposition(F: GFrame, G: GFrame, f):
    """Pythagorean split of the analysis norm of a dual G against the
    canonical dual: returns (||T_can f||^2, ||T_G f - T_can f||^2, ||T_G f||^2).

    The middle term is the excess; it vanishes iff G acts like the canonical
    dual on f, so the canonical dual minimizes the analysis norm.
    """
    if not check_dual_pair(F, G):
        raise NotADual("G does not reconstruct against F")
    f = np.asarray(f, dtype=np.complex128).ravel()
    T_can = analysis(canonical_dual(F)).matrix
    T_G = analysis(G).matrix
    a = T_can @ f
    b = T_G @ f
    return (
        float(np.linalg.norm(a) ** 2),
        float(np.linalg.norm(b - a) ** 2),
        float(np.linalg.norm(b) ** 2),
    )


def gram_characterization(F: GFrame, Th: GFrame, G: GFrame,
                          tol_eq: float = TOL_EQ) -> bool:
    """True iff T_Th† T_Th = T_Th† T_G; holds for every dual G exactly when
    Th is the canonical dual."""
    if not check_dual_pair(F, Th):
        raise NotADual("Th does not reconstruct against F")
    if not check_dual_pair(F, G):
        raise NotADual("G does not reconstruct against F")
    T_Th = analysis(Th).matrix
    T_G = analysis(G).matrix
    M1 = T_Th.conj().T @ T_Th
    M2 = T_Th.conj().T @ T_G
    return fro(M1 - M2) <= tol_eq * max(1.0, fro(M1))

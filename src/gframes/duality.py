"""Non-canonical duals, similarity, and dual-minimality.

The alternate-dual construction perturbs the canonical dual by a rank-one
map per block built from a unit vector in the orthogonal complement of the
analysis range; the perturbation leaves the reconstruction identity intact
because every cross term against the analysis range vanishes.
"""
from __future__ import annotations

import numpy as np

from .errors import IsRieszBasis, NotADual, NotAFrame, ShapeMismatch, ZeroProbe
from .frames import GFrame, analysis, canonical_dual, check_dual_pair, classify
from .linalg import PROJECTOR_TOL, TOL_EQ, block_norms, fro, projector_gap, within


def kernel_vector(F: GFrame, seed: int = 0) -> np.ndarray:
    """Unit vector orthogonal to the analysis range, deterministically chosen.

    A complex Gaussian vector drawn from `default_rng(seed)` (seed >= 0) has
    its component in the range removed by projecting out an orthonormal range
    basis (from the frame's cached factor), twice, which restores
    orthogonality to working precision ("twice is enough").  Cost and memory
    are O(m n) for m stacked rows.  The vector is re-signed so its first
    nonzero entry is real positive.
    """
    U = F.range_basis()
    m = F.total_dim
    if U.shape[1] >= m:
        raise IsRieszBasis("analysis operator is surjective; no kernel vector")
    rng = np.random.default_rng(seed)
    v = np.zeros(m)
    while not np.any(v):   # a draw in the range projects to 0: take the next
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
        raise NotAFrame("alternate dual requires a frame")
    g0 = np.asarray(g0, dtype=np.complex128).ravel()
    if g0.shape[0] != F.hilbert_dim:
        raise ShapeMismatch("probe vector has wrong dimension")
    if np.linalg.norm(g0) == 0.0:
        raise ZeroProbe("probe vector must be nonzero")

    kv = kernel_vector(F, seed=seed)
    T = analysis(canonical_dual(F)) + np.outer(kv, g0.conj())
    return GFrame._from_matrix(T, F.block_dims)


def check_similar(F: GFrame, G: GFrame):
    """X with F_j = G_j X for all j, or None.

    Two frames are similar exactly when their analysis operators have the
    same range; the range test measures the distance of the orthogonal
    projectors from orthonormal range bases.  X is then the least-squares
    solution T_G^+ T_F, invertible when F is complete and zero on F's kernel
    otherwise.  It is formed as V_r Sigma_r^{-1} U_r† T_F, with the
    whitening W = V_r Sigma_r^{-1} and the range basis U_r both from G's
    cached factor, plus one step of refinement on the residual; it is
    verified blockwise on the matrices, so the check stays real for a
    canonical dual, whose cached factor is its frame's rather than its
    own.  The blockwise tolerance is max(TOL_EQ, 16 eps cond(T_G)), with
    cond(T_G) from G's cached sigma: an exact X carries W's round-off,
    about eps cond(T_G).  No product squares Sigma or T, so neither can
    overflow or underflow where T itself does not.
    """
    if not F.same_shape(G):
        raise ShapeMismatch("similarity check needs identical block shapes")
    UF, UG = F.range_basis(), G.range_basis()
    # ||P_F||_F = sqrt(rank F)
    if not within(projector_gap(UF, UG), PROJECTOR_TOL, np.sqrt(UF.shape[1])):
        return None
    TF, TG = analysis(F), analysis(G)
    s, Vh, _ = G.spectrum
    r = UG.shape[1]
    W = Vh[:r].conj().T / s[:r]
    Uh = UG.conj().T
    X = W @ (Uh @ TF)
    X -= W @ (Uh @ (TG @ X - TF))
    tol = max(TOL_EQ, 16 * np.finfo(np.float64).eps * s[0] / s[r - 1]) if r else TOL_EQ
    err = block_norms(TG @ X - TF, F.block_dims)
    if not within(err, tol, block_norms(TF, F.block_dims)):
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
    T_can = analysis(canonical_dual(F))
    T_G = analysis(G)
    a = T_can @ f
    b = T_G @ f
    return (
        float(np.linalg.norm(a) ** 2),
        float(np.linalg.norm(b - a) ** 2),
        float(np.linalg.norm(b) ** 2),
    )


def gram_characterization(F: GFrame, Th: GFrame, G: GFrame) -> bool:
    """True iff T_Th† T_Th = T_Th† T_G; holds for every dual G exactly when
    Th is the canonical dual."""
    if not check_dual_pair(F, Th):
        raise NotADual("Th does not reconstruct against F")
    if not check_dual_pair(F, G):
        raise NotADual("G does not reconstruct against F")
    T_Th = analysis(Th)
    T_G = analysis(G)
    M1 = T_Th.conj().T @ T_Th
    M2 = T_Th.conj().T @ T_G
    return within(fro(M1 - M2), TOL_EQ, fro(M1))

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
from .linalg import TOL_EQ, block_norms, exponent, fro, ldexp, within


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
    f -> c <g0, f> F_j, with F_j the j-th slice of a unit cokernel vector of
    the analysis operator and c the power of two nearest 1/sigma_min, the
    canonical dual's scale (at most 2^1023; c = 1 for sigma_min in
    [1/sqrt2, sqrt2)), read from F's cached singular values.
    """
    cls = classify(F)
    if cls.is_riesz_basis:
        raise IsRieszBasis("a Riesz operator basis has a unique dual")
    if not cls.is_frame:
        raise NotAFrame("alternate dual requires a frame")
    g0 = np.asarray(g0, dtype=np.complex128).ravel()
    if g0.shape[0] != F.hilbert_dim:
        raise ShapeMismatch("probe vector has wrong dimension")
    if not np.any(g0):
        raise ZeroProbe("probe vector must be nonzero")

    kv = kernel_vector(F, seed=seed)
    T_can = analysis(canonical_dual(F))
    # once the dual exists, F is a frame and sigma_min > 0
    c = np.ldexp(1.0, min(1023, -int(np.floor(np.log2(F.spectrum[0][-1]) + 0.5))))
    T = T_can + np.outer(c * kv, g0.conj())
    return GFrame._from_matrix(T, F.block_dims)


def check_similar(F: GFrame, G: GFrame):
    """X with F_j = G_j X for all j, or None.

    X is the least-squares solution T_G^+ T_F, invertible when F is
    complete and singular otherwise, formed as V_r Sigma_r^{-1} U_r† T_F
    with the whitening W = V_r Sigma_r^{-1} and the range basis U_r from
    G's cached factor, plus one step of refinement on the residual.  F is
    never factored.  The residual decides: F is similar when every block
    ||G_j X - F_j|| is within tol of max(2^e, ||F_j||), in units of T_F's
    power-of-two unit 2^e (see exponent), so scaling F and G by one power
    of two changes no number compared.  The tolerance is max(TOL_EQ,
    16 eps cond(T_G)), with cond(T_G) from G's cached sigma: an exact X
    carries W's round-off, about eps cond(T_G).  The check stays real for
    a canonical dual G, whose cached factor is its frame's rather than its
    own.  No product squares Sigma or T, so neither can overflow or
    underflow where T itself does not.
    """
    if not F.same_shape(G):
        raise ShapeMismatch("similarity check needs identical block shapes")
    TF, TG = analysis(F), analysis(G)
    UG = G.range_basis()
    s, Vh, _ = G.spectrum
    r = UG.shape[1]
    W = Vh[:r].conj().T / s[:r]
    Uh = UG.conj().T
    X = W @ (Uh @ TF)
    X -= W @ (Uh @ (TG @ X - TF))
    tol = max(TOL_EQ, 16 * np.finfo(np.float64).eps * s[0] / s[r - 1]) if r else TOL_EQ
    e = exponent(TF)
    err = np.ldexp(block_norms(TG @ X - TF, F.block_dims), -e)
    if not within(err, tol, np.maximum(1.0, np.ldexp(block_norms(TF, F.block_dims), -e))):
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
    T_Th, T_G = analysis(Th), analysis(G)
    # T_Th†(T_Th - T_G), the two sides' difference, from both duals scaled by
    # one power of two, at the scale ||T_Th||_F^2 >= ||T_Th† T_Th||_F: no floor
    e = max(exponent(T_Th), exponent(T_G))
    T_Th, T_G = ldexp(T_Th, -e), ldexp(T_G, -e)
    return within(fro(T_Th.conj().T @ (T_Th - T_G)), TOL_EQ, fro(T_Th) ** 2)

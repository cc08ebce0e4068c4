"""Truncated two-index coherent states built on an orthonormal operator basis.

The two-index Fock space is spanned by the columns t_k^(l) = theta_l† e_k,
arranged as an n x (K*L) matrix with column index l*K + k.  Coherent states
are the Gaussian-weighted double power series over these columns, truncated
at K levels per block and L blocks; the discarded mass (the truncation
defect) is computed exactly as a Poisson tail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.laguerre import laggauss

from . import linalg
from .errors import (
    InsufficientNodes,
    NonUniformBlocks,
    NotOnBasis,
    NotRieszBasis,
    TruncationTooSevere,
)
from .frames import GFrame, classify, frame_operator
from .linalg import TOL_EQ


@dataclass(frozen=True)
class FockStructure:
    K: int                     # levels per block
    L: int                     # number of blocks
    basis_columns: np.ndarray  # n x (K*L); column l*K + k is t_k^(l)
    source: GFrame

    @property
    def dim(self):
        return self.K * self.L

    def column(self, k: int, l: int) -> np.ndarray:
        return self.basis_columns[:, l * self.K + k]


@dataclass(frozen=True)
class CoherentState:
    z: complex
    w: complex
    vector: np.ndarray
    truncation_defect: float


@dataclass(frozen=True)
class LadderPair:
    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class BicoherentFamily:
    """Coherent triple over a Riesz operator basis: the state over the Riesz
    columns, over their dual columns, and over the inverse-factor columns
    (the latter two coincide), plus the similarity-transformed ladder
    operators acting as lowering maps on each column family."""

    phi: np.ndarray        # series over u_k^(l) = X† t_k^(l)
    phi_dual: np.ndarray   # series over v_k^(l) = S^{-1} X† t_k^(l)
    phi_up: np.ndarray     # series over p_k^(l) = X^{-1} t_k^(l)
    a_riesz: np.ndarray
    a_dual: np.ndarray
    a_up: np.ndarray
    b_riesz: np.ndarray
    b_dual: np.ndarray
    b_up: np.ndarray
    u_columns: np.ndarray
    v_columns: np.ndarray
    p_columns: np.ndarray
    x_factor: np.ndarray
    fock: FockStructure
    truncation_defect: float


def _poisson_tails(x: float, m: int) -> np.ndarray:
    """Discarded masses sum_{j>k} e^{-x} x^j / j! for k = 0..m-1.

    Only the terms within 40 standard deviations of the mean x, and up to
    60 past m, are summed: the rest add up to less than e^-800 of the total,
    so every tail below the kept range is 1 and the work is O(m + sqrt(x)).
    Each term is exp(j ln x - x - ln j!), its exponent carried as a
    cumulative sum of ln(x / j) so that neither x^j nor j! overflows.
    Summing from the far end keeps the relative accuracy of a small tail,
    which 1 minus a sum close to 1 would lose.
    """
    if x == 0.0:
        return np.zeros(m)
    tails = np.ones(m)
    spread = 40.0 * np.sqrt(x)
    lo = int(max(x - spread, 0.0)) if np.isfinite(x) else m
    if lo >= m:
        return tails
    hi = int(max(m, x + spread)) + 60
    first = lo * np.log(x) - x - math.lgamma(lo + 1)
    log_terms = np.cumsum(np.concatenate(([first], np.log(x / np.arange(lo + 1.0, hi)))))
    upper = np.cumsum(np.exp(log_terms)[::-1])[::-1]   # upper[i]: sum over j >= lo + i
    tails[lo:] = np.minimum(upper[1:m - lo + 1], 1.0)
    return tails


def tail_mass(m: int, x: float) -> float:
    """Discarded probability mass 1 - e^{-x} sum_{k<=m} x^k / k!."""
    return float(_poisson_tails(x, m + 1)[-1])


def truncation_defect(z: complex, w: complex, K: int, L: int) -> float:
    """Exact discarded mass of the double series truncated at (K, L)."""
    pz = 1.0 - tail_mass(K - 1, abs(z) ** 2)
    pw = 1.0 - tail_mass(L - 1, abs(w) ** 2)
    return float(1.0 - pz * pw)


def required_truncation(z: complex, w: complex, defect_max: float):
    """Smallest (K, L) meeting the defect budget, split evenly."""
    def smallest(x):
        ok = np.flatnonzero(_poisson_tails(x, 99_999) <= defect_max / 2.0)
        return int(ok[0]) + 1 if ok.size else 100_000

    return smallest(abs(z) ** 2), smallest(abs(w) ** 2)


def _series_weights(z: complex, m: int) -> np.ndarray:
    """Coefficients z^k / sqrt(k!) for k = 0..m-1."""
    out = np.empty(m, dtype=np.complex128)
    c = 1.0 + 0.0j
    for k in range(m):
        out[k] = c
        c = c * z / np.sqrt(k + 1.0)
    return out


def coefficient_vector(z: complex, w: complex, K: int, L: int) -> np.ndarray:
    """Gaussian-normalized truncated coefficients, ordered to match the
    column index l*K + k."""
    alpha = _series_weights(z, K)
    beta = _series_weights(w, L)
    norm = np.exp(-(abs(z) ** 2 + abs(w) ** 2) / 2.0)
    return norm * np.kron(beta, alpha)


def build_fock(gon: GFrame, tol_eq: float = TOL_EQ) -> FockStructure:
    """Arrange an orthonormal operator basis with uniform block dimension K
    into the two-index Fock column matrix."""
    dims = gon.block_dims
    if len(set(dims)) != 1:
        raise NonUniformBlocks(f"block dimensions {dims} are not uniform")
    if not classify(gon, tol_eq=tol_eq).is_on_basis:
        raise NotOnBasis("build_fock requires an orthonormal operator basis")
    K = dims[0]
    L = len(dims)
    cols = np.hstack([B.conj().T for B in gon.blocks])
    return FockStructure(K=K, L=L, basis_columns=cols, source=gon)


def coherent_state(fs: FockStructure, z: complex, w: complex,
                   defect_max: float = 1e-8) -> CoherentState:
    """Renormalized truncated coherent state at labels (z, w)."""
    defect = truncation_defect(z, w, fs.K, fs.L)
    if defect > defect_max:
        kr, lr = required_truncation(z, w, defect_max)
        raise TruncationTooSevere(
            f"defect {defect:.3e} exceeds {defect_max:.1e}; "
            f"need K >= {kr}, L >= {lr}",
            required_k=kr, required_l=lr,
        )
    c = coefficient_vector(z, w, fs.K, fs.L)
    v = fs.basis_columns @ c
    v = v / np.linalg.norm(v)
    return CoherentState(z=complex(z), w=complex(w), vector=v,
                         truncation_defect=defect)


def _coefficient_lowering(K: int, L: int):
    """Lowering matrices on the coefficient space: in-level index k and
    block index l.  The top level maps to zero (projection onto the
    truncated space)."""
    a1 = np.diag(np.sqrt(np.arange(1, K)), 1).astype(np.complex128)
    b1 = np.diag(np.sqrt(np.arange(1, L)), 1).astype(np.complex128)
    a = np.kron(np.eye(L), a1)
    b = np.kron(b1, np.eye(K))
    return a, b


def ladder_ops(fs: FockStructure) -> LadderPair:
    """Commuting lowering pair acting on the ambient space, built columnwise
    from sqrt(k) and sqrt(l) shifts on the Fock columns."""
    a_c, b_c = _coefficient_lowering(fs.K, fs.L)
    C = fs.basis_columns
    Cd = C.conj().T
    return LadderPair(a=C @ a_c @ Cd, b=C @ b_c @ Cd)


def _radial_angular_gram(m: int, radial_nodes: int, angular_nodes: int) -> np.ndarray:
    """Quadrature of (1/pi) int e^{-|z|^2} alpha(z) alpha(z)† over the plane,
    with alpha_k(z) = z^k / sqrt(k!), k < m.

    Substituting z = sqrt(u) e^{i phi} factorizes the integral into a
    Gauss-Laguerre rule in u and a uniform angular grid; both are exact at
    the stated node counts because the integrand is polynomial in u and a
    trigonometric polynomial of degree < 2m - 1 in phi.  The exact value is
    the identity (moments delta_{km} k!).
    """
    u, wu = laggauss(radial_nodes)
    phis = 2.0 * np.pi * np.arange(angular_nodes) / angular_nodes
    G = np.zeros((m, m), dtype=np.complex128)
    for ui, wi in zip(u, wu):
        r = np.sqrt(ui)
        for phi in phis:
            alpha = _series_weights(r * np.exp(1j * phi), m)
            G += (wi / angular_nodes) * np.outer(alpha, alpha.conj())
    return G


def coefficient_quadrature(K: int, L: int, radial_nodes: int,
                           angular_nodes: int) -> np.ndarray:
    """Coefficient-space Gram of the double phase-space integral, the tensor
    product of the per-label quadratures.  Node counts below the exactness
    threshold raise rather than silently alias."""
    need_ang = max(2 * K - 1, 2 * L - 1)
    need_rad = max(K, L)
    if angular_nodes < need_ang or radial_nodes < need_rad:
        raise InsufficientNodes(
            f"need radial >= {need_rad}, angular >= {need_ang}",
            required_radial=need_rad, required_angular=need_ang,
        )
    Gz = _radial_angular_gram(K, radial_nodes, angular_nodes)
    Gw = Gz if L == K else _radial_angular_gram(L, radial_nodes, angular_nodes)
    return np.kron(Gw, Gz)


def pair_quadrature(left_columns: np.ndarray, right_columns: np.ndarray,
                    K: int, L: int, radial_nodes: int,
                    angular_nodes: int) -> np.ndarray:
    """Phase-space integral of |left(z,w)><right(z,w)| for the unnormalized
    series over the two column families, with the Gaussian weight folded
    into the measure."""
    G = coefficient_quadrature(K, L, radial_nodes, angular_nodes)
    return left_columns @ G @ right_columns.conj().T


def quadrature_identity(fs: FockStructure, radial_nodes: int,
                        angular_nodes: int) -> np.ndarray:
    """Numerically integrated resolution of identity; equals the identity up
    to round-off once the node counts meet the exactness thresholds."""
    C = fs.basis_columns
    return pair_quadrature(C, C, fs.K, fs.L, radial_nodes, angular_nodes)


def uncertainty_product(fs: FockStructure, z: complex, w: complex,
                        defect_max: float = 1e-10):
    """Uncertainty products (dq_a * dp_a, dq_b * dp_b) for the quadrature
    observables of the lowering pair, evaluated on the truncated state.
    Both converge to 1/2 as the defect vanishes."""
    state = coherent_state(fs, z, w, defect_max=defect_max)
    ops = ladder_ops(fs)

    def product(low):
        high = low.conj().T
        q = (low + high) / np.sqrt(2.0)
        p = (low - high) / (np.sqrt(2.0) * 1j)
        out = []
        for Xop in (q, p):
            v = state.vector
            mean = np.vdot(v, Xop @ v).real
            second = np.vdot(v, Xop @ (Xop @ v)).real
            out.append(np.sqrt(max(second - mean ** 2, 0.0)))
        return out[0] * out[1]

    return float(product(ops.a)), float(product(ops.b))


def bicoherent_family(riesz: GFrame, z: complex, w: complex,
                      defect_max: float = 1e-10,
                      tol_eq: float = TOL_EQ) -> BicoherentFamily:
    """Coherent triple over a Riesz operator basis.

    The similarity factor is recovered canonically as the Hermitian square
    root of the frame operator (polar choice, unitary part fixed to the
    identity), and the underlying orthonormal basis as the blocks composed
    with its inverse.  The dual and inverse-factor column families coincide,
    so the dual and "up" states collapse to one set.
    """
    cls = classify(riesz, tol_eq=tol_eq)
    if not cls.is_riesz_basis:
        raise NotRieszBasis("bicoherent_family requires a Riesz operator basis")
    dims = riesz.block_dims
    if len(set(dims)) != 1:
        raise NonUniformBlocks(f"block dimensions {dims} are not uniform")

    S = frame_operator(riesz)
    X, X_inv, S_inv = linalg.herm_funcs(S, ("sqrt", "inv_sqrt", "inverse"))
    gon = riesz.map_blocks(lambda B: B @ X_inv)
    fs = build_fock(gon, tol_eq=max(tol_eq, 1e-9))

    defect = truncation_defect(z, w, fs.K, fs.L)
    if defect > defect_max:
        kr, lr = required_truncation(z, w, defect_max)
        raise TruncationTooSevere(
            f"defect {defect:.3e} exceeds {defect_max:.1e}",
            required_k=kr, required_l=lr,
        )

    # X is Hermitian, so X† = X and (X†)^{-1} = X^{-1}
    C = fs.basis_columns
    U_cols = X @ C
    V_cols = S_inv @ X @ C
    P_cols = X_inv @ C

    c = coefficient_vector(z, w, fs.K, fs.L)
    ops = ladder_ops(fs)
    a, b = ops.a, ops.b

    return BicoherentFamily(
        phi=U_cols @ c,
        phi_dual=V_cols @ c,
        phi_up=P_cols @ c,
        a_riesz=X @ a @ X_inv,
        a_dual=S_inv @ X @ a @ X_inv @ S,
        a_up=X_inv @ a @ X,
        b_riesz=X @ b @ X_inv,
        b_dual=S_inv @ X @ b @ X_inv @ S,
        b_up=X_inv @ b @ X,
        u_columns=U_cols,
        v_columns=V_cols,
        p_columns=P_cols,
        x_factor=X,
        fock=fs,
        truncation_defect=defect,
    )

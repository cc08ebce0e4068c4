"""Truncated two-index coherent states built on an orthonormal operator basis.

The two-index Fock space is spanned by the columns t_k^(l) = theta_l† e_k,
arranged as an n x (K*L) matrix with column index l*K + k.  Coherent states
are the Gaussian-weighted double power series over these columns, truncated
at K levels per block and L blocks; the discarded mass (the truncation
defect) is computed exactly as a Poisson tail.

The column matrix C is unitary and the ladder maps are banded shifts on the
coefficient index, so operators and moments are formed in coefficient space:
each ladder operator is kept as its factors C ã C† and applied to a vector
through them, in O(n K L) work.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .errors import (
    InsufficientNodes,
    NonUniformBlocks,
    NotOnBasis,
    NotRieszBasis,
    TruncationTooSevere,
)
from .frames import GFrame, _is_on_basis, _spectral_rules, analysis
from .linalg import TOL_EQ, exponent

DEFECT_MAX = 1e-10   # every builder's budget: the uncertainty checks need it this tight


@dataclass(frozen=True)
class FockStructure:
    K: int                     # levels per block
    L: int                     # number of blocks
    basis_columns: np.ndarray  # n x (K*L); column l*K + k is t_k^(l)


@dataclass(frozen=True)
class CoherentState:
    z: complex
    w: complex
    vector: np.ndarray
    truncation_defect: float


@dataclass(frozen=True)
class _Ladder:
    """The operator left ã right† on the ambient space, kept as its factors:
    ã is the truncated lowering map of `_lower` on the coefficient index
    l*K + k.  On the Fock columns, left = right = C, it is a ladder operator
    of the pair; `@` applies it to a vector or an n x k matrix in O(n K L k)
    work and `dense()` forms it as an n x n array, copying neither factor."""

    left: np.ndarray
    right: np.ndarray
    K: int
    L: int
    axis: str

    def __matmul__(self, x):
        # right† x as (right^T conj(x))^*, so that right is not copied
        y = (self.right.T @ np.conj(x)).conj()
        step, roots = _shift(self.K, self.L, self.axis)
        out = np.zeros_like(y)
        # ã y: entry i is roots[i] y[i + step], along the first axis of y
        np.multiply(y[step:].T, roots, out=out[:len(out) - step].T)
        return self.left @ out

    def dense(self) -> np.ndarray:
        M = _lower(self.left, self.K, self.L, self.axis)
        M = np.conj(M, out=M) @ self.right.T   # (left ã right†)^*, in place
        return np.conj(M, out=M)


@dataclass(frozen=True)
class LadderPair:
    a: _Ladder
    b: _Ladder


@dataclass(frozen=True)
class BicoherentFamily:
    """Coherent triple over a Riesz operator basis: the state over the Riesz
    columns, over their dual columns, and over the inverse-factor columns
    (the latter two coincide), plus the similarity-transformed ladder
    operators acting as lowering maps on each column family.  The coinciding
    dual and inverse-factor fields hold the same arrays."""

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


def _intensity(z: complex) -> float:
    """|z|^2, the Poisson mean of a label; inf where it overflows a float."""
    try:
        return abs(complex(z)) ** 2
    except OverflowError:
        return math.inf


def truncation_defect(z: complex, w: complex, K: int, L: int) -> float:
    """Discarded mass of the double series truncated at (K, L):
    1 - (1 - t_z)(1 - t_w) for the tails t_z and t_w, summed as
    t_z + t_w - t_z t_w so that a small defect keeps its relative accuracy."""
    tz = tail_mass(K - 1, _intensity(z))
    tw = tail_mass(L - 1, _intensity(w))
    return tz + tw - tz * tw


def required_truncation(z: complex, w: complex, defect_max: float):
    """Smallest (K, L) meeting the defect budget, split evenly."""
    def smallest(x):
        ok = np.flatnonzero(_poisson_tails(x, 99_999) <= defect_max / 2.0)
        return int(ok[0]) + 1 if ok.size else 100_000

    return smallest(_intensity(z)), smallest(_intensity(w))


def _checked_coefficients(z: complex, w: complex, K: int, L: int,
                          defect_max: float) -> tuple:
    """(c, defect): coefficient_vector at (z, w) truncated at (K, L) and its
    truncation defect, or TruncationTooSevere naming the smallest truncation
    that meets defect_max.  A label is refused when its defect exceeds the
    budget, and also when `_unit` cannot normalize c to full precision: a
    budget of 1 passes labels whose Gaussian weight underflows or whose
    |z|^2 overflows.  `_unit` scales c by a power of two first, so the
    plain sum of squares may underflow; it needs max|c| finite and a
    normal float, below which c has lost precision and the power of two
    overflows."""
    defect = truncation_defect(z, w, K, L)
    largest = 0.0
    if not defect > defect_max and math.isfinite(_intensity(z) + _intensity(w)):
        with np.errstate(all="ignore"):
            c = coefficient_vector(z, w, K, L)
            largest = np.max(np.abs(c))
    if not np.finfo(float).tiny <= largest < math.inf:
        kr, lr = required_truncation(z, w, defect_max)
        why = (f"defect {defect:.3e} exceeds {defect_max:.1e}"
               if defect > defect_max else
               f"coefficients truncated at K = {K}, L = {L} are below the "
               f"normal range or not finite")
        raise TruncationTooSevere(f"{why}; need K >= {kr}, L >= {lr}",
                                  required_k=kr, required_l=lr)
    return c, defect


def _unit(x: np.ndarray) -> np.ndarray:
    """x / ||x||, with x first scaled by the power of two that brings its
    largest real or imaginary part into [1/2, 1) (see exponent), so that
    the sum of squares neither underflows nor overflows.  The scaling is
    exact: wherever the plain quotient is accurate, the result is the same
    bit for bit."""
    x = x * math.ldexp(1.0, -exponent(x))
    return x / np.linalg.norm(x)


def _series_weights(z, m: int) -> np.ndarray:
    """Coefficients z^k / sqrt(k!) for k = 0..m-1, along a new last axis when
    z is an array, as the running product of the factors z / sqrt(k)."""
    z = np.asarray(z, dtype=np.complex128)[..., None]
    steps = z / np.sqrt(np.arange(1.0, m))
    return np.cumprod(np.concatenate((np.ones_like(z), steps), axis=-1), axis=-1)


def coefficient_vector(z: complex, w: complex, K: int, L: int) -> np.ndarray:
    """Gaussian-normalized truncated coefficients, ordered to match the
    column index l*K + k."""
    alpha = _series_weights(z, K)
    beta = _series_weights(w, L)
    norm = np.exp(-(abs(z) ** 2 + abs(w) ** 2) / 2.0)
    return norm * np.kron(beta, alpha)


def _levels(dims) -> tuple:
    """(K, L) for L blocks all of height K, else NonUniformBlocks."""
    if len(set(dims)) != 1:
        raise NonUniformBlocks(f"block dimensions {dims} are not uniform")
    return dims[0], len(dims)


def build_fock(gon: GFrame, tol_eq: float = TOL_EQ) -> FockStructure:
    """Arrange an orthonormal operator basis with uniform block dimension K
    into the two-index Fock column matrix."""
    K, L = _levels(gon.block_dims)
    if not _is_on_basis(gon, tol_eq):
        raise NotOnBasis("build_fock requires an orthonormal operator basis")
    return FockStructure(K=K, L=L, basis_columns=analysis(gon).conj().T)


def coherent_state(fs: FockStructure, z: complex, w: complex,
                   defect_max: float = DEFECT_MAX) -> CoherentState:
    """Renormalized truncated coherent state at labels (z, w)."""
    c, defect = _checked_coefficients(z, w, fs.K, fs.L, defect_max)
    v = _unit(fs.basis_columns @ c)
    return CoherentState(z=complex(z), w=complex(w), vector=v,
                         truncation_defect=defect)


def _lower(M: np.ndarray, K: int, L: int, axis: str) -> np.ndarray:
    """M ã for the truncated lowering map ã on the coefficient index l*K + k,
    applied along the last axis of M in O(size of M).

    Entry l*K + k of the result is sqrt(k) times entry l*K + k-1 of M (axis
    "a") or sqrt(l) times entry (l-1)*K + k (axis "b"); the bottom level is
    zero.  On the Fock columns C, M ã C† is the lowering operator itself; on
    a row of coefficients c it gives (ã† c)^T, the raised coefficients.
    """
    step, roots = _shift(K, L, axis)
    out = np.zeros_like(M)
    np.multiply(M[..., :K * L - step], roots, out=out[..., step:])
    return out


def _shift(K: int, L: int, axis: str) -> tuple:
    """(step, roots) of the lowering map ã on axis "a" or "b": ã sends
    coefficient i + step to i times roots[i], the square root of the level
    of i + step (k on axis "a", l on axis "b"), which is 0 where i + step
    starts a block on axis "a"."""
    step = 1 if axis == "a" else K
    index = np.arange(step, K * L)
    return step, np.sqrt(index % K if axis == "a" else index // K)


def ladder_ops(fs: FockStructure) -> LadderPair:
    """Commuting lowering pair acting on the ambient space, C ã C† and
    C b̃ C†, kept as their factors: applying one to a vector costs
    O(n K L) and no n x n array is formed."""
    C = fs.basis_columns
    return LadderPair(*(_Ladder(C, C, fs.K, fs.L, axis) for axis in "ab"))


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
    A = _series_weights(np.outer(np.sqrt(u), np.exp(1j * phis)).ravel(), m)
    w = np.repeat(wu / angular_nodes, angular_nodes)
    return A.T @ (w[:, None] * A.conj())


def coefficient_quadrature(K: int, L: int, radial_nodes: int,
                           angular_nodes: int) -> tuple:
    """Per-label Grams (Gz, Gw) of the double phase-space integral, whose
    tensor product Gw ⊗ Gz is its coefficient-space Gram.  Node counts below
    the exactness threshold raise rather than silently alias."""
    need_ang = max(2 * K - 1, 2 * L - 1)
    need_rad = max(K, L)
    if angular_nodes < need_ang or radial_nodes < need_rad:
        raise InsufficientNodes(
            f"need radial >= {need_rad}, angular >= {need_ang}",
            required_radial=need_rad, required_angular=need_ang,
        )
    Gz = _radial_angular_gram(K, radial_nodes, angular_nodes)
    Gw = Gz if L == K else _radial_angular_gram(L, radial_nodes, angular_nodes)
    return Gz, Gw


def pair_quadrature(left_columns: np.ndarray, right_columns: np.ndarray,
                    K: int, L: int, radial_nodes: int,
                    angular_nodes: int) -> np.ndarray:
    """Phase-space integral of |left(z,w)><right(z,w)| for the unnormalized
    series over the two column families, with the Gaussian weight folded
    into the measure.

    The Gram Gw ⊗ Gz is applied one factor at a time on the coefficient
    index l*K + k, never formed: Gz over k, then Gw over l, in O(n^2 (K+L))
    work, on the transpose so that each product runs on rows of the
    columns' memory."""
    Gz, Gw = coefficient_quadrature(K, L, radial_nodes, angular_nodes)
    n = left_columns.shape[0]
    # rows l*K + k of M = (left (Gw ⊗ Gz))^T
    M = Gz.T @ left_columns.T.reshape(L, K, n)
    M = Gw.T @ M.reshape(L, K * n)
    return M.reshape(K * L, n).T @ right_columns.conj().T


def quadrature_identity(fs: FockStructure, radial_nodes: int,
                        angular_nodes: int) -> np.ndarray:
    """Numerically integrated resolution of identity; equals the identity up
    to round-off once the node counts meet the exactness thresholds."""
    C = fs.basis_columns
    return pair_quadrature(C, C, fs.K, fs.L, radial_nodes, angular_nodes)


def uncertainty_product(fs: FockStructure, z: complex, w: complex,
                        defect_max: float = DEFECT_MAX):
    """Uncertainty products (dq_a * dp_a, dq_b * dp_b) for the quadrature
    observables of the lowering pair, evaluated on the truncated state.
    Both converge to 1/2 as the defect vanishes."""
    # the state is v = C c / ||C c||, and C is unitary to build_fock's
    # tol_eq, so C† v = c / ||c|| to that tolerance: no n-vector is formed
    c = _unit(_checked_coefficients(z, w, fs.K, fs.L, defect_max)[0])
    index = np.arange(fs.K * fs.L)
    power = np.abs(c) ** 2

    def product(axis, level):
        # q = (a + a†)/sqrt2 and p = (a - a†)/(sqrt2 i) with a = C ã C†; on
        # c = C† v, r = ã† c gives <a> = <r, c> and <a^2> = <ã† r, c>, and
        # <a a†> + <a† a> = ||r||^2 + sum_k k |c_k|^2
        r = _lower(c, fs.K, fs.L, axis)
        first = np.vdot(r, c)
        second = np.vdot(_lower(r, fs.K, fs.L, axis), c).real
        both = np.vdot(r, r).real + float(level @ power)
        var_q = (both + 2.0 * second) / 2.0 - 2.0 * first.real ** 2
        var_p = (both - 2.0 * second) / 2.0 - 2.0 * first.imag ** 2
        return np.sqrt(max(var_q, 0.0)) * np.sqrt(max(var_p, 0.0))

    return (float(product("a", index % fs.K)),
            float(product("b", index // fs.K)))


def bicoherent_family(riesz: GFrame, z: complex, w: complex,
                      defect_max: float = DEFECT_MAX) -> BicoherentFamily:
    """Coherent triple over a Riesz operator basis.

    Everything comes from one thin SVD T = W Σ V† of the stacked blocks.  The
    similarity factor is the Hermitian square root X = V Σ V† of the frame
    operator (polar choice, unitary part fixed to the identity), and the
    underlying orthonormal basis is T X^{-1} = W V†, the polar factor of T,
    orthonormal to round-off however ill-conditioned T is, so its Fock
    columns C = V W† need no check.  The Riesz columns are X C = T† and the
    dual and inverse-factor columns S^{-1} X C and X^{-1} C are both
    V Σ^{-1} W†, so the dual and "up" states and operators collapse to one
    set.  The Riesz test is `classify`'s, on the ratios of the singular
    values.
    """
    T = analysis(riesz)
    W, s, Vh = np.linalg.svd(T, full_matrices=False)
    _, is_frame, rank = _spectral_rules(s, riesz.hilbert_dim)
    if not (is_frame and rank == riesz.total_dim):
        raise NotRieszBasis("bicoherent_family requires a Riesz operator basis")
    K, L = _levels(riesz.block_dims)
    c, defect = _checked_coefficients(z, w, K, L, defect_max)

    C = (W @ Vh).conj().T
    U_cols = T.conj().T
    P_cols = (Vh.conj().T / s) @ W.conj().T
    # no product below needs the factors
    del W, Vh
    # X a X^{-1} = U ã P† and X^{-1} a X = P ã U† (X is Hermitian); X is last,
    # so the peak is eight n x n arrays: seven outputs and one shifted factor
    a_riesz, b_riesz = (_Ladder(U_cols, P_cols, K, L, axis).dense() for axis in "ab")
    a_up, b_up = (_Ladder(P_cols, U_cols, K, L, axis).dense() for axis in "ab")
    X = C @ T   # V W† W Σ V† = V Σ V†

    phi_up = P_cols @ c
    return BicoherentFamily(
        phi=U_cols @ c, phi_dual=phi_up, phi_up=phi_up,
        a_riesz=a_riesz, a_dual=a_up, a_up=a_up,
        b_riesz=b_riesz, b_dual=b_up, b_up=b_up,
        u_columns=U_cols, v_columns=P_cols, p_columns=P_cols, x_factor=X,
        fock=FockStructure(K=K, L=L, basis_columns=C),
        truncation_defect=defect,
    )

"""Dense complex-matrix substrate: Hermitian eigendecompositions, spectral
functions, norms, projector distances and random unitaries.

All tolerances are relative to the scale of the input (largest singular value
or Frobenius norm); absolute tolerances are never used, so every routine is
invariant under rescaling of its argument.
"""
from __future__ import annotations

import numpy as np

from .errors import NonFinite, NotHermitian, NotPositiveDefinite, NotUnitary

TOL_HERM = 1e-12
TOL_PD = 1e-12
TOL_RANK = 1e-10
TOL_EQ = 1e-10


def as_cmatrix(M) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting non-finite entries."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={A.ndim}")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise NonFinite("matrix contains NaN or Inf entries")
    return A


def fro(M) -> float:
    return float(np.linalg.norm(M, "fro"))


def opnorm(M) -> float:
    """Largest singular value."""
    if min(M.shape) == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def herm_eig(M, tol_herm: float = TOL_HERM):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix Q with columns the
    eigenvectors).  The input is symmetrized to (M + M†)/2 once the symmetry
    check passes, which removes round-off drift from products like T†T.
    """
    A = as_cmatrix(M)
    if A.shape[0] != A.shape[1]:
        raise ValueError("herm_eig requires a square matrix")
    scale = fro(A)
    if fro(A - A.conj().T) > tol_herm * max(scale, 1e-300):
        raise NotHermitian(
            f"asymmetry {fro(A - A.conj().T):.3e} exceeds {tol_herm:.1e} * ||M||"
        )
    A = (A + A.conj().T) / 2.0
    w, Q = np.linalg.eigh(A)
    return w, Q


_SPECTRAL = {
    "inverse": lambda w: 1.0 / w,
    "sqrt": np.sqrt,
    "inv_sqrt": lambda w: 1.0 / np.sqrt(w),
}


def herm_func(M, kind: str, tol_pd: float = TOL_PD) -> np.ndarray:
    """Apply inverse, sqrt or inv_sqrt to a Hermitian positive-definite matrix
    through its spectrum."""
    if kind not in _SPECTRAL:
        raise ValueError(f"unknown spectral function {kind!r}")
    w, Q = herm_eig(M)
    if w[0] <= tol_pd * max(w[-1], 0.0):
        raise NotPositiveDefinite(
            f"spectral floor {w[0]:.3e} below {tol_pd:.1e} * {w[-1]:.3e}"
        )
    F = (Q * _SPECTRAL[kind](w)) @ Q.conj().T
    return (F + F.conj().T) / 2.0


def projector_gap(U, V) -> float:
    """||U U† - V V†||_F for matrices U and V with orthonormal columns,
    without forming either m x m projector.

    With P and Q the two projectors, P - Q = P(I - Q) - (I - P)Q and the
    cross term vanishes, so the square is ||(I - Q)U||^2 + ||(I - P)V||^2:
    a sum of two nonnegative terms, free of the cancellation in
    rank P + rank Q - 2 ||V†U||^2.
    """
    C = V.conj().T @ U
    return float(np.hypot(fro(U - V @ C), fro(V - U @ C.conj().T)))


def check_unitary(U, tol: float = TOL_EQ) -> np.ndarray:
    A = as_cmatrix(U)
    if A.shape[0] != A.shape[1]:
        raise NotUnitary("unitary matrix must be square")
    n = A.shape[0]
    if fro(A.conj().T @ A - np.eye(n)) > tol * max(1.0, fro(A)):
        raise NotUnitary("U†U deviates from the identity beyond tolerance")
    return A


def random_units(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """`count` random unit vectors of C^n as the columns of an n x count
    matrix.  Vector i takes draws 2ni..2ni+2n-1 of the stream, real parts
    first, as successive calls drawing n real then n imaginary parts do."""
    g = rng.standard_normal((count, 2, n))
    f = g[:, 0] + 1j * g[:, 1]
    return (f / np.linalg.norm(f, axis=1, keepdims=True)).T


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Ginibre matrix."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    # fix phases so the factorization is unique
    d = np.diagonal(R)
    return Q * (d / np.abs(d))

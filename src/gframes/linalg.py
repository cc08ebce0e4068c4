"""Dense complex-matrix substrate: the tolerance policy, norms, projector
distances and random unitaries.

All tolerances are relative to the scale of the input (largest singular value
or Frobenius norm); absolute tolerances are never used, so every routine is
invariant under rescaling of its argument.
"""
from __future__ import annotations

import numpy as np

from .errors import NonFinite, NotUnitary

# frame rule: (sigma_min / sigma_max)^2 > TOL_PD, which make_griesz also
# applies to the singular values of X
TOL_PD = 1e-12
# rank rule: the singular values above TOL_RANK * sigma_max
TOL_RANK = 1e-10
# equality rules (see within)
TOL_EQ = 1e-10
# range equality in check_similar: looser than TOL_EQ, since the two range
# bases compared each carry their own round-off
PROJECTOR_TOL = 1e-8
# floor on the equality tolerance where the family tested carries the
# round-off of a computation (an alternate dual, the rotated orthonormal
# basis of the CLI's coherent suite), which a tighter TOL_EQ would reject;
# also the slack gavruta_check allows the measured premise constant over m
TOL_FLOOR = 1e-9


def within(measured, tol: float, scale=1.0, unit: float = 1.0) -> bool:
    """The tolerance policy of every equality decision (tight and Parseval
    bounds, orthonormal sets, dual pairs, biorthogonality, similarity, the
    Gram characterization, unitary rotations, gavruta_check's premise and
    the CLI's report thresholds): True when every entry of `measured` is at
    most tol * max(unit, scale), so never for NaN.  The tolerance is relative
    to the scale of the compared matrices, floored at 1, which is `unit` in
    power-of-two units.  Only TOL_EQ can be replaced per call, by the
    `tol_eq` of frame_bounds, classify, check_dual_pair and build_fock."""
    return bool(np.all(measured <= tol * np.maximum(unit, scale)))


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


def block_norms(M, dims) -> np.ndarray:
    """Frobenius norms of the consecutive row blocks of M with heights
    `dims`, through hypot, which cannot overflow."""
    starts = np.cumsum((0,) + tuple(dims[:-1]))
    return np.hypot.reduceat(np.hypot.reduce(np.abs(M), axis=1), starts)


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


def check_unitary(U) -> np.ndarray:
    A = as_cmatrix(U)
    if A.shape[0] != A.shape[1]:
        raise NotUnitary("unitary matrix must be square")
    n = A.shape[0]
    if not within(fro(A.conj().T @ A - np.eye(n)), TOL_EQ, fro(A)):
        raise NotUnitary("U†U deviates from the identity beyond tolerance")
    return A


def random_units(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """`count` random unit vectors of C^n as the columns of an n x count
    matrix.  Vector i takes draws 2ni..2ni+2n-1 of the stream, real parts
    first, as successive calls drawing n real then n imaginary parts do."""
    g = rng.standard_normal((count, 2, n))
    f = g[:, 0] + 1j * g[:, 1]
    return (f / np.linalg.norm(f, axis=1, keepdims=True)).T


# entries per block of sample_units, 1 MiB of complex128: the memory of a
# sampling check is one block's, whatever the sample count and dimension
SAMPLE_CHUNK = 2 ** 16


def sample_units(rng: np.random.Generator, n: int, count: int):
    """The `count` unit vectors of random_units(rng, n, count), from the same
    draws, yielded in blocks of max(1, SAMPLE_CHUNK // n) columns."""
    width = max(1, SAMPLE_CHUNK // n)
    for start in range(0, count, width):
        yield random_units(rng, n, min(width, count - start))


def sampled_max(rng: np.random.Generator, n: int, count: int, excess):
    """(value, witness): the largest of `excess(F)` over the `count` unit
    vectors of sample_units, floored at 0, and its first maximizer (None
    when nothing exceeds 0).  `excess(F)` gives one value per column of a
    block F, so the memory is one block's whatever the count."""
    value, witness = 0.0, None
    for F in sample_units(rng, n, count):
        r = excess(F)
        i = int(np.argmax(r))
        if r[i] > value:
            value, witness = float(r[i]), F[:, i].copy()
    return value, witness


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Ginibre matrix."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    # fix phases so the factorization is unique
    d = np.diagonal(R)
    return Q * (d / np.abs(d))

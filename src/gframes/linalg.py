"""Dense complex-matrix substrate: the tolerance policy, the scale rule, the
identity Gram rule (behind every orthonormal-set, orthonormal-basis,
biorthogonality and dual-pair decision), norms and random unitaries.

All tolerances are relative to the scale of the input (largest singular value
or Frobenius norm); absolute tolerances are never used, so every routine is
invariant under rescaling of its argument.
"""
from __future__ import annotations

import numpy as np

from .errors import NonFinite

# frame rule: (sigma_min / sigma_max)^2 > TOL_PD, which make_griesz also
# applies to the singular values of X
TOL_PD = 1e-12
# rank rule: the singular values above TOL_RANK * sigma_max
TOL_RANK = 1e-10
# equality rules (see within)
TOL_EQ = 1e-10
# floor on the equality tolerance of the CLI's alternate-dual check, whose
# dual carries the round-off of its construction, which a tighter TOL_EQ
# would reject; also the slack gavruta_check allows the measured premise
# constant over m
TOL_FLOOR = 1e-9


def within(measured, tol: float, scale=1.0) -> bool:
    """The tolerance rule of every equality decision: True when every entry
    of `measured` is at most tol * scale, so never for NaN.  A decision whose
    scale has a floor (gram_rules, check_similar) applies it at its call.
    Only TOL_EQ can be replaced per call, by the `tol_eq` of frame_bounds,
    classify and check_dual_pair."""
    return bool(np.all(measured <= tol * scale))


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


def exponent(M) -> int:
    """The package's one scale rule: the exponent e that puts the largest
    real or imaginary part of M in [2^(e-1), 2^e), and 0 for a zero or
    empty M.  Scaling M by 2^-e brings every part below 1, and is exact
    while the parts stay normal floats.  It reads a float64 view of M, with
    no complex abs."""
    x = np.asarray(M).ravel(order="K").view(np.float64)
    return int(np.frexp(max(x.max(initial=0.0), -x.min(initial=0.0)))[1])


def ldexp(M: np.ndarray, e: int) -> np.ndarray:
    """M * 2^e (M itself for e = 0) for a C-contiguous complex M, through a
    float64 view, so 2^e need not be a float; exact while parts stay normal."""
    return np.ldexp(M.view(np.float64), e).view(np.complex128) if e else M


def gram_rules(A: np.ndarray, B: np.ndarray, dims, tol: float) -> bool:
    """Whether the m x m Gram G = A B†, in blocks of heights `dims`, has
    every block G_jk within tol of delta_jk I at the scale max(1, ||G_jk||_F):
    the one identity rule, for orthonormal sets and biorthogonality
    blockwise, and for dual pairs as one block.

    G is formed once from A and B scaled by the powers of two a and b at
    most 1 that bring their largest real and imaginary parts below 1 (see
    exponent), so that it cannot overflow, and is compared in units of a b.
    Scaling by a power of two is exact, so G rounds as the unscaled product
    would."""
    a = 2.0 ** -max(0, exponent(A))
    b = a if B is A else 2.0 ** -max(0, exponent(B))
    unit = a * b
    # conj(B) is released once G is formed
    G = (A * a if a < 1.0 else A) @ (np.conj(B) * b if b < 1.0 else np.conj(B)).T
    g = G.diagonal().copy()
    G.flat[::G.shape[0] + 1] -= unit
    starts = np.cumsum((0,) + tuple(dims[:-1]))
    err2 = np.add.reduceat(np.add.reduceat(G.real ** 2 + G.imag ** 2, starts, axis=0),
                           starts, axis=1)
    # ||G_jj||^2 = ||G_jj - I||^2 + sum_i (|g_ii|^2 - |g_ii - 1|^2), in units
    ref2 = err2.copy()
    ref2[np.diag_indices(len(starts))] += np.add.reduceat(
        np.abs(g) ** 2 - np.abs(g - unit) ** 2, starts)
    return within(np.sqrt(err2), tol, np.maximum(unit, np.sqrt(ref2)))


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

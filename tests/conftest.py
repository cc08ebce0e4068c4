import tracemalloc
from collections import Counter

import numpy as np
import pytest

from gframes import GFrame, classify, frame_operator, make_gon_basis, make_griesz
from gframes.coherent import coefficient_vector
from gframes.linalg import TOL_EQ, random_unitary

DECOMPOSITIONS = ("eigh", "eigvalsh", "svd", "qr", "lstsq")


def random_blocks(rng, n, dims, scale=1.0):
    return tuple(
        scale * (rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))
        / np.sqrt(2 * n)
        for d in dims
    )


def random_frame(rng, n, dims):
    """Gaussian blocks; almost surely a frame when sum(dims) >= n."""
    assert sum(dims) >= n
    return GFrame(n, random_blocks(rng, n, dims))


def traced_peak(call):
    """Peak bytes traced while call() runs, counting its result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def conditioned_frame(kappa):
    """A 64 x 16 frame in 32 blocks of 2 rows with cond(T) = kappa:
    T = Q1 diag(geomspace(1, 1/kappa, 16)) Q2, with Q1 the first 16
    columns of a unitary and Q2 unitary, both drawn from default_rng(5)."""
    rng = np.random.default_rng(5)
    Q1 = random_unitary(64, rng)[:, :16]
    T = (Q1 * np.geomspace(1.0, 1.0 / kappa, 16)) @ random_unitary(16, rng)
    return GFrame(16, tuple(np.split(T, 32)))


def projector_gap(U, V) -> float:
    """||U U† - V V†||_F for matrices U and V with orthonormal columns,
    without forming either projector: with P and Q the two projectors,
    P - Q = P(I - Q) - (I - P)Q, so the square is the sum of the
    nonnegative ||(I - Q)U||^2 and ||(I - P)V||^2, free of cancellation."""
    C = V.conj().T @ U
    return float(np.hypot(np.linalg.norm(U - V @ C), np.linalg.norm(V - U @ C.conj().T)))


def redundant_frame(c=1.0):
    """c [U; U] / sqrt 2 times diag(linspace(1, 3, 8)), with U =
    random_unitary(8, default_rng(1)): a 16 x 8 frame in 8 blocks of 2 rows."""
    U = random_unitary(8, np.random.default_rng(1))
    return GFrame(8, tuple(np.split(c / np.sqrt(2) * np.vstack([U, U]) * np.linspace(1, 3, 8), 8)))


def random_gon(rng, n, dims):
    return make_gon_basis(n, dims, rotation=random_unitary(n, rng))


def random_riesz(rng, n, dims, cond_max=10.0):
    """Riesz operator basis with a controlled condition number."""
    U = random_unitary(n, rng)
    V = random_unitary(n, rng)
    s = np.exp(rng.uniform(0.0, np.log(cond_max), n))
    s = s / s.min()
    X = (U * s) @ V.conj().T
    return make_griesz(random_gon(rng, n, dims), X), X


def fock_column(fs, k, l):
    """The Fock column t_k^(l): column l*K + k of fs.basis_columns."""
    return fs.basis_columns[:, l * fs.K + k]


def lowered(columns, K, L, axis):
    """Oracle for a lowering map on a column family, from the indices alone:
    column l*K + k goes to sqrt(k) times column l*K + k-1 (axis "a"), or to
    sqrt(l) times column (l-1)*K + k (axis "b"); the bottom level goes to 0."""
    out = np.zeros_like(columns)
    for l in range(L):
        for k in range(K):
            if axis == "a" and k > 0:
                out[:, l * K + k] = np.sqrt(k) * columns[:, l * K + k - 1]
            if axis == "b" and l > 0:
                out[:, l * K + k] = np.sqrt(l) * columns[:, (l - 1) * K + k]
    return out


def dual_family(riesz, fam, z, w):
    """The dual side of a bi-coherent family from its definition, not from
    the family's own dual fields: the columns V = S^-1 U of the Riesz
    columns U, the state V c, and the lowering operators V ã V^-1, where
    V^-1 = U† by biorthogonality."""
    K, L = fam.fock.K, fam.fock.L
    U = fam.u_columns
    V = np.linalg.solve(frame_operator(riesz), U)
    a = lowered(V, K, L, "a") @ U.conj().T
    b = lowered(V, K, L, "b") @ U.conj().T
    return V, V @ coefficient_vector(z, w, K, L), a, b


def count_decompositions(monkeypatch) -> list:
    """Wrap each numpy decomposition in DECOMPOSITIONS; the returned list
    collects (name, argument) for every call made through np.linalg."""
    calls = []
    for name in DECOMPOSITIONS:
        def counted(A, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls.append((_name, A))
            return _fn(A, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def count_inverse_roots(monkeypatch) -> list:
    """Wrap frames._times_inverse_root, which forms canonical duals (k = 2)
    and Parseval transforms (k = 1); the returned list collects k per call."""
    from gframes import frames
    formed = []
    inverse_root = frames._times_inverse_root
    monkeypatch.setattr(frames, "_times_inverse_root",
                        lambda F, k: formed.append(k) or inverse_root(F, k))
    return formed


def decomposition_counts(calls) -> Counter:
    return Counter(name for name, _ in calls)


def on_basis_cases(rng, mercedes):
    """Families on both sides of the orthonormal-operator-basis test, with
    the answer: rotated bases, non-square families, the Mercedes frame, and
    bases perturbed to just inside and just outside the default tolerance."""
    for n, dims in [(1, (1,)), (6, (2, 2, 2)), (12, (3,) * 4), (16, (4,) * 4)]:
        yield random_gon(rng, n, dims), True
    # non-square families: an orthonormal set that is not a basis
    # (S != I), a Parseval frame that is not an orthonormal set (S = I),
    # and the Mercedes frame
    yield GFrame(4, random_gon(rng, 4, (2, 2)).blocks[:1]), False
    isometry = random_unitary(6, rng)[:, :4]
    yield GFrame(4, tuple(np.split(isometry, 3))), False
    yield mercedes, False
    # perturbed bases just inside and just outside the tolerance: the
    # deviation is linear in the perturbation, so scale it to sit at
    # 0.8 and 1.25 times the threshold of the default tolerance.  A
    # random direction, and a rescaled first block, where the rule on
    # the diagonal blocks binds
    for n, dims, rescale in [(6, (2, 2, 2), False), (9, (3, 3, 3), False),
                             (8, (1,) * 8, False), (9, (3, 3, 3), True)]:
        gon = random_gon(rng, n, dims)
        E = [rng.standard_normal(B.shape) + 1j * rng.standard_normal(B.shape)
             for B in gon.blocks]
        if rescale:
            E = [gon.blocks[0]] + [0.0 * B for B in gon.blocks[1:]]

        def perturbed(eps):
            return GFrame(n, tuple(B + eps * D for B, D in zip(gon.blocks, E)))

        eps0 = 1e-6
        lo, hi = 0.0, 1.0   # bisect the tolerance at which eps0 passes
        for _ in range(60):
            mid = (lo + hi) / 2
            if classify(perturbed(eps0), tol_eq=mid).is_on_basis:
                hi = mid
            else:
                lo = mid
        slope = hi / eps0
        yield perturbed(0.8 * TOL_EQ / slope), True
        yield perturbed(1.25 * TOL_EQ / slope), False


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


@pytest.fixture
def mercedes():
    r3 = np.sqrt(3.0)
    return GFrame(2, (
        np.array([[1.0, 0.0]], dtype=complex),
        np.array([[-0.5, r3 / 2]], dtype=complex),
        np.array([[-0.5, -r3 / 2]], dtype=complex),
    ))

from collections import Counter

import numpy as np
import pytest

from gframes import GFrame, classify, make_gon_basis, make_griesz
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

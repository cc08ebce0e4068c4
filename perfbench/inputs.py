"""Seeded inputs for the gframes benchmark, built with numpy alone.

Nothing here imports gframes: the generated matrices, the spec texts and the
reference answers computed from them are independent of the package under
test.  The same seed always gives the same inputs, and `digest` hashes them
so that every result records exactly what was measured.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """An independent stream per (seed, item) so items do not shift when the
    list of items changes."""
    return np.random.default_rng([seed, *key])


def gaussian(rng, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
    """Complex Gaussian matrix with entries of variance scale^2 / cols."""
    Z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return Z * (scale / np.sqrt(2.0 * cols))


def unitary(rng, n: int) -> np.ndarray:
    """Haar unitary: QR of a complex Ginibre matrix with phases fixed."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def parseval(T: np.ndarray) -> np.ndarray:
    """T S^{-1/2} with S = T†T, so the rows form a Parseval frame."""
    w, Q = np.linalg.eigh(T.conj().T @ T)
    return T @ ((Q / np.sqrt(w)) @ Q.conj().T)


def block_dims(rng, rows: int, low: int, high: int) -> tuple:
    """Random block heights in [low, high] whose sum is exactly `rows`."""
    dims = []
    left = rows
    while left > 0:
        d = min(int(rng.integers(low, high + 1)), left)
        dims.append(d)
        left -= d
    return tuple(dims)


def split(T: np.ndarray, dims) -> list:
    offsets = np.cumsum((0,) + tuple(dims))
    return [T[a:b] for a, b in zip(offsets[:-1], offsets[1:])]


def riesz_factor(rng, n: int, cond_max: float = 10.0) -> np.ndarray:
    """Invertible X = U diag(s) V† with singular values in [1, cond_max]."""
    U = unitary(rng, n)
    V = unitary(rng, n)
    s = np.exp(rng.uniform(0.0, np.log(cond_max), n))
    return (U * (s / s.min())) @ V.conj().T


def spec_text(blocks, name: str) -> str:
    """A compact frame-spec document ([re, im] entries, shortest-repr floats,
    so binary64 values round-trip exactly)."""
    doc = {
        "hilbert_dim": int(blocks[0].shape[1]),
        "blocks": [{"rows": int(B.shape[0]),
                    "matrix": np.stack([B.real, B.imag], axis=-1).tolist()}
                   for B in blocks],
        "metadata": {"name": name},
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def read_spec(text: str) -> list:
    """Blocks of a frame-spec document, read without gframes."""
    doc = json.loads(text)
    out = []
    for blk in doc["blocks"]:
        a = np.asarray(blk["matrix"], dtype=np.float64).reshape(blk["rows"], doc["hilbert_dim"], 2)
        out.append(a[..., 0] + 1j * a[..., 1])
    return out


def digest(parts) -> str:
    """sha256 over a sequence of strings, bytes, arrays and other values
    (hashed by repr), in order."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, str):
            h.update(p.encode())
        elif isinstance(p, bytes):
            h.update(p)
        elif isinstance(p, np.ndarray):
            a = np.ascontiguousarray(p)
            h.update(str((a.dtype.str, a.shape)).encode())
            h.update(a.tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()

#!/usr/bin/env python3
"""Run a fixed corpus of gframe command lines through `cli.main` in one
process and print one sha256 per command line, over its exit code, stdout,
stderr and the files it wrote, then a total over all of them.

Two versions of the package that print the same digests give byte-identical
reports, errors and emitted specs on every command line of the corpus.  The
specs are written from fixed seeds to a temporary directory, which is the
working directory while the commands run, so no path enters a digest.

Usage: python3 -W error::RuntimeWarning scripts/cli_corpus.py
"""
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

# this checkout's package, ahead of any installed gframes
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gframes import GFrame, cli, frame_io, make_gon_basis, make_griesz
from gframes.linalg import random_unitary

SPECS = ("redundant", "gon", "riesz", "conditioned", "nonframe", "bad")


def write_specs():
    """The spec files of the corpus, in the working directory."""
    rng = np.random.default_rng(1)
    T = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    redundant = GFrame(4, tuple(np.split(T, 3)))
    gon = make_gon_basis(8, (2,) * 4, rotation=random_unitary(8, rng))
    X = (random_unitary(8, rng) * np.linspace(1.0, 3.0, 8)) @ random_unitary(8, rng)
    # cond(T) = 1e5: T = Q1 diag(geomspace(1, 1e-5, 16)) Q2, 32 blocks of 2
    Q1 = random_unitary(64, rng)[:, :16]
    C = (Q1 * np.geomspace(1.0, 1e-5, 16)) @ random_unitary(16, rng)
    N = (rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))).astype(complex)
    frames = {
        "redundant": redundant,
        "scaled": redundant.map_blocks(lambda B: 1.01 * B),
        # duals of about 1e100, whose Grams T†T leave binary64 unless scaled
        "tiny": redundant.map_blocks(lambda B: 1e-100 * B),
        # duals of about 1e-100, which a Gram test floored at 1 calls alike
        "huge": redundant.map_blocks(lambda B: 1e100 * B),
        "gon": gon,
        "gon16": make_gon_basis(16, (4,) * 4, rotation=random_unitary(16, rng)),
        "riesz": make_griesz(gon, X),
        "conditioned": GFrame(16, tuple(np.split(C, 32))),
        "nonframe": GFrame(4, tuple(np.split(N, 3))),
    }
    for name, F in frames.items():
        frame_io.save(f"{name}.frame", F)
    with open("bad.frame", "w", encoding="utf-8") as fh:
        fh.write('{"hilbert_dim": 1, "blocks": [{"rows": 1, "matrix": [[["1", 0]]]}]}')


def command_lines():
    options = ([], ["--seed", "5"], ["--human"], ["--tol", "1e-6"], ["--samples", "50"])
    for sub in ("classify", "dual", "alt-dual", "all"):
        written = ["--out", "r.json"] + ([] if sub == "classify" else ["--emit", "d.frame"])
        for spec in SPECS:
            for opts in options + (written,):
                yield [sub, f"{spec}.frame"] + opts
    for spec in ("tiny", "huge"):
        for sub in ("alt-dual", "all"):
            yield [sub, f"{spec}.frame"]
    pairs = (("redundant", "scaled"), ("gon", "riesz"), ("riesz", "gon"),
             ("redundant", "nonframe"), ("gon", "redundant"),
             ("conditioned", "conditioned"))
    for a, b in pairs:
        for opts in ([], ["--seed", "5", "--human"]):
            yield ["perturb", f"{a}.frame", f"{b}.frame"] + opts
    labels = ([], ["--z=0.1+0.05i", "--w=-0.05+0.1i"], ["--z=1e200"], ["--z=27.4"],
              ["--z=0.3", "--tol", "1e-6"], ["--z=0.2i", "--seed", "5", "--human"])
    for spec in ("gon", "gon16", "riesz"):
        for label in labels:
            for check in ("identity", "eigen", "uncertainty"):
                yield ["coherent", f"{spec}.frame", "--check", check] + label
    yield from ([], ["bogus", "gon.frame"], ["classify", "gon.frame", "--samples", "0"],
                ["classify", "gon.frame", "--seed", "-1"],
                ["classify", "gon.frame", "--tol", "0"],
                ["coherent", "gon.frame", "--check", "bad"],
                ["classify", "missing.frame"],
                ["all", "redundant.frame", "--emit", "missing/d.frame"])


def digest(argv, inputs):
    """sha256 of one run of `cli.main(argv)`; removes the files it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    h = hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode())
    for name in sorted(set(os.listdir()) - inputs):
        with open(name, "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
        os.remove(name)
    return h.hexdigest()


def main():
    os.environ.pop("GFRAME_TOL", None)
    home = os.getcwd()
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_specs()
            inputs = set(os.listdir())
            for count, argv in enumerate(command_lines(), 1):
                d = digest(argv, inputs)
                total.update(d.encode())
                print(f"{d}  gframe {' '.join(argv)}")
        finally:
            os.chdir(home)
    print(f"{total.hexdigest()}  total over {count} command lines")


if __name__ == "__main__":
    main()

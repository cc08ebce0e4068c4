#!/usr/bin/env python3
"""Show how the phase-space resolution of identity converges with quadrature
node counts for a two-index coherent family, and locate the exactness
threshold (radial >= max(K, L), angular >= max(2K-1, 2L-1)).

`quadrature_identity` raises InsufficientNodes below that threshold, so the
rows under it are evaluated from the per-label Gram of the same rule
(`coherent._radial_angular_gram`) and marked "raises".  They show that the
guaranteed threshold is conservative: with m = max(K, L) the identity is
already exact to round-off at radial >= ceil(m/2) and angular >= m.

Usage: python3 scripts/quadrature_convergence.py [--levels 4] [--blocks 3]
"""
import argparse
import sys
from pathlib import Path

import numpy as np

# this checkout's package, ahead of any installed gframes
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gframes as gf
from gframes import coherent
from gframes.errors import InsufficientNodes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=4, help="K, levels per block")
    ap.add_argument("--blocks", type=int, default=3, help="L, block count")
    args = ap.parse_args()

    K, L = args.levels, args.blocks
    fs = coherent.build_fock(gf.make_gon_basis(K * L, (K,) * L))
    C = fs.basis_columns
    I = np.eye(K * L)
    rad_min, ang_min = max(K, L), max(2 * K - 1, 2 * L - 1)
    print(f"K={K}, L={L}: exactness thresholds radial={rad_min}, "
          f"angular={ang_min}")
    print(f"{'radial':>8} {'angular':>8} {'identity error':>16}  public API")
    for radial in range(1, rad_min + 3):
        for angular in range(1, ang_min + 3):
            try:
                Q = coherent.quadrature_identity(fs, radial, angular)
                api = "ok"
            except InsufficientNodes:
                Gz = coherent._radial_angular_gram(K, radial, angular)
                Gw = coherent._radial_angular_gram(L, radial, angular)
                Q = C @ np.kron(Gw, Gz) @ C.conj().T
                api = "raises"
            err = float(np.linalg.norm(Q - I))
            marker = "  <- threshold" if (radial, angular) == (rad_min, ang_min) else ""
            print(f"{radial:8d} {angular:8d} {err:16.3e}  {api}{marker}")


if __name__ == "__main__":
    main()

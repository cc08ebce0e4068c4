#!/usr/bin/env python3
"""Sweep a rotation angle applied to a frame and compare the eigenvalue-exact
perturbation constant with the guaranteed and measured frame bounds of the
rotated family.

Usage: python3 scripts/perturbation_sweep.py [--n 6] [--steps 12] [--seed 0]
"""
import argparse
import sys
from pathlib import Path

import numpy as np

# this checkout's package, ahead of any installed gframes
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gframes as gf


def rotation(n, angle, axis_pair=(0, 1)):
    R = np.eye(n)
    i, j = axis_pair
    R[i, i] = R[j, j] = np.cos(angle)
    R[i, j] = -np.sin(angle)
    R[j, i] = np.sin(angle)
    return R


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--steps", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    dims = (2,) * (args.n // 2 + 1)
    blocks = tuple(
        (rng.standard_normal((d, args.n))
         + 1j * rng.standard_normal((d, args.n))) / np.sqrt(2 * args.n)
        for d in dims
    )
    F = gf.GFrame(args.n, blocks)
    b = gf.frame_bounds(F)
    print(f"base frame: n={args.n}, J={len(dims)}, "
          f"bounds=({b.lower:.4f}, {b.upper:.4f})")
    print(f"{'angle':>8} {'m_opt':>12} {'guar lower':>12} "
          f"{'meas lower':>12} {'guar upper':>12} {'meas upper':>12}")
    for k in range(args.steps + 1):
        angle = 0.5 * np.pi * k / args.steps
        G = F.map_blocks(lambda B: B @ rotation(args.n, angle))
        rep = gf.optimal_M(F, G)
        print(f"{angle:8.4f} {rep.m_opt:12.6f} {rep.guaranteed_lower:12.6f} "
              f"{rep.actual_lower:12.6f} {rep.guaranteed_upper:12.6f} "
              f"{rep.actual_upper:12.6f}")


if __name__ == "__main__":
    main()

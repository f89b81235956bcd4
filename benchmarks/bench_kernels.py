#!/usr/bin/env python3
"""Time the numpy versions of the kernels against the scalar kernels they
reproduce: the cone scan the builders use against kernels.cone_edges, and the
certification sweep kernels.points_in_tri against one kernels.point_in_tri
call per point.

Both sides must return identical results, so each row also re-checks
agreement on its own workload before reporting the speedup.
"""

import argparse
import math
import os
import random
import sys
import time

import numpy as np

# Import the package from this checkout's src/, installed or not.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from spannerkit import kernels
from spannerkit.build import cone_scan
from spannerkit.geometry import EPS, ConeSystem, canonical_triangle


def best_of(fn, repeat):
    best = math.inf
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


SCANS = [
    ("half-theta-6", 6, True, 0b010101),
    ("theta k=7", 7, True, 0),
    ("yao k=6", 6, False, 0),
    ("yao k=12", 12, False, 0),
]


def scan_table(n, repeat, rng):
    xs = [rng.uniform(0.0, 100.0) for _ in range(n)]
    ys = [rng.uniform(0.0, 100.0) for _ in range(n)]
    print(f"{'cone scan':<26} {'workload':<16} {'scalar ms':>10} {'numpy ms':>9} "
          f"{'speedup':>8}  agree")
    for name, k, proj, mask in SCANS:
        tp, rp = best_of(lambda: kernels.cone_edges(xs, ys, k, proj, mask), repeat)
        tn, rn = best_of(lambda: cone_scan(xs, ys, k, proj, mask), repeat)
        agree = rn == rp
        print(f"{name:<26} {f'n={n} scan':<16} {tp * 1e3:>10.2f} {tn * 1e3:>9.2f} "
              f"{tp / tn:>7.1f}x  {agree}")
        if not agree:
            raise SystemExit(f"cone scan divergence in {name}")


def sweep_table(sizes, repeat, rng):
    """Canonical-triangle membership of every point for 100 pairs, as one
    restricted_pair_check call per pair computes it."""
    cs = ConeSystem(6)
    print(f"{'certification sweep':<26} {'workload':<16} {'scalar ms':>10} {'numpy ms':>9} "
          f"{'speedup':>8}  agree")
    for n in sizes:
        pts = [(rng.random(), rng.random()) for _ in range(n)]
        xs = np.array([x for x, _ in pts])
        ys = np.array([y for _, y in pts])
        tris = []
        for _ in range(100):
            u, w = rng.sample(pts, 2)
            t = canonical_triangle(cs, u, w)
            tris.append((*t.apex, *t.corner_a, *t.corner_b))

        def scalar():
            return [[kernels.point_in_tri(x, y, *t, EPS) for x, y in pts] for t in tris]

        def sweep():
            return [kernels.points_in_tri(xs, ys, *t, EPS).tolist() for t in tris]

        ts, rs = best_of(scalar, repeat)
        tv, rv = best_of(sweep, repeat)
        agree = rs == rv
        print(f"{'points_in_tri':<26} {f'n={n} x100':<16} {ts * 1e3:>10.2f} {tv * 1e3:>9.2f} "
              f"{ts / tv:>7.1f}x  {agree}")
        if not agree:
            raise SystemExit(f"certification sweep divergence at n={n}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=512, help="points in the cone-scan workload")
    ap.add_argument("--repeat", type=int, default=5, help="best-of repetitions per cell")
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    scan_table(args.n, args.repeat, random.Random(args.seed))
    print()
    sweep_table((64, 512), args.repeat, random.Random(args.seed))


if __name__ == "__main__":
    main()

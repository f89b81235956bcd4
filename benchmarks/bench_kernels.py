#!/usr/bin/env python3
"""Time the numpy kernels against the slower paths they must agree with: the
cone scan the builders use against its own full row-block scan, and the
certification sweep kernels.points_in_tri against one kernels.point_in_tri
call per point.

The cone-scan table runs build.cone_scan at each --sizes n for the four SCANS
and counts the rows its grid certificates leave to the full row-block scan.
Uniform points run at every size; the sets the grid serves badly (a dense
cluster plus far points, and a circle) run up to FULL_MAX points. Up to
FULL_MAX points it also times that full scan alone (every row forced through
it), which must return the same edges. The rows, with the commit, source hash
and a hash of each scan's output, are written to --out (BENCH_cone_scan.json
by default).

Both sides of every comparison must return identical results, so each row
re-checks agreement on its own workload before reporting the speedup.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import sys
import time

import numpy as np

# Import the package from this checkout's src/, installed or not.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from spannerkit import build, gen_circle, kernels
from spannerkit.build import cone_scan
from spannerkit.geometry import EPS, ConeSystem, canonical_triangle

from bench_layers import commit, source_sha256


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
#: Largest n that also times the full row-block scan.
FULL_MAX = 4096


def uniform(n, rng):
    return [(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)) for _ in range(n)]


def cluster_far(n, rng):
    """14/15 of the points in one Gaussian cluster of deviation 1e-3, the rest
    uniform over [-50, 50)^2: the cluster shares one grid cell."""
    m = n * 14 // 15
    return [(rng.gauss(0.0, 1e-3), rng.gauss(0.0, 1e-3)) for _ in range(m)] + [
        (rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)) for _ in range(n - m)
    ]


def circle(n, rng):
    """gen_circle(n): every cone facing inwards has its winner across the
    circle, beyond any candidate block."""
    return [(p.x, p.y) for p in sorted(gen_circle(n), key=lambda p: p.id)]


POINT_SETS = [("uniform", uniform), ("cluster_far", cluster_far), ("circle", circle)]


def counted_scan(xs, ys, k, proj, mask):
    """cone_scan's edges and the number of rows it left to the full scan."""
    left = []
    certify = build._certified_rows

    def counted(*args):
        rows = certify(*args)
        left.append(len(rows))
        return rows

    build._certified_rows = counted
    try:
        edges = cone_scan(xs, ys, k, proj, mask)
    finally:
        build._certified_rows = certify
    return edges, (left[0] if left else len(xs))


def full_scan(xs, ys, k, proj, mask):
    """cone_scan with every row forced through the full row-block scan."""
    certify = build._certified_rows
    build._certified_rows = lambda x, *_: np.arange(len(x))
    try:
        return cone_scan(xs, ys, k, proj, mask)
    finally:
        build._certified_rows = certify


def scan_table(sizes, repeat, seed):
    print(f"{'points':<12} {'cone scan':<14} {'n':>6} {'grid ms':>9} {'fallback':>8} "
          f"{'full ms':>9} {'speedup':>8}  agree")
    rows = []
    for points, gen in POINT_SETS:
        for n in sizes:
            if points != "uniform" and n > FULL_MAX:
                continue
            coords = gen(n, random.Random(seed))
            xs = [x for x, _ in coords]
            ys = [y for _, y in coords]
            for name, k, proj, mask in SCANS:
                tg, (edges, fallback) = best_of(lambda: counted_scan(xs, ys, k, proj, mask), repeat)
                row = {"points": points, "scan": name, "k": k, "projection": proj,
                       "cone_mask": mask, "n": n, "repeat": repeat, "grid_s": round(tg, 5),
                       "fallback_rows": fallback, "full_s": None,
                       "edges_sha256": hashlib.sha256(repr(edges).encode()).hexdigest()}
                if n <= FULL_MAX:
                    tf, ref = best_of(lambda: full_scan(xs, ys, k, proj, mask), repeat)
                    row["full_s"] = round(tf, 5)
                    if ref != edges:
                        raise SystemExit(f"cone scan divergence from the full scan in {name}, n={n}")
                rows.append(row)
                full = f"{row['full_s'] * 1e3:>9.2f} {row['full_s'] / tg:>7.2f}x" if row["full_s"] else f"{'-':>9} {'-':>8}"
                print(f"{points:<12} {name:<14} {n:>6} {tg * 1e3:>9.2f} {fallback:>8} {full}  True",
                      flush=True)
    return rows


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
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", default="768,4096,16384", help="comma-separated cone-scan point counts")
    ap.add_argument("--repeat", type=int, default=3, help="best-of repetitions per cell")
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_cone_scan.json"))
    args = ap.parse_args()

    sizes = [int(v) for v in args.sizes.split(",")]
    rows = scan_table(sizes, args.repeat, args.seed)
    doc = {
        "bench": "build.cone_scan on uniform points in [0, 100)^2, a cluster plus far points, "
                 "and a circle",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_sha256(),
        "seed": args.seed,
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print()
    sweep_table((64, 512), args.repeat, random.Random(args.seed))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Time the compiled kernels against their pure-Python twins, and the numpy
cone scan the builders use against the scalar kernel scans.

All implementations must return bit-identical values, so each row also
re-checks agreement on its own workload before reporting the speedup. The
cone-scan rows run without the compiled extension too.
"""

import argparse
import math
import random
import time

from spannerkit import _kernels_py as pure
from spannerkit.build import cone_scan

try:
    from spannerkit import _kernels as compiled
except ImportError:
    compiled = None


def best_of(fn, repeat):
    best = math.inf
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def rows(n, repeat, rng):
    vecs = [(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)) for _ in range(50 * n)]
    tris = [(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)) for _ in range(50 * n)]
    xs = [rng.uniform(0.0, 100.0) for _ in range(n)]
    ys = [rng.uniform(0.0, 100.0) for _ in range(n)]

    def scalar(mod, fn):
        return lambda: [fn(mod, dx, dy) for dx, dy in vecs]

    yield ("azimuth", f"{len(vecs)} vectors",
           scalar(pure, lambda m, dx, dy: m.azimuth(dx, dy)),
           scalar(compiled, lambda m, dx, dy: m.azimuth(dx, dy)))
    yield ("cone_index k=6", f"{len(vecs)} vectors",
           scalar(pure, lambda m, dx, dy: m.cone_index(dx, dy, 6)),
           scalar(compiled, lambda m, dx, dy: m.cone_index(dx, dy, 6)))
    yield ("theta_projection_len k=6", f"{len(vecs)} vectors",
           scalar(pure, lambda m, dx, dy: m.theta_projection_len(dx, dy, 6)),
           scalar(compiled, lambda m, dx, dy: m.theta_projection_len(dx, dy, 6)))
    yield ("point_in_tri", f"{len(tris)} queries",
           lambda: [pure.point_in_tri(px, py, 0.0, 0.0, 9.0, 1.0, 4.0, 8.0, 1e-9)
                    for px, py in tris],
           lambda: [compiled.point_in_tri(px, py, 0.0, 0.0, 9.0, 1.0, 4.0, 8.0, 1e-9)
                    for px, py in tris])
    yield ("cone_edges k=6 masked", f"n={n} scan",
           lambda: pure.cone_edges(xs, ys, 6, True, 0b010101),
           lambda: compiled.cone_edges(xs, ys, 6, True, 0b010101))
    yield ("cone_edges k=12 full", f"n={n} scan",
           lambda: pure.cone_edges(xs, ys, 12, False, 0),
           lambda: compiled.cone_edges(xs, ys, 12, False, 0))


SCANS = [
    ("half-theta-6", 6, True, 0b010101),
    ("theta k=7", 7, True, 0),
    ("yao k=6", 6, False, 0),
    ("yao k=12", 12, False, 0),
]


def scan_table(n, repeat, rng):
    xs = [rng.uniform(0.0, 100.0) for _ in range(n)]
    ys = [rng.uniform(0.0, 100.0) for _ in range(n)]
    print(f"{'cone scan':<26} {'workload':<16} {'pure ms':>9} {'numpy ms':>9} "
          f"{'compiled ms':>12} {'vs pure':>8}  agree")
    for name, k, proj, mask in SCANS:
        tp, rp = best_of(lambda: pure.cone_edges(xs, ys, k, proj, mask), repeat)
        tn, rn = best_of(lambda: cone_scan(xs, ys, k, proj, mask), repeat)
        agree = rn == rp
        tc = "-"
        if compiled is not None:
            t, rc = best_of(lambda: compiled.cone_edges(xs, ys, k, proj, mask), repeat)
            tc = f"{t * 1e3:.2f}"
            agree = agree and rn == rc
        print(f"{name:<26} {f'n={n} scan':<16} {tp * 1e3:>9.2f} {tn * 1e3:>9.2f} "
              f"{tc:>12} {tp / tn:>7.1f}x  {agree}")
        if not agree:
            raise SystemExit(f"cone scan divergence in {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=512, help="points in the edge-scan workload")
    ap.add_argument("--repeat", type=int, default=5, help="best-of repetitions per cell")
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    scan_table(args.n, args.repeat, random.Random(args.seed))
    if compiled is None:
        print("compiled kernels not built; no compiled-versus-pure kernel rows")
        return

    rng = random.Random(args.seed)
    print()
    print(f"{'kernel':<26} {'workload':<16} {'pure ms':>9} {'compiled ms':>12} "
          f"{'speedup':>8}  agree")
    for name, workload, fp, fc in rows(args.n, args.repeat, rng):
        tp, rp = best_of(fp, args.repeat)
        tc, rc = best_of(fc, args.repeat)
        agree = rp == rc
        print(f"{name:<26} {workload:<16} {tp * 1e3:>9.2f} {tc * 1e3:>12.2f} "
              f"{tp / tc:>7.1f}x  {agree}")
        if not agree:
            raise SystemExit(f"kernel twin divergence in {name}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Time the exact spanning ratio of half-Theta-6 graphs and record its memory.

For each n, one fresh process builds build_half_theta6 over n uniform numpy
points (gen_random is cubic in n) and reports:

- ratio_s: best-of-k wall time of spanning_ratio(h);
- peak_rss_growth_mb: growth of the process's peak RSS over those k calls,
  measured from the peak after the graph was built;
- traced_peak_mb: tracemalloc's peak of the allocations one more call makes
  (numpy arrays included), which shows the working set even when it stays
  below the peak the build left behind.

Up to --reference-max points it also runs the all-pairs computation the
streamed one replaced (tests/oracles.py::oracle_spanning_ratio) once, checks
that max_ratio and witness are equal, and records its time and memory.

Writes the rows with the backend, Python/numpy/scipy versions, commit and
source hash to --out (BENCH_ratio.json by default) and prints a table.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def best_of(fn, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def traced_peak_mb(fn):
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def one(n, repeat, seed, reference):
    """Measure one size in this process; returns the row."""
    import numpy as np

    from spannerkit import PointSet, build_half_theta6, spanning_ratio

    ps = PointSet.from_pairs(np.random.default_rng(seed).random((n, 2)).tolist())
    t0 = time.perf_counter()
    h = build_half_theta6(ps)
    build_s = time.perf_counter() - t0
    gc.collect()
    rss0 = peak_rss_mb()
    ratio_s, rep = best_of(lambda: spanning_ratio(h), repeat)
    row = {
        "n": n,
        "edges": len(h.edges),
        "repeat": repeat,
        "build_s": round(build_s, 4),
        "ratio_s": round(ratio_s, 4),
        "peak_rss_before_mb": round(rss0, 1),
        "peak_rss_growth_mb": round(peak_rss_mb() - rss0, 1),
        "traced_peak_mb": round(traced_peak_mb(lambda: spanning_ratio(h)), 2),
        "max_ratio": rep.max_ratio,
        "witness": list(rep.witness),
    }
    if reference:
        sys.path.insert(0, os.path.join(ROOT, "tests"))
        from oracles import oracle_spanning_ratio

        rss1 = peak_rss_mb()
        ref_s, ref = best_of(lambda: oracle_spanning_ratio(h), 1)
        if (ref.max_ratio, ref.witness) != (rep.max_ratio, rep.witness):
            raise SystemExit(f"n={n}: ratio {rep} differs from the all-pairs {ref}")
        row["reference_s"] = round(ref_s, 4)
        row["reference_peak_rss_growth_mb"] = round(peak_rss_mb() - rss1, 1)
    return row


def commit():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_sha256():
    """Hash of the package sources, which names the measured code even when
    the tree has uncommitted changes."""
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "spannerkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", default="768,2048,4096,8192", help="comma-separated point counts")
    ap.add_argument("--repeat", type=int, default=3, help="best-of repetitions per size")
    ap.add_argument("--seed", type=int, default=2024, help="seed of the uniform points")
    ap.add_argument("--reference-max", type=int, default=2048,
                    help="largest n that also runs the all-pairs reference")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_ratio.json"))
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.child is not None:
        row = one(args.child, args.repeat, args.seed, args.child <= args.reference_max)
        print(json.dumps(row))
        return

    import numpy
    import scipy

    from spannerkit import kernels

    rows = []
    print(f"{'n':>6} {'edges':>7} {'ratio s':>9} {'rss +MB':>8} {'traced MB':>10} "
          f"{'all-pairs s':>12} {'rss +MB':>8}")
    for n in (int(s) for s in args.sizes.split(",")):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--child", str(n), "--repeat", str(args.repeat), "--seed", str(args.seed),
               "--reference-max", str(args.reference_max)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            raise SystemExit(f"n={n} failed:\n{out.stderr}")
        row = json.loads(out.stdout.strip().splitlines()[-1])
        rows.append(row)
        ref_s = f"{row['reference_s']:.3f}" if "reference_s" in row else "-"
        ref_rss = f"{row['reference_peak_rss_growth_mb']:.1f}" if "reference_s" in row else "-"
        print(f"{n:>6} {row['edges']:>7} {row['ratio_s']:>9.3f} {row['peak_rss_growth_mb']:>8.1f} "
              f"{row['traced_peak_mb']:>10.2f} {ref_s:>12} {ref_rss:>8}")
    doc = {
        "bench": "spanning_ratio(build_half_theta6(uniform points))",
        "backend": "compiled" if kernels.USING_COMPILED else "pure",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
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


if __name__ == "__main__":
    main()

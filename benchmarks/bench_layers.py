#!/usr/bin/env python3
"""Time spannerkit's layers and record their memory.

Generation rows time gen_random(n, seed) itself at n in GEN_SIZES. Every
other row builds on n uniform numpy points (np.random.default_rng(seed)):
gen_random's acceptance collapses as n^2 times its tolerance grows (with
seed 1 it gives up at point 2,927 of 3,000), so it cannot make the large
sets. Each (table, n) runs in one fresh process. Times are best of --repeat.

Generation rows:

- gen_s: best-of-k wall time of gen_random(n, seed);
- report_s: best-of-k wall time of general_position_report(ps, 6) on the
  generated set; gen_random guarantees an empty report without running it,
  and the bench exits with an error if the report is not empty;
- traced_peak_mb: tracemalloc's peak over one more call;
- peak_rss_mb: the process's peak RSS after all calls;
- sha256: the first 16 hex digits of the points' JSON (points_to_json).

Ratio rows (one process per n in RATIO_SIZES) time the exact spanning ratio
of build_half_theta6:

- ratio_s: best-of-k wall time of spanning_ratio(h);
- peak_rss_growth_mb: growth of the process's peak RSS over those k calls,
  measured from the peak after the graph was built;
- traced_peak_mb: tracemalloc's peak of the allocations one more call makes
  (numpy arrays included), which shows the working set even when it stays
  below the peak the build left behind.
Up to REFERENCE_MAX points they also run the all-pairs computation the
streamed one replaced (tests/oracles.py::oracle_spanning_ratio) once, check
that max_ratio and witness are equal, and record its time and memory.

Table rows (one process per n in TABLE_SIZES) time the graph tables, each
repetition on a fresh PointSet, so every cached view is built again:

- build_s: build_half_theta6(ps);
- max_degree_s: the first h.max_degree();
- cone_table_s: the first h.cone_table;
- g12_s, g9_s: build_g12(h) and build_g9(h), which reuse h's cone table;
- to_json_s: h.to_json(), the first graph file of the set (it writes the
  points' text, which the set then keeps for its other graphs);
- to_json_g9_s: g9.to_json(), whose routing hints make most of the file;
- from_json_s, from_json_g9_s: graph_from_json of those two texts;
- peak_rss_mb: the process's peak RSS after all repetitions;
- sha256: the first 16 hex digits of the h, G12 and G9 graph files.

Route rows (one per router at each n in TABLE_SIZES, one process per n) route
on the same points: stateless and stateful on h, the others on G12 and G9.

- warm_us: best-of-k mean time of one route over ROUTE_PAIRS ordered pairs
  drawn with random.Random(seed), on graphs whose tables are built;
- first_route_s: best-of-k time of the first route (the sample's first pair)
  on a graph just read from its file, which builds the CSR and cone table;
- traces_sha256: the first 16 hex digits of the sample's trace JSON.

Certification rows (one process per n in CERT_SIZES: the measure workload's
n = 64 and 4096) check pairs on build_half_theta6 of the same uniform points:

- certify_warm_us, shortest_path_warm_us: best-of-k mean time of one
  restricted_pair_check and of one shortest_path over ROUTE_PAIRS ordered
  pairs drawn with random.Random(seed);
- certify_first_s, shortest_path_first_s: best-of-k time of the first call
  (the sample's first pair) on a graph just read from its file, which builds
  the CSR and the Dijkstra's rows;
- results_sha256: the first 16 hex digits of both calls' results as JSON.

Scan rows (one process per n in SCAN_SIZES) run build.cone_scan, the scan
behind every Theta, Yao, half-Theta-6, rotated-union and MST build, for the
six SCANS on points drawn with random.Random(seed): uniform over
[0, 100)^2 at every size, and up to FULL_MAX points the three sets the grid
serves badly, a dense cluster plus far points, a circle, and two small
squares side by side whose pairs across lie near a six-cone boundary:

- grid_s: best-of-k wall time of cone_scan;
- fallback_rows: the rows its grid certificates leave to the full row-block
  scan;
- full_s: up to FULL_MAX points, best-of-k wall time of the full row-block
  scan alone (every row forced through it), which must return the same edges;
- edges_sha256: sha256 of repr() of cone_scan's edge list.

CLI rows (one process per n in CLI_SIZES) run python -m spannerkit on files
of the same uniform points, each call in a fresh process with stdout to a
file, as a user's shell runs it: gen (--kind random while gen_random reaches
n, up to GEN_RANDOM_MAX, and --kind circle), build --graph half_theta6 and
g9, route with each router on its graph between the first pair that
random.Random(seed) draws, analyze and render of the half-Theta-6 file:

- wall_s: best-of-k wall time from starting the process to reaping it, which
  is mostly interpreter start-up and imports at these sizes;
- peak_rss_mb: the largest of the k processes' peak RSS (os.wait4's
  rusage);
- stdout_sha256: the first 16 hex digits of its standard output, which every
  repetition must repeat.

Writes the seven tables with the Python/numpy/scipy versions, commit and
source hash to --out (BENCH_layers.json by default) and prints them. With
--only (say --only ratio) it runs just those tables and keeps the other rows
of an existing --out as they are, with their own commit and source hash in
kept_from.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Table-row stages, in the order one repetition runs them.
TABLE_STAGES = ("build", "max_degree", "cone_table", "g12", "g9",
                "to_json", "to_json_g9", "from_json", "from_json_g9")
#: Routers of the route rows, with the graph each routes on.
ROUTERS = (("stateless", "half_theta6"), ("stateful", "half_theta6"), ("g12", "g12"), ("g9", "g9"))
#: Ordered pairs per router in the warm route rows.
ROUTE_PAIRS = 200
#: Point counts of the generation rows.
GEN_SIZES = (384, 768, 2048)
#: Point counts of the ratio rows.
RATIO_SIZES = (768, 2048, 4096, 8192)
#: Largest n of the ratio rows that also runs the all-pairs reference.
REFERENCE_MAX = 2048
#: Point counts of the graph-table and route rows.
TABLE_SIZES = (4096, 65536)
#: Point counts of the certification rows.
CERT_SIZES = (64, 4096)
#: Row label and spannerkit function (graph, u, w) of the certification rows.
CERT_CHECKS = (("certify", "restricted_pair_check"), ("shortest_path", "shortest_path"))
#: Point counts of the scan rows.
SCAN_SIZES = (768, 4096, 16384)
#: Largest n of the scan rows that also runs the cluster, circle and aligned
#: sets and times the full row-block scan.
FULL_MAX = 4096
#: Scans of the scan rows: name, k, use_projection, cone_mask.
SCANS = (("half-theta-6", 6, True, 0b010101), ("theta k=7", 7, True, 0),
         ("yao k=6", 6, False, 0), ("yao k=12", 12, False, 0),
         ("theta k=64", 64, True, 0), ("yao k=64", 64, False, 0))
#: Point sets of the scan rows (scan_points).
SCAN_POINTS = ("uniform", "cluster_far", "circle", "aligned")
#: Point counts of the CLI rows.
CLI_SIZES = (512, 4096)
#: Largest n of the CLI rows that also runs gen --kind random.
GEN_RANDOM_MAX = 2048


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


def uniform_pairs(n, seed):
    import numpy as np

    return np.random.default_rng(seed).random((n, 2)).tolist()


def gen_row(n, repeat, seed):
    """Time gen_random at one size in this process; returns the row."""
    from spannerkit import gen_random, general_position_report, points_to_json

    gen_s, ps = best_of(lambda: gen_random(n, seed), repeat)
    report_s, findings = best_of(lambda: general_position_report(ps, 6), repeat)
    if findings:
        raise SystemExit(f"gen_random({n}, {seed}) is not in general position: {findings[0]}")
    return {
        "n": n,
        "repeat": repeat,
        "gen_s": round(gen_s, 4),
        "report_s": round(report_s, 4),
        "traced_peak_mb": round(traced_peak_mb(lambda: gen_random(n, seed)), 2),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "sha256": hashlib.sha256(points_to_json(ps).encode()).hexdigest()[:16],
    }


def ratio_row(n, repeat, seed, reference):
    """Measure one ratio size in this process; returns the row."""
    from spannerkit import PointSet, build_half_theta6, spanning_ratio

    ps = PointSet.from_pairs(uniform_pairs(n, seed))
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


def table_row(n, repeat, seed):
    """Measure the graph tables at one size in this process; returns the row."""
    from spannerkit import PointSet, build_g9, build_g12, build_half_theta6, graph_from_json

    pairs = uniform_pairs(n, seed)
    best = dict.fromkeys(TABLE_STAGES, float("inf"))
    texts = None
    for _ in range(repeat):
        ps = PointSet.from_pairs(pairs)
        out = {}
        steps = (
            ("build", lambda: build_half_theta6(ps)),
            ("max_degree", lambda: out["build"].max_degree()),
            ("cone_table", lambda: out["build"].cone_table),
            ("g12", lambda: build_g12(out["build"])),
            ("g9", lambda: build_g9(out["build"])),
            ("to_json", lambda: out["build"].to_json()),
            ("to_json_g9", lambda: out["g9"].to_json()),
            ("from_json", lambda: graph_from_json(out["to_json"])),
            ("from_json_g9", lambda: graph_from_json(out["to_json_g9"])),
        )
        for name, fn in steps:
            gc.collect()
            t0 = time.perf_counter()
            out[name] = fn()
            best[name] = min(best[name], time.perf_counter() - t0)
        if out["from_json"] != out["build"] or out["from_json_g9"] != out["g9"]:
            raise SystemExit(f"n={n}: a graph changed in a JSON round trip")
        got = [out["to_json"], out["g12"].to_json(), out["to_json_g9"]]
        if texts is not None and got != texts:
            raise SystemExit(f"n={n}: repetitions wrote different graph files")
        texts = got
        del out, ps
    h, g12, g9 = (graph_from_json(t) for t in texts)
    return {
        "n": n,
        "repeat": repeat,
        "edges": {"half_theta6": len(h.edges), "g12": len(g12.edges), "g9": len(g9.edges)},
        **{f"{name}_s": round(best[name], 4) for name in TABLE_STAGES},
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "sha256": {kind: hashlib.sha256(t.encode()).hexdigest()[:16]
                   for kind, t in zip(("half_theta6", "g12", "g9"), texts)},
    }


def route_rows(n, repeat, seed):
    """Time the four routers at one size in this process; returns their rows."""
    import spannerkit as sk

    h = sk.build_half_theta6(sk.PointSet.from_pairs(uniform_pairs(n, seed)))
    graphs = {"half_theta6": h, "g12": sk.build_g12(h), "g9": sk.build_g9(h)}
    texts = {kind: g.to_json() for kind, g in graphs.items()}
    rng = random.Random(seed)
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(ROUTE_PAIRS)]
    rows = []
    for name, kind in ROUTERS:
        route = getattr(sk, "route_" + name)
        g = graphs[kind]
        traces = [route(g, s, t) for s, t in pairs]
        if not all(tr.passed for tr in traces):
            raise SystemExit(f"n={n}: a {name} route did not pass its bound")
        warm_s, _ = best_of(lambda: [route(g, s, t) for s, t in pairs], repeat)
        first_s = float("inf")
        for _ in range(repeat):
            fresh = sk.graph_from_json(texts[kind])
            gc.collect()
            t0 = time.perf_counter()
            route(fresh, *pairs[0])
            first_s = min(first_s, time.perf_counter() - t0)
        digest = hashlib.sha256("".join(tr.to_json() for tr in traces).encode())
        rows.append({
            "n": n,
            "router": name,
            "repeat": repeat,
            "pairs": ROUTE_PAIRS,
            "steps": sum(len(tr.steps) for tr in traces),
            "warm_us": round(warm_s / ROUTE_PAIRS * 1e6, 1),
            "first_route_s": round(first_s, 4),
            "traces_sha256": digest.hexdigest()[:16],
        })
    return rows


def cert_row(n, repeat, seed):
    """Time pair certification and shortest paths at one size in this
    process; returns the row."""
    import spannerkit as sk

    h = sk.build_half_theta6(sk.PointSet.from_pairs(uniform_pairs(n, seed)))
    text = h.to_json()
    rng = random.Random(seed)
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(ROUTE_PAIRS)]
    row = {"n": n, "repeat": repeat, "pairs": ROUTE_PAIRS}
    digest = hashlib.sha256()
    for label, name in CERT_CHECKS:
        check = getattr(sk, name)
        results = [check(h, s, t) for s, t in pairs]
        if label == "certify" and not all(r["ok"] for r in results):
            raise SystemExit(f"n={n}: a pair did not meet its bound")
        warm_s, _ = best_of(lambda: [check(h, s, t) for s, t in pairs], repeat)
        first_s = float("inf")
        for _ in range(repeat):
            fresh = sk.graph_from_json(text)
            gc.collect()
            t0 = time.perf_counter()
            check(fresh, *pairs[0])
            first_s = min(first_s, time.perf_counter() - t0)
        digest.update(json.dumps(results).encode())
        row[f"{label}_warm_us"] = round(warm_s / ROUTE_PAIRS * 1e6, 1)
        row[f"{label}_first_s"] = round(first_s, 4)
    row["results_sha256"] = digest.hexdigest()[:16]
    return row


def scan_points(points, n, seed):
    """One scan-row point set as x and y lists."""
    from spannerkit import gen_circle

    rng = random.Random(seed)
    if points == "uniform":
        pairs = [(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)) for _ in range(n)]
    elif points == "cluster_far":
        # 14/15 of the points in one Gaussian cluster of deviation 1e-3, the
        # rest uniform over [-50, 50)^2: the cluster shares one grid cell.
        m = n * 14 // 15
        pairs = [(rng.gauss(0.0, 1e-3), rng.gauss(0.0, 1e-3)) for _ in range(m)]
        pairs += [(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)) for _ in range(n - m)]
    elif points == "aligned":
        # Two 1e-3-wide squares 1000 apart side by side: every pair across
        # them lies within 1e-6 rad of azimuth pi/2, a boundary of six cones.
        pairs = [(dx + rng.uniform(0.0, 1e-3), rng.uniform(0.0, 1e-3))
                 for dx, m in ((0.0, n // 2), (1000.0, n - n // 2)) for _ in range(m)]
    else:
        # Every cone facing inwards has its winner across the circle, beyond
        # any candidate block.
        pairs = [(p.x, p.y) for p in gen_circle(n)]
    return [x for x, _ in pairs], [y for _, y in pairs]


def scan_rows(n, repeat, seed):
    """Time the cone scans at one size in this process; returns their rows."""
    import numpy as np
    from spannerkit import build

    certify = build._certified_rows
    left = []

    def counted(x, *args):
        rows = certify(x, *args)
        left.append(len(rows))
        return rows

    def everything(x, *_):
        return np.arange(len(x))

    def scan(rows_of, xs, ys, params):
        # cone_scan with rows_of in place of its grid phase.
        build._certified_rows = rows_of
        try:
            return build.cone_scan(xs, ys, *params)
        finally:
            build._certified_rows = certify

    rows = []
    for points in SCAN_POINTS if n <= FULL_MAX else SCAN_POINTS[:1]:
        xs, ys = scan_points(points, n, seed)
        for name, *params in SCANS:
            left.clear()
            grid_s, edges = best_of(lambda: scan(counted, xs, ys, params), repeat)
            row = {"points": points, "scan": name, "k": params[0], "projection": params[1],
                   "cone_mask": params[2], "n": n, "repeat": repeat, "grid_s": round(grid_s, 5),
                   "fallback_rows": left[0] if left else n, "full_s": None,
                   "edges_sha256": hashlib.sha256(repr(edges).encode()).hexdigest()}
            if n <= FULL_MAX:
                full_s, full = best_of(lambda: scan(everything, xs, ys, params), repeat)
                if full != edges:
                    raise SystemExit(f"{points} n={n}: {name} differs from the full scan")
                row["full_s"] = round(full_s, 5)
            rows.append(row)
    return rows


def cli_inputs(n, seed, directory):
    """Write the CLI rows' input files to directory: n uniform points and the
    half-Theta-6, G12 and G9 graphs over them."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spannerkit as sk

    ps = sk.PointSet.from_pairs(uniform_pairs(n, seed))
    h = sk.build_half_theta6(ps)
    for name, text in (("points", sk.points_to_json(ps)), ("half_theta6", h.to_json()),
                       ("g12", sk.build_g12(h).to_json()), ("g9", sk.build_g9(h).to_json())):
        with open(os.path.join(directory, name + ".json"), "w", encoding="utf-8") as fh:
            fh.write(text)


def run_cli(argv, out_path, err_path):
    """Run python -m spannerkit argv in a fresh process with stdout to
    out_path and stderr to err_path; returns its wall time and peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("SPANNER_KIT_SEED", None)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "spannerkit", *argv], stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            raise SystemExit(f"spannerkit {' '.join(argv)} exited {proc.returncode}:\n{fh.read()}")
    return wall_s, usage.ru_maxrss / 1024.0


def cli_rows(n, repeat, seed):
    """Time CLI calls at one size, each in a fresh process; returns their rows.

    A child that subprocess starts (by vfork) counts its parent's peak RSS in
    its own ru_maxrss, so the calls start from this process, which imports
    neither numpy nor spannerkit, and another process writes the inputs."""
    import tempfile

    s, t = (str(v) for v in random.Random(seed).sample(range(n), 2))
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, "-c", f"import bench_layers; bench_layers.cli_inputs({n}, {seed}, {tmp!r})"],
                       cwd=HERE, check=True)
        path = {name: os.path.join(tmp, name + ".json") for name in ("points", "half_theta6", "g12", "g9")}
        calls = [["gen", "--kind", "random", "--n", str(n), "--seed", str(seed)]] if n <= GEN_RANDOM_MAX else []
        calls.append(["gen", "--kind", "circle", "--n", str(n)])
        calls += [["build", "--graph", kind, "--points", path["points"]] for kind in ("half_theta6", "g9")]
        calls += [["route", "--graph", path[kind], "--algo", name, "--from", s, "--to", t]
                  for name, kind in ROUTERS]
        calls += [["analyze", "--graph", path["half_theta6"]], ["render", "--graph", path["half_theta6"]]]
        out_path, err_path = os.path.join(tmp, "stdout"), os.path.join(tmp, "stderr")
        for argv in calls:
            wall_s, rss, digest = float("inf"), 0.0, None
            for _ in range(repeat):
                call_s, call_rss = run_cli(argv, out_path, err_path)
                wall_s, rss = min(wall_s, call_s), max(rss, call_rss)
                with open(out_path, "rb") as fh:
                    got = hashlib.sha256(fh.read()).hexdigest()[:16]
                if digest is not None and got != digest:
                    raise SystemExit(f"n={n}: spannerkit {' '.join(argv)} printed different output")
                digest = got
            rows.append({
                "n": n,
                "command": " ".join(os.path.basename(a) if a in path.values() else a for a in argv),
                "repeat": repeat,
                "wall_s": round(wall_s, 4),
                "peak_rss_mb": round(rss, 1),
                "stdout_sha256": digest,
            })
    return rows


def commit():
    """HEAD, with -dirty when src/ or benchmarks/ differ from it: the
    measured code and this script, not the documents beside them."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()

    try:
        dirty = git("status", "--porcelain", "--", "src", "benchmarks")
        return git("describe", "--always", "--abbrev=40") + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return None


def source_sha256():
    """Hash of the package sources, which names the measured code even when
    the tree has uncommitted changes."""
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "spannerkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def child(table, n, args):
    """Run one (table, n) row in a fresh process and return it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child", f"{table}:{n}",
           "--repeat", str(args.repeat), "--seed", str(args.seed)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{table} n={n} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=3, help="best-of repetitions per size")
    ap.add_argument("--seed", type=int, default=2024, help="seed of the uniform points")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_layers.json"))
    ap.add_argument("--only", action="append", choices=TABLES,
                    help="run only this table (repeatable) and keep the other tables' rows of --out, "
                         "recording their commit and source hash under kept_from")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.child is not None:
        table, n = args.child.split(":")
        if table not in TABLES:
            raise SystemExit(f"unknown table {table!r}: the tables are {', '.join(TABLES)}")
        print(json.dumps(TABLES[table][0](int(n), args)))
        return

    import numpy
    import scipy

    doc = {
        "bench": "spannerkit layers: gen_random, build.cone_scan, and over uniform points "
                 "spanning_ratio(build_half_theta6), the half-theta-6 graph tables, the four routers, "
                 "pair certification and fresh-process CLI calls",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_sha256(),
        "seed": args.seed,
    }
    kept = {}
    if args.only:
        if not os.path.exists(args.out):
            raise SystemExit(f"--only keeps the other tables' rows of {args.out}, which does not exist")
        with open(args.out, encoding="utf-8") as fh:
            old = json.load(fh)
        for name in TABLES:
            key = f"{name}_rows"
            if name in args.only:
                continue
            if key not in old:
                raise SystemExit(f"{args.out} has no {key}: add --only {name}")
            kept[key] = old.get("kept_from", {}).get(
                key, {"commit": old["commit"], "source_sha256": old["source_sha256"]})
    for name, (_, section) in TABLES.items():
        key = f"{name}_rows"
        doc[key] = old[key] if key in kept else section(args)
    if kept:
        doc["kept_from"] = kept
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def gen_section(args):
    rows = []
    print(f"{'n':>6} {'gen s':>9} {'report s':>9} {'traced MB':>10} {'peak MB':>8} {'points':>17}")
    for n in GEN_SIZES:
        row = child("gen", n, args)
        rows.append(row)
        print(f"{n:>6} {row['gen_s']:>9.3f} {row['report_s']:>9.4f} {row['traced_peak_mb']:>10.2f} "
              f"{row['peak_rss_mb']:>8.1f} {row['sha256']:>17}")
    return rows


def ratio_section(args):
    rows = []
    print(f"\n{'n':>6} {'edges':>7} {'ratio s':>9} {'rss +MB':>8} {'traced MB':>10} "
          f"{'all-pairs s':>12} {'rss +MB':>8}")
    for n in RATIO_SIZES:
        row = child("ratio", n, args)
        rows.append(row)
        ref_s = f"{row['reference_s']:.3f}" if "reference_s" in row else "-"
        ref_rss = f"{row['reference_peak_rss_growth_mb']:.1f}" if "reference_s" in row else "-"
        print(f"{n:>6} {row['edges']:>7} {row['ratio_s']:>9.3f} {row['peak_rss_growth_mb']:>8.1f} "
              f"{row['traced_peak_mb']:>10.2f} {ref_s:>12} {ref_rss:>8}")
    return rows


def table_section(args):
    rows = []
    print(f"\n{'n':>6} " + " ".join(f"{name:>12}" for name in TABLE_STAGES) + f" {'peak MB':>8}")
    for n in TABLE_SIZES:
        row = child("table", n, args)
        rows.append(row)
        print(f"{n:>6} " + " ".join(f"{row[name + '_s'] * 1e3:>10.1f}ms" for name in TABLE_STAGES)
              + f" {row['peak_rss_mb']:>8.1f}")
    return rows


def route_section(args):
    rows = []
    print(f"\n{'n':>6} {'router':>10} {'steps':>7} {'warm us':>9} {'first ms':>9} {'traces':>17}")
    for n in TABLE_SIZES:
        for row in child("route", n, args):
            rows.append(row)
            print(f"{n:>6} {row['router']:>10} {row['steps']:>7} {row['warm_us']:>9.1f} "
                  f"{row['first_route_s'] * 1e3:>9.1f} {row['traces_sha256']:>17}")
    return rows


def cert_section(args):
    rows = []
    print(f"\n{'n':>6} {'certify us':>11} {'first ms':>9} {'path us':>9} {'first ms':>9} {'results':>17}")
    for n in CERT_SIZES:
        row = child("cert", n, args)
        rows.append(row)
        print(f"{n:>6} {row['certify_warm_us']:>11.1f} {row['certify_first_s'] * 1e3:>9.1f} "
              f"{row['shortest_path_warm_us']:>9.1f} {row['shortest_path_first_s'] * 1e3:>9.1f} "
              f"{row['results_sha256']:>17}")
    return rows


def cli_section(args):
    rows = []
    print(f"\n{'n':>6} {'command':<66} {'wall ms':>8} {'peak MB':>8} {'stdout':>17}")
    for n in CLI_SIZES:
        for row in child("cli", n, args):
            rows.append(row)
            print(f"{n:>6} {row['command']:<66} {row['wall_s'] * 1e3:>8.1f} {row['peak_rss_mb']:>8.1f} "
                  f"{row['stdout_sha256']:>17}")
    return rows


def scan_section(args):
    rows = []
    print(f"\n{'points':<12} {'cone scan':<14} {'n':>6} {'grid ms':>9} {'fallback':>8} "
          f"{'full ms':>9} {'speedup':>8}")
    for n in SCAN_SIZES:
        for row in child("scan", n, args):
            rows.append(row)
            full = (f"{row['full_s'] * 1e3:>9.2f} {row['full_s'] / row['grid_s']:>7.2f}x"
                    if row["full_s"] is not None else f"{'-':>9} {'-':>8}")
            print(f"{row['points']:<12} {row['scan']:<14} {n:>6} {row['grid_s'] * 1e3:>9.2f} "
                  f"{row['fallback_rows']:>8} {full}")
    return rows


#: The tables by the name --only and --child give them, each with the function
#: that measures one size in a child process and the section that runs the
#: children; the rows go to the output's "<name>_rows".
TABLES = {
    "gen": (lambda n, args: gen_row(n, args.repeat, args.seed), gen_section),
    "ratio": (lambda n, args: ratio_row(n, args.repeat, args.seed, n <= REFERENCE_MAX), ratio_section),
    "table": (lambda n, args: table_row(n, args.repeat, args.seed), table_section),
    "route": (lambda n, args: route_rows(n, args.repeat, args.seed), route_section),
    "cert": (lambda n, args: cert_row(n, args.repeat, args.seed), cert_section),
    "scan": (lambda n, args: scan_rows(n, args.repeat, args.seed), scan_section),
    "cli": (lambda n, args: cli_rows(n, args.repeat, args.seed), cli_section),
}


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Pipeline benchmark for spannerkit.

    python3 perfbench/run.py --workload route --seed 1 --seconds 12 --trace 0

Runs one workload from the root of a source checkout, importing spannerkit
from its ``src`` directory.  The set-up is done several times and its median
reported as ``setup_s``; then the workload's ops run in a closed loop for
``--seconds``.  Every op is checked.  The run prints its environment, the
workload's own metrics with units and sample counts, and the digest of its
outputs.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
every call into spannerkit is wrapped in a span, the per-layer report and
the tracing overhead are printed, the per-layer metrics are returned, and
the spans are written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
import warnings
from pathlib import Path

import harness
from workloads import ALGOS, CASES, KINDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: How many times the set-up runs; setup_s is the median.
SETUP_REPEATS = 3



def _load_spannerkit():
    """Import spannerkit from the checkout, recording (not silencing) warnings."""
    if not (SRC / "spannerkit" / "__init__.py").is_file():
        sys.exit(f"error: no spannerkit sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        import spannerkit
    for w in caught:
        print(f"warning: {w.category.__name__}: {w.message}", file=sys.stderr)
    if Path(spannerkit.__file__).resolve().parent != SRC / "spannerkit":
        sys.exit(f"error: imported spannerkit from {spannerkit.__file__}, not from {SRC}")
    return spannerkit, [f"{w.category.__name__}: {w.message}" for w in caught]


def _git_commit():
    """Commit of the checkout, read from .git without running git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "spannerkit").iterdir()):
        if path.suffix in (".py", ".pyx", ".c"):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _environment(sk, import_warnings, wl, args):
    import numpy
    import scipy

    return {
        "backend": "compiled" if sk.USING_COMPILED else "pure",
        "using_compiled": sk.USING_COMPILED,
        "import_warnings": import_warnings,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "spannerkit": sk.__version__,
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": wl.name,
        "n": wl.n,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(wl, rec, setup_times):
    lat, items, busy = wl.headline(rec)
    return {
        "setup_s": (harness.median(setup_times), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "latency_ms_p50": (harness.median(lat) * 1e3, "ms"),
        "throughput_per_s": (items / busy, "1/s"),
    }


def _per_layer(sk, rec, stats, modules, n_spans, wall_ns, span_cost):
    """Per-layer metrics of the traced run.  Times that only some workloads
    produce are given as shares of wall time, so none reads as a zero time."""
    wall = float(wall_ns)

    def share(name):
        # Calls on auxiliary inputs carry a "/tag" suffix; shares count them too.
        return sum(st["self_ns"] for key, st in stats.items()
                   if key == name or key.startswith(name + "/")) / wall

    def p50(name, scale, phase=None):
        st = stats.get(name)
        if not st:
            return 0.0
        durs = [d for ph, ds in st["durations"].items() if phase in (None, ph) for d in ds]
        return harness.median(durs) * 1e-9 * scale if durs else 0.0

    def cold_share(algo):
        st = stats.get("routing." + algo)
        return sum(st["durations"].get("cold", [])) / wall if st else 0.0

    c, v = rec.counts, rec.values
    n = v.get("ratio_n", 0)
    m = {
        "trace.overhead_share": (span_cost * n_spans * 1e9 / wall, "ratio"),
        "trace.spans": (n_spans, "count"),
        "env.using_compiled": (int(sk.USING_COMPILED), "count"),
    }
    for mod in harness.LAYERS + ("harness",):
        m[f"{mod}.self_share"] = (modules.get(mod, 0) / wall, "ratio")
    m["cli_io.gen_random.s_p50"] = (p50("cli_io.gen_random", 1.0), "s")
    m["cli_io.gen_random.share"] = (share("cli_io.gen_random"), "ratio")
    m["cli_io.gen_random.calls"] = (stats["cli_io.gen_random"]["calls"], "count")
    m["geometry.points_json.share"] = (share("geometry.points_json"), "ratio")
    m["build.half_theta6.s"] = (p50("build.half_theta6", 1.0), "s")
    m["build.g12.ms"] = (p50("build.g12", 1e3), "ms")
    m["build.g9.ms"] = (p50("build.g9", 1e3), "ms")
    m["build.adjacency.ms"] = (p50("build.adjacency", 1e3), "ms")
    for kind in KINDS:
        m[f"build.{kind}.share"] = (share(f"build.{kind}"), "ratio")
    for name in ("adjacency", "graph_json", "graph_from_json"):
        m[f"build.{name}.share"] = (share(f"build.{name}"), "ratio")
    for kind in KINDS:
        m[f"build.{kind}.edges"] = (v.get(f"edges.{kind}", 0), "count")
    m["kernels.cone_edges.pair_cone_evals"] = (c["kernels.cone_edges.pair_cone_evals"], "count")
    m["kernels.point_in_tri.calls"] = (c["kernels.point_in_tri.calls"], "count")
    m["analysis.verify_bound.share"] = (share("analysis.verify_bound"), "ratio")
    m["analysis.spanning_ratio.share"] = (share("analysis.spanning_ratio"), "ratio")
    m["analysis.spanning_ratio.pairs"] = (n * (n - 1) // 2, "count")
    m["analysis.spanning_ratio.dijkstra_sources"] = (n, "count")
    # Graph-distance and Euclidean n x n float64 matrices.
    m["analysis.spanning_ratio.matrix_mb"] = (2 * n * n * 8 / 2**20, "MB")
    m["analysis.restricted_pair_check.share"] = (share("analysis.restricted_pair_check"), "ratio")
    m["analysis.shortest_path.share"] = (share("analysis.shortest_path"), "ratio")
    m["analysis.restricted_pair_check.calls"] = (
        c["analysis.restricted_pair_check.calls"], "count")
    for algo in ALGOS:
        m[f"routing.{algo}.share"] = (share("routing." + algo), "ratio")
        m[f"routing.{algo}.steps"] = (c[f"routing.{algo}.steps"], "count")
        for case in CASES:
            m[f"routing.{algo}.case.{case}"] = (c[f"routing.{algo}.case.{case}"], "count")
        travel = c[f"routing.{algo}.productive"] + c[f"routing.{algo}.exploration"]
        m[f"routing.{algo}.exploration_share"] = (
            c[f"routing.{algo}.exploration"] / travel if travel else 0.0, "ratio")
        m[f"routing.{algo}.spend_over_bound_max"] = (
            v.get(f"routing.{algo}.spend_over_bound_max", 0.0), "ratio")
        m[f"routing.{algo}.first_route_share"] = (cold_share(algo), "ratio")
    m["routing.trace_json.share"] = (share("routing.trace_json"), "ratio")
    return m


def _layer_table(stats, modules, wall_ns, span_cost, n_spans):
    """Self time and share of wall time per traced call and per layer."""
    wall = float(wall_ns)
    lines = [f"traced wall {wall * 1e-9:.3f} s, {n_spans} spans, "
             f"tracing overhead {span_cost * 1e6:.3f} us/span = "
             f"{span_cost * n_spans * 1e9 / wall:.4%} of wall"]
    lines.append(f"{'layer':<10} {'self s':>10} {'share':>8}")
    for mod, ns in sorted(modules.items(), key=lambda kv: -kv[1]):
        lines.append(f"{mod:<10} {ns * 1e-9:>10.4f} {ns / wall:>8.2%}")
    lines.append(f"{'span':<36} {'calls':>8} {'self s':>10} {'share':>8} {'p50 ms':>10}  phases")
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1]["self_ns"]):
        durs = sorted(d for ds in st["durations"].values() for d in ds)
        lines.append(
            f"{name:<36} {st['calls']:>8} {st['self_ns'] * 1e-9:>10.4f} "
            f"{st['self_ns'] / wall:>8.2%} {durs[len(durs) // 2] * 1e-6:>10.4f}  "
            + ",".join(sorted(st["durations"])))
    return lines


def _layer_times(stats, rec):
    """Per-call medians of the traced spans, under the layer names they
    explain; only the layers the workload calls appear."""
    rows = []

    def add(metric, span, scale, unit, phase=None):
        st = stats.get(span)
        durs = [d for ph, ds in st["durations"].items() if phase in (None, ph)
                for d in ds] if st else []
        if durs:
            rows.append((metric, harness.median(durs) * scale, unit, len(durs)))

    add("cli_io.gen_random.s_p50", "cli_io.gen_random", 1e-9, "s")
    add("geometry.points_json.ms", "geometry.points_json", 1e-6, "ms")
    for kind in ("half_theta6", "theta", "yao", "rotated_union", "mst"):
        add(f"build.{kind}.s", f"build.{kind}", 1e-9, "s")
    for name in ("g12", "g9", "adjacency", "graph_json", "graph_from_json"):
        add(f"build.{name}.ms", f"build.{name}", 1e-6, "ms")
    add("build.adjacency.ms.cold", "build.adjacency", 1e-6, "ms", "cold")
    add("analysis.verify_bound.s", "analysis.verify_bound", 1e-9, "s")
    for kind in ("g12", "g9"):
        add(f"analysis.spanning_ratio.s.{kind}", f"analysis.spanning_ratio/{kind}", 1e-9, "s")
    add("analysis.restricted_pair_check.us_p50", "analysis.restricted_pair_check", 1e-3, "us")
    add("analysis.shortest_path.us_p50", "analysis.shortest_path", 1e-3, "us")
    for algo in ALGOS:
        add(f"routing.{algo}.us_p50", f"routing.{algo}", 1e-3, "us", "warm")
        add(f"routing.{algo}.first_route_ms", f"routing.{algo}", 1e-6, "ms", "cold")
        steps = rec.counts[f"routing.{algo}.steps_all"]
        st = stats.get(f"routing.{algo}")
        if steps and st:
            rows.append((f"routing.{algo}.us_per_step",
                         sum(st["durations"]["warm"]) * 1e-3 / steps, "us", steps))
    add("routing.trace_json.us", "routing.trace_json", 1e-3, "us")
    return rows


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    sk, import_warnings = _load_spannerkit()

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    wl = WORKLOADS[args.workload](sk)
    tr = harness.Tracer() if args.trace else harness.NullTracer()
    rec = harness.Recorder(tr)
    env = _environment(sk, import_warnings, wl, args)
    print("env " + json.dumps(env, sort_keys=True))

    t_start = time.perf_counter_ns()
    setup_times, setup_digests = [], []
    for _ in range(SETUP_REPEATS):
        state = None  # let the previous set-up's objects go before the next
        gc.collect()
        tr.phase = "setup"
        with tr.span("setup"):
            (state, outputs), dt = rec.timed(lambda: wl.setup(rec, args.seed))
        setup_times.append(dt)
        setup_digests.append(hashlib.sha256(repr(outputs).encode()).hexdigest())
    setup_repeats = len(set(setup_digests)) == 1
    rec.fold(setup_digests[0])
    # The benchmark's own long-lived objects (inputs, plans) must not make
    # the library's garbage collections slower than in a fresh process, so
    # they are moved out of the collector's view.
    gc.collect()
    gc.freeze()

    wl.run(rec, state, args.seed, args.seconds)
    wall_ns = time.perf_counter_ns() - t_start

    correct = rec.failed == 0 and setup_repeats
    e2e = _end_to_end(wl, rec, setup_times)
    label = "e2e_traced" if args.trace else "e2e"
    for name, (value, unit) in e2e.items():
        print(f"{label} {name} = {_fmt(value)} {unit}")
    for name, value, unit, samples in wl.named(rec):
        print(f"metric {name} = {_fmt(value)} {unit} (samples={samples})")
    samples = rec.samples
    for kind in sorted(samples):
        s = samples[kind]
        t = harness.tail(s)
        tail_txt = f", p{t[0]:g}={t[1] * 1e3:.4f} ms" if t else ""
        print(f"op {kind}: samples={len(s)}, p50={harness.median(s) * 1e3:.4f} ms{tail_txt}, "
              f"wall p50={harness.median(rec.raw[kind]) * 1e3:.4f} ms")
    probes = sorted(rec.probes)
    print(f"reference loop: {len(probes)} readings, p50={harness.median(probes) * 1e3:.4f} ms "
          f"(min {probes[0] * 1e3:.4f}, max {probes[-1] * 1e3:.4f}); op times above are "
          f"scaled to {harness.REF_S * 1e3:g} ms per loop")
    print(f"metric fail_share = {rec.failed / max(rec.attempted, 1):.6g} ratio "
          f"(failed={rec.failed}, attempted={rec.attempted})")
    for failure in rec.failures[:20]:
        print("failure " + json.dumps(failure, sort_keys=True))
    if not setup_repeats:
        print(f"failure set-up outputs differ between repeats: {setup_digests}")
    print(f"digest {rec.digest}")

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    if args.trace:
        span_cost = harness.per_span_cost_s()
        spans = [s for s in tr.spans if s is not None]
        stats, modules = harness.layer_report(spans, wall_ns)
        for line in _layer_table(stats, modules, wall_ns, span_cost, len(spans)):
            print("layer " + line)
        for name, value, unit, calls in _layer_times(stats, rec):
            print(f"layer_time {name} = {_fmt(value)} {unit} (samples={calls})")
        layer = _per_layer(sk, rec, stats, modules, len(spans), wall_ns, span_cost)
        for name, (value, unit) in layer.items():
            print(f"per_layer {name} = {_fmt(value)} {unit}")
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        out = out_dir / f"trace-{wl.name}-seed{args.seed}.json"
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "wall_ns": wall_ns, "fields":
                       ["name", "start_ns", "end_ns", "parent", "op", "phase"],
                       "spans": spans}, fh, separators=(",", ":"))
        print(f"spans written to {out.relative_to(ROOT)}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}

    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

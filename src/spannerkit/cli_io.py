"""Command-line interface, point-set generation, and SVG rendering.

Subcommands:

    gen      emit a point set (random, circle, or one of the adversarial
             lower-bound instances) as JSON
    build    construct a spanner over a point-set file
    analyze  measure the exact spanning ratio of a graph file
    verify   measure and compare against the bound registered for the kind
    route    run one of the routing engines between two vertices
    render   draw a point set or graph as a deterministic SVG

Exit codes: 0 on success, 1 when a checked bound fails, 2 on usage errors or
rejected input, 3 when an internal invariant fails (a bug in spannerkit).
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import analysis, build, routing
from .build import SpannerGraph, graph_from_json, graph_to_json
from .errors import DegenerateInput, InternalInvariantViolation, InvalidParameter, SpannerKitError
from .geometry import (ConeSystem, PointSet, _as_count, _as_id, _as_real, _dump_json, _stream_conflicts,
                       points_from_json, points_to_json)

SEED_ENV = "SPANNER_KIT_SEED"

GEN_KINDS = (
    "random",
    "circle",
    "theta5_lb",
    "routing_lb_positive",
    "routing_lb_negative_a",
    "routing_lb_negative_b",
)

BUILD_GRAPHS = ("yao", "theta", "half_theta6", "g12", "g9", "rotated_union", "mst")

ROUTE_ALGOS = ("stateless", "stateful", "g12", "g9")


#: The first round of gen_random draws n + n * _STREAM_MARGIN candidates.
_STREAM_MARGIN = 0.125


def gen_random(n: int, seed: int, k: int = 6, retries: int = 100) -> PointSet:
    """n points uniform in the unit square, resampled into general position.

    Each point gets up to `retries` draws to clear _stream_conflicts against
    the points placed before it. The draws are a stream fixed by the seed,
    checked in one numpy pass per round (n + n/8 draws, then as many as the
    rejections so far suggest) and placed by a walk in draw order, so every
    seed gives the points, and every failure the error, of the scalar loops.

    general_position_report(ps, k) is empty by construction, so it is not
    run: every (apex, a, b) triple is tested when its latest point is placed;
    for pairs in the unit square _STREAM_EPS * max(1, d) exceeds the report's
    EPS * max(1, d); and the stream's avoided directions are the report's
    (geometry._avoided_directions).

    Raises InvalidParameter before drawing any point unless n and retries are
    integers >= 1 (not bools), the seed is an integer (not a bool) and k is a
    valid cone count.
    """
    n = _as_count(n, 1, "need an integer number of points")
    k = ConeSystem(k).k
    retries = _as_count(retries, 1, "retries must be an integer")
    if _as_id(seed) is None:
        raise InvalidParameter(f"seed must be an integer, got {seed!r}")
    rng = random.Random(_as_id(seed))
    # The points placed so far, followed by the draws of the current round.
    xs: list[float] = []
    ys: list[float] = []
    draws = n + int(n * _STREAM_MARGIN)
    rejected = 0
    attempts = 0
    while True:
        m = len(xs)
        for _ in range(draws):
            xs.append(rng.random())
            ys.append(rng.random())
        conflicts = _stream_conflicts(xs, ys, k, m)
        ok = [True] * m + [False] * draws
        keep = list(range(m))
        for c in range(m, m + draws):
            if any(ok[a] and ok[b] for a, b in conflicts.get(c, ())):
                rejected += 1
                attempts += 1
                if attempts == retries:
                    raise DegenerateInput(
                        f"could not place point {len(keep)} in general position "
                        f"after {retries} attempts"
                    )
                continue
            ok[c] = True
            keep.append(c)
            attempts = 0
            if len(keep) == n:
                break
        xs = [xs[i] for i in keep]
        ys = [ys[i] for i in keep]
        m = len(xs)
        if m == n:
            break
        # A draw ties about m**2 placed distances, so the rejections up to m
        # grow about as m**3 (m >= 1: the first draw is always placed).
        more = int(1.25 * rejected * ((n / m) ** 3 - 1.0)) + int(n * _STREAM_MARGIN)
        draws = min(2 * draws, n - m + more)
    return PointSet._from_columns(range(n), xs, ys)


def render_svg(obj, overlay=None) -> str:
    """Deterministic SVG for a point set or graph, world y pointing up.

    With a RoutingTrace overlay (graphs only) the walked path is highlighted
    and the queried pair's canonical triangle is outlined.
    """
    if overlay is not None and not isinstance(overlay, routing.RoutingTrace):
        raise InvalidParameter(f"an overlay must be a RoutingTrace, got {overlay!r}")
    # Points in arrays (id) order: edges and the walk are index pairs into it.
    if isinstance(obj, SpannerGraph):
        ps = obj.points
        edges = obj._ends.tolist()
    elif isinstance(obj, PointSet):
        if overlay is not None:
            raise InvalidParameter("route overlays need the graph, not just points")
        ps = obj
        edges = []
    else:
        raise InvalidParameter("render expects a PointSet or SpannerGraph")
    if not len(ps):
        raise InvalidParameter("nothing to render")
    pts = ps._coords

    tri = None
    if overlay is not None:
        walk = [obj.points._vertex(v) for v in overlay.path()]
        *_, tri = analysis._pair_triangle(obj, walk[0], obj.points._vertex(overlay.target))

    xs, ys = ps.arrays[1].tolist(), ps.arrays[2].tolist()
    if tri is not None:
        xs = xs + [c[0] for c in tri.polygon()]
        ys = ys + [c[1] for c in tri.polygon()]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    span = max(maxx - minx, maxy - miny)
    if span <= 0.0:
        span = 1.0
    size = 640.0
    margin = 40.0
    s = (size - 2.0 * margin) / span

    def fmt(v: float) -> str:
        return "%.9g" % (v + 0.0)

    # World -> screen: x' = s*x + e, y' = -s*y + f (y up).
    e = margin - s * minx
    f = size - margin + s * miny
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(size)}" '
        f'height="{fmt(size)}" viewBox="0 0 {fmt(size)} {fmt(size)}">',
        f'<g transform="matrix({fmt(s)} 0 0 {fmt(-s)} {fmt(e)} {fmt(f)})" '
        f'stroke="#444" stroke-width="{fmt(1.5 / s)}" fill="#c22">',
    ]
    for u, v in edges:
        ux, uy = pts[u]
        vx, vy = pts[v]
        out.append(
            f'<line x1="{fmt(ux)}" y1="{fmt(uy)}" x2="{fmt(vx)}" y2="{fmt(vy)}"/>'
        )
    if tri is not None:
        corners = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in tri.polygon())
        out.append(
            f'<polygon points="{corners}" fill="none" stroke="#2a7" '
            f'stroke-width="{fmt(1.0 / s)}" stroke-dasharray="{fmt(6.0 / s)}"/>'
        )
        for u, v in zip(walk, walk[1:]):
            ux, uy = pts[u]
            vx, vy = pts[v]
            out.append(
                f'<line class="route" x1="{fmt(ux)}" y1="{fmt(uy)}" '
                f'x2="{fmt(vx)}" y2="{fmt(vy)}" stroke="#06c" '
                f'stroke-width="{fmt(3.0 / s)}"/>'
            )
    r = fmt(3.0 / s)
    for x, y in pts:
        out.append(f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="{r}" stroke="none"/>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spannerkit", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a point set")
    p.add_argument("--kind", choices=GEN_KINDS, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--nudge", type=float, default=1e-4)
    p.add_argument("--out")

    p = sub.add_parser("build", help="build a spanner over a point-set file")
    p.add_argument("--graph", choices=BUILD_GRAPHS, required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--k", type=int, help="cone count (copies m for rotated_union)")
    p.add_argument("--out")

    p = sub.add_parser("analyze", help="measure the exact spanning ratio")
    p.add_argument("--graph", required=True)
    p.add_argument("--per-pair", action="store_true",
                   help="include every pair; with an --out ending in .csv the "
                        "table goes there as CSV and the summary to stdout")
    p.add_argument("--check", action="store_true",
                   help="also compare against the kind's bound; exit 1 on failure")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="compare the spanning ratio against the bound")
    p.add_argument("--graph", required=True,
                   help="graph JSON file, or a kind name to verify over fresh "
                        "random trials (--n/--trials/--seed)")
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int, help="cone count (copies m for rotated_union)")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--out")

    p = sub.add_parser("route", help="run a routing engine between two vertices")
    p.add_argument("--graph", required=True)
    p.add_argument("--algo", choices=ROUTE_ALGOS, required=True)
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    p.add_argument("--trace", action="store_true", help="emit every step, not just totals")
    p.add_argument("--check", action="store_true", help="exit 1 when the travel bound fails")
    p.add_argument("--svg", help="also draw the walked path over the graph to this file")
    p.add_argument("--out")

    p = sub.add_parser("render", help="draw a point set or graph as SVG")
    p.add_argument("--points")
    p.add_argument("--graph")
    p.add_argument("--out")

    return parser


def _emit(doc: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(doc)
        except OSError as exc:
            raise InvalidParameter(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(doc)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidParameter(f"cannot read {path}: {exc}") from exc


def _resolve_seed(seed: int | None, what: str) -> int:
    if seed is not None:
        return seed
    env = os.environ.get(SEED_ENV)
    if env is None:
        raise InvalidParameter(f"{what} requires --seed or ${SEED_ENV}")
    try:
        return int(env)
    except ValueError as exc:
        raise InvalidParameter(f"${SEED_ENV} is not an integer: {env!r}") from exc


def _cmd_gen(args) -> int:
    if args.kind == "random":
        if args.n is None:
            raise InvalidParameter("gen --kind random requires --n")
        ps = gen_random(args.n, _resolve_seed(args.seed, "gen --kind random"))
    elif args.kind == "circle":
        if args.n is None:
            raise InvalidParameter("gen --kind circle requires --n")
        ps = analysis.gen_circle(args.n, args.radius)
    elif args.kind == "theta5_lb":
        ps = analysis.gen_theta5_lower_bound(args.nudge)
    else:
        variant = args.kind.removeprefix("routing_lb_")
        ps = analysis.gen_routing_lb(variant, args.alpha, args.nudge)
    _emit(points_to_json(ps), args.out)
    return 0


def _graph_k(kind: str, k: int | None) -> int | None:
    """--k: m for rotated_union, else a cone count the kind's header rule allows."""
    if k is None and kind in ("yao", "theta"):
        raise InvalidParameter(f"--graph {kind} requires --k")
    if k is not None and kind != "rotated_union":
        build._kind_k(kind, k)
    return k


def _build_kind(kind: str, ps: PointSet, k: int | None) -> SpannerGraph:
    if kind == "yao" or kind == "theta":
        return build.build_yao(ps, k) if kind == "yao" else build.build_theta(ps, k)
    if kind == "half_theta6":
        return build.build_half_theta6(ps)
    if kind == "g12":
        return build.build_g12(build.build_half_theta6(ps))
    if kind == "g9":
        return build.build_g9(build.build_half_theta6(ps))
    if kind == "rotated_union":
        return build.build_rotated_union(ps, k if k is not None else 1)
    return build.build_mst(ps)


def _cmd_build(args) -> int:
    ps = points_from_json(_read(args.points))
    g = _build_kind(args.graph, ps, _graph_k(args.graph, args.k))
    _emit(graph_to_json(g), args.out)
    return 0


def _cmd_analyze(args) -> int:
    return _analyze_file(args.graph, args.tolerance, args.check, args.per_pair, args.out)


def _analyze_file(path, tolerance, check: bool, per_pair: bool, out) -> int:
    """analyze over a graph file; verify over one runs it with check on."""
    _as_real(tolerance, "tolerance must be finite (a real number)")
    g = graph_from_json(_read(path))
    if check:
        report = analysis._verify_bound(g, None, tolerance, per_pair=per_pair)
    else:
        report = analysis.spanning_ratio(g, per_pair=per_pair)
    if per_pair and out and out.endswith(".csv"):
        rows = ["u,v,euclidean,graph_distance,ratio"]
        for rec in report.per_pair:
            rows.append(
                f'{rec["u"]},{rec["v"]},{rec["euclidean"]!r},'
                f'{rec["graph_distance"]!r},{rec["ratio"]!r}'
            )
        _emit("\n".join(rows) + "\n", out)
        report.per_pair = None
        _emit(report.to_json(), None)
    else:
        _emit(report.to_json(), out)
    return 1 if check and not report.passed else 0


def _cmd_verify(args) -> int:
    _as_real(args.tolerance, "tolerance must be finite (a real number)")
    if args.graph in BUILD_GRAPHS:
        if args.n is None or args.trials is None:
            raise InvalidParameter(
                "verify over random trials requires --n and --trials"
            )
        if args.trials < 1:
            raise InvalidParameter(f"--trials must be >= 1, got {args.trials}")
        seed = _resolve_seed(args.seed, "verify over random trials")
        k = _graph_k(args.graph, args.k)
        gen_k = k if args.graph in ("yao", "theta") else 6
        worst = None
        passed = True
        for t in range(args.trials):
            ps = gen_random(args.n, seed + t, k=gen_k)
            g = _build_kind(args.graph, ps, k)
            rep = analysis.verify_bound(g, tolerance=args.tolerance)
            passed = passed and rep.passed
            if worst is None or rep.max_ratio > worst.max_ratio:
                worst = rep
        doc = {
            "kind": args.graph,
            "n": args.n,
            "trials": args.trials,
            "seed": seed,
            "bound": worst.bound,
            "bound_name": worst.bound_name,
            "worst_ratio": worst.max_ratio,
            "pass": passed,
        }
        _emit(_dump_json(doc), args.out)
        return 0 if passed else 1
    return _analyze_file(args.graph, args.tolerance, True, False, args.out)


def _cmd_route(args) -> int:
    g = graph_from_json(_read(args.graph))
    engine = {
        "stateless": routing.route_stateless,
        "stateful": routing.route_stateful,
        "g12": routing.route_g12,
        "g9": routing.route_g9,
    }[args.algo]
    trace = engine(g, args.src, args.dst)
    if args.svg:
        _emit(render_svg(g, overlay=trace), args.svg)
    if args.trace:
        doc = trace.to_json()
    else:
        doc = _dump_json({
            "algorithm": trace.algorithm,
            "source": trace.source,
            "target": trace.target,
            "steps": len(trace.steps),
            "total": trace.total_path_length,
            "exploration": trace.exploration_travel,
            "bound": trace.bound,
            "pass": trace.passed,
        })
    _emit(doc, args.out)
    if args.check and not trace.passed:
        return 1
    return 0


def _cmd_render(args) -> int:
    if (args.points is None) == (args.graph is None):
        raise InvalidParameter("render needs exactly one of --points or --graph")
    if args.points is not None:
        obj = points_from_json(_read(args.points))
    else:
        obj = graph_from_json(_read(args.graph))
    _emit(render_svg(obj), args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "build": _cmd_build,
        "analyze": _cmd_analyze,
        "verify": _cmd_verify,
        "route": _cmd_route,
        "render": _cmd_render,
    }
    try:
        return handlers[args.command](args)
    except InternalInvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except SpannerKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

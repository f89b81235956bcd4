"""Local routing engines for the half-theta-6 graph and its bounded-degree subgraphs.

Four engines share one geometric vocabulary.  When the destination t lies in
an even (positive) cone of the current vertex s, the walker follows the unique
positive-cone edge.  When t lies in an odd (negative) cone j, decisions are
phrased in terms of the canonical triangle with apex t that contains s and the
three regions it induces around s:

    X0  = cone j of s intersected with the triangle (vertices "behind" t),
    X1  = cone (j+1) mod 6 of s intersected with the triangle,
    X2  = cone (j-1) mod 6 of s intersected with the triangle.

Corner ``a`` of the triangle falls on the X1 side, corner ``b`` on the X2
side.  The stateless and stateful engines see the whole graph.  The g12 and g9
engines share one router on the degree-bounded subgraphs; it must reconstruct
the same decisions with local information only, paying extra travel that the
trace records separately from productive progress.  The two subgraphs differ
only in a ``_Local`` value: how a vertex reaches a positive-cone edge it did
not keep (a doubling search along flank edges on g12, a walk along the stored
direction hints on g9), where it reads the two ends of its fan (its kept first
and last neighbours on g12, the stored fan-end hints on g9), and the slack a
failed capped probe grants (20 and 4 times the corner distance).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from . import kernels
from .analysis import bound_value
from .build import SpannerGraph
from .errors import AlreadyArrived, InternalInvariantViolation, InvalidParameter
from .geometry import (
    ConeSystem,
    _dump_json,
    _json_id,
    _json_real,
    _parse_json,
    angle_alpha,
    canonical_triangle,
)

_CS6 = ConeSystem(6)

# Multiplier applied to the per-pair base bound for each engine.
ROUTING_FACTORS = {
    "stateless": 1.0,
    "stateful": 1.0,
    "g12": 19.0,
    "g9": 3.0,
}

_PAY_EPS = 1e-9


@dataclass(frozen=True)
class PotentialValue:
    """Potential of a routing state: the case label it was computed under and the value."""

    case: str
    value: float


@dataclass(frozen=True)
class RoutingStep:
    source: int
    target: int
    case: str
    phi_before: float
    phi_after: float
    length: float
    exploration: float = 0.0


@dataclass
class RoutingTrace:
    """Record of one routing run.

    ``total_path_length`` sums productive steps (travel that ends at a new
    simulated position); ``exploration_travel`` sums out-and-back excursions
    that returned to their starting vertex.  ``bound`` already includes any
    one-time probe slack granted during the run.
    """

    algorithm: str
    source: int
    target: int
    steps: list[RoutingStep] = field(default_factory=list)
    total_path_length: float = 0.0
    exploration_travel: float = 0.0
    bound: float = 0.0
    probe_slack: float = 0.0
    passed: bool = False

    def path(self) -> list[int]:
        out = [self.source]
        for s in self.steps:
            out.append(s.target)
        return out

    def to_json(self) -> str:
        doc = {
            "algorithm": self.algorithm,
            "source": self.source,
            "target": self.target,
            "steps": [
                {
                    "from": s.source,
                    "to": s.target,
                    "case": s.case,
                    "phi_before": s.phi_before,
                    "phi_after": s.phi_after,
                    "len": s.length,
                    "exploration": s.exploration,
                }
                for s in self.steps
            ],
            "total": self.total_path_length,
            "exploration": self.exploration_travel,
            "bound": self.bound,
            "probe_slack": self.probe_slack,
            "pass": self.passed,
        }
        return _dump_json(doc)

    @classmethod
    def from_json(cls, text: str) -> "RoutingTrace":
        obj = _parse_json(text, "trace")
        try:
            steps = [
                RoutingStep(
                    _json_id(s["from"]),
                    _json_id(s["to"]),
                    _trace_case(s["case"]),
                    _json_real(s["phi_before"]),
                    _json_real(s["phi_after"]),
                    _json_real(s["len"]),
                    _json_real(s["exploration"]),
                )
                for s in obj["steps"]
            ]
            algorithm, passed = obj["algorithm"], obj["pass"]
            if algorithm not in ROUTING_FACTORS:
                raise ValueError(f"unknown algorithm {algorithm!r}")
            if not isinstance(passed, bool):
                raise ValueError(f"pass must be true or false, got {passed!r}")
            return cls(
                algorithm=algorithm,
                source=_json_id(obj["source"]),
                target=_json_id(obj["target"]),
                steps=steps,
                total_path_length=_json_real(obj["total"]),
                exploration_travel=_json_real(obj["exploration"]),
                bound=_json_real(obj["bound"]),
                probe_slack=_json_real(obj.get("probe_slack", 0.0)),
                passed=passed,
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidParameter(f"malformed trace JSON: {exc}") from exc


def _trace_case(case) -> str:
    """A step's case label read from JSON; anything but A-D raises ValueError."""
    if case not in ("A", "B", "C", "D"):
        raise ValueError(f"step case must be one of A-D, got {case!r}")
    return case


def trace_from_json(text: str) -> RoutingTrace:
    return RoutingTrace.from_json(text)


def _d(p: tuple[float, float], q: tuple[float, float]) -> float:
    return math.hypot(q[0] - p[0], q[1] - p[1])


class _NegFrame:
    """Geometry of one negative-case decision: s sees t in odd cone j."""

    def __init__(self, ctx, s: int, t: int, j: int):
        self.s = s
        self.t = t
        self.j = j
        self.s_xy = ctx.coords[s]
        self.t_xy = ctx.coords[t]
        self.tri = canonical_triangle(_CS6, self.t_xy, self.s_xy)
        self.a = self.tri.corner_a
        self.b = self.tri.corner_b
        self.dist_sa = _d(self.s_xy, self.a)
        self.dist_sb = _d(self.s_xy, self.b)
        self.cone_x1 = (j + 1) % 6
        self.cone_x2 = (j - 1) % 6

    def contains(self, xy: tuple[float, float]) -> bool:
        return self.tri.contains(xy)

    def sliver(self, xy: tuple[float, float]) -> str:
        """Which escape sliver a cone-j point outside the triangle fell into.

        "S1" lies beyond the line t-a (high-azimuth side, adjacent to X1),
        "S2" beyond t-b (low-azimuth side, adjacent to X2).
        """
        beyond_a = _beyond(self.t_xy, self.a, self.b, xy)
        beyond_b = _beyond(self.t_xy, self.b, self.a, xy)
        if beyond_a and beyond_b:
            raise InternalInvariantViolation("point behind the triangle apex")
        if beyond_a:
            return "S1"
        if beyond_b:
            return "S2"
        raise InternalInvariantViolation("point is neither inside nor in a sliver")


def _beyond(apex, corner, interior_ref, p) -> bool:
    """True when p is strictly on the far side of line apex-corner from interior_ref."""
    ex = corner[0] - apex[0]
    ey = corner[1] - apex[1]
    cp = ex * (p[1] - apex[1]) - ey * (p[0] - apex[0])
    cr = ex * (interior_ref[1] - apex[1]) - ey * (interior_ref[0] - apex[0])
    return cp * cr < 0.0


def _check_graph(g: SpannerGraph, kinds: tuple[str, ...], source: int, target: int):
    """The graph's cone table and the endpoints' indices, once both are valid
    for routing."""
    if g.kind not in kinds:
        raise InvalidParameter(
            f"routing needs a graph of kind {kinds}, got {g.kind!r}"
        )
    ctx = g.cone_table
    s, t = g.points._vertex(source), g.points._vertex(target)
    if s == t:
        raise AlreadyArrived(f"source equals target ({source})")
    return ctx, s, t


def base_bound(g: SpannerGraph, source: int, target: int) -> tuple[float, bool]:
    """Per-pair routing budget before any engine multiplier.

    Returns (value, started_negative).  Positive start pays
    (sqrt(3) cos(alpha) + sin(alpha)) * |st| with alpha measured from s toward t;
    negative start pays (5/sqrt(3) cos(alpha) - sin(alpha)) * |st| with alpha
    measured from t toward s.
    """
    s, t = g.points._vertex(source), g.points._vertex(target)
    sp, tp = g.points._coords[s], g.points._coords[t]
    dist = math.hypot(tp[0] - sp[0], tp[1] - sp[1])
    if _CS6.cone_of(sp, tp) % 2 == 0:
        return bound_value("pair_alpha", alpha=angle_alpha(_CS6, sp, tp)) * dist, False
    return bound_value("routing_negative", alpha=angle_alpha(_CS6, tp, sp)) * dist, True


# ---------------------------------------------------------------------------
# Full-graph decision logic (stateless and stateful engines).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Decision:
    case: str
    nxt: int
    preferred: str | None
    phi: float


def _region_edge(ctx, frame: _NegFrame, cone: int) -> int | None:
    """Endpoint of s's positive-cone edge into `cone` if it lies in the triangle."""
    e = ctx.cone_edge[6 * frame.s + cone]
    if e >= 0 and frame.contains(ctx.coords[ctx.nbr[e]]):
        return ctx.nbr[e]
    return None


def _walk_fan_to_region(ctx, frame: _NegFrame, fan, inside, start: int) -> int:
    """First X0 member met when walking the fan from `start` toward the region."""
    in_set = set(inside)
    if start in in_set:
        return start
    side = frame.sliver(ctx.coords[start])
    step = 1 if side == "S2" else -1
    i = fan.index(start) + step
    while 0 <= i < len(fan):
        if fan[i] in in_set:
            return fan[i]
        i += step
    raise InternalInvariantViolation("fan walk ran past the region without entering it")


def _initial_preferred(ctx, s: int, v: int, t: int) -> str | None:
    """Side memorised after a positive step s->v when t is negative from v.

    The retained side is the one whose corner of the new triangle (apex t,
    containing v) lies inside the step triangle (apex s, containing v).
    """
    (vx, vy), (tx, ty) = ctx.coords[v], ctx.coords[t]
    jv = kernels.cone_index(tx - vx, ty - vy, 6)
    if jv % 2 == 0:
        return None
    tri_new = canonical_triangle(_CS6, (tx, ty), (vx, vy))
    tri_step = canonical_triangle(_CS6, ctx.coords[s], (vx, vy))
    a_in = tri_step.contains(tri_new.corner_a)
    b_in = tri_step.contains(tri_new.corner_b)
    if a_in and not b_in:
        return "X1"
    if b_in and not a_in:
        return "X2"
    if _region_in_tri(ctx, v, t, jv, "X1", tri_new, tri_step):
        return "X1"
    if _region_in_tri(ctx, v, t, jv, "X2", tri_new, tri_step):
        return "X2"
    raise InternalInvariantViolation("no side region is contained in the step triangle")


def _region_in_tri(ctx, v, t, jv, which, tri_new, tri_step) -> bool:
    cone = (jv + 1) % 6 if which == "X1" else (jv - 1) % 6
    poly = _clip_wedge(tri_new.polygon(), ctx.coords[v], cone)
    if not poly:
        return True
    return all(tri_step.contains(p) for p in poly)


def _clip_wedge(poly, apex, cone):
    """Clip a polygon to the cone wedge (half-open, but treated closed here):
    to the inward side of its lo ray, then of its hi ray."""
    ax, ay = apex
    for inward in (_CS6.lo_inward, _CS6.hi_inward):
        f = [inward(cone, x - ax, y - ay) for x, y in poly]
        m = len(poly)
        out = []
        for i, p in enumerate(poly):
            q, fp, fq = poly[(i + 1) % m], f[i], f[(i + 1) % m]
            if fp >= 0.0:
                out.append(p)
            if (fp > 0.0 > fq) or (fp < 0.0 < fq):
                u = fp / (fp - fq)
                out.append((p[0] + u * (q[0] - p[0]), p[1] + u * (q[1] - p[1])))
        poly = out
    return poly


def _phi_positive(ctx, tri, t: int) -> float:
    da = _d(tri.corner_a, ctx.coords[t])
    db = _d(ctx.coords[t], tri.corner_b)
    return tri.size + max(da, db)


def _regions(ctx, s: int, t: int, j: int):
    """Frame of the negative decision at s, s's cone-j fan, its X0 members, and
    the positive edges of s into X1 and X2 (None where that region is empty)."""
    frame = _NegFrame(ctx, s, t, j)
    fan = ctx.fan(s, j)
    inside = [y for y in fan if frame.contains(ctx.coords[y])]
    e1 = _region_edge(ctx, frame, frame.cone_x1)
    e2 = _region_edge(ctx, frame, frame.cone_x2)
    return frame, fan, inside, e1, e2


def _decide_full(ctx, s: int, t: int, stateful: bool, preferred: str | None) -> _Decision:
    sx, sy = ctx.coords[s]
    tx, ty = ctx.coords[t]
    j = kernels.cone_index(tx - sx, ty - sy, 6)
    if j % 2 == 0:
        e = ctx.cone_edge[6 * s + j]
        if e < 0:
            raise InternalInvariantViolation(
                f"no positive-cone edge at {ctx.ids[s]} toward cone {j} containing the target"
            )
        v = ctx.nbr[e]
        tri = canonical_triangle(_CS6, (sx, sy), (tx, ty))
        if v != t and not tri.contains(ctx.coords[v]):
            raise InternalInvariantViolation("positive-cone edge leaves the target triangle")
        new_pref = preferred
        if stateful and v != t:
            new_pref = _initial_preferred(ctx, s, v, t)
        return _Decision("A", v, new_pref, _phi_positive(ctx, tri, t))

    frame, fan, inside, e1, e2 = _regions(ctx, s, t, j)
    lsize = frame.tri.size
    dab = _d(frame.a, frame.b)

    if not stateful:
        if e1 is None and e2 is None:
            if not inside:
                raise InternalInvariantViolation("all three regions empty before arrival")
            pick = inside[-1] if frame.dist_sa >= frame.dist_sb else inside[0]
            return _Decision("B", pick, None, lsize + min(frame.dist_sa, frame.dist_sb))
        if e1 is not None and e2 is not None:
            phi = lsize + dab + min(frame.dist_sa, frame.dist_sb)
            if inside:
                return _Decision("D", inside[0], None, phi)
            if frame.dist_sa < frame.dist_sb:
                return _Decision("D", e1, None, phi)
            return _Decision("D", e2, None, phi)
        # exactly one side region is occupied
        if e1 is not None:
            x_corner = frame.a
            pick = inside[0] if inside else e1
        else:
            x_corner = frame.b
            pick = inside[-1] if inside else e2
        return _Decision("C", pick, None, lsize + _d(frame.s_xy, x_corner))

    # stateful engine
    if preferred is None:
        phi = lsize + dab + min(frame.dist_sa, frame.dist_sb)
        if inside:
            pick = _walk_fan_to_region(ctx, frame, fan, inside, ctx.fan_nearest(s, j))
            return _Decision("B", pick, None, phi)
        smaller, larger = ("X1", "X2") if frame.dist_sa < frame.dist_sb else ("X2", "X1")
        e_small = e1 if smaller == "X1" else e2
        if e_small is not None:
            return _Decision("B", e_small, None, phi)
        e_large = e1 if larger == "X1" else e2
        if e_large is None:
            raise InternalInvariantViolation("both side regions empty with no members behind the target")
        return _Decision("B", e_large, smaller, phi)

    x_corner = frame.b if preferred == "X1" else frame.a
    phi = lsize + _d(frame.s_xy, x_corner)
    if inside:
        pick = inside[-1] if preferred == "X1" else inside[0]
        return _Decision("C", pick, preferred, phi)
    e_np = e2 if preferred == "X1" else e1
    if e_np is None:
        raise InternalInvariantViolation("non-preferred region empty in the memorising case")
    return _Decision("C", e_np, preferred, phi)


def classify_case(g: SpannerGraph, s: int, t: int) -> dict:
    """Describe the stateless decision at s toward t without moving."""
    ctx, si, ti = _check_graph(g, ("half_theta6",), s, t)
    sx, sy = ctx.coords[si]
    tx, ty = ctx.coords[ti]
    j = kernels.cone_index(tx - sx, ty - sy, 6)
    if j % 2 == 0:
        return {"case": "A", "cone": j, "positive": True}
    _, _, inside, e1, e2 = _regions(ctx, si, ti, j)
    if e1 is None and e2 is None:
        case = "B"
    elif e1 is not None and e2 is not None:
        case = "D"
    else:
        case = "C"
    return {
        "case": case,
        "cone": j,
        "positive": False,
        "x0_nonempty": bool(inside),
        "x1_nonempty": e1 is not None,
        "x2_nonempty": e2 is not None,
    }


def potential(
    g: SpannerGraph,
    s: int,
    t: int,
    *,
    algorithm: str = "stateless",
    preferred: str | None = None,
) -> PotentialValue:
    """Potential of the current routing state; drops to zero exactly at arrival."""
    if algorithm not in ("stateless", "stateful"):
        raise InvalidParameter(f"unknown algorithm {algorithm!r}")
    if preferred not in (None, "X1", "X2"):
        raise InvalidParameter(f"preferred must be None, 'X1' or 'X2', got {preferred!r}")
    try:
        ctx, si, ti = _check_graph(g, ("half_theta6",), s, t)
    except AlreadyArrived:
        return PotentialValue("arrived", 0.0)
    d = _decide_full(ctx, si, ti, algorithm == "stateful", preferred)
    return PotentialValue(d.case, d.phi)


def _route_full(g: SpannerGraph, source: int, target: int, stateful: bool) -> RoutingTrace:
    ctx, s, t = _check_graph(g, ("half_theta6",), source, target)
    ids = ctx.ids
    name = "stateful" if stateful else "stateless"
    base, _ = base_bound(g, source, target)
    trace = RoutingTrace(algorithm=name, source=ids[s], target=ids[t],
                         bound=ROUTING_FACTORS[name] * base)
    visited = {s}
    dec = _decide_full(ctx, s, t, stateful, None)
    while True:
        nxt = dec.nxt
        step_len = _d(ctx.coords[s], ctx.coords[nxt])
        if nxt == t:
            phi_after = 0.0
        else:
            if nxt in visited:
                raise InternalInvariantViolation(f"routing revisited vertex {ids[nxt]}")
            nd = _decide_full(ctx, nxt, t, stateful, dec.preferred)
            phi_after = nd.phi
        trace.steps.append(RoutingStep(ids[s], ids[nxt], dec.case, dec.phi, phi_after, step_len))
        trace.total_path_length += step_len
        if nxt == t:
            break
        visited.add(nxt)
        s = nxt
        dec = nd
    trace.passed = trace.total_path_length <= trace.bound + _PAY_EPS
    return trace


def route_stateless(g: SpannerGraph, source: int, target: int) -> RoutingTrace:
    """Memoryless routing on the half-theta-6 graph."""
    return _route_full(g, source, target, stateful=False)


def route_stateful(g: SpannerGraph, source: int, target: int) -> RoutingTrace:
    """Routing on the half-theta-6 graph carrying one remembered side."""
    return _route_full(g, source, target, stateful=True)


# ---------------------------------------------------------------------------
# Local engines on the bounded-degree subgraphs.
# ---------------------------------------------------------------------------


class _Arrived(Exception):
    """Internal signal: a traversal walked onto the destination.

    ``travelled`` is the productive leg that ended on the target;
    ``exploration`` is round-trip travel already burned beforehand.
    """

    def __init__(self, travelled: float, exploration: float = 0.0):
        self.travelled = travelled
        self.exploration = exploration


def _flank(ctx, u: int, cone: int, side: str):
    """Edge of u angularly closest to positive `cone` on the given side, other
    than u's own edge in that cone, as (neighbour, length); None if u has none."""
    lo, hi = _CS6.lo[cone], _CS6.hi[cone]
    own = ctx.cone_edge[6 * u + cone]
    az = ctx.az
    best, best_gap = -1, math.inf
    for p in range(ctx.indptr[u], ctx.indptr[u + 1]):
        if p == own:
            continue
        if side == "cw":
            gap = (az[p] - hi) % kernels.TWO_PI
        else:
            gap = (lo - az[p]) % kernels.TWO_PI
        if gap < best_gap:
            best, best_gap = p, gap
    if best < 0:
        return None
    return ctx.nbr[best], ctx.length[best]


def _walk_side(ctx, start: int, cone: int, side: str, budget: float, target: int):
    """Walk flank edges on one side of `cone` until an edge into the cone appears.

    Returns (walked, hit, exhausted): `hit` is (x, v, |xv|) when vertex x with
    a cone edge to v was reached, else None; `exhausted` means the walk ran
    out of flank edges (or looped) before spending the budget.
    """
    cur = start
    walked = 0.0
    seen = {start}
    while True:
        fl = _flank(ctx, cur, cone, side)
        if fl is None:
            return walked, None, True
        nbr, ln = fl
        if walked + ln > budget * (1.0 + 1e-12):
            return walked, None, False
        cur = nbr
        walked += ln
        if cur == target:
            raise _Arrived(walked)
        if cur in seen:
            return walked, None, True
        seen.add(cur)
        e = ctx.cone_edge[6 * cur + cone]
        # A cone edge pointing back at the search origin cannot witness
        # progress (the origin is never its own cone target or a region
        # member), so walk past it instead of stopping.
        if e >= 0 and ctx.nbr[e] != start:
            return walked, (cur, ctx.nbr[e], ctx.length[e]), False


def _search_cone_edge(ctx, s: int, cone: int, target: int, cap: float | None):
    """Alternating doubling search for some vertex with an edge into `cone`.

    Returns (hit, walk_to_x, exploration): hit is (x, v, |xv|) or None when the
    capped search concluded no such vertex is reachable.  Exploration counts
    every out-and-back round trip; walk_to_x is the final productive leg.
    """
    first = {side: _flank(ctx, s, cone, side) for side in ("cw", "ccw")}
    usable = [side for side, fl in first.items() if fl is not None]
    if not usable:
        if cap is None:
            raise InternalInvariantViolation("cone-edge search has nowhere to start")
        return None, 0.0, 0.0
    # The shorter first flank starts; a tie goes to cw.
    side = min(usable, key=lambda sd: first[sd][1])
    budget = first[side][1]
    exploration = 0.0
    for _ in range(4 * len(ctx.ids) + 64):
        eff = budget if cap is None else min(budget, cap)
        try:
            walked, hit, exhausted = _walk_side(ctx, s, cone, side, eff, target)
        except _Arrived as arr:
            raise _Arrived(arr.travelled, exploration)
        if hit is not None:
            return hit, walked, exploration
        exploration += 2.0 * walked
        if exhausted or (cap is not None and eff >= cap):
            usable.remove(side)
        if not usable:
            if cap is None:
                raise InternalInvariantViolation("cone-edge search exhausted both sides")
            return None, 0.0, exploration
        other = "ccw" if side == "cw" else "cw"
        side = other if other in usable else side
        budget *= 2.0
    raise InternalInvariantViolation("cone-edge search failed to terminate")


def _hint_walk(hints, ctx, s: int, cone: int, target: int, cap: float | None):
    """Follow per-vertex direction hints until a vertex keeps its edge into `cone`.

    Returns (hit, walk_to_x, 0.0) like the doubling search, with no exploration;
    with a cap it returns (None, walked, 0.0) on failure, and None at once when
    s has no hint toward `cone`.
    """
    if cap is not None and hints.walk[6 * s + cone] is None:
        return None
    cur = s
    walked = 0.0
    guard = 0
    while True:
        guard += 1
        if guard > len(ctx.ids) + 2:
            raise InternalInvariantViolation("hint walk failed to terminate")
        e = ctx.cone_edge[6 * cur + cone]
        if e >= 0:
            return (cur, ctx.nbr[e], ctx.length[e]), walked, 0.0
        d = hints.walk[6 * cur + cone]
        if d is None or d == "self":
            raise InternalInvariantViolation(
                f"hint walk stranded at {ctx.ids[cur]}: direction missing and no cone-{cone} edge"
            )
        side = "ccw" if d == "ccw" else "cw"
        fl = _flank(ctx, cur, cone, side)
        if fl is None:
            raise InternalInvariantViolation("hint walk has no flank edge to follow")
        nbr, ln = fl
        if cap is not None and walked + ln > cap * (1.0 + 1e-12):
            return None, walked, 0.0
        cur = nbr
        walked += ln
        if cur == target:
            raise _Arrived(walked)


def _kept_fan_ends(ctx, s: int, j: int):
    # On g12, s's neighbours in cone j are exactly the kept first, closest and last.
    fan = ctx.fan(s, j)
    return (ctx.coords[fan[0]], ctx.coords[fan[-1]]) if fan else None


def _hint_fan_ends(hints, ctx, s: int, j: int):
    ends = hints.ends[6 * s + j]
    return (ctx.coords[ends[0]], ctx.coords[ends[1]]) if ends else None


@dataclass(frozen=True)
class _Local:
    """What a subgraph router knows locally; everything else is shared.

    find(ctx, s, cone, target, cap) reaches some vertex with an edge into the
    positive `cone` and returns (hit, walked, exploration) like
    _search_cone_edge, or None when a capped search cannot start.
    fan_ends(ctx, s, j) gives the (x, y) of the first and last member of s's
    half-theta-6 fan in odd cone j, or None for an empty fan.
    probe_slack multiplies the corner distance granted once per failed probe.
    """

    find: Callable
    fan_ends: Callable
    probe_slack: float


_G12_LOCAL = _Local(_search_cone_edge, _kept_fan_ends, 20.0)


def _g9_local(hints) -> _Local:
    return _Local(partial(_hint_walk, hints), partial(_hint_fan_ends, hints), 4.0)


def _route_sub(g: SpannerGraph, source: int, target: int, flavor: str) -> RoutingTrace:
    ctx, s, t = _check_graph(g, (flavor,), source, target)
    local = _g9_local(g.hint_table) if flavor == "g9" else _G12_LOCAL
    base, _ = base_bound(g, source, target)
    trace = RoutingTrace(algorithm=flavor, source=ctx.ids[s], target=ctx.ids[t],
                         bound=ROUTING_FACTORS[flavor] * base)
    preferred: str | None = None
    guard = 0
    while s != t:
        guard += 1
        if guard > 3 * len(ctx.ids):
            raise InternalInvariantViolation("subgraph routing exceeded its step budget")
        sx, sy = ctx.coords[s]
        tx, ty = ctx.coords[t]
        j = kernels.cone_index(tx - sx, ty - sy, 6)
        frame = _NegFrame(ctx, s, t, j) if j % 2 else None
        try:
            if frame is None:
                case = "A"
                s, preferred = _sub_positive(ctx, local, trace, s, t, j, preferred)
            elif preferred is None:
                case = "B"
                s, preferred = _sub_case_b(ctx, local, trace, frame, t)
            else:
                case = "C"
                s = _sub_case_c(ctx, local, trace, frame, t, preferred)
        except _Arrived as arr:
            # A walk stepped onto the target: the step from s ends the route.
            _record(ctx, trace, s, t, case, arr.travelled, arr.exploration)
            s = t
    trace.passed = (trace.total_path_length + trace.exploration_travel
                    <= trace.bound + _PAY_EPS)
    return trace


def _realize_positive(ctx, local: _Local, s, cone, target):
    """Reach the half-theta-6 positive-cone target of s using subgraph edges only.

    Returns (v, productive, exploration).  Raises _Arrived if the walk steps
    onto the destination.
    """
    direct = ctx.cone_edge[6 * s + cone]
    if direct >= 0:
        return ctx.nbr[direct], ctx.length[direct], 0.0
    hit, walked, expl = local.find(ctx, s, cone, target, None)
    x, v, vlen = hit
    return v, walked + vlen, expl


def _sub_positive(ctx, local: _Local, trace, s, target, cone, preferred):
    v, productive, expl = _realize_positive(ctx, local, s, cone, target)
    _record(ctx, trace, s, v, "A", productive, expl)
    if v != target:
        preferred = _initial_preferred(ctx, s, v, target)
    return v, preferred


def _x0_exists(ctx, local: _Local, frame: _NegFrame) -> bool:
    """Whether X0 holds a fan member, decided from the two ends of s's fan."""
    ends = local.fan_ends(ctx, frame.s, frame.j)
    if ends is None:
        return False
    first_xy, last_xy = ends
    if frame.contains(first_xy) or frame.contains(last_xy):
        return True
    sf = frame.sliver(first_xy)
    sl = frame.sliver(last_xy)
    if sf == "S2" and sl == "S1":
        return True
    if sf == sl:
        return False
    raise InternalInvariantViolation("fan ends wrap around the region in the wrong order")


def _walk_region_landing(ctx, frame, target, start, pref_dir: str | None):
    """Walk fan edges from s's closest fan member to the intended landing in X0.

    Walking the "ccw" flank of the cone that contains the anchor moves to the
    next fan member in ascending azimuth around the anchor; "cw" descends.
    Phase one enters X0 when `start` sits in a sliver; phase two (only with a
    preferred direction) continues while the next fan vertex stays in X0.
    Returns (landing, walk_length).
    """
    anchor_cone = (frame.j + 3) % 6
    sx, sy = frame.s_xy

    def az_from_s(vid: int) -> float:
        px, py = ctx.coords[vid]
        return kernels.azimuth(px - sx, py - sy)

    # Fan members all sit in s's odd cone j, none of which straddles azimuth 0,
    # so plain comparisons track the fan order without wraparound care. Both
    # walks stop unless each step strictly advances, so neither can loop.
    def advances(side: str, cur_az: float, nxt_az: float) -> bool:
        return nxt_az > cur_az if side == "ccw" else nxt_az < cur_az

    cur = start
    cur_az = az_from_s(cur)
    walked = 0.0
    entered_via = None
    if not frame.contains(ctx.coords[cur]):
        # S2 members sit below the region in fan order, so ascend; S1 descends.
        side = "ccw" if frame.sliver(ctx.coords[cur]) == "S2" else "cw"
        entered_via = side
        while not frame.contains(ctx.coords[cur]):
            fl = _flank(ctx, cur, anchor_cone, side)
            if fl is None:
                raise InternalInvariantViolation("region entry walk ran off the fan")
            nbr, ln = fl
            nxt_az = az_from_s(nbr)
            if not advances(side, cur_az, nxt_az):
                raise InternalInvariantViolation("region entry walk left the fan order")
            cur = nbr
            cur_az = nxt_az
            walked += ln
            if cur == target:
                raise _Arrived(walked)
    if pref_dir is None or (entered_via is not None and pref_dir != entered_via):
        return cur, walked
    while True:
        fl = _flank(ctx, cur, anchor_cone, pref_dir)
        if fl is None:
            return cur, walked
        nxt_az = az_from_s(fl[0])
        if not _in_region(ctx, frame, frame.j, fl[0]) or not advances(pref_dir, cur_az, nxt_az):
            return cur, walked
        cur = fl[0]
        cur_az = nxt_az
        walked += fl[1]
        if cur == target:
            raise _Arrived(walked)


def _in_region(ctx, frame: _NegFrame, cone: int, v: int) -> bool:
    vx, vy = ctx.coords[v]
    sx, sy = frame.s_xy
    return (kernels.cone_index(vx - sx, vy - sy, 6) == cone
            and frame.contains((vx, vy)))


def _record(ctx, trace, s, v, case, productive, expl=0.0):
    trace.steps.append(RoutingStep(ctx.ids[s], ctx.ids[v], case, 0.0, 0.0, productive, expl))
    trace.total_path_length += productive
    trace.exploration_travel += expl


def _follow_region_walk(ctx, trace, frame, target, case, pref_dir):
    """Follow the closest fan edge, then walk within X0 to the landing vertex."""
    s = frame.s
    closest = ctx.fan_nearest(s, frame.j)
    hop = _d(ctx.coords[s], ctx.coords[closest])
    if closest == target:
        _record(ctx, trace, s, target, case, hop)
        return target
    try:
        landing, walked = _walk_region_landing(ctx, frame, target, closest, pref_dir)
    except _Arrived as arr:
        raise _Arrived(hop + arr.travelled)
    _record(ctx, trace, s, landing, case, hop + walked)
    return landing


def _probe_smaller_side(ctx, local: _Local, trace, frame: _NegFrame, target,
                        c_sm: int, corner_sm) -> int | None:
    """Rule-4 probe of the smaller empty-candidate side region.

    Returns the next vertex when the region turned out nonempty, else None
    after charging exploration and the one-time slack for a failed capped
    search; a search that cannot start charges nothing.  Raises _Arrived if
    the search steps onto the destination.
    """
    s = frame.s
    corner_dist = _d(frame.s_xy, corner_sm)

    direct = ctx.cone_edge[6 * s + c_sm]
    if direct >= 0:
        v = ctx.nbr[direct]
        if _in_region(ctx, frame, c_sm, v):
            _record(ctx, trace, s, v, "B", ctx.length[direct])
            return v
        return None

    found = local.find(ctx, s, c_sm, target, 2.0 * corner_dist)
    if found is None:
        return None
    hit, walked, expl = found
    if hit is not None:
        x, v, vlen = hit
        if v != s and (v == target or _in_region(ctx, frame, c_sm, v)):
            _record(ctx, trace, s, v, "B", walked + vlen, expl)
            return v
    trace.exploration_travel += expl + 2.0 * walked
    slack = local.probe_slack * corner_dist
    trace.probe_slack += slack
    trace.bound += slack
    return None


def _sub_case_b(ctx, local: _Local, trace, frame: _NegFrame, target):
    s = frame.s
    if _x0_exists(ctx, local, frame):
        return _follow_region_walk(ctx, trace, frame, target, "B", None), None

    if frame.dist_sa < frame.dist_sb:
        smaller, c_sm, corner_sm = "X1", frame.cone_x1, frame.a
        c_lg = frame.cone_x2
    else:
        smaller, c_sm, corner_sm = "X2", frame.cone_x2, frame.b
        c_lg = frame.cone_x1

    nxt = _probe_smaller_side(ctx, local, trace, frame, target, c_sm, corner_sm)
    if nxt is not None:
        return nxt, None

    # smaller side confirmed empty: take the larger side's edge, remember the smaller
    v, productive, expl = _realize_positive(ctx, local, s, c_lg, target)
    if v != target and not frame.contains(ctx.coords[v]):
        raise InternalInvariantViolation("larger-side edge leaves the triangle")
    _record(ctx, trace, s, v, "B", productive, expl)
    return v, smaller


def _sub_case_c(ctx, local: _Local, trace, frame: _NegFrame, target, preferred):
    s = frame.s
    if _x0_exists(ctx, local, frame):
        pref_dir = "ccw" if preferred == "X1" else "cw"
        return _follow_region_walk(ctx, trace, frame, target, "C", pref_dir)
    c_np = frame.cone_x2 if preferred == "X1" else frame.cone_x1
    v, productive, expl = _realize_positive(ctx, local, s, c_np, target)
    if v != target and not frame.contains(ctx.coords[v]):
        raise InternalInvariantViolation("non-preferred edge leaves the triangle")
    _record(ctx, trace, s, v, "C", productive, expl)
    return v


def route_g12(g: SpannerGraph, source: int, target: int) -> RoutingTrace:
    """Local routing on the degree-12 subgraph."""
    return _route_sub(g, source, target, "g12")


def route_g9(g: SpannerGraph, source: int, target: int) -> RoutingTrace:
    """Local routing on the degree-9 subgraph, driven by its construction hints."""
    return _route_sub(g, source, target, "g9")

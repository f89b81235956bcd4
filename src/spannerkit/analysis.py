"""Measurement and certification: exact spanning ratios, named ratio bounds,
short-path witnesses for theta-5, degree-bounded approximation checks, and the
generators for the adversarial lower-bound instances.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, field
from itertools import product
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .build import SpannerGraph, _cone_picks, _half_theta6_cones, build_half_theta6, build_theta
from .errors import InternalInvariantViolation, InvalidParameter
from .geometry import (
    _CHECK_BLOCK,
    _CHECK_SLACK,
    EPS,
    ConeSystem,
    PointSet,
    _as_count,
    _as_id,
    _as_real,
    _dump_json,
    angle_alpha,
    canonical_triangle,
    direction,
)

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

#: Per-call length factor of the theta-5 witness recursion, 2*(2+sqrt(5)).
THETA5_WITNESS_FACTOR = 2.0 * (2.0 + math.sqrt(5.0))


def bound_value(name: str, *, k: int | None = None, m: int | None = None, alpha: float | None = None) -> float:
    """Known spanning/routing ratio bounds by name.

    theta, yao        1/(1 - 2 sin(pi/k)) for k >= 7
    yao_odd           1/(1 - 2 sin(3 pi/(4k))) for odd k >= 5
    yao5              2 + sqrt(3) (Barba et al., "New and improved spanning
                      ratios for Yao graphs", JoCG 2015)
    theta4            17 (Barba, Bose, De Carufel, van Renssen & Verdonschot,
                      "On the stretch factor of the Theta-4 graph", WADS 2013)
    half_theta6       2
    theta5            sqrt(50 + 22 sqrt(5))
    theta5_lower      (11 sqrt(5) - 17)/2
    rotated_union     sqrt(3) cos(pi/(6m)) + sin(pi/(6m))
    pair_alpha        sqrt(3) cos(alpha) + sin(alpha)
    routing_negative  (5/sqrt(3)) cos(alpha) - sin(alpha)

    k and m, when given, must be integers (not bools), and alpha a finite real.
    """
    for label, value in (("k", k), ("m", m)):
        if value is not None and _as_id(value) is None:
            raise InvalidParameter(f"bound {name!r}: {label} must be an integer, got {value!r}")
    if alpha is not None:
        alpha = _as_real(alpha, f"bound {name!r}: alpha must be finite (a real number)")
    if name in ("theta", "yao"):
        if k is None or k < 7:
            raise InvalidParameter(f"bound {name!r} requires k >= 7, got {k!r}")
        return 1.0 / (1.0 - 2.0 * math.sin(math.pi / k))
    if name == "yao_odd":
        if k is None or k < 5 or k % 2 == 0:
            raise InvalidParameter(f"bound 'yao_odd' requires odd k >= 5, got {k!r}")
        return 1.0 / (1.0 - 2.0 * math.sin(3.0 * math.pi / (4.0 * k)))
    if name == "yao5":
        return 2.0 + math.sqrt(3.0)
    if name == "theta4":
        return 17.0
    if name == "half_theta6":
        return 2.0
    if name == "theta5":
        return math.sqrt(50.0 + 22.0 * math.sqrt(5.0))
    if name == "theta5_lower":
        return (11.0 * math.sqrt(5.0) - 17.0) / 2.0
    if name == "rotated_union":
        if m is None or m < 1:
            raise InvalidParameter(f"bound 'rotated_union' requires m >= 1, got {m!r}")
        return math.sqrt(3.0) * math.cos(math.pi / (6.0 * m)) + math.sin(math.pi / (6.0 * m))
    if name == "pair_alpha":
        if alpha is None:
            raise InvalidParameter("bound 'pair_alpha' requires alpha")
        return math.sqrt(3.0) * math.cos(alpha) + math.sin(alpha)
    if name == "routing_negative":
        if alpha is None:
            raise InvalidParameter("bound 'routing_negative' requires alpha")
        return 5.0 / math.sqrt(3.0) * math.cos(alpha) - math.sin(alpha)
    raise InvalidParameter(f"unknown bound name {name!r}")


@dataclass
class RatioReport:
    max_ratio: float
    witness: tuple[int, int] | None
    bound: float | None = None
    bound_name: str | None = None
    passed: bool | None = None
    per_pair: list[dict] | None = field(default=None, repr=False)

    def to_json(self) -> str:
        obj: dict = {
            "max_ratio": _json_number(self.max_ratio),
            "witness": list(self.witness) if self.witness is not None else None,
        }
        if self.bound is not None:
            obj["bound"] = self.bound
            obj["bound_name"] = self.bound_name
            obj["pass"] = self.passed
        if self.per_pair is not None:
            obj["per_pair"] = list(map(_json_pair, self.per_pair))
        return _dump_json(obj)


def _json_number(value: float):
    """value, or "inf" or "nan" where JSON has no number for it."""
    return value if math.isfinite(value) else "nan" if math.isnan(value) else "inf"


def _json_pair(row: dict) -> dict:
    """A per-pair row with its non-finite floats named as _json_number names them."""
    if all(map(math.isfinite, (row["euclidean"], row["graph_distance"], row["ratio"]))):
        return row
    return {key: value if key in ("u", "v") else _json_number(value) for key, value in row.items()}


def spanning_ratio(g: SpannerGraph, per_pair: bool = False) -> RatioReport:
    """Exact spanning ratio: max over pairs of graph distance over Euclidean
    distance, both from math.hypot lengths. A disconnected graph has ratio inf.

    The witness is the first pair (u, v), u < v in id order, achieving the
    maximum in row-major order, i.e. the lexicographically smallest by ids.
    No ratio is NaN: PointSet keeps every math.hypot distance finite.

    Streams row blocks of at most _CHECK_BLOCK (source, target) elements, so
    memory beyond the graph is O(n * block) plus an m x n table of hub
    distances, m about 2 sqrt(n); with per_pair the returned table itself
    holds n(n-1)/2 rows, in the same order.

    Pairs that cannot reach the maximum are certified away before Dijkstra
    runs from them. The hubs are one vertex per occupied cell of a
    ceil(sqrt(m)) x ceil(sqrt(m)) grid over the bounding box, the one nearest
    the cell's centre. One Dijkstra from all of them gives their exact
    distances D(h, .), each vertex v its nearest hub h(v), and, as the best
    exact ratio of a hub and a later vertex, a lower bound on the maximum. By
    the triangle inequality d(u, v) is at most

        U(u, v) = min(D(h(u), u) + D(h(u), v), D(h(v), u) + D(h(v), v)).

    Each distance is a float sum of at most n - 1 lengths, so U is scaled by
    1 + (n + 1) 2^-52, which covers the rounding of all three sums. A pair is
    dropped when U over its Euclidean distance is below the best ratio known
    so far less a relative _CHECK_SLACK; every other pair is kept, and each
    source runs Dijkstra only up to the largest U of its kept pairs. Pruning
    is off (every pair kept, no limit) with per_pair and on a disconnected
    graph (some hub distance is inf); but a graph with an inf distance from
    vertex 0 is decided from that row alone (_disconnected_ratio).
    """
    if len(g.points) < 2:
        return RatioReport(1.0, None)
    ids, x, y = g.points.arrays
    n = len(ids)
    mat = _length_matrix(g)
    best = -math.inf
    witness = None
    table = [] if per_pair else None
    step = max(1, _CHECK_BLOCK // n)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        hubs = None if per_pair else _hub_bounds(mat, x, y)
        if hubs is None and not per_pair:
            report = _disconnected_ratio(mat, ids, x, y)
            if report is not None:
                return report
        # The last row has no pair (j > i) left.
        for lo in range(0, n - 1, step):
            hi = min(n - 1, lo + step)
            # Pairs (i, j) with i = lo + r and j = lo + 1 + c > i.
            dx = x[lo + 1 :] - x[lo:hi, None]
            dy = y[lo + 1 :] - y[lo:hi, None]
            if hubs is None:
                up = np.full(dx.shape, np.inf)
                keep = np.ones(dx.shape, dtype=bool)
            else:
                up = hubs.upper(lo, hi)
                keep = hubs.kept(up, dx, dy, best)
            keep[:, : hi - lo] &= ~np.tri(hi - lo, k=-1, dtype=bool)
            # Row-major order, as the witness rule needs.
            r, c = np.divmod(np.flatnonzero(keep), n - lo - 1)
            # Each row's Dijkstra limit: the largest U of its kept pairs, -1
            # where none is kept.
            limit = np.full(hi - lo, -1.0)
            first = np.flatnonzero(np.diff(r, prepend=-1))
            limit[r[first]] = np.maximum.reduceat(up[r, c], first)
            d = _limited_rows(mat, lo, limit)[r, lo + 1 + c]
            if hubs is not None and not np.isfinite(d).all():
                raise InternalInvariantViolation("a pair kept for the spanning ratio lies beyond its Dijkstra limit")
            dx = dx[r, c]
            dy = dy[r, c]
            c += lo + 1
            sel, euclid, ratios = _decided_ratios(d, dx, dy, best, per_pair)
            if sel.size:
                at = int(np.argmax(ratios))
                value = float(ratios[at])
                if value > best:
                    best = value
                    witness = (ids[lo + int(r[sel[at]])], ids[int(c[sel[at]])])
            if per_pair:
                table.extend(
                    {"u": ids[a], "v": ids[b], "graph_distance": gd, "euclidean": e, "ratio": q}
                    for a, b, gd, e, q in zip(
                        (lo + r).tolist(), c.tolist(), d.tolist(), euclid.tolist(), ratios.tolist()
                    )
                )
    return RatioReport(best, witness, per_pair=table)


def _decided_ratios(d, dx, dy, best: float, every: bool):
    """(sel, euclid, ratios) over pairs with graph distances d and coordinate
    differences dx, dy: the indices sel of the pairs decided with math.hypot
    (all of them with every), their math.hypot distances and their ratios.

    np.hypot is within an ulp of math.hypot for normal results, so a pair
    whose approximate ratio is below best, or the best approximate one, by a
    relative _CHECK_SLACK cannot reach the exact maximum. Every other pair,
    every non-finite ratio and every subnormal denominator (where an ulp is a
    large relative error) is decided with math.hypot.
    """
    if every:
        sel = np.arange(len(d))
    else:
        near = np.hypot(dx, dy)
        approx = d / near
        finite = approx[np.isfinite(approx)]
        top = max(best, float(finite.max())) if finite.size else best
        unclear = ~(approx < top * (1.0 - _CHECK_SLACK))
        sel = np.flatnonzero(unclear | (near < sys.float_info.min))
    euclid = np.array(list(map(math.hypot, dx[sel].tolist(), dy[sel].tolist())), dtype=np.float64)
    return sel, euclid, d[sel] / euclid


def _disconnected_ratio(mat: csr_matrix, ids, x, y) -> RatioReport | None:
    """spanning_ratio of a graph with an inf distance from vertex 0 (it is
    disconnected, or a path length overflows), from that one Dijkstra row;
    None for any other graph.

    Vertex 0 has an inf ratio to every vertex at an inf distance, and no
    ratio outranks inf; so the maximum and the witness of the all-pairs loop
    are those of row 0. The witness is vertex 0 and the first vertex at an
    inf distance, unless a finite graph distance over a subnormal one
    overflows to inf before it.
    """
    d = _csgraph_dijkstra(mat, directed=True, indices=0)
    if np.isfinite(d).all():
        return None
    sel, _, ratios = _decided_ratios(d[1:], x[1:] - x[0], y[1:] - y[0], -math.inf, False)
    at = int(np.argmax(ratios))
    return RatioReport(float(ratios[at]), (ids[0], ids[1 + int(sel[at])]))


@dataclass
class _HubBounds:
    """spanning_ratio's certificate: exact distances from the hubs and the
    upper bounds U they give (see spanning_ratio)."""

    dist: np.ndarray  # (m, n): one exact Dijkstra row per hub
    home: np.ndarray  # per vertex, the row of its nearest hub
    own: np.ndarray  # per vertex v, dist[home[v], v]
    low: float  # the best exact ratio of a pair (hub, later vertex)
    margin: float  # 1 + (n + 1) 2^-52

    def upper(self, lo: int, hi: int) -> np.ndarray:
        """margin * U(i, j) for i in [lo, hi) and j in [lo + 1, n)."""
        up = self.dist[self.home[lo:hi], lo + 1 :]
        up += self.own[lo:hi, None]
        across = self.dist[self.home[lo + 1 :], lo:hi]
        across += self.own[lo + 1 :, None]
        np.minimum(up, across.T, out=up)
        up *= self.margin
        return up

    def kept(self, up, dx, dy, best: float) -> np.ndarray:
        """Mask of the pairs that may reach the maximum: all but those with
        (up / t)^2 < dx^2 + dy^2, t being the best ratio known (the larger of
        best and low) less a relative _CHECK_SLACK and capped at the largest
        float (a larger ratio is inf). While dx^2 + dy^2 is a normal float
        both sides are within a few ulps, and an underflowing (up / t)^2 is
        below it anyway; pairs whose dx^2 + dy^2 is subnormal, zero or inf
        are kept."""
        t = min(max(self.low, best), sys.float_info.max) * (1.0 - _CHECK_SLACK)
        sq = dx * dx
        sq += dy * dy
        q = up / t
        q *= q
        return ~((q < sq) & (sq >= sys.float_info.min) & (sq < math.inf))


def _hub_bounds(mat: csr_matrix, x, y) -> _HubBounds | None:
    """spanning_ratio's hub certificate of the graph with length matrix mat
    on the points x, y; None where pruning is off."""
    n = len(x)
    side = math.ceil(math.sqrt(2.0 * math.sqrt(n)))
    cell = np.zeros(n, dtype=np.int64)
    off_centre = np.zeros(n)
    for coord in (x, y):
        start = float(coord.min())
        extent = float(coord.max()) - start
        at = (coord - start) / extent * side if extent > 0 else np.zeros(n)
        whole = np.minimum(np.floor(at), side - 1)
        cell = cell * side + whole.astype(np.int64)
        off_centre += (at - whole - 0.5) ** 2
    # The vertex nearest the centre of each occupied cell (the smaller index on ties).
    order = np.lexsort((off_centre, cell))
    hubs = order[np.unique(cell[order], return_index=True)[1]]
    dist = _csgraph_dijkstra(mat, directed=True, indices=hubs)
    if not math.isfinite(dist.max()):
        return None
    # The first row at each column's minimum (np.argmin over axis 0 would
    # copy the table).
    own = dist.min(axis=0)
    home = np.argmax(dist == own, axis=0)
    low = -math.inf
    step = max(1, _CHECK_BLOCK // n)
    for lo in range(0, len(hubs), step):
        # Pairs (h, v) with v > h: spanning_ratio reads their distance from
        # row h too, so these are exact ratios of pairs.
        src = hubs[lo : lo + step, None]
        later = np.arange(n) > src
        _, _, ratios = _decided_ratios(dist[lo : lo + step][later], (x - x[src])[later], (y - y[src])[later], low, False)
        if ratios.size:
            low = max(low, float(ratios.max()))
    return _HubBounds(dist, home, own, low, 1.0 + (n + 1) * 2.0**-52)


#: Sources whose Dijkstra limits are within this factor of each other share
#: one scipy call, whose limit is the largest of theirs.
_LIMIT_SPREAD = 1.25


def _limited_rows(mat: csr_matrix, lo: int, limit) -> np.ndarray:
    """Dijkstra rows from the vertex indices lo, lo + 1, ..., one per entry of
    limit: exact up to that limit (scipy's limit is inclusive) and inf beyond.
    A negative limit skips the row, which stays inf.

    Each vertex's final distance is the minimum of fl(d[u] + w) over its
    neighbours u: with positive weights a neighbour popped later cannot lower
    it, so relaxation order does not matter, and the row's entries up to its
    limit, whose minimising neighbours lie within it too, are bit-identical to
    an all-pairs run with directed=False.
    """
    out = np.full((len(limit), mat.shape[0]), np.inf)
    order = np.argsort(limit, kind="stable")
    sorted_limit = limit[order]
    start = int(np.searchsorted(sorted_limit, 0.0))
    while start < len(order):
        stop = int(np.searchsorted(sorted_limit, sorted_limit[start] * _LIMIT_SPREAD, side="right"))
        group = order[start:stop]
        out[group] = _csgraph_dijkstra(mat, directed=True, indices=lo + group, limit=float(sorted_limit[stop - 1]))
        start = stop
    return out


def _csgraph_dijkstra(mat: csr_matrix, directed: bool, indices, limit: float = np.inf) -> np.ndarray:
    """scipy.sparse.csgraph.dijkstra, imported at the first call: only the
    exact ratio needs scipy, so building, routing and file I/O never load it."""
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(mat, directed=directed, indices=indices, limit=limit)


def _length_matrix(g: SpannerGraph) -> csr_matrix:
    """Symmetric CSR of math.hypot edge lengths over sorted-id indices: the
    graph's own CSR. Its rows are in azimuth order, which Dijkstra's
    distances do not depend on (see spanning_ratio)."""
    from scipy.sparse import csr_matrix

    t = g._csr
    n = len(g.points)
    return csr_matrix((t.length, t.nbr, t.indptr), shape=(n, n))


def verify_bound(g: SpannerGraph, name: str | None = None, tolerance: float = 1e-9) -> RatioReport:
    """Measure the spanning ratio and compare against the named bound (default:
    the bound registered for the graph's kind). Raises InvalidParameter if the
    tolerance is not finite."""
    return _verify_bound(g, name, tolerance, per_pair=False)


def _verify_bound(g: SpannerGraph, name: str | None, tolerance: float, per_pair: bool) -> RatioReport:
    """verify_bound over one spanning_ratio(g, per_pair) computation."""
    _as_real(tolerance, "tolerance must be finite (a real number)")
    if name is None:
        name, kwargs = _default_bound(g)
    else:
        kwargs = {"k": g.k, "m": g.metadata.get("m") if name == "rotated_union" else None}
        kwargs = {k_: v for k_, v in kwargs.items() if v is not None}
    value = bound_value(name, **kwargs)
    report = spanning_ratio(g, per_pair=per_pair)
    report.bound = value
    report.bound_name = name
    report.passed = report.max_ratio <= value + tolerance
    return report


#: Bounds of the Theta and Yao graphs with k < 7 that have one.
_SMALL_K_BOUNDS = {("theta", 4): "theta4", ("theta", 5): "theta5", ("theta", 6): "half_theta6",
                   ("yao", 5): "yao5"}


def _default_bound(g: SpannerGraph):
    if g.kind == "half_theta6":
        return "half_theta6", {}
    if g.kind == "rotated_union":
        return "rotated_union", {"m": g.metadata.get("m")}
    if g.kind in ("theta", "yao"):
        if (g.kind, g.k) in _SMALL_K_BOUNDS:
            return _SMALL_K_BOUNDS[g.kind, g.k], {}
        if g.k < 7:
            raise InvalidParameter(
                f"no registered ratio bound for {g.kind} graphs with k = {g.k}: "
                f"bound '{g.kind}{g.k}' is missing"
            )
        return g.kind, {"k": g.k}
    raise InvalidParameter(f"no registered ratio bound for graph kind {g.kind!r}")


def _dijkstra(rows, source: int, allowed=None, stop: int | None = None):
    """Heap Dijkstra from vertex index source over rows (g._length_rows),
    entering only indices y with allowed[y] when allowed is given and halting
    once stop is popped. Returns (dist, parent) keyed by index; parent keeps
    the first relaxation that reached each vertex's final distance. Equal
    distances pop the smaller index, which is the smaller id."""
    dist = {source: 0.0}
    parent: dict[int, int] = {}
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, x = heapq.heappop(heap)
        if x == stop:
            break
        if x in done:
            continue
        done.add(x)
        for y, w in rows[x]:
            if allowed is not None and not allowed[y]:
                continue
            nd = d + w
            if nd < dist.get(y, math.inf):
                dist[y] = nd
                parent[y] = x
                heapq.heappush(heap, (nd, y))
    return dist, parent


def shortest_path(g: SpannerGraph, s: int, t: int) -> tuple[list[int], float]:
    """One shortest path from s to t, preferring smaller ids on ties.

    Returns (id sequence, length); raises InvalidParameter if s or t is not a
    vertex or t is unreachable from s (the graph is disconnected).
    """
    si, ti = g.points._vertex(s), g.points._vertex(t)
    rows = g._length_rows
    # Stop once s is popped: a vertex y not yet popped then has dist[y] >=
    # dist[s] >= dist[cur], tentative or final, so it passes the test
    # w + dist[y] == dist[cur] below only if w + dist[s] == dist[s] in floats
    # (an edge between near-duplicate points); otherwise the path is the one
    # a run over every vertex gives.
    dist, _ = _dijkstra(rows, ti, stop=si)
    if si not in dist:
        raise InvalidParameter(f"no path from {s} to {t}: the graph does not connect them")
    path = [si]
    cur = si
    while cur != ti:
        # Rows are in azimuth order: of the neighbours on a shortest path,
        # take the smallest index (id).
        nxt, here = len(rows), dist[cur]
        for y, w in rows[cur]:
            if y < nxt and y in dist and w + dist[y] == here:
                nxt = y
        if nxt == len(rows):
            raise InternalInvariantViolation("shortest-path reconstruction failed")
        path.append(nxt)
        cur = nxt
    ids = g.points.arrays[0]
    return [ids[i] for i in path], dist[si]


def _pair_triangle(g: SpannerGraph, i: int, j: int):
    """(cone system, apex, other, canonical triangle) of the pair of vertex
    indices i, j, for certification and the SVG route overlay. With 6 cones
    the apex sees the other in a positive cone, so both orders get one
    triangle."""
    cs = ConeSystem(g.k or 6)
    xy = g.points._coords
    if cs.k == 6 and cs.cone_of(xy[i], xy[j]) % 2 == 1:
        i, j = j, i
    return cs, i, j, canonical_triangle(cs, xy[i], xy[j])


def restricted_pair_check(
    h: SpannerGraph,
    u: int,
    w: int,
    bound: float | None = None,
    tolerance: float = 1e-9,
) -> dict:
    """Shortest path from u to w using only vertices inside the canonical
    triangle of (u, w), compared against the per-pair bound
    (sqrt(3) cos(alpha) + sin(alpha)) * |uw| by default.

    With 6 cones the pair's triangle has its apex at the endpoint that sees
    the other in a positive cone, so a pair given negative end first is
    certified from w and the path read backwards.

    Raises InvalidParameter if u or w is not a vertex, if u == w, or if the
    bound or the tolerance is not a finite real number (a bool is not one).
    Only half-theta-6 graphs guarantee a path inside every pair's triangle:
    on them its absence is a construction bug and raises
    InternalInvariantViolation; on any other kind it raises InvalidParameter.
    """
    _as_real(tolerance, "tolerance must be finite (a real number)")
    if bound is not None:
        _as_real(bound, "bound must be finite (a real number)")
    i, j = h.points._vertex(u), h.points._vertex(w)
    if i == j:
        raise InvalidParameter("pair check endpoints must differ")
    cs, a, b, tri = _pair_triangle(h, i, j)
    ids, xs, ys = h.points.arrays
    allowed = kernels.points_in_tri(xs, ys, *tri.apex, *tri.corner_a, *tri.corner_b, EPS).tolist()
    allowed[a] = allowed[b] = True
    dist, parent = _dijkstra(h._length_rows, a, allowed, b)
    if b not in dist:
        message = f"no path from {u} to {w} inside their canonical triangle"
        if h.kind == "half_theta6":
            raise InternalInvariantViolation(message)
        raise InvalidParameter(f"{message}: only half-theta-6 graphs guarantee one, not {h.kind} graphs")
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    if a == i:
        path.reverse()
    if bound is None:
        pa, pb = h.points._coords[a], h.points._coords[b]
        alpha = angle_alpha(cs, pa, pb)
        bound = bound_value("pair_alpha", alpha=alpha) * math.hypot(pb[0] - pa[0], pb[1] - pa[1])
    length = dist[b]
    return {"path": [ids[x] for x in path], "length": length, "bound": bound,
            "ok": length <= bound + tolerance}


def g9_approximation_check(h: SpannerGraph, g9: SpannerGraph, tolerance: float = 1e-9) -> tuple[bool, list[dict]]:
    """For every half-theta-6 edge (s, v) with v in a negative cone of s, verify
    the degree-9 subgraph keeps the approximation path (s -> fan-closest ->
    canonical path -> v), that its total length is at most 3|sv| and the
    canonical-path portion at most 2|sv|.

    Raises InvalidParameter unless h is a half-theta-6 graph and g9 its G9
    graph, or if the tolerance is not a finite real number."""
    _as_real(tolerance, "tolerance must be finite (a real number)")
    cones = _half_theta6_cones(h)
    if g9.kind != "g9":
        raise InvalidParameter(f"expected a g9 graph, got kind {g9.kind!r}")
    if h.points != g9.points:
        raise InvalidParameter("g9 is not over the points of h")
    ids, xy = cones.ids, cones.coords
    records = []
    ok = True
    for s, j in product(range(len(ids)), (1, 3, 5)):
        members = cones.fan(s, j)
        if not members:
            continue
        closest = cones.fan_nearest(s, j)
        for a, b in [(s, closest)] + list(zip(members, members[1:])):
            if not g9.has_edge(ids[a], ids[b]):
                what = "closest fan edge" if a == s else "fan path edge"
                raise InvalidParameter(f"{what} ({ids[a]}, {ids[b]}) missing: g9 is not the g9 graph of h")
        (sx, sy), (cx, cy) = xy[s], xy[closest]
        entry = math.hypot(cx - sx, cy - sy)
        ci = members.index(closest)
        # Path lengths along the fan in both directions from the closest.
        for vi, v in enumerate(members):
            lo, hi = (ci, vi) if ci <= vi else (vi, ci)
            walk = 0.0
            for a, b in zip(members[lo:hi], members[lo + 1 : hi + 1]):
                walk += math.hypot(xy[b][0] - xy[a][0], xy[b][1] - xy[a][1])
            edge_len = math.hypot(xy[v][0] - sx, xy[v][1] - sy)
            rec = {
                "s": ids[s],
                "v": ids[v],
                "edge": edge_len,
                "path": entry + walk,
                "canonical_portion": walk,
                "ok": entry + walk <= 3.0 * edge_len + tolerance
                and walk <= 2.0 * edge_len + tolerance,
            }
            ok = ok and rec["ok"]
            records.append(rec)
    return ok, records


# ---------------------------------------------------------------------------
# theta-5 short-path witness


def theta5_witness_path(g: SpannerGraph, u: int, w: int) -> list[int]:
    """Path from u to w in a theta-5 graph whose length is at most
    2(2+sqrt(5)) times the size of the canonical triangle of (u, w).

    Follows the constructive connectivity argument: recurse on a strictly
    easier pair and stitch construction edges. Cones are counted from the cone
    r of a that holds b, clockwise, or counter-clockwise when b lies left of
    that cone's bisector (the mirrored case). Every construction target is the
    cone scan's own pick, so one that is not an edge of g means g is not the
    theta-5 graph of its points.
    """
    if g.kind != "theta" or g.k != 5:
        raise InvalidParameter("witness paths require a theta graph with k=5")
    ends = g.points._vertex(u), g.points._vertex(w)
    if ends[0] == ends[1]:
        raise InvalidParameter("witness path endpoints must differ")
    cs = ConeSystem(5)
    ids, x, y = g.points.arrays
    xy = g.points._coords
    n = len(ids)
    budget = [n * (n - 1) // 2 + 2]

    def edge(a: int, b: int) -> bool:
        return g.has_edge(ids[a], ids[b])

    def target(a: int, c: int) -> int:
        """a's construction target in cone c: the scan's pick, which g must hold."""
        with np.errstate(over="ignore", invalid="ignore"):
            v = int(_cone_picks(x, y, np.array([a]), None, None, 5, True, [c])[0][0, 0])
        if v < 0 or not edge(a, v):
            raise InvalidParameter(f"g is not the theta-5 graph of its points: vertex {ids[a]} "
                                   f"lacks its edge in cone {c}")
        return v

    def rec(a: int, b: int) -> list[int]:
        budget[0] -= 1
        if budget[0] <= 0:
            raise InternalInvariantViolation("witness recursion exceeded its call budget")
        if edge(a, b):
            return [a, b]
        pa, pb = xy[a], xy[b]
        if angle_alpha(cs, pa, pb) < cs.theta / 4:
            # b's triangle of the reversed pair is strictly smaller: solve that
            # direction and read the path backwards.
            return list(reversed(rec(b, a)))
        r = cs.cone_of(pa, pb)
        sin_r, cos_r = cs.bisector_dir[r]
        turn = -1 if (pb[0] - pa[0]) * cos_r - (pb[1] - pa[1]) * sin_r < 0.0 else 1

        def rel(p: tuple[float, float], q: int) -> int:
            """Relative label of the cone of p that holds vertex q."""
            return turn * (kernels.cone_index(xy[q][0] - p[0], xy[q][1] - p[1], 5) - r) % 5

        v_w = target(b, (r + 3 * turn) % 5)
        cu = rel(pa, v_w)
        if cu in (0, 1, 2):
            return rec(a, v_w) + [b]
        if cu == 3:
            raise InternalInvariantViolation("cone target cannot be behind the source")
        # v_w lies in relative cone 4 of a.
        tri = canonical_triangle(cs, pa, pb)
        if rel(tri.corner_a if turn < 0 else tri.corner_b, v_w) == 3:
            return rec(a, v_w) + [b]
        v_u = target(a, r)
        cw_ = rel(xy[v_u], b)
        if cw_ in (4, 0):
            return [a] + rec(v_u, b)
        if cw_ != 1:
            raise InternalInvariantViolation("unexpected cone of the target around the helper")
        c_back = rel(pb, v_u)
        if c_back == 3:
            return [a] + rec(v_u, v_w) + [b]
        if c_back != 4:
            raise InternalInvariantViolation("unexpected cone of the helper around the target")
        shrink = (THETA5_WITNESS_FACTOR - 1.0) / THETA5_WITNESS_FACTOR
        if canonical_triangle(cs, pb, xy[v_u]).size <= shrink * tri.size:
            return [a] + list(reversed(rec(b, v_u)))
        if rel(xy[v_w], v_u) in (0, 1):
            return [a] + list(reversed(rec(v_w, v_u))) + [b]
        raise InternalInvariantViolation("exhausted witness case analysis")

    path = [ids[i] for i in rec(*ends)]
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            raise InternalInvariantViolation(f"witness path uses a non-edge ({a}, {b})")
    return path


def path_length(ps: PointSet, path: list[int]) -> float:
    pts = [ps._coords[ps._vertex(v)] for v in path]
    total = 0.0
    for pa, pb in zip(pts, pts[1:]):
        total += math.hypot(pb[0] - pa[0], pb[1] - pa[1])
    return total


# ---------------------------------------------------------------------------
# Lower-bound instance generators


def gen_circle(n: int, radius: float = 1.0) -> PointSet:
    """n points equally spaced on a circle, ids in angular order."""
    n = _as_count(n, 2, "circle needs an integer number of points")
    radius = _as_real(radius, "radius must be a positive real number", lambda r: 0.0 < r < math.inf)
    angles = [2.0 * math.pi * i / n for i in range(n)]
    return PointSet.from_pairs((radius * math.cos(ang), radius * math.sin(ang)) for ang in angles)


def gen_routing_lb(variant: str, alpha: float = 0.0, nudge: float = 1e-4) -> PointSet:
    """Adversarial instances for local routing on the half-theta-6 graph.

    positive:    route 0 -> 1; the detour through the blocker realizes
                 sqrt(3) cos(alpha) + sin(alpha) up to O(nudge).
    negative_a:  route 1 -> 0; a descent chain beside the left corner realizes
                 (5/sqrt(3)) cos(alpha) - sin(alpha) up to O(nudge).
    negative_b:  mirror of negative_a with the chain on the right corner; the
                 multiset of edge directions at vertex 1 is identical to
                 negative_a, so a local router cannot tell them apart.

    Ids: 0 = route endpoint u, 1 = apex w; blockers/chain follow.
    """
    if variant not in ("positive", "negative_a", "negative_b"):
        raise InvalidParameter(f"unknown routing lower-bound variant {variant!r}")
    alpha = _as_real(alpha, "alpha must be within [0, pi/6]", lambda a: 0.0 <= a <= math.pi / 6)
    nudge = _as_real(nudge, "nudge must be in (0, 1e-2]", lambda d: 0.0 < d <= 1e-2)
    if variant != "positive" and alpha > math.pi / 6 - 10.0 * nudge:
        # Within O(nudge) of pi/6 the apex slides onto the right blocker and
        # the intended edge set collapses.
        raise InvalidParameter(
            f"negative variants need alpha <= pi/6 - 10*nudge, got {alpha}"
        )
    s3 = math.sqrt(3.0)
    d = nudge
    a = (-0.5, s3 / 2)
    b = (0.5, s3 / 2)
    w = (s3 / 2 * math.tan(alpha), s3 / 2)
    pa = (a[0] + d * s3 / 2, a[1] - d * 0.5)
    pb = (b[0] - d * s3 / 2, b[1] - d * 0.5)
    if variant == "positive":
        ps = PointSet.from_pairs([(0.0, 0.0), w, pa])
        expected = {(0, 2), (1, 2)}
    elif variant == "negative_a":
        ps = PointSet.from_pairs([(0.0, 0.0), w, pa, pb, (-0.25 + d / 4, s3 / 4)])
        expected = {(0, 4), (2, 4), (1, 2), (1, 3), (2, 3)}
    else:
        ps = PointSet.from_pairs([(0.0, 0.0), w, pa, pb, (0.25 - d / 4, s3 / 4)])
        # Not a perfect mirror of negative_a: boundary ownership is chiral, so
        # the left blocker also links to the chain here. Vertex 1 still sees
        # the same edge directions as in negative_a.
        expected = {(0, 4), (3, 4), (1, 2), (1, 3), (2, 3), (2, 4)}
    h = build_half_theta6(ps)
    if alpha == 0.0:
        if h.edges != expected:
            raise InternalInvariantViolation(
                f"unexpected edge set for {variant}: {sorted(h.edges)}"
            )
    else:
        if not expected <= h.edges or h.has_edge(0, 1):
            raise InternalInvariantViolation(
                f"unexpected edge set for {variant} at alpha={alpha}: {sorted(h.edges)}"
            )
    return ps


# 0-based replay table for the 31-vertex theta-5 lower bound: at each step the
# vertices added (near which corner of whose canonical triangle) and the
# shortest 0 -> 1 path that must result.
_THETA5_LB_STEPS = [
    ([("corner", 0, 1, "ccw"), ("corner", 1, 0, "ccw")], [0, 3, 1]),
    ([("corner", 0, 3, "cw"), ("corner", 3, 0, "ccw")], [0, 2, 1]),
    ([("corner", 1, 2, "cw"), ("corner", 2, 1, "ccw")], [0, 5, 3, 1]),
    ([("corner", 0, 5, "cw"), ("corner", 5, 0, "ccw")], [0, 4, 3, 1]),
    ([("corner", 3, 4, "ccw"), ("corner", 4, 3, "cw")], [0, 4, 5, 3, 1]),
    ([("corner", 4, 5, "ccw"), ("corner", 5, 4, "cw")], [0, 4, 13, 5, 3, 1]),
    ([("corner", 4, 13, "ccw"), ("corner", 13, 4, "cw")], [0, 4, 12, 5, 3, 1]),
    ([("corner", 5, 12, "cw"), ("corner", 12, 5, "ccw")], [0, 2, 7, 1]),
    ([("lens", 1, 7)], [0, 2, 6, 1]),
    ([("corner", 2, 6, "ccw"), ("corner", 6, 2, "cw")], [0, 4, 11, 1]),
    ([("corner", 1, 11, "ccw")], [0, 9, 5, 3, 1]),
    ([("bridge", 9, 0)], [0, 4, 11, 3, 1]),
    ([("corner", 3, 11, "ccw"), ("corner", 11, 3, "cw")], [0, 4, 12, 13, 5, 3, 1]),
    ([("corner", 12, 13, "cw"), ("corner", 13, 12, "ccw")], [0, 8, 17, 5, 3, 1]),
    ([("corner", 8, 17, "cw"), ("corner", 17, 8, "ccw")], [0, 4, 15, 10, 3, 1]),
    ([("corner", 10, 15, "ccw"), ("corner", 15, 10, "cw")], [0, 22, 9, 5, 3, 1]),
]

#: Final shortest 0 -> 1 path of the completed 31-vertex instance.
THETA5_LB_FINAL_PATH = (0, 22, 9, 5, 3, 1)


def _step_paths() -> tuple[tuple[int, tuple[int, ...]], ...]:
    out = []
    count = 2
    for specs, expected in _THETA5_LB_STEPS:
        count += len(specs)
        out.append((count, tuple(expected)))
    return tuple(out)


#: (vertex count, expected shortest 0 -> 1 path) after each construction step,
#: for replaying the instance prefix by prefix.
THETA5_LB_STEP_PATHS = _step_paths()


def gen_theta5_lower_bound(nudge: float = 1e-4) -> PointSet:
    """31-point instance whose theta-5 spanning ratio approaches
    (11 sqrt(5) - 17)/2 as nudge -> 0.

    Built by repeatedly deleting the current shortest path's edges: each new
    vertex sits just inside a canonical triangle near one of its far corners,
    stealing the construction edge. After every step the shortest 0 -> 1 path
    is recomputed and checked against the expected one.
    """
    nudge = _as_real(nudge, "nudge must be in (0, 1e-3]", lambda d: 0.0 < d <= 1e-3)
    cs = ConeSystem(5)

    coords: list[tuple[float, float]] = [(0.0, 0.0)]

    def delta(idx: int) -> float:
        # Slightly deeper nudges for later vertices break the exact projection
        # ties between symmetric corner placements.
        return nudge * (1.0 + idx / 50.0)

    def near_corner(tri, which: str, idx: int) -> tuple[float, float]:
        c = tri.corner_a if which == "ccw" else tri.corner_b
        o = tri.corner_b if which == "ccw" else tri.corner_a
        bx, by = _unit_sum(tri.apex, c, o)
        return (c[0] + delta(idx) * bx, c[1] + delta(idx) * by)

    # Bootstrap: vertex 1 near the clockwise corner of an intended unit triangle.
    tri0_a, tri0_b = cs.lo_dir[0], cs.hi_dir[0]
    bx, by = _unit_sum((0.0, 0.0), tri0_b, tri0_a)
    coords.append((tri0_b[0] + delta(1) * bx, tri0_b[1] + delta(1) * by))

    def replay(expected: list[int]):
        ps = PointSet.from_pairs(coords)
        g = build_theta(ps, 5)
        try:
            got, _ = shortest_path(g, 0, 1)
        except InvalidParameter as exc:
            raise InternalInvariantViolation(f"lower-bound replay: {exc}") from exc
        if got != expected:
            raise InternalInvariantViolation(
                f"lower-bound replay mismatch after {len(coords)} vertices: "
                f"expected {expected}, got {got}"
            )
        return ps

    replay([0, 1])
    for specs, expected in _THETA5_LB_STEPS:
        for spec in specs:
            idx = len(coords)
            if spec[0] == "corner":
                _, apex, target, which = spec
                tri = canonical_triangle(cs, coords[apex], coords[target])
                coords.append(near_corner(tri, which, idx))
            elif spec[0] == "lens":
                _, p, q = spec
                t1 = canonical_triangle(cs, coords[p], coords[q])
                t2 = canonical_triangle(cs, coords[q], coords[p])
                coords.append(_lens_point(t1, t2, delta(idx)))
            else:  # bridge: blocks (start, far) while staying on the shortest path
                _, blocked, start = spec
                coords.append(_bridge_point(cs, coords[start], coords[blocked], nudge))
        ps = replay(expected)
    return ps


def _unit_sum(apex, corner, other) -> tuple[float, float]:
    """Unit inward bisector at a triangle corner."""
    ux, uy = _unit(apex[0] - corner[0], apex[1] - corner[1])
    vx, vy = _unit(other[0] - corner[0], other[1] - corner[1])
    return _unit(ux + vx, uy + vy)


def _unit(x: float, y: float) -> tuple[float, float]:
    n = math.hypot(x, y)
    if n == 0.0:
        raise InternalInvariantViolation("zero-length direction")
    return (x / n, y / n)


def _lens_point(t1, t2, eps: float) -> tuple[float, float]:
    """Point just inside both of two overlapping canonical triangles, next to
    the boundary crossing that maximizes the walk around their apex pair.

    The apexes are the blocked pair; a vertex here severs their edge while the
    replacement detour through it stays as long as the lens allows.
    """
    e1 = _tri_sides(t1)
    e2 = _tri_sides(t2)
    crossings = []
    for p1, p2 in e1:
        for q1, q2 in e2:
            x = _seg_intersection(p1, p2, q1, q2)
            if x is not None:
                crossings.append(x)
    if len(crossings) < 2:
        raise InternalInvariantViolation("expected two boundary crossings for lens placement")
    best = max(crossings, key=lambda x: math.dist(t1.apex, x) + math.dist(t2.apex, x))
    # Pull toward the apex chord's midpoint: it is interior to both triangles,
    # so a small step that way lands strictly inside the lens.
    mx = (t1.apex[0] + t2.apex[0]) / 2.0
    my = (t1.apex[1] + t2.apex[1]) / 2.0
    ux, uy = _unit(mx - best[0], my - best[1])
    return (best[0] + eps * ux, best[1] + eps * uy)


def _tri_sides(t):
    return [(t.apex, t.corner_a), (t.corner_a, t.corner_b), (t.corner_b, t.apex)]


def _seg_intersection(p1, p2, q1, q2, eps: float = 1e-9):
    rx, ry = p2[0] - p1[0], p2[1] - p1[1]
    sx, sy = q2[0] - q1[0], q2[1] - q1[1]
    den = rx * sy - ry * sx
    if abs(den) < 1e-15:
        return None
    qpx, qpy = q1[0] - p1[0], q1[1] - p1[1]
    t = (qpx * sy - qpy * sx) / den
    s = (qpx * ry - qpy * rx) / den
    if eps < t < 1.0 - eps and eps < s < 1.0 - eps:
        return (p1[0] + t * rx, p1[1] + t * ry)
    return None


def _bridge_point(cs: ConeSystem, start, blocked, nudge: float) -> tuple[float, float]:
    """Vertex blocking the (start, blocked) pair from both sides: it sits just
    inside the upper boundary of the blocked vertex's cone toward it, with the
    start vertex just inside the lower boundary of its own cone in return."""
    az1 = cs.theta / 2 + nudge  # from blocked: just below the cone-1 top boundary
    az2 = cs.theta * 1.5 - nudge + math.pi  # toward start: its reverse azimuth
    d1 = direction(az1)
    d2 = direction(az2)
    den = d1[0] * (-d2[1]) - d1[1] * (-d2[0])
    if abs(den) < 1e-15:
        raise InternalInvariantViolation("bridge rays are parallel")
    ex = start[0] - blocked[0]
    ey = start[1] - blocked[1]
    t = (ex * (-d2[1]) - ey * (-d2[0])) / den
    return (blocked[0] + t * d1[0], blocked[1] + t * d1[1])

"""Spanner construction: Yao and theta graphs, the half-theta-6 graph and its
degree-bounded subgraphs, rotated unions, and the Euclidean MST.

All constructions break ties deterministically: theta-style choices by
(projection, distance, id), Yao-style by (distance, id), MST edge order by
(weight, id, id).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import InternalInvariantViolation, InvalidParameter
from .geometry import (
    _CHECK_SLACK,
    ConeSystem,
    PointSet,
    _as_coord,
    _as_count,
    _as_id,
    _json_id,
    _json_ids,
    _json_text,
    _parse_json,
    _points_from_records,
    _table,
)

#: Bitmask of the even ("positive") cones of a 6-cone system.
_POSITIVE_MASK_6 = 0b010101
#: The cone count each kind built in a fixed cone system has (None: the MST
#: has none); Theta and Yao graphs need some k, and other kinds take any.
_KIND_K = {"half_theta6": 6, "g12": 6, "g9": 6, "rotated_union": 6, "mst": None}

#: Labels within this many radians of a cone boundary are decided again by
#: kernels.cone_index: its ANGLE_EPS, plus _CHECK_SLACK for the few ulps (about
#: 1e-15) between _cone_labels and the kernel. No labelled point lies farther outside.
_ANGLE_SLACK = kernels.ANGLE_EPS + _CHECK_SLACK
#: Cells from a point's own cell to the edge of its candidate block, per pass
#: of the grid scan (see cone_scan).
_REACHES = (2, 4)
#: Inputs with fewer than _GRID_MIN_N * max(1, k / _GRID_MIN_K) points skip
#: the grid: its fixed cost of about 60 small numpy calls, and for many cones
#: its k sorts, exceed the full scan's (see cone_scan).
_GRID_MIN_N = 200
_GRID_MIN_K = 12
#: Rows whose candidate block holds more than this share of the points skip
#: the grid pass (see cone_scan).
_DENSE_SHARE = 0.25
#: (row, candidate) entries per block of the cone scan: 96 KB arrays, below
#: glibc's 128 KB mmap threshold, so blocks reuse their pages. At 65,536 a
#: 4096-point circle scan took 300,000 page faults (800 now) and 1.4-2x the time.
_SCAN_BLOCK = 12288


class SpannerGraph:
    """Undirected geometric graph over a PointSet.

    kind identifies the construction; k is the cone count (None for the MST);
    metadata carries construction-specific extras (rotation count, routing hints).

    The graph stores its edges once: a sorted, duplicate-free (m, 2) array of
    index pairs (i < j) into the point set's ``arrays`` order, whose float64
    x and y columns every view reads (the cone table and the routers through
    the set's one list of (x, y) tuples, ``_coords``). Only indices enter
    arrays, so ids may be any Python ints; every id a method takes is
    resolved by the point set (PointSet._vertex). The edge set is frozen, and
    every view of it is built on first use and kept for the life of the graph:
    - ``edges`` (a frozenset of id pairs) and edge_list();
    - one CSR of the edge ends in (source, azimuth, neighbour id) order, with
      each end's neighbour, azimuth (kernels.azimuth) and math.hypot length,
      behind neighbors(), degree(), the spanning ratio and the analysis
      Dijkstra's per-index (neighbour, length) rows;
    - on half_theta6, g12 and g9 graphs ``cone_table``, the one index-based
      fan table of the routers and of build_g12 and build_g9, plus
      ``hint_table`` on g9 graphs.
    max_degree() counts the array's entries and builds no view.

    A g9's hints live only in its hint table (a made or loaded g9 parses
    its raw hints on first use): to_json writes them from it, == compares
    tables, and each read of ``metadata`` makes a new dict from it.
    """

    def __init__(self, kind: str, k, points: PointSet, edges, metadata=None):
        if not isinstance(points, PointSet):
            raise InvalidParameter(f"graph points must be a PointSet, got {type(points).__name__}")
        try:
            ends = [w for u, v in edges for w in (u, v)]
        except (TypeError, ValueError) as exc:
            raise InvalidParameter(f"edges must be (u, v) pairs of vertex ids: {exc}") from exc
        ids = list(map(_as_id, ends))
        if None in ids:
            raise InvalidParameter(f"{ends[ids.index(None)]!r} is not a vertex id")
        self._setup(kind, k, points, _index_ends(points, ids), metadata)

    @classmethod
    def _indexed(cls, kind: str, k, points: PointSet, ends, metadata=None, hints=None) -> "SpannerGraph":
        """Graph whose edges are given as pairs of indices into
        ``points.arrays`` order, in any order and orientation. A built g9
        passes its _HintTable as hints, and no metadata."""
        g = cls.__new__(cls)
        g._setup(kind, k, points, ends, metadata, hints)
        return g

    def _setup(self, kind, k, points, ends, metadata, hints=None) -> None:
        """The one header rule of built and loaded graphs: kind is a str,
        metadata a dict (None: none), a g9's exactly {"hints": <dict>} unless
        build_g9 passes its table as hints, and k as _kind_k allows."""
        if not isinstance(kind, str):
            raise InvalidParameter(f"graph kind must be a string, got {kind!r}")
        metadata = {} if metadata is None else metadata
        if not isinstance(metadata, dict):
            raise InvalidParameter(f"graph metadata must be a dict, got {metadata!r}")
        if kind == "g9" and hints is None and (list(metadata) != ["hints"] or not isinstance(metadata["hints"], dict)):
            raise InvalidParameter("graph lacks the construction hints required for g9 routing")
        self.kind = kind
        self.k = _kind_k(kind, k)
        self.points = points
        self._ends = _edge_array(points, ends)
        if kind != "g9":
            self._metadata = metadata
        elif hints is None:
            self._raw_hints = metadata["hints"]
        else:
            self.hint_table = hints

    @property
    def metadata(self) -> dict:
        """Construction-specific extras as the graph was made with them; a
        g9's {"hints": ...} dict is made anew from its hint table."""
        if self.kind == "g9":
            return _parse_json(self.hint_table.to_json(self.points), "g9 hints")
        return self._metadata

    @cached_property
    def _id_pairs(self) -> tuple[tuple[int, int], ...]:
        """The edges as id pairs (u < v), in ascending order."""
        ids = self.points.arrays[0]
        a, b = self._ends.T.tolist()
        return tuple(zip(map(ids.__getitem__, a), map(ids.__getitem__, b)))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._id_pairs)

    @cached_property
    def _lengths(self) -> np.ndarray:
        """math.hypot length of every edge, in edge array order."""
        _, x, y = self.points.arrays
        a, b = self._ends.T
        dx, dy = x[b] - x[a], y[b] - y[a]
        return np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), np.float64, len(a))

    @cached_property
    def _csr(self) -> "_Csr":
        """Both ends of every edge, rows by source in (azimuth, neighbour id)
        order."""
        ids, x, y = self.points.arrays
        n, m = len(ids), len(self._ends)
        a, b = self._ends.T
        src = np.concatenate((a, b))
        nbr = np.concatenate((b, a))
        dx, dy = x[nbr] - x[src], y[nbr] - y[src]
        # kernels.azimuth: math.atan2 per entry, then its wrap as the same
        # IEEE operations in numpy (a sum that rounds up to TWO_PI is 0.0).
        az = np.fromiter(map(math.atan2, dx.tolist(), dy.tolist()), np.float64, 2 * m)
        az = np.where(az < 0.0, az + kernels.TWO_PI, az)
        az[az >= kernels.TWO_PI] = 0.0
        order = np.lexsort((nbr, az, src))
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        edge = np.concatenate((np.arange(m), np.arange(m)))[order]
        csr = _Csr(indptr, src[order], nbr[order], edge, az[order], self._lengths[edge])
        for column in csr:
            column.flags.writeable = False
        return csr

    @cached_property
    def _length_rows(self) -> list[list[tuple[int, float]]]:
        """Per vertex index, its (neighbour index, edge length) pairs in CSR
        row order: the adjacency of the analysis Dijkstra."""
        t = self._csr
        pairs = list(zip(t.nbr.tolist(), t.length.tolist()))
        bounds = t.indptr.tolist()
        return [pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    @cached_property
    def cone_table(self) -> "_ConeTable":
        """Positive-cone edges and odd-cone fans; for half_theta6, g12 and g9 graphs."""
        return _ConeTable(self)

    @cached_property
    def hint_table(self) -> "_HintTable":
        """A g9's routing hints: build_g9's table, or its raw hints parsed,
        which are dropped only once they pass, so a failed parse repeats."""
        table = _HintTable.parse(self._raw_hints, self.points)
        del self._raw_hints
        return table

    def edge_list(self) -> list[tuple[int, int]]:
        return list(self._id_pairs)

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and u in self.points and v in self.points and _norm_edge(u, v) in self.edges

    def neighbors(self, u: int) -> list[int]:
        """Neighbour ids sorted by ascending azimuth (clockwise from north) around u."""
        t = self._csr
        i = self.points._vertex(u)
        ids = self.points.arrays[0]
        return list(map(ids.__getitem__, t.nbr[t.indptr[i]:t.indptr[i + 1]].tolist()))

    def degree(self, u: int) -> int:
        i = self.points._vertex(u)
        return int(self._csr.indptr[i + 1] - self._csr.indptr[i])

    def max_degree(self) -> int:
        if not len(self.points):
            return 0
        return int(np.bincount(self._ends.ravel(), minlength=len(self.points)).max())

    def total_weight(self) -> float:
        total = 0.0
        for w in self._lengths.tolist():
            total += w
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpannerGraph):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.k == other.k
            and self.points == other.points
            and np.array_equal(self._ends, other._ends)
            and (self.hint_table == other.hint_table if self.kind == "g9" else self._metadata == other._metadata)
        )

    def to_json(self) -> str:
        # The top-level keys in sorted order, as _dump_json writes them; the
        # points' text is the point set's own, and a g9's metadata its hint
        # table's.
        ids = np.array(self.points.arrays[0], dtype=object)
        return '{"edges":%s,"k":%s,"kind":%s,"metadata":%s,"points":%s}\n' % (
            _json_text(ids[self._ends].tolist()),
            _json_text(self.k),
            _json_text(self.kind),
            self.hint_table.to_json(self.points) if self.kind == "g9" else _json_text(self._metadata),
            self.points._records_json,
        )

    @classmethod
    def from_json(cls, text: str) -> "SpannerGraph":
        obj = _parse_json(text, "graph")
        try:
            pts = _points_from_records(obj["points"], "graph")
            ends = _index_ends(pts, _json_ids([w for u, v in obj["edges"] for w in (u, v)]))
            return cls._indexed(obj["kind"], obj["k"], pts, ends, obj.get("metadata"))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParameter(f"malformed graph JSON: {exc}") from exc


def _kind_k(kind: str, k):
    """k as a graph of this kind keeps it: None or ConeSystem(k).k, as _KIND_K asks."""
    k = None if k is None else ConeSystem(k).k
    if k != _KIND_K.get(kind, k) or k is None and kind in ("theta", "yao"):
        raise InvalidParameter(f"a {kind} graph cannot have k = {k!r}")
    return k


class _Csr(NamedTuple):
    """Both ends of every edge of a graph, by source: row i holds entries
    indptr[i]:indptr[i + 1]. Indices are in PointSet.arrays order."""

    indptr: np.ndarray
    src: np.ndarray
    nbr: np.ndarray
    #: Position of the entry's edge in the graph's edge array.
    edge: np.ndarray
    az: np.ndarray
    length: np.ndarray


def _index_ends(points: PointSet, ends: list[int]) -> np.ndarray:
    """The indices in points.arrays order of edge ends given as int ids
    [u0, v0, u1, v1, ...], as an (m, 2) array. A self loop, then an unknown
    id, raises InvalidParameter naming the smallest such edge."""
    index = points.index
    try:
        return np.fromiter(map(index.__getitem__, ends), np.intp, len(ends)).reshape(-1, 2)
    except KeyError:
        pass
    pairs = list(zip(ends[0::2], ends[1::2]))
    loops = [u for u, v in pairs if u == v]
    if loops:
        raise InvalidParameter(f"self loop at {min(loops)}")
    u, v = min(_norm_edge(u, v) for u, v in pairs if u not in index or v not in index)
    raise InvalidParameter(f"edge ({u}, {v}) references unknown point id")


def _edge_array(points: PointSet, ends) -> np.ndarray:
    """Index pairs as a read-only, sorted, duplicate-free (m, 2) array with
    i < j per row; a self loop raises InvalidParameter naming its point."""
    ends = np.asarray(ends, dtype=np.intp).reshape(-1, 2)
    n = len(points)
    lo = ends.min(axis=1)
    hi = ends.max(axis=1)
    loops = lo == hi
    if loops.any():
        raise InvalidParameter(f"self loop at {points.arrays[0][int(lo[loops].min())]}")
    # Sort and drop repeats; np.unique hashes first and costs 10x more here.
    key = np.sort(lo * n + hi)
    key = key[_run_starts(key)]
    out = np.stack((key // n, key % n), axis=1) if n else ends
    out.flags.writeable = False
    return out


def _run_starts(key) -> np.ndarray:
    """Mask of the positions where a sorted array's runs of equal values start."""
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    return first


class _ConeTable:
    """6-cone view of a half_theta6 graph or one of its subgraphs, read in
    bulk from the graph's CSR. Vertex i is index i of PointSet.arrays; the
    routers read lists, one entry per lookup:

    ids[i], coords[i]     id and (x, y) of vertex i: the point set's
                          arrays[0] and _coords, not copies
    indptr, nbr, az, length
                          the CSR: i's edge ends are entries indptr[i]:indptr[i + 1]
    cone_edge[6 * i + c]  entry of i's edge in even cone c, or -1
    cone_fan[6 * i + c]   i's fan group in odd cone c, or -1 (see fan(i, c))

    Fan group g holds i's neighbours in odd cone c (on half_theta6, the
    vertices whose cone edge targets i). Cone labels grow with azimuth and
    only cone 0 wraps past north, so a group is a range of i's row, entries
    fan_start[g]:fan_stop[g]; fan_closest[g] is its closest member's entry.
    These numpy arrays, with fan_src and fan_cone (the group's vertex and
    cone) and fan_entry (all members' entries), are what build_g12 and
    build_g9 read.

    Every edge must have exactly one endpoint that sees the other in an odd
    cone, and no vertex may have two edges in one even cone.
    """

    def __init__(self, g: SpannerGraph):
        ids, x, y = g.points.arrays
        t = g._csr
        dx, dy = x[t.nbr] - x[t.src], y[t.nbr] - y[t.src]
        cone = _cone_labels(dx, dy, 6)
        slot = t.src * 6 + cone

        even = np.flatnonzero(cone % 2 == 0)
        twice = np.flatnonzero(np.bincount(slot[even], minlength=6 * len(ids)) > 1)
        if twice.size:
            u, c = divmod(int(twice[0]), 6)
            raise InternalInvariantViolation(f"vertex {ids[u]} has two edges in positive cone {c}")
        # An edge is well formed when one end sees the other in a positive
        # cone and is, in turn, a member of that end's opposite fan.
        forward = t.src == g._ends[t.edge, 0]
        fwd = np.empty(len(g._ends), dtype=np.intp)
        rev = np.empty(len(g._ends), dtype=np.intp)
        fwd[t.edge[forward]] = cone[forward]
        rev[t.edge[~forward]] = cone[~forward]
        paired = (fwd % 2 == 0) & (rev == (fwd + 3) % 6)
        paired |= (rev % 2 == 0) & (fwd == (rev + 3) % 6)
        if not paired.all():
            a, b = g._ends[int(np.argmin(paired))].tolist()
            raise InternalInvariantViolation(
                f"edge ({ids[a]}, {ids[b]}) lacks a unique negative-side endpoint"
            )

        # In CSR order the odd entries are already grouped by (vertex, cone).
        odd = np.flatnonzero(cone % 2 == 1)
        key = slot[odd]
        first = np.flatnonzero(_run_starts(key))
        size = np.diff(np.append(first, len(odd)))
        # The closest member minimizes (projection onto the cone's bisector,
        # squared distance, index): dx * sin(bis) + dy * cos(bis) with the
        # cone system's sin and cos, the doubles of the scalar key.
        c = cone[odd]
        cs6 = ConeSystem(6)
        fdx, fdy = dx[odd], dy[odd]
        proj = fdx * cs6.sin_bisector[c] + fdy * cs6.cos_bisector[c]
        d2 = fdx * fdx + fdy * fdy
        group = np.repeat(np.arange(len(first)), size)
        closest = np.lexsort((t.nbr[odd], d2, proj, group))[first]
        self.fan_src, self.fan_cone = key[first] // 6, key[first] % 6
        self.fan_start, self.fan_stop = odd[first], odd[first] + size
        self.fan_closest, self.fan_entry = odd[closest], odd

        slots = np.full((2, 6 * len(ids)), -1, dtype=np.intp)
        slots[0, slot[even]] = even
        slots[1, key[first]] = np.arange(len(first))
        self.ids, self.coords = ids, g.points._coords
        self.indptr, self.nbr = t.indptr.tolist(), t.nbr.tolist()
        self.az, self.length = t.az.tolist(), t.length.tolist()
        self.cone_edge, self.cone_fan = slots.tolist()
        self._start, self._stop = self.fan_start.tolist(), self.fan_stop.tolist()
        self._closest = self.fan_closest.tolist()

    def fan(self, i: int, c: int) -> list[int]:
        """Vertex i's fan in odd cone c, by azimuth; empty when it has none."""
        g = self.cone_fan[6 * i + c]
        return self.nbr[self._start[g]:self._stop[g]] if g >= 0 else []

    def fan_nearest(self, i: int, c: int) -> int:
        """The closest member of vertex i's fan in odd cone c (see __init__)."""
        g = self.cone_fan[6 * i + c]
        if g < 0:
            raise InternalInvariantViolation("closest requested on an empty fan")
        return self.nbr[self._closest[g]]


@dataclass
class _HintTable:
    """A g9's routing hints as index lists, like the cone table's:
    walk[6 * i + c] is vertex i's walk direction ("self", "ccw" or "cw")
    toward even cone c, ends[6 * i + j] the (first, last) vertices of its fan
    in odd cone j, each None for none. build_g9 fills the lists from its fan
    arrays; parse reads them from a made or loaded g9's hints dict."""

    walk: list[str | None]
    ends: list[tuple[int, int] | None]

    @classmethod
    def parse(cls, raw: dict, points: PointSet) -> "_HintTable":
        """The table of a g9's "hints" dict (see to_json). An entry's key
        must be a vertex's id, and a fan end's [id, x, y] a vertex at exactly
        those coordinates; else InvalidParameter."""
        index, coords = points.index, points._coords
        walk: list[str | None] = [None] * (6 * len(coords))
        ends: list[tuple[int, int] | None] = [None] * (6 * len(coords))
        try:
            for key, entry in raw.items():
                i = index[int(key)]
                for c, d in entry.get("dir", {}).items():
                    if c not in ("0", "2", "4") or d not in ("self", "ccw", "cw"):
                        raise ValueError(f"walk {c!r}: {d!r} is not a walk direction in an even cone")
                    walk[6 * i + int(c)] = d
                for c, fan in entry.get("fan", {}).items():
                    (a, ax, ay), (b, bx, by) = fan["first"], fan["last"]
                    a, b = index[_json_id(a)], index[_json_id(b)]
                    if (c not in ("1", "3", "5") or coords[a] != (_as_coord(ax), _as_coord(ay))
                            or coords[b] != (_as_coord(bx), _as_coord(by))):
                        raise ValueError(f"fan {c!r}: {fan!r} is not two vertices at their coordinates in an odd cone")
                    ends[6 * i + int(c)] = (a, b)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidParameter(f"malformed g9 routing hints: {exc!r}") from exc
        return cls(walk, ends)

    def to_json(self, points: PointSet) -> str:
        """The metadata text of a g9 file, {"hints": {str(id): {"dir": {even
        cone: walk}, "fan": {odd cone: {"first": [id, x, y], "last": [id, x,
        y]}}}}} for every vertex with a walk or a fan, as _json_text writes
        it (sorted keys, no spaces), made from the lists without a dict."""
        end = points._id_xy_json
        # Per cone, every vertex's "cone":value text and a comma, or "".
        dirs = []
        for c in (0, 2, 4):
            text = {d: f'"{c}":"{d}",' for d in ("self", "ccw", "cw")}
            text[None] = ""
            dirs.append(list(map(text.__getitem__, self.walk[c::6])))
        fans = [[f'"{c}":{{"first":{end[p[0]]},"last":{end[p[1]]}}},' if p else "" for p in self.ends[c::6]]
                for c in (1, 3, 5)]
        texts = [f'"{pid}":{{"dir":{{{d[:-1]}}},"fan":{{{f[:-1]}}}}}'
                 for pid, d, f in zip(points.arrays[0], map("".join, zip(*dirs)), map("".join, zip(*fans)))
                 if d or f]
        # json.dumps sorts the keys as strings ("-1" < "10" < "2"), and so
        # does this sort: '"' sorts before every digit and "-".
        texts.sort()
        return '{"hints":{%s}}' % ",".join(texts)


def graph_to_json(g: SpannerGraph) -> str:
    return g.to_json()


def graph_from_json(text: str) -> SpannerGraph:
    return SpannerGraph.from_json(text)


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise InvalidParameter(f"self loop at {u}")
    return (u, v) if u < v else (v, u)


def cone_scan(xs, ys, k: int, use_projection: bool, cone_mask: int) -> list[tuple[int, int, int]]:
    """Closest-per-cone edge scan: grid candidates with certificates, and a
    numpy row-block scan for the rows they cannot settle.

    For every vertex u and every cone i (restricted to cone_mask bits when
    cone_mask is nonzero) return (u, i, v) where v minimises (projection,
    squared distance, index) when use_projection is true, else (squared
    distance, index); sorted by (u, i). Coordinates must be finite and their
    extents' diagonal at most 2**500, as PointSet guarantees, so no key
    overflows; k is checked as ConeSystem checks it. The reference is the
    scalar scan that visits every v in index order (oracle_cone_picks in
    tests/oracles.py).

    Bit identity with the scalar scan: dx, dy, d2 = dx*dx + dy*dy and the
    projection dx*sin(i*theta) + dy*cos(i*theta) are each computed as separate
    elementwise IEEE double operations in the same order as the kernels, with
    sin/cos of the bisectors from ConeSystem(k), so every key is the same
    double. Only the cone label comes from np.arctan2, a few ulps from libm's
    atan2 (_cone_labels), so every label within _ANGLE_SLACK (ANGLE_EPS +
    _CHECK_SLACK) of a boundary is decided again with kernels.cone_index.

    Winners (_cone_picks): every (point, candidate) entry belongs to the group
    of its point and cone. The point itself and the cones outside the mask
    are dropped before any key is formed. np.minimum.at gives each group's
    smallest first key; a second round among the entries at that key gives
    the smallest squared distance (Theta keys only), and a third the smallest
    index. np.bincount of the groups tells an empty cone. There is no pass
    per cone, so a row's cost does not grow with k.

    Candidates (_certified_rows): the points go into a uniform grid over their
    bounding box with max(2, k/3) points per square cell on average, so that a
    cone's share of a block holds about as many points for every k. A point's
    candidates are the points of the 5x5 block of cells around its own; rows
    left uncertified get a second pass with the 9x9 block. Every point outside
    the block lies at least rho away, rho being the distance to the nearest
    block side that is not on the grid's edge, less _CHECK_SLACK of the grid's
    extent (the cell offsets round by ulps of the extent). A labelled point
    lies at most _ANGLE_SLACK outside its geometric cone, so a cone's winner
    among the candidates is its winner among all points when
    - Yao: its squared distance is below rho**2 * (1 - _CHECK_SLACK);
    - Theta: its projection is below
      rho * cos(theta/2 + _ANGLE_SLACK) * (1 - _CHECK_SLACK). Theta cones of
      k = 2 are half-planes no block bounds, so those scans skip the grid.
    A cone without candidates is certified empty when, on the inward normals
    of its two boundary rays, no other point reaches the point's own values
    less 2 * _ANGLE_SLACK of the span, since every point is within sqrt(2)
    spans (_empty_cones). When the block is the whole grid, rho is infinite
    and every cone is certified. Bounds below the smallest normal float
    certify nothing, because subnormal rounding is absolute.

    The grid pays only where certificates are cheap, judged from the input:
    - inputs of fewer than _GRID_MIN_N * max(1, k / _GRID_MIN_K) points
      skip it: its fixed cost (k sorts and about 60 small numpy calls, 0.6-1
      ms at n = 64) exceeds the full scan's below about n = 160-200 on
      uniform points for half-Theta-6 and Yao-6 (200-256 for Theta-7, 320
      for Yao-12). With more cones a block holds more points (k / 3 per
      cell), and the crossover grows about as 20 k: about 500 points at k =
      24, 700 at 32, 1,250 at 64 and 2,000-2,500 at 128. _GRID_MIN_K = 12 is
      the divisor nearest those that leaves every k <= 12 at _GRID_MIN_N;
    - a row whose block holds more than _DENSE_SHARE of the points (it sits
      in a cluster) skips the pass, which would cost about a full row;
    - a pass that settles fewer than half of its rows ends the grid phase,
      as on a circle, whose inward cones have their winners across it.
    Rows with an uncertified cone go through the full row-block scan, whose
    rows share one candidate list (every point). Both phases pass flat entry
    lists of at most _SCAN_BLOCK entries to the same _cone_picks.

    No cKDTree: importing scipy.spatial, which loads scipy.sparse with it,
    raises the peak resident size by 34 MB over the package's own imports
    (31 to 65 MB), 76 % of the construct workload's 45 MB, and the grid
    answers the same queries.
    """
    us, cs, vs = _scan(xs, ys, ConeSystem(k).k, use_projection, cone_mask)
    return list(zip(us.tolist(), cs.tolist(), vs.tolist()))


def _scan(xs, ys, k: int, use_projection: bool, cone_mask: int):
    """cone_scan's (u, i, v) triples, as three index arrays."""
    n = len(xs)
    cones = [i for i in range(k) if not cone_mask or (cone_mask >> i) & 1]
    best = np.full((n, k), -1, dtype=np.intp)
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    rows = np.arange(n)
    if n >= _GRID_MIN_N * max(1, k / _GRID_MIN_K):
        rows = _certified_rows(x, y, k, use_projection, cones, best)
    step = max(1, _SCAN_BLOCK // max(n, 1))
    for lo in range(0, len(rows), step):
        r = rows[lo:lo + step]
        best[np.ix_(r, cones)] = _cone_picks(x, y, r, None, None, k, use_projection, cones)[0]
    us, cs = np.nonzero(best >= 0)
    return us, cs, best[us, cs]


def _scan_ends(xs, ys, k: int, use_projection: bool, cone_mask: int) -> np.ndarray:
    """The scan's (u, v) index pairs, as an (m, 2) array."""
    us, _, vs = _scan(xs, ys, k, use_projection, cone_mask)
    return np.stack((us, vs), axis=1)


def _cone_picks(x, y, rows, at, cand, k: int, use_projection: bool, cones):
    """Each cone's winner (-1: none) for every point of rows among its
    candidates, and its first key, as two (len(rows), len(cones)) arrays (see
    cone_scan). Entry e is candidate cand[e] of point rows[at[e]]; with at
    and cand None, every point is a candidate of every row.
    """
    u = rows[:, None] if at is None else rows[at]
    v = np.arange(len(x)) if at is None else cand
    dx, dy = x[v] - x[u], y[v] - y[u]
    label = _cone_labels(dx, dy, k)
    in_mask = np.zeros(k, dtype=bool)
    in_mask[cones] = True
    e = np.flatnonzero(in_mask[label] & (v != u))
    dx, dy, label = dx.ravel()[e], dy.ravel()[e], label.ravel()[e]
    at = e // len(x) if at is None else at[e]
    v = e - at * len(x) if cand is None else v[e]
    cs = ConeSystem(k)
    d2 = dx * dx + dy * dy
    key = dx * cs.sin_bisector[label] + dy * cs.cos_bisector[label] if use_projection else d2
    group = at * k + label
    keys = np.full(len(rows) * k, np.inf)
    np.minimum.at(keys, group, key)
    tied = key == keys[group]
    if use_projection:
        near = np.full(len(keys), np.inf)
        np.minimum.at(near, group[tied], d2[tied])
        tied &= d2 == near[group]
    picks = np.full(len(keys), np.iinfo(np.intp).max)
    np.minimum.at(picks, group[tied], v[tied])
    picks[np.bincount(group, minlength=len(keys)) == 0] = -1
    return picks.reshape(-1, k)[:, cones], keys.reshape(-1, k)[:, cones]


def _certified_rows(x, y, k: int, use_projection: bool, cones, best):
    """Decide every row whose grid candidates certify all its cones (see
    cone_scan), writing their winners into best; return the other rows."""
    n = len(x)
    if use_projection and k == 2:
        return np.arange(n)
    ox = x - x.min()
    oy = y - y.min()
    span_x, span_y = float(ox.max()), float(oy.max())
    # max(2, k/3) points per square cell on average, and at most n / 2
    # cells along a side.
    per_cell = max(2.0, k / 3.0)
    h = max(math.sqrt(per_cell / n) * math.sqrt(span_x) * math.sqrt(span_y),
            2.0 * max(span_x, span_y) / n)
    if not h > 0.0:  # all points coincide, or the spans are subnormal: one cell
        h = 1.0
    nx, ny = int(span_x / h) + 1, int(span_y / h) + 1
    cx = (ox / h).astype(np.intp)
    cy = (oy / h).astype(np.intp)
    # The cell offsets round by a few ulps of the grid's extent, not the cell's.
    margin = _CHECK_SLACK * max(nx, ny) * h
    empty = _empty_cones(ox, oy, k, cones)
    # Sorted by cell id, each row of cells is one contiguous range of the order.
    cell = cy * nx + cx
    order = np.argsort(cell, kind="stable")
    first = np.concatenate(([0], np.cumsum(np.bincount(cell, minlength=nx * ny))))

    todo, dense = order, []
    for reach in _REACHES:
        # Block of (2 * reach + 1)**2 cells around each row's own cell; each
        # cell row of a block is the range [start, start + size) of order.
        px, py = cx[todo], cy[todo]
        r = py[:, None] + np.arange(-reach, reach + 1)
        inside = (r >= 0) & (r < ny)
        r = np.where(inside, r, 0) * nx
        start = first[r + np.maximum(px - reach, 0)[:, None]]
        size = np.where(inside, first[r + np.minimum(px + reach, nx - 1)[:, None] + 1] - start, 0)
        total = size.sum(axis=1)
        # A row whose block holds more than _DENSE_SHARE of the points (it
        # sits in a cluster) would pay about the full scan's cost before
        # reaching it anyway: it goes there directly.
        sparse = total <= _DENSE_SHARE * n
        dense.append(todo[~sparse])
        todo, px, py, start, size, total = (a[sparse] for a in (todo, px, py, start, size, total))
        rho = np.full(len(todo), np.inf)
        for off, c, cells in ((ox[todo], px, nx), (oy[todo], py, ny)):
            rho = np.where(c - reach > 0, np.minimum(rho, off - (c - reach) * h), rho)
            rho = np.where(c + reach < cells - 1, np.minimum(rho, (c + reach + 1) * h - off), rho)
        whole = np.isinf(rho)
        rho -= margin
        # _ANGLE_SLACK widens the wedge; _CHECK_SLACK covers the keys' rounding.
        if use_projection:
            bound = rho * math.cos(ConeSystem(k).half + _ANGLE_SLACK) * (1.0 - _CHECK_SLACK)
        else:
            bound = rho * rho * (1.0 - _CHECK_SLACK)
        # Subnormal rounding is absolute, not relative: such bounds certify nothing.
        bound[bound < sys.float_info.min] = -np.inf

        # Runs of rows whose blocks hold at most _SCAN_BLOCK entries in
        # all (at least one row), each a flat list of (row, candidate) entries.
        settled = np.zeros(len(todo), dtype=bool)
        ends = np.cumsum(total)
        s0 = 0
        while s0 < len(todo):
            s1 = max(s0 + 1, int(np.searchsorted(ends, ends[s0] - total[s0] + _SCAN_BLOCK, side="right")))
            u = todo[s0:s1]
            sz = size[s0:s1].ravel()
            pos = np.arange(sz.sum()) + np.repeat(start[s0:s1].ravel() - (np.cumsum(sz) - sz), sz)
            row = np.repeat(np.arange(s1 - s0), total[s0:s1])
            picks, keys = _cone_picks(x, y, u, row, order[pos], k, use_projection, cones)
            sure = np.where(picks >= 0, keys < bound[s0:s1, None], empty[u])
            settled[s0:s1] = (sure | whole[s0:s1, None]).all(axis=1)
            best[np.ix_(u, cones)] = picks
            s0 = s1
        todo = todo[~settled]
        # When most rows fail, their winners lie far away (the inward cones
        # of a circle): a wider block would mostly fail too, at a higher cost.
        if 2 * settled.sum() < len(settled):
            break
    return np.concatenate(dense + [todo])


def _empty_cones(ox, oy, k: int, cones):
    """(n, len(cones)) mask of the cones certified to hold no other point,
    for points at non-negative offsets (ox, oy) from their bounding box.

    Point q lies in cone i of p only if both inward normals of the cone's
    boundary rays see q at least as far as p, up to a margin (for k >= 2 the
    cone is convex). Sorted by the first projection, p is certified when its
    predecessor is more than the margin below it and every later point is
    more than the margin below it on the second.
    """
    cs = ConeSystem(k)
    # q is at most _ANGLE_SLACK outside the cone, sqrt(2) * span from p; subnormals round absolutely.
    margin = 2.0 * _ANGLE_SLACK * max(float(ox.max()), float(oy.max())) + sys.float_info.min
    out = np.empty((len(ox), len(cones)), dtype=bool)
    for c, i in enumerate(cones):
        a = cs.lo_inward(i, ox, oy)
        b = cs.hi_inward(i, ox, oy)
        order = np.argsort(a, kind="stable")
        sa, sb = a[order], b[order]
        gap = np.concatenate(([np.inf], np.diff(sa)))
        later = np.concatenate((np.maximum.accumulate(sb[::-1])[::-1][1:], [-np.inf]))
        out[order, c] = (gap > margin) & (later < sb - margin)
    return out


def _cone_labels(dx, dy, k: int):
    """Cone index of every vector, as kernels.cone_index computes it: t =
    np.arctan2(dx, dy) / theta + k + 1/2 is the kernel's (az - theta/2) /
    theta + 1 plus whole turns, a few ulps of 2 * pi apart, and floor(t) mod
    k is its label unless t is within _ANGLE_SLACK / theta of an integer."""
    theta = ConeSystem(k).theta
    t = np.arctan2(dx, dy)
    t /= theta
    t += k + 0.5
    floor_t = np.floor(t)
    label = (np.arange(2 * k) % k)[floor_t.astype(np.intp)]
    t -= floor_t
    slack = _ANGLE_SLACK / theta
    near = np.flatnonzero((t <= slack) | (t >= 1.0 - slack))
    label.flat[near] = [kernels.cone_index(a, b, k) for a, b in zip(dx.flat[near].tolist(), dy.flat[near].tolist())]
    return label


def build_yao(ps: PointSet, k: int) -> SpannerGraph:
    """Yao graph: from every point, an edge to the Euclidean-closest point in
    each of its k cones."""
    k = ConeSystem(k).k
    _, xs, ys = ps.arrays
    return SpannerGraph._indexed("yao", k, ps, _scan_ends(xs, ys, k, False, 0))


def build_theta(ps: PointSet, k: int) -> SpannerGraph:
    """Theta graph: from every point, an edge to the projection-closest point
    (onto the cone bisector) in each of its k cones."""
    k = ConeSystem(k).k
    _, xs, ys = ps.arrays
    return SpannerGraph._indexed("theta", k, ps, _scan_ends(xs, ys, k, True, 0))


def build_half_theta6(ps: PointSet) -> SpannerGraph:
    """Half-theta-6 graph: theta edges built only in the three even cones."""
    _, xs, ys = ps.arrays
    ends = _scan_ends(xs, ys, 6, True, _POSITIVE_MASK_6)
    return SpannerGraph._indexed("half_theta6", 6, ps, ends)


@dataclass(frozen=True)
class CanonicalPathInfo:
    """Fan of a vertex's negative cone: the vertices whose construction edge
    targets the anchor, in ascending azimuth order around it."""

    anchor: int
    cone: int
    members: tuple[int, ...]
    closest: int | None
    first: int | None
    last: int | None

    def path_edges(self) -> list[tuple[int, int]]:
        return [(self.members[i], self.members[i + 1]) for i in range(len(self.members) - 1)]


def _half_theta6_cones(h: SpannerGraph) -> _ConeTable:
    if h.kind != "half_theta6":
        raise InvalidParameter(f"expected a half_theta6 graph, got kind {h.kind!r}")
    return h.cone_table


def canonical_path_info(h: SpannerGraph, anchor: int, cone: int) -> CanonicalPathInfo:
    if _as_id(cone) not in (1, 3, 5):
        raise InvalidParameter(f"fans live in the odd cones 1, 3 and 5, got cone {cone!r}")
    cones = _half_theta6_cones(h)
    i, cone = h.points._vertex(anchor), int(cone)
    members = tuple(map(cones.ids.__getitem__, cones.fan(i, cone)))
    if not members:
        return CanonicalPathInfo(cones.ids[i], cone, (), None, None, None)
    closest = cones.ids[cones.fan_nearest(i, cone)]
    return CanonicalPathInfo(cones.ids[i], cone, members, closest, members[0], members[-1])


def build_g12(h: SpannerGraph) -> SpannerGraph:
    """Degree-12 subgraph: in every negative cone of every vertex, keep only the
    first, last (by azimuth) and projection-closest fan edges."""
    cones = _half_theta6_cones(h)
    e = h._csr.edge
    kept = np.concatenate((e[cones.fan_start], e[cones.fan_stop - 1], e[cones.fan_closest]))
    return SpannerGraph._indexed("g12", 6, h.points, h._ends[kept])


def build_g9(h: SpannerGraph) -> SpannerGraph:
    """Degree-9 subgraph: keep the projection-closest fan edge per negative cone
    plus every edge between consecutive fan members, and store the per-vertex
    hints local routing needs (walk direction per positive cone, fan endpoint
    coordinates per negative cone).

    The hints are a _HintTable filled from h's fan arrays, correct by
    construction, and the graph's one store of them (see SpannerGraph)."""
    cones = _half_theta6_cones(h)
    t = h._csr
    ids = h.points.arrays[0]
    n = len(ids)
    group = np.repeat(np.arange(len(cones.fan_start)), cones.fan_stop - cones.fan_start)
    member = t.nbr[cones.fan_entry]
    # Consecutive members (member[i], member[i + 1]) of one fan must be
    # joined by an edge of h: look their keys up among h's sorted edge keys.
    i = np.flatnonzero(group[1:] == group[:-1])
    a, b = member[i], member[i + 1]
    pair_key = np.minimum(a, b) * n + np.maximum(a, b)
    edge_key = h._ends[:, 0] * n + h._ends[:, 1]
    at = np.minimum(np.searchsorted(edge_key, pair_key), len(edge_key) - 1)
    found = edge_key[at] == pair_key
    if not found.all():
        bad = int(np.argmin(found))
        s = cones.fan_src[group[i[bad]]]
        raise InternalInvariantViolation(
            f"consecutive fan members {ids[a[bad]]}, {ids[b[bad]]} of {ids[s]} are not adjacent"
        )
    kept = np.concatenate((t.edge[cones.fan_closest], at))

    # Toward the even cone opposite its fan's, the fan's closest member walks
    # "self", members before it by azimuth "ccw" and members after it "cw";
    # an anchor keeps its fan's first and last member per odd cone.
    side = np.sign(cones.fan_entry - cones.fan_closest[group]) + 2
    code = np.zeros(6 * n, dtype=np.intp)
    code[6 * member + (cones.fan_cone[group] + 3) % 6] = side
    walk = np.array([None, "ccw", "self", "cw"], dtype=object)[code].tolist()
    ends: list[tuple[int, int] | None] = [None] * (6 * n)
    for s, first, last in zip((6 * cones.fan_src + cones.fan_cone).tolist(),
                              t.nbr[cones.fan_start].tolist(), t.nbr[cones.fan_stop - 1].tolist()):
        ends[s] = (first, last)
    return SpannerGraph._indexed("g9", 6, h.points, h._ends[kept], hints=_HintTable(walk, ends))


def build_rotated_union(ps: PointSet, m: int) -> SpannerGraph:
    """Union of m half-theta-6 graphs, the j-th built in a frame rotated by
    j*pi/(3m). Each frame must pass _table's rules, or raises its error: a
    rotated coordinate can overflow (a point near 1.35e308), two subnormal
    points can round together, and a frame's diagonal can be sqrt(2) times
    the set's, so a set within sqrt(2) of the 2**500 bound can fail."""
    m = _as_count(m, 1, "rotation count must be an integer")
    ids, x, y = ps.arrays
    ends = []
    for j in range(m):
        phi = j * math.pi / (3 * m)
        c, s = math.cos(phi), math.sin(phi)
        with np.errstate(over="ignore", invalid="ignore"):
            rx = x * c - y * s
            ry = x * s + y * c
        _table(ids, rx, ry)
        ends.append(_scan_ends(rx, ry, 6, True, _POSITIVE_MASK_6))
    return SpannerGraph._indexed("rotated_union", 6, ps, np.concatenate(ends), {"m": m})


def build_mst(ps: PointSet) -> SpannerGraph:
    """Euclidean minimum spanning tree (Kruskal, ties by (weight, id, id))."""
    _, x, y = ps.arrays
    # Kruskal needs only the Yao-6 edges, which contain this tree (A. C. Yao,
    # SIAM J. Comput. 1982). Order all pairs by (d2, id, id), with d2 = dx * dx
    # + dy * dy, the same double cone_scan compares (x ** 2 can differ from
    # x * x in the last ulp); the tree is the set of pairs (p, q) joined by
    # no path of smaller pairs. If (p, q) is not a Yao-6 edge, p's pick r in
    # the cone holding q has (d2(p, r), r) < (d2(p, q), q), so the pair
    # (p, r) precedes (p, q) also when the distances tie. A cone is half-open
    # and 60 degrees wide, so the angle rpq is below 60 degrees and |rq|^2 <
    # |pr|^2 + |pq|^2 - |pr||pq| <= |pq|^2: the path p-r-q uses only smaller
    # pairs and (p, q) is not in the tree.
    # Indices follow id order, so (d2, index, index) is the same order.
    cand = _edge_array(ps, _scan_ends(x, y, 6, False, 0))
    a, b = cand.T
    dx, dy = x[b] - x[a], y[b] - y[a]
    order = np.lexsort((b, a, dx * dx + dy * dy))
    parent = list(range(len(ps)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for u, v in zip(a[order].tolist(), b[order].tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            edges.append((u, v))
            if len(edges) == len(ps) - 1:
                break
    return SpannerGraph._indexed("mst", None, ps, edges)

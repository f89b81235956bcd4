"""Planar primitives: point sets, cone systems, canonical triangles.

Angles are azimuths measured clockwise from the +y axis in [0, 2*pi).
Cone 0 of a k-cone system is centred on +y; labels increase clockwise; a
direction on a boundary belongs to the counter-clockwise (lower-index) cone.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .errors import DegenerateInput, InvalidParameter

#: Distance/angle tolerance used for all boundary ownership decisions.
EPS = 1e-9

#: Elements per block of the row-blocked numpy passes: the general-position
#: checks and the spanning ratio (a block holds at least one row).
_CHECK_BLOCK = 65536
#: Numpy filters hand a case to their exact path within this margin of its
#: threshold: general-position tests (relative above 1), spanning ratios and
#: the cone scan's certificates (relative), and cone labels (past ANGLE_EPS).
_CHECK_SLACK = 1e-12
#: The largest diagonal of a point set's x and y extents (see _table).
_MAX_DIAGONAL = 2.0**500


@dataclass(frozen=True)
class Point:
    id: int
    x: float
    y: float

    @property
    def xy(self) -> tuple[float, float]:
        return (self.x, self.y)


class PointSet:
    """Collection of points with unique ids and unique finite coordinates,
    whose x and y extents have a diagonal of at most _MAX_DIAGONAL = 2**500
    (see _table).

    The set is one table in ascending id order, ``arrays``: the ids, a tuple
    of int (_as_id), and the x and y columns, read-only float64 arrays
    (_as_coord). The input order is not kept: ids, iteration, equality and
    every reader follow the table. Every layer reads ``arrays`` or
    ``_coords``; Point objects are built only to iterate the set or look a
    point up.
    """

    arrays: tuple[tuple[int, ...], np.ndarray, np.ndarray]

    def __init__(self, points):
        try:
            pts = list(points)
            columns = [p.id for p in pts], [p.x for p in pts], [p.y for p in pts]
        except (AttributeError, TypeError) as exc:
            raise InvalidParameter(f"a point set takes an iterable of Points: {exc}") from exc
        self.arrays = _table(*columns)

    @classmethod
    def from_pairs(cls, pairs) -> "PointSet":
        """The set of the (x, y) pairs, with ids 0, 1, ... in order."""
        try:
            pairs = list(pairs)
            xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        except (TypeError, ValueError) as exc:
            raise InvalidParameter(f"a point set takes an iterable of (x, y) pairs: {exc}") from exc
        return cls._from_columns(range(len(pairs)), xs, ys)

    @classmethod
    def _from_columns(cls, ids, xs, ys) -> "PointSet":
        """The set of the given ids and float coordinates, checked by _table."""
        self = cls.__new__(cls)
        self.arrays = _table(ids, xs, ys)
        return self

    def __len__(self) -> int:
        return len(self.arrays[0])

    def __iter__(self):
        return iter(self._id_order)

    def __getitem__(self, pid: int) -> Point:
        i = self._position(pid)
        if i is None:
            raise KeyError(pid)
        return self._id_order[i]

    def __contains__(self, pid: int) -> bool:
        return self._position(pid) is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        (a, ax, ay), (b, bx, by) = self.arrays, other.arrays
        return a == b and np.array_equal(ax, bx) and np.array_equal(ay, by)

    @property
    def ids(self) -> list[int]:
        return list(self.arrays[0])

    @cached_property
    def _id_order(self) -> list[Point]:
        """The points in ``arrays`` order, for iteration and ps[id]."""
        ids, x, y = self.arrays
        return list(map(Point, ids, x.tolist(), y.tolist()))

    @cached_property
    def _coords(self) -> list[tuple[float, float]]:
        """The (x, y) of every point in ``arrays`` order."""
        _, x, y = self.arrays
        return list(zip(x.tolist(), y.tolist()))

    @cached_property
    def index(self) -> dict[int, int]:
        """Id -> position in ``arrays`` order."""
        return dict(zip(self.arrays[0], range(len(self))))

    def _position(self, pid) -> int | None:
        """pid's position in ``arrays`` order; None for no id of the set,
        and for a value that is no id at all (see _as_id): a bool or 1.0
        would otherwise find id 1."""
        pid = _as_id(pid)
        return None if pid is None else self.index.get(pid)

    def _vertex(self, pid) -> int:
        """pid's position in ``arrays`` order; InvalidParameter if pid is no
        id of the set."""
        i = self._position(pid)
        if i is None:
            raise InvalidParameter(f"vertex {pid!r} is not in the graph")
        return i

    @cached_property
    def _records_json(self) -> str:
        """JSON text of the point records in ascending id order: the "points"
        value of every graph file of the set, written once."""
        return _json_text(_point_records(*self.arrays))

    @cached_property
    def _id_xy_json(self) -> list[str]:
        """JSON text [id,x,y] of every point in ``arrays`` order, as
        _json_text writes the list (int and float repr): the fan ends of a
        g9 file's routing hints."""
        ids, x, y = self.arrays
        return list(map("[%d,%r,%r]".__mod__, zip(ids, x.tolist(), y.tolist())))


def _table(ids, xs, ys) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """A PointSet's table, sorted by id: the ids as a tuple of int and the
    read-only x and y columns (the converted input columns themselves when
    the ids ascend already, as in every generated set and graph file).

    As a loop over the points in input order would, the first point that
    breaks a rule raises the error of the first rule it breaks: its id is an
    id, its coordinates are coordinates and finite, and its id and its
    coordinates (-0.0 equals 0.0) are no earlier point's. Each rule marks all
    its offenders at once, the last rule first: a lexsort of the coordinates,
    a sort of the ids (none when they ascend), np.isfinite, an _as_id pass
    (none when every id is an int). Then the extents' math.hypot diagonal D
    must be at most _MAX_DIAGONAL = 2**500 (else DegenerateInput), so that no
    square, cross product or path length overflows: every coordinate
    difference is at most D, so dx*dx + dy*dy < 2**1001; a canonical
    triangle's corners lie within D / cos(pi / 6), about 1.2 D, of its apex
    at six cones (routing, pair certification), so every point_in_tri cross
    product there is below 2**1005; and a path of fewer than 2**500 edges is
    below 2**1000 long. No ratio is NaN, and only one over a subnormal
    distance can overflow.
    """
    ids = raw = list(ids)
    x, bad_x = _coordinates(xs)
    y, bad_y = _coordinates(ys)
    rule = np.full(len(ids), 5, dtype=np.int8)
    by_xy = np.lexsort((y, x))
    a, b = by_xy[:-1], by_xy[1:]
    rule[b[(x[a] == x[b]) & (y[a] == y[b])]] = 4
    if not set(map(type, ids)) <= {int}:
        ids = list(map(_as_id, ids))
    valid = ids.index(None) if None in ids else len(ids)
    order = None
    if not all(map(operator.lt, ids[:valid], ids[1:valid])):
        order = sorted(range(valid), key=ids.__getitem__)
        rule[[j for i, j in zip(order, order[1:]) if ids[i] == ids[j]]] = 3
    rule[~(np.isfinite(x) & np.isfinite(y))] = 2
    rule[bad_x + bad_y] = 1
    rule[valid:valid + 1] = 0
    broken = np.flatnonzero(rule < 5)
    if broken.size:
        p = int(broken[0])
        error, message = (
            (InvalidParameter, f"point id must be an integer, got {raw[p]!r}"),
            (InvalidParameter, f"point {ids[p]} coordinate must be a real number, got {(xs if p in bad_x else ys)[p]!r}"),
            (InvalidParameter, f"point {ids[p]} has a non-finite coordinate ({float(x[p])}, {float(y[p])})"),
            (DegenerateInput, f"duplicate point id {ids[p]}"),
            (DegenerateInput, f"duplicate coordinates for point {ids[p]}"),
        )[rule[p]]
        raise error(message)
    if len(ids) and not math.hypot(
            float(x.max()) - float(x.min()), float(y.max()) - float(y.min())) <= _MAX_DIAGONAL:
        raise DegenerateInput("coordinate differences overflow: the points' x and y extents have a diagonal above 2**500")
    if order is not None:
        ids, x, y = list(map(ids.__getitem__, order)), x[order], y[order]
    x.flags.writeable = y.flags.writeable = False
    return tuple(ids), x, y


def _coordinates(values) -> tuple[np.ndarray, list[int]]:
    """values as a float64 array, and the positions of those that are no
    coordinate (_as_coord), NaN in the array."""
    if isinstance(values, np.ndarray) or set(map(type, values)) <= {float}:
        return np.asarray(values, dtype=np.float64), []
    floats = list(map(_as_coord, values))
    return np.array(floats, dtype=np.float64), [i for i, v in enumerate(floats) if v is None]


def _as_coord(value) -> float | None:
    """value as a coordinate, or None if it is none: a real number that is
    not a bool and fits a float (numpy floats and Fractions included)."""
    if type(value) is float:
        return value
    try:
        return float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else None
    except OverflowError:
        return None


def _as_real(value, what: str, ok=math.isfinite) -> float:
    """A real-valued parameter as float by _as_coord's rule, if ok holds for it
    (a NaN tolerance or bound would fail every comparison); else
    InvalidParameter(f"{what}, got {value!r}")."""
    real = _as_coord(value)
    if real is None or not ok(real):
        raise InvalidParameter(f"{what}, got {value!r}")
    return real


def _as_id(value) -> int | None:
    """value as a vertex id, or None if it is none: an id is an integer that
    is not a bool, and a numpy integer comes back as int."""
    if type(value) is int:
        return value
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    return None


def _as_count(value, least: int, what: str) -> int:
    """value as an int >= least by _as_id's rule, or InvalidParameter."""
    count = _as_id(value)
    if count is None or count < least:
        raise InvalidParameter(f"{what} >= {least}, got {value!r}")
    return count


def direction(az: float) -> tuple[float, float]:
    """Unit vector at the given clockwise-from-north azimuth."""
    return (math.sin(az), math.cos(az))


#: The largest cone count: each k's tables are built at once and kept, about
#: 450 bytes per cone (2.1 MB at this k).
_MAX_CONES = 4096


class ConeSystem:
    """k equiangular cones around every point, cone 0 bisecting +y; the only
    place cone directions are computed. ConeSystem(k) checks k (at most
    _MAX_CONES) and returns the one instance for k, shared and read only:
    theta, half = theta/2, and per cone i the azimuths bisectors[i] =
    i*theta, lo[i] = i*theta - half and hi[i] = i*theta + half with libm's
    (sin, cos) in bisector_dir, lo_dir and hi_dir (the bisectors' also as
    read-only sin_bisector, cos_bisector)."""

    _by_k: dict[int, ConeSystem] = {}

    def __new__(cls, k: int):
        k = _as_count(k, 2, "cone count must be an integer")
        if k > _MAX_CONES:
            raise InvalidParameter(f"cone count must be at most {_MAX_CONES}, got {k}")
        self = cls._by_k.get(k)
        if self is None:
            self = cls._by_k[k] = super().__new__(cls)
            self.k = k
            self.theta = theta = kernels.TWO_PI / k
            self.half = half = theta / 2
            self.bisectors = tuple(i * theta for i in range(k))
            self.lo = tuple(b - half for b in self.bisectors)
            self.hi = tuple(b + half for b in self.bisectors)
            self.bisector_dir, self.lo_dir, self.hi_dir = (
                tuple(map(direction, angles)) for angles in (self.bisectors, self.lo, self.hi))
            self.sin_bisector, self.cos_bisector = (np.array(v, dtype=np.float64) for v in zip(*self.bisector_dir))
            self.sin_bisector.flags.writeable = self.cos_bisector.flags.writeable = False
        return self

    def __reduce__(self):
        return (ConeSystem, (self.k,))

    def project(self, i, dx, dy):
        """Projection of (dx, dy) onto cone i's bisector."""
        s, c = self.bisector_dir[i]
        return dx * s + dy * c

    def lo_inward(self, i, dx, dy):
        """(dx, dy) on the inward normal of cone i's lo ray (hi_inward: hi's)."""
        s, c = self.lo_dir[i]
        return dx * c - dy * s

    def hi_inward(self, i, dx, dy):
        s, c = self.hi_dir[i]
        return dy * s - dx * c

    def azimuth(self, u, v) -> float:
        """Azimuth of v as seen from u (points or (x, y) pairs)."""
        ux, uy = _xy(u)
        vx, vy = _xy(v)
        return kernels.azimuth(vx - ux, vy - uy)

    def cone_of(self, u, v) -> int:
        ux, uy = _xy(u)
        vx, vy = _xy(v)
        if vx == ux and vy == uy:
            raise DegenerateInput("cone of a zero vector is undefined")
        return kernels.cone_index(vx - ux, vy - uy, self.k)

    def bisector(self, i: int) -> float:
        return self.bisectors[i % self.k]

    def boundary_azimuths(self) -> list[float]:
        """The clockwise boundary (hi ray) of every cone, in [0, 2*pi)."""
        return list(self.hi)


def theta_projection(cs: ConeSystem, u, v) -> float:
    """Projection of the vector u->v onto the bisector of its own cone."""
    ux, uy = _xy(u)
    vx, vy = _xy(v)
    dx, dy = vx - ux, vy - uy
    return cs.project(kernels.cone_index(dx, dy, cs.k), dx, dy)


def angle_alpha(cs: ConeSystem, u, v) -> float:
    """Unsigned angle between u->v and the bisector of the cone containing it,
    in [0, theta/2]."""
    az = cs.azimuth(u, v)
    i = cs.cone_of(u, v)
    d = az - cs.bisector(i)
    if d > math.pi:
        d -= 2 * math.pi
    elif d < -math.pi:
        d += 2 * math.pi
    return abs(d)


@dataclass(frozen=True)
class CanonicalTriangle:
    """Isoceles triangle with apex u whose wedge is u's cone containing w and
    whose far side passes through w (perpendicular to the bisector).

    corner_a is the counter-clockwise (lower azimuth) corner, corner_b the
    clockwise one; size is the apex-to-corner distance.
    """

    apex: tuple[float, float]
    cone: int
    k: int
    projection: float
    size: float
    corner_a: tuple[float, float]
    corner_b: tuple[float, float]

    @property
    def midpoint_m(self) -> tuple[float, float]:
        """Foot of the target's projection on the bisector (midpoint of the far side)."""
        dx, dy = ConeSystem(self.k).bisector_dir[self.cone]
        return (self.apex[0] + self.projection * dx, self.apex[1] + self.projection * dy)

    @property
    def balance_x(self) -> tuple[float, float]:
        """Point on the far side where the triangle of the pair (apex, x) and the
        reverse triangle of (x, apex) have equal size."""
        cs = ConeSystem(self.k)
        r = self.projection / math.cos(cs.theta / 4)
        dx, dy = direction(cs.bisectors[self.cone] + cs.theta / 4)
        return (self.apex[0] + r * dx, self.apex[1] + r * dy)

    def contains(self, p, eps: float = EPS) -> bool:
        px, py = _xy(p)
        return kernels.point_in_tri(
            px,
            py,
            self.apex[0],
            self.apex[1],
            self.corner_a[0],
            self.corner_a[1],
            self.corner_b[0],
            self.corner_b[1],
            eps,
        )

    def polygon(self) -> list[tuple[float, float]]:
        return [self.apex, self.corner_a, self.corner_b]


def canonical_triangle(cs: ConeSystem, u, w) -> CanonicalTriangle:
    """Canonical triangle of the ordered pair (u, w): apex u, wedge = u's cone
    containing w, far side through w."""
    ux, uy = _xy(u)
    wx, wy = _xy(w)
    i = cs.cone_of(u, w)
    # theta_projection(cs, u, w), without finding the cone a second time.
    proj = cs.project(i, wx - ux, wy - uy)
    size = proj / cs.hi_dir[0][1]  # cos(theta / 2)
    da, db = cs.lo_dir[i], cs.hi_dir[i]
    return CanonicalTriangle(
        apex=(ux, uy),
        cone=i,
        k=cs.k,
        projection=proj,
        size=size,
        corner_a=(ux + size * da[0], uy + size * da[1]),
        corner_b=(ux + size * db[0], uy + size * db[1]),
    )


def general_position_report(ps: PointSet, k: int) -> list[dict]:
    """Findings that violate the general-position assumptions for a k-cone system.

    Flags pairs whose direction is within EPS of a cone boundary direction or
    its perpendicular (mod pi, _avoided_directions), then pairs equidistant
    from a common apex, rows and pairs in the set's id order. The vectorized
    passes (_aligned_pairs, _distance_rows) only filter: _aligned_direction
    decides every pair whose direction is not clear of EPS, and
    _equidistant_findings every apex row with a gap not clear of its
    threshold, by more than _CHECK_SLACK; so the findings and their order are
    exactly those of the all-pairs scalar loops.
    """
    ids, x, y = ps.arrays
    xs, ys = x.tolist(), y.tolist()
    findings = [
        {"kind": "cone_boundary_aligned", "pair": [ids[a], ids[b]], "direction": d}
        for a, b, d in sorted(_aligned_pairs(x, y, xs, ys, k, EPS))
    ]
    for lo, dist in _distance_rows(x, y):
        dist.sort(axis=1)
        dist = dist[:, : len(ids) - 1]
        low, high = dist[:, :-1], dist[:, 1:]
        clear = high - low > EPS * np.maximum(1.0, low) + _CHECK_SLACK * np.maximum(1.0, high)
        for r in np.nonzero(~clear.all(axis=1))[0].tolist():
            findings.extend(_equidistant_findings((ids, xs, ys), lo + r))
    return findings


#: gen_random's tolerance for near points, avoided directions and distance ties.
_STREAM_EPS = 1e-7


def _stream_conflicts(xs, ys, k: int, start: int) -> dict[int, list[tuple[int, int]]]:
    """gen_random's degeneracy checks of a stream of draws, as conflicts: draw
    c maps to pairs (a, b) of earlier entries, and c is rejected if a and b
    were both placed ((i, i) when i alone rejects c). Entries before `start`
    are points already placed, which clear each other; their azimuths are
    not checked.

    With eps = _STREAM_EPS, c is rejected when it lies within eps of a placed
    point or sees one within eps of a direction the report avoids
    (_aligned_pairs); when two of its own distances to placed points tie,
    hi - lo <= eps * max(1, lo) (some pair ties exactly when two sorted
    neighbours do, since rounding is monotone); or when it ties a distance
    seen from a placed apex r, |d(r, j) - d(r, c)| <= eps * max(1, d(r, c)).
    math.hypot decides every distance case the _distance_rows filter passes
    on, so the verdicts are those of the per-draw scalar checks.
    """
    x = np.array(xs, dtype=np.float64)
    y = np.array(ys, dtype=np.float64)
    conflicts: dict[int, list[tuple[int, int]]] = {}
    # The distance pass runs first: the other order faults in about a tenth
    # more pages per call (432 draws), once the direction pass's blocks are
    # freed and the heap trimmed before the distance blocks are allocated.
    for lo, dist in _distance_rows(x, y):
        hi = lo + len(dist)
        near = dist[:, :hi] <= _STREAM_EPS + _CHECK_SLACK
        near &= np.arange(hi)[None, :] < np.arange(lo, hi)[:, None]
        for r, i in zip(*(ix.tolist() for ix in np.nonzero(near))):
            c = lo + r
            if math.hypot(xs[c] - xs[i], ys[c] - ys[i]) <= _STREAM_EPS:
                conflicts.setdefault(c, []).append((i, i))
        ordered = np.sort(dist, axis=1)[:, : len(xs) - 1]
        low, high = ordered[:, :-1], ordered[:, 1:]
        # Two distances that tie are joined by a run of sorted neighbours each
        # within the larger's tolerance (plus rounding, well under the slack).
        linked = high - low <= (_STREAM_EPS + _CHECK_SLACK) * np.maximum(1.0, high)
        for r in np.nonzero(linked.any(axis=1))[0].tolist():
            at = np.nonzero(linked[r])[0]
            for run in np.split(at, np.nonzero(np.diff(at) > 1)[0] + 1):
                low_d, high_d = ordered[r, run[0]], ordered[r, run[-1] + 1]
                members = np.nonzero((dist[r] >= low_d) & (dist[r] <= high_d))[0].tolist()
                _record_ties(conflicts, xs, ys, lo + r, members)
    for i, c, _ in _aligned_pairs(x, y, xs, ys, k, _STREAM_EPS, start):
        conflicts.setdefault(c, []).append((i, i))
    return conflicts


def _record_ties(conflicts, xs, ys, apex: int, members: list[int]) -> None:
    """Conflicts for the distance ties among members (increasing entries)
    seen from apex; the latest of the three is the draw rejected."""
    dists = [(j, math.hypot(xs[j] - xs[apex], ys[j] - ys[apex])) for j in members]
    for (a, da), (b, db) in itertools.combinations(dists, 2):
        if b < apex:
            if max(da, db) - min(da, db) <= _STREAM_EPS * max(1.0, min(da, db)):
                conflicts.setdefault(apex, []).append((a, b))
        elif abs(da - db) <= _STREAM_EPS * max(1.0, db):
            conflicts.setdefault(b, []).append((apex, a))


def _avoided_directions(k: int) -> list[float]:
    """The directions general position avoids for k cones, sorted: every
    cone boundary and its perpendicular, folded mod pi."""
    bad = set()
    for az in ConeSystem(k).hi:
        bad.add(az % math.pi)
        bad.add((az + math.pi / 2) % math.pi)
    return sorted(bad)


def _aligned_pairs(x, y, xs, ys, k: int, eps: float, start: int = 1) -> list[tuple[int, int, float]]:
    """(i, c, direction) for every pair of positions i < c, c >= start, whose
    direction (c less i) lies within eps of one of _avoided_directions(k),
    rows c in order; x, y hold the coordinates as arrays and xs, ys as lists.

    Runs as numpy row blocks of at most _CHECK_BLOCK elements. The lattice
    gaps of _direction_gaps only filter: _aligned_direction decides every
    pair not clear of eps by _CHECK_SLACK and names its direction.
    """
    bad_dirs = _avoided_directions(k)
    n = len(xs)
    pairs = []
    step = max(1, _CHECK_BLOCK // max(n, 1))
    for lo in range(max(start, 1), n, step):
        hi = min(n, lo + step)
        # Row c = lo + r against the earlier positions i < c.
        gaps = _direction_gaps(x[lo:hi, None] - x[None, : hi - 1], y[lo:hi, None] - y[None, : hi - 1], k)
        unsure = ~(gaps > eps + _CHECK_SLACK)
        unsure &= np.arange(hi - 1)[None, :] < np.arange(lo, hi)[:, None]
        for r, i in zip(*(ix.tolist() for ix in np.nonzero(unsure))):
            c = lo + r
            d = _aligned_direction(xs[c] - xs[i], ys[c] - ys[i], bad_dirs, eps)
            if d is not None:
                pairs.append((i, c, d))
    return pairs


def _distance_rows(x, y):
    """(lo, dist) for each numpy row block of at most _CHECK_BLOCK elements:
    dist[r] holds the _fast_hypot distances from position lo + r to every
    position, its own entry inf."""
    n = len(x)
    step = max(1, _CHECK_BLOCK // max(n, 1))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        rows = np.arange(hi - lo)
        dist = _fast_hypot(x[None, :] - x[lo:hi, None], y[None, :] - y[lo:hi, None])
        # The apex's own entry sorts last and is dropped.
        dist[rows, rows + lo] = np.inf
        yield lo, dist


def _direction_lattice(k: int) -> tuple[int, float]:
    """(m, phi0) such that the directions a k-cone system avoids, its cone
    boundaries and their perpendiculars folded mod pi, are exactly
    phi0 + j * pi / m for j = 0, ..., m - 1.

    The boundaries lie at odd multiples of pi / k, the perpendiculars k / 2
    such steps further on. For odd k that gives every multiple of pi / (2k);
    for k = 2 mod 4 every multiple of pi / k; for k = 0 mod 4 the
    perpendiculars fall on boundaries again, which leaves the odd multiples
    of pi / k.
    """
    if k % 2:
        return 2 * k, 0.0
    if k % 4 == 2:
        return k, 0.0
    return k // 2, math.pi / k


def _direction_gaps(dx, dy, k: int):
    """Angular distance from the direction of every vector (dx, dy), mod pi,
    to the nearest direction a k-cone system avoids (_direction_lattice).

    The lattice has period pi / m, so with t the azimuth less phi0 in units
    of that period, the gap is |t - rint(t)| periods: no fold, and no
    temporary per avoided direction. It is within about 3e-15 of the gap
    _aligned_direction computes per pair against the rounded directions
    (np.arctan2 vs libm atan2, and the rounding of t), far inside
    _CHECK_SLACK.
    """
    m, phi0 = _direction_lattice(k)
    t = np.arctan2(dx, dy)
    if phi0:
        t -= phi0
    t *= m / math.pi
    t -= np.rint(t)
    np.abs(t, out=t)
    t *= math.pi / m
    return t


#: Where dx^2 + dy^2 is at least _SQUARES_MIN its square root is within 2
#: ulps of the distance: what underflows is below an ulp of the sum.
_SQUARES_MIN = 2.0**-900


def _fast_hypot(dx, dy):
    """Distances sqrt(dx^2 + dy^2), elementwise, for the row filters.

    Several times cheaper than np.hypot, and within 2 ulps of the exact
    distance wherever dx^2 + dy^2 is at least _SQUARES_MIN (no square of a
    PointSet's differences overflows, see _table); every other entry is
    np.hypot's own. math.hypot decides every case the filters pass on, so
    these rows never decide one.
    """
    d = dx * dx
    d += dy * dy
    odd = d < _SQUARES_MIN
    np.sqrt(d, out=d)
    if odd.any():
        d[odd] = np.hypot(dx[odd], dy[odd])
    return d


def _aligned_direction(dx: float, dy: float, dirs, eps: float):
    """First of dirs within eps of the vector's azimuth folded mod pi, or None."""
    az = kernels.azimuth(dx, dy) % math.pi
    for d in dirs:
        diff = abs(az - d)
        if min(diff, math.pi - diff) <= eps:
            return d
    return None


def _equidistant_findings(table, a: int) -> list[dict]:
    """Pairs adjacent in the (distance, id) order seen from the point at
    position a of table (ids, xs, ys) whose distances tie within EPS."""
    ids, xs, ys = table
    ax, ay, apex = xs[a], ys[a], ids[a]
    dists = sorted(
        (math.hypot(x - ax, y - ay), i) for i, x, y in zip(ids, xs, ys) if i != apex
    )
    return [
        {"kind": "equidistant", "apex": apex, "pair": [i1, i2]}
        for (d1, i1), (d2, i2) in zip(dists, dists[1:])
        if abs(d2 - d1) <= EPS * max(1.0, d1)
    ]


def points_to_json(ps: PointSet) -> str:
    return '{"points":%s}\n' % ps._records_json


def points_from_json(text: str) -> PointSet:
    obj = _parse_json(text, "points")
    try:
        records = obj["points"]
    except (KeyError, TypeError) as exc:
        raise InvalidParameter(f"malformed points JSON: {exc}") from exc
    return _points_from_records(records, "points")


def _dump_json(obj) -> str:
    """obj as JSON with sorted keys, no spaces and one trailing newline: the
    form of every document spannerkit writes."""
    return _json_text(obj) + "\n"


def _json_text(obj) -> str:
    """obj as JSON with sorted keys and no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_json(text: str, what: str):
    """json.loads, with text that is not JSON reported as InvalidParameter."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidParameter(f"malformed {what} JSON: {exc}") from exc


def _point_records(ids, x, y) -> list[dict]:
    """The {"id", "x", "y"} record of every point of the columns, in order."""
    return [{"id": i, "x": a, "y": b} for i, a, b in zip(ids, x.tolist(), y.tolist())]


def _points_from_records(records, what: str) -> PointSet:
    """PointSet from _point_records output; malformed records raise InvalidParameter."""
    try:
        columns = _json_ids([r["id"] for r in records]), [r["x"] for r in records], [r["y"] for r in records]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"malformed {what} JSON: {exc}") from exc
    return PointSet._from_columns(*columns)


def _json_id(value) -> int:
    """A point id read from JSON, as int: an id (_as_id) or an integral
    float. Anything else (bools and strings included) raises ValueError
    instead of loading as another id."""
    pid = int(value) if isinstance(value, float) and value.is_integer() else _as_id(value)
    if pid is None:
        raise ValueError(f"id must be an integer, got {value!r}")
    return pid


def _json_ids(values: list) -> list[int]:
    """_json_id of every value; a list of ints passes as it is."""
    if set(map(type, values)) <= {int}:
        return values
    return [_json_id(v) for v in values]


def _json_real(value) -> float:
    """A length read from JSON, as a finite float by _as_coord's rule;
    anything else (bools, strings, NaN and the infinities, 1e400 included)
    raises ValueError."""
    real = _as_coord(value)
    if real is None or not math.isfinite(real):
        raise ValueError(f"expected a finite number, got {value!r}")
    return real


def _xy(p) -> tuple[float, float]:
    if isinstance(p, Point):
        return (p.x, p.y)
    return (float(p[0]), float(p[1]))

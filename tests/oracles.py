"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from first principles with plain Python,
deliberately avoiding the package's own selection logic.
"""

import heapq
import math

import numpy as np

TWO_PI = 2.0 * math.pi
BOUNDARY_EPS = 1e-9
#: kernels.cone_index's tie band: BOUNDARY_EPS less a bound on the offset's rounding.
TIE_BAND = BOUNDARY_EPS - 1e-14


def oracle_azimuth(dx, dy):
    az = math.atan2(dx, dy)
    return az + TWO_PI if az < 0.0 else az


def oracle_cone_index(dx, dy, k):
    """Cone lookup by kernels.cone_index's own arithmetic, repeated here.

    Cone i covers azimuths (i*theta - theta/2, i*theta + theta/2], and one
    within BOUNDARY_EPS of a boundary belongs to the counter-clockwise
    (lower-index) cone, so the boundary at i*theta + theta/2 belongs to i.
    "Within" is the kernel's test, |t - m| * theta <= TIE_BAND with
    t = (az - theta/2) / theta and m its nearest integer, not a difference
    of azimuths in radians: the two round apart on directions within a few
    ulps of BOUNDARY_EPS past a boundary, where the kernel defines the rule.
    """
    az = math.atan2(dx, dy)
    if az < 0.0:
        az += TWO_PI
    theta = TWO_PI / k
    t = (az - 0.5 * theta) / theta
    m = math.floor(t + 0.5)
    if abs(t - m) * theta <= TIE_BAND:
        return m % k
    return (math.floor(t) + 1) % k


def oracle_projection(dx, dy, k):
    """Length of the projection onto the bisector of the containing cone."""
    c = oracle_cone_index(dx, dy, k)
    bis = c * (TWO_PI / k)
    return dx * math.sin(bis) + dy * math.cos(bis)


def oracle_cone_picks(coords, k, use_projection, cone_mask=0):
    """Nearest vertex per cone by exhaustive scan, as sorted (u, cone, v).

    coords is a list of (x, y); vertex ids are list indices.  Ties break on
    squared distance then id (Yao) or projection, squared distance, id (theta).
    Every v is visited in index order and replaces the cone's pick only when
    its key is smaller, so a NaN key (which compares false both ways) never
    wins, and a first member with a NaN key is never replaced.
    """
    picks = []
    for i, (xi, yi) in enumerate(coords):
        best = {}
        for j, (xj, yj) in enumerate(coords):
            if i == j:
                continue
            dx, dy = xj - xi, yj - yi
            c = oracle_cone_index(dx, dy, k)
            if cone_mask and not (cone_mask >> c) & 1:
                continue
            d2 = dx * dx + dy * dy
            if use_projection:
                key = (dx * math.sin(c * (TWO_PI / k)) + dy * math.cos(c * (TWO_PI / k)), d2, j)
            else:
                key = (d2, 0.0, j)
            if c not in best or key < best[c][0]:
                best[c] = (key, j)
        picks += [(i, c, j) for c, (_key, j) in best.items()]
    return sorted(picks)


def oracle_cone_edges(coords, k, use_projection, cone_mask=0):
    """Undirected edge set of oracle_cone_picks."""
    return {(min(u, v), max(u, v)) for u, _c, v in oracle_cone_picks(coords, k, use_projection, cone_mask)}


def oracle_all_paths_spanning_ratio(g):
    """Exact spanning ratio by enumerating every simple path (n <= 8)."""
    pos = {p.id: (p.x, p.y) for p in g.points}
    ids = sorted(pos)
    adj = {i: [] for i in ids}
    for u, v in g.edge_list():
        (ux, uy), (vx, vy) = pos[u], pos[v]
        w = math.hypot(vx - ux, vy - uy)
        adj[u].append((v, w))
        adj[v].append((u, w))

    def best_path(s, t):
        best = math.inf

        def dfs(x, seen, acc):
            nonlocal best
            if x == t:
                if acc < best:
                    best = acc
                return
            for y, w in adj[x]:
                if y not in seen and acc + w < best:
                    seen.add(y)
                    dfs(y, seen, acc + w)
                    seen.remove(y)

        dfs(s, {s}, 0.0)
        return best

    worst = 0.0
    witness = None
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            u, v = ids[a], ids[b]
            (ux, uy), (vx, vy) = pos[u], pos[v]
            ratio = best_path(u, v) / math.hypot(vx - ux, vy - uy)
            if ratio > worst:
                worst = ratio
                witness = (u, v)
    return worst, witness


def oracle_pair_bound(g, s, t):
    """Worst-case routing bound for the ordered pair, from the alpha formulas."""
    ps, pt = g.points[s], g.points[t]
    az = oracle_azimuth(pt.x - ps.x, pt.y - ps.y)
    c = oracle_cone_index(pt.x - ps.x, pt.y - ps.y, 6)
    theta = TWO_PI / 6
    dist = math.hypot(pt.x - ps.x, pt.y - ps.y)
    if c % 2 == 0:
        alpha = abs(az - c * theta)
        if alpha > math.pi:
            alpha = TWO_PI - alpha
        return (math.sqrt(3.0) * math.cos(alpha) + math.sin(alpha)) * dist, True
    az_back = oracle_azimuth(ps.x - pt.x, ps.y - pt.y)
    c_back = oracle_cone_index(ps.x - pt.x, ps.y - pt.y, 6)
    alpha = abs(az_back - c_back * theta)
    if alpha > math.pi:
        alpha = TWO_PI - alpha
    return (5.0 / math.sqrt(3.0) * math.cos(alpha) - math.sin(alpha)) * dist, False


def oracle_mst(ps):
    """Euclidean MST edge set by Kruskal over all n(n-1)/2 pairs, ordered by
    (squared distance, id, id); squared distances are dx * dx + dy * dy, the
    doubles the cone scan compares."""
    pts = sorted(ps, key=lambda p: p.id)
    cand = []
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            dx, dy = q.x - p.x, q.y - p.y
            d2 = dx * dx + dy * dy
            cand.append((d2, p.id, q.id))
    cand.sort()
    parent = {p.id: p.id for p in pts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = set()
    for _d2, u, v in cand:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            edges.add((u, v))
    return edges


def oracle_gen_random(n, seed, k=6, retries=100):
    """Point generation by the scalar per-pair loops that gen_random replaced:
    equidistance tests against per-apex sorted distance lists (bisect/insort)
    and the scalar general-position report at the end."""
    import bisect
    import random

    from spannerkit.errors import DegenerateInput, InvalidParameter
    from spannerkit.geometry import PointSet

    if n < 1:
        raise InvalidParameter(f"need at least 1 point, got {n}")
    rng = random.Random(seed)
    bad_dirs = _oracle_avoided_directions(k)
    placed = []
    # Sorted distances seen from each placed point, for fast equidistance tests.
    dist_lists = []
    for _ in range(n):
        for _attempt in range(retries):
            cand = (rng.random(), rng.random())
            dists = _oracle_clears_degeneracies(placed, dist_lists, cand, bad_dirs)
            if dists is not None:
                for lst, d in zip(dist_lists, dists):
                    bisect.insort(lst, d)
                dist_lists.append(sorted(dists))
                placed.append(cand)
                break
        else:
            raise DegenerateInput(
                f"could not place point {len(placed)} in general position "
                f"after {retries} attempts"
            )
    ps = PointSet.from_pairs(placed)
    findings = oracle_general_position_report(ps, k)
    if findings:
        raise DegenerateInput(f"generated set is degenerate: {findings[0]}")
    return ps


def _oracle_avoided_directions(k):
    theta = 2.0 * math.pi / k
    bad = set()
    for i in range(k):
        az = (i * theta + theta / 2.0) % math.pi
        bad.add(az)
        bad.add((az + math.pi / 2.0) % math.pi)
    return sorted(bad)


def oracle_direction_gaps(dx, dy, dirs):
    """Angular distance, folded mod pi, from the azimuth of every vector
    (dx, dy) to the nearest of dirs, by broadcasting every vector against
    every direction: the filter geometry._direction_gaps replaced."""
    az = np.arctan2(dx, dy)
    az = np.remainder(np.where(az < 0.0, az + 2.0 * math.pi, az), math.pi)
    diff = np.abs(az - np.reshape(dirs, (-1,) + (1,) * az.ndim))
    return np.minimum(diff, math.pi - diff).min(axis=0)


def _oracle_clears_degeneracies(placed, dist_lists, cand, bad_dirs, eps=1e-7):
    """Distances from cand to each placed point, or None if cand is degenerate."""
    import bisect

    from spannerkit import kernels

    cx, cy = cand
    dists = []
    for i, (px, py) in enumerate(placed):
        dx = cx - px
        dy = cy - py
        d = math.hypot(dx, dy)
        if d <= eps:
            return None
        az = kernels.azimuth(dx, dy) % math.pi
        for b in bad_dirs:
            diff = abs(az - b)
            if min(diff, math.pi - diff) <= eps:
                return None
        # Would cand tie an existing distance from this apex?
        lst = dist_lists[i]
        at = bisect.bisect_left(lst, d)
        tol = eps * max(1.0, d)
        if at < len(lst) and lst[at] - d <= tol:
            return None
        if at > 0 and d - lst[at - 1] <= tol:
            return None
        dists.append(d)
    ordered = sorted(dists)
    for d1, d2 in zip(ordered, ordered[1:]):
        if d2 - d1 <= eps * max(1.0, d1):
            return None
    return dists


def oracle_general_position_report(ps, k):
    """General-position findings by the scalar all-pairs loops that
    general_position_report replaced; same findings in the same order."""
    from spannerkit import kernels
    from spannerkit.geometry import EPS, ConeSystem

    cs = ConeSystem(k)
    findings = []
    pts = list(ps)
    n = len(pts)

    # Directions to avoid, folded mod pi.
    bad = set()
    for az in cs.boundary_azimuths():
        bad.add(az % math.pi)
        bad.add((az + math.pi / 2) % math.pi)
    bad_dirs = sorted(bad)

    for a in range(n):
        for b in range(a + 1, n):
            p, q = pts[a], pts[b]
            az = kernels.azimuth(q.x - p.x, q.y - p.y) % math.pi
            for d in bad_dirs:
                diff = abs(az - d)
                diff = min(diff, math.pi - diff)
                if diff <= EPS:
                    findings.append(
                        {"kind": "cone_boundary_aligned", "pair": [p.id, q.id], "direction": d}
                    )
                    break

    for apex in pts:
        dists = sorted(
            (math.hypot(p.x - apex.x, p.y - apex.y), p.id) for p in pts if p.id != apex.id
        )
        for (d1, i1), (d2, i2) in zip(dists, dists[1:]):
            if abs(d2 - d1) <= EPS * max(1.0, d1):
                findings.append({"kind": "equidistant", "apex": apex.id, "pair": [i1, i2]})

    return findings


def oracle_spanning_ratio(g, per_pair=False):
    """The exact spanning ratio as spanning_ratio computed it before streaming:
    all-pairs scipy Dijkstra (directed=False), a full n x n math.hypot
    Euclidean matrix and np.argmax over the upper triangle."""
    from spannerkit.analysis import RatioReport

    if len(g.points) < 2:
        return RatioReport(1.0, None)
    ids, dist, euclid = _oracle_distance_matrices(g)
    n = len(ids)
    iu, iv = np.triu_indices(n, 1)
    ratios = dist[iu, iv] / euclid[iu, iv]
    best_at = int(np.argmax(ratios))
    best = float(ratios[best_at])
    witness = (ids[int(iu[best_at])], ids[int(iv[best_at])])
    table = None
    if per_pair:
        table = [
            {
                "u": ids[int(a)],
                "v": ids[int(b)],
                "graph_distance": float(dist[a, b]),
                "euclidean": float(euclid[a, b]),
                "ratio": float(r),
            }
            for a, b, r in zip(iu, iv, ratios)
        ]
    return RatioReport(best, witness, per_pair=table)


def _oracle_distance_matrices(g):
    """(sorted ids, graph shortest-path matrix, Euclidean matrix)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

    pts = sorted(g.points, key=lambda p: p.id)
    ids = [p.id for p in pts]
    index = {pid: i for i, pid in enumerate(ids)}
    n = len(ids)
    xs = np.array([p.x for p in pts])
    ys = np.array([p.y for p in pts])
    rows, cols, data = [], [], []
    for u, v in g.edges:
        iu, iv = index[u], index[v]
        w = math.hypot(xs[iv] - xs[iu], ys[iv] - ys[iu])
        rows.extend((iu, iv))
        cols.extend((iv, iu))
        data.extend((w, w))
    mat = csr_matrix((data, (rows, cols)), shape=(n, n))
    dist = _csgraph_dijkstra(mat, directed=False)
    # np.hypot rounds differently from math.hypot in the last ulp; the edge
    # weights above use math.hypot, so the denominators must too or a direct
    # edge's ratio lands a hair off 1.
    euclid = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = math.hypot(xs[j] - xs[i], ys[j] - ys[i])
            euclid[i, j] = euclid[j, i] = d
    return ids, dist, euclid


def oracle_dijkstra(adj, source: int, allowed=None, stop: int | None = None):
    """Heap Dijkstra from source over adj (id -> (neighbour, length) pairs),
    entering only vertices in allowed when given and halting once stop is
    popped. Returns (dist, parent); parent keeps the first relaxation that
    reached each vertex's final distance. The id-keyed heap Dijkstra that
    shortest_path and restricted_pair_check ran before they worked on vertex
    indices."""
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
        for y, w in adj[x]:
            if allowed is not None and y not in allowed:
                continue
            nd = d + w
            if nd < dist.get(y, math.inf):
                dist[y] = nd
                parent[y] = x
                heapq.heappush(heap, (nd, y))
    return dist, parent


def oracle_restricted_pair_check(h, u, w, bound=None, tolerance=1e-9):
    """restricted_pair_check as it was before the numpy sweep: one scalar
    point_in_tri call per point of the graph."""
    from spannerkit import kernels
    from spannerkit.analysis import bound_value
    from spannerkit.errors import InternalInvariantViolation, InvalidParameter
    from spannerkit.geometry import EPS, ConeSystem, angle_alpha, canonical_triangle

    for v in (u, w):
        if v not in h.points:
            raise InvalidParameter(f"vertex {v} is not in the graph")
    cs = ConeSystem(h.k or 6)
    flip = cs.k == 6 and cs.cone_of(h.points[u], h.points[w]) % 2 == 1
    a, b = (w, u) if flip else (u, w)
    pa, pb = h.points[a], h.points[b]
    tri = canonical_triangle(cs, pa, pb)
    ax, ay = tri.apex
    cax, cay = tri.corner_a
    cbx, cby = tri.corner_b
    allowed = {a, b}
    for p in h.points:
        if kernels.point_in_tri(p.x, p.y, ax, ay, cax, cay, cbx, cby, EPS):
            allowed.add(p.id)
    dist, parent = oracle_dijkstra(_last_length_lists(h), a, allowed, b)
    if b not in dist:
        raise InternalInvariantViolation(
            f"no path from {u} to {w} inside their canonical triangle"
        )
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    if not flip:
        path.reverse()
    if bound is None:
        alpha = angle_alpha(cs, pa, pb)
        bound = bound_value("pair_alpha", alpha=alpha) * math.hypot(pb.x - pa.x, pb.y - pa.y)
    length = dist[b]
    return {"path": path, "length": length, "bound": bound, "ok": length <= bound + tolerance}


def oracle_shortest_path(g, s, t):
    """shortest_path with the Dijkstra from t run over every vertex, as it
    was before it stopped at s: the path follows, from s, the first
    neighbour (ascending id) that lies on a shortest path to t."""
    adj = _last_length_lists(g)
    dist, _ = oracle_dijkstra(adj, t)
    path = [s]
    cur = s
    while cur != t:
        cur = next(y for y, w in adj[cur] if y in dist and w + dist[y] == dist[cur])
        path.append(cur)
    return path, dist[s]


def oracle_adjacency(g):
    """Id -> (azimuth, neighbour id) pairs in ascending order: one
    kernels.azimuth call per edge end, as the per-edge adjacency loop made
    them before the graph's edge table."""
    from spannerkit import kernels

    adj = {p.id: [] for p in g.points}
    for a, b in g.edges:
        p, q = g.points[a], g.points[b]
        adj[a].append((kernels.azimuth(q.x - p.x, q.y - p.y), b))
        adj[b].append((kernels.azimuth(p.x - q.x, p.y - q.y), a))
    for lst in adj.values():
        lst.sort()
    return adj


def oracle_length_lists(g):
    """Id -> (neighbour id, math.hypot edge length) pairs in ascending id order."""
    adj = {p.id: [] for p in g.points}
    for u, v in g.edges:
        p, q = g.points[u], g.points[v]
        w = math.hypot(q.x - p.x, q.y - p.y)
        adj[u].append((v, w))
        adj[v].append((u, w))
    for lst in adj.values():
        lst.sort()
    return adj


_LAST_LENGTH_LISTS = [None, None]


def _last_length_lists(g):
    """oracle_length_lists(g), kept for the last graph asked for: the pair
    loops ask for one graph's lists once per pair."""
    if _LAST_LENGTH_LISTS[0] is not g:
        _LAST_LENGTH_LISTS[:] = [g, oracle_length_lists(g)]
    return _LAST_LENGTH_LISTS[1]


class oracle_cone_table:
    """The 6-cone table of a half_theta6 graph or one of its subgraphs, made
    by one scalar kernels.cone_index and math.hypot call per edge end, keyed
    by id: xy, rows, positive, fans and closest(u, j). The tests read
    graph.cone_table's index-based lists back into this form to compare."""

    def __init__(self, g):
        from spannerkit import kernels
        from spannerkit.errors import InternalInvariantViolation

        adjacency = oracle_adjacency(g)
        self.xy = {p.id: (p.x, p.y) for p in g.points}
        self.rows = {}
        self.positive = {}
        self.fans = {}
        for p in g.points:
            row = []
            for az, v in adjacency[p.id]:
                qx, qy = self.xy[v]
                dx = qx - p.x
                dy = qy - p.y
                c = kernels.cone_index(dx, dy, 6)
                ln = math.hypot(dx, dy)
                row.append((az, v, ln, c))
                if c % 2:
                    self.fans.setdefault((p.id, c), []).append(v)
                elif (p.id, c) in self.positive:
                    raise InternalInvariantViolation(
                        f"vertex {p.id} has two edges in positive cone {c}"
                    )
                else:
                    self.positive[(p.id, c)] = (v, ln)
            self.rows[p.id] = row
        paired = {(min(u, v), max(u, v)) for (u, c), (v, _) in self.positive.items()
                  if u in self.fans.get((v, (c + 3) % 6), ())}
        if len(paired) != len(g.edges):
            a, b = min(g.edges - paired)
            raise InternalInvariantViolation(f"edge ({a}, {b}) lacks a unique negative-side endpoint")

    def closest(self, u, j):
        """Member of fan (u, j) with the smallest (projection onto cone j's
        bisector, squared distance, id), by Python's min over key tuples."""
        members = self.fans[(u, j)]
        ux, uy = self.xy[u]
        bis = j * (math.tau / 6)
        sb, cb = math.sin(bis), math.cos(bis)

        def key(v):
            vx, vy = self.xy[v]
            dx = vx - ux
            dy = vy - uy
            return (dx * sb + dy * cb, dx * dx + dy * dy, v)

        return min(members, key=key)

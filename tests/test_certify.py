"""Pair certification with the numpy triangle sweep against the per-point
scalar loop it replaced (tests/oracles.py::oracle_restricted_pair_check), and
kernels.points_in_tri against kernels.point_in_tri on points placed at and one
ulp around each triangle side's eps margin."""

import math
import random

import numpy as np
import pytest
from oracles import oracle_restricted_pair_check, oracle_shortest_path
from test_ratio import SUITE_SETS

from spannerkit import (
    ConeSystem,
    DegenerateInput,
    InvalidParameter,
    Point,
    PointSet,
    SpannerKitError,
    build_half_theta6,
    build_theta,
    canonical_triangle,
    gen_circle,
    gen_random,
    gen_routing_lb,
    kernels,
    restricted_pair_check,
    shortest_path,
)
from spannerkit.geometry import EPS


def outcome(check, h, u, w):
    try:
        return check(h, u, w)
    except SpannerKitError as exc:
        return (type(exc).__name__, str(exc))


def assert_pairs_match(h):
    """Every ordered pair, so each pair is certified in both orders. A pair
    with no path inside its triangle is a bug only on half-theta-6 graphs:
    where the oracle raises InternalInvariantViolation on another kind,
    restricted_pair_check raises InvalidParameter with the same message and
    a reason."""
    ids = h.points.ids
    raised = 0
    for u in ids:
        for w in ids:
            if u == w:
                continue
            got = outcome(restricted_pair_check, h, u, w)
            want = outcome(oracle_restricted_pair_check, h, u, w)
            if h.kind != "half_theta6" and isinstance(want, tuple) and want[0] == "InternalInvariantViolation":
                want = ("InvalidParameter", f"{want[1]}: only half-theta-6 graphs guarantee one, not {h.kind} graphs")
            assert got == want, (h.kind, h.k, u, w)
            raised += isinstance(got, tuple)
    return raised


@pytest.mark.parametrize("n,seed", SUITE_SETS)
def test_suite_sets(n, seed):
    assert assert_pairs_match(build_half_theta6(gen_random(n, seed))) == 0


@pytest.mark.parametrize("k", [5, 7, 8])
def test_theta_graphs(k):
    # Theta-k triangles need not hold a path (on gen_random(40, 23) 74, 9
    # and 1 of the 1,560 ordered pairs for k = 5, 7 and 8 have none): that is
    # InvalidParameter, not a spannerkit bug.
    raised = sum(assert_pairs_match(build_theta(gen_random(n, seed), k))
                 for n, seed in ((40, 23), (30, 17), (20, 11)))
    assert raised > 0


def test_integer_grid():
    ps = PointSet.from_pairs((x, y) for x in range(6) for y in range(5))
    assert_pairs_match(build_half_theta6(ps))


def test_circle():
    assert_pairs_match(build_half_theta6(gen_circle(24)))


@pytest.mark.parametrize("variant", ["positive", "negative_a", "negative_b"])
def test_routing_lower_bound_instances(variant):
    assert_pairs_match(build_half_theta6(gen_routing_lb(variant, math.pi / 12, 1e-4)))


def test_huge_coordinates():
    ps = PointSet(Point(p.id, p.x * 1e150, p.y * 1e150) for p in gen_random(30, 17))
    assert assert_pairs_match(build_half_theta6(ps)) == 0


def test_ids_that_are_not_positions():
    # Negative ids, gaps, ids beyond 2**63 and out-of-order insertion: an
    # index that leaked out as an id, or an id used as an index, shows here.
    base = gen_random(24, 13)
    ids = [-7, -1, 0, 5, 9, 2**63 + 1, 2**64 + 3, 10**30] + [1000 + 37 * i for i in range(16)]
    order = list(range(24))
    random.Random(5).shuffle(order)
    ps = PointSet(Point(ids[i], base[i].x, base[i].y) for i in order)
    for g in (build_half_theta6(ps), build_theta(ps, 7)):
        assert_pairs_match(g)
        for u in ids:
            for w in ids:
                if u != w:
                    assert shortest_path(g, u, w) == oracle_shortest_path(g, u, w), (g.kind, u, w)


def test_overflowing_extent_is_degenerate_input():
    # The pair's triangle and bound need finite coordinate differences; this
    # set's x extent overflows, so no graph is built on it.
    with pytest.raises(DegenerateInput, match="extent"):
        PointSet([Point(0, -1.5e308, 0.0), Point(1, 1.5e308, 0.0), Point(2, 0.0, 1.0)])


def test_equal_endpoints_are_rejected():
    h = build_half_theta6(gen_random(20, 1))
    for u in (0, 7, 19):
        with pytest.raises(InvalidParameter, match="pair check endpoints must differ"):
            restricted_pair_check(h, u, u)


def _sides(a, b, c):
    return ((a, b), (b, c), (c, a))


def boundary_points(a, b, c, eps):
    """The corners, and points at 0, +-eps and +-2 eps from each side's
    midpoint and quarter points along its normal, each also moved one ulp
    either way in x and y."""
    base = [a, b, c]
    for (x1, y1), (x2, y2) in _sides(a, b, c):
        ln = math.hypot(x2 - x1, y2 - y1)
        nx, ny = (y2 - y1) / ln, -(x2 - x1) / ln
        for t in (0.25, 0.5, 0.75):
            mx, my = x1 + t * (x2 - x1), y1 + t * (y2 - y1)
            for s in (-2.0, -1.0, 0.0, 1.0, 2.0):
                base.append((mx + s * eps * nx, my + s * eps * ny))
    pts = []
    for x, y in base:
        for px in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)):
            for py in (np.nextafter(y, -np.inf), y, np.nextafter(y, np.inf)):
                pts.append((float(px), float(py)))
    return pts


def triangles():
    cs = ConeSystem(6)
    yield (0.0, 0.0), (9.0, 1.0), (4.0, 8.0)
    yield (0.125, 0.5), (0.75, 0.25), (0.5, 0.875)
    ps = gen_random(20, 11)
    for u, w in ((0, 5), (3, 17), (12, 1)):
        tri = canonical_triangle(cs, ps[u], ps[w])
        yield tri.apex, tri.corner_a, tri.corner_b
    # Crosses that overflow to inf and NaN.
    yield (-1e200, 0.0), (1e200, 1e200), (0.0, -1e200)


@pytest.mark.parametrize("tri", list(triangles()))
@pytest.mark.parametrize("eps", [EPS, 0.0, 1e-6])
def test_points_in_tri_matches_point_in_tri(tri, eps):
    a, b, c = tri
    pts = boundary_points(a, b, c, max(eps, 1e-9 * math.dist(a, b)))
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    # Both orientations: points_in_tri must make the same swap.
    for p, q, r in ((a, b, c), (a, c, b)):
        got = kernels.points_in_tri(xs, ys, *p, *q, *r, eps)
        want = [kernels.point_in_tri(x, y, *p, *q, *r, eps) for x, y in pts]
        assert got.dtype == bool
        assert got.tolist() == want
        if math.dist(a, b) < 1e100:
            assert any(want) and not all(want)


def margin_triangles():
    cs = ConeSystem(6)
    ps = gen_random(20, 11)
    yield (0.0, 0.0), (9.0, 1.0), (4.0, 8.0)
    for u in range(0, 20, 4):
        for w in (1, 7, 13, 19):
            tri = canonical_triangle(cs, ps[u], ps[w])
            yield tri.apex, tri.corner_a, tri.corner_b


def test_points_in_tri_on_exact_margin():
    # eps tuned so that a point's cross product equals -eps * ln exactly: the
    # closed test keeps it, and the next smaller margin drops it, in both
    # versions. Side lengths computed another way (np.hypot) break some ties.
    ties = 0
    for a, b, c in margin_triangles():
        if (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) < 0.0:
            b, c = c, b
        ties += _exact_margin_ties(a, b, c)
    assert ties >= 500


def _exact_margin_ties(a, b, c):
    ties = 0
    for (x1, y1), (x2, y2) in _sides(a, b, c):
        ex, ey = x2 - x1, y2 - y1
        ln = (ex * ex + ey * ey) ** 0.5
        for t in (0.2 + 0.05 * i for i in range(13)):
            px = x1 + t * ex + 1e-7 * ey
            py = y1 + t * ey - 1e-7 * ex
            cross = ex * (py - y1) - ey * (px - x1)
            eps = -cross / ln
            for _ in range(4):
                if -eps * ln == cross:
                    break
                eps = float(np.nextafter(eps, np.inf if -eps * ln > cross else -np.inf))
            if -eps * ln != cross:
                continue
            ties += 1
            below = eps
            while -below * ln == cross:
                below = float(np.nextafter(below, 0.0))
            for e, inside in ((eps, True), (below, False)):
                want = kernels.point_in_tri(px, py, *a, *b, *c, e)
                got = kernels.points_in_tri(np.array([px]), np.array([py]), *a, *b, *c, e)
                assert want is inside and got.tolist() == [want]
    return ties


def test_route_overlay_outlines_the_certified_triangle(monkeypatch):
    # The SVG route overlay and certification choose the pair's triangle
    # once for both orders: with 6 cones its apex is the endpoint that sees
    # the other in a positive cone.
    from spannerkit import analysis, route_stateful
    from spannerkit.cli_io import render_svg
    from spannerkit.geometry import CanonicalTriangle

    ps = gen_random(24, 3)
    h = build_half_theta6(ps)
    cs = ConeSystem(6)
    u, w = 0, next(w for w in ps.ids if w != 0 and cs.cone_of(ps[0], ps[w]) % 2 == 1)
    triangles = []
    certify, polygon = analysis.canonical_triangle, CanonicalTriangle.polygon

    def spy_certify(*args):
        triangles.append(certify(*args))
        return triangles[-1]

    def spy_polygon(tri):
        triangles.append(tri)
        return polygon(tri)

    for s, t in ((u, w), (w, u)):
        triangles.clear()
        with monkeypatch.context() as m:
            m.setattr(analysis, "canonical_triangle", spy_certify)
            restricted_pair_check(h, s, t)
        trace = route_stateful(h, s, t)
        with monkeypatch.context() as m:
            m.setattr(CanonicalTriangle, "polygon", spy_polygon)
            render_svg(h, trace)
        assert triangles[0] == canonical_triangle(cs, ps[w], ps[u])
        assert len(triangles) > 1 and all(tri == triangles[0] for tri in triangles), (s, t)

"""Measurement tests: named bounds, exact spanning ratios, shortest paths,
restricted-path and approximation checks, and the instance generators."""

import json
import math

import numpy as np
import pytest

from spannerkit import (
    THETA5_WITNESS_FACTOR,
    ConeSystem,
    InvalidParameter,
    Point,
    PointSet,
    RatioReport,
    SpannerGraph,
    angle_alpha,
    bound_value,
    build_g9,
    build_g12,
    build_half_theta6,
    build_rotated_union,
    build_theta,
    build_yao,
    canonical_triangle,
    g9_approximation_check,
    gen_circle,
    gen_random,
    gen_routing_lb,
    path_length,
    restricted_pair_check,
    shortest_path,
    spanning_ratio,
    theta5_witness_path,
    verify_bound,
)
from spannerkit.build import _HintTable

from oracles import oracle_shortest_path

S3 = math.sqrt(3.0)


class TestBoundValue:
    def test_closed_forms(self):
        assert bound_value("theta", k=7) == pytest.approx(1 / (1 - 2 * math.sin(math.pi / 7)))
        assert bound_value("yao", k=12) == pytest.approx(1 / (1 - 2 * math.sin(math.pi / 12)))
        assert bound_value("yao_odd", k=5) == pytest.approx(1 / (1 - 2 * math.sin(3 * math.pi / 20)))
        assert bound_value("yao5") == 2 + S3
        assert bound_value("theta4") == 17.0
        assert bound_value("half_theta6") == 2.0
        assert bound_value("theta5") == pytest.approx(math.sqrt(50 + 22 * math.sqrt(5)))
        assert bound_value("theta5_lower") == pytest.approx((11 * math.sqrt(5) - 17) / 2)
        assert bound_value("rotated_union", m=1) == pytest.approx(2.0)
        assert bound_value("rotated_union", m=2) == pytest.approx(1.9318516525781366)
        assert bound_value("pair_alpha", alpha=0.0) == pytest.approx(S3)
        assert bound_value("pair_alpha", alpha=math.pi / 6) == pytest.approx(2.0)
        assert bound_value("routing_negative", alpha=0.0) == pytest.approx(5 / S3)
        assert bound_value("routing_negative", alpha=math.pi / 6) == pytest.approx(2.0)

    def test_larger_m_tightens_the_rotated_bound(self):
        values = [bound_value("rotated_union", m=m) for m in range(1, 6)]
        assert values == sorted(values, reverse=True)
        assert values[-1] > S3

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("theta", {"k": 6}),
            ("theta", {}),
            ("yao", {"k": 5}),
            ("yao_odd", {"k": 4}),
            ("yao_odd", {"k": 3}),
            ("rotated_union", {"m": 0}),
            ("rotated_union", {}),
            ("pair_alpha", {}),
            ("routing_negative", {}),
            ("no_such_bound", {}),
            ("theta", {"k": "six"}),
            ("theta", {"k": 7.5}),
            ("rotated_union", {"m": "two"}),
            ("rotated_union", {"m": 2.5}),
            ("rotated_union", {"m": True}),
        ],
    )
    def test_rejects_bad_parameters(self, name, kwargs):
        with pytest.raises(InvalidParameter):
            bound_value(name, **kwargs)

    def test_counts_follow_the_vertex_id_rule(self):
        assert bound_value("theta", k=np.int64(7)) == bound_value("theta", k=7)
        assert bound_value("rotated_union", m=np.int32(2)) == bound_value("rotated_union", m=2)
        with pytest.raises(InvalidParameter, match=r"^bound 'theta': k must be an integer, got True$"):
            bound_value("theta", k=True)
        with pytest.raises(InvalidParameter, match=r"^bound 'rotated_union': m must be an integer, got 2\.0$"):
            bound_value("rotated_union", m=2.0)


class TestSpanningRatio:
    def test_single_point(self):
        rep = spanning_ratio(SpannerGraph("x", None, PointSet([Point(0, 0.0, 0.0)]), []))
        assert rep.max_ratio == 1.0 and rep.witness is None

    def test_ratio_at_least_one_with_exact_witness(self):
        g = build_half_theta6(gen_random(30, 17))
        rep = spanning_ratio(g)
        assert rep.max_ratio >= 1.0
        u, v = rep.witness
        path, length = shortest_path(g, u, v)
        pu, pv = g.points[u], g.points[v]
        direct = math.hypot(pv.x - pu.x, pv.y - pu.y)
        assert length / direct == rep.max_ratio

    def test_disconnected_graph_reports_inf(self):
        ps = PointSet([Point(i, float(i), 0.25 * i * i) for i in range(4)])
        g = SpannerGraph("x", None, ps, [(0, 1), (2, 3)])
        rep = spanning_ratio(g)
        assert math.isinf(rep.max_ratio)
        assert rep.witness == (0, 2)
        assert json.loads(rep.to_json())["max_ratio"] == "inf"

    def test_nan_ratio_reports_nan(self):
        # No point set gives a NaN ratio; a report built by hand still names it.
        assert json.loads(RatioReport(math.nan, None).to_json())["max_ratio"] == "nan"

    def test_per_pair_table(self):
        g = build_half_theta6(gen_random(12, 3))
        rep = spanning_ratio(g, per_pair=True)
        assert len(rep.per_pair) == 12 * 11 // 2
        for row in rep.per_pair:
            assert row["ratio"] == row["graph_distance"] / row["euclidean"]
            assert row["u"] < row["v"]
        assert max(row["ratio"] for row in rep.per_pair) == rep.max_ratio

    def test_path_graph_ratio(self):
        # Three collinear-ish points chained: ratio realized end to end.
        ps = PointSet([Point(0, 0.0, 0.0), Point(1, 1.0, 0.4), Point(2, 2.0, 0.0)])
        g = SpannerGraph("x", None, ps, [(0, 1), (1, 2)])
        rep = spanning_ratio(g)
        assert rep.witness == (0, 2)
        assert rep.max_ratio == pytest.approx(2 * math.hypot(1.0, 0.4) / 2.0)


class TestVerifyBound:
    def test_half_theta6_passes_its_bound(self):
        rep = verify_bound(build_half_theta6(gen_random(40, 23)))
        assert rep.bound == 2.0
        assert rep.bound_name == "half_theta6"
        assert rep.passed is True

    def test_negative_tolerance_can_fail(self):
        rep = verify_bound(build_half_theta6(gen_random(40, 23)), tolerance=-1.5)
        assert rep.passed is False

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, "x", True])
    def test_non_finite_tolerance_rejected(self, tolerance):
        h = build_half_theta6(gen_random(20, 1))
        with pytest.raises(InvalidParameter, match="tolerance must be finite"):
            verify_bound(h, tolerance=tolerance)
        with pytest.raises(InvalidParameter, match="tolerance must be finite"):
            restricted_pair_check(h, 0, 1, tolerance=tolerance)
        with pytest.raises(InvalidParameter, match="tolerance must be finite"):
            g9_approximation_check(h, build_g9(h), tolerance=tolerance)

    def test_explicit_name_overrides_kind(self):
        g = build_theta(gen_random(30, 11), 12)
        rep = verify_bound(g, name="theta")
        assert rep.bound == pytest.approx(bound_value("theta", k=12))

    def test_only_the_rotated_union_bound_reads_metadata(self, monkeypatch):
        # Each read of a g9's metadata writes its hint table's text; a named
        # bound other than rotated_union needs no m, so it reads none.
        ps = gen_random(30, 11)
        g9 = build_g9(build_half_theta6(ps))
        writes = []
        to_json = _HintTable.to_json
        monkeypatch.setattr(_HintTable, "to_json", lambda *a: writes.append(a) or to_json(*a))
        for name in ("half_theta6", "theta5"):
            assert verify_bound(g9, name).bound_name == name
        assert writes == []
        rep = verify_bound(build_rotated_union(ps, 3), name="rotated_union")
        assert rep.bound == bound_value("rotated_union", m=3)

    def test_five_and_four_cone_defaults(self):
        ps = gen_random(30, 11)
        rep = verify_bound(build_yao(ps, 5))
        assert (rep.bound_name, rep.bound) == ("yao5", 2 + S3)
        rep = verify_bound(build_theta(ps, 4))
        assert (rep.bound_name, rep.bound) == ("theta4", 17.0)
        # yao_odd still names the general odd-k bound.
        rep = verify_bound(build_yao(ps, 5), name="yao_odd")
        assert rep.bound == bound_value("yao_odd", k=5)

    @pytest.mark.parametrize("kind, k", [("yao", 2), ("yao", 3), ("yao", 4), ("yao", 6),
                                         ("theta", 2), ("theta", 3)])
    def test_small_k_without_a_bound_rejected(self, kind, k):
        build = build_yao if kind == "yao" else build_theta
        with pytest.raises(InvalidParameter, match=f"bound '{kind}{k}' is missing"):
            verify_bound(build(gen_random(12, 4), k))

    def test_unregistered_kind_rejected(self):
        from spannerkit import build_mst

        with pytest.raises(InvalidParameter):
            verify_bound(build_mst(gen_random(8, 2)))


class TestShortestPath:
    def test_matches_report_and_edge_sum(self):
        g = build_half_theta6(gen_random(25, 31))
        ids = sorted(p.id for p in g.points)
        for s, t in [(0, 24), (3, 17), (10, 11)]:
            path, length = shortest_path(g, s, t)
            assert path[0] == s and path[-1] == t
            assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
            assert length == pytest.approx(path_length(g.points, path), abs=1e-12)
            assert len(set(path)) == len(path)
        assert ids == list(range(25))

    def test_prefers_smaller_ids_on_ties(self):
        ps = PointSet(
            [Point(0, 0.0, 0.0), Point(1, -1.0, 1.0), Point(2, 1.0, 1.0), Point(3, 0.0, 2.0)]
        )
        g = SpannerGraph("x", None, ps, [(0, 1), (0, 2), (1, 3), (2, 3)])
        path, length = shortest_path(g, 0, 3)
        assert path == [0, 1, 3]
        assert length == pytest.approx(2 * math.sqrt(2))

    def test_matches_the_full_dijkstra(self):
        # The Dijkstra stops once s is popped; every ordered pair gets the
        # path and length of the run over all vertices.
        graphs = [build_half_theta6(gen_random(48, seed)) for seed in (3, 11, 29)]
        base = gen_random(48, 5)
        for scale in (1e150, 1e-150, 1e200):
            scaled = PointSet([Point(p.id, p.x * scale, p.y * scale) for p in base])
            graphs.append(build_half_theta6(scaled))
        graphs += [build_yao(base, 5), build_theta(base, 7)]
        for g in graphs:
            for s in range(48):
                for t in range(48):
                    if s != t:
                        assert shortest_path(g, s, t) == oracle_shortest_path(g, s, t), (g.kind, s, t)

    def test_unreachable_target_raises(self):
        ps = PointSet([Point(0, 0.0, 0.0), Point(1, 1.0, 0.0), Point(2, 2.0, 0.1)])
        g = SpannerGraph("x", None, ps, [(0, 1)])
        with pytest.raises(InvalidParameter, match="no path from 0 to 2"):
            shortest_path(g, 0, 2)

    def test_unknown_vertex_raises(self):
        ps = PointSet([Point(0, 0.0, 0.0), Point(1, 1.0, 0.0)])
        g = SpannerGraph("x", None, ps, [(0, 1)])
        for v, text in ((7, "7"), ([0], r"\[0\]"), (True, "True"), (1.0, r"1\.0")):
            for s, t in ((0, v), (v, 0)):
                with pytest.raises(InvalidParameter, match=f"vertex {text} is not in the graph"):
                    shortest_path(g, s, t)


class TestRestrictedPairCheck:
    def test_stays_inside_triangle_and_under_bound(self):
        ps = gen_random(40, 47)
        h = build_half_theta6(ps)
        cs = ConeSystem(6)
        checked = 0
        for u in range(0, 40, 7):
            for w in range(40):
                if u == w or cs.cone_of(ps[u], ps[w]) % 2 == 1:
                    continue
                res = restricted_pair_check(h, u, w)
                assert res["ok"], (u, w, res)
                assert res["path"][0] == u and res["path"][-1] == w
                tri = canonical_triangle(cs, ps[u], ps[w])
                for v in res["path"][1:-1]:
                    assert tri.contains(ps[v])
                alpha = angle_alpha(cs, ps[u], ps[w])
                direct = math.hypot(ps[w].x - ps[u].x, ps[w].y - ps[u].y)
                assert res["bound"] == pytest.approx(
                    (S3 * math.cos(alpha) + math.sin(alpha)) * direct
                )
                checked += 1
        assert checked > 30

    def test_negative_end_first_is_certified_from_the_apex(self):
        # 118 lies in negative cone 3 of 176: the pair's triangle has apex 118.
        h = build_half_theta6(gen_random(256, 7))
        got = restricted_pair_check(h, 176, 118)
        ref = restricted_pair_check(h, 118, 176)
        assert got["path"] == ref["path"][::-1]
        assert (got["length"], got["bound"], got["ok"]) == (ref["length"], ref["bound"], ref["ok"])

    def test_unknown_vertex_raises(self):
        h = build_half_theta6(gen_random(20, 1))
        for v, text in ((70, "70"), ([0], r"\[0\]"), (True, "True"), (1.0, r"1\.0")):
            for u, w in ((0, v), (v, 0)):
                with pytest.raises(InvalidParameter, match=f"vertex {text} is not in the graph"):
                    restricted_pair_check(h, u, w)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, "x", True])
    def test_non_finite_bound_rejected(self, bound):
        # A NaN bound used to return ok False, and "x" raised TypeError.
        h = build_half_theta6(gen_random(24, 3))
        with pytest.raises(InvalidParameter, match="bound must be finite"):
            restricted_pair_check(h, 0, 1, bound=bound)

    def test_explicit_bound_can_fail(self):
        ps = gen_random(20, 47)
        h = build_half_theta6(ps)
        cs = ConeSystem(6)
        for w in range(1, 20):
            if cs.cone_of(ps[0], ps[w]) % 2 == 0:
                res = restricted_pair_check(h, 0, w, bound=1e-12)
                assert not res["ok"]
                break

    def test_extreme_alpha_instance_realizes_factor_two(self):
        ps = gen_routing_lb("positive", alpha=math.pi / 6, nudge=1e-5)
        h = build_half_theta6(ps)
        res = restricted_pair_check(h, 0, 1)
        direct = math.hypot(ps[1].x, ps[1].y)
        assert res["path"] == [0, 2, 1]
        assert res["length"] / direct == pytest.approx(2.0, abs=1e-3)
        assert res["ok"]


class TestG9ApproximationCheck:
    def test_holds_on_random_sets(self):
        for seed in (61, 62):
            h = build_half_theta6(gen_random(48, seed))
            ok, records = g9_approximation_check(h, build_g9(h))
            assert ok
            assert records
            for rec in records:
                assert rec["path"] <= 3.0 * rec["edge"] + 1e-9
                assert rec["canonical_portion"] <= 2.0 * rec["edge"] + 1e-9

    def test_rejects_a_g9_of_other_points(self):
        h = build_half_theta6(gen_random(60, 1))
        other = build_g9(build_half_theta6(gen_random(60, 2)))
        with pytest.raises(InvalidParameter, match="not over the points of h"):
            g9_approximation_check(h, other)

    def test_rejects_a_g9_that_is_not_the_g9_of_h(self):
        # A caller's graph used to raise InternalInvariantViolation here.
        ps = gen_random(40, 3)
        h = build_half_theta6(ps)
        g9 = build_g9(h)
        g = SpannerGraph("g9", 6, ps, g9.edge_list()[1:], g9.metadata)
        with pytest.raises(InvalidParameter, match=r"edge \(0, 4\) missing: g9 is not the g9 graph of h"):
            g9_approximation_check(h, g)

    def test_rejects_a_graph_that_is_not_g9(self):
        h = build_half_theta6(gen_random(60, 1))
        for g in (h, build_g12(h)):
            with pytest.raises(InvalidParameter, match="expected a g9 graph"):
                g9_approximation_check(h, g)


class TestTheta5Witness:
    def test_paths_are_valid_and_short(self):
        # On the 4x4 integer grid, a search of its own in a mirrored frame
        # used to pick a vertex that is not the graph's edge for 22 of the
        # 240 pairs.
        grid = PointSet.from_pairs([(i, j) for i in range(4) for j in range(4)])
        cs = ConeSystem(5)
        for ps, pairs in (
            (gen_random(40, 71), [(u, w) for u in range(0, 40, 5) for w in range(2, 40, 7)]),
            (grid, [(u, w) for u in grid.ids for w in grid.ids]),
        ):
            g = build_theta(ps, 5)
            for u, w in pairs:
                if u == w:
                    continue
                path = theta5_witness_path(g, u, w)
                assert path[0] == u and path[-1] == w
                assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
                size = canonical_triangle(cs, ps[u], ps[w]).size
                assert path_length(ps, path) <= THETA5_WITNESS_FACTOR * size + 1e-9

    def test_rejects_bad_arguments(self):
        ps = gen_random(10, 71)
        g5 = build_theta(ps, 5)
        with pytest.raises(InvalidParameter):
            theta5_witness_path(build_theta(ps, 6), 0, 1)
        with pytest.raises(InvalidParameter):
            theta5_witness_path(g5, 3, 3)
        with pytest.raises(InvalidParameter):
            theta5_witness_path(g5, 0, 99)
        # Without one of its edges the graph is not the theta-5 graph of its
        # points: a bad argument, not a bug.
        ps = gen_random(40, 2000)
        tampered = SpannerGraph("theta", 5, ps, build_theta(ps, 5).edge_list()[1:])
        with pytest.raises(InvalidParameter, match="not the theta-5 graph"):
            theta5_witness_path(tampered, 0, 12)


class TestGenerators:
    def test_circle_layout(self):
        ps = gen_circle(12, radius=2.5)
        for p in ps:
            assert math.hypot(p.x, p.y) == pytest.approx(2.5)
        a0 = math.atan2(ps[1].y, ps[1].x)
        assert a0 == pytest.approx(2 * math.pi / 12)

    def test_circle_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameter):
            gen_circle(1)
        with pytest.raises(InvalidParameter):
            gen_circle(10, radius=0.0)
        for n in (2.5, "4", None):
            with pytest.raises(InvalidParameter):
                gen_circle(n)
        for radius in ("1", None, math.nan, True):
            with pytest.raises(InvalidParameter):
                gen_circle(10, radius=radius)

    def test_routing_lb_variants(self):
        pos = gen_routing_lb("positive")
        assert len(list(pos)) == 3
        for variant in ("negative_a", "negative_b"):
            ps = gen_routing_lb(variant)
            assert len(list(ps)) == 5
        # The two negative variants present identical edge directions at the
        # apex, so a router standing there cannot distinguish them.
        ha = build_half_theta6(gen_routing_lb("negative_a"))
        hb = build_half_theta6(gen_routing_lb("negative_b"))
        assert {v for v in ha.neighbors(1)} == {v for v in hb.neighbors(1)}

    def test_routing_lb_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameter):
            gen_routing_lb("sideways")
        with pytest.raises(InvalidParameter):
            gen_routing_lb("positive", alpha=-0.1)
        with pytest.raises(InvalidParameter):
            gen_routing_lb("positive", alpha=math.pi / 3)
        with pytest.raises(InvalidParameter):
            gen_routing_lb("positive", nudge=0.0)
        with pytest.raises(InvalidParameter):
            gen_routing_lb("negative_a", alpha=math.pi / 6)
        with pytest.raises(InvalidParameter):
            gen_routing_lb("positive", alpha="x")
        with pytest.raises(InvalidParameter):
            gen_routing_lb("positive", alpha=False)
        with pytest.raises(InvalidParameter):
            gen_routing_lb("positive", nudge=True)

    def test_path_length_sums_segments(self):
        ps = PointSet([Point(0, 0.0, 0.0), Point(1, 3.0, 4.0), Point(2, 3.0, 0.0)])
        assert path_length(ps, [0, 1, 2]) == pytest.approx(9.0)
        assert path_length(ps, [0]) == 0.0
        for bad in (99, [1], True, 1.0, None):
            with pytest.raises(InvalidParameter):
                path_length(ps, [0, bad])


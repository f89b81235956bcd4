import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spannerkit import (
    CanonicalTriangle,
    ConeSystem,
    DegenerateInput,
    InvalidParameter,
    Point,
    PointSet,
    angle_alpha,
    canonical_triangle,
    general_position_report,
    points_from_json,
    points_to_json,
    theta_projection,
)
from spannerkit import kernels
from spannerkit.geometry import direction

from oracles import oracle_cone_index

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
cone_counts = st.integers(min_value=2, max_value=16)


def vec(strategy=finite):
    # Reject near-subnormal vectors: hypot underflows there and the
    # sin/cos reconstruction checks stop being meaningful.
    return st.tuples(strategy, strategy).filter(lambda v: math.hypot(*v) > 1e-150)


class TestConeSystem:
    def test_theta_times_k_is_full_turn(self):
        for k in range(2, 13):
            assert ConeSystem(k).theta * k == pytest.approx(2 * math.pi, abs=1e-12)

    def test_rejects_bad_cone_counts(self):
        for bad in (1, 0, -3, 2.5, "6"):
            with pytest.raises(InvalidParameter):
                ConeSystem(bad)

    def test_worked_examples(self):
        # East lands in cone 1 of a 4-cone system: the boundary at 45 degrees
        # belongs to cone 0, east itself is past it.
        assert ConeSystem(4).cone_of((0, 0), (1, 0)) == 1
        # 36 degrees is exactly the first boundary of a 5-cone system and the
        # boundary belongs to the counter-clockwise cone.
        p = (math.sin(math.radians(36)), math.cos(math.radians(36)))
        assert ConeSystem(5).cone_of((0, 0), p) == 0
        # The diagonal sits in cone 1 of the 6-cone system.
        assert ConeSystem(6).cone_of((0, 0), (1, 1)) == 1

    def test_boundary_belongs_to_ccw_cone(self):
        for k in (4, 5, 6, 9):
            cs = ConeSystem(k)
            for i, az in enumerate(cs.boundary_azimuths()):
                assert cs.cone_of((0, 0), direction(az)) == i

    def test_cone_index_on_exact_boundaries(self):
        for k in (4, 5, 6, 7, 9, 12):
            theta = 2 * math.pi / k
            for i in range(k):
                az = i * theta + theta / 2
                dx, dy = math.sin(az), math.cos(az)
                assert kernels.cone_index(dx, dy, k) == i

    def test_cone_of_identical_points_rejected(self):
        with pytest.raises(DegenerateInput):
            ConeSystem(6).cone_of((1, 2), (1, 2))

    def test_half_theta6_positive_negative_opposition(self):
        # v in an even cone of u exactly when u is in the opposite cone of v.
        cs = ConeSystem(6)
        u, v = (0.13, -0.4), (0.55, 0.71)
        cu = cs.cone_of(u, v)
        cv = cs.cone_of(v, u)
        assert (cu + 3) % 6 == cv

    @given(v=vec(), k=cone_counts)
    @settings(max_examples=300)
    def test_cone_index_matches_interval_oracle(self, v, k):
        dx, dy = v
        cs = ConeSystem(k)
        az = cs.azimuth((0, 0), (dx, dy))
        # offset[i]: az less cone i's clockwise boundary, wrapped to [-pi, pi).
        offset = [(az - b + math.pi) % (2 * math.pi) - math.pi for b in cs.boundary_azimuths()]
        gap = min(map(abs, offset))
        # Skip the knife edge where the two eps formulations may round apart.
        assume(not 1e-10 < gap < 3e-9)
        # The rule by intervals: cone i covers (i*theta - theta/2, i*theta +
        # theta/2], and a direction within eps of a boundary belongs to the
        # cone that boundary closes clockwise.
        if gap <= 1e-10:
            expected = min(range(k), key=lambda i: abs(offset[i]))
        else:
            expected = next(i for i in range(k) if -cs.theta < offset[i] <= 0.0)
        assert cs.cone_of((0, 0), (dx, dy)) == expected == oracle_cone_index(dx, dy, k)

    @given(v=vec(), k=cone_counts)
    @settings(max_examples=200)
    def test_azimuth_range_and_direction_roundtrip(self, v, k):
        cs = ConeSystem(k)
        az = cs.azimuth((0, 0), v)
        assert 0.0 <= az < 2 * math.pi
        ux, uy = direction(az)
        n = math.hypot(*v)
        assert math.isclose(ux, v[0] / n, abs_tol=1e-9)
        assert math.isclose(uy, v[1] / n, abs_tol=1e-9)


class TestProjectionAndAlpha:
    @given(v=vec(), k=cone_counts)
    # About ANGLE_EPS past the boundary of two half-planes, where the floor is tight.
    @example(v=(-1.0, 1e-9), k=2)
    @settings(max_examples=200)
    def test_projection_between_cos_half_theta_and_full_length(self, v, k):
        cs = ConeSystem(k)
        proj = theta_projection(cs, (0, 0), v)
        n = math.hypot(*v)
        assert proj <= n + 1e-12 * n
        assert proj >= n * math.cos(cs.theta / 2) - 1e-9 * n

    @given(v=vec(), k=cone_counts)
    @settings(max_examples=200)
    def test_alpha_in_half_cone_and_consistent_with_projection(self, v, k):
        cs = ConeSystem(k)
        alpha = angle_alpha(cs, (0, 0), v)
        assert -1e-12 <= alpha <= cs.theta / 2 + 1e-9
        n = math.hypot(*v)
        assert theta_projection(cs, (0, 0), v) == pytest.approx(
            n * math.cos(alpha), rel=1e-9
        )


class TestCanonicalTriangle:
    def tri(self, k=6, u=(0.0, 0.0), w=(0.3, 0.9)):
        return canonical_triangle(ConeSystem(k), u, w)

    def test_apex_sides_equal_size(self):
        t = self.tri()
        assert math.dist(t.apex, t.corner_a) == pytest.approx(t.size, rel=1e-12)
        assert math.dist(t.apex, t.corner_b) == pytest.approx(t.size, rel=1e-12)

    def test_size_formula(self):
        cs = ConeSystem(6)
        u, w = (0.0, 0.0), (0.3, 0.9)
        t = canonical_triangle(cs, u, w)
        alpha = angle_alpha(cs, u, w)
        expect = math.dist(u, w) * math.cos(alpha) / math.cos(cs.theta / 2)
        assert t.size == pytest.approx(expect, rel=1e-12)

    def test_target_on_far_side_and_contained(self):
        cs = ConeSystem(6)
        u, w = (0.1, -0.2), (0.45, 0.73)
        t = canonical_triangle(cs, u, w)
        assert t.contains(u)
        assert t.contains(w)
        ax, ay = t.corner_a
        bx, by = t.corner_b
        cross = (bx - ax) * (w[1] - ay) - (by - ay) * (w[0] - ax)
        assert abs(cross) <= 1e-9 * math.dist((ax, ay), (bx, by))

    def test_midpoint_is_far_side_midpoint(self):
        t = self.tri()
        mx = (t.corner_a[0] + t.corner_b[0]) / 2
        my = (t.corner_a[1] + t.corner_b[1]) / 2
        assert t.midpoint_m == pytest.approx((mx, my), abs=1e-12)

    def test_balance_point_equalizes_the_two_triangles(self):
        cs = ConeSystem(6)
        t = self.tri()
        x = t.balance_x
        assert t.contains(x)
        fwd = canonical_triangle(cs, t.apex, x)
        back = canonical_triangle(cs, x, t.apex)
        assert fwd.size == pytest.approx(back.size, rel=1e-9)

    @given(
        u=st.tuples(finite, finite),
        w=st.tuples(finite, finite),
        p=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        k=cone_counts,
    )
    @settings(max_examples=200)
    def test_contained_points_within_size_of_apex(self, u, w, p, k):
        assume(u != w)
        t = canonical_triangle(ConeSystem(k), u, w)
        assume(t.size > 1e-6)
        # Sample inside via barycentric weights.
        s, r = p
        if s + r > 1:
            s, r = 1 - s, 1 - r
        q = (
            t.apex[0] + s * (t.corner_a[0] - t.apex[0]) + r * (t.corner_b[0] - t.apex[0]),
            t.apex[1] + s * (t.corner_a[1] - t.apex[1]) + r * (t.corner_b[1] - t.apex[1]),
        )
        assert t.contains(q)
        assert math.dist(t.apex, q) <= t.size * (1 + 1e-9)

    @given(
        u=st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
        w=st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
        scale=st.integers(-200, 200),
        k=st.sampled_from([5, 6, 7, 9]),
    )
    @settings(max_examples=300)
    def test_projection_is_theta_projection_bitwise(self, u, w, scale, k):
        cs = ConeSystem(k)
        u = (u[0] * 10.0**scale, u[1] * 10.0**scale)
        w = (w[0] * 10.0**scale, w[1] * 10.0**scale)
        assume(u != w)
        got = canonical_triangle(cs, u, w).projection
        assert got.hex() == theta_projection(cs, u, w).hex()

    def test_frozen(self):
        t = self.tri()
        assert isinstance(t, CanonicalTriangle)
        with pytest.raises(AttributeError):
            t.size = 2.0


class TestPointSet:
    def test_duplicate_id_rejected(self):
        with pytest.raises(DegenerateInput):
            PointSet([Point(0, 0.0, 0.0), Point(0, 1.0, 1.0)])

    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(DegenerateInput):
            PointSet([Point(0, 0.5, 0.5), Point(1, 0.5, 0.5)])

    def test_from_pairs_sequential_ids(self):
        ps = PointSet.from_pairs([(0.0, 0.0), (1.0, 0.5)])
        assert ps.ids == [0, 1]
        assert ps[1].xy == (1.0, 0.5)

    def test_json_roundtrip_identity_and_stability(self):
        # In id order, and out of it: a points file keeps insertion order.
        for ps in (PointSet.from_pairs([(0.0, 0.0), (0.25, 1.0), (-3.125, 2.5)]),
                   PointSet([Point(7, 0.0, 0.0), Point(-2, 0.25, 1.0), Point(3, -3.125, 2.5)])):
            doc = points_to_json(ps)
            assert [r["id"] for r in json.loads(doc)["points"]] == ps.ids
            again = points_from_json(doc)
            assert again == ps
            assert points_to_json(again) == doc

    def test_malformed_json_rejected(self):
        for text in (
            '{"points":[{"id":0}]}',
            "not json",
            '{"points":[{"id":0,"x":"abc","y":0.0}]}',
            '{"points":[{"id":0,"x":1' + "0" * 400 + ',"y":0.0}]}',
            # Ids that int() would truncate to another id.
            '{"points":[{"id":1.7,"x":0.0,"y":0.0}]}',
            '{"points":[{"id":true,"x":0.0,"y":0.0}]}',
            # Strings and bools that int() and float() would coerce.
            '{"points":[{"id":"3","x":0.0,"y":0.0}]}',
            '{"points":[{"id":3,"x":true,"y":0.0}]}',
            '{"points":[{"id":3,"x":0.0,"y":"1.5"}]}',
        ):
            with pytest.raises(InvalidParameter):
                points_from_json(text)

    def test_ids_are_integers_that_are_not_bools(self):
        # True and 1.0 used to find point 1, and a string id made a set
        # that points_to_json wrote but points_from_json rejected.
        ps = PointSet.from_pairs([(0.0, 0.0), (1.0, 0.5)])
        for bad in (True, 1.0, [1]):
            with pytest.raises(KeyError):
                ps[bad]
            assert bad not in ps
        assert ps[np.int64(1)] is ps[1]
        for bad in ("a", True, 1.5):
            with pytest.raises(InvalidParameter, match="point id must be an integer"):
                PointSet([Point(0, 0.0, 0.0), Point(bad, 1.0, 1.0)])

    def test_numpy_integer_ids_are_stored_as_int(self):
        # They used to make points_to_json raise TypeError.
        ps = PointSet([Point(np.int64(5), 0.0, 0.0), Point(np.uint8(2), 1.0, 0.5)])
        assert ps.ids == [2, 5] and all(type(i) is int for i in ps.ids)
        assert points_from_json(points_to_json(ps)) == ps

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        with pytest.raises(InvalidParameter):
            PointSet([Point(0, 0.0, 0.0), Point(1, bad, 1.0)])
        with pytest.raises(InvalidParameter):
            PointSet([Point(0, 0.0, bad)])
        doc = points_to_json(PointSet.from_pairs([(0.0, 0.0), (1.0, 1.0)]))
        with pytest.raises(InvalidParameter):
            points_from_json(doc.replace("1.0", json.dumps(bad), 1))

    # Each set breaks two or more rules: the error names the first point in
    # input order that breaks one, and the first rule it breaks (its id, then
    # finite coordinates, then a repeated id, then repeated coordinates), as
    # a loop over the points does. Pinned on that loop's output.
    @pytest.mark.parametrize("points,error,message", [
        ([Point(0, 0.0, 0.0), Point("a", 1.0, 1.0), Point(2, math.inf, 0.0), Point(0, 3.0, 3.0)],
         InvalidParameter, "point id must be an integer, got 'a'"),
        ([Point(np.int64(0), 0.0, 0.0), Point(np.int64(1), math.nan, 1.0), Point(True, 2.0, 2.0)],
         InvalidParameter, "point 1 has a non-finite coordinate (nan, 1.0)"),
        ([Point(np.int64(3), 0.0, 0.0), Point(3, 1.0, 1.0), Point(4, 0.0, 0.0)],
         DegenerateInput, "duplicate point id 3"),
        ([Point(0, 0.5, 0.5), Point(1, 0.5, 0.5), Point(1, 2.0, 2.0)],
         DegenerateInput, "duplicate coordinates for point 1"),
        ([Point(0, 0.0, 0.0), Point(np.uint8(0), -0.0, 0.0)],
         DegenerateInput, "duplicate point id 0"),
        ([Point(0, 1.0, 1.0), Point(1, -0.0, 2.0), Point(2, 0.0, 2.0), Point(2, math.inf, 3.0)],
         DegenerateInput, "duplicate coordinates for point 2"),
        ([Point(5, 0.0, 0.0), Point(np.uint8(7), 1.0, 1.0), Point(np.int32(5), 1.0, -math.inf)],
         InvalidParameter, "point 5 has a non-finite coordinate (1.0, -inf)"),
        ([Point(9, 1.0, 1.0), Point(8, 2.0, 2.0), Point(7, 1.0, 1.0), Point(8, 3.0, 3.0)],
         DegenerateInput, "duplicate coordinates for point 7"),
        ([Point(0, 5.0, 5.0), Point(1, 1.0, 1.0), Point(2, 5.0, 5.0), Point(3, 1.0, 1.0)],
         DegenerateInput, "duplicate coordinates for point 2"),
        ([Point(2, 0.0, 0.0), Point(1, 1.0, 1.0), Point(1.0, 2.0, 2.0), Point(1, 3.0, 3.0)],
         InvalidParameter, "point id must be an integer, got 1.0"),
        ([Point(0, math.inf, 1.0), Point(1, math.inf, 1.0)],
         InvalidParameter, "point 0 has a non-finite coordinate (inf, 1.0)"),
        ([Point(np.int64(4), 0.0, 1.0), Point(np.int16(-2), 1.0, 0.0), Point(np.int64(-2), 1.0, 0.0)],
         DegenerateInput, "duplicate point id -2"),
    ])
    def test_first_offender_is_named(self, points, error, message):
        with pytest.raises(error) as info:
            PointSet(points)
        assert type(info.value) is error and str(info.value) == message

    def test_coordinates_are_real_numbers_stored_as_floats(self):
        # Integer coordinates used to be written as 1, which reloads as 1.0,
        # and numpy floats and Fractions made points_to_json raise TypeError.
        ps = PointSet([Point(0, 1, 2), Point(1, np.float32(0.5), Fraction(1, 3)), Point(2, np.int64(-3), 0.25)])
        doc = points_to_json(ps)
        assert '"x":1.0,"y":2.0' in doc and '"x":-3.0' in doc
        assert points_to_json(points_from_json(doc)) == doc
        assert ps == PointSet.from_pairs([(1.0, 2.0), (0.5, 1 / 3), (-3.0, 0.25)])
        assert all(type(v) is float for p in ps for v in p.xy)
        # A bool is no coordinate (it was written as true, which the loader
        # rejects), nor is a string or None; 10**400 overflows a float.
        for bad in (True, np.bool_(False), "1.5", None, 10**400, 1j):
            with pytest.raises(InvalidParameter, match="coordinate must be a real number"):
                PointSet([Point(0, 0.0, 0.0), Point(1, bad, 1.0)])
            with pytest.raises(InvalidParameter, match="coordinate must be a real number"):
                PointSet([Point(0, 0.0, bad)])
        # The rule takes its place among the others: after the id, before
        # finiteness and repeats.
        with pytest.raises(InvalidParameter, match="id must be an integer"):
            PointSet([Point(0, 0.0, 0.0), Point("b", None, 1.0)])
        with pytest.raises(InvalidParameter, match=r"^point 1 coordinate must be a real number, got '2'$"):
            PointSet([Point(0, 0.0, 0.0), Point(1, math.inf, "2"), Point(0, 0.0, 0.0)])

    def test_extents_must_have_a_finite_diagonal(self):
        # In the second set each extent is finite, but not their diagonal.
        for pairs in ([(-1.5e308, 0.0), (1.5e308, 0.0), (0.0, 1.0)], [(0.0, 0.0), (1.7e308, 0.0), (0.0, 1.7e308)]):
            with pytest.raises(DegenerateInput, match=r"^coordinate differences overflow: .*extents"):
                PointSet.from_pairs(pairs)
            doc = '{"points":[%s]}' % ",".join(
                '{"id":%d,"x":%r,"y":%r}' % (i, x, y) for i, (x, y) in enumerate(pairs))
            with pytest.raises(DegenerateInput, match="extent"):
                points_from_json(doc)
        # The per-point rules come first.
        with pytest.raises(DegenerateInput, match="^duplicate point id 0$"):
            PointSet([Point(0, -1.5e308, 0.0), Point(0, 1.5e308, 0.0)])
        assert len(PointSet.from_pairs([(0.0, 0.0), (1.7e308, 0.0), (1e308, 1e153)])) == 3
        assert len(PointSet.from_pairs([(-1.7e308, 1.7e308)])) == 1

    def test_from_pairs_follows_the_coordinate_rule(self):
        # from_pairs converted with float(), so ("1.5", True) loaded as (1.5, 1.0).
        for bad in ("1.5", True, None, 10**400):
            with pytest.raises(InvalidParameter, match=rf"^point 0 coordinate must be a real number, got {bad!r}$"):
                PointSet.from_pairs([(bad, 0.5)])
            with pytest.raises(InvalidParameter, match=rf"^point 1 coordinate must be a real number, got {bad!r}$"):
                PointSet.from_pairs([(0.0, 0.0), (0.5, bad)])
        ints = PointSet.from_pairs(iter([(1, 2), (np.int64(-3), Fraction(1, 4))]))
        assert ints == PointSet.from_pairs([(1.0, 2.0), (-3.0, 0.25)])
        assert all(type(v) is float for p in ints for v in p.xy)
        assert PointSet.from_pairs(np.array([[0.5, 0.25], [1.0, 2.0]])) == PointSet.from_pairs([(0.5, 0.25), (1.0, 2.0)])
        assert PointSet.from_pairs(p for p in ()) == PointSet([])
        assert len(PointSet.from_pairs([])) == 0

    def test_columns_are_the_point_set(self):
        # One stored table in id order: the ids and read-only float64 columns.
        ps = PointSet.from_pairs([(0.5, 0.25), (-1.0, 2.0), (3.0, -0.0)])
        ids, x, y = ps.arrays
        assert ids == (0, 1, 2) and vars(ps)["arrays"] is ps.arrays
        assert not {"_ids", "_x", "_y", "_order"} & set(vars(ps))
        assert not x.flags.writeable and not y.flags.writeable
        assert ps._coords == [(0.5, 0.25), (-1.0, 2.0), (3.0, -0.0)]
        assert ps[1] is ps[1] and ps[1] == Point(1, -1.0, 2.0)
        shuffled = PointSet([Point(7, 0.0, 0.0), Point(-2, 0.25, 1.0), Point(3, -3.125, 2.5)])
        assert shuffled.ids == [-2, 3, 7] and [p.id for p in shuffled] == [-2, 3, 7]
        ids, x, y = shuffled.arrays
        assert ids == (-2, 3, 7) and x.tolist() == [0.25, -3.125, 0.0] and y.tolist() == [1.0, 2.5, 0.0]
        assert shuffled._coords == [(0.25, 1.0), (-3.125, 2.5), (0.0, 0.0)]
        assert shuffled[3] == Point(3, -3.125, 2.5) and len(shuffled) == 3

    def test_input_order_is_not_kept(self):
        # Ids given shuffled: the set equals its id-sorted twin, and every
        # read follows id order.
        ids = [np.int64(12), -(10**20), 3, 10**20, np.uint8(7), -5, 40]
        coords = [(1.0, 0.0), (-1.0, 2.0), (3.0, -0.0), (0.125, 7.5), (2.25, -3.0), (-4.5, 1.75), (0.0, 0.0)]
        given = [Point(i, x, y) for i, (x, y) in zip(ids, coords)]
        shuffled, twin = PointSet(given), PointSet(sorted(given, key=lambda p: int(p.id)))
        assert shuffled == twin and twin == shuffled and shuffled != PointSet(given[1:])
        assert shuffled.ids == twin.ids == sorted(map(int, ids))
        assert list(shuffled) == list(twin) and [p.id for p in shuffled] == twin.ids
        assert points_to_json(shuffled) == points_to_json(twin)
        assert points_from_json(points_to_json(shuffled)) == shuffled
        report = general_position_report(shuffled, 6)
        assert report == general_position_report(twin, 6) and len(report) >= 2
        # The first offender in input order is still the one named.
        with pytest.raises(DegenerateInput, match=r"^duplicate point id 9$"):
            PointSet([Point(9, 0.0, 0.0), Point(5, 1.0, 0.5), Point(9, 2.0, 1.0), Point(5, 3.0, 2.0)])
        with pytest.raises(InvalidParameter, match=r"^point 5 has a non-finite coordinate \(nan, 0.0\)$"):
            PointSet([Point(9, 0.0, 0.0), Point(5, math.nan, 0.0), Point(1, 1.0, math.inf)])
        with pytest.raises(InvalidParameter, match=r"^point 5 coordinate must be a real number, got 'a'$"):
            PointSet([Point(9, 0.0, 0.0), Point(5, "a", 0.0), Point(1, None, 0.0)])


class TestGeneralPositionReport:
    def test_clean_set(self):
        ps = PointSet.from_pairs([(0.11, 0.23), (0.71, 0.52), (0.37, 0.89)])
        assert general_position_report(ps, 6) == []

    def test_flags_boundary_aligned_pair(self):
        # Two points along a 30-degree azimuth: a 6-cone boundary direction.
        d = direction(math.pi / 6)
        ps = PointSet.from_pairs([(0.0, 0.0), (d[0], d[1]), (0.4, 0.1)])
        kinds = {f["kind"] for f in general_position_report(ps, 6)}
        assert "cone_boundary_aligned" in kinds

    def test_flags_perpendicular_pair(self):
        d = direction(math.pi / 6 + math.pi / 2)
        ps = PointSet.from_pairs([(0.0, 0.0), (d[0], d[1]), (0.4, 0.1)])
        kinds = {f["kind"] for f in general_position_report(ps, 6)}
        assert "cone_boundary_aligned" in kinds

    def test_flags_equidistant_pair(self):
        ps = PointSet.from_pairs([(0.0, 0.0), (1.0, 0.1), (-1.0, 0.1), (0.3, 0.77)])
        report = general_position_report(ps, 6)
        assert any(f["kind"] == "equidistant" and f["apex"] == 0 for f in report)

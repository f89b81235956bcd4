"""Construction tests: cone edge selection against exhaustive oracles, the
half-theta-6 graph's structural properties, its degree-bounded subgraphs, the
rotated union, and the MST."""

import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spannerkit import (
    ConeSystem,
    DegenerateInput,
    InternalInvariantViolation,
    InvalidParameter,
    Point,
    PointSet,
    SpannerGraph,
    build_g9,
    build_g12,
    build_half_theta6,
    build_mst,
    build_rotated_union,
    build_theta,
    build_yao,
    canonical_path_info,
    canonical_triangle,
    gen_circle,
    gen_random,
    gen_routing_lb,
    graph_from_json,
    graph_to_json,
    points_from_json,
    points_to_json,
    route_g9,
    spanning_ratio,
)

from spannerkit import build as build_module
from spannerkit import kernels
from spannerkit.build import cone_scan
from spannerkit.geometry import _CHECK_SLACK

from oracles import (
    oracle_adjacency,
    oracle_azimuth,
    oracle_cone_edges,
    oracle_cone_picks,
    oracle_cone_table,
    oracle_length_lists,
    oracle_mst,
)


#: Coordinates from subnormal up to 2**498 in magnitude: every set of them
#: has extents whose diagonal is at most 2**499.5, which the table accepts.
ACCEPTED_RANGE = st.floats(min_value=-2.0**498, max_value=2.0**498, allow_nan=False, allow_infinity=False)


def _as_coords(ps):
    pts = sorted(ps, key=lambda p: p.id)
    assert [p.id for p in pts] == list(range(len(pts)))
    return [(p.x, p.y) for p in pts]


class TestYaoTheta:
    @pytest.mark.parametrize("bad_k", [1, 0, -4, 2.5, "6"])
    def test_rejects_bad_k(self, bad_k):
        ps = gen_random(8, 1)
        with pytest.raises(InvalidParameter):
            build_yao(ps, bad_k)
        with pytest.raises(InvalidParameter):
            build_theta(ps, bad_k)

    def test_k2_is_allowed(self):
        ps = gen_random(8, 1)
        assert build_yao(ps, 2).k == 2
        assert build_theta(ps, 2).k == 2

    @pytest.mark.parametrize("k", [2, 4, 5, 6, 7, 9, 12])
    def test_edge_count_cap(self, k):
        ps = gen_random(30, 77)
        for g in (build_yao(ps, k), build_theta(ps, k)):
            assert len(g.edges) <= k * 30

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 9])
    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_matches_exhaustive_scan(self, k, seed):
        ps = gen_random(24, seed)
        coords = _as_coords(ps)
        assert build_yao(ps, k).edges == oracle_cone_edges(coords, k, False)
        assert build_theta(ps, k).edges == oracle_cone_edges(coords, k, True)

    def test_yao_and_theta_can_differ(self):
        # Nearest-by-distance and nearest-by-projection disagree here.
        pts = [(1.528, 7.625), (5.394, 7.786), (5.304, 0.006), (3.242, 0.195)]
        ps = PointSet(Point(i, x, y) for i, (x, y) in enumerate(pts))
        y = build_yao(ps, 6)
        t = build_theta(ps, 6)
        assert y.edges != t.edges
        assert y.edges == oracle_cone_edges(pts, 6, False)
        assert t.edges == oracle_cone_edges(pts, 6, True)

    def test_circle_yao8_contains_the_cycle(self):
        ps = gen_circle(16)
        g = build_yao(ps, 8)
        cycle = {(min(i, (i + 1) % 16), max(i, (i + 1) % 16)) for i in range(16)}
        assert cycle <= g.edges

    def test_neighbors_sorted_by_azimuth(self):
        ps = gen_random(25, 5)
        g = build_theta(ps, 6)
        for p in ps:
            azs = [
                oracle_azimuth(ps[q].x - p.x, ps[q].y - p.y) for q in g.neighbors(p.id)
            ]
            assert azs == sorted(azs)


def _boundary_star(k):
    # Origin plus points at radius 1 and 2 on every exact boundary direction
    # of a k-cone system (where np.arctan2 and math.atan2 may disagree).
    theta = 2 * math.pi / k
    pts = [(0.0, 0.0)]
    for i in range(k):
        az = i * theta + theta / 2
        pts += [(r * math.sin(az), r * math.cos(az)) for r in (1.0, 2.0)]
    return pts


def _uniform(n, seed, scale=1.0):
    rng = random.Random(seed)
    return [(rng.random() * scale, rng.random() * scale) for _ in range(n)]


#: Azimuth offsets from a cone boundary: on it, inside the kernel's ANGLE_EPS
#: rule, at its edge, just past the scan's relabelling band, and far beyond.
BOUNDARY_OFFSETS = [0.0] + [
    s * d
    for d in (
        kernels.ANGLE_EPS / 2,
        kernels.ANGLE_EPS * (1 - 1e-3),
        kernels.ANGLE_EPS * (1 + 1e-3),
        kernels.ANGLE_EPS + 2 * _CHECK_SLACK,
        1e-8,
        1e-6,
    )
    for s in (1, -1)
]


def _offset_directions(k):
    # Unit vectors at every offset from every cone boundary of k cones.
    theta = 2 * math.pi / k
    azs = [i * theta + theta / 2 + off for i in range(k) for off in BOUNDARY_OFFSETS]
    return [(math.sin(az), math.cos(az)) for az in azs]


SCAN_SETS = {
    "grid": [(float(i), float(j)) for i in range(6) for j in range(6)],
    **{f"boundary_k{k}": _boundary_star(k) for k in (4, 5, 6, 7, 9, 12)},
    "circle": _as_coords(gen_circle(24)),
    "n1": _uniform(1, 1),
    "n2": _uniform(2, 2),
    "n3": _uniform(3, 3),
    "huge_1e120": _uniform(20, 4, 1e120),
    "huge_2pow499": _uniform(20, 5, 2.0**499),
    "random_a": _as_coords(gen_random(30, 6)),
    "random_b": _as_coords(gen_random(30, 7)),
}
SCAN_CONFIGS = [(k, proj, 0) for k in range(2, 13) for proj in (True, False)] + [
    (6, True, 0b010101),
    (6, False, 0b010101),
]


def _large_scan_sets():
    rng = random.Random(8)
    base = _uniform(600, 9)
    return {
        "random_768": _as_coords(gen_random(768, 8)),
        "grid_30": [(float(i), float(j)) for i in range(30) for j in range(30)],
        "cluster_far": [(rng.gauss(0.0, 1e-3), rng.gauss(0.0, 1e-3)) for _ in range(560)]
        + [(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)) for _ in range(40)],
        "collinear": [(0.37 * i, 3.0 + 0.185 * i) for i in range(600)],
        "circle": _as_coords(gen_circle(640)),
        "strip": [(rng.random(), rng.random() * 1e-6) for _ in range(700)],
        "scaled_1e150": [(x * 1e150, y * 1e150) for x, y in base],
        "scaled_1e-300": [(x * 1e-300, y * 1e-300) for x, y in base],
        # Two 1e-3-wide squares 1000 apart side by side: every pair across
        # them lies within 1e-6 rad of the boundary at azimuth pi/2 (k = 6).
        "aligned": [(dx + rng.random() * 1e-3, rng.random() * 1e-3)
                    for dx in (0.0, 1000.0) for _ in range(150)],
    }


LARGE_SCAN_SETS = _large_scan_sets()
LARGE_SCAN_CONFIGS = [(k, proj, 0) for k in (2, 3, 4, 5, 6, 7, 9, 12) for proj in (True, False)] + [
    (6, True, 0b010101),
]


class TestConeScan:
    """The numpy scan behind every builder against the exhaustive scalar scan
    of the oracle."""

    @pytest.mark.parametrize("name", sorted(SCAN_SETS))
    def test_matches_kernel_and_oracle(self, name):
        coords = SCAN_SETS[name]
        xs = [x for x, _ in coords]
        ys = [y for _, y in coords]
        for k, proj, mask in SCAN_CONFIGS:
            got = cone_scan(xs, ys, k, proj, mask)
            assert got == oracle_cone_picks(coords, k, proj, mask), (k, proj, mask)

    @pytest.mark.parametrize("k", [64, 1024])
    def test_many_cones_match_the_oracle(self, k, monkeypatch):
        # A scan's cost and memory follow its (point, cone) groups, not a loop
        # over cones. The 6x6 grid has ties; each set is scanned in full, then
        # forced through the grid (whose cells hold every point at these k).
        for name in ("random_a", "grid"):
            coords = SCAN_SETS[name]
            xs = [x for x, _ in coords]
            ys = [y for _, y in coords]
            for proj in (True, False):
                want = oracle_cone_picks(coords, k, proj, 0)
                with monkeypatch.context() as patch:
                    assert cone_scan(xs, ys, k, proj, 0) == want, (name, proj)
                    patch.setattr(build_module, "_GRID_MIN_N", 0)
                    patch.setattr(build_module, "_DENSE_SHARE", 1.0)
                    assert cone_scan(xs, ys, k, proj, 0) == want, (name, proj)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_labels_equal_the_kernel_at_boundary_offsets(self, k):
        # One row per length, one column per offset from every boundary.
        table = [[(r * a, r * b) for a, b in _offset_directions(k)] for r in (1e-300, 1.0, 1e300)]
        dx = np.array([[a for a, _ in row] for row in table])
        dy = np.array([[b for _, b in row] for row in table])
        want = [[kernels.cone_index(a, b, k) for a, b in row] for row in table]
        assert build_module._cone_labels(dx, dy, k).tolist() == want

    @pytest.mark.parametrize("k,proj,mask", SCAN_CONFIGS)
    def test_boundary_offset_star_matches_the_oracle(self, k, proj, mask, monkeypatch):
        # The origin sees a point at every offset from every boundary, at
        # distinct radii and at radius 1. On the equal radii, pairs of outer
        # points point within rounding of ANGLE_EPS past a boundary (on k = 6,
        # (4, 71) lies 1.0000000827e-9 rad past azimuth 3 pi / 2), which only
        # the kernel's own arithmetic decides. Each star is scanned in full,
        # then forced through the grid.
        for radius in (lambda j: 1 + j / 64, lambda j: 1.0):
            coords = [(0.0, 0.0)] + [(a * radius(j), b * radius(j))
                                     for j, (a, b) in enumerate(_offset_directions(k))]
            xs = [x for x, _ in coords]
            ys = [y for _, y in coords]
            want = oracle_cone_picks(coords, k, proj, mask)
            with monkeypatch.context() as patch:
                assert cone_scan(xs, ys, k, proj, mask) == want
                patch.setattr(build_module, "_GRID_MIN_N", 0)
                assert cone_scan(xs, ys, k, proj, mask) == want

    @pytest.mark.parametrize("cfg", [(6, True, 0b010101), (6, False, 0)])
    def test_aligned_clusters_relabel_few_pairs(self, cfg, monkeypatch):
        # Half of all pairs lie within 1e-6 rad of a boundary, but only those
        # within ANGLE_EPS plus _CHECK_SLACK go to the scalar kernel.
        coords = LARGE_SCAN_SETS["aligned"]
        calls = []
        cone_index = kernels.cone_index

        def counted(dx, dy, k):
            calls.append(None)
            return cone_index(dx, dy, k)

        monkeypatch.setattr(kernels, "cone_index", counted)
        cone_scan([x for x, _ in coords], [y for _, y in coords], *cfg)
        n = len(coords)
        assert len(calls) <= 0.01 * n * (n - 1)

    @pytest.mark.parametrize("block", [1, 40, 333])
    def test_row_blocks(self, block, monkeypatch):
        monkeypatch.setattr(build_module, "_SCAN_BLOCK", block)
        coords = SCAN_SETS["random_a"] + SCAN_SETS["grid"]
        xs = [x for x, _ in coords]
        ys = [y for _, y in coords]
        for k, proj, mask in [(6, True, 0b010101), (7, True, 0), (6, False, 0)]:
            assert cone_scan(xs, ys, k, proj, mask) == oracle_cone_picks(coords, k, proj, mask)

    @pytest.mark.parametrize("name", sorted(SCAN_SETS))
    def test_grid_on_small_sets_matches_kernel(self, name, monkeypatch):
        # Small inputs skip the grid; forced through it, the certificates must
        # still give the oracle's picks (boundary stars, ties, huge spans).
        monkeypatch.setattr(build_module, "_GRID_MIN_N", 0)
        coords = SCAN_SETS[name]
        xs = [x for x, _ in coords]
        ys = [y for _, y in coords]
        for k, proj, mask in SCAN_CONFIGS:
            assert cone_scan(xs, ys, k, proj, mask) == oracle_cone_picks(coords, k, proj, mask)

    @pytest.mark.parametrize("block", [1, 40, 333])
    def test_grid_row_blocks(self, block, monkeypatch):
        monkeypatch.setattr(build_module, "_GRID_MIN_N", 0)
        monkeypatch.setattr(build_module, "_SCAN_BLOCK", block)
        coords = SCAN_SETS["random_a"] + SCAN_SETS["grid"]
        xs = [x for x, _ in coords]
        ys = [y for _, y in coords]
        for k, proj, mask in [(6, True, 0b010101), (7, True, 0), (6, False, 0)]:
            assert cone_scan(xs, ys, k, proj, mask) == oracle_cone_picks(coords, k, proj, mask)

    def test_certificates_keep_their_margins(self, monkeypatch):
        # Cells of side 1 (40 points over x in [0, 20], y in [0, 0.5]): point
        # 0's 5x5 block ends 3 to its right. Point 2 lies just past that side,
        # 1e-5 rad inside cone 1's east boundary, and wins the cone; point 1,
        # in the block, has a projection 2e-4 above rho * cos(theta / 2).
        # A wedge bound of cos(theta/2 - 1e-3), or rho widened by 1e-3 cells,
        # certifies point 1 instead.
        monkeypatch.setattr(build_module, "_GRID_MIN_N", 0)
        rho, half = 3.0, math.pi / 6

        def at(az, d):
            return (d * math.sin(az), 0.25 + d * math.cos(az))

        rng = random.Random(5)
        coords = [
            (0.0, 0.25),
            at(math.radians(85), rho * math.cos(half) * (1 + 2e-4) / math.cos(math.radians(25))),
            at(math.pi / 2 - 1e-5, rho * (1 + 1e-5)),
            at(math.radians(120), 0.5),
        ] + [(4.0 + 16.0 * i / 35, 0.2 * rng.random()) for i in range(35)] + [(20.0, 0.1)]
        got = cone_scan([x for x, _ in coords], [y for _, y in coords], 6, True, 0)
        assert got == oracle_cone_picks(coords, 6, True, 0)
        assert (0, 1, 2) in got

    def test_small_inputs_skip_the_grid(self, monkeypatch):
        def fail(*_):
            raise AssertionError("grid pass on a small input")

        monkeypatch.setattr(build_module, "_certified_rows", fail)
        coords = SCAN_SETS["random_a"]
        xs = [x for x, _ in coords]
        ys = [y for _, y in coords]
        assert cone_scan(xs, ys, 6, True, 0b010101) == oracle_cone_picks(coords, 6, True, 0b010101)

    @pytest.mark.parametrize("k, least", [(6, 200), (12, 200), (24, 400), (64, 1067)])
    def test_grid_threshold_grows_with_k(self, k, least, monkeypatch):
        # Above 12 cones the grid needs _GRID_MIN_N * k / 12 points.
        sizes = []

        def every_row(x, *_):
            sizes.append(len(x))
            return np.arange(len(x))

        monkeypatch.setattr(build_module, "_certified_rows", every_row)
        for n in (least - 1, least):
            xs, ys = zip(*_uniform(n, 5))
            cone_scan(list(xs), list(ys), k, False, 0)
        assert sizes == [least]

    @staticmethod
    def _gridded_rows(coords, monkeypatch):
        # The rows of every grid pass, in order, once per pass.
        gridded = []
        picks = build_module._cone_picks

        def counted(x, y, rows, at, *args):
            if at is not None:
                gridded.extend(rows.tolist())
            return picks(x, y, rows, at, *args)

        monkeypatch.setattr(build_module, "_cone_picks", counted)
        cone_scan([x for x, _ in coords], [y for _, y in coords], 6, True, 0b010101)
        return gridded

    def test_cluster_rows_skip_the_grid_pass(self, monkeypatch):
        # The 560 clustered points share one cell: their blocks hold most of
        # the input, so only the 40 far points are scanned on the grid.
        gridded = self._gridded_rows(LARGE_SCAN_SETS["cluster_far"], monkeypatch)
        assert gridded and set(gridded) <= set(range(560, 600))

    def test_a_failed_pass_ends_the_grid_phase(self, monkeypatch):
        # On a circle the first pass certifies almost no row; none gets the
        # second, wider pass.
        gridded = self._gridded_rows(LARGE_SCAN_SETS["circle"], monkeypatch)
        assert len(gridded) == len(set(gridded)) == len(LARGE_SCAN_SETS["circle"])
        # Uniform points do get it.
        gridded = self._gridded_rows(LARGE_SCAN_SETS["random_768"], monkeypatch)
        assert len(set(gridded)) == 768 < len(gridded)

    @given(st.lists(st.tuples(ACCEPTED_RANGE, ACCEPTED_RANGE), min_size=2, max_size=12))
    @settings(max_examples=200)
    def test_sets_the_table_accepts_follow_the_kernel(self, pairs):
        # No key of an accepted set overflows and no ratio is NaN; only
        # repeated coordinates are rejected here.
        try:
            ps = PointSet.from_pairs(pairs)
        except DegenerateInput:
            return
        _, x, y = ps.arrays
        xs, ys = x.tolist(), y.tolist()
        for k, proj, mask in ((6, True, 0b010101), (7, True, 0), (6, False, 0)):
            assert cone_scan(xs, ys, k, proj, mask) == oracle_cone_picks(list(zip(xs, ys)), k, proj, mask)
        for g in (build_half_theta6(ps), build_mst(ps)):
            assert not math.isnan(spanning_ratio(g).max_ratio)

    def test_empty_input(self):
        assert cone_scan([], [], 6, True, 0) == []

    @pytest.mark.parametrize("name", sorted(LARGE_SCAN_SETS))
    def test_certified_rows_match_the_full_scan(self, name, monkeypatch):
        # The oracle takes seconds at this size; the full row-block scan is
        # compared with it above.
        coords = LARGE_SCAN_SETS[name]
        xs = [x for x, _ in coords]
        ys = [y for _, y in coords]
        certified = [cone_scan(xs, ys, *cfg) for cfg in LARGE_SCAN_CONFIGS]
        monkeypatch.setattr(build_module, "_certified_rows", lambda x, *_: np.arange(len(x)))
        for cfg, got in zip(LARGE_SCAN_CONFIGS, certified):
            assert got == cone_scan(xs, ys, *cfg), cfg

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 9, 12])
    def test_empty_cone_mask_is_sound(self, k):
        coords = SCAN_SETS[f"boundary_k{k}"]
        x = np.array([p[0] for p in coords])
        y = np.array([p[1] for p in coords])
        mask = build_module._empty_cones(x - x.min(), y - y.min(), k, list(range(k)))
        occupied = {
            (u, kernels.cone_index(qx - px, qy - py, k))
            for u, (px, py) in enumerate(coords)
            for v, (qx, qy) in enumerate(coords)
            if u != v
        }
        certified = {(u, i) for u, i in zip(*np.nonzero(mask))}
        assert certified and not certified & occupied
        # The outer points of the star see nothing in their outward cones.
        assert sum(1 for u, i in certified if u > 0) >= k

    def test_most_half_theta6_rows_are_certified(self, monkeypatch):
        coords = LARGE_SCAN_SETS["random_768"]
        fallback = []
        certify = build_module._certified_rows

        def counted(*args):
            rows = certify(*args)
            fallback.append(len(rows))
            return rows

        monkeypatch.setattr(build_module, "_certified_rows", counted)
        cone_scan([x for x, _ in coords], [y for _, y in coords], 6, True, 0b010101)
        assert fallback and fallback[0] <= len(coords) // 8

    def test_cone_edges_deterministic(self):
        rng = random.Random(99)
        xs = [rng.random() for _ in range(60)]
        ys = [rng.random() for _ in range(60)]
        a = cone_scan(xs, ys, 6, True, 0b010101)
        b = cone_scan(xs, ys, 6, True, 0b010101)
        assert a == b

    def test_tied_keys_pick_by_id_at_a_large_scale(self):
        # A set whose squared distances would overflow is rejected, so no key
        # is inf. Near the rule's edge the three candidates in cone 1 of point
        # 0 tie exactly (squared distance 25 * 2**992), and the lowest index wins.
        with pytest.raises(DegenerateInput, match="extents"):
            PointSet.from_pairs([(0.0, 0.0), (3e160, -1e159), (2e160, 1e159), (1e160, 0.0)])
        s = 2.0**496
        xs, ys = [0.0, 4 * s, 5 * s, 4 * s], [0.0, -3 * s, 0.0, 3 * s]
        assert len(PointSet.from_pairs(zip(xs, ys))) == 4
        got = cone_scan(xs, ys, 4, False, 0)
        assert got == oracle_cone_picks(list(zip(xs, ys)), 4, False, 0)
        assert (0, 1, 1) in got


class TestHalfTheta6:
    def test_triangle_keeps_all_edges(self):
        ps = PointSet([Point(0, 0.0, 0.0), Point(1, 4.0, 0.5), Point(2, 1.8, 3.6)])
        assert build_half_theta6(ps).edge_list() == [(0, 1), (0, 2), (1, 2)]

    def test_edge_cap_and_positive_mask(self):
        ps = gen_random(40, 913)
        h = build_half_theta6(ps)
        assert len(h.edges) <= 3 * 40
        coords = _as_coords(ps)
        assert h.edges == oracle_cone_edges(coords, 6, True, cone_mask=0b010101)

    def test_each_edge_has_one_positive_endpoint(self):
        ps = gen_random(40, 913)
        h = build_half_theta6(ps)
        cs = ConeSystem(6)
        for u, v in h.edges:
            cu = cs.cone_of(ps[u], ps[v])
            cv = cs.cone_of(ps[v], ps[u])
            assert (cu % 2 == 0) != (cv % 2 == 0)
            assert cv == (cu + 3) % 6

    def test_edge_iff_empty_canonical_triangle(self):
        ps = gen_random(40, 913)
        h = build_half_theta6(ps)
        cs = ConeSystem(6)
        ids = sorted(p.id for p in ps)
        for u in ids:
            for v in ids:
                if u == v:
                    continue
                if cs.cone_of(ps[u], ps[v]) % 2 == 1:
                    continue
                t = canonical_triangle(cs, ps[u], ps[v])
                empty = not any(
                    t.contains(ps[w]) for w in ids if w not in (u, v)
                )
                assert empty == h.has_edge(u, v)

    @pytest.mark.parametrize("seed", [1000, 1001, 7])
    def test_internally_triangulated(self, seed):
        # Rotation-system face walk: every face is a triangle except the one
        # unbounded face, and Euler's formula pins the face count.
        ps = gen_random(48, seed)
        h = build_half_theta6(ps)
        nxt = {}
        for a, b in h.edges:
            for u, v in ((a, b), (b, a)):
                nbrs = h.neighbors(v)
                i = nbrs.index(u)
                nxt[(u, v)] = (v, nbrs[(i + 1) % len(nbrs)])
        seen = set()
        face_lens = []
        for d in sorted(nxt):
            if d in seen:
                continue
            cur, steps = d, 0
            while cur not in seen:
                seen.add(cur)
                steps += 1
                cur = nxt[cur]
            face_lens.append(steps)
        assert 48 - len(h.edges) + len(face_lens) == 2
        assert sum(1 for l in face_lens if l != 3) == 1


class TestCanonicalPathInfo:
    def test_rejects_even_cone(self):
        h = build_half_theta6(gen_random(10, 3))
        with pytest.raises(InvalidParameter):
            canonical_path_info(h, 0, 2)

    def test_rejects_wrong_kind(self):
        g = build_theta(gen_random(10, 3), 6)
        with pytest.raises(InvalidParameter):
            canonical_path_info(g, 0, 1)

    @pytest.mark.parametrize("anchor,cone", [(12345, 1), ([0], 1), (True, 1), (0, 7), (0, -1), (0, 1.0)])
    def test_rejects_non_vertex_anchor_and_cones_outside_1_3_5(self, anchor, cone):
        # 12345 and the bad cones used to return an empty fan, the unhashable
        # [0] raised TypeError, and True stood for vertex 1; a float is no
        # cone index.
        h = build_half_theta6(gen_random(10, 3))
        with pytest.raises(InvalidParameter):
            canonical_path_info(h, anchor, cone)

    def test_accepts_numpy_integer_cones(self):
        h = build_half_theta6(gen_random(10, 3))
        for cone in (1, 3, 5):
            assert canonical_path_info(h, 0, np.int64(cone)) == canonical_path_info(h, 0, cone)
        for bad in (True, 1.0, np.float64(3.0)):
            with pytest.raises(InvalidParameter) as err:
                canonical_path_info(h, 0, bad)
            assert str(err.value) == f"fans live in the odd cones 1, 3 and 5, got cone {bad!r}"

    def test_numpy_integer_anchor_is_reported_as_the_graph_id(self):
        h = build_half_theta6(gen_random(10, 3))
        info = canonical_path_info(h, np.int64(0), 1)
        assert type(info.anchor) is int and info == canonical_path_info(h, 0, 1)

    def test_fan_structure(self):
        ps = gen_random(40, 913)
        h = build_half_theta6(ps)
        cs = ConeSystem(6)
        nonempty = 0
        for p in ps:
            for cone in (1, 3, 5):
                info = canonical_path_info(h, p.id, cone)
                assert info.anchor == p.id and info.cone == cone
                if not info.members:
                    assert info.closest is None and info.first is None and info.last is None
                    continue
                nonempty += 1
                assert info.first == info.members[0]
                assert info.last == info.members[-1]
                assert info.closest in info.members
                azs = []
                for v in info.members:
                    q = ps[v]
                    # Members sit in the anchor's odd cone; each one sees the
                    # anchor back in the opposite even cone.
                    assert cs.cone_of(p, q) == cone
                    assert cs.cone_of(q, p) == (cone + 3) % 6
                    assert h.has_edge(p.id, v)
                    azs.append(oracle_azimuth(q.x - p.x, q.y - p.y))
                assert azs == sorted(azs)
                for a, b in info.path_edges():
                    assert h.has_edge(a, b)
        assert nonempty > 0


@pytest.fixture(scope="module")
def trio():
    ps = gen_random(64, 2024)
    h = build_half_theta6(ps)
    return h, build_g12(h), build_g9(h)


class TestDegreeBoundedSubgraphs:

    def test_rejects_wrong_kind(self):
        g = build_theta(gen_random(10, 3), 6)
        with pytest.raises(InvalidParameter):
            build_g12(g)
        with pytest.raises(InvalidParameter):
            build_g9(g)

    def test_subset_chain(self, trio):
        h, g12, g9 = trio
        assert g9.edges <= g12.edges <= h.edges

    def test_degree_caps(self, trio):
        _h, g12, g9 = trio
        assert g12.max_degree() <= 12
        assert g9.max_degree() <= 9

    def test_g12_keeps_fan_extremes_and_closest(self, trio):
        h, g12, _g9 = trio
        expected = set()
        for p in h.points:
            for cone in (1, 3, 5):
                info = canonical_path_info(h, p.id, cone)
                for v in (info.first, info.last, info.closest):
                    if v is not None:
                        expected.add((min(p.id, v), max(p.id, v)))
        assert g12.edges == expected

    def test_g9_keeps_closest_and_fan_paths(self, trio):
        h, _g12, g9 = trio
        expected = set()
        for p in h.points:
            for cone in (1, 3, 5):
                info = canonical_path_info(h, p.id, cone)
                if info.closest is not None:
                    expected.add((min(p.id, info.closest), max(p.id, info.closest)))
                for a, b in info.path_edges():
                    expected.add((min(a, b), max(a, b)))
        assert g9.edges == expected

    def test_g9_hints(self, trio):
        h, _g12, g9 = trio
        hints = g9.metadata["hints"]
        for p in h.points:
            for cone in (1, 3, 5):
                info = canonical_path_info(h, p.id, cone)
                if not info.members:
                    continue
                fan = hints[str(p.id)]["fan"][str(cone)]
                first, last = h.points[info.first], h.points[info.last]
                assert fan["first"] == [first.id, first.x, first.y]
                assert fan["last"] == [last.id, last.x, last.y]
                for v in info.members:
                    d = hints[str(v)]["dir"][str((cone + 3) % 6)]
                    if v == info.closest:
                        assert d == "self"
                    else:
                        assert d in ("ccw", "cw")


def _hints_from_fans(h):
    """The g9 hints of h, as metadata["hints"] holds them, from
    canonical_path_info: each fan's first and last member, and each member's
    walk toward the even cone opposite the fan ("self" for the closest
    member, "ccw" before it and "cw" after it by azimuth)."""
    hints = {}
    for p in h.points:
        for cone in (1, 3, 5):
            info = canonical_path_info(h, p.id, cone)
            if not info.members:
                continue
            ends = {key: [q.id, q.x, q.y] for key, q in (("first", h.points[info.first]),
                                                         ("last", h.points[info.last]))}
            hints.setdefault(str(p.id), {"dir": {}, "fan": {}})["fan"][str(cone)] = ends
            near = info.members.index(info.closest)
            for at, v in enumerate(info.members):
                walk = "self" if at == near else "ccw" if at < near else "cw"
                hints.setdefault(str(v), {"dir": {}, "fan": {}})["dir"][str((cone + 3) % 6)] = walk
    return hints


def _id_shuffled(ps, seed):
    """ps with ids whose string order is not their integer order (negative,
    two-digit and beyond int64), listed in shuffled order."""
    rng = random.Random(seed)
    ids = [-10**20, -7, -1, 0, 3, 10, 25, 100, 10**20, 10**20 + 1] + list(range(200, 190 + len(ps)))
    rng.shuffle(ids)
    pts = [Point(i, p.x, p.y) for i, p in zip(ids, ps)]
    rng.shuffle(pts)
    return PointSet(pts)


class TestBuiltG9Hints:
    """A g9 keeps its hints only as its hint table: the file is written from
    it, == compares tables, and metadata is a new dict made from it."""

    @pytest.mark.parametrize("ps", [gen_random(60, seed) for seed in (1, 2, 3, 4)]
                             + [_id_shuffled(gen_random(60, 5), 1), _id_shuffled(gen_random(90, 6), 2)])
    def test_file_and_metadata_agree_before_and_after_the_read(self, ps, monkeypatch):
        h = build_half_theta6(ps)
        g9 = build_g9(h)
        text = g9.to_json()
        # A loaded g9 equals the built one until one walk direction changes,
        # and == neither writes nor parses hints text.
        doc = json.loads(text)
        entry = next(e for e in doc["metadata"]["hints"].values() if "ccw" in e["dir"].values())
        cone = min(c for c, d in entry["dir"].items() if d == "ccw")
        entry["dir"][cone] = "cw"
        same, changed = graph_from_json(text), graph_from_json(json.dumps(doc))
        calls = []
        monkeypatch.setattr(build_module._HintTable, "to_json", lambda *a: calls.append(a))
        monkeypatch.setattr(build_module, "_parse_json", lambda *a: calls.append(a))
        assert same == g9 and g9 == same
        assert changed != g9 and g9 != changed
        assert calls == []
        monkeypatch.undo()
        assert g9.metadata == {"hints": _hints_from_fans(h)}
        assert g9.to_json() == text
        assert json.loads(text)["metadata"] == g9.metadata

    def test_metadata_edits_change_nothing(self):
        # Editing a loaded g9's metadata after a route used to change its
        # file but not its routes: every "ccw" and "cw" swapped here made the
        # written file raise InternalInvariantViolation on 517 of 3,540
        # ordered pairs, and the graph still compared equal to that file.
        ps = gen_random(60, 3)
        text = build_g9(build_half_theta6(ps)).to_json()
        g9 = graph_from_json(text)
        pairs = random.Random(5).sample([(s, t) for s in ps.ids for t in ps.ids if s != t], 60)
        routes = [route_g9(g9, s, t).to_json() for s, t in pairs]
        metadata = g9.metadata
        for entry in metadata["hints"].values():
            entry["dir"] = {c: {"ccw": "cw", "cw": "ccw"}.get(d, d) for c, d in entry["dir"].items()}
        assert g9.metadata != metadata
        assert g9.to_json() == text
        assert g9 == graph_from_json(text)
        assert g9 != SpannerGraph("g9", 6, ps, g9.edge_list(), metadata)
        assert [route_g9(g9, s, t).to_json() for s, t in pairs] == routes

    def test_raw_hints_are_dropped_once_the_table_is_read(self):
        g9 = build_g9(build_half_theta6(gen_random(30, 4)))
        assert "_raw_hints" not in g9.__dict__
        for g in (graph_from_json(g9.to_json()), SpannerGraph("g9", 6, g9.points, g9.edge_list(), g9.metadata)):
            assert "_raw_hints" in g.__dict__
            assert g.hint_table == g9.hint_table
            assert "_raw_hints" not in g.__dict__

    def test_malformed_hints_fail_at_every_use(self):
        ps = gen_random(20, 11)
        doc = json.loads(build_g9(build_half_theta6(ps)).to_json())
        doc["metadata"]["hints"]["1"] = {"dir": {"0": "up"}}
        g9 = graph_from_json(json.dumps(doc))
        for use in (lambda: route_g9(g9, 0, 13), lambda: route_g9(g9, 0, 13), g9.to_json,
                    lambda: g9.metadata, lambda: g9 == g9):
            with pytest.raises(InvalidParameter, match="malformed g9 routing hints"):
                use()

    @pytest.mark.parametrize("ps", [gen_random(80, 9), _id_shuffled(gen_random(80, 10), 3)])
    def test_loaded_graph_equals_and_routes_as_the_built_one(self, ps):
        g9 = build_g9(build_half_theta6(ps))
        loaded = graph_from_json(g9.to_json())
        assert loaded == g9
        pairs = random.Random(4).sample([(s, t) for s in ps.ids for t in ps.ids if s != t], 40)
        for s, t in pairs:
            assert route_g9(loaded, s, t).to_json() == route_g9(g9, s, t).to_json()
        assert loaded.hint_table.walk == g9.hint_table.walk
        assert loaded.hint_table.ends == g9.hint_table.ends


class TestRotatedUnion:
    @pytest.mark.parametrize("bad_m", [0, -1, 1.5, "2", True])
    def test_rejects_bad_m(self, bad_m):
        with pytest.raises(InvalidParameter):
            build_rotated_union(gen_random(8, 1), bad_m)

    def test_single_frame_equals_half_theta6(self):
        ps = gen_random(40, 321)
        assert build_rotated_union(ps, 1).edges == build_half_theta6(ps).edges

    def test_more_frames_only_add_edges(self):
        ps = gen_random(40, 321)
        e1 = build_rotated_union(ps, 1).edges
        e2 = build_rotated_union(ps, 2).edges
        assert e1 <= e2

    def test_metadata_records_m(self):
        g = build_rotated_union(gen_random(8, 1), 3)
        assert g.metadata == {"m": 3}

    def test_rotated_coordinates_keep_the_point_set_checks(self):
        # Frame 1 of m = 2 turns by pi/6: x * sin + y * cos overflows here,
        big = PointSet([Point(0, 1.35e308, 1.35e308)])
        assert build_rotated_union(big, 1).edge_list() == []
        with pytest.raises(InvalidParameter, match="non-finite coordinate"):
            build_rotated_union(big, 2)
        # frame 3 of m = 4 turns this square by pi/4, which widens its
        # extents' diagonal from 1.7 * 2**499 to 2.4 * 2**499, past the rule,
        side = 1.2 * 2.0**499
        square = PointSet.from_pairs([(0.0, 0.0), (side, 0.0), (0.0, side), (side, side)])
        assert len(build_rotated_union(square, 1).edges) > 0
        with pytest.raises(DegenerateInput, match="^coordinate differences overflow: .*extents"):
            build_rotated_union(square, 4)
        # and rounds these two subnormal points to the same coordinates.
        tiny = PointSet([Point(0, -4 * 5e-324, -2 * 5e-324), Point(1, -3 * 5e-324, -3 * 5e-324)])
        assert build_rotated_union(tiny, 1).edge_list() == [(0, 1)]
        with pytest.raises(DegenerateInput, match=r"^duplicate coordinates for point 1$"):
            build_rotated_union(tiny, 2)

    def test_rotated_collisions_name_the_first_point_in_id_order(self):
        # Frame 1 of m = 2 rounds two subnormal pairs together, (0, 1) and
        # (2, 3); the frame is checked as a PointSet, so the first point in
        # id order that repeats an earlier one is named: 1. (The check it
        # replaced named 3, the later point of the lowest (x, y) pair.)
        d = 5e-324
        ps = PointSet([Point(0, -4 * d, -6 * d), Point(1, -3 * d, -7 * d),
                       Point(2, -7 * d, -4 * d), Point(3, -6 * d, -3 * d)])
        build_rotated_union(ps, 1)
        with pytest.raises(DegenerateInput, match=r"^duplicate coordinates for point 1$"):
            build_rotated_union(ps, 2)


@pytest.mark.parametrize("count", [np.int64(5), np.int32(5), np.uint8(5), True, 5.0, np.float64(5.0), "5"])
def test_counts_are_integers_that_are_not_bools(count):
    """Cone, rotation, point and retry counts follow the vertex-id rule: numpy
    integers are stored as int; bools, floats and strings raise
    InvalidParameter."""
    ps = gen_random(16, 1)
    builds = [build_yao, build_theta, build_rotated_union]
    point_sets = [
        lambda c: gen_random(c, 1),
        lambda c: gen_random(8, 1, k=c),
        lambda c: gen_random(8, 1, retries=c),
        gen_circle,
    ]

    def scan(c):
        return cone_scan(*ps.arrays[1:], c, True, 0)

    if isinstance(count, (bool, float, str)):
        for make in [ConeSystem, scan] + [lambda c, b=b: b(ps, c) for b in builds] + point_sets:
            with pytest.raises(InvalidParameter):
                make(count)
        return
    assert type(ConeSystem(count).k) is int
    assert scan(count) == scan(5)
    for build in builds:
        # The file writes "k": 5 (or "m": 5) as for the int count.
        text = build(ps, count).to_json()
        assert text == build(ps, 5).to_json()
        assert graph_from_json(text) == build(ps, 5)
    for make in point_sets:
        got = make(count)
        assert points_from_json(points_to_json(got)) == got == make(5)


class TestMst:
    def test_tree_shape_and_weight(self):
        ps = gen_random(35, 88)
        t = build_mst(ps)
        assert len(t.edges) == 34
        assert t.k is None

        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import minimum_spanning_tree

        pts = sorted(ps, key=lambda p: p.id)
        n = len(pts)
        d = np.zeros((n, n))
        for i, p in enumerate(pts):
            for j, q in enumerate(pts):
                d[i, j] = math.hypot(q.x - p.x, q.y - p.y)
        ref = minimum_spanning_tree(csr_matrix(d)).sum()
        assert t.total_weight() == pytest.approx(ref, rel=1e-12)

    def test_spans_all_points(self):
        ps = gen_random(20, 9)
        t = build_mst(ps)
        seen = {0}
        frontier = [0]
        while frontier:
            u = frontier.pop()
            for v in t.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        assert len(seen) == 20


def _triangular_lattice(rows, cols):
    return PointSet.from_pairs(
        (i + 0.5 * (j % 2), j * math.sqrt(3) / 2) for i in range(cols) for j in range(rows)
    )


class TestMstMatchesAllPairsKruskal:
    @pytest.mark.parametrize("side", [1, 2, 3, 5, 8])
    def test_integer_grid(self, side):
        ps = PointSet.from_pairs((i, j) for i in range(side) for j in range(side))
        assert build_mst(ps).edges == oracle_mst(ps)

    @pytest.mark.parametrize("shape", [(2, 3), (4, 4), (6, 9)])
    def test_triangular_lattice(self, shape):
        ps = _triangular_lattice(*shape)
        assert build_mst(ps).edges == oracle_mst(ps)

    @pytest.mark.parametrize("n", [3, 6, 7, 12, 24, 60])
    def test_circle(self, n):
        ps = gen_circle(n)
        assert build_mst(ps).edges == oracle_mst(ps)

    def test_coordinates_whose_squares_overflow(self):
        # Such sets are rejected: Kruskal would see every squared distance as
        # inf and choose the tree by ids alone, (0, 1) and (0, 2) on both.
        for pairs in ([(0.0, 0.0), (1e200, 0.0), (0.0, 2e200)], [(-8e307, 0.0), (8e307, 0.0), (0.0, 1.0)]):
            with pytest.raises(DegenerateInput, match="extents"):
                PointSet.from_pairs(pairs)
        # Inside the rule the second set's tree is the true minimum.
        ps = PointSet.from_pairs([(-(2.0**498), 0.0), (2.0**498, 0.0), (0.0, 1.0)])
        assert build_mst(ps).edge_list() == [(0, 2), (1, 2)]
        assert build_mst(ps).edges == oracle_mst(ps)

    def test_set_whose_tree_leaves_yao4(self):
        # Kruskal over this set's Yao-4 edges misses a tree edge, so a
        # candidate graph with too few cones fails here.
        ps = PointSet.from_pairs([(5.2, 7.6), (5.3, 2.6), (8.0, 0.0), (9.2, 5.3)])
        assert build_mst(ps).edges == oracle_mst(ps)

    def test_small_sets_on_a_coarse_lattice(self):
        # Coordinates on a 0.1 lattice give many equal distances.
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(2, 9)
            pts = {(rng.randint(0, 100) / 10, rng.randint(0, 100) / 10) for _ in range(n)}
            ps = PointSet.from_pairs(sorted(pts))
            assert build_mst(ps).edges == oracle_mst(ps)

    @pytest.mark.parametrize("seed", range(5))
    def test_random(self, seed):
        ps = PointSet.from_pairs(_uniform(50, 100 + seed))
        assert build_mst(ps).edges == oracle_mst(ps)
        ps = gen_random(40, 200 + seed)
        assert build_mst(ps).edges == oracle_mst(ps)


def _scaled(ps, factor):
    return PointSet(Point(p.id, p.x * factor, p.y * factor) for p in ps)


def _grid(cols, rows):
    return PointSet.from_pairs((float(i), float(j)) for j in range(rows) for i in range(cols))


def _derived(h):
    """h and the G12 and G9 graphs derived from it, by kind."""
    return {"half_theta6": h, "g12": build_g12(h), "g9": build_g9(h)}


@pytest.fixture(scope="module")
def golden_graphs():
    """Graphs by set and kind: all seven kinds on a set large enough for the
    grid scan, and half-theta-6, G12 and G9 on the routing lower-bound
    instances, a set scaled by 1e150 and an integer grid."""
    ps = gen_random(240, 8)
    h = build_half_theta6(ps)
    out = {"random": {**_derived(h), "theta": build_theta(ps, 7), "yao": build_yao(ps, 6),
                      "rotated_union": build_rotated_union(ps, 2), "mst": build_mst(ps)}}
    for variant in ("positive", "negative_a", "negative_b"):
        out[variant] = _derived(build_half_theta6(gen_routing_lb(variant)))
    out["x1e150"] = _derived(build_half_theta6(_scaled(gen_random(40, 3), 1e150)))
    out["grid6x5"] = _derived(build_half_theta6(_grid(6, 5)))
    return out


#: First 16 hex digits of the sha256 of each golden graph's to_json() text.
GRAPH_JSON_SHA256 = {
    "random/half_theta6": "7e2457a06cdaa08b",
    "random/g12": "d19f483798de796c",
    "random/g9": "70a70a26610272e3",
    "random/theta": "ca7cd1aa099fe50e",
    "random/yao": "18c32e28a54e60a0",
    "random/rotated_union": "a78b0b037fda247f",
    "random/mst": "3453703df74caf79",
    "positive/half_theta6": "a4c0518f55c05bb8",
    "positive/g12": "3d2743c56e02946c",
    "positive/g9": "ddce8eea7440f8bc",
    "negative_a/half_theta6": "8338e47b8881e6fa",
    "negative_a/g12": "0f86ddbb15b22c53",
    "negative_a/g9": "07759e4e5d3e0adf",
    "negative_b/half_theta6": "204753683ebb638b",
    "negative_b/g12": "c622045d99bfce57",
    "negative_b/g9": "45ffa45cf5fe4309",
    "x1e150/half_theta6": "10fc5c2f3243e4a7",
    "x1e150/g12": "1f627669558aee62",
    "x1e150/g9": "1ca86361da1dcb02",
    "grid6x5/half_theta6": "9c8e78bf6b0caded",
    "grid6x5/g12": "b82c3a1fd60a2691",
    "grid6x5/g9": "158fbc6bab1659f9",
}


def _assert_tables_match(g):
    """g's adjacency, degrees, Dijkstra rows and cone table equal the per-edge
    loops of tests/oracles.py, or raise InternalInvariantViolation where
    those do."""
    adj = oracle_adjacency(g)
    assert {u: g.neighbors(u) for u in adj} == {u: [v for _, v in row] for u, row in adj.items()}
    assert [g.degree(u) for u in adj] == [len(row) for row in adj.values()]
    assert g.max_degree() == max(len(row) for row in adj.values())
    # The Dijkstra's per-index (neighbour, length) rows, mapped to ids: CSR
    # row order, and the oracle's pairs once sorted.
    ids = g.points.arrays[0]
    rows = {ids[i]: [(ids[j], w) for j, w in row] for i, row in enumerate(g._length_rows)}
    assert {u: [v for v, _ in row] for u, row in rows.items()} == {u: g.neighbors(u) for u in adj}
    assert {u: sorted(row) for u, row in rows.items()} == oracle_length_lists(g)
    if g.kind not in ("half_theta6", "g12", "g9"):
        return
    try:
        ref = oracle_cone_table(g)
    except InternalInvariantViolation:
        with pytest.raises(InternalInvariantViolation):
            g.cone_table
        return
    # The index-based table, read back into the oracle's id-keyed form; the
    # slots must give every CSR entry exactly one cone label.
    ct = g.cone_table
    ids = g.points.arrays[0]
    assert ct.ids == ids and dict(zip(ids, ct.coords)) == ref.xy
    label = [None] * len(ct.nbr)
    positive, fans, closest = {}, {}, {}
    for slot, (e, f) in enumerate(zip(ct.cone_edge, ct.cone_fan)):
        i, c = divmod(slot, 6)
        if e >= 0:
            assert c % 2 == 0 and label[e] is None
            label[e] = c
            positive[(ids[i], c)] = (ids[ct.nbr[e]], ct.length[e])
        if f >= 0:
            assert c % 2 == 1 and (ct.fan_src[f], ct.fan_cone[f]) == (i, c)
            for p in range(ct.fan_start[f], ct.fan_stop[f]):
                assert label[p] is None
                label[p] = c
            fans[(ids[i], c)] = [ids[v] for v in ct.fan(i, c)]
            closest[(ids[i], c)] = ids[ct.fan_nearest(i, c)]
    rows = {u: [(ct.az[p], ids[ct.nbr[p]], ct.length[p], label[p])
                for p in range(ct.indptr[i], ct.indptr[i + 1])] for i, u in enumerate(ids)}
    assert rows == ref.rows
    assert positive == ref.positive
    assert fans == ref.fans
    assert closest == {f: ref.closest(*f) for f in ref.fans}
    assert len(ct.fan_src) == len(fans)
    assert ct.fan_entry.tolist() == [
        p for a, b in zip(ct.fan_start.tolist(), ct.fan_stop.tolist()) for p in range(a, b)
    ]


class TestGraphContainer:
    def test_graph_json_bytes_are_pinned(self, golden_graphs):
        got = {}
        for name, graphs in golden_graphs.items():
            for kind, g in graphs.items():
                text = g.to_json()
                got[f"{name}/{kind}"] = hashlib.sha256(text.encode()).hexdigest()[:16]
                back = graph_from_json(text)
                assert back == g
                assert back.to_json() == text
        assert got == GRAPH_JSON_SHA256

    def test_graph_over_a_shuffled_point_set_equals_its_file(self):
        # The file lists the points in id order; equality must too.
        base = gen_random(30, 4)
        pts = list(base)
        random.Random(1).shuffle(pts)
        ps = PointSet(pts)
        for g in (build_half_theta6(ps), build_g9(build_half_theta6(ps)), build_mst(ps)):
            back = graph_from_json(g.to_json())
            assert back == g and g == back
        assert build_half_theta6(ps) == build_half_theta6(base) and ps == base

    def test_tables_match_the_per_edge_loops(self, golden_graphs):
        for graphs in golden_graphs.values():
            for g in graphs.values():
                _assert_tables_match(g)

    def test_tables_break_ties_as_the_loops_do(self):
        # Neighbours 1 and 2 of point 0 share one azimuth: id order decides.
        line = PointSet.from_pairs([(0.0, 0.0), (0.0, 2.0), (0.0, 1.0)])
        _assert_tables_match(SpannerGraph("x", None, line, [(0, 1), (0, 2)]))
        # Point 3's cone-3 fan {0, 1, 2}: all three projections round to
        # 10.0, points 1 and 2 tie on d2 too, so the closest is 1 by id.
        fan = PointSet.from_pairs([(3.0, -10.0), (1.0, -10.0), (-1.0, -10.0), (0.0, 0.0)])
        h = build_half_theta6(fan)
        info = canonical_path_info(h, 3, 3)
        assert info.members == (0, 1, 2)
        assert info.closest == 1
        _assert_tables_match(h)
        # Two edges in one positive cone of point 0: no cone table.
        _assert_tables_match(SpannerGraph("g12", 6, line, [(0, 1), (0, 2)]))

    def test_g9_on_a_grid_subset_still_raises(self):
        # Integer-grid sets break the fan structure G9 relies on (points on
        # one cone boundary from the same apex); until such inputs are
        # rejected up front, G9 reports them as an internal invariant.
        h = build_half_theta6(PointSet.from_pairs([(4.0, 1.0), (5.0, 3.0), (5.0, 0.0), (3.0, 3.0)]))
        _assert_tables_match(h)
        _assert_tables_match(build_g12(h))
        with pytest.raises(InternalInvariantViolation):
            build_g9(h)

    def test_csr_azimuths_equal_the_kernel(self):
        # The CSR wraps math.atan2 in numpy; (-1e-300, 1) rounds up to the
        # full turn, which azimuth maps to 0.0.
        pts = [(0.0, 0.0), (-1e-300, 1.0), (1e-300, 1.0), (-1.0, -1e-300), (0.0, -1.0), (-1.0, 0.0)]
        ps = PointSet.from_pairs(pts + _as_coords(gen_random(30, 4))[6:])
        star = [(0, v) for v in range(1, len(ps))]
        for g in (SpannerGraph("yao", 6, ps, star), build_theta(ps, 6)):
            t = g._csr
            want = [kernels.azimuth(ps[v].x - ps[u].x, ps[v].y - ps[u].y)
                    for u, v in zip(t.src.tolist(), t.nbr.tolist())]
            assert t.az.tolist() == want
        t = SpannerGraph("yao", 6, ps, star)._csr
        assert t.az[(t.src == 0) & (t.nbr == 1)].tolist() == [0.0]

    def test_edges_cannot_be_mutated(self):
        # A mutable edge set would leave the cached adjacency stale.
        h = build_half_theta6(gen_random(12, 4))
        u, v = min(h.edges)
        assert v in h.neighbors(u)
        with pytest.raises(AttributeError):
            h.edges.discard((u, v))
        assert h.has_edge(u, v) and v in h.neighbors(u)

    def test_edge_with_unknown_id_rejected(self):
        ps = PointSet([Point(0, 0.0, 0.0), Point(1, 1.0, 1.0)])
        with pytest.raises(InvalidParameter):
            SpannerGraph("yao", 6, ps, [(0, 7)])

    def test_self_loop_rejected(self):
        ps = PointSet([Point(0, 0.0, 0.0), Point(1, 1.0, 1.0)])
        with pytest.raises(InvalidParameter):
            SpannerGraph("yao", 6, ps, [(0, 0)])

    def test_json_round_trip_is_byte_stable(self):
        ps = gen_random(30, 55)
        h = build_half_theta6(ps)
        g9 = build_g9(h)
        for g in (h, g9, build_mst(ps)):
            text = graph_to_json(g)
            back = graph_from_json(text)
            assert back == g
            assert graph_to_json(back) == text

    def test_malformed_json_rejected(self):
        coords = '{"kind":"yao","k":6,"edges":[],"points":[{"id":0,"x":"abc","y":0}]}'
        for text in ('{"kind":"yao"}', "[]", '{"points":[],"edges":[[0]]}', "not json", coords):
            with pytest.raises(InvalidParameter):
                graph_from_json(text)
        # Ids and edge ends that int() would truncate to other ids.
        points = '[{"id":0,"x":0.0,"y":0.0},{"id":1,"x":1.0,"y":0.0},{"id":2,"x":0.0,"y":1.0}]'
        for points_, edges in ((points, "[[0.9,2.2]]"), (points, "[[true,2]]"),
                               (points.replace('"id":1,', '"id":1.5,'), "[]"),
                               (points, '[["0",2]]'),
                               (points.replace('"x":1.0', '"x":"1.0"'), "[]")):
            text = '{"kind":"yao","k":6,"metadata":{},"points":%s,"edges":%s}' % (points_, edges)
            with pytest.raises(InvalidParameter):
                graph_from_json(text)
        # Headers that would load as a graph no analysis can use.
        for header in ('"kind":"yao","k":"six","metadata":{}', '"kind":5,"k":6,"metadata":{}',
                       '"kind":"rotated_union","k":6,"metadata":[1]', '"kind":"yao","k":1,"metadata":{}'):
            with pytest.raises(InvalidParameter):
                graph_from_json('{%s,"points":%s,"edges":[]}' % (header, points))
        # Edge lists that are not lists of [id, id] pairs.
        for edges in ("[[0,1,2]]", "[0,1]", '"ab"', '{"0":1}', "[[true,1]]", "[[0,true]]"):
            text = '{"kind":"yao","k":6,"metadata":{},"points":%s,"edges":%s}' % (points, edges)
            with pytest.raises(InvalidParameter):
                graph_from_json(text)
        # A cone count that does not fit the kind: 6-cone kinds need k = 6,
        # the MST none, and Theta and Yao graphs some k.
        for kind, k in (("half_theta6", 7), ("g12", 5), ("g9", "null"), ("rotated_union", 7),
                        ("mst", 6), ("theta", "null"), ("yao", "null")):
            text = '{"kind":"%s","k":%s,"metadata":{},"points":%s,"edges":[]}' % (kind, k, points)
            with pytest.raises(InvalidParameter):
                graph_from_json(text)
        ok = '{"kind":"yao","k":6,"metadata":{},"points":%s,"edges":[[0,2.0]]}' % points
        assert graph_from_json(ok).edge_list() == [(0, 2)]
        # A dict iterates over its keys: an empty one is an empty edge list.
        assert graph_from_json(ok.replace("[[0,2.0]]", "{}")).edge_list() == []
        # Unknown kinds keep any valid k.
        assert graph_from_json(ok.replace('"yao","k":6', '"custom","k":null')).k is None

    def test_constructor_owns_the_header_rule(self):
        # The constructor used to take headers the file loader rejects.
        ps = gen_random(12, 3)
        edges = build_half_theta6(ps).edge_list()
        for kind, k, metadata in (("half_theta6", 7, None), ("yao", "six", None), (5, 6, None),
                                  ("yao", 6, [1]), ("mst", 6, None), ("theta", None, None)):
            with pytest.raises(InvalidParameter):
                SpannerGraph(kind, k, ps, edges, metadata)
        # A g9's metadata is exactly {"hints": <dict>}.
        hints = build_g9(build_half_theta6(ps)).metadata["hints"]
        for metadata in (None, {}, {"hints": []}, {"hints": hints, "m": 1}):
            with pytest.raises(InvalidParameter, match="lacks the construction hints required for g9 routing"):
                SpannerGraph("g9", 6, ps, [], metadata)
        # A numpy cone count is stored as the int ConeSystem holds.
        g = SpannerGraph("yao", np.int64(6), ps, [])
        assert type(g.k) is int and graph_from_json(g.to_json()) == g

    def test_unknown_id_message_names_the_smallest_bad_edge(self):
        ps = PointSet([Point(0, 0.0, 0.0), Point(1, 1.0, 0.0), Point(2, 0.0, 1.0)])
        for edges in ([(9, 2), (1, 2), (7, 0)], [(7, 0), (9, 2)]):
            with pytest.raises(InvalidParameter, match=r"edge \(0, 7\) references unknown point id"):
                SpannerGraph("yao", 6, ps, edges)
        with pytest.raises(InvalidParameter, match="self loop at 1"):
            SpannerGraph("yao", 6, ps, [(2, 2), (9, 3), (1, 1)])

    def test_vertex_arguments_must_be_ids_of_the_graph(self):
        # degree(True) used to count vertex 1's edges, has_edge(True, v) to
        # find the edge (1, v), neighbors(999) to raise a bare KeyError, and
        # the edge (True, 0) to be stored as (0, 1).
        ps = PointSet([Point(0, 0.0, 0.0), Point(1, 1.0, 0.0), Point(2, 0.0, 1.0)])
        g = SpannerGraph("x", None, ps, [(1, 2)])
        assert g.has_edge(1, 2) and not g.has_edge(True, 2) and not g.has_edge(2, 1.0)
        assert not g.has_edge(1, 1)
        for method, v in ((g.neighbors, 999), (g.degree, True), (g.neighbors, 1.0)):
            with pytest.raises(InvalidParameter, match="is not in the graph"):
                method(v)
        with pytest.raises(InvalidParameter, match="not a vertex id"):
            SpannerGraph("x", None, ps, [(True, 0)])
        assert SpannerGraph("x", None, ps, [(np.int64(2), 1)]) == g

    def test_ids_beyond_int64_and_negative_ids_round_trip(self):
        # Built in id order: PointSet equality follows insertion order, and
        # graph files list the points by id.
        ps = PointSet([Point(-5, 0.25, -1.0), Point(3, 2.0, 0.5), Point(2**64 + 1, 1.0, 3.0),
                       Point(2**70, -1.5, 0.75)])
        for g in (build_half_theta6(ps), build_mst(ps), SpannerGraph("x", None, ps, [(2**70, -5)])):
            text = g.to_json()
            back = graph_from_json(text)
            assert back == g
            assert back.to_json() == text
        assert SpannerGraph("x", None, ps, [(2**70, -5)]).edge_list() == [(-5, 2**70)]

    def test_equality_ignores_edge_insertion_order(self):
        ps = gen_random(12, 4)
        a = build_theta(ps, 5)
        b = SpannerGraph("theta", 5, ps, list(reversed(a.edge_list())))
        assert a == b
        assert not (a == build_yao(ps, 5)) or a.edges == build_yao(ps, 5).edges

    def test_random_generator_determinism(self):
        a = gen_random(20, 123)
        b = gen_random(20, 123)
        assert a == b
        from spannerkit import points_to_json

        assert points_to_json(a) == points_to_json(b)

"""The streamed exact spanning ratio against the all-pairs computation it
replaced (tests/oracles.py::oracle_spanning_ratio): the same maximum, the same
witness and the same per-pair rows in the same order, also with row blocks of
one and three sources and where np.hypot and math.hypot disagree in the last
ulp at the maximum; and the hub certificate that prunes pairs, on inputs
where it drops most of them."""

import math

import numpy as np
import pytest
from oracles import _oracle_distance_matrices, oracle_spanning_ratio

from spannerkit import (
    DegenerateInput,
    InternalInvariantViolation,
    Point,
    PointSet,
    SpannerGraph,
    analysis,
    build_g9,
    build_g12,
    build_half_theta6,
    build_mst,
    build_rotated_union,
    build_theta,
    build_yao,
    gen_circle,
    gen_random,
    gen_routing_lb,
    gen_theta5_lower_bound,
    spanning_ratio,
)

#: (n, seed) of gen_random sets that the rest of the suite builds graphs on.
SUITE_SETS = (
    (100, 0), (64, 1000), (64, 2024), (60, 5), (48, 301), (40, 913),
    (40, 23), (35, 88), (30, 17), (25, 31), (20, 11), (12, 3), (8, 1), (5, 8),
)


def every_kind(ps, general_position=True):
    graphs = [build_half_theta6(ps), build_rotated_union(ps, 2), build_mst(ps)]
    graphs += [build_yao(ps, k) for k in (2, 4, 5, 6, 12)]
    graphs += [build_theta(ps, k) for k in (3, 5, 7, 12)]
    if general_position:
        # G12/G9 need general position (integer grids make build_g9 fail).
        graphs += [build_g12(graphs[0]), build_g9(graphs[0])]
    return graphs


def assert_matches_oracle(g, monkeypatch, rows=None):
    """spanning_ratio equals the oracle in both modes; rows forces the
    number of Dijkstra sources per block."""
    if rows is not None:
        monkeypatch.setattr(analysis, "_CHECK_BLOCK", rows * max(len(g.points), 1))
    for per_pair in (False, True):
        got = spanning_ratio(g, per_pair=per_pair)
        ref = oracle_spanning_ratio(g, per_pair=per_pair)
        # repr tells NaN, inf and -0.0 apart and checks the row types; the
        # comparisons are made first so that a failure does not diff the
        # whole table.
        differ = [
            name
            for name, a, b in (
                ("max_ratio", repr(got.max_ratio), repr(ref.max_ratio)),
                ("witness", got.witness, ref.witness),
                ("per_pair", repr(got.per_pair), repr(ref.per_pair)),
                ("json", got.to_json(), ref.to_json()),
            )
            if a != b
        ]
        assert not differ, (g.kind, g.k, per_pair, differ, got.max_ratio, ref.max_ratio, got.witness, ref.witness)
    return got


BLOCKS = pytest.mark.parametrize("rows", [None, 1, 3])


@pytest.mark.parametrize("n,seed", SUITE_SETS)
def test_suite_sets_every_kind(n, seed, monkeypatch):
    for g in every_kind(gen_random(n, seed)):
        assert_matches_oracle(g, monkeypatch)


def test_largest_suite_set():
    h = build_half_theta6(gen_random(256, 7))
    for g in (h, build_g12(h), build_g9(h)):
        for per_pair in (False, True):
            got = spanning_ratio(g, per_pair=per_pair)
            ref = oracle_spanning_ratio(g, per_pair=per_pair)
            assert (got.max_ratio, got.witness) == (ref.max_ratio, ref.witness)
            same_rows = got.per_pair == ref.per_pair
            assert same_rows, "per_pair rows differ"


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("n,seed", [(64, 1000), (40, 913), (12, 3), (5, 8)])
def test_suite_sets_in_small_blocks(n, seed, rows, monkeypatch):
    for g in every_kind(gen_random(n, seed)):
        assert_matches_oracle(g, monkeypatch, rows)


@BLOCKS
@pytest.mark.parametrize("n", [3, 6, 12, 24, 60])
def test_circles(n, rows, monkeypatch):
    # Cocircular, equally spaced: many pairs share one exact ratio.
    for g in every_kind(gen_circle(n), general_position=False):
        assert_matches_oracle(g, monkeypatch, rows)


@BLOCKS
@pytest.mark.parametrize("w,h", [(2, 2), (3, 4), (6, 6), (9, 5)])
def test_integer_grids(w, h, rows, monkeypatch):
    ps = PointSet.from_pairs([(float(i), float(j)) for i in range(w) for j in range(h)])
    for g in every_kind(ps, general_position=False):
        assert_matches_oracle(g, monkeypatch, rows)


@BLOCKS
def test_subnormal_distances(rows, monkeypatch):
    # Every coordinate difference is subnormal: one ulp is a large relative error.
    ps = PointSet.from_pairs([(7e-323 * i, 5e-324 * (i * i % 11)) for i in range(12)])
    for g in every_kind(ps, general_position=False):
        assert_matches_oracle(g, monkeypatch, rows)


@BLOCKS
def test_lower_bound_instances(rows, monkeypatch):
    theta5 = build_theta(gen_theta5_lower_bound(), 5)
    got = assert_matches_oracle(theta5, monkeypatch, rows)
    assert got.max_ratio > analysis.bound_value("theta5_lower") * 0.99
    for variant in ("positive", "negative_a", "negative_b"):
        for alpha in (0.0, 0.3):
            ps = gen_routing_lb(variant, alpha=alpha)
            assert_matches_oracle(build_half_theta6(ps), monkeypatch, rows)
            assert_matches_oracle(build_mst(ps), monkeypatch, rows)


@BLOCKS
def test_disconnected_graph_is_inf(rows, monkeypatch):
    ps = PointSet([Point(i, float(i), 0.25 * i * i) for i in range(7)])
    g = SpannerGraph("x", None, ps, [(0, 1), (1, 2), (3, 4), (5, 6)])
    got = assert_matches_oracle(g, monkeypatch, rows)
    assert math.isinf(got.max_ratio) and got.witness == (0, 3)
    bare = SpannerGraph("x", None, ps, [])
    assert assert_matches_oracle(bare, monkeypatch, rows).witness == (0, 1)


def without_vertex_edges(g, v):
    """g with every edge at vertex v removed."""
    return SpannerGraph("x", None, g.points, [e for e in g.edge_list() if v not in e])


def apart_clusters():
    """Half-theta-6 graphs of two sets 1000 apart, with no edge between them."""
    near = gen_random(40, 3)
    far = PointSet(Point(40 + p.id, p.x + 1000.0, p.y + 1000.0) for p in gen_random(40, 4))
    edges = build_half_theta6(near).edge_list() + build_half_theta6(far).edge_list()
    return SpannerGraph("x", None, PointSet(list(near) + list(far)), edges)


#: Disconnected graphs whose distances cannot overflow, and their witnesses.
DISCONNECTED = {
    "isolated_first": (lambda: without_vertex_edges(build_half_theta6(gen_random(60, 1)), 0), (0, 1)),
    "isolated_middle": (lambda: without_vertex_edges(build_half_theta6(gen_random(60, 1)), 5), (0, 5)),
    "isolated_last": (lambda: without_vertex_edges(build_half_theta6(gen_random(60, 1)), 59), (0, 59)),
    "two_clusters": (apart_clusters, (0, 40)),
    # The path 0 - 2 - 1 over the subnormal distance between 0 and 1 gives
    # an inf ratio before vertex 3, which is isolated.
    "overflowing_ratio": (lambda: SpannerGraph(
        "x", None, PointSet.from_pairs([(0.0, 0.0), (5e-324, 0.0), (1.0, 1.0), (2.0, 0.5)]), [(0, 2), (1, 2)]
    ), (0, 1)),
}


@pytest.mark.parametrize("case", DISCONNECTED)
def test_disconnected_graph_is_decided_from_vertex_0(case, monkeypatch):
    build, witness = DISCONNECTED[case]
    g = build()
    starts = []
    limited = analysis._limited_rows

    def counted(mat, lo, limit):
        starts.append(lo)
        return limited(mat, lo, limit)

    monkeypatch.setattr(analysis, "_limited_rows", counted)
    got = spanning_ratio(g)
    assert not starts, "the row loop ran"
    assert math.isinf(got.max_ratio) and got.witness == witness
    with np.errstate(over="ignore"):
        assert_matches_oracle(g, monkeypatch)


@BLOCKS
def test_overflowing_extents_are_rejected(rows, monkeypatch):
    # Sets whose coordinate differences overflow never reach the ratio.
    small = [Point(i, float(i), float(i * i % 5)) for i in range(6)]
    for points in (
        [Point(0, -1.5e308, 0.0), Point(1, 1.5e308, 0.0), Point(2, 0.0, 1.0)],
        small + [Point(6, 1.7e308, 0.0), Point(7, -1.7e308, 1.0)],
        [Point(0, 0.0, 1.0), Point(1, -1.5e308, 0.0), Point(2, 1.5e308, 0.0), Point(3, 0.0, 2.0)],
    ):
        with pytest.raises(DegenerateInput, match="extent"):
            PointSet(points)
    # Just inside the rule no ratio is NaN. Every squared distance is inf,
    # so the MST takes (0, 1) by ids, and d(1, 2) through 0 overflows.
    ps = PointSet([Point(0, -8e307, 0.0), Point(1, 8e307, 0.0), Point(2, 0.0, 1.0)])
    for g, ratio, witness in ((build_half_theta6(ps), 1.0, (0, 1)), (build_mst(ps), math.inf, (1, 2))):
        got = assert_matches_oracle(g, monkeypatch, rows)
        assert (got.max_ratio, got.witness) == (ratio, witness)
    # A path length can still overflow: d(0, 7) runs through 6 and is inf.
    ps = PointSet(small + [Point(6, 8.5e307, 0.0), Point(7, -8.5e307, 1.0)])
    g = SpannerGraph("x", None, ps, [(i, i + 1) for i in range(7)])
    got = assert_matches_oracle(g, monkeypatch, rows)
    assert math.isinf(got.max_ratio) and got.witness == (0, 7)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tiny_sets(n, monkeypatch):
    ps = PointSet.from_pairs([(0.25 * i, 0.5 * i * i) for i in range(n)])
    edges = [(0, 1)] if n == 2 else []
    assert_matches_oracle(SpannerGraph("x", None, ps, edges), monkeypatch)
    if n == 2:
        assert_matches_oracle(SpannerGraph("x", None, ps, []), monkeypatch)


# math.hypot(DX, DY) is one ulp above np.hypot(DX, DY).
DX, DY = 0.7963242702872942, 0.6740466114758241


@BLOCKS
def test_hypot_ulp_at_the_maximum_is_decided_exactly(rows, monkeypatch):
    exact = math.hypot(DX, DY)
    assert float(np.hypot(DX, DY)) != exact
    # A path 0 - 2 - 1 around the pair: its ratio is the only one above 1.
    # Pick the bend where the two denominators round to different ratios.
    for t in np.linspace(0.05, 0.5, 200).tolist():
        bend = (0.5 * DX - t * DY, 0.5 * DY + t * DX)
        d = math.hypot(*bend) + math.hypot(DX - bend[0], DY - bend[1])
        if d / exact != float(d / np.hypot(DX, DY)):
            break
    else:
        pytest.fail("no bend separates the two ratios")
    ps = PointSet([Point(0, 0.0, 0.0), Point(1, DX, DY), Point(2, *bend)])
    g = SpannerGraph("x", None, ps, [(0, 2), (1, 2)])
    got = assert_matches_oracle(g, monkeypatch, rows)
    assert got.witness == (0, 1)
    assert got.max_ratio == d / exact
    assert got.max_ratio != float(d / np.hypot(DX, DY))
    # Every ratio of a triangle is exactly 1, but np.hypot puts (0, 2) one
    # ulp above 1: the witness is still the first pair.
    tri = PointSet([Point(0, 0.0, 0.0), Point(1, 1.0, 0.0), Point(2, DX, DY)])
    got = assert_matches_oracle(SpannerGraph("x", None, tri, [(0, 1), (0, 2), (1, 2)]), monkeypatch, rows)
    assert (got.max_ratio, got.witness) == (1.0, (0, 1))
    # The same pair beside pairs whose np.hypot ratio is within an ulp of it
    # (all translated copies) is still found first and exactly.
    copies = [Point(3 * i + j, x + 3.0 * i, y) for i in range(4) for j, (x, y) in enumerate(((0.0, 0.0), (DX, DY), bend))]
    edges = [(3 * i, 3 * i + 2) for i in range(4)] + [(3 * i + 1, 3 * i + 2) for i in range(4)]
    edges += [(3 * i + 1, 3 * i + 3) for i in range(3)]
    assert_matches_oracle(SpannerGraph("x", None, PointSet(copies), edges), monkeypatch, rows)


def uniform_set(n, seed):
    return PointSet.from_pairs(np.random.default_rng(seed).random((n, 2)).tolist())


def two_clusters():
    # Two sets 1000 apart, one hub each: the pairs across are dropped, the
    # pairs within mostly kept.
    near = [(p.x, p.y) for p in gen_random(120, 3)]
    far = [(p.x + 1000.0, p.y + 1000.0) for p in gen_random(120, 4)]
    return every_kind(PointSet.from_pairs(near + far), general_position=False)


def huge_coordinates():
    ps = PointSet(Point(p.id, p.x * 1e150, p.y * 1e150) for p in gen_random(300, 4))
    return every_kind(ps)


def path_graph(n):
    """A path 0 - 1 - ... - n-1 with steps from 1e-4 to 1e4 in a mixed order
    and a zigzag, so the hub sums round differently from the path's own."""
    steps = [10.0 ** ((k * 7919) % 9 - 4) for k in range(n - 1)]
    xs = np.concatenate(([0.0], np.cumsum(steps))).tolist()
    ps = PointSet(Point(k, xs[k], 0.3 * steps[k % (n - 1)] * (-1) ** k) for k in range(n))
    return SpannerGraph("x", None, ps, [(k, k + 1) for k in range(n - 1)])


def random_768():
    h = build_half_theta6(gen_random(768, 1))
    return [h, build_g12(h), build_g9(h)]


#: Inputs on which the hub certificate drops more than half of the pairs
#: before any Dijkstra runs from them.
PRUNED = {
    "random_768": random_768,
    "uniform_2048": lambda: [build_half_theta6(uniform_set(2048, 2024))],
    "two_clusters": two_clusters,
    "huge_coordinates": huge_coordinates,
    # The maximum is the pair across the MST's one missing circle edge.
    "circle_mst": lambda: [build_mst(gen_circle(200))],
    "path": lambda: [path_graph(1200)],
}


@pytest.fixture(scope="module")
def pruned_references():
    """Case name -> [(graph, oracle report)], filled as the cases run."""
    return {}


@BLOCKS
@pytest.mark.parametrize("case", PRUNED)
def test_pruning_keeps_the_maximum(case, rows, monkeypatch, pruned_references):
    if case not in pruned_references:
        pruned_references[case] = [(g, oracle_spanning_ratio(g)) for g in PRUNED[case]()]
    kept = analysis._HubBounds.kept
    counts = []

    def counting_kept(self, up, dx, dy, best):
        mask = kept(self, up, dx, dy, best)
        # Only pairs (i, j > i): row r's first r columns are j <= i.
        counts.append(int(np.triu(mask).sum()))
        return mask

    monkeypatch.setattr(analysis._HubBounds, "kept", counting_kept)
    for g, ref in pruned_references[case]:
        n = len(g.points)
        if rows is not None:
            monkeypatch.setattr(analysis, "_CHECK_BLOCK", rows * n)
        counts.clear()
        got = spanning_ratio(g)
        assert (repr(got.max_ratio), got.witness, got.to_json()) == (repr(ref.max_ratio), ref.witness, ref.to_json())
        assert counts, "pruning was off"
        assert sum(counts) < n * (n - 1) // 4, (g.kind, g.k, sum(counts), n * (n - 1) // 2)


def test_inflated_hub_bound_covers_every_distance():
    g = path_graph(1200)
    n = len(g.points)
    _, x, y = g.points.arrays
    hubs = analysis._hub_bounds(analysis._length_matrix(g), x, y)
    _, dist, _ = _oracle_distance_matrices(g)
    i, j = np.triu_indices(n, 1)
    d = dist[i, j]
    up = hubs.upper(0, n - 1)[i, j - 1]
    assert (up >= d).all()
    # Without the margin, U falls below the Dijkstra distance on many pairs.
    raw = np.minimum(hubs.own[i] + hubs.dist[hubs.home[i], j], hubs.dist[hubs.home[j], i] + hubs.own[j])
    assert (raw < d).sum() > 1000


def test_a_kept_pair_beyond_its_limit_is_a_bug(monkeypatch):
    # Halving every Dijkstra limit leaves kept pairs unreached.
    dijkstra = analysis._csgraph_dijkstra

    def short_dijkstra(mat, directed, indices, limit=np.inf):
        return dijkstra(mat, directed=directed, indices=indices, limit=limit / 2)

    monkeypatch.setattr(analysis, "_csgraph_dijkstra", short_dijkstra)
    with pytest.raises(InternalInvariantViolation, match="beyond its Dijkstra limit"):
        spanning_ratio(build_half_theta6(gen_random(64, 1000)))

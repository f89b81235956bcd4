"""Scaling a point set by an exact power of two changes none of its outputs
while the table accepts it: the graphs, ratios and routes depend only on
comparisons of distances and angles. Past the table's 2**500 diagonal the set
is rejected, so no square or path length overflows.

Scaling down is exact only while the absolute EPS = 1e-9 of
CanonicalTriangle.contains stays small next to the distances (ROADMAP item
5): at 2**-16 the four routes of gen_random(64, 11) from 25 to 29 pass 39
instead of 45. That difference is pinned, so mending it fails this test."""

import functools
import random

import pytest

from spannerkit import (
    DegenerateInput,
    Point,
    PointSet,
    build_g9,
    build_g12,
    build_half_theta6,
    build_mst,
    build_rotated_union,
    build_theta,
    build_yao,
    gen_random,
    restricted_pair_check,
    route_g9,
    route_g12,
    route_stateful,
    route_stateless,
    shortest_path,
    spanning_ratio,
)

SEEDS = (3, 11)
EXPONENTS = (-16, -8, 8, 64, 256, 498)
PAIRS = 100
#: The outputs the absolute EPS changes, by (seed, exponent) (see the module
#: docstring).
EPS_CHANGED = {(11, -16): [f"{route}/25/29" for route in ("route_stateless", "route_stateful", "route_g12", "route_g9")]}


def _scaled(ps, e):
    return PointSet(Point(p.id, p.x * 2.0**e, p.y * 2.0**e) for p in ps)


def _outputs(ps, pairs):
    """Every edge list, ratio and path the test compares across scales."""
    h = build_half_theta6(ps)
    g12, g9 = build_g12(h), build_g9(h)
    graphs = {
        "half_theta6": h, "g12": g12, "g9": g9, "yao5": build_yao(ps, 5), "yao6": build_yao(ps, 6),
        "theta7": build_theta(ps, 7), "rotated_union": build_rotated_union(ps, 2), "mst": build_mst(ps),
    }
    out = {name: g.edge_list() for name, g in graphs.items()}
    for name in ("half_theta6", "g12", "g9"):
        report = spanning_ratio(graphs[name])
        out[f"ratio/{name}"] = (report.max_ratio, report.witness)
    routers = ((route_stateless, h), (route_stateful, h), (route_g12, g12), (route_g9, g9))
    for s, t in pairs:
        for route, g in routers:
            out[f"{route.__name__}/{s}/{t}"] = route(g, s, t).path()
        out[f"pair/{s}/{t}"] = restricted_pair_check(h, s, t)["path"]
        out[f"shortest/{s}/{t}"] = shortest_path(h, s, t)[0]
    return out


@functools.cache
def _base(seed):
    ps = gen_random(64, seed)
    rng = random.Random(seed)
    pairs = [tuple(rng.sample(ps.ids, 2)) for _ in range(PAIRS)]
    return ps, pairs, _outputs(ps, pairs)


@pytest.mark.parametrize("e", EXPONENTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_power_of_two_scales_change_nothing(seed, e):
    ps, pairs, want = _base(seed)
    got = _outputs(_scaled(ps, e), pairs)
    assert [key for key in want if got[key] != want[key]] == EPS_CHANGED.get((seed, e), [])


@pytest.mark.parametrize("seed", SEEDS)
def test_scales_past_the_rule_are_rejected(seed):
    # The unit square times 2**530 has a diagonal near 2**530.5; at that scale
    # Yao-6 and the MST changed, and most routes raised InternalInvariantViolation.
    with pytest.raises(DegenerateInput, match="^coordinate differences overflow: .*extents"):
        _scaled(gen_random(64, seed), 530)

"""Routing engine tests: guards, per-pair budgets, potential accounting, case
transitions, the bounded-degree engines, trace serialization, and a golden
digest of every trace on fixed sets."""

import hashlib
import json
import math
import random

import numpy as np
import pytest

from spannerkit import (
    ROUTING_FACTORS,
    AlreadyArrived,
    DegenerateInput,
    InvalidParameter,
    Point,
    PointSet,
    build_g9,
    build_g12,
    build_half_theta6,
    build_theta,
    classify_case,
    gen_random,
    gen_routing_lb,
    potential,
    route_g9,
    route_g12,
    route_stateful,
    route_stateless,
    trace_from_json,
)
from spannerkit.routing import base_bound

from oracles import oracle_pair_bound

PAY_EPS = 1e-9


@pytest.fixture(scope="module")
def world():
    ps = gen_random(48, 301)
    h = build_half_theta6(ps)
    return h, build_g12(h), build_g9(h)


@pytest.fixture(scope="module")
def pairs(world):
    h, _, _ = world
    ids = sorted(p.id for p in h.points)
    rng = random.Random(99)
    return [tuple(rng.sample(ids, 2)) for _ in range(60)]


class TestGuards:
    def test_wrong_graph_kind(self, world):
        h, g12, g9 = world
        t6 = build_theta(h.points, 6)
        with pytest.raises(InvalidParameter):
            route_stateless(t6, 0, 1)
        with pytest.raises(InvalidParameter):
            route_g12(h, 0, 1)
        with pytest.raises(InvalidParameter):
            route_g9(g12, 0, 1)

    def test_unknown_ids(self, world):
        h, _, g9 = world
        with pytest.raises(InvalidParameter):
            route_stateless(h, 0, 999)
        with pytest.raises(InvalidParameter):
            route_stateful(h, -5, 1)
        # An unhashable id is unknown too, not a TypeError, and True and 1.0
        # are no ids, though they hash and compare equal to 1.
        for route, g in ((route_stateless, h), (route_g9, g9)):
            for s, t in (([0], 1), (1, [0]), (True, 0), (0, True), (1.0, 5), (5, 1.0)):
                with pytest.raises(InvalidParameter, match="is not in the graph"):
                    route(g, s, t)

    def test_numpy_integer_ids_route_as_ints(self, world):
        # A numpy-integer source used to be copied into the trace, which
        # to_json then could not write.
        h, _, g9 = world
        for route, g in ((route_stateless, h), (route_g9, g9)):
            trace = route(g, np.int64(3), np.int64(9))
            assert (type(trace.source), type(trace.target)) == (int, int)
            assert trace_from_json(trace.to_json()) == route(g, 3, 9)

    def test_source_equals_target(self, world):
        h, g12, g9 = world
        for router, g in (
            (route_stateless, h),
            (route_stateful, h),
            (route_g12, g12),
            (route_g9, g9),
        ):
            with pytest.raises(AlreadyArrived):
                router(g, 7, 7)

    def test_overflowing_extent_is_degenerate_input(self):
        # Coordinate differences overflow here: the routers and the case
        # classification used to raise InternalInvariantViolation, or report
        # case B with all three regions empty. No graph is built on it now.
        with pytest.raises(DegenerateInput, match="extent"):
            PointSet([Point(0, -1.5e308, 0.0), Point(1, 1.5e308, 0.0), Point(2, 0.0, 1.0)])

    def test_factor_table(self):
        assert ROUTING_FACTORS == {
            "stateless": 1.0,
            "stateful": 1.0,
            "g12": 19.0,
            "g9": 3.0,
        }


class TestBaseBound:
    def test_matches_alpha_formula_oracle(self, world, pairs):
        h, _, _ = world
        for s, t in pairs:
            value, started_negative = base_bound(h, s, t)
            ref, ref_positive = oracle_pair_bound(h, s, t)
            assert value == pytest.approx(ref, rel=1e-12)
            assert started_negative == (not ref_positive)

    def test_bound_brackets(self, world, pairs):
        # Positive pairs pay in [sqrt(3), 2]; negative pairs in [2, 5/sqrt(3)]
        # times the direct distance.
        h, _, _ = world
        for s, t in pairs:
            ps_, pt_ = h.points[s], h.points[t]
            d = math.hypot(pt_.x - ps_.x, pt_.y - ps_.y)
            value, started_negative = base_bound(h, s, t)
            if started_negative:
                assert 2.0 * d - 1e-9 <= value <= 5.0 / math.sqrt(3.0) * d + 1e-9
            else:
                assert math.sqrt(3.0) * d - 1e-9 <= value <= 2.0 * d + 1e-9

    def test_unknown_ids(self, world):
        # 999 used to raise a bare KeyError, and True to stand for vertex 1.
        h, _, _ = world
        for s, t in ((999, 1), (1, 999), ([0], 1), (True, 0), (0, True), (1.0, 5)):
            with pytest.raises(InvalidParameter, match="is not in the graph"):
                base_bound(h, s, t)


class TestPotential:
    def test_arrival_is_zero(self, world):
        h, _, _ = world
        pv = potential(h, 5, 5)
        assert pv.case == "arrived" and pv.value == 0.0

    def test_positive_away_from_arrival(self, world, pairs):
        h, _, _ = world
        for s, t in pairs:
            for algorithm in ("stateless", "stateful"):
                assert potential(h, s, t, algorithm=algorithm).value > 0.0

    def test_case_matches_classification(self, world, pairs):
        h, _, _ = world
        for s, t in pairs:
            assert potential(h, s, t).case == classify_case(h, s, t)["case"]

    def test_classification_shape(self, world, pairs):
        h, _, _ = world
        for s, t in pairs:
            cc = classify_case(h, s, t)
            if cc["positive"]:
                assert cc["case"] == "A" and cc["cone"] % 2 == 0
            else:
                assert cc["cone"] % 2 == 1
                both = cc["x1_nonempty"] and cc["x2_nonempty"]
                neither = not (cc["x1_nonempty"] or cc["x2_nonempty"])
                expected = "D" if both else ("B" if neither else "C")
                assert cc["case"] == expected

    def test_rejects_bad_arguments(self, world):
        h, g12, _ = world
        with pytest.raises(InvalidParameter):
            potential(h, 0, 1, algorithm="psychic")
        with pytest.raises(InvalidParameter):
            potential(g12, 0, 1)
        with pytest.raises(InvalidParameter):
            potential(h, 0, 999)
        with pytest.raises(InvalidParameter):
            potential(h, 0, 1, algorithm="stateful", preferred="bogus")


class TestFullEngines:
    @pytest.mark.parametrize("router", [route_stateless, route_stateful])
    def test_steps_pay_their_way(self, world, pairs, router):
        h, _, _ = world
        for s, t in pairs:
            tr = router(h, s, t)
            assert tr.passed
            assert tr.path()[0] == s and tr.path()[-1] == t
            assert len(set(tr.path())) == len(tr.path())
            total = 0.0
            for step in tr.steps:
                assert h.has_edge(step.source, step.target)
                assert step.phi_before - step.phi_after >= step.length - PAY_EPS
                assert step.phi_after >= 0.0
                total += step.length
            assert total == pytest.approx(tr.total_path_length, abs=1e-12)
            assert tr.steps[-1].phi_after == 0.0
            assert tr.total_path_length <= tr.bound + PAY_EPS

    @pytest.mark.parametrize("router", [route_stateless, route_stateful])
    def test_case_transitions(self, world, pairs, router):
        h, _, _ = world
        for s, t in pairs:
            tr = router(h, s, t)
            _, started_negative = base_bound(h, s, t)
            labels = [step.case for step in tr.steps]
            if not started_negative:
                assert "D" not in labels
            for prev, nxt in zip(labels, labels[1:]):
                if prev in ("A", "B", "C"):
                    assert nxt != "D"

    @pytest.mark.parametrize("scale", [1e6, 1e7, 1e8, 1e10, 1e12])
    def test_large_coordinates_route_every_pair(self, scale):
        # The positive step may land on the target itself, which can sit a
        # rounding error outside its own canonical triangle at this scale.
        ps = PointSet(Point(p.id, p.x * scale, p.y * scale) for p in gen_random(32, 5))
        h = build_half_theta6(ps)
        ids = sorted(p.id for p in ps)
        for s in ids:
            for t in ids:
                if s != t:
                    assert route_stateless(h, s, t).passed
                    assert route_stateful(h, s, t).passed

    def test_deterministic(self, world):
        h, _, _ = world
        a = route_stateless(h, 3, 41)
        b = route_stateless(h, 3, 41)
        assert a == b
        assert a.to_json() == b.to_json()


class TestSubgraphEngines:
    @pytest.mark.parametrize("flavor", ["g12", "g9"])
    def test_terminates_within_budget(self, world, pairs, flavor):
        h, g12, g9 = world
        router, g = (route_g12, g12) if flavor == "g12" else (route_g9, g9)
        for s, t in pairs:
            tr = router(g, s, t)
            assert tr.passed
            assert tr.path()[0] == s and tr.path()[-1] == t
            assert tr.exploration_travel >= 0.0
            assert tr.probe_slack >= 0.0
            base, _ = base_bound(h, s, t)
            assert tr.bound == pytest.approx(
                ROUTING_FACTORS[flavor] * base + tr.probe_slack, rel=1e-12
            )
            spent = tr.total_path_length + tr.exploration_travel
            assert spent <= tr.bound + PAY_EPS
            assert spent == pytest.approx(
                sum(s_.length + s_.exploration for s_ in tr.steps), abs=1e-12
            )

    def test_arrival_keeps_exploration_spent_before_it(self):
        # From 81 the doubling search turns back once before a flank walk
        # steps onto the target; that round trip belongs to the final step.
        g12 = build_g12(build_half_theta6(gen_random(128, 4)))
        for t in (80, 107):
            tr = route_g12(g12, 81, t)
            assert tr.path() == [81, t]
            assert tr.steps[0].case == "B"
            assert tr.steps[0].exploration > 0.0
            assert tr.exploration_travel == tr.steps[0].exploration
            assert tr.passed

    def test_deterministic(self, world):
        _, _, g9 = world
        a = route_g9(g9, 2, 30)
        b = route_g9(g9, 2, 30)
        assert a == b


# SHA-256 of to_json() of all four routers over every ordered pair of the
# golden sets, set by set, pairs in id order, routers in the order below.
GOLDEN_TRACE_DIGEST = "546d26b9edcc573fac5713f80b1ab23d94bcbcb92514c764c6819f5f5657286f"


def _golden_sets():
    yield gen_random(24, 1)
    yield gen_random(40, 2)
    for variant in ("positive", "negative_a", "negative_b"):
        for alpha in (0.0, 0.3):
            yield gen_routing_lb(variant, alpha=alpha)


class TestGoldenTraces:
    def test_trace_bytes_pinned(self):
        digest = hashlib.sha256()
        traces = 0
        slack_hits = {"g12": 0, "g9": 0}
        for ps in _golden_sets():
            h = build_half_theta6(ps)
            g12, g9 = build_g12(h), build_g9(h)
            routers = (
                ("stateless", route_stateless, h),
                ("stateful", route_stateful, h),
                ("g12", route_g12, g12),
                ("g9", route_g9, g9),
            )
            ids = sorted(p.id for p in ps)
            for s in ids:
                for t in ids:
                    if s == t:
                        continue
                    for name, router, g in routers:
                        tr = router(g, s, t)
                        digest.update(tr.to_json().encode())
                        traces += 1
                        if name in slack_hits and tr.probe_slack > 0.0:
                            slack_hits[name] += 1
        assert traces == 8816
        # The sets reach the capped probe that charges slack on both subgraphs.
        assert slack_hits == {"g12": 128, "g9": 109}
        assert digest.hexdigest() == GOLDEN_TRACE_DIGEST


class TestRelabelledIds:
    def test_routes_follow_an_id_map(self):
        # Ids mapped by a decreasing map and points inserted out of order:
        # routers work on indices, so every trace must map onto the base one.
        base = gen_random(40, 2)
        relabel = {p.id: 1000 - 7 * p.id for p in base}
        pts = [Point(relabel[p.id], p.x, p.y) for p in base]
        random.Random(5).shuffle(pts)
        graphs = []
        for ps in (base, PointSet(pts)):
            h = build_half_theta6(ps)
            graphs.append({"stateless": h, "stateful": h, "g12": build_g12(h), "g9": build_g9(h)})
        routers = {"stateless": route_stateless, "stateful": route_stateful,
                   "g12": route_g12, "g9": route_g9}

        def shape(tr):
            steps = [(s.case, s.phi_before, s.phi_after, s.length, s.exploration) for s in tr.steps]
            return (steps, tr.total_path_length, tr.exploration_travel, tr.bound,
                    tr.probe_slack, tr.passed)

        ids = sorted(relabel)
        for name, router in routers.items():
            for s in ids:
                for t in ids:
                    if s == t:
                        continue
                    a = router(graphs[0][name], s, t)
                    b = router(graphs[1][name], relabel[s], relabel[t])
                    assert b.path() == [relabel[v] for v in a.path()]
                    assert shape(b) == shape(a)


class TestTraceSerialization:
    def test_round_trip(self, world):
        h, g12, g9 = world
        for tr in (
            route_stateless(h, 0, 40),
            route_stateful(h, 11, 23),
            route_g12(g12, 5, 44),
            route_g9(g9, 17, 8),
        ):
            text = tr.to_json()
            back = trace_from_json(text)
            assert back == tr
            assert back.to_json() == text

    def test_malformed_rejected(self):
        step = '{"from":0,"to":1,"case":"A","phi_before":"abc","phi_after":0,"len":1,"exploration":0}'
        for text in ("{}", '{"steps": "no"}', '{"algorithm":"x","steps":[{}]}', "not json",
                     '{"algorithm":"x","source":0,"target":1,"steps":[' + step + '],'
                     '"total":1,"exploration":0,"bound":2,"pass":true}'):
            with pytest.raises(InvalidParameter):
                trace_from_json(text)
        # Values that int(), float(), str() and bool() would coerce.
        step = {"from": 0, "to": 1, "case": "A", "phi_before": 0.0, "phi_after": 0.0,
                "len": 1.0, "exploration": 0.0}
        doc = {"algorithm": "stateless", "source": 0, "target": 1, "steps": [step],
               "total": 1.0, "exploration": 0.0, "bound": 2.0, "probe_slack": 0.0, "pass": True}
        assert trace_from_json(json.dumps(doc)).passed is True
        for key, bad in (("source", 0.7), ("total", "1e3"), ("pass", "false"), ("algorithm", "x")):
            with pytest.raises(InvalidParameter):
                trace_from_json(json.dumps({**doc, key: bad}))
        for key, bad in (("from", True), ("case", 7), ("case", "E")):
            with pytest.raises(InvalidParameter):
                trace_from_json(json.dumps({**doc, "steps": [{**step, key: bad}]}))

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_numbers_rejected(self, world, bad):
        # json.loads reads NaN and the infinities, and 1e400 overflows to inf.
        doc = json.loads(route_stateless(world[0], 0, 40).to_json())
        assert doc["steps"]
        fields = [(doc, key) for key in ("total", "exploration", "bound", "probe_slack")]
        fields += [(doc["steps"][0], key) for key in ("len", "phi_before", "phi_after", "exploration")]
        for record, key in fields:
            kept, record[key] = record[key], "@"
            text = json.dumps(doc).replace('"@"', bad)
            record[key] = kept
            with pytest.raises(InvalidParameter, match=r"^malformed trace JSON: expected a finite number"):
                trace_from_json(text)
        assert trace_from_json(json.dumps(doc)) == route_stateless(world[0], 0, 40)

"""Bad arguments to the public constructors and parameter checks raise a
documented SpannerKitError, never a bare Python exception and never
InternalInvariantViolation, which means a bug in spannerkit."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from spannerkit import (
    InternalInvariantViolation,
    PointSet,
    SpannerGraph,
    SpannerKitError,
    bound_value,
    build_g9,
    build_half_theta6,
    gen_circle,
    gen_random,
    gen_routing_lb,
    gen_theta5_lower_bound,
    g9_approximation_check,
    render_svg,
    restricted_pair_check,
    verify_bound,
)


def _points():
    return gen_random(12, 3)


CASES = {
    # Real-valued parameters (geometry._as_real).
    "alpha-string": lambda: bound_value("pair_alpha", alpha="x"),
    "alpha-nan": lambda: bound_value("pair_alpha", alpha=math.nan),
    "alpha-inf": lambda: bound_value("routing_negative", alpha=math.inf),
    "alpha-bool": lambda: bound_value("pair_alpha", alpha=True),
    "tolerance-string": lambda: verify_bound(build_half_theta6(_points()), tolerance="0"),
    "radius-nan": lambda: gen_circle(8, math.nan),
    "radius-string": lambda: gen_circle(8, "1"),
    "lb-alpha-nan": lambda: gen_routing_lb("positive", alpha=math.nan),
    "lb-nudge-string": lambda: gen_routing_lb("positive", nudge="x"),
    "theta5-nudge-bool": lambda: gen_theta5_lower_bound(nudge=True),
    # Construction.
    "points-none": lambda: PointSet(None),
    "points-not-points": lambda: PointSet([1, 2]),
    "pairs-of-three": lambda: PointSet.from_pairs([(1, 2, 3)]),
    "pairs-not-pairs": lambda: PointSet.from_pairs([1]),
    "edge-of-one-end": lambda: SpannerGraph("yao", 6, _points(), [(0,)]),
    "edges-none": lambda: SpannerGraph("yao", 6, _points(), None),
    "graph-points-not-a-point-set": lambda: SpannerGraph("yao", 6, [(0.0, 0.0)], []),
    "overlay-not-a-trace": lambda: render_svg(build_half_theta6(_points()), overlay=5),
}


@pytest.mark.parametrize("case", CASES)
def test_bad_argument_is_rejected_input(case):
    with pytest.raises(SpannerKitError) as info:
        CASES[case]()
    assert not isinstance(info.value, InternalInvariantViolation)


@pytest.mark.parametrize("value", [Fraction(5), np.float32(5), np.int64(5)])
def test_checked_reals_come_back_as_floats(value):
    # A bound or tolerance is checked as a float and used as one, so every
    # result holds floats and bools that JSON can write.
    h = build_half_theta6(gen_random(20, 1))
    pair = restricted_pair_check(h, 0, 1, bound=value, tolerance=value)
    assert (type(pair["bound"]), type(pair["ok"])) == (float, bool)
    json.dumps(pair)
    report = verify_bound(h, tolerance=value)
    assert type(report.passed) is bool
    report.to_json()
    ok, records = g9_approximation_check(h, build_g9(h), tolerance=value)
    assert type(ok) is bool and {type(r["ok"]) for r in records} == {bool}
    json.dumps(records)

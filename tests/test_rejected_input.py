"""Bad arguments to the public constructors and parameter checks raise a
documented SpannerKitError, never a bare Python exception and never
InternalInvariantViolation, which means a bug in spannerkit."""

import math

import pytest

from spannerkit import (
    InternalInvariantViolation,
    PointSet,
    SpannerGraph,
    SpannerKitError,
    bound_value,
    build_half_theta6,
    gen_circle,
    gen_random,
    gen_routing_lb,
    gen_theta5_lower_bound,
    render_svg,
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

"""Tests for the 31-point theta-5 lower-bound instance: parameter domain,
step-by-step replay of the construction, the final ratio window, and
convergence toward the closed-form limit."""

import math

import pytest

from spannerkit import (
    InvalidParameter,
    PointSet,
    THETA5_LB_FINAL_PATH,
    THETA5_LB_STEP_PATHS,
    bound_value,
    build_theta,
    gen_theta5_lower_bound,
    shortest_path,
    spanning_ratio,
)


@pytest.fixture(scope="module")
def instance():
    return gen_theta5_lower_bound()


class TestGenerator:
    @pytest.mark.parametrize("nudge", [0.0, -1e-5, 2e-3, 1.0, "x", None, True])
    def test_rejects_bad_nudge(self, nudge):
        with pytest.raises(InvalidParameter):
            gen_theta5_lower_bound(nudge)

    def test_has_31_points_with_dense_ids(self, instance):
        assert sorted(p.id for p in instance) == list(range(31))

    def test_anchor_pair_geometry(self, instance):
        # Vertex 1 sits a nudge outside the unit canonical triangle of vertex 0.
        d = math.hypot(instance[1].x, instance[1].y)
        assert d == pytest.approx(1.0, abs=1e-3)


class TestReplay:
    def test_every_step_path(self, instance):
        pts = sorted(instance, key=lambda p: p.id)
        for count, expected in THETA5_LB_STEP_PATHS:
            prefix = PointSet(pts[:count])
            g = build_theta(prefix, 5)
            path, _ = shortest_path(g, 0, 1)
            assert tuple(path) == expected, f"prefix of {count} vertices"

    def test_final_path(self, instance):
        g = build_theta(instance, 5)
        path, _ = shortest_path(g, 0, 1)
        assert tuple(path) == THETA5_LB_FINAL_PATH


class TestRatio:
    def test_ratio_window_at_default_nudge(self, instance):
        rep = spanning_ratio(build_theta(instance, 5))
        assert 3.79 <= rep.max_ratio <= 3.7984
        assert rep.witness == (0, 1)

    def test_stays_below_the_limit_and_converges(self, instance):
        limit = bound_value("theta5_lower")
        ratios = []
        for nudge in (1e-3, 1e-4, 1e-5):
            ps = instance if nudge == 1e-4 else gen_theta5_lower_bound(nudge)
            ratios.append(spanning_ratio(build_theta(ps, 5)).max_ratio)
        assert ratios == sorted(ratios)
        for r in ratios:
            assert r < limit
        assert limit - ratios[-1] < 1e-3

    def test_upper_bound_still_holds(self, instance):
        rep = spanning_ratio(build_theta(instance, 5))
        assert rep.max_ratio <= bound_value("theta5") + 1e-9

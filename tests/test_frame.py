"""Tests for the cone frame that ConeSystem(k) holds: its entries are libm's
sin and cos of the angles every construction, certificate and router uses,
and the outputs that read it stay byte-identical."""

import copy
import hashlib
import math
import pickle

import numpy as np
import pytest

from spannerkit import (
    ConeSystem,
    InvalidParameter,
    angle_alpha,
    build_theta,
    canonical_triangle,
    gen_random,
    gen_theta5_lower_bound,
    main,
    points_to_json,
    theta5_witness_path,
    theta_projection,
)
from spannerkit import kernels
from spannerkit.build import _empty_cones
from spannerkit.geometry import _avoided_directions
from spannerkit.routing import _clip_wedge

FRAME_KS = range(2, 65)


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


class TestConeFrame:
    @pytest.mark.parametrize("k", FRAME_KS)
    def test_entries_are_the_angles_of_every_spelling(self, k):
        f = ConeSystem(k)
        # theta as kernels, geometry, build and cli_io each wrote it.
        for theta in (kernels.TWO_PI / k, 2 * math.pi / k, math.tau / k, 2.0 * math.pi / k):
            assert f.theta == theta
            assert f.half == theta / 2 == theta / 2.0 == math.pi / k
        assert f.k == k
        for i in range(k):
            bis = i * (kernels.TWO_PI / k)
            assert f.bisectors[i] == bis == (i % k) * (2 * math.pi / k) == i * (math.tau / k)
            lo = i * f.theta - f.theta / 2
            hi = i * f.theta + f.theta / 2
            assert f.lo[i] == lo == i * f.theta - f.theta / 2.0
            assert f.hi[i] == hi == (f.theta / 2 + i * f.theta) % (2 * math.pi)
            assert f.bisector_dir[i] == (math.sin(bis), math.cos(bis))
            assert f.lo_dir[i] == (math.sin(lo), math.cos(lo))
            assert f.hi_dir[i] == (math.sin(hi), math.cos(hi))
        # The theta-5 bootstrap corners were (-sin(half), cos(half)) and
        # (sin(half), cos(half)); the certificate read cos(pi / k).
        assert f.lo_dir[0] == (-math.sin(f.half), math.cos(f.half))
        assert f.hi_dir[0] == (math.sin(f.half), math.cos(f.half))
        assert f.hi_dir[0][1] == math.cos(math.pi / k)

    @pytest.mark.parametrize("k", (2, 5, 6, 64))
    def test_arrays_are_read_only_copies_of_the_tuples(self, k):
        f = ConeSystem(k)
        for arr, col in ((f.sin_bisector, 0), (f.cos_bisector, 1)):
            assert arr.dtype == np.float64
            assert arr.tolist() == [d[col] for d in f.bisector_dir]
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_one_frame_per_k(self):
        assert ConeSystem(7) is ConeSystem(7)
        assert ConeSystem(7) is ConeSystem(np.int64(7))
        assert type(ConeSystem(np.int64(7)).k) is int
        assert copy.deepcopy(ConeSystem(7)) is pickle.loads(pickle.dumps(ConeSystem(7))) is ConeSystem(7)

    def test_a_cached_k_is_checked_again(self):
        ConeSystem(6)
        for bad in (6.0, True):
            with pytest.raises(InvalidParameter, match=rf"^cone count must be an integer >= 2, got {bad!r}$"):
                ConeSystem(bad)

    def test_cone_count_is_bounded(self, tmp_path, capsys):
        # Each k's tables are built at once and kept; 10**7 cones would take
        # about 4.5 GB. The bound is checked before anything is built.
        assert ConeSystem(4096).k == 4096
        for big in (4097, 10**7):
            with pytest.raises(InvalidParameter, match=rf"^cone count must be at most 4096, got {big}$"):
                ConeSystem(big)
            assert big not in ConeSystem._by_k
        pts = tmp_path / "pts.json"
        pts.write_text(points_to_json(gen_random(8, 3)))
        assert main(["build", "--graph", "theta", "--k", "10000000", "--points", str(pts)]) == 2
        assert "cone count must be at most 4096" in capsys.readouterr().err
        assert 10**7 not in ConeSystem._by_k

    @pytest.mark.parametrize("k", FRAME_KS)
    def test_cone_system_angles_are_unchanged(self, k):
        cs = ConeSystem(k)
        theta = 2 * math.pi / k
        assert cs.theta == theta
        for i in range(-k, 2 * k):
            assert cs.bisector(i) == (i % k) * theta
        assert cs.boundary_azimuths() == [(theta / 2 + i * theta) % (2 * math.pi) for i in range(k)]

    @pytest.mark.parametrize("k", (3, 5, 6, 8))
    def test_inward_normals_match_the_clip_and_certificate_formulas(self, k):
        f = ConeSystem(k)
        rng = np.random.default_rng(k)
        for dx, dy in rng.normal(size=(50, 2)).tolist() + [(0.0, 0.0), (1.0, 0.0), (0.0, -1.0)]:
            for i in range(k):
                (sl, cl), (sh, ch) = f.lo_dir[i], f.hi_dir[i]
                # The router's clip wrote the lo side negated; only an exact
                # zero can differ, in its sign.
                assert f.lo_inward(i, dx, dy) == -(sl * dy - cl * dx)
                assert f.hi_inward(i, dx, dy) == sh * dy - ch * dx


#: First 16 hex digits of the sha256 of each output's repr, as computed
#: before the cone frame existed (the angles were worked out at every site).
FRAME_OUTPUT_SHA256 = {
    "triangles": "bc8dc71cb338135d",
    "empty_cones": "5ab5d7847334a876",
    "theta5_witness": "83d3e8c974652f2f",
    "theta5_lower_bound": "6177890091f13bfc",
    "avoided_directions": "fb735abdc6325b2e",
    "wedge_clips": "2b2057754a029ec6",
}
PIN_KS = (2, 3, 4, 5, 7, 8, 12)


class TestFrameOutputs:
    """Outputs of the frame's readers that no golden graph or trace covers
    (those are k = 6 only): all must be the same doubles as before."""

    def test_triangles_projections_and_alphas(self):
        out = []
        for s in (1, 2):
            pts = [p.xy for p in gen_random(40, s)]
            for k in PIN_KS:
                cs = ConeSystem(k)
                for u in pts:
                    for w in pts:
                        if u == w:
                            continue
                        t = canonical_triangle(cs, u, w)
                        out.append((t.cone, t.projection, t.size, t.corner_a, t.corner_b,
                                    t.midpoint_m, t.balance_x, theta_projection(cs, u, w),
                                    angle_alpha(cs, u, w)))
        assert _digest(out) == FRAME_OUTPUT_SHA256["triangles"]

    def test_empty_cone_masks(self):
        out = []
        for s in (1, 2):
            _, x, y = gen_random(60, s).arrays
            for k in PIN_KS:
                mask = _empty_cones(x - x.min(), y - y.min(), k, list(range(k)))
                out.append(mask.tolist())
        assert _digest(out) == FRAME_OUTPUT_SHA256["empty_cones"]

    def test_theta5_witness_paths(self):
        ps = gen_random(60, 3)
        g = build_theta(ps, 5)
        ids = [p.id for p in ps]
        out = [theta5_witness_path(g, u, w) for u in ids for w in ids if u != w]
        assert _digest(out) == FRAME_OUTPUT_SHA256["theta5_witness"]

    def test_theta5_lower_bound_coordinates(self):
        out = [(p.id, p.x, p.y) for p in gen_theta5_lower_bound()]
        assert _digest(out) == FRAME_OUTPUT_SHA256["theta5_lower_bound"]

    def test_wedge_clips(self):
        # The routers clip a canonical triangle to a cone of another vertex;
        # no golden trace reaches the clip.
        cs = ConeSystem(6)
        pts = [p.xy for p in gen_random(40, 4)][:15]
        out = []
        for t in pts:
            for v in pts:
                if t != v:
                    poly = canonical_triangle(cs, t, v).polygon()
                    out.extend(_clip_wedge(poly, apex, c) for apex in pts for c in range(6))
        assert sum(0 < len(p) for p in out) > len(out) // 10
        assert _digest(out) == FRAME_OUTPUT_SHA256["wedge_clips"]

    def test_avoided_directions(self):
        out = [_avoided_directions(k) for k in FRAME_KS]
        assert _digest(out) == FRAME_OUTPUT_SHA256["avoided_directions"]

"""Seeded generation and the general-position report against the scalar
oracles they replaced: the same points for every seed, the same findings in
the same order, also with tiny row blocks, at extreme scales and for pairs
whose margin to a threshold is small enough that the vectorized filter hands
them to the scalar test; and the direction lattice behind that filter."""

import math
from fractions import Fraction

import numpy as np
import pytest

from spannerkit import (
    ConeSystem,
    DegenerateInput,
    InvalidParameter,
    Point,
    PointSet,
    cli_io,
    gen_circle,
    gen_random,
    gen_routing_lb,
    gen_theta5_lower_bound,
    general_position_report,
    geometry,
)
from spannerkit.geometry import EPS

from oracles import (
    _oracle_clears_degeneracies,
    oracle_direction_gaps,
    oracle_gen_random,
    oracle_general_position_report,
)

# (n, seed) pairs the rest of the suite and the benchmark's small sets use.
SUITE_SETS = [(256, 7), (64, 2024), (48, 301), (40, 913), (40, 321), (35, 88), (64, 1000)]


def _report_bad_dirs(k):
    bad = set()
    for az in ConeSystem(k).boundary_azimuths():
        bad.add(az % math.pi)
        bad.add((az + math.pi / 2) % math.pi)
    return sorted(bad)


def _at_boundary_pairs(k):
    """The origin plus one point per (bad direction, offset): the offsets put
    the pair's direction EPS (and EPS +/- 1 ulp) to either side of the bad
    direction, where only the scalar test can decide, and clearly inside
    (EPS / 2) and outside (2 * EPS) the tolerance."""
    offsets = []
    for e in (EPS, math.nextafter(EPS, 0.0), math.nextafter(EPS, 1.0), EPS / 2, 2 * EPS):
        offsets += [e, -e]
    pairs = [(0.0, 0.0)]
    for b in _report_bad_dirs(k):
        for off in offsets:
            r = 0.5 + 0.01 * len(pairs)
            pairs.append((r * math.sin(b + off), r * math.cos(b + off)))
    return PointSet.from_pairs(pairs)


def _near_tie_set():
    """Apex at the origin and pairs of points whose distances from it differ
    by EPS * max(1, d), nudged by a few ulps either way."""
    pairs = [(0.0, 0.0)]
    for base, az in ((0.4, 0.3), (2.5, 1.1), (0.9, 2.0)):
        for i, nudge in enumerate((-4e-16, 0.0, 4e-16)):
            r = base + 0.01 * i
            r2 = r + EPS * max(1.0, r) + nudge * max(1.0, r)
            pairs.append((r * math.sin(az + i), r * math.cos(az + i)))
            pairs.append((r2 * math.sin(az + i + 0.7), r2 * math.cos(az + i + 0.7)))
    return PointSet.from_pairs(pairs)


REPORT_SETS = {
    "grid": PointSet.from_pairs([(float(i), float(j)) for i in range(7) for j in range(7)]),
    "half_grid": PointSet.from_pairs([(i / 2, j / 2) for i in range(8) for j in range(6)]),
    "circle_12": gen_circle(12),
    "circle_31": gen_circle(31),
    "theta5_lb": gen_theta5_lower_bound(),
    "routing_lb_positive": gen_routing_lb("positive"),
    "routing_lb_negative_a": gen_routing_lb("negative_a"),
    "routing_lb_negative_b": gen_routing_lb("negative_b"),
    "near_ties": _near_tie_set(),
    # From the origin, math.hypot puts the two points EPS apart (a finding)
    # while np.hypot, one ulp larger on the first, puts them just over EPS.
    "hypot_ulp_tie": PointSet.from_pairs(
        [(0.0, 0.0), (0.47701009597226784, 0.4532443137824045), (0.5983211880957301, -0.2738262116658324)]
    ),
    "random": gen_random(60, 5),
    "single": PointSet.from_pairs([(0.5, 0.5)]),
    "empty": PointSet([]),
}


def _count_calls(monkeypatch):
    """Wrap geometry._aligned_direction to count its calls."""
    calls = []
    scalar = geometry._aligned_direction

    def counted(*args):
        calls.append(args)
        return scalar(*args)

    monkeypatch.setattr(geometry, "_aligned_direction", counted)
    return calls


def _small_blocks(monkeypatch, block):
    monkeypatch.setattr(geometry, "_CHECK_BLOCK", block)


class TestGenRandomMatchesOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 15, 24, 32, 48, 64])
    def test_sizes_and_seeds(self, n):
        for seed in range(40):
            assert gen_random(n, seed) == oracle_gen_random(n, seed), seed

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 7, 8, 12])
    def test_cone_counts(self, k):
        for seed in range(6):
            assert gen_random(32, seed, k=k) == oracle_gen_random(32, seed, k=k), seed

    def test_seed_sweep(self):
        for seed in range(200):
            assert gen_random(32, seed) == oracle_gen_random(32, seed), seed

    @pytest.mark.parametrize("n, seed", SUITE_SETS)
    def test_suite_sets(self, n, seed):
        assert gen_random(n, seed) == oracle_gen_random(n, seed)

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_small_blocks(self, block, monkeypatch):
        _small_blocks(monkeypatch, block)
        for n, seed in [(24, 0), (40, 913), (48, 3)]:
            assert gen_random(n, seed) == oracle_gen_random(n, seed), (n, seed)
        assert gen_random(20, 1, k=5) == oracle_gen_random(20, 1, k=5)

    def test_retry_exhaustion_matches(self):
        # With one draw per point, point 94 fails its checks.
        with pytest.raises(DegenerateInput, match="point 94 ") as got:
            gen_random(100, 0, retries=1)
        with pytest.raises(DegenerateInput) as want:
            oracle_gen_random(100, 0, retries=1)
        assert str(got.value) == str(want.value)

    def test_retry_exhaustion_after_two_draws(self):
        with pytest.raises(DegenerateInput, match="point 218 .* after 2 attempts") as got:
            gen_random(256, 9, retries=2)
        with pytest.raises(DegenerateInput) as want:
            oracle_gen_random(256, 9, retries=2)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n, seed", [(384, 0), (384, 1), (384, 2), (768, 0)])
    def test_larger_sets(self, n, seed):
        assert gen_random(n, seed) == oracle_gen_random(n, seed)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 12])
    def test_cone_counts_at_n_200(self, k):
        assert gen_random(200, k, k=k) == oracle_gen_random(200, k, k=k)


class TestDrawRounds:
    """With no margin the first round draws exactly n candidates, so every
    set that rejects one draws further rounds over the points placed."""

    def _rounds(self, monkeypatch):
        monkeypatch.setattr(cli_io, "_STREAM_MARGIN", 0.0)
        starts = []
        scan = cli_io._stream_conflicts

        def counted(xs, ys, k, start):
            starts.append(start)
            return scan(xs, ys, k, start)

        monkeypatch.setattr(cli_io, "_stream_conflicts", counted)
        return starts

    def test_points_match(self, monkeypatch):
        starts = self._rounds(monkeypatch)
        for n, seed in [(100, 0), (200, 1), (256, 7), (256, 9)]:
            starts.clear()
            assert gen_random(n, seed) == oracle_gen_random(n, seed), (n, seed)
            assert len(starts) > 1 and starts[0] == 0 and starts[1] > 0, (n, seed)

    def test_small_blocks(self, monkeypatch):
        starts = self._rounds(monkeypatch)
        _small_blocks(monkeypatch, 7)
        assert gen_random(200, 1) == oracle_gen_random(200, 1)
        assert len(starts) > 1

    def test_retries_run_across_rounds(self, monkeypatch):
        # The first round ends on rejected draws for point 740; they count
        # toward its retries in the second round, as in one long stream.
        with pytest.raises(DegenerateInput) as whole:
            gen_random(800, 1, retries=4)
        starts = self._rounds(monkeypatch)
        with pytest.raises(DegenerateInput) as split:
            gen_random(800, 1, retries=4)
        assert starts == [0, 740]
        assert str(split.value) == str(whole.value)
        assert str(whole.value) == "could not place point 740 in general position after 4 attempts"

    @pytest.mark.parametrize("n, seed, retries", [(100, 0, 1), (256, 9, 1), (256, 9, 2)])
    def test_retry_exhaustion(self, n, seed, retries, monkeypatch):
        self._rounds(monkeypatch)
        with pytest.raises(DegenerateInput) as want:
            oracle_gen_random(n, seed, retries=retries)
        with pytest.raises(DegenerateInput) as got:
            gen_random(n, seed, retries=retries)
        assert str(got.value) == str(want.value)


class TestGenRandomArguments:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"n": -4},
            {"n": 2.5},
            {"n": "8"},
            {"k": 0},
            {"k": 1},
            {"k": -6},
            {"k": 2.5},
            {"k": None},
            {"retries": 0},
            {"retries": -1},
            {"retries": 1.5},
            {"n": True},
            {"retries": True},
            # A None seed used to draw from OS entropy, other types by hash.
            {"seed": None},
            {"seed": 1.5},
            {"seed": "1"},
            {"seed": True},
        ],
    )
    def test_rejected_before_drawing(self, kwargs):
        args = {"n": 8, "seed": 1, **kwargs}
        with pytest.raises(InvalidParameter):
            gen_random(**args)

    def test_numpy_integer_seed_is_its_int(self):
        assert gen_random(8, np.int64(7)) == gen_random(8, 7)


class TestGeneralPositionByConstruction:
    """gen_random does not run general_position_report on its output: the
    stream's checks contain the report's. Every generated set has an empty
    report, and every finding the report makes on a near-degenerate stream
    is a conflict of the finding's latest point."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 12])
    @pytest.mark.parametrize("n", [64, 200, 384])
    def test_generated_reports_are_empty(self, n, k):
        for seed in range(5):
            assert general_position_report(gen_random(n, seed, k=k), k) == [], seed

    @pytest.mark.parametrize(
        "name", ["grid", "half_grid", "circle_12", "near_ties", "hypot_ulp_tie", "boundary"]
    )
    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8, 12])
    def test_findings_are_stream_conflicts(self, name, k):
        ps = _at_boundary_pairs(k) if name == "boundary" else REPORT_SETS[name]
        index = {p.id: i for i, p in enumerate(ps)}
        conflicts = geometry._stream_conflicts([p.x for p in ps], [p.y for p in ps], k, 0)
        findings = general_position_report(ps, k)
        assert findings
        for f in findings:
            latest = max(index[v] for v in f["pair"] + [f.get("apex", f["pair"][0])])
            assert conflicts.get(latest), f


class TestCandidateChecks:
    """The stream pass on hand-placed near-degenerate candidates: each case is
    the stream PLACED followed by one candidate, against the per-candidate
    scalar oracle."""

    PLACED = [(0.31, 0.42), (0.77, 0.18), (0.12, 0.91), (0.55, 0.66)]

    def _both(self, cand, placed=PLACED):
        """(stream pass, oracle) verdicts for cand after placed; True rejects."""
        n = len(placed)
        lists = [
            sorted(math.hypot(xj - xi, yj - yi) for j, (xj, yj) in enumerate(placed) if j != i)
            for i, (xi, yi) in enumerate(placed)
        ]
        # The stream avoids the report's directions.
        bad = geometry._avoided_directions(6)
        assert bad == _report_bad_dirs(6)
        xs = [x for x, _ in placed] + [cand[0]]
        ys = [y for _, y in placed] + [cand[1]]
        # As one stream: the placed points clear each other, so all of them
        # are placed and any conflict of the candidate rejects it.
        conflicts = geometry._stream_conflicts(xs, ys, 6, 0)
        assert not any(conflicts.get(i) for i in range(n))
        got = bool(conflicts.get(n))
        # As a later round, with the points already placed.
        assert bool(geometry._stream_conflicts(xs, ys, 6, n).get(n)) == got
        want = _oracle_clears_degeneracies(placed, lists, cand, bad) is None
        return got, want

    def test_near_a_lone_placed_point(self):
        # With one point placed no distance can tie, so only the eps
        # distance test can reject (with more, a tie from another apex
        # rejects every candidate this near).
        px, py = self.PLACED[0]
        verdicts = set()
        for r in (0.5e-7, 0.99e-7, 1e-7, 1.01e-7, 2e-7):
            cand = (px + r * math.sin(0.4), py + r * math.cos(0.4))
            got, want = self._both(cand, placed=[(px, py)])
            assert got == want, r
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_directions_at_the_tolerance(self, monkeypatch):
        calls = _count_calls(monkeypatch)
        px, py = self.PLACED[0]
        eps = geometry._STREAM_EPS
        verdicts = set()
        for b in geometry._avoided_directions(6):
            for e in (eps, math.nextafter(eps, 0.0), math.nextafter(eps, 1.0), eps / 2, eps * 2):
                for az in (b + e, b - e):
                    cand = (px + 0.2 * math.sin(az), py + 0.2 * math.cos(az))
                    got, want = self._both(cand)
                    assert got == want, (b, e, az)
                    verdicts.add(want)
        assert calls, "no pair reached the scalar re-decision"
        assert verdicts == {True, False}

    @pytest.mark.parametrize("block", [65536, 1, 3])
    def test_distances_at_the_tolerance(self, block, monkeypatch):
        # Candidates about 1e-7 nearer or farther from placed point i than
        # placed point j is, for every ordered pair (i, j).
        _small_blocks(monkeypatch, block)
        verdicts = set()
        for i, (px, py) in enumerate(self.PLACED):
            for j, (qx, qy) in enumerate(self.PLACED):
                if i == j:
                    continue
                base = math.hypot(qx - px, qy - py)
                for scale in (1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.0 + 1e-3):
                    for sign in (1.0, -1.0):
                        r = base + sign * 1e-7 * scale
                        az = 0.4 + 1.3 * j
                        cand = (px + r * math.sin(az), py + r * math.cos(az))
                        got, want = self._both(cand)
                        assert got == want, (i, j, scale, sign)
                        verdicts.add(want)
        assert verdicts == {True, False}

    def test_own_distances_at_the_tolerance(self):
        # Candidates near the perpendicular bisector of placed points 0 and 1
        # see both at nearly the same distance.
        (px, py), (qx, qy) = self.PLACED[0], self.PLACED[1]
        mx, my = (px + qx) / 2, (py + qy) / 2
        nx, ny = -(qy - py), qx - px
        verdicts = set()
        for t in (0.3, 0.45):
            for shift in (0.0, 2e-8, 5e-8, 1e-6):
                cand = (mx + t * nx + shift * (qx - px), my + t * ny + shift * (qy - py))
                got, want = self._both(cand)
                assert got == want, (t, shift)
                verdicts.add(want)
        assert verdicts == {True, False}


class TestReportMatchesOracle:
    @pytest.mark.parametrize("name", sorted(REPORT_SETS))
    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
    def test_sets(self, name, k):
        ps = REPORT_SETS[name]
        assert general_position_report(ps, k) == oracle_general_position_report(ps, k)

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
    def test_pairs_at_the_angular_tolerance(self, k, monkeypatch):
        calls = _count_calls(monkeypatch)
        ps = _at_boundary_pairs(k)
        got = general_position_report(ps, k)
        assert got == oracle_general_position_report(ps, k)
        # Every pair built at the tolerance went to the scalar test, and it
        # put some on each side.
        assert len(calls) >= len(ps) - 1
        flagged = {tuple(f["pair"]) for f in got if f["kind"] == "cone_boundary_aligned"}
        at_origin = {pair for pair in flagged if pair[0] == 0}
        assert 0 < len(at_origin) < len(ps) - 1

    def test_near_ties_are_decided_by_the_scalar_test(self):
        report = general_position_report(REPORT_SETS["near_ties"], 6)
        at_origin = [f for f in report if f["kind"] == "equidistant" and f["apex"] == 0]
        assert 0 < len(at_origin) < 9
        report = general_position_report(REPORT_SETS["hypot_ulp_tie"], 6)
        assert {"kind": "equidistant", "apex": 0, "pair": [2, 1]} in report

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_small_blocks(self, block, monkeypatch):
        _small_blocks(monkeypatch, block)
        for name in ("grid", "circle_31", "near_ties", "random", "single"):
            ps = REPORT_SETS[name]
            for k in (5, 6):
                assert general_position_report(ps, k) == oracle_general_position_report(ps, k)
        ps = _at_boundary_pairs(7)
        assert general_position_report(ps, 7) == oracle_general_position_report(ps, 7)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 2.0**496, 1e154, 1e200, 1e300])
    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_scaled_sets(self, scale, k):
        # Squared distances underflow (1e-160 and below), so the distance rows
        # fall back to np.hypot. Every diagonal here is below 8.5, so 2**496
        # keeps each set inside the table's 2**500 rule; from 1e154 up every
        # set of two or more points is rejected before a square overflows.
        for name, ps in sorted(REPORT_SETS.items()):
            points = [Point(p.id, p.x * scale, p.y * scale) for p in ps]
            if scale >= 1e154 and len(points) > 1:
                with pytest.raises(DegenerateInput, match="extents"):
                    PointSet(points)
                continue
            scaled = PointSet(points)
            assert general_position_report(scaled, k) == oracle_general_position_report(scaled, k), name

    def test_huge_scales_keep_the_distance_filter(self, monkeypatch):
        # Up to the largest scale the table accepts (the unit square times
        # 2**499 has a diagonal below 2**499.5), the distance rows' square
        # roots still clear every apex row of a set in general position.
        rows = []
        scalar = geometry._equidistant_findings

        def counted(pts, apex):
            rows.append(apex)
            return scalar(pts, apex)

        monkeypatch.setattr(geometry, "_equidistant_findings", counted)
        for scale in (2.0**256, 2.0**499):
            ps = PointSet(Point(p.id, p.x * scale, p.y * scale) for p in REPORT_SETS["random"])
            assert general_position_report(ps, 6) == []
        assert not rows

    def test_overflowing_differences(self):
        # Two distances from the origin that tie within EPS on either side of
        # sqrt(max float), where only the first one's dx^2 + dy^2 is finite:
        # the table rejects the set.
        pairs = [(0.0, 0.0), (3.962278169935955e153, 1.280896815338092e154),
                 (1.1949137110649833e154, 6.081729674449232e153)]
        with pytest.raises(DegenerateInput, match="extents"):
            PointSet.from_pairs(pairs)
        # Scaled by 2**-13 into the rule, the tie is the same finding.
        ps = PointSet.from_pairs([(x * 2.0**-13, y * 2.0**-13) for x, y in pairs])
        report = general_position_report(ps, 6)
        assert {"kind": "equidistant", "apex": 0, "pair": [1, 2]} in report
        assert report == oracle_general_position_report(ps, 6)


#: pi to 50 digits, for exact distances to the direction lattice.
PI = Fraction("3.1415926535897932384626433827950288419716939937510")


def _nearest_lattice_points(k, dirs):
    """m of _direction_lattice(k), and for each direction the index j mod m
    of the nearest point phi0 + j * pi / m of the exact lattice and the
    distance to it."""
    m, phi0 = geometry._direction_lattice(k)
    start = PI / k if phi0 else Fraction(0)
    assert abs(Fraction(phi0) - start) < 1e-16
    nearest = []
    for d in dirs:
        t = (Fraction(d) - start) * m / PI
        j = round(t)
        nearest.append((j % m, abs(t - j) * PI / m))
    return m, nearest


class TestDirectionLattice:
    @pytest.mark.parametrize("k", range(2, 65))
    def test_avoided_directions_are_the_lattice(self, k):
        m, nearest = _nearest_lattice_points(k, geometry._avoided_directions(k))
        # Every lattice point is near a direction, and every direction is on
        # the lattice. A direction is (i * theta + theta / 2) folded mod pi
        # in floats: i times theta's rounding plus a few roundings of values
        # up to 2 pi, up to 1.2e-15 (k = 61).
        assert {j for j, _ in nearest} == set(range(m))
        assert max(gap for _, gap in nearest) < 2e-15

    @pytest.mark.parametrize("k", range(2, 65))
    def test_gaps_match_the_broadcast_filter(self, k):
        m, phi0 = geometry._direction_lattice(k)
        rng = np.random.default_rng(k)
        dx, dy = rng.standard_normal((2, 2000)) * 10.0 ** rng.integers(-3, 4, (2, 2000))
        on = phi0 + np.arange(m) * math.pi / m
        r = rng.random(m) + 0.1
        # Then vectors along every lattice direction, both ways, and every
        # pair of signed zeros and other components: (0.0, -1.0) and
        # (-0.0, -1.0) have the azimuths pi and -pi.
        signed = [0.0, -0.0, 1.0, -1.0, 3.5, -1e-3]
        dx = np.concatenate((dx, r * np.sin(on), -r * np.sin(on), [a for a in signed for _ in signed]))
        dy = np.concatenate((dy, r * np.cos(on), -r * np.cos(on), [b for _ in signed for b in signed]))
        got = geometry._direction_gaps(dx, dy, k)
        want = oracle_direction_gaps(dx, dy, _report_bad_dirs(k))
        assert np.abs(got - want).max() <= 1e-14
        assert np.abs(got[2000:2000 + 2 * m]).max() <= 1e-14

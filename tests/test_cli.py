"""End-to-end command-line tests, run in process through main(argv).

Exit-code contract: 0 success, 1 failed bound check, 2 usage errors or
rejected input, 3 a failed internal invariant.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spannerkit
from spannerkit import (
    Point,
    PointSet,
    build_g9,
    build_half_theta6,
    gen_random,
    graph_from_json,
    points_from_json,
    points_to_json,
    graph_to_json,
    route_stateful,
    trace_from_json,
)
from spannerkit.cli_io import SEED_ENV, main, render_svg
from spannerkit.errors import InvalidParameter


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)


#: Points whose x extent overflows, and the half-theta-6 graph file that
#: their build wrote before point sets had to have a finite diagonal.
OVERFLOW_RECORDS = ('[{"id":0,"x":-1.5e+308,"y":0.0},{"id":1,"x":1.5e+308,"y":0.0},'
                    '{"id":2,"x":0.0,"y":1.0}]')
OVERFLOW_GRAPH = ('{"edges":[[0,2],[1,2]],"k":6,"kind":"half_theta6","metadata":{},"points":%s}\n'
                  % OVERFLOW_RECORDS)


@pytest.fixture()
def h6_file(tmp_path):
    ps = gen_random(20, 11)
    g = build_half_theta6(ps)
    path = tmp_path / "h6.json"
    path.write_text(graph_to_json(g))
    return str(path), g


class TestGen:
    def test_random_is_deterministic(self, capsys):
        assert main(["gen", "--kind", "random", "--n", "12", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--kind", "random", "--n", "12", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first
        ps = points_from_json(first)
        assert len(list(ps)) == 12

    def test_env_seed_fallback(self, capsys, monkeypatch):
        assert main(["gen", "--kind", "random", "--n", "8", "--seed", "5"]) == 0
        explicit = capsys.readouterr().out
        monkeypatch.setenv(SEED_ENV, "5")
        assert main(["gen", "--kind", "random", "--n", "8"]) == 0
        assert capsys.readouterr().out == explicit

    def test_missing_seed_everywhere(self, capsys):
        assert main(["gen", "--kind", "random", "--n", "8"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_n(self, capsys):
        assert main(["gen", "--kind", "random", "--seed", "1"]) == 2
        assert main(["gen", "--kind", "circle"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "kind,extra,count",
        [
            ("circle", ["--n", "10"], 10),
            ("theta5_lb", [], 31),
            ("routing_lb_positive", [], 3),
            ("routing_lb_negative_a", [], 5),
            ("routing_lb_negative_b", [], 5),
        ],
    )
    def test_instance_kinds(self, capsys, kind, extra, count):
        assert main(["gen", "--kind", kind, *extra]) == 0
        ps = points_from_json(capsys.readouterr().out)
        assert len(list(ps)) == count

    def test_out_writes_file(self, tmp_path, capsys):
        out = tmp_path / "pts.json"
        assert main(["gen", "--kind", "circle", "--n", "6", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert len(list(points_from_json(out.read_text()))) == 6

    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys):
        # It used to end in a FileNotFoundError traceback, exit 1.
        out = tmp_path / "missing" / "pts.json"
        assert main(["gen", "--kind", "circle", "--n", "6", "--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_bad_generator_parameters(self, capsys):
        assert main(["gen", "--kind", "circle", "--n", "1"]) == 2
        assert main(["gen", "--kind", "theta5_lb", "--nudge", "0.5"]) == 2
        assert main(["gen", "--kind", "routing_lb_positive", "--alpha", "2.0"]) == 2
        capsys.readouterr()

    def test_python_dash_m_runs_the_cli(self):
        env = dict(os.environ)
        src = str(Path(spannerkit.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        env.pop(SEED_ENV, None)
        done = subprocess.run(
            [sys.executable, "-m", "spannerkit", "gen", "--kind", "random", "--n", "5", "--seed", "1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert points_from_json(done.stdout) == gen_random(5, 1)


class TestBuild:
    def test_matches_library_construction(self, tmp_path, capsys):
        ps = gen_random(15, 3)
        pts_file = tmp_path / "pts.json"
        pts_file.write_text(points_to_json(ps))
        assert main(["build", "--graph", "half_theta6", "--points", str(pts_file)]) == 0
        g = graph_from_json(capsys.readouterr().out)
        assert g == build_half_theta6(ps)

    def test_theta_k1_is_a_usage_error(self, tmp_path, capsys):
        pts_file = tmp_path / "pts.json"
        pts_file.write_text(points_to_json(gen_random(8, 3)))
        assert main(["build", "--graph", "theta", "--k", "1", "--points", str(pts_file)]) == 2
        assert main(["build", "--graph", "theta", "--points", str(pts_file)]) == 2
        capsys.readouterr()

    def test_rotated_union_defaults_to_one_copy(self, tmp_path, capsys):
        ps = gen_random(15, 3)
        pts_file = tmp_path / "pts.json"
        pts_file.write_text(points_to_json(ps))
        assert main(["build", "--graph", "rotated_union", "--points", str(pts_file)]) == 0
        g = graph_from_json(capsys.readouterr().out)
        assert g.metadata == {"m": 1}
        assert g.edges == build_half_theta6(ps).edges

    def test_mst_needs_no_k(self, tmp_path, capsys):
        pts_file = tmp_path / "pts.json"
        pts_file.write_text(points_to_json(gen_random(9, 3)))
        assert main(["build", "--graph", "mst", "--points", str(pts_file)]) == 0
        assert len(graph_from_json(capsys.readouterr().out).edges) == 8

    @pytest.mark.parametrize("kind,k", [("half_theta6", "7"), ("g12", "12"), ("g9", "5"), ("mst", "3")])
    def test_k_the_kind_rules_out_is_a_usage_error(self, kind, k, tmp_path, capsys):
        # The header rule's own message, before anything is built; --k 6
        # stays valid for the six-cone kinds.
        pts_file = tmp_path / "pts.json"
        pts_file.write_text(points_to_json(gen_random(9, 3)))
        assert main(["build", "--graph", kind, "--k", k, "--points", str(pts_file)]) == 2
        assert capsys.readouterr().err == f"error: a {kind} graph cannot have k = {k}\n"
        if kind != "mst":
            assert main(["build", "--graph", kind, "--k", "6", "--points", str(pts_file)]) == 0
            assert graph_from_json(capsys.readouterr().out).k == 6

    def test_rotated_union_k_is_the_rotation_count(self, tmp_path, capsys):
        pts_file = tmp_path / "pts.json"
        pts_file.write_text(points_to_json(gen_random(9, 3)))
        assert main(["build", "--graph", "rotated_union", "--k", "3", "--points", str(pts_file)]) == 0
        assert graph_from_json(capsys.readouterr().out).metadata == {"m": 3}

    def test_missing_points_file(self, capsys):
        assert main(["build", "--graph", "mst", "--points", "/nonexistent.json"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_coordinate_is_rejected_input(self, bad, tmp_path, capsys):
        pts_file = tmp_path / "pts.json"
        pts_file.write_text(f'{{"points":[{{"id":0,"x":0.0,"y":0.0}},{{"id":1,"x":{bad},"y":1.0}},'
                            f'{{"id":2,"x":2.0,"y":0.5}}]}}')
        assert main(["build", "--graph", "half_theta6", "--points", str(pts_file)]) == 2
        capsys.readouterr()

    def test_overflowing_extent_is_usage_error(self, tmp_path, capsys):
        pts_file = tmp_path / "pts.json"
        pts_file.write_text('{"points":%s}\n' % OVERFLOW_RECORDS)
        assert main(["build", "--graph", "half_theta6", "--points", str(pts_file)]) == 2
        assert "extent" in capsys.readouterr().err

    def test_internal_invariant_violation_has_its_own_exit_code(self, tmp_path, capsys, monkeypatch):
        from spannerkit import InternalInvariantViolation, build

        def broken(ps):
            raise InternalInvariantViolation("simulated construction bug")

        monkeypatch.setattr(build, "build_half_theta6", broken)
        pts_file = tmp_path / "pts.json"
        pts_file.write_text(points_to_json(gen_random(8, 3)))
        assert main(["build", "--graph", "half_theta6", "--points", str(pts_file)]) == 3
        assert "simulated construction bug" in capsys.readouterr().err


class TestAnalyze:
    def test_reports_ratio(self, h6_file, capsys):
        path, _g = h6_file
        assert main(["analyze", "--graph", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_ratio"] >= 1.0
        assert len(doc["witness"]) == 2

    def test_check_mode_exit_codes(self, h6_file, capsys):
        path, _g = h6_file
        assert main(["analyze", "--graph", path, "--check"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True
        assert main(["analyze", "--graph", path, "--check", "--tolerance", "-1.5"]) == 1
        assert json.loads(capsys.readouterr().out)["pass"] is False

    def test_overflowing_extent_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "overflow.json"
        path.write_text(OVERFLOW_GRAPH)
        assert main(["analyze", "--graph", str(path)]) == 2
        assert "extent" in capsys.readouterr().err

    def test_per_pair_csv(self, h6_file, tmp_path, capsys):
        path, g = h6_file
        csv_path = tmp_path / "pairs.csv"
        assert main(["analyze", "--graph", path, "--per-pair", "--out", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        n = len(list(g.points))
        assert lines[0] == "u,v,euclidean,graph_distance,ratio"
        assert len(lines) == 1 + n * (n - 1) // 2
        u, v, euclid, gd, ratio = lines[1].split(",")
        assert float(ratio) == float(gd) / float(euclid)
        summary = json.loads(capsys.readouterr().out)
        assert "per_pair" not in summary

    def test_per_pair_json(self, h6_file, capsys):
        path, g = h6_file
        assert main(["analyze", "--graph", path, "--per-pair"]) == 0
        doc = json.loads(capsys.readouterr().out)
        n = len(list(g.points))
        assert len(doc["per_pair"]) == n * (n - 1) // 2

    def test_per_pair_json_of_a_disconnected_graph_is_json(self, tmp_path, capsys):
        ps = PointSet([Point(i, float(i), 0.25 * i * i) for i in range(4)])
        path = tmp_path / "split.json"
        path.write_text(graph_to_json(spannerkit.SpannerGraph("yao", 4, ps, [(0, 1), (2, 3)])))

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        assert main(["analyze", "--graph", str(path), "--per-pair"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["max_ratio"] == "inf"
        split = {(0, 2), (0, 3), (1, 2), (1, 3)}
        for row in doc["per_pair"]:
            across = (row["u"], row["v"]) in split
            assert (row["graph_distance"] == "inf") == (row["ratio"] == "inf") == across
            assert isinstance(row["euclidean"], float)
        # The CSV and the in-memory rows keep their floats.
        csv_path = tmp_path / "pairs.csv"
        assert main(["analyze", "--graph", str(path), "--per-pair", "--out", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()[1:]
        assert [ln.startswith(("0,2,", "0,3,", "1,2,", "1,3,")) for ln in lines] == [
            ln.endswith(",inf,inf") for ln in lines]
        rows = spannerkit.spanning_ratio(graph_from_json(path.read_text()), per_pair=True).per_pair
        assert [math.isinf(r["ratio"]) for r in rows] == [(r["u"], r["v"]) in split for r in rows]

    def test_check_with_per_pair_computes_the_ratio_once(self, h6_file, tmp_path, capsys, monkeypatch):
        from spannerkit import analysis

        path, g = h6_file
        calls = []
        ratio = analysis.spanning_ratio

        def counted(graph, per_pair=False):
            calls.append(per_pair)
            return ratio(graph, per_pair=per_pair)

        monkeypatch.setattr(analysis, "spanning_ratio", counted)
        csv_path = tmp_path / "pairs.csv"
        assert main(["analyze", "--graph", path, "--check", "--per-pair", "--out", str(csv_path)]) == 0
        assert calls == [True]
        rep = analysis.verify_bound(g)
        rep.per_pair = ratio(g, per_pair=True).per_pair
        rows = ["u,v,euclidean,graph_distance,ratio"] + [
            f'{r["u"]},{r["v"]},{r["euclidean"]!r},{r["graph_distance"]!r},{r["ratio"]!r}'
            for r in rep.per_pair
        ]
        assert csv_path.read_text() == "\n".join(rows) + "\n"
        rep.per_pair = None
        assert capsys.readouterr().out == rep.to_json()
        calls.clear()
        assert main(["analyze", "--graph", path, "--check", "--per-pair"]) == 0
        assert calls == [True]
        rep.per_pair = ratio(g, per_pair=True).per_pair
        assert capsys.readouterr().out == rep.to_json()

    def test_malformed_graph_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for text in ('{"nope": 1}', "not json {"):
            bad.write_text(text)
            assert main(["analyze", "--graph", str(bad)]) == 2
        # A rotated-union file whose header --check cannot use.
        doc = json.loads(graph_to_json(spannerkit.build_rotated_union(gen_random(12, 3), 2)))
        for key, value in (("metadata", [1]), ("metadata", {"m": "two"}), ("k", "six")):
            bad.write_text(json.dumps({**doc, key: value}))
            assert main(["analyze", "--graph", str(bad), "--check"]) == 2
        # A half-theta-6 file with 7 cones would certify 7-cone triangles
        # over 6-cone edges.
        h6 = json.loads(graph_to_json(build_half_theta6(gen_random(12, 3))))
        bad.write_text(json.dumps({**h6, "k": 7}))
        assert main(["analyze", "--graph", str(bad)]) == 2
        capsys.readouterr()


class TestVerify:
    def test_generative_mode(self, capsys):
        code = main(
            ["verify", "--graph", "half_theta6", "--n", "64", "--trials", "20", "--seed", "7"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["pass"] is True
        assert doc["bound"] == 2.0
        assert doc["worst_ratio"] <= 2.0 + 1e-9
        assert doc["trials"] == 20 and doc["n"] == 64 and doc["seed"] == 7

    def test_generative_yao_with_k(self, capsys):
        code = main(
            ["verify", "--graph", "yao", "--k", "7", "--n", "24", "--trials", "3", "--seed", "2"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bound"] == pytest.approx(1 / (1 - 2 * math.sin(math.pi / 7)))

    def test_generative_yao5_bound(self, capsys):
        code = main(
            ["verify", "--graph", "yao", "--k", "5", "--n", "24", "--trials", "3", "--seed", "2"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bound_name"] == "yao5"
        assert doc["bound"] == 2 + math.sqrt(3)
        assert str(doc["bound"]).startswith("3.732")

    def test_generative_yao6_has_no_bound(self, capsys):
        argv = ["verify", "--graph", "yao", "--k", "6", "--n", "24", "--trials", "1", "--seed", "2"]
        assert main(argv) == 2
        assert "bound 'yao6' is missing" in capsys.readouterr().err

    def test_generative_requires_n_and_trials(self, capsys):
        assert main(["verify", "--graph", "half_theta6", "--seed", "7"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_generative_rejects_empty_trial_count(self, trials, capsys):
        argv = ["verify", "--graph", "theta", "--k", "8", "--n", "10", "--seed", "7"]
        assert main(argv + ["--trials", trials]) == 2
        assert "--trials must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["theta", "yao"])
    def test_generative_cone_kinds_require_k(self, kind, tmp_path, capsys):
        argv = ["verify", "--graph", kind, "--n", "10", "--trials", "1", "--seed", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"--graph {kind} requires --k" in err
        pts_file = tmp_path / "pts.json"
        pts_file.write_text(points_to_json(gen_random(8, 3)))
        assert main(["build", "--graph", kind, "--points", str(pts_file)]) == 2
        assert capsys.readouterr().err == err

    def test_generative_k_the_kind_rules_out_is_a_usage_error(self, capsys):
        argv = ["verify", "--graph", "g9", "--k", "12", "--n", "20", "--trials", "1", "--seed", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: a g9 graph cannot have k = 12\n"

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_is_a_usage_error(self, tolerance, h6_file, capsys):
        path, _g = h6_file
        for argv in (
            ["analyze", "--graph", path],
            ["analyze", "--graph", path, "--check"],
            ["verify", "--graph", path],
            ["verify", "--graph", "half_theta6", "--n", "10", "--trials", "1", "--seed", "1"],
        ):
            assert main(argv + [f"--tolerance={tolerance}"]) == 2, argv
            assert "tolerance must be finite" in capsys.readouterr().err

    def test_file_mode(self, h6_file, capsys):
        path, _g = h6_file
        assert main(["verify", "--graph", path]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True
        assert main(["verify", "--graph", path, "--tolerance", "-1.5"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("kind,extra,code", [
        ("half_theta6", [], 0), ("half_theta6", ["--tolerance", "-1"], 1), ("g9", [], 2)])
    def test_file_mode_is_analyze_check(self, kind, extra, code, tmp_path, capsys):
        # A passing file, a failing one and a kind with no bound: the same
        # bytes on stdout and stderr and the same exit code.
        h = build_half_theta6(gen_random(60, 3))
        path = tmp_path / "graph.json"
        path.write_text(graph_to_json(h if kind == "half_theta6" else build_g9(h)))
        outputs = []
        for command in (["verify"], ["analyze", "--check"]):
            assert main(command + ["--graph", str(path)] + extra) == code
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].out + outputs[0].err


class TestRoute:
    def test_summary_and_trace(self, h6_file, capsys):
        path, _g = h6_file
        assert main(["route", "--graph", path, "--algo", "stateless",
                     "--from", "0", "--to", "13"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["pass"] is True
        assert main(["route", "--graph", path, "--algo", "stateless",
                     "--from", "0", "--to", "13", "--trace"]) == 0
        trace = trace_from_json(capsys.readouterr().out)
        assert len(trace.steps) == summary["steps"]
        assert trace.total_path_length == summary["total"]

    def test_source_equals_target_is_usage_error(self, h6_file, capsys):
        path, _g = h6_file
        assert main(["route", "--graph", path, "--algo", "stateless",
                     "--from", "0", "--to", "0"]) == 2
        capsys.readouterr()

    def test_overflowing_extent_is_usage_error(self, tmp_path, capsys):
        # It used to exit 3, which reports a bug in spannerkit.
        path = tmp_path / "overflow.json"
        path.write_text(OVERFLOW_GRAPH)
        assert main(["route", "--graph", str(path), "--algo", "stateless",
                     "--from", "0", "--to", "1"]) == 2
        assert "extent" in capsys.readouterr().err

    def test_algo_kind_mismatch(self, h6_file, capsys):
        path, _g = h6_file
        assert main(["route", "--graph", path, "--algo", "g12",
                     "--from", "0", "--to", "3"]) == 2
        capsys.readouterr()

    def test_svg_overlay_marks_every_step(self, h6_file, tmp_path, capsys):
        path, _g = h6_file
        svg_path = tmp_path / "route.svg"
        assert main(["route", "--graph", path, "--algo", "stateful",
                     "--from", "2", "--to", "17", "--trace",
                     "--svg", str(svg_path)]) == 0
        trace = trace_from_json(capsys.readouterr().out)
        svg = svg_path.read_text()
        assert svg.count('class="route"') == len(trace.steps)
        assert svg.count("<polygon") == 1

    def test_unwritable_svg_is_a_usage_error(self, h6_file, tmp_path, capsys):
        path, _g = h6_file
        assert main(["route", "--graph", path, "--algo", "stateful", "--from", "2", "--to", "17",
                     "--svg", str(tmp_path / "missing" / "route.svg")]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_check_flag_passes_here(self, h6_file, capsys):
        path, _g = h6_file
        assert main(["route", "--graph", path, "--algo", "stateless",
                     "--from", "1", "--to", "9", "--check"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "entry",
        [
            {"fan": {"1": {}}},
            {"fan": {"1": {"first": [2, 0.1, 0.2]}}},
            {"fan": {"1": {"first": 2, "last": [3, 0.1, 0.2]}}},
            {"fan": {"1": {"first": [2, 0.1], "last": [3, 0.1, 0.2]}}},
            {"fan": {"1": {"first": [2, "abc", 0.2], "last": [3, 0.1, 0.2]}}},
            {"fan": {"1": {"first": ["two", 0.1, 0.2], "last": [3, 0.1, 0.2]}}},
            {"fan": {"1": {"first": [2, None, 0.2], "last": [3, 0.1, 0.2]}}},
            {"fan": {"1": {"first": [2, math.nan, 0.2], "last": [3, 0.1, 0.2]}}},
            {"dir": {"0": "up"}},
            {"dir": ["cw"]},
            [],
            {"fan": {"1": {"first": [True, "1", "2"], "last": [3, 0.1, 0.2]}}},
            {"fan": {"1": {"first": ["2", 0.1, 0.2], "last": [3, 0.1, 0.2]}}},
            {"fan": {"1": {"first": [2, 0.1, "0.2"], "last": [3, 0.1, 0.2]}}},
            # Fan ends must be vertices at their own coordinates.
            {"fan": {"1": {"first": [2, 0.1, 0.2], "last": [2, 0.1, 0.2]}}},
            {"fan": {"1": {"first": [1000000, 0.1, 0.2], "last": [3, 0.1, 0.2]}}},
            # Keys must be vertex ids, walks in even cones and fans in odd ones.
            ("999", {"dir": {"0": "cw"}}),
            {"dir": {"7": "cw"}},
            {"dir": {"1": "cw"}},
        ],
    )
    def test_malformed_g9_hints_are_rejected_input(self, tmp_path, capsys, entry):
        # An entry replaces vertex 1's hints; a (key, entry) pair adds a key.
        key, entry = entry if isinstance(entry, tuple) else ("1", entry)
        doc = json.loads(graph_to_json(build_g9(build_half_theta6(gen_random(20, 11)))))
        doc["metadata"]["hints"][key] = entry
        path = tmp_path / "g9.json"
        path.write_text(json.dumps(doc))
        assert main(["route", "--graph", str(path), "--algo", "g9",
                     "--from", "0", "--to", "13"]) == 2
        assert "malformed g9 routing hints" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["render", "analyze", "route"])
    def test_g9_metadata_other_than_hints_is_rejected_input(self, tmp_path, capsys, command):
        # render and analyze used to read these files, and a route kept the
        # extra key "m" when the graph was written.
        doc = json.loads(graph_to_json(build_g9(build_half_theta6(gen_random(20, 11)))))
        argv = {"render": [], "analyze": [], "route": ["--algo", "g9", "--from", "0", "--to", "13"]}[command]
        for name, metadata in (("empty", {}), ("list", {"hints": []}),
                               ("extra", dict(doc["metadata"], m=1))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(dict(doc, metadata=metadata)))
            assert main([command, "--graph", str(path)] + argv) == 2
            assert "lacks the construction hints required for g9 routing" in capsys.readouterr().err


class TestRender:
    def test_point_svg_is_byte_stable(self, tmp_path, capsys):
        pts_file = tmp_path / "pts.json"
        pts_file.write_text(points_to_json(gen_random(10, 8)))
        assert main(["render", "--points", str(pts_file)]) == 0
        first = capsys.readouterr().out
        assert main(["render", "--points", str(pts_file)]) == 0
        assert capsys.readouterr().out == first
        assert first.count("<circle") == 10
        assert "<line" not in first

    def test_graph_svg_draws_every_edge(self, h6_file, capsys):
        path, g = h6_file
        assert main(["render", "--graph", path]) == 0
        svg = capsys.readouterr().out
        assert svg.count("<line") == len(g.edges)
        assert svg.count("<circle") == len(list(g.points))

    def test_overlay_endpoints_must_be_vertices(self, h6_file):
        # A trace from True used to render as a route from vertex 1.
        _path, g = h6_file
        trace = route_stateful(g, 2, 17)
        for bad in (dataclasses.replace(trace, source=True), dataclasses.replace(trace, target=99)):
            with pytest.raises(InvalidParameter, match="is not in the graph"):
                render_svg(g, overlay=bad)

    def test_overlay_steps_must_end_at_vertices(self, h6_file):
        # A step target 999 used to raise a bare KeyError, and True to draw
        # as vertex 1.
        _path, g = h6_file
        trace = route_stateful(g, 2, 17)
        for bad in (999, True):
            step = dataclasses.replace(trace.steps[0], target=bad)
            with pytest.raises(InvalidParameter, match=f"vertex {bad} is not in the graph"):
                render_svg(g, overlay=dataclasses.replace(trace, steps=[step] + trace.steps[1:]))

    def test_requires_exactly_one_input(self, h6_file, tmp_path, capsys):
        path, _g = h6_file
        pts_file = tmp_path / "pts.json"
        pts_file.write_text(points_to_json(gen_random(5, 8)))
        assert main(["render"]) == 2
        assert main(["render", "--points", str(pts_file), "--graph", path]) == 2
        capsys.readouterr()


class TestPipelines:
    def test_gen_build_verify_route(self, tmp_path, capsys):
        pts = tmp_path / "p.json"
        gr = tmp_path / "g.json"
        assert main(["gen", "--kind", "random", "--n", "24", "--seed", "4",
                     "--out", str(pts)]) == 0
        assert main(["build", "--graph", "g9", "--points", str(pts),
                     "--out", str(gr)]) == 0
        assert main(["verify", "--graph", str(gr), "--tolerance", "1e-9"]) == 2
        capsys.readouterr()
        assert main(["route", "--graph", str(gr), "--algo", "g9",
                     "--from", "0", "--to", "23", "--check"]) == 0
        capsys.readouterr()

"""Smoke test of benchmarks/bench_layers.py: every table's row function runs
in this process at a small n, with one repetition and no output file, and
returns the keys its table records."""

import hashlib
import importlib.util
import os

import pytest

from spannerkit.build import _GRID_MIN_N, cone_scan

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "bench_layers.py")
_spec = importlib.util.spec_from_file_location("bench_layers", _PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SEED = 2024
N = 64
SCAN_N = 256

COMMON = {"n", "repeat"}
GEN_KEYS = COMMON | {"gen_s", "report_s", "traced_peak_mb", "peak_rss_mb", "sha256"}
RATIO_KEYS = COMMON | {"edges", "build_s", "ratio_s", "peak_rss_before_mb", "peak_rss_growth_mb",
                      "traced_peak_mb", "max_ratio", "witness", "reference_s",
                      "reference_peak_rss_growth_mb"}
TABLE_KEYS = COMMON | {"edges", "peak_rss_mb", "sha256"} | {f"{s}_s" for s in bench.TABLE_STAGES}
ROUTE_KEYS = COMMON | {"router", "pairs", "steps", "warm_us", "first_route_s", "traces_sha256"}
CERT_KEYS = COMMON | {"pairs", "certify_warm_us", "certify_first_s", "shortest_path_warm_us",
                     "shortest_path_first_s", "results_sha256"}
SCAN_KEYS = COMMON | {"points", "scan", "k", "projection", "cone_mask", "grid_s", "fallback_rows",
                     "full_s", "edges_sha256"}
CLI_KEYS = COMMON | {"command", "wall_s", "peak_rss_mb", "stdout_sha256"}


def test_gen_row():
    assert set(bench.gen_row(N, 1, SEED)) == GEN_KEYS


def test_ratio_row_with_reference():
    row = bench.ratio_row(N, 1, SEED, True)
    assert set(row) == RATIO_KEYS
    assert row["max_ratio"] <= 2.0


def test_table_row():
    row = bench.table_row(N, 1, SEED)
    assert set(row) == TABLE_KEYS
    assert set(row["sha256"]) == {"half_theta6", "g12", "g9"}


def test_route_rows():
    rows = bench.route_rows(N, 1, SEED)
    assert [row["router"] for row in rows] == [name for name, _ in bench.ROUTERS]
    assert all(set(row) == ROUTE_KEYS for row in rows)


def test_cert_row():
    assert set(bench.cert_row(N, 1, SEED)) == CERT_KEYS


def test_scan_rows():
    assert _GRID_MIN_N <= SCAN_N <= bench.FULL_MAX
    rows = bench.scan_rows(SCAN_N, 1, SEED)
    assert [(row["points"], row["scan"]) for row in rows] == [
        (points, scan[0]) for points in bench.SCAN_POINTS for scan in bench.SCANS]
    for row in rows:
        assert set(row) == SCAN_KEYS
        assert row["full_s"] is not None
        xs, ys = bench.scan_points(row["points"], SCAN_N, SEED)
        edges = cone_scan(xs, ys, row["k"], row["projection"], row["cone_mask"])
        assert row["edges_sha256"] == hashlib.sha256(repr(edges).encode()).hexdigest()
        if row["points"] == "uniform":
            # The grid ran and settled some rows, except at k = 64, where it
            # needs _GRID_MIN_N * 64 / 12 points and this set has fewer.
            assert (row["fallback_rows"] < SCAN_N) == (row["k"] <= 12)


def test_cli_rows():
    rows = bench.cli_rows(N, 1, SEED)
    assert [row["command"].split()[0] for row in rows] == (
        ["gen"] * 2 + ["build"] * 2 + ["route"] * len(bench.ROUTERS) + ["analyze", "render"])
    assert all(set(row) == CLI_KEYS for row in rows)
    assert all(row["wall_s"] > 0 and row["peak_rss_mb"] > 0 for row in rows)


def test_unknown_child_table_exits(monkeypatch):
    monkeypatch.setattr("sys.argv", ["bench_layers.py", "--child", "tables:64"])
    with pytest.raises(SystemExit, match="unknown table 'tables'"):
        bench.main()


def test_only_without_an_output_exits(monkeypatch, tmp_path):
    out = tmp_path / "missing.json"
    monkeypatch.setattr("sys.argv", ["bench_layers.py", "--only", "scan", "--out", str(out)])
    with pytest.raises(SystemExit, match="does not exist"):
        bench.main()
    assert not out.exists()

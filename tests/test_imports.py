"""Every module of the package uses every name it imports (stdlib ast only),
and only the exact ratio loads scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "spannerkit").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names the module imports and never reads; names listed in __all__
    count as read (a package's re-exports)."""
    tree = ast.parse(source)
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_the_check_finds_unused_names():
    source = "from os import path, sep\nimport numpy.linalg\nimport json as j\n__all__ = ['sep']\nj.dumps(1)\n"
    assert unused_imports(source) == ["numpy", "path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


#: Run in a fresh interpreter with a scratch directory as argv[1]: every entry
#: point but the exact ratio, then one spanning_ratio, printing after each
#: whether scipy.sparse is loaded.
_FOOTPRINT_SCRIPT = """
import sys
from pathlib import Path

import spannerkit as sk

tmp = Path(sys.argv[1])
ps = sk.gen_random(40, 3)
h = sk.build_half_theta6(ps)
graphs = [h, sk.build_theta(ps, 4), sk.build_yao(ps, 5), sk.build_rotated_union(ps, 2), sk.build_mst(ps)]
graphs += [sk.build_g12(h), sk.build_g9(h)]
for g in graphs:
    assert sk.graph_from_json(g.to_json()) == g
trace = sk.route_stateless(h, 0, 39)
sk.route_stateful(h, 0, 39)
sk.route_g12(graphs[5], 0, 39)
sk.route_g9(graphs[6], 0, 39)
sk.restricted_pair_check(h, 0, 39)
sk.shortest_path(h, 0, 39)
sk.render_svg(h, trace)
pts, graph = str(tmp / "pts.json"), str(tmp / "g9.json")
commands = [
    ["gen", "--kind", "random", "--n", "40", "--seed", "3", "--out", pts],
    ["gen", "--kind", "circle", "--n", "12", "--out", str(tmp / "circle.json")],
    ["build", "--graph", "g9", "--points", pts, "--out", graph],
    ["route", "--graph", graph, "--algo", "g9", "--from", "0", "--to", "39",
     "--svg", str(tmp / "route.svg"), "--out", str(tmp / "route.json")],
    ["render", "--graph", graph, "--out", str(tmp / "g9.svg")],
]
for argv in commands:
    assert sk.main(argv) == 0, argv
print("scipy.sparse" in sys.modules)
sk.spanning_ratio(h)
print("scipy.sparse" in sys.modules)
"""


def test_only_the_exact_ratio_loads_scipy(tmp_path):
    env = dict(os.environ)
    src = str(MODULES[0].parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("SPANNER_KIT_SEED", None)
    done = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]

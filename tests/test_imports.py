"""Every module of the package uses every name it imports (stdlib ast only)."""

import ast
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

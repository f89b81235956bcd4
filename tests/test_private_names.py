"""Every private module-level name of the package is read somewhere in it
(stdlib ast only), so a helper whose last caller is gone does not linger."""

import ast
from pathlib import Path

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "spannerkit").glob("*.py"))


def private_definitions(tree: ast.Module) -> set[str]:
    """Names starting with one underscore that the module's top-level
    statements define: functions, classes and assignment targets."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for every private module-level name that no module reads,
    as a name or as an attribute (an import is not a read)."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, name) for name in private_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}:{name}" for module, name in defined if name not in read)


def test_the_check_finds_unread_names():
    sources = {
        "a": "_used = 1\n_gone = 2\n_attr, (_x, _unread) = 3, (4, 5)\ndef _helper(): return _used\n"
             "class _Kept: pass\nPUBLIC = 6\n__all__ = []\n",
        "b": "from .a import _helper, _gone\nimport a\n_helper()\na._attr\nprint(a._Kept, _x)\n",
    }
    assert unread_private_names(sources) == ["a:_gone", "a:_unread"]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unread_private_names(sources) == []

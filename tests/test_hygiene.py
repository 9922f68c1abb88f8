"""Source hygiene: every name a module or test file imports is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Imported names that the module never reads and does not list in __all__."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_detector():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom typing import IO, Union\n"
        "from math import pi, tau\n__all__ = ['pi']\n"
        "def f(s: IO[str]):\n    return os.sep\n"
    )
    assert unused_imports(source) == ["Union", "j", "tau"]


def test_no_unused_imports():
    files = sorted([*ROOT.glob("src/bipartitions/*.py"), *ROOT.glob("tests/*.py")])
    assert files
    found = {
        str(path.relative_to(ROOT)): names
        for path in files
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}

"""Source hygiene: every name a module or test file imports is used, every
private module-level name and every non-dunder method of the package is read
somewhere in it, every public module-level name of a module is read by that
module, or imported from it or read as module.name in the package or the bench
(or is on TEST_ONLY_API), every dataclass field of the package is read as an
attribute in the package, the bench or the tests, and no line is longer than
MAX_LINE characters."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_LINE = 99

# public names that only the tests read, and why each stays public
TEST_ONLY_API = {
    "phi": "the paper's Phi, read by tests/test_special_functions.py",
    "log_z_direct": "read by tests/test_acceptance.py",
    "log_z_expansion": "read by tests/test_acceptance.py",
    "rate_function": "read by tests/test_acceptance.py",
    "theta": "scalar Theta(alpha), read by tests/test_calibration.py",
    "lyapunov_bound": "read by tests/test_acceptance.py and tests/test_gibbs.py",
}


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


def module_definitions(source: str) -> set[str]:
    """Names that the source defines at module level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def private_definitions(source: str) -> set[str]:
    """Module-level names with one leading underscore that the source defines."""
    return {n for n in module_definitions(source) if n.startswith("_") and not n.startswith("__")}


def public_definitions(source: str) -> set[str]:
    """Module-level names without a leading underscore that the source defines."""
    return {n for n in module_definitions(source) if not n.startswith("_")}


def read_names(source: str) -> set[str]:
    """Names the source reads: loaded names, attributes and imported names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_private_detector():
    source = (
        "from m import _imported\n_kept = 1\n_dead: int = 2\n__dunder__ = 3\n"
        "public = _kept\ndef _f():\n    return m._attr\nclass _C:\n    _inner = 4\n"
    )
    assert private_definitions(source) == {"_kept", "_dead", "_f", "_C"}
    assert private_definitions(source) - read_names(source) == {"_dead", "_f", "_C"}
    assert {"_imported", "_attr"} <= read_names(source)


def loaded_names(source: str) -> set[str]:
    """Bare names the source loads."""
    return {
        node.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def names_read_from(source: str, module: str) -> set[str]:
    """Names the source imports from the module or loads as module.name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            names.update(a.name for a in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == module
        ):
            names.add(node.attr)
    return names


def test_public_detector():
    source = (
        "from m import imported\nkept = 1\ndead: int = 2\n__dunder__ = 3\n"
        "_private = kept\ndef f():\n    return m.attr\nclass C:\n    inner = 4\n"
    )
    assert public_definitions(source) == {"kept", "dead", "f", "C"}
    assert public_definitions(source) - loaded_names(source) == {"dead", "f", "C"}
    # another module reads f by import and C as mod.C; its local `dead` is no read
    other = "from .mod import f\ndef g(dead):\n    return f, mod.C, dead\n"
    assert names_read_from(other, "mod") == {"f", "C"}
    assert names_read_from(other, "other") == set()


def source_files() -> list[Path]:
    files = sorted([*ROOT.glob("src/bipartitions/*.py"), *ROOT.glob("tests/*.py")])
    assert files
    return files


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): names
        for path in source_files()
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


def test_line_length():
    long_lines = [
        f"{path.relative_to(ROOT)}:{n}"
        for path in source_files()
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


def test_no_dead_private_names():
    sources = [path.read_text() for path in ROOT.glob("src/bipartitions/*.py")]
    assert sources
    defined = set().union(*map(private_definitions, sources))
    read = set().union(*map(read_names, sources))
    assert sorted(defined - read) == []


def test_no_test_only_public_names():
    modules = {path.stem: path.read_text() for path in ROOT.glob("src/bipartitions/*.py")}
    readers = [*modules.values(), *(path.read_text() for path in ROOT.glob("bench/*.py"))]
    assert modules and len(readers) > len(modules)
    unread = set().union(
        *(
            public_definitions(source)
            - loaded_names(source)
            - set().union(*(names_read_from(reader, module) for reader in readers))
            for module, source in modules.items()
        )
    )
    assert sorted(unread - set(TEST_ONLY_API)) == []
    # an entry that the package or the bench reads, or that is gone, leaves the list
    assert sorted(set(TEST_ONLY_API) - unread) == []


def method_definitions(source: str) -> set[str]:
    """Non-dunder methods (properties and classmethods too) of the source's classes."""
    return {
        item.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and not (item.name.startswith("__") and item.name.endswith("__"))
    }


def read_attributes(source: str) -> set[str]:
    """Attribute names the source reads, as in obj.name."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_method_detector():
    source = (
        "class C:\n    def __init__(self):\n        self.x = self.used()\n"
        "    def used(self):\n        return C.build\n    def dead(self):\n        return 1\n"
        "    @property\n    def size(self):\n        return 0\n"
        "    @classmethod\n    def build(cls):\n        return cls().size\n"
        "    @classmethod\n    def never(cls):\n        return cls\n"
        "def dead():\n    return C().x\n"
    )
    assert method_definitions(source) == {"used", "dead", "size", "build", "never"}
    assert method_definitions(source) - read_attributes(source) == {"dead", "never"}


def test_no_dead_methods():
    sources = [path.read_text() for path in ROOT.glob("src/bipartitions/*.py")]
    assert sources
    defined = set().union(*map(method_definitions, sources))
    read = set().union(*map(read_attributes, sources))
    assert sorted(defined - read) == []


def dataclass_fields(source: str) -> set[str]:
    """Annotated field names of the source's @dataclass classes."""

    def is_dataclass(decorator) -> bool:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return isinstance(target, ast.Name) and target.id == "dataclass"

    return {
        item.target.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }


def test_field_detector():
    source = (
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
        "    def f(self):\n        return self.x\n"
        "@dataclass\nclass B:\n    z: int\nclass C:\n    w: int\n"
        "def g(b):\n    b.z = 1\n"
    )
    assert dataclass_fields(source) == {"x", "y", "z"}
    assert dataclass_fields(source) - read_attributes(source) == {"y", "z"}


def test_no_dead_dataclass_fields():
    sources = [path.read_text() for path in ROOT.glob("src/bipartitions/*.py")]
    readers = [path.read_text() for path in [*ROOT.glob("bench/*.py"), *source_files()]]
    assert sources and len(readers) > len(sources)
    defined = set().union(*map(dataclass_fields, sources))
    read = set().union(*map(read_attributes, readers))
    assert sorted(defined - read) == []

"""Source hygiene: every name a module, test file or tool imports is used, every
private module-level name and every non-dunder method of the package is read
somewhere in it, every public module-level name of a module is read by that
module, or imported from it or read as module.name in the package or the bench
(or is on TEST_ONLY_API), every defaulted parameter of a public function of
the package is set by some call in the package or the bench (or is on
TEST_ONLY_DEFAULTS), every dataclass field of the package is read as an
attribute in the package, the bench or the tests, no module of the package
reads the environment, only EXPM1_CALLERS call expm1 and only
GEOMETRIC_CALLERS call _geometric, no function or lambda of the package has a
parameter that its body never reads, and no line is longer than MAX_LINE
characters."""

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

# defaulted parameters, as "function(parameter)", that only the tests set, and why
TEST_ONLY_DEFAULTS = {
    "sample_batch(tracked_parts)": "tracked multiplicities, criterion 8 in test_acceptance.py",
    "theta(barred)": "the paper's barred Theta, read by tests/test_calibration.py",
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
    dirs = ("src/bipartitions", "tests", "tools")
    files = sorted(path for d in dirs for path in ROOT.glob(f"{d}/*.py"))
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


def defaulted_parameters(source: str) -> set[str]:
    """The defaulted parameters of the source's public module-level functions,
    each as "function(parameter)"."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found.update(f"{node.name}({a.arg})" for a in defaulted)
    return found


def signatures(source: str) -> dict[str, list[str]]:
    """Parameter names, in order, of the source's public module-level functions."""
    return {
        node.name: [a.arg for a in [*node.args.posonlyargs, *node.args.args,
                                    *node.args.kwonlyargs]]
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def set_parameters(source: str, known: dict[str, list[str]]) -> set[str]:
    """The parameters, each as "function(parameter)", that a call in the source
    passes by keyword or by position to a function named in known (name ->
    parameter names in order); a call with *args or **kwargs passes them all."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name not in known:
            continue
        params = known[name]
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            passed = params
        else:
            passed = params[: len(node.args)] + [k.arg for k in node.keywords]
        found.update(f"{name}({p})" for p in passed)
    return found


def test_default_detector():
    source = (
        "def f(a, b=1, *, c=2, d):\n    return a\n"
        "def g(x=0, y=1):\n    return f(1, 2, d=3)\n"
        "def _h(z=0):\n    return m.g(y=2)\n"
    )
    assert defaulted_parameters(source) == {"f(b)", "f(c)", "g(x)", "g(y)"}
    assert set_parameters(source, signatures(source)) == {"f(a)", "f(b)", "f(d)", "g(y)"}
    assert set_parameters("f(*xs)\ng(**kw)\n", signatures(source)) == {
        "f(a)", "f(b)", "f(c)", "f(d)", "g(x)", "g(y)"
    }


def test_every_default_is_set():
    # a default that no caller changes is a constant spelled as a parameter
    modules = [path.read_text() for path in ROOT.glob("src/bipartitions/*.py")]
    readers = [*modules, *(path.read_text() for path in ROOT.glob("bench/*.py"))]
    assert modules and len(readers) > len(modules)
    defaulted = set().union(*map(defaulted_parameters, modules))
    names = {k: v for source in modules for k, v in signatures(source).items()}
    unset = defaulted - set().union(*(set_parameters(r, names) for r in readers))
    assert sorted(unset - set(TEST_ONLY_DEFAULTS)) == []
    # an entry that the package or the bench sets, or that is gone, leaves the list
    assert sorted(set(TEST_ONLY_DEFAULTS) - unset) == []


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


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> set[str]:
    """os.environ, os.getenv and kin, read as attributes or imported from os."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.update(a.name for a in node.names if a.name in ENVIRONMENT_READERS)
    return found


def test_environment_detector():
    source = (
        "import os\nfrom os import getenv as g, sep\n"
        "x = os.environ.get('A')\ny = os.path.join(sep, 'b')\n"
    )
    assert environment_reads(source) == {"environ", "getenv"}
    assert environment_reads("import os\nz = os.getenvb(b'A')\n") == {"getenvb"}


def test_no_environment_reads():
    # every knob is a stated module constant, so none can hide in the environment
    found = {
        path.name: names
        for path in ROOT.glob("src/bipartitions/*.py")
        if (names := environment_reads(path.read_text()))
    }
    assert found == {}


# the one function of the package that may call expm1: the geometric factor
# G0 = 1/(e^x - 1) and its derivatives
EXPM1_CALLERS = {"_geometric"}
# the functions that may call _geometric: the part families' r-terms and the
# axes' Dirichlet series
GEOMETRIC_CALLERS = {"_log_z_terms", "_dirichlet_series"}


def callers(source: str, name: str) -> set[str]:
    """Names of the module-level functions whose bodies, nested functions
    included, call name as f(x) or m.f(x); None for a call outside them."""
    found = set()

    def visit(node, function):
        if function is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_expm1_detector():
    source = (
        "import math\nfrom numpy import expm1\nx = math.expm1(1.0)\n"
        "def f(y):\n    def g(z):\n        return np.expm1(z)\n    return g(y)\n"
        "def h(y):\n    return expm1(y) + np.exp(y)\ndef k(y):\n    return y.expm1\n"
    )
    assert callers(source, "expm1") == {None, "f", "h"}
    assert callers(source, "exp") == {"h"}


def test_geometric_factor_in_one_place():
    # G0 is evaluated only by special_functions._geometric, so its accuracy
    # and range past x ~ 709.78 are set in one place
    sources = [path.read_text() for path in ROOT.glob("src/bipartitions/*.py")]
    assert sources
    assert set().union(*(callers(source, "expm1") for source in sources)) == EXPM1_CALLERS


def test_g_products_in_one_generator():
    # the part families' G-products, to order 4, are formed only by
    # asymptotics._log_z_terms, so the log-Z sums, the sampler's rates and the
    # quartic moments read one layout of rows; the axes' Dirichlet series
    # are the other caller
    sources = [path.read_text() for path in ROOT.glob("src/bipartitions/*.py")]
    assert sources
    assert set().union(*(callers(source, "_geometric") for source in sources)) == (
        GEOMETRIC_CALLERS
    )


def unused_parameters(source: str) -> list[str]:
    """Each parameter, as "function(parameter)", of a function or lambda of the
    source that its body, nested functions included, never loads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            body = node.body if isinstance(node.body, list) else [node.body]
            loaded = {
                n.id
                for statement in body
                for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "lambda")
            found += [f"{name}({a.arg})" for a in params if a and a.arg not in loaded]
    return sorted(found)


def test_unused_parameter_detector():
    source = (
        "def f(a, b=1, *args, c, **kw):\n    def g(d):\n        return a + c\n    return g\n"
        "h = lambda x, y: x\nclass C:\n    def m(self, z):\n        z = 1\n        return self\n"
        "def k(w=lambda v: 0):\n    return w\n"
    )
    assert unused_parameters(source) == [
        "f(args)", "f(b)", "f(kw)", "g(d)", "lambda(v)", "lambda(y)", "m(z)"
    ]


def test_no_unused_parameters():
    # a parameter that no body reads is an input that changes nothing
    found = {
        path.name: names
        for path in ROOT.glob("src/bipartitions/*.py")
        if (names := unused_parameters(path.read_text()))
    }
    assert found == {}

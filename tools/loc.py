"""Print the line counts of the package, per module and in total.

    python3 tools/loc.py

Three counts per module of ``src/bipartitions``: its lines (as ``wc -l``
counts them), its non-blank lines that are not comments, and those of the
latter that lie outside module, class and function docstrings (found with
``ast``).  Run from anywhere; the package is found beside this script.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bipartitions"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(source: str) -> tuple[int, int, int]:
    """(lines, code lines, code lines outside docstrings) of the source, where
    a code line is a non-blank line that does not start with '#'."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = source.splitlines()
    code = [n for n, line in enumerate(lines, 1) if line.strip() and line.strip()[0] != "#"]
    return len(lines), len(code), len(set(code) - docstrings)


def main() -> None:
    total = [0, 0, 0]
    print(f"{'module':<22}{'lines':>8}{'code':>8}{'no doc':>8}")
    for path in sorted(PACKAGE.glob("*.py")):
        row = counts(path.read_text())
        total = [t + c for t, c in zip(total, row)]
        print(f"{path.name:<22}" + "".join(f"{c:>8,}" for c in row))
    print(f"{'total':<22}" + "".join(f"{c:>8,}" for c in total))


if __name__ == "__main__":
    main()

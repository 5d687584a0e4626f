"""Line counts of the ``src/meshsum`` modules: code, docstring, blank and comment.

With no path it counts every module of the package (it is not a test, and
pytest does not collect it):

    python3 tests/linecount.py [--defs] [PATH ...]

With ``--defs`` it also lists, under each module, its top-level functions
and classes (decorators included) and the rest of the module, each with the
same columns.

Each line falls in one class.  A blank line holds only whitespace, inside a
docstring too.  A docstring line is any other line of a module's, class's or
function's docstring, found with ``ast``.  A comment line holds only a
comment; every other line is code, even one that ends in a comment.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "meshsum"
KINDS = ("code", "docstring", "blank", "comment")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based numbers of every line that a docstring spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def classify(path: Path) -> tuple[ast.Module, list[str]]:
    """The module's tree and the kind of each of its lines, in order."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    docs = docstring_lines(tree)
    kinds = []
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        kinds.append("blank" if not stripped else "docstring" if number in docs
                     else "comment" if stripped.startswith("#") else "code")
    return tree, kinds


def tally(kinds: list[str]) -> dict[str, int]:
    return {kind: kinds.count(kind) for kind in KINDS}


def definitions(tree: ast.Module, kinds: list[str]) -> list[tuple[str, dict[str, int]]]:
    """Each top-level function and class with the tally of its lines, then
    ``(rest)``: imports, constants and everything between the definitions."""
    rows, rest = [], list(kinds)
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            rows.append((node.name, tally(kinds[first : node.end_lineno])))
            rest[first : node.end_lineno] = [None] * (node.end_lineno - first)
    return rows + [("(rest)", tally(rest))]


def line(name: str, counts: dict[str, int], width: int) -> str:
    return f"{name:<{width}}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>11}" for k in KINDS)


def main(argv: list[str]) -> None:
    defs = "--defs" in argv
    paths = [Path(p) for p in argv if p != "--defs"] or sorted(SRC.glob("*.py"))
    width = 32 if defs else 16
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<{width}}{'lines':>7}" + "".join(f"{kind:>11}" for kind in KINDS))
    for path in paths:
        tree, kinds = classify(path)
        counts = tally(kinds)
        for kind in KINDS:
            total[kind] += counts[kind]
        rows = [(path.name, counts)]
        if defs:
            rows += [(f"  {name}", of_def) for name, of_def in definitions(tree, kinds)]
        for name, of_rows in rows:
            print(line(name, of_rows, width))
    print(line("total", total, width))


if __name__ == "__main__":
    main(sys.argv[1:])

"""Line counts of the ``src/meshsum`` modules: code, docstring, blank and comment.

With no path it counts every module of the package (it is not a test, and
pytest does not collect it):

    python3 tests/linecount.py [PATH ...]

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


def count(path: Path) -> dict[str, int]:
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    tally = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        kind = ("blank" if not stripped else "docstring" if number in docs
                else "comment" if stripped.startswith("#") else "code")
        tally[kind] += 1
    return tally


def main(argv: list[str]) -> None:
    paths = [Path(p) for p in argv] or sorted(SRC.glob("*.py"))
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{kind:>11}" for kind in KINDS))
    for path in paths:
        tally = count(path)
        for kind in KINDS:
            total[kind] += tally[kind]
        print(f"{path.name:<16}{sum(tally.values()):>7}" + "".join(f"{tally[k]:>11}" for k in KINDS))
    print(f"{'total':<16}{sum(total.values()):>7}" + "".join(f"{total[k]:>11}" for k in KINDS))


if __name__ == "__main__":
    main(sys.argv[1:])

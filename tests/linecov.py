"""Lines of the ``src/meshsum`` modules that no test reaches.

It is not a test, and pytest does not collect it.  coverage.py need not be
installed: it runs the suite in this process under ``sys.settrace`` and
``threading.settrace``, then prints each line that holds code and never ran,
as ``module:first[-last]``, one run of lines at a time:

    python3 tests/linecov.py [PYTEST_ARG ...]

With no argument it runs the whole suite, as ``python3 -m pytest`` does.
A line holds code when some code object compiled from the module has an
instruction on it; a ``def`` line counts as reached when the function is
called.  Lines that run only in a subprocess (the out-of-memory and
fresh-interpreter tests) are not seen, so they are listed too.  The exit
status is pytest's.
"""

from __future__ import annotations

import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "meshsum"


def code_lines(path: Path) -> set[int]:
    """The numbers of the lines that some code object compiled from ``path`` runs."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for *_, line in code.co_lines() if line)  # None, or 0 before line 1
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def runs(numbers: list[int]) -> list[str]:
    """Sorted line numbers as ``first`` or ``first-last`` runs of consecutive lines."""
    out: list[str] = []
    for n in numbers:
        if out and n == last + 1:
            out[-1] = f"{out[-1].split('-')[0]}-{n}"
        else:
            out.append(str(n))
        last = n
    return out


def main(argv: list[str]) -> int:
    reached: dict[str, set[int]] = defaultdict(set)
    ours: dict[str, str | None] = {}  # co_filename -> module name, or None outside src/meshsum

    def module_of(code: types.CodeType) -> str | None:
        name = code.co_filename
        if name not in ours:
            path = Path(name).resolve()
            ours[name] = path.name if path.parent == SRC else None
        return ours[name]

    def trace(frame, event, arg):
        module = module_of(frame.f_code)
        if module is None:
            return None
        lines = reached[module]
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or [str(TESTS)])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = code_lines(path)
        unreached = sorted(lines - reached[path.name])
        total += len(lines)
        missed += len(unreached)
        for run in runs(unreached):
            print(f"{path.name}:{run}")
    print(f"{missed} of {total} code lines of src/meshsum unreached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

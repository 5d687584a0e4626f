"""Every module-level import in ``src/meshsum`` is used: a stdlib-only
stand-in for a linter's unused-import rule."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "meshsum"


def _exported(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str, exempt_exports: bool) -> list[str]:
    """'line: name' for each top-level import whose name is never read;
    ``from __future__`` imports and, if ``exempt_exports``, the names in
    the module's ``__all__`` do not count."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    if exempt_exports:
        read |= _exported(tree)
    return [f"{line}: {name}" for name, line in imported.items() if name not in read]


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b, c as d\n"
    source += "b = 1\nsys.exit(d)\n"  # storing to a name does not read it
    assert unused_imports(source, exempt_exports=False) == ["2: os", "3: b"]
    exported = source + "__all__ = ['b', 'os']\n"
    assert unused_imports(exported, exempt_exports=True) == []
    assert unused_imports(exported, exempt_exports=False) == ["2: os", "3: b"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    source = path.read_text(encoding="utf-8")
    assert unused_imports(source, exempt_exports=path.name == "__init__.py") == []

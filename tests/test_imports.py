"""Import hygiene of ``src/meshsum``, checked with the stdlib alone.

Every module-level import is used (a stand-in for a linter's
unused-import rule), and no module imports another's private name.  The
analytic side (``exact``, ``growth``, ``summation``, ``report``, ``cli``
and the package itself) imports neither numpy nor the explicit side's
modules at module level, so that ``predict`` and ``sum`` run without
them, and it imports numpy and ``textcells`` nowhere at all: arrays and
the disk file they are written to belong to the explicit side.  The
package's lazy names keep its public API, ``PUBLIC_NAMES``, whole.
``import meshsum.cli``, which the benchmark's ``setup_s`` times, loads
neither numpy nor ``meshsum.mesh``, where the disk file is written and
read.  No module reads or sets the thread's
decimal context: exact decimal arithmetic goes through ``EXACT``'s own
methods, so no context can leak into a caller.  Every private
module-level name is read somewhere in the package, so no dead helper
stays behind.  Only ``growth.CANONICAL_SEEDS`` names a seed: no other
module holds a seed's name as a string, but for ``--seed``'s default.
Only ``growth`` states the degree rule: no other module holds the integer
literal ``MIN_DEGREE``.  Only ``report.canonical_json`` lays out JSON: no
string constant holds a newline, spaces and then a quoted key.  README's
evidence map of ``verify`` names exactly the checks that it records, and
calls independent exactly those that a wrong closed form makes fail.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import meshsum
from meshsum.growth import CANONICAL_SEEDS, MIN_DEGREE
from meshsum.verify import run_verification
from support import CHECK_FAULTS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "meshsum"
ANALYTIC = ("exact.py", "growth.py", "summation.py", "report.py", "cli.py", "__init__.py")
EXPLICIT_MODULES = (
    "numpy", "meshsum.mesh", "meshsum.render", "meshsum.textcells", "meshsum.verify"
)
ARRAY_MODULES = ("numpy", "meshsum.textcells")
CONTEXT_FUNCTIONS = ("localcontext", "getcontext", "setcontext")


def unused_imports(source: str) -> list[str]:
    """'line: name' for each top-level import whose name is never read;
    ``from __future__`` imports do not count, and a name listed in
    ``__all__`` is not read."""
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
    return [f"{line}: {name}" for name, line in imported.items() if name not in read]


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b, c as d\n"
    source += "b = 1\nsys.exit(d)\n"  # storing to a name does not read it
    assert unused_imports(source) == ["2: os", "3: b"]
    assert unused_imports(source + "__all__ = ['b', 'os']\n") == ["2: os", "3: b"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    source = path.read_text(encoding="utf-8")
    assert unused_imports(source) == []


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """A module's ``_``-prefixed top-level functions, classes and assigned
    names, dunders aside, each with the line that first defines it."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                defined.setdefault(name, node.lineno)
    return defined


def _names_read(tree: ast.Module) -> set[str]:
    """Every name a module reads anywhere: as a name, an attribute or an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """'module:line: name' for each private top-level name of the given
    modules (name to source) that none of them reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_names_read, trees.values()))
    return [
        f"{module}:{line}: {name}"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    ]


def test_the_check_finds_an_unread_private_name():
    a = "import os\n_A = 1\n_B, (_C, D) = 2, (3, 4)\n__all__ = []\n"
    a += "def _f():\n    _local = 1\n    return _B\nclass _K:\n    _attr = 2\n"
    b = "from a import _f\nprint(os._C)\n_G: int = 5\n"
    assert unread_private_names({"a": a, "b": b}) == ["a:2: _A", "a:8: _K", "b:3: _G"]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def _imported_modules(node: ast.Import | ast.ImportFrom) -> list[str]:
    """Absolute names of the modules an import statement in meshsum loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    package = "meshsum" if node.level else ""
    if node.module:
        return [".".join(filter(None, [package, node.module]))]
    return [f"{package}.{alias.name}" for alias in node.names]


def explicit_imports(source: str, modules=EXPLICIT_MODULES, anywhere: bool = False) -> list[str]:
    """'line: module' for each module-level import of one of ``modules`` (or
    of a submodule); imports inside a function or an ``if`` count only
    ``anywhere``."""
    tree = ast.parse(source)
    return [
        f"{node.lineno}: {name}"
        for node in (ast.walk(tree) if anywhere else tree.body)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _imported_modules(node)
        if any(name == module or name.startswith(module + ".") for module in modules)
    ]


def test_the_check_finds_an_explicit_import():
    source = "import numpy as np\nimport numpy.linalg, os\nfrom . import exact, mesh\n"
    source += "from .render import emit_svg\nfrom .growth import DiskCounts\nfrom numbers import Real\n"
    source += "if TYPE_CHECKING:\n    from .verify import run_verification\n"
    source += "def f():\n    from .mesh import expand\n"
    assert explicit_imports(source) == [
        "1: numpy", "2: numpy.linalg", "3: meshsum.mesh", "4: meshsum.render"
    ]


@pytest.mark.parametrize("name", ANALYTIC)
def test_the_analytic_side_imports_no_explicit_module(name):
    path = SRC / name
    assert explicit_imports(path.read_text(encoding="utf-8")) == [], path


def test_the_check_finds_an_array_import_at_any_depth():
    source = "from . import mesh\nif TYPE_CHECKING:\n    from .textcells import row\n"
    source += "def f():\n    import numpy as np\n    from .mesh import expand\n"
    source += "    from . import textcells\nimport numbers\n"
    assert explicit_imports(source, ARRAY_MODULES, anywhere=True) == [
        "3: meshsum.textcells", "5: numpy", "7: meshsum.textcells"
    ]
    assert explicit_imports(source, ARRAY_MODULES) == []


@pytest.mark.parametrize("name", ANALYTIC)
def test_the_analytic_side_imports_no_array_module_anywhere(name):
    path = SRC / name
    assert explicit_imports(path.read_text(encoding="utf-8"), ARRAY_MODULES, True) == [], path


def private_imports(source: str) -> list[str]:
    """'line: name' for each ``_``-prefixed name (dunders aside) that an
    import statement anywhere in a meshsum module takes from meshsum."""
    return [
        f"{node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and _imported_modules(node)[0].partition(".")[0] == "meshsum"
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def test_the_check_finds_a_private_import():
    source = "from __future__ import annotations\nfrom .report import _texts, canonical_json\n"
    source += "from os import _exit\nfrom . import _private, __version__\n"
    source += "def f():\n    from meshsum.mesh import _inspect\n"
    assert private_imports(source) == ["2: _texts", "4: _private", "6: _inspect"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_another_module_s_private_name(path):
    assert private_imports(path.read_text(encoding="utf-8")) == [], path


def seed_names(source: str, names=tuple(CANONICAL_SEEDS)) -> list[str]:
    """'line: name' for each string constant in a module that equals one of
    ``names``, the canonical seeds, other than an ``add_argument("--seed",
    ...)`` call's ``default``."""
    tree = ast.parse(source)
    defaults = {
        id(keyword.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument" and node.args
        and isinstance(node.args[0], ast.Constant) and node.args[0].value == "--seed"
        for keyword in node.keywords
        if keyword.arg == "default"
    }
    found = sorted(
        (node.lineno, node.col_offset, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in names and id(node) not in defaults
    )
    return [f"{line}: {name}" for line, _, name in found]


def test_the_check_finds_a_seed_name():
    source = 'p.add_argument("--seed", default="face", help="vertex or face")\n'
    source += 'p.add_argument("-n", default="vertex")\nseeds = {"face": 1}\n'
    source += 'def f(kind):\n    return kind == "vertex" or f"{kind}" == "face"\n'
    assert seed_names(source) == ["2: vertex", "3: face", "5: vertex", "5: face"]
    assert seed_names('x = ("faces", "Face", "vertex ")\n') == []


@pytest.mark.parametrize(
    "path", sorted(set(SRC.glob("*.py")) - {SRC / "growth.py"}), ids=lambda path: path.name
)
def test_only_the_seed_table_names_a_seed(path):
    assert seed_names(path.read_text(encoding="utf-8")) == [], path


def degree_literals(source: str, value: int = MIN_DEGREE) -> list[str]:
    """'line: value' for each integer constant in a module that equals
    ``value``, the minimum degree; booleans, floats and strings do not count."""
    return [
        f"{node.lineno}: {value}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value == value
    ]


def test_the_check_finds_a_degree_literal():
    source = 'MIN = 7\nx = (7.0, "7", "r >= 7", 17, 70)\n'
    source += 'def f(r):\n    return r < 7 or f"{r:<7}" or -7\n'
    assert degree_literals(source) == ["1: 7", "4: 7", "4: 7"]
    assert degree_literals("x = True\n", 1) == []


@pytest.mark.parametrize(
    "path", sorted(set(SRC.glob("*.py")) - {SRC / "growth.py"}), ids=lambda path: path.name
)
def test_only_growth_states_the_minimum_degree(path):
    assert degree_literals(path.read_text(encoding="utf-8")) == [], path


def context_uses(source: str) -> list[str]:
    """'line: name' for each mention, anywhere in the module, of the decimal
    module's thread-context functions: as a name, an attribute or an
    imported name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in CONTEXT_FUNCTIONS:
            found.append((node.lineno, name))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_the_check_finds_a_thread_context_use():
    source = "import decimal\nfrom decimal import Decimal, localcontext as lc\n"
    source += "def f():\n    with decimal.localcontext(EXACT):\n"
    source += "        return decimal.getcontext().prec\n"
    source += "setcontext = EXACT.add\nEXACT.multiply(Decimal(2), lc)\n"
    assert context_uses(source) == ["2: localcontext", "4: localcontext", "5: getcontext",
                                    "6: setcontext"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_uses_the_thread_decimal_context(path):
    assert context_uses(path.read_text(encoding="utf-8")) == [], path


def json_layouts(source: str) -> list[str]:
    """'line: text' for each str constant in a module, docstrings aside and
    f-string parts included, that lays out JSON by hand: a newline, spaces,
    then a quoted key.  Bytes do not count."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
    }
    found = sorted(
        (node.lineno, node.col_offset, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings and re.search(r'\n +"', node.value)
    )
    return [f"{line}: {text!r}" for line, _, text in found]


def test_the_check_finds_a_hand_written_json_layout():
    source = textwrap.dedent('''\
        """Module docs:
          "quoted" words stay."""
        ENTRY = """\\
            {
              "a": %s
            }"""
        def f(q):
            """Function docs:
              "quoted" words stay."""
            return f'{{\\n  "den": "{q}"}}' + "\\n  }" + '\\n"k"'
        DISK = b'{\\n  "r": %d'
        ''')
    assert json_layouts(source) == [
        "3: '    {\\n      \"a\": %s\\n    }'",
        "10: '{\\n  \"den\": \"'",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_only_canonical_json_lays_out_json(path):
    assert json_layouts(path.read_text(encoding="utf-8")) == [], path


def _unannotated(node: ast.AST):
    """``ast.walk`` of ``node`` without annotations, which ``from __future__
    import annotations`` never evaluates."""
    yield node
    for field, value in ast.iter_fields(node):
        if field not in ("annotation", "returns"):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    yield from _unannotated(child)


def call_graph(sources: dict[str, str]) -> tuple[dict[str, set[str]], set[str]]:
    """The package's call graph from its modules' sources (module name to
    source), and the nodes that are functions or methods.

    A node is a top-level function, class or assigned name, "module.name",
    or a method, "module.Class.name"; it maps to the nodes it reads.  A
    name resolves within its module or through a relative import; ``m.name``
    through a module ``m`` imported from the package; any other ``.name``
    to every method of that name, as the walk cannot know an object's
    type.  A class reads its bases and its ``__init__`` and
    ``__post_init__``; its other methods are read by name."""
    bodies, imported, methods = {}, {}, {}
    for module, source in sources.items():
        names = imported[module] = {}
        for node in ast.parse(source).body:
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    names[alias.asname or alias.name] = ".".join(
                        filter(None, [node.module, alias.name]))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies[f"{module}.{node.name}"] = node
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef):
                        bodies[f"{module}.{node.name}.{item.name}"] = item
                        methods.setdefault(item.name, []).append(f"{module}.{node.name}.{item.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            bodies[f"{module}.{name.id}"] = node.value
    graph = {}
    for node_name, body in bodies.items():
        module = node_name.partition(".")[0]
        reads = graph[node_name] = set()
        parts = [body]
        if isinstance(body, ast.ClassDef):
            reads.update(f"{node_name}.{m}" for m in ("__init__", "__post_init__"))
            parts = [*body.bases, *body.decorator_list,
                     *(item for item in body.body if not isinstance(item, ast.FunctionDef))]
        for sub in (sub for part in parts for sub in _unannotated(part)):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                local = f"{module}.{sub.id}"
                reads.add(local if local in bodies else imported[module].get(sub.id, ""))
            elif isinstance(sub, ast.Attribute):
                owner = imported[module].get(getattr(sub.value, "id", None))
                if owner in sources:
                    reads.add(f"{owner}.{sub.attr}")
                else:
                    reads.update(methods.get(sub.attr, ()))
        reads.intersection_update(bodies)
    return graph, {name for name, body in bodies.items() if isinstance(body, ast.FunctionDef)}


def _reach(graph: dict[str, set[str]], roots) -> set[str]:
    """The nodes of ``graph`` that ``roots`` reach, the roots included."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += graph.get(name, ())
    return seen


# count_explicit and validate_disk are the oracle that expand and the closed forms
# are checked against: their pass never reaches the growth pipeline, and it takes
# from growth only the degree rule, the convexity bound and the count type.
ORACLE_ROOTS = ("mesh.count_explicit", "mesh.validate_disk")
NOT_IN_THE_ORACLE = ("expand", "_gaps_last", "grow", "layer_census", "measured_layers",
                     "_require_room")
ORACLE_TAKES = {"growth": {"check_degree", "convexity_bound", "DiskCounts"},
                "summation": set(), "report": set()}
# The private helpers the pass shares with expand, and why a bug in each cannot hide.
SHARED_WITH_EXPAND = {
    "mesh._ranges": "only rows off the gap-last form reach it, on either side: a row "
    "that _gaps_last turns or whose first entry _outer_slots misses; no grown disk has "
    "one (test_growth_never_turns_a_row), and on hand-built disks with turned rows "
    "expand is held to support.reference_expand and the pass to support.reference_inspect, "
    "neither of which calls it",
    "mesh._require_simple_cycle": "it only refuses: a wrong refusal fails every grown "
    "layer, and test_a_pinched_boundary_is_not_a_simple_cycle and "
    "test_a_lone_edge_in_one_half_breaks_symmetry pin its verdicts by hand, as "
    "support.reference_inspect calls it too",
    "mesh.CombinatorialDisk._boundary_degrees": "expand fills the cache and a later "
    "pass over the same disk reads it, read-only; a wrong degree fails verify's "
    "closed-form-counts check, which sums it into d and compares the closed forms "
    "with the pass's counts, taken from slot totals alone, and "
    "support.reference_inspect recomputes it",
}


def oracle_problems(sources: dict[str, str]) -> list[str]:
    """What breaks the oracle's independence in the package's sources: a
    node of the pipeline that the pass reaches, a name it takes from
    ``growth``, ``summation`` or ``report`` beyond ``ORACLE_TAKES``, and a
    private helper it shares with ``expand`` but for ``SHARED_WITH_EXPAND``
    (or one listed there that it no longer shares)."""
    graph, functions = call_graph(sources)
    oracle = _reach(graph, ORACLE_ROOTS)
    problems = [f"reaches mesh.{name}" for name in NOT_IN_THE_ORACLE if f"mesh.{name}" in oracle]
    for node in sorted(oracle):
        for target in sorted(graph[node]):
            module, _, name = target.partition(".")
            if module != node.partition(".")[0] and name not in ORACLE_TAKES.get(module, {name}):
                problems.append(f"{node} takes {target}")
    shared = {
        name for name in oracle & _reach(graph, ["mesh.expand"]) & functions
        if name.rpartition(".")[2].startswith("_") and not name.endswith("__")
    }
    problems += [f"shares {name} with expand" for name in sorted(shared - SHARED_WITH_EXPAND.keys())]
    problems += [f"no longer shares {name}" for name in sorted(SHARED_WITH_EXPAND.keys() - shared)]
    return problems


def test_the_check_finds_a_pass_that_leans_on_the_pipeline():
    mesh_source = textwrap.dedent('''\
        from .growth import DiskCounts, SeedDescriptor, check_degree
        from . import summation
        class Disk:
            def __init__(self):
                self.rows = _copy()
            @property
            def _degrees(self):
                return 3
        def _copy():
            return []
        def _ranges(n: SeedDescriptor) -> Disk:
            return n
        def _measure(disk):
            check_degree(7)
            return DiskCounts(disk._degrees, _ranges(1), summation.euler_sum(), SeedDescriptor)
        def count_explicit(disk):
            return _measure(disk)
        def validate_disk(disk):
            return layer_census(disk)
        def layer_census(disk):
            return disk
        def expand(disk):
            return Disk(), disk._degrees, _ranges(2)
        ''')
    growth_source = "class DiskCounts:\n    pass\nclass SeedDescriptor:\n    pass\n"
    growth_source += "def check_degree(r):\n    return r\n"
    sources = {"mesh": mesh_source, "growth": growth_source,
               "summation": "def euler_sum():\n    return 0\n"}
    # annotations read nothing: _ranges reaches neither Disk nor _copy
    assert oracle_problems(sources) == [
        "reaches mesh.layer_census",
        "mesh._measure takes growth.SeedDescriptor",
        "mesh._measure takes summation.euler_sum",
        "shares mesh.Disk._degrees with expand",
        "no longer shares mesh.CombinatorialDisk._boundary_degrees",
        "no longer shares mesh._require_simple_cycle",
    ]


def test_the_oracle_stays_independent_of_the_pipeline_and_the_closed_forms():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert oracle_problems(sources) == []


def _fresh(probe: str, cwd: Path):
    """The literal that a fresh interpreter running ``probe`` prints last."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.splitlines()[-1])


def _loaded_after(code: str, cwd: Path) -> list[str]:
    """The explicit modules loaded by a fresh interpreter that ran ``code``
    with ``main`` imported and stdout discarded."""
    return _fresh("\n".join([
        "import contextlib, io, sys",
        "from meshsum.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        textwrap.indent(code, "    "),
        f"print([m for m in {EXPLICIT_MODULES!r} if m in sys.modules])",
    ]), cwd)


@pytest.mark.parametrize(
    "code",
    [
        "import meshsum",
        "import meshsum.cli",
        "assert main(['predict', '-r', '7', '-n', '3', '--json']) == 0",
        "assert main(['predict', '-r', '9', '--seed', '3:6', '-n', '40', '-o', 'p.json']) == 0",
        "assert main(['sum', '-r', '7:50']) == 0",
        "assert main(['sum', '-r', '9', '--seed', 'face']) == 0",
        "try:\n    main(['--version'])\nexcept SystemExit as exc:\n    assert exc.code == 0",
    ],
    ids=["import", "import-cli", "predict-json", "predict-output", "sum-range", "sum-seed",
         "version"],
)
def test_the_analytic_commands_load_no_numpy(code, tmp_path):
    assert _loaded_after(code, tmp_path) == []


def test_grow_does_load_numpy(tmp_path):
    loaded = _loaded_after("assert main(['grow', '-r', '7', '-n', '1']) == 0", tmp_path)
    assert {"numpy", "meshsum.mesh"} <= set(loaded)


def test_every_public_name_resolves():
    import meshsum.mesh

    for name in meshsum.__all__:
        assert getattr(meshsum, name) is not None, name
    assert set(meshsum.__all__) <= set(dir(meshsum))
    assert meshsum.DiskCounts is meshsum.mesh.DiskCounts
    assert meshsum.convexity_bound is meshsum.mesh.convexity_bound
    assert meshsum.expand is meshsum.mesh.expand
    message = "module 'meshsum' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=f"^{re.escape(message)}$"):
        meshsum.no_such_name


# The library's public API, ``meshsum.__all__``: "__version__", then every
# public name in sorted order.  Changing it changes the API.
PUBLIC_NAMES = [
    "__version__", "BudgetExceededError", "CensusContradiction",
    "CombinatorialDisk", "ConvexityError", "DeltaCounts", "DiskCounts", "InvalidSeedError",
    "LayerCensus", "LayerPrediction", "LayoutError", "MalformedDiskError", "MeasuredLayer",
    "MeshInvariants", "PoleError", "RecurrenceSeries", "RotationGraph", "SeedDescriptor",
    "UndefinedSumError", "boundary_profile", "census_step",
    "convexity_bound", "count_explicit", "counts_from_boundary", "delta_counts",
    "deltas_from_census", "disk_from_json_obj", "emit_svg", "euler_formula_check",
    "euler_sum", "euler_sum_by_lemma", "expand", "generating_value", "grow",
    "initial_census", "is_convex", "layer_census", "layout_disk", "measured_layers",
    "mesh_invariants", "mesh_invariants_from_seed", "partial_sum", "platonic_counts",
    "predict_layers", "second_order_step", "seed_face", "seed_vertex", "validate_disk",
]


def test_the_public_namespace_is_pinned(tmp_path):
    assert meshsum.__all__ == PUBLIC_NAMES
    modules = {}
    for name in PUBLIC_NAMES[1:]:
        value = getattr(meshsum, name)
        assert value.__name__ == name and getattr(sys.modules[value.__module__], name) is value
        modules.setdefault(value.__module__, []).append(name)
    assert sorted(modules) == ["meshsum.growth", "meshsum.mesh", "meshsum.render",
                               "meshsum.summation"]
    bound, listed = _fresh(
        "import meshsum\nprint((sorted(vars(meshsum)), dir(meshsum)))", tmp_path
    )
    eager = {"__version__", *modules["meshsum.growth"], *modules["meshsum.summation"]}
    assert set(PUBLIC_NAMES) & set(bound) == eager
    # beside the public names only the package's submodules, its one import
    # and its one table: no helper or loop variable is left behind
    assert [name for name in listed if name not in PUBLIC_NAMES and name[:2] != "__"] == [
        "_MODULE_OF", "exact", "growth", "import_module", "summation"
    ]
    assert set(PUBLIC_NAMES) <= set(listed)


def test_the_readme_library_examples_run():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) == 2
    for block in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, "README.md", "exec"), {})


def evidence_problems(paragraph: str, recorded: set[str], can_fail: set[str]) -> list[str]:
    """What README's evidence paragraph gets wrong: a check it names (a
    backquoted word that is not a public name) that ``verify`` does not
    record, or the reverse, and a check it calls independent evidence that no
    fault of ``support.CHECK_FAULTS`` fails, or the reverse.  ``platonic`` has
    its own test, and ``convexity`` restates the pass but is computed by its
    own call, so a fault fails it too."""
    def names(text: str) -> set[str]:
        return set(re.findall(r"`([a-z]+(?:-[a-z]+)*)`", text)) - set(meshsum.__all__)

    named = names(paragraph)
    independent = names(
        paragraph.partition("The independent evidence is")[2].partition(". The restating")[0]
    )
    should_be = can_fail - {"convexity"} | {"platonic"}
    problems = [f"names {name}, which verify does not record" for name in sorted(named - recorded)]
    problems += [f"does not name {name}" for name in sorted(recorded - named)]
    problems += [f"calls {name} independent" for name in sorted(independent - should_be)]
    problems += [f"does not call {name} independent" for name in sorted(should_be - independent)]
    return problems


def test_the_check_finds_a_drifted_evidence_map():
    paragraph = "`euler-layer` restates `expand`. The independent evidence is `convexity` "
    paragraph += "and `closed-form-counts`. The restating checks stay, as `sum-routes-agree`."
    recorded = {"euler-layer", "closed-form-counts", "convexity", "platonic"}
    can_fail = {"closed-form-counts", "convexity", "census-formulas"}
    assert evidence_problems(paragraph, recorded, can_fail) == [
        "names sum-routes-agree, which verify does not record",
        "does not name platonic",
        "calls convexity independent",
        "does not call census-formulas independent",
        "does not call platonic independent",
    ]


def test_the_readme_evidence_map_is_the_checks_verify_records():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [paragraph] = [p for p in readme.split("\n\n") if p.startswith("Not every check is")]
    recorded = set(run_verification([7, 8], layers=3, trials=1)["checks"])
    can_fail = {violation.partition(":")[0] for violation in CHECK_FAULTS.values()}
    assert len(recorded) == 16
    assert evidence_problems(paragraph, recorded, can_fail) == []

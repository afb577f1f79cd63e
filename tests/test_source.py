"""Static checks of the source tree."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = sorted((_ROOT / "src" / "doubled_odd").glob("*.py"))
_MODULES = [
    path
    for directory in (_ROOT / "src" / "doubled_odd", _ROOT / "tests")
    for path in sorted(directory.glob("*.py"))
]


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _unreferenced_definitions() -> list[str]:
    """Top-level, undecorated functions and classes of the package that no
    other top-level statement of the package refers to and that README.md
    does not name in a code span."""
    readme = (_ROOT / "README.md").read_text()
    named = {word for code in re.findall(r"`([^`]*)`", readme) for word in re.findall(r"\w+", code)}
    statements = [
        (path.stem, node, _referenced_names(node))
        for path in _PACKAGE
        for node in ast.parse(path.read_text()).body
    ]
    return [
        f"{module}.{node.name}"
        for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.decorator_list
        and node.name not in named
        and not any(node.name in names for _, other, names in statements if other is not node)
    ]


def test_every_package_definition_is_used_or_documented():
    # code only the tests call belongs in tests/helpers.py
    assert _unreferenced_definitions() == []


def _stdlib_imports(tree: ast.Module, module: str) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(alias.name == module for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == module)
    ]


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda p: p.name)
def test_the_package_does_not_import_dataclasses(path):
    # importing dataclasses loads inspect, ast, dis and tokenize, and every
    # decoration execs generated methods: together about 17 ms of each
    # command's start-up on a 2-vCPU machine, for records that a NamedTuple
    # or a __slots__ class keeps as well
    assert _stdlib_imports(ast.parse(path.read_text()), "dataclasses") == []


def test_the_lint_finds_both_import_forms():
    tree = ast.parse("import os, dataclasses\nfrom dataclasses import dataclass\nimport dataclasses_json\n")
    assert _stdlib_imports(tree, "dataclasses") == [1, 2]


def _modules_added_by_importing(module: str) -> set[str]:
    # the modules a fresh interpreter loads to import module
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"import {module}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    return set(json.loads(out))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    added = _modules_added_by_importing("doubled_odd.cli")
    assert "doubled_odd.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect"})


@pytest.mark.parametrize("module", ["doubled_odd.combinatorics", "doubled_odd.covering"])
def test_covering_and_combinatorics_are_leaves(module):
    # psi-intertwining needs the graph and its fold map only: importing
    # either loads no other package module, nor the rationals
    added = _modules_added_by_importing(module)
    assert {name for name in added if name.partition(".")[0] == "doubled_odd"} <= {
        "doubled_odd", "doubled_odd.combinatorics", module
    }
    assert module in added and "fractions" not in added


def _lines_naming(tree: ast.Module, name: str) -> list[int]:
    # the lines that use name as a variable, an attribute or an imported name
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names))
    })


@pytest.mark.parametrize("path", [p for p in _PACKAGE if p.name != "orbits.py"], ids=lambda p: p.name)
def test_only_orbits_names_the_label_keys(path):
    # the orbit index is read through one lookup, OrbitCoordinates.orbits,
    # so a patch of orbits._label_keys reaches every reader of label keys;
    # a module holding its own binding would not see it
    assert _lines_naming(ast.parse(path.read_text()), "_label_keys") == []


def test_the_label_keys_lint_finds_every_form():
    tree = ast.parse(
        "from .orbits import _label_keys\n"
        "from .orbits import _label_keys as keys\n"
        "orbits._label_keys(m, y, zs)\n"
        "_label_keys(m, y, zs)\n"
        "_label_key(m, lab)\n"
        "index.orbits(y, zs)\n"
    )
    assert _lines_naming(tree, "_label_keys") == [1, 2, 3, 4]


def _calls_of(tree: ast.Module, name: str) -> list[tuple[str, int]]:
    # the (innermost enclosing function, line) of every call of name, as a
    # bare name or an attribute; "" for a call outside every function
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            func = getattr(child, "func", None)
            if isinstance(child, ast.Call) and name in (getattr(func, "id", None), getattr(func, "attr", None)):
                calls.append((scope, child.lineno))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(tree, "")
    return calls


def _imports_of(tree: ast.Module, module: str) -> list[int]:
    # the lines that import the package module, or a name from it, relatively or not
    full = f"doubled_odd.{module}"
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(alias.name == full for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and (
            node.module in (module, full)
            or (node.module in (None, "doubled_odd") and any(alias.name == module for alias in node.names))
        ))
    })


def test_a_run_owns_the_one_orbit_index():
    # the package keeps no memo of the orbit index: build_centralizer alone
    # builds it, a run's CheckContext alone calls that and passes the index
    # to every reader, and the modules orbits is built on or that read no
    # index import nothing from orbits
    trees = {path.name: ast.parse(path.read_text()) for path in _PACKAGE}
    found = {
        "memo": [(name, line) for name, tree in trees.items() for line in _lines_naming(tree, "_orbit_coordinates")],
        "build_centralizer": [(name, fn) for name, tree in trees.items() for fn, _ in _calls_of(tree, "build_centralizer")],
        "OrbitCoordinates": [(name, fn) for name, tree in trees.items() for fn, _ in _calls_of(tree, "OrbitCoordinates")],
        "imports": [(name, line) for name in ("combinatorics.py", "covering.py") for line in _imports_of(trees[name], "orbits")],
    }
    assert found == {
        "memo": [],
        "build_centralizer": [("checks.py", "centralizer")],
        "OrbitCoordinates": [("orbits.py", "build_centralizer")],
        "imports": [],
    }


def test_the_orbit_index_lints_find_every_form():
    tree = ast.parse(
        "from .orbits import build_centralizer\n"
        "from . import orbits\n"
        "import doubled_odd.orbits\n"
        "from doubled_odd.orbits import OrbitCoordinates\n"
        "from .orbitsx import other\n"
        "def build(m):\n"
        "    return OrbitCoordinates(m)\n"
        "orbits.build_centralizer(g)\n"
        "class Context:\n"
        "    def centralizer(self):\n"
        "        return [build_centralizer(self.g) for _ in ()]\n"
    )
    assert _imports_of(tree, "orbits") == [1, 2, 3, 4]
    assert _calls_of(tree, "OrbitCoordinates") == [("build", 7)]
    assert _calls_of(tree, "build_centralizer") == [("", 8), ("centralizer", 11)]


def test_checks_alone_writes_files():
    # the export is the package's one writer: one helper of checks makes
    # the export directory, which run() calls before its first check and
    # export_matrices before its first file, and one writes each matrix
    # file; the CLI only parses arguments and places the report, and
    # linalg is algebra, with no paths
    trees = {path.name: ast.parse(path.read_text()) for path in _PACKAGE}
    found = {
        call: [(name, fn) for name, tree in trees.items() for fn, _ in _calls_of(tree, call)]
        for call in ("mkdir", "write_text", "_make_export_dir")
    }
    assert found == {
        "mkdir": [("checks.py", "_make_export_dir")],
        "write_text": [("checks.py", "write_coord_entries")],
        "_make_export_dir": [("checks.py", "run"), ("checks.py", "export_matrices")],
    }
    assert _stdlib_imports(trees["linalg.py"], "pathlib") == []
    # run() makes the directory before the loop that runs the checks
    (run_def,) = [node for node in trees["checks.py"].body if getattr(node, "name", None) == "run"]
    (make_line,) = [line for _, line in _calls_of(run_def, "_make_export_dir")]
    assert make_line < min(node.lineno for node in ast.walk(run_def) if isinstance(node, ast.For))


def test_the_file_writer_lint_finds_every_form():
    tree = ast.parse(
        "from pathlib import Path\n"
        "import pathlib\n"
        "def make(path):\n"
        "    Path(path).mkdir(parents=True)\n"
        "    os.mkdir(path)\n"
        "def write(path, text):\n"
        "    path.write_text(text)\n"
        "path.write_bytes(b'')\n"
    )
    assert _calls_of(tree, "mkdir") == [("make", 4), ("make", 5)]
    assert _calls_of(tree, "write_text") == [("write", 7)]
    assert _stdlib_imports(tree, "pathlib") == [1, 2]


def _discarded_calls(tree: ast.Module, name: str) -> list[int]:
    # the lines of the statements that call name and keep nothing of it
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) == name
    ]


def test_the_cli_reads_every_run_config_it_builds():
    # each command validates its arguments once, into the RunConfig it reads
    cli = ast.parse((_ROOT / "src" / "doubled_odd" / "cli.py").read_text())
    assert [fn for fn, _ in _calls_of(cli, "RunConfig")] == ["main"] * 3
    assert _discarded_calls(cli, "RunConfig") == []
    control = ast.parse("RunConfig(m=1)\ncfg = RunConfig(m=1)\ncfg.RunConfig(m=1)\n")
    assert _discarded_calls(control, "RunConfig") == [1]


def test_the_inclusion_and_equality_runners_read_t_alone():
    # inclusion and equality compare T with the orbit coordinates of its
    # own scheme, so neither runner reads the run's orbit index
    checks = ast.parse((_ROOT / "src" / "doubled_odd" / "checks.py").read_text())
    runners = [node for node in checks.body if getattr(node, "name", None) in ("_check_inclusion", "_check_equality")]
    assert [_lines_naming(fn, "centralizer") for fn in runners] == [[], []]
    control = ast.parse("def _check_equality(ctx):\n    centralizer = ctx.centralizer\n    return t(ctx.terwilliger)\n")
    assert _lines_naming(control, "centralizer") == [2]


def _benchmark_tracer():
    # perfbench/tracer.py, loaded from its file: it imports only the stdlib
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    # the benchmark's trace mode (perfbench/run.py --trace 1) replaces each
    # (class, method) of METHOD_SPANS on its linalg class and wraps the
    # public functions of TRACED_MODULES: a method or module it names that
    # is gone breaks it, so neither may go while the tracer names it
    tracer = _benchmark_tracer()
    linalg = importlib.import_module("doubled_odd.linalg")
    for cls_name, method in tracer.METHOD_SPANS:
        assert method in vars(getattr(linalg, cls_name)), (cls_name, method)
    for name in tracer.TRACED_MODULES:
        importlib.import_module(f"doubled_odd.{name}")


def _reference_counts(node: ast.AST) -> Counter:
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _uncalled_linalg_definitions(linalg: ast.Module, others: list[ast.Module], wrapped: set[str]) -> list[str]:
    """The module-level functions of linalg, and the public SpanBasis methods
    not in wrapped, that nothing outside their own definition refers to."""
    (span_basis,) = [node for node in linalg.body if isinstance(node, ast.ClassDef) and node.name == "SpanBasis"]
    definitions = [(node.name, node) for node in linalg.body if isinstance(node, ast.FunctionDef)]
    definitions += [
        (f"SpanBasis.{node.name}", node)
        for node in span_basis.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.name not in wrapped
    ]
    everywhere = sum(map(_reference_counts, [linalg, *others]), Counter())
    return [
        qualified
        for qualified, node in definitions
        if everywhere[node.name] == _reference_counts(node)[node.name]
    ]


def test_linalg_holds_only_what_the_package_runs_or_the_benchmark_tracer_wraps():
    # code only the tests call belongs in tests/helpers.py: every function
    # of linalg and every public SpanBasis method has a caller in the
    # package, or is a method the benchmark tracer wraps (METHOD_SPANS).  A
    # caller is a reference by name, outside the definition itself.
    # SparseExactMatrix is exempt until ROADMAP item 1 takes its __matmul__
    # out of METHOD_SPANS, so that the class can move into the tests.
    wrapped = {method for cls_name, method in _benchmark_tracer().METHOD_SPANS if cls_name == "SpanBasis"}
    trees = {path.stem: ast.parse(path.read_text()) for path in _PACKAGE}
    linalg = trees.pop("linalg")
    assert _uncalled_linalg_definitions(linalg, list(trees.values()), wrapped) == []


def test_the_linalg_guard_finds_definitions_only_their_own_bodies_call():
    linalg = ast.parse(
        "def used():\n    pass\n"
        "def alone(k):\n    return alone(k - 1)\n"
        "class SpanBasis:\n"
        "    def wrapped(self): ...\n"
        "    def spare(self):\n        return self.spare()\n"
        "    def _private(self): ...\n"
    )
    caller = ast.parse("used()\n")
    assert _uncalled_linalg_definitions(linalg, [caller], {"wrapped"}) == ["alone", "SpanBasis.spare"]


def test_the_benchmark_names_every_check_in_registry_order():
    # perfbench/run.py keeps its own copy of CHECK_IDS for its per-check
    # metrics, read here from its source without running it: a check added
    # to or dropped from the registry needs the benchmark changed with it
    tree = ast.parse((_ROOT / "perfbench" / "run.py").read_text())
    (copy,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "CHECK_IDS" for t in node.targets)
    ]
    checks = importlib.import_module("doubled_odd.checks")
    assert ast.literal_eval(copy) == checks.CHECK_IDS

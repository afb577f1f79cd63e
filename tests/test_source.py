"""Static checks of the source tree."""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
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

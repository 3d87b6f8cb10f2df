import ast
from pathlib import Path

import pytest

import visemefit


def _unused_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds that the module never reads;
    ``from __future__`` imports are directives, not names."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds a
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_every_imported_name_is_used():
    package = Path(visemefit.__file__).parent
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(package.glob("*.py"))
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


@pytest.mark.parametrize("source, unused", [
    ("from dataclasses import dataclass, field\n@dataclass\nclass A:\n    x: int = 0\n", [(1, "field")]),
    ("import os.path\n", [(1, "os")]),
    ("import numpy as np\nimport math\nx = math.pi\n", [(1, "np")]),
    ("from __future__ import annotations\nimport math\nx = math.pi\n", []),
    ("import os.path\nos.path.join('a')\n", []),
])
def test_unused_import_guard_finds_each_form(source, unused):
    assert _unused_imports(ast.parse(source)) == unused

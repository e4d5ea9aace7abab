"""Every name an import binds in ``src/`` is read somewhere in its module; an
import kept only to re-export a name counts as unused. Uses only the stdlib
``ast`` module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names read inside string annotations such as ``-> "BackendConfig"``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    """The imported names ``source`` never reads, as ``name (line n)``."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used = read | _annotation_names(tree)
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.relative_to(SRC).as_posix() for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_and_accepts_used_imports():
    assert unused_imports("import os\nimport json.decoder\nfrom a import b as c\n") == [
        "c (line 3)", "json (line 2)", "os (line 1)",
    ]
    assert unused_imports(
        "from __future__ import annotations\n"
        "import os.path\nfrom a import B, C\n"
        "def f(x: B) -> 'C':\n    return os.path.join(x)\n"
    ) == []
    assert unused_imports("from a import D\n__all__ = ['D']\n") == ["D (line 1)"]

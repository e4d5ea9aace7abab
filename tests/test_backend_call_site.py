"""``backends.ask_backend`` is the one place in ``src/`` that calls a
backend's ``complete``, so every backend call reads and fills the run's
reply memo. Uses only the stdlib ``ast`` module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def complete_callers(source: str) -> list[str]:
    """The functions in ``source`` that call ``<expr>.complete(...)``, as
    ``name (line n)``; a call outside any function is named ``<module>``."""
    callers = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "complete"):
                callers.append(f"{function} (line {child.lineno})")
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return callers


def test_ask_backend_is_the_only_complete_call_site():
    found = {
        path.relative_to(SRC).as_posix(): callers
        for path in sorted(SRC.rglob("*.py"))
        if (callers := complete_callers(path.read_text(encoding="utf-8")))
    }
    assert {module: [c.split(" ")[0] for c in callers]
            for module, callers in found.items()} == {"evidencesql/backends.py": ["ask_backend"]}


def test_checker_finds_calls_in_nested_functions_and_at_module_level():
    assert complete_callers(
        "backend.complete('s', 'u', 0, 1)\n"
        "def outer():\n"
        "    def inner():\n"
        "        return self.backend.complete(*prompt)\n"
        "    return inner\n"
        "def other():\n"
        "    completed = done.complete\n"
    ) == ["<module> (line 1)", "inner (line 4)"]

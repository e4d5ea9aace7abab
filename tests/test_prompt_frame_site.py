"""``backends.system_prompt`` is the one writer of a prompt's ``Task:`` line,
beside ``_TASK_RE``, which reads it back, so no caller can frame a prompt
the template backend cannot parse. Uses only the stdlib ``ast`` module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def task_line_writers(source: str) -> list[str]:
    """The functions in ``source`` holding a string constant (an f-string's
    literal parts included) in which a line starts with ``Task:``, as
    ``name (line n)``; a string outside any function is named ``<module>``."""
    writers = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Constant) and isinstance(child.value, str)
                    and any(line.startswith("Task:") for line in child.value.splitlines())):
                writers.append(f"{function} (line {child.lineno})")
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return writers


def test_system_prompt_is_the_only_task_line_writer():
    found = {
        path.relative_to(SRC).as_posix(): writers
        for path in sorted(SRC.rglob("*.py"))
        if (writers := task_line_writers(path.read_text(encoding="utf-8")))
    }
    assert {module: [w.split(" ")[0] for w in writers]
            for module, writers in found.items()} == {"evidencesql/backends.py": ["system_prompt"]}


def test_checker_finds_task_lines_in_fstrings_nested_functions_and_at_module_level():
    assert task_line_writers(
        'HEADER = "intro\\nTask: x"\n'
        "def outer():\n"
        "    def inner(task):\n"
        '        return f"Task: {task}"\n'
        "    return inner\n"
        "def other():\n"
        '    pattern = r"^Task:\\s*(\\S+)"\n'
        '    return "a Task: mid-line"\n'
    ) == ["<module> (line 1)", "inner (line 4)"]

"""Every place in ``src/`` that starts threads, pinned: a ``ThreadPoolExecutor``
or a ``threading.Thread`` constructed anywhere else fails this test, so a
run's thread budget can be read from this list. Uses only the stdlib ``ast``
module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_STARTERS = {"ThreadPoolExecutor", "Thread"}


def thread_sites(source: str) -> list[str]:
    """The functions in ``source`` that call ``ThreadPoolExecutor(...)`` or
    ``Thread(...)``, by bare name or as an attribute, as ``name (line n)``;
    a call outside any function is named ``<module>``."""
    sites = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                callee = child.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                if name in THREAD_STARTERS:
                    sites.append(f"{function} (line {child.lineno})")
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return sites


def test_thread_site_is_the_drivers_io_pool():
    found = {
        path.relative_to(SRC).as_posix(): sites
        for path in sorted(SRC.rglob("*.py"))
        if (sites := thread_sites(path.read_text(encoding="utf-8")))
    }
    assert {module: [s.split(" ")[0] for s in sites] for module, sites in found.items()} == {
        "evidencesql/pipeline.py": ["_drive"],
    }


def test_checker_finds_pools_and_threads_in_nested_functions_and_at_module_level():
    assert thread_sites(
        "POOL = ThreadPoolExecutor(2)\n"
        "def outer():\n"
        "    def inner():\n"
        "        with futures.ThreadPoolExecutor(max_workers=4) as pool:\n"
        "            return threading.Thread(target=pool.shutdown)\n"
        "    return inner\n"
        "def other():\n"
        "    return ThreadPoolExecutor, Executor(1), pool.submit(Thread)\n"
    ) == ["<module> (line 1)", "inner (line 4)", "inner (line 5)"]

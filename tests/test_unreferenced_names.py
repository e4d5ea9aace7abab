"""Every top-level function and class in ``src/`` is referenced from
``src/``, ``perfbench/`` or ``README.md``, outside its own body: a name no
caller reaches is dead code, or a public API without a caller. A click
command counts as referenced, since the command line reaches it. Uses only
the stdlib ``ast`` module."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Names with no caller yet, each with the reason it is kept.
ALLOWED = {
    "evidencesql/knowledge.py": {"hypothesis_from_json_dict": "item 5's audit"},
}


def referenced_names(tree: ast.AST) -> Counter:
    """How often each name is read in ``tree``: as a bare name, as an
    attribute, or as an imported name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _is_click_command(node: ast.AST) -> bool:
    """Whether ``node`` carries a ``@<group>.command(...)``, ``@click.command``
    or ``@click.group`` decorator."""
    for decorator in getattr(node, "decorator_list", ()):
        callee = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(callee, ast.Attribute) and callee.attr in ("command", "group"):
            return True
    return False


def unreferenced(modules: dict[str, str], others: list[str], text: str) -> dict[str, list[str]]:
    """The top-level functions and classes of each module in ``modules``
    (path to source) that no module, no source in ``others`` and no word of
    ``text`` references outside the definition's own body."""
    trees = {path: ast.parse(source) for path, source in modules.items()}
    everywhere = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        everywhere += referenced_names(tree)
    words = set(re.findall(r"\w+", text))
    found = {}
    for path, tree in trees.items():
        dead = [node.name for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not _is_click_command(node) and node.name not in words
                and everywhere[node.name] <= referenced_names(node)[node.name]]
        if dead:
            found[path] = dead
    return found


def test_every_top_level_name_in_src_has_a_reference():
    modules = {p.relative_to(SRC).as_posix(): p.read_text(encoding="utf-8")
               for p in sorted(SRC.rglob("*.py"))}
    others = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    found = unreferenced(modules, others, (ROOT / "README.md").read_text(encoding="utf-8"))
    assert found == {path: list(names) for path, names in ALLOWED.items()}


def test_checker_counts_references_outside_a_definitions_own_body():
    module = (
        "import click\n"
        "def recurse(n):\n    return recurse(n - 1)\n"
        "def called():\n    pass\n"
        "class Named:\n    pass\n"
        "def only_in_a_string():\n    pass\n"
        "def in_text():\n    pass\n"
        "@cli.command()\ndef command():\n    pass\n"
        "@click.group()\ndef group():\n    pass\n"
        "def user():\n    called()\n    return 'only_in_a_string'\n"
    )
    assert unreferenced({"m.py": module}, ["x: Named = None\n"], "in_text and user") == {
        "m.py": ["recurse", "only_in_a_string"]}

"""``tools/code_lines.py``, the counter every code-size figure rests on:
docstrings, comments and blank lines are not code; every physical line of
a statement is."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines_tool)


def count(tmp_path, source: str) -> int:
    path = tmp_path / "module.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return code_lines_tool.code_lines(path)


def test_docstrings_of_modules_classes_and_functions_are_not_code(tmp_path):
    assert count(tmp_path, '''\
        """Module docstring,
        over two lines."""
        class C:
            """Class docstring."""
            def f(self):
                """Method docstring,

                with a blank line."""
                return 1
        async def g():
            """Coroutine docstring."""
        ''') == 4


def test_comment_and_blank_lines_are_not_code(tmp_path):
    assert count(tmp_path, """\
        # a comment line

        x = 1  # a trailing comment does not hide the code

            # an indented comment line
        """) == 1


def test_each_physical_line_of_a_statement_counts(tmp_path):
    assert count(tmp_path, """\
        total = (1 +
                 2 +
                 3)
        text = '''one
        two'''
        call(a,
             # a comment line inside the call is not code
             b)
        """) == 7


def test_a_string_that_is_not_first_in_its_body_counts(tmp_path):
    assert count(tmp_path, '''\
        x = 1
        """Not a docstring: the module's body starts with x."""
        def f():
            pass
            """Not a docstring either."""
        ''') == 5


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n', encoding="utf-8")
    code_lines_tool.main(tmp_path)
    assert capsys.readouterr().out.split("\n") == [
        "     1  b.py", "     2  pkg/a.py", "     3  total", ""]

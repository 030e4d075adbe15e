"""tools/code_lines.py: the package code-line count, on a canned source."""
import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""
import math  # a trailing comment leaves the line code

# a comment line


class Box:
    """Class docstring."""

    def area(self, side):
        """Function docstring,
        also over two lines."""
        total = (side
                 * side)
        return math.fsum([total,
                          0.0])


TEXT = """a string that is
no docstring"""
'''


def test_counts_code_token_lines_outside_comments_and_docstrings():
    # import, class, def, the two-line product, the two-line return and the
    # two-line string assignment
    assert code_lines.code_lines(SOURCE) == 9


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text('"""Only a docstring."""\n')
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["9", str(tmp_path / "pkg" / "a.py")], ["0", str(tmp_path / "pkg" / "b.py")],
        ["9", "total"]]

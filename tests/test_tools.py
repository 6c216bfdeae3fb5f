import runpy
from pathlib import Path

code_lines = runpy.run_path(
    str(Path(__file__).parents[1] / "tools" / "code_lines.py"))["code_lines"]


def test_code_lines_skip_comments_docstrings_and_blank_lines(tmp_path):
    """Each line of a multi-line statement or string counts, and a
    docstring's lines do not, nor a comment or a blank line."""
    path = tmp_path / "m.py"
    path.write_text('''"""Module
docstring."""
# a comment

X = (1,   # code, then a comment
     2)


class C:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return """not a
docstring"""
''')
    assert code_lines(path) == 6

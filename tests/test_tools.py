import ast
import runpy
from pathlib import Path

import pytest
from hypothesis import settings

ROOT = Path(__file__).parents[1]
code_lines = runpy.run_path(
    str(ROOT / "tools" / "code_lines.py"))["code_lines"]


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


def unused_imports(source: str) -> list:
    """The names that ``source`` imports and never reads, ``from
    __future__`` aside; ``a.b`` reads the name ``a``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_finds_a_name_never_read():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from . import sim\nfrom .models import a, b as c\n"
              "def f(x: c) -> None:\n    return np.cos(os.path.sep)\n")
    assert unused_imports(source) == ["a", "math", "sim"]


@pytest.mark.parametrize("path", sorted(
    p.name for p in (ROOT / "src" / "cpsrecover").glob("*.py")))
def test_a_module_reads_every_name_it_imports(path):
    source = (ROOT / "src" / "cpsrecover" / path).read_text()
    assert unused_imports(source) == []


def test_tier1_loads_the_derandomized_profile_unless_one_is_given(
        pytestconfig):
    """Without ``--hypothesis-profile`` the suite runs the ``tier1``
    profile, derandomized and without an example database; with it, the
    profile it names."""
    given = pytestconfig.getoption("--hypothesis-profile")
    assert settings.get_current_profile_name() == (given or "tier1")
    if given is None:
        assert settings.default.derandomize
        assert settings.default.database is None

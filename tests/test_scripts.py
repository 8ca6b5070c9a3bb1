"""The measuring scripts under ``scripts/`` on small sources whose answers are known."""
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def scripts(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import code_lines
    import unreached_lines

    return code_lines, unreached_lines


COUNTED = '''"""Module docstring,
over two lines."""
import math  # a trailing comment leaves a code line

# a comment line

LIMIT = (
    3
)
"""The constant's docstring."""
TEXT = """a string that is a value,
not a docstring"""


class Box:
    """Class docstring."""

    def size(self):
        """Function docstring,
        over two lines."""
        return LIMIT
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines(scripts):
    code_lines, _ = scripts
    # import, the three lines of LIMIT, the two of TEXT, class, def, return
    assert code_lines.code_lines(COUNTED) == 9


TRACED = '''def f(x):
    if x:
        return 1
    return 2


class C:
    """Doc."""
    y = 1


class D:
    z = 2


while (
    False
):
    pass
'''


def test_unreached_applies_the_compound_statement_rule(scripts, tmp_path):
    # f is reached through its first statement, C through its first statement after the docstring,
    # and the while through the second line of its header; D and everything under it never ran
    _, unreached_lines = scripts
    path = tmp_path / "module.py"
    path.write_text(TRACED, encoding="utf-8")
    count, missed = unreached_lines.unreached(path, {2, 4, 9, 17})
    assert count == 10
    assert missed == [(3, "return 1"), (12, "class D:"), (13, "z = 2"), (19, "pass")]

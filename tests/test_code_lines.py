"""scripts/code_lines.py counts code lines: non-blank lines outside docstrings and comments."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

MODULE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(a,
      b):
    """A one-line docstring."""

    text = """a string that is
    not a docstring"""
    return (a +
            b)


class C:
    """A class docstring,

    with a blank line."""
    x = "a statement string, not a docstring, is code"  # 1 line
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import; def over 2 lines; the assigned string over 2; return over 2;
    # class; x.
    assert code_lines.code_lines(MODULE) == 1 + 2 + 2 + 2 + 1 + 1


def test_each_library_module_is_counted(capsys):
    assert code_lines.main(ROOT) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(list((ROOT / "src" / "bgains").glob("*.py"))) + 1
    assert out[-1].endswith("total")
    assert int(out[-1].split()[0].replace(",", "")) == sum(int(line.split()[0].replace(",", "")) for line in out[:-1])

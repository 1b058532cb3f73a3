"""The line counter of tools/src_lines.py on a module of known counts."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

MODULE = '''"""Module docstring,
two lines."""

# a comment-only line
X = """not a docstring,
but code"""


def f(a,
      b):  # a comment after code
    """One-line docstring."""
    return a + b
'''


def test_counts_code_docstring_and_comment_lines():
    # raw 12; code: X's two lines, def's two, return; docstrings: 2 + 1;
    # comment-only: one (the comment after code is on a code line)
    assert src_lines.count(MODULE) == (12, 5, 3, 1)

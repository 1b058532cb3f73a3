"""The line counter of tools/src_lines.py on modules and trees of known counts."""

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


def test_code_deltas_between_two_trees(tmp_path, capsys):
    # base: m.py (code 5) and gone.py (code 1); here: m.py with one more code
    # line (6), pkg/new.py (code 2); modules on one side only count 0 there
    base, here = tmp_path / "base", tmp_path / "here"
    base.mkdir()
    (here / "pkg").mkdir(parents=True)
    (base / "m.py").write_text(MODULE)
    (base / "gone.py").write_text("X = 1\n")
    (here / "m.py").write_text(MODULE + "Y = 2\n")
    (here / "pkg" / "new.py").write_text("# comment\nA = 1\nB = 2\n")
    assert src_lines.code_deltas(src_lines.counts(base), src_lines.counts(here)) == [
        ("gone.py", 1, 0, -1, "removed"),
        ("m.py", 5, 6, 1, ""),
        ("pkg/new.py", 0, 2, 2, "added"),
        ("total", 6, 8, 2, ""),
    ]
    src_lines.main(["src_lines.py", str(here), str(base)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "base", "code", "delta"]
    assert [ln.split() for ln in lines[1:]] == [
        ["gone.py", "1", "0", "-1", "removed"],
        ["m.py", "5", "6", "+1"],
        ["pkg/new.py", "0", "2", "+2", "added"],
        ["total", "6", "8", "+2"],
    ]


def test_single_tree_table_is_unchanged(tmp_path, capsys):
    (tmp_path / "m.py").write_text(MODULE)
    src_lines.main(["src_lines.py", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split() for ln in lines] == [
        ["module", "raw", "code", "doc", "comment"],
        ["m.py", "12", "5", "3", "1"],
        ["total", "12", "5", "3", "1"],
    ]

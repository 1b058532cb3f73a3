"""Count the lines of the Python modules under a source directory.

    python tools/src_lines.py [DIR]        # DIR defaults to src/
    python tools/src_lines.py DIR BASE     # e.g. src ../parent/src

Prints, per module and in total, its raw lines and how many of them are
code, docstring and comment-only lines.  A code line holds a token other
than a comment outside any docstring; a docstring line is a line of a
module, class or function docstring; a comment-only line holds a comment
and nothing else.  Blank lines are counted in the raw total only.

Given a second source directory BASE, such as the ``src/`` of the parent
commit unpacked by ``git archive``, it prints instead each module's code
lines in BASE and in DIR, their difference and the total; a module found
on one side only is marked ``added`` (in DIR only) or ``removed`` (in BASE
only).  The script only reads files.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The 1-based line numbers of the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(text):
    """(raw, code, docstring, comment-only) lines of one module's text."""
    docs = docstring_lines(ast.parse(text))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        rows = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in SKIP:
            code.update(row for row in rows if row not in docs)
    return len(text.splitlines()), len(code), len(docs), len(comments - code - docs)


def counts(root):
    """Module path relative to ``root`` -> its ``count``, for every module
    under ``root``."""
    return {str(p.relative_to(root)): count(p.read_text()) for p in sorted(root.rglob("*.py"))}


def code_deltas(base, here):
    """Rows (module, base code, code, difference, mark) over the modules of
    two ``counts``, then the total; a side that lacks the module counts 0
    lines, and its mark is "added" or "removed" ("" when both have it)."""
    rows = []
    for name in sorted(base.keys() | here.keys()):
        old, new = base.get(name, (0, 0))[1], here.get(name, (0, 0))[1]
        mark = "added" if name not in base else "removed" if name not in here else ""
        rows.append((name, old, new, new - old, mark))
    old, new = (sum(row[i] for row in rows) for i in (1, 2))
    return rows + [("total", old, new, new - old, "")]


def main(argv):
    here = counts(Path(argv[1] if len(argv) > 1 else "src"))
    if len(argv) > 2:
        rows = code_deltas(counts(Path(argv[2])), here)
        width = max(len(row[0]) for row in rows)
        print(f"{'module':<{width}}  {'base':>6}  {'code':>6}  {'delta':>6}")
        for name, old, new, delta, mark in rows:
            print(f"{name:<{width}}  {old:>6}  {new:>6}  {delta:>+6}  {mark}".rstrip())
        return
    rows = [(name, *c) for name, c in here.items()]
    rows.append(("total", *(sum(col) for col in zip(*(row[1:] for row in rows)))))
    width = max(len(row[0]) for row in rows)
    print(f"{'module':<{width}}  {'raw':>6}  {'code':>6}  {'doc':>6}  {'comment':>7}")
    for name, raw, code, doc, comment in rows:
        print(f"{name:<{width}}  {raw:>6}  {code:>6}  {doc:>6}  {comment:>7}")


if __name__ == "__main__":
    main(sys.argv)

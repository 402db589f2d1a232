#!/usr/bin/env python3
"""Count the lines of the Python files under one or two source trees.

    python tools/src_lines.py SRC [SRC2]

Prints one row per file and a total row for each tree: all lines, and code
lines, which leave out blank lines, comment-only lines and docstrings. With
two trees, a last row gives the change of both totals from SRC to SRC2.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def count(text):
    """(all lines, code lines) of one Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            code.difference_update(range(body[0].lineno, body[0].end_lineno + 1))
    return len(text.splitlines()), len(code)


def totals(root, show=False):
    """[all lines, code lines] of the Python files under `root`.

    With `show`, also prints one row per file and a total row.
    """
    root = Path(root)
    total = [0, 0]
    for path in sorted(root.rglob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total[0] += lines
        total[1] += code
        if show:
            print(f"{lines:7d} {code:7d}  {path.relative_to(root)}")
    if show:
        print(f"{total[0]:7d} {total[1]:7d}  total {root}")
    return total


def main(roots):
    print(f"{'lines':>7} {'code':>7}  file")
    counts = [totals(root, show=True) for root in roots]
    if len(counts) == 2:
        (a, b), (c, d) = counts
        print(f"{c - a:+7d} {d - b:+7d}  change")
    return 0


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))

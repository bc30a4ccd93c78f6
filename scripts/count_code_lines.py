#!/usr/bin/env python3
"""Count the code lines of the package, per module and in total.

A code line holds at least one token other than a comment, and lies
outside every docstring (module, class and function). Blank lines,
comment-only lines and docstring lines do not count; every line of a
multi-line expression or non-docstring string does.

Usage: python scripts/count_code_lines.py [DIR]

DIR defaults to the package beside this script, `src/opmdeploy`, from any
working directory. A DIR that holds no `.py` file exits 2.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "opmdeploy"


def docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else PACKAGE
    paths = sorted(root.rglob("*.py"))
    if not paths:
        print(f"count_code_lines: no .py file under {root}", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Count the code lines of each module of the singheat package.

A code line is a physical line that holds part of a statement: blank lines,
comment-only lines and the lines of docstrings do not count.  A docstring is
a string literal that is the first statement of a module, class or function.
Every line that a statement spans counts, its continuation lines included
(the inner lines of a multi-line call, or of a string literal that is not a
docstring).  Prints one line per module of src/singheat, in path order, and
their total last.

    python scripts/code_lines.py [PACKAGE_DIR]
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "singheat"

# tokens that hold no code of their own
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every docstring in the module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("package", nargs="?", type=Path, default=_PACKAGE,
                    help="package directory (default: src/singheat)")
    args = ap.parse_args(argv)
    total = 0
    for path in sorted(args.package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

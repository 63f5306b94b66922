#!/usr/bin/env python3
"""Count the lines of code of the natint package.

    python3 tests/count_loc.py [directory]

A line of code holds a token that is neither a comment nor part of a
docstring (the string that opens a module, class or function body).
Blank lines, comment lines and docstring lines do not count; a string or
expression spanning several lines counts each of them.  Prints one line
per module of the directory (src/natint by default), then the total.

The file's name keeps it out of pytest's collection.
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers of every docstring in the parsed module tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """The lines of code of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    directory = argv[0] if argv else os.path.join(ROOT, "src", "natint")
    total = 0
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                lines = count(fh.read())
            total += lines
            print(f"{name:20} {lines:6}")
    print(f"{'total':20} {total:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

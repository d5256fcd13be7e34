"""Count the code lines of the Python modules under a directory.

    python3 tools/loc.py src/cohwit

A code line is a line that holds a Python token other than a comment and is
not part of a module, class or function docstring, so blank lines,
comment-only lines and docstrings are left out.  A token that spans lines,
such as a triple-quoted string that is not a docstring, counts on every line
it spans.  Prints each module's count, then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("root", help="directory whose .py files are counted, recursively")
    args = parser.parse_args(argv)
    if not os.path.isdir(args.root):
        parser.error(f"not a directory: {args.root}")
    counts = {}
    for folder, _, files in sorted(os.walk(args.root)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    module = os.path.relpath(path, args.root)[: -len(".py")].replace(os.sep, ".")
                    counts[module] = code_lines(fh.read())
    width = max(map(len, counts), default=0)
    for module, n in counts.items():
        print(f"{module:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

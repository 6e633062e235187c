"""Count lines of code in Python files: physical lines that hold a token of
code, leaving out docstrings, comments and blank lines.

A line counts when ``tokenize`` finds on it a token other than a comment, a
newline, an indent, a dedent or the end marker, and that token is not part
of a docstring (the first statement of a module, class or function when it
is a string literal, found with ``ast``).  Each line of a statement continued
over several lines counts; so does each line of a string that is not a
docstring.

    python tests/loc.py src/qbagents

prints each module's count and the total, for files or directories (searched
for ``*.py``).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers every docstring in the tree spans."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_source(text: str) -> int:
    """The lines of code in a module's source text."""
    skip = docstring_lines(ast.parse(text))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type in SKIPPED:
            continue
        lines.update(n for n in range(token.start[0], token.end[0] + 1) if n not in skip)
    return len(lines)


def python_files(paths) -> list[Path]:
    files = []
    for path in map(Path, paths):
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return files


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = 0
    for path in python_files(argv):
        n = count_source(path.read_text(encoding="utf8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

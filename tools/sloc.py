"""Count code lines: non-blank, non-comment, non-docstring.

    python tools/sloc.py src/repro/cli.py src/repro

Prints one count per argument (a directory counts every ``*.py`` under
it).  A line counts when it holds a token other than a comment, and is
not part of a module, class or function docstring; the help strings of
a command table count as code.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                first.value, ast.Constant
            ) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main(paths: list[str]) -> None:
    for arg in paths:
        path = Path(arg)
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        print(f"{sum(code_lines(f.read_text()) for f in files):7d} {arg}")


if __name__ == "__main__":
    main(sys.argv[1:])

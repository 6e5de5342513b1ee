"""Count code lines of Python files: no docstrings, comments or blank lines.

A line counts when it holds at least one token other than a comment or a
line break, and lies outside every docstring (the string that opens a
module, class or function body). Lines inside a multi-line string or a
bracketed expression count, since they hold code tokens.

Usage:
    python tools/code_lines.py FILE_OR_DIR [...]

Prints one line per file, "<lines>  <path>", then "<total>  total" when more
than one file was counted. A directory counts its *.py files recursively.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterable, List, Set

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> Set[int]:
    """Line numbers spanned by every module, class and function docstring."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _BODIES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one Python source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _files(paths: Iterable[str]) -> List[Path]:
    found: List[Path] = []
    for name in paths:
        path = Path(name)
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files = _files(argv)
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    if len(files) > 1:
        print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

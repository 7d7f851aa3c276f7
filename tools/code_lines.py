"""Count the lines of code in Python files: lines that hold a token other than layout or a comment.

A line counts when any token on it is something other than a comment,
a line break (NEWLINE or NL), INDENT or DEDENT.  Module, class and
function docstrings do not count, whatever lines they span; any other
string counts on every line it spans.

    python tools/code_lines.py                 # this checkout's src/spectrum_auctions/*.py
    python tools/code_lines.py FILE [FILE ...]  # e.g. another checkout's files

Prints one ``count path`` line per file and then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spectrum_auctions"

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_starts(source: str) -> set[tuple[int, int]]:
    """The (line, column) where each module, class and function docstring begins."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path: str) -> int:
    source = Path(path).read_bytes()
    docstrings = docstring_starts(source.decode("utf-8"))
    lines: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in SKIPPED or tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    paths = argv or sorted(str(p) for p in PACKAGE.glob("*.py"))
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

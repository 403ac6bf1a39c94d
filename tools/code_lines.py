"""Count the code lines of each module under src/schurkron.

A code line holds at least one token that is not a comment and not part of
a bare string statement (a docstring or a string on its own).  Blank lines,
comment lines and docstring lines are not counted.  Beside each module's
code lines the tool prints its raw line count, every line of the file, so
that prose growth shows next to code growth; the last line gives both
totals.

Run from anywhere: ``python tools/code_lines.py``.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schurkron"
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Number of lines of source that carry code."""
    bare = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            if isinstance(node.value.value, str):
                bare.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - bare)


def main() -> None:
    total = raw_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        count, raw = code_lines(source), len(source.splitlines())
        total += count
        raw_total += raw
        print(f"{count:6d}  {raw:6d}  {path.name}")
    print(f"{total:6d}  {raw_total:6d}  total")


if __name__ == "__main__":
    main()

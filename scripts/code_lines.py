#!/usr/bin/env python3
"""Print the code lines of each ``src/silkin/*.py`` file and their total.

A code line is a line that is not blank, not only a comment and not part of
a docstring.  A docstring is any statement that is a bare string: the
documentation of a module, class or function, or of a constant (the string
after its assignment).  Run it in two checkouts and compare the columns:

    python3 scripts/code_lines.py
"""
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "silkin"

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def is_docstring(node: ast.AST) -> bool:
    """Whether ``node`` is a statement that is a bare string."""
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def code_lines(text: str) -> int:
    """The number of code lines of the Python source ``text``."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if is_docstring(node):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

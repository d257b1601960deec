"""Line counts of the modules of src/hsalpha.

    python3 tools/src_lines.py [package directory]

For each module, and in total, prints the number of lines and the number of
code lines: lines that hold a token of code, so neither blank lines, nor
comments, nor the lines of module, class and function docstrings.  Tokens
come from ``tokenize`` and docstrings from ``ast``.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}  # fmt: skip


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> None:
    root = argv[0] if argv else os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "hsalpha")
    total = [0, 0]
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for name in sorted(f for f in os.listdir(root) if f.endswith(".py")):
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            n, c = counts(fh.read())
        total[0] += n
        total[1] += c
        print(f"{name:<16} {n:>6} {c:>6}")
    print(f"{'total':<16} {total[0]:>6} {total[1]:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])

"""Count the code lines of a Python package.

A code line is a line that some node of the module's AST spans, and that
holds neither a docstring, nor only a comment, nor nothing at all.  The
count is per module and in total:

    python3 tools/code_lines.py [DIR]      # default: the checkout's src/sbprop
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    tree = ast.parse(source)
    spanned = set()
    for node in ast.walk(tree):
        if getattr(node, "end_lineno", None) is not None:
            spanned.update(range(node.lineno, node.end_lineno + 1))
    # lines that hold a token other than a comment or a line break
    coded = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            coded.update(range(tok.start[0], tok.end[0] + 1))
    return len((spanned & coded) - _docstring_lines(tree))


def main(argv: list[str]) -> int:
    checkout = Path(__file__).resolve().parents[1]
    root = Path(argv[1]) if len(argv) > 1 else checkout / "src" / "sbprop"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.relative_to(root)} {count}")
    print(f"total {total:,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

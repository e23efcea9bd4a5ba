#!/usr/bin/env python3
"""Lines and code tokens per module of ``src/filtration_lab``, and their total.

    python3 scripts/code_size.py [ROOT]

ROOT (default: this checkout) is the repository whose package is measured.
Code tokens are the tokens ``tokenize`` yields, less comments, docstrings
(a string that is a whole statement) and layout (NEWLINE, NL, INDENT, DEDENT,
ENDMARKER), so reformatting cannot change the count.  Not part of tier-1.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_tokens(source: str) -> int:
    docstrings = {
        (node.lineno, node.col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str)
    }
    return sum(
        1
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type not in LAYOUT and not (tok.type == tokenize.STRING and tok.start in docstrings)
    )


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    rows = []
    for path in sorted((root / "src" / "filtration_lab").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.name, len(source.splitlines()), code_tokens(source)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':24} {'lines':>7} {'tokens':>7}")
    for name, lines, tokens in rows:
        print(f"{name:24} {lines:7d} {tokens:7d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

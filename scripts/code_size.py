#!/usr/bin/env python3
"""Lines and code tokens per module of ``src/filtration_lab``, and their total.

    python3 scripts/code_size.py [ROOT [OTHER]]

ROOT (default: this checkout) is the repository whose package is measured.
With OTHER, another checkout (for instance a ``git archive`` of the parent
commit, unpacked), each row reads "OTHER -> ROOT (change)" for the lines and
for the tokens; a module missing from one tree counts 0 there.
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


def sizes(root: Path) -> dict:
    """{module file name: (lines, code tokens)} for ``root``'s package, then "total"."""
    out = {}
    for path in sorted((root / "src" / "filtration_lab").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        out[path.name] = (len(source.splitlines()), code_tokens(source))
    out["total"] = (sum(r[0] for r in out.values()), sum(r[1] for r in out.values()))
    return out


def main(argv: list[str]) -> int:
    if len(argv) > 3:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    rows = sizes(root)
    if len(argv) < 3:
        print(f"{'module':24} {'lines':>7} {'tokens':>7}")
        for name, (lines, tokens) in rows.items():
            print(f"{name:24} {lines:7d} {tokens:7d}")
        return 0
    other = sizes(Path(argv[2]))
    names = sorted((set(rows) | set(other)) - {"total"}) + ["total"]
    print(f"{'module':24} {'lines OTHER -> ROOT':>25}  {'tokens OTHER -> ROOT':>25}")
    for name in names:
        pairs = zip(other.get(name, (0, 0)), rows.get(name, (0, 0)))
        print(f"{name:24} " + "  ".join(f"{a:6d} -> {b:6d} ({b - a:+6d})" for a, b in pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

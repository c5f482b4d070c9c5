#!/usr/bin/env python3
"""Count the library's code lines: non-blank lines outside docstrings and
comments, found with ``tokenize``.

    python3 scripts/code_lines.py [ROOT]

prints the code lines of each ``src/bgains/*.py`` under ROOT (by default
this repository) and their total.  A docstring is a string that makes up a
statement of its own; every line that a code token spans counts, so a
multi-line statement counts each of its lines.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPACE = {tokenize.NL, tokenize.COMMENT}  # tokens that may stand between a docstring and its neighbours
_LAYOUT = _SPACE | {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token other than a
    comment, layout or a docstring."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type not in _SPACE]
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and (i == 0 or tokens[i - 1].type in _LAYOUT) and tokens[i + 1].type in _LAYOUT:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(root: Path) -> int:
    total = 0
    for path in sorted((root / "src" / "bgains").glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6,}  {path.relative_to(root)}")
    print(f"{total:6,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT))

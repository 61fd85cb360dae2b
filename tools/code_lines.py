"""Count the code lines of each module under src/karycount, and their total.

A code line is a physical line that holds a token other than a comment,
NL, NEWLINE, INDENT or DEDENT, and that is not part of a docstring (a
string that is a whole statement of its own).  Blank lines, comment lines
and docstrings do not count; a statement over several lines counts each.

Usage: python tools/code_lines.py [SRC_DIR]   (default: src/karycount)
"""

from __future__ import annotations

import io
import sys
import token
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, token.INDENT, token.DEDENT}


def code_lines(source: str) -> int:
    """The number of code lines in `source`."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (token.NEWLINE, token.ENDMARKER):
            # a statement that is one string is a docstring
            if not (len(statement) == 1 and statement[0].type == token.STRING):
                for part in statement:
                    lines.update(range(part.start[0], part.end[0] + 1))
            statement = []
        elif tok.type not in _SKIP:
            statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/karycount")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

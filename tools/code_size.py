"""Print the size of every module of ``src/``: lines, code tokens and long lines.

A code token is a ``tokenize`` token other than a comment, a newline, an
indent, a dedent, the encoding or the end marker.  A long line is one of
more than 150 bytes.  Run it from anywhere with ``python tools/code_size.py``;
it needs only the standard library, and a directory given as the first
argument replaces ``src/``.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

LONG_LINE = 150
_SKIPPED = {tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def module_size(path: Path) -> tuple[int, int, int]:
    """``(lines, code tokens, lines over LONG_LINE bytes)`` of one Python file."""
    data = path.read_bytes()
    lines = data.splitlines()
    with open(path, "rb") as fh:
        tokens = sum(tok.type not in _SKIPPED for tok in tokenize.tokenize(fh.readline))
    return len(lines), tokens, sum(len(line) > LONG_LINE for line in lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    total = [0, 0, 0]
    print(f"{'module':<32} {'lines':>6} {'tokens':>7} {'long':>5}")
    for path in sorted(root.rglob("*.py")):
        size = module_size(path)
        total = [a + b for a, b in zip(total, size)]
        print(f"{path.relative_to(root).as_posix():<32} {size[0]:>6} {size[1]:>7} {size[2]:>5}")
    print(f"{'total':<32} {total[0]:>6} {total[1]:>7} {total[2]:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

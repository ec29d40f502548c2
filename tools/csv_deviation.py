"""Print how far the CSVs of one directory deviate from those of another.

For every CSV file found under both directories (matched by relative path)
and every column, it prints the largest relative deviation of the numeric
cells: ``|after - before|`` over the largest finite magnitude the column
holds in either file.  Every other cell that differs, text or non-finite,
is listed on its own line.  Files present on one side only, and files whose
header or row count differs, are listed too.  Run it as
``python tools/csv_deviation.py BEFORE_DIR AFTER_DIR``; it needs only the
standard library, and it exits with 1 when a file is missing or its shape
differs.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def compare(before: list[list[str]], after: list[list[str]]) -> tuple[dict[str, float], list[tuple[int, str, str, str]]]:
    """Per column the largest relative numeric deviation, and every other differing cell as ``(row, column, before, after)``.

    The first row is the header; data rows are numbered from 1.
    """
    deviation: dict[str, float] = {}
    mismatches = []
    for j, name in enumerate(before[0]):
        cells = [(i, row[j], other[j]) for i, (row, other) in enumerate(zip(before[1:], after[1:]), 1)]
        finite = [(i, x, y) for i, x, y in ((i, _number(a), _number(b)) for i, a, b in cells) if _finite(x) and _finite(y)]
        scale = max((max(abs(x), abs(y)) for _, x, y in finite), default=0.0)
        if finite:
            deviation[name] = max(abs(y - x) for _, x, y in finite) / scale if scale else 0.0
        numeric = {i for i, _, _ in finite}
        mismatches += [(i, name, a, b) for i, a, b in cells if i not in numeric and a != b and not _same_number(a, b)]
    return deviation, mismatches


def _finite(x: float | None) -> bool:
    return x is not None and math.isfinite(x)


def _same_number(a: str, b: str) -> bool:
    """True for two spellings of one non-finite value, such as ``inf`` and ``Infinity``."""
    x, y = _number(a), _number(b)
    return x is not None and y is not None and (x == y or (math.isnan(x) and math.isnan(y)))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    roots = [Path(arg) for arg in argv]
    files = [{path.relative_to(root).as_posix() for path in root.rglob("*.csv")} for root in roots]
    status = 0
    for name in sorted(files[0] ^ files[1]):
        print(f"{name}: only in {roots[0] if name in files[0] else roots[1]}")
        status = 1
    print(f"{'file':<40} {'column':<24} {'max rel deviation':>18}")
    for name in sorted(files[0] & files[1]):
        before, after = (_read(root / name) for root in roots)
        if not before or not after or before[0] != after[0] or len(before) != len(after):
            print(f"{name}: header or row count differs")
            status = 1
            continue
        deviation, mismatches = compare(before, after)
        for column, value in deviation.items():
            print(f"{name:<40} {column:<24} {value:>18.3g}")
        for row, column, a, b in mismatches:
            print(f"{name}: row {row}, column {column}: {a!r} -> {b!r}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

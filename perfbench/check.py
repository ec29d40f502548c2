"""Per-call output summaries and their comparison against a reference.

Every benchmark call yields a small table (one row per result).  A call's
summary keeps, for each column, what a later commit must reproduce:

* float columns: the exact sum (``math.fsum``), the minimum and the maximum;
* integer and flag columns: the same three values, compared exactly;
* text columns: the count of each distinct value, compared exactly.

Two float summaries agree when each value lies within ``1e-9`` of the largest
magnitude in that column of the reference call.  A single row perturbed by
more than that moves the column sum and is rejected.

Summary files hold one summary per input-pool index.  Compare two of them,
for example the same seed run on two commits, with::

    python3 perfbench/check.py A.summary.json B.summary.json
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path

FLOAT, INT, TEXT = "f", "i", "s"
RELATIVE_TOLERANCE = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def summarize(schema: list[tuple[str, str]], rows: list[tuple]) -> dict:
    """Summary of one call's output table; ``schema`` lists (column, kind)."""
    columns: dict[str, object] = {}
    for j, (name, kind) in enumerate(schema):
        values = [row[j] for row in rows]
        if kind == TEXT:
            columns[name] = dict(sorted(Counter(values).items()))
        elif not values:
            columns[name] = [0, 0, 0]
        elif kind == FLOAT:
            columns[name] = [math.fsum(values), min(values), max(values)]
        else:
            columns[name] = [sum(values), min(values), max(values)]
    return {"rows": len(rows), "columns": columns}


def _same_float(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def compare(schema: list[tuple[str, str]], reference: dict, got: dict) -> list[str]:
    """Differences between two call summaries; an empty list means they agree."""
    if reference["rows"] != got["rows"]:
        return [f"row count {got['rows']} != reference {reference['rows']}"]
    problems = []
    for name, kind in schema:
        ref, val = reference["columns"][name], got["columns"][name]
        if kind == FLOAT:
            finite = [abs(v) for v in ref[1:] if math.isfinite(v)]
            tol = RELATIVE_TOLERANCE * max(finite, default=0.0)
            for label, a, b in zip(("sum", "min", "max"), ref, val):
                if not _same_float(a, b, tol):
                    problems.append(f"{name}.{label}: {b!r} vs reference {a!r} (tolerance {tol:.3g})")
        elif ref != val:
            problems.append(f"{name}: {val!r} vs reference {ref!r}")
    return problems


def load_summaries(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_summaries(path: Path, workload: str, seed: int, schema: list[tuple[str, str]], calls: dict[int, dict]) -> None:
    """Write one summary per pool index, one line per call so diffs stay readable."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        "{",
        f'"workload": {json.dumps(workload)},',
        f'"seed": {seed},',
        f'"schema": {json.dumps([list(c) for c in schema])},',
        '"calls": {',
        ",\n".join(f"{json.dumps(str(i))}: {json.dumps(calls[i])}" for i in sorted(calls)),
        "}}",
    ]
    path.write_text("\n".join(lines) + "\n")


def compare_files(a: dict, b: dict) -> list[str]:
    """Differences between two summary files, over the pool indices both hold."""
    if a["workload"] != b["workload"]:
        return [f"workloads differ: {a['workload']} vs {b['workload']}"]
    if a["seed"] != b["seed"]:
        return [f"seeds differ: {a['seed']} vs {b['seed']}"]
    schema = [tuple(c) for c in a["schema"]]
    shared = sorted(set(a["calls"]) & set(b["calls"]), key=int)
    if not shared:
        return ["no pool index is present in both files"]
    problems = []
    for key in shared:
        problems += [f"call {key}: {p}" for p in compare(schema, a["calls"][key], b["calls"][key])]
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: check.py A.summary.json B.summary.json", file=sys.stderr)
        return 2
    problems = compare_files(load_summaries(Path(argv[0])), load_summaries(Path(argv[1])))
    for p in problems:
        print(p)
    print("agree" if not problems else f"{len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

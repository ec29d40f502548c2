"""The benchmark's own tests: smoke runs, metric names, and the output check.

Run from the root of the repository with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert metric["value"] >= 0, name


def test_output_check_rejects_a_perturbed_row():
    import workloads

    workload = workloads.FrontierStream(seed=0, pool=1)
    rows, failures = workload.call(0)
    assert failures == 0
    reference = check.load_summaries(check.REFERENCE_DIR / "frontier_stream.json")["calls"]["0"]
    schema = workload.schema
    assert check.compare(schema, reference, check.summarize(schema, rows)) == []

    nmse_col = [name for name, _ in schema].index("nmse")
    nudged = [list(r) for r in rows]
    nudged[1][nmse_col] *= 1 + 1e-12  # well inside the tolerance
    assert check.compare(schema, reference, check.summarize(schema, [tuple(r) for r in nudged])) == []

    perturbed = [list(r) for r in rows]
    perturbed[1][nmse_col] *= 1 + 1e-6
    problems = check.compare(schema, reference, check.summarize(schema, [tuple(r) for r in perturbed]))
    assert problems and all(p.startswith("nmse.") for p in problems)

    flagged = [list(r) for r in rows]
    flagged[0][-1] = 1 - flagged[0][-1]
    assert check.compare(schema, reference, check.summarize(schema, [tuple(r) for r in flagged]))


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert not out.stdout.strip()

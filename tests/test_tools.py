"""The repository's standard-library tools."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


csv_deviation = _load("csv_deviation")


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_deviation_is_relative_to_the_columns_largest_magnitude_and_text_cells_are_listed():
    before = [["method", "x", "y"], ["newton", "1.0", "inf"], ["ils", "-4.0", "nan"]]
    after = [["method", "x", "y"], ["newton", "1.5", "inf"], ["simplified", "-4.0", "nan"]]
    deviation, mismatches = csv_deviation.compare(before, after)
    assert deviation == {"x": pytest.approx(0.5 / 4.0)}
    assert mismatches == [(2, "method", "ils", "simplified")]


def test_main_reports_every_file_and_flags_a_missing_one(tmp_path, capsys):
    _write(tmp_path / "a" / "run" / "grid.csv", "snr,v\n20,1.0\n40,2.0\n")
    _write(tmp_path / "b" / "run" / "grid.csv", "snr,v\n20,1.0\n40,2.0000000001\n")
    _write(tmp_path / "a" / "ber.csv", "n\n1\n")
    assert csv_deviation.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert "ber.csv: only in" in out
    rows = {tuple(line.split()[:2]): float(line.split()[2]) for line in out.splitlines() if line.startswith("run/grid.csv")}
    assert rows[("run/grid.csv", "snr")] == 0.0
    assert rows[("run/grid.csv", "v")] == pytest.approx(5e-11)

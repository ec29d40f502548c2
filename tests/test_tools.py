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


code_size = _load("code_size")
csv_deviation = _load("csv_deviation")
stage_times = _load("stage_times")


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


def test_stage_times_prints_every_stage_of_a_warm_call_and_restores_the_originals(capsys):
    from farrowsync import harness, signals

    originals = (harness.sample_pairs, signals.sample_pairs, signals._tone_sums, harness.write_csv)
    assert stage_times.main(["ber", "trials=1", "--calls", "1", "--seed", "3"]) == 0
    assert (harness.sample_pairs, signals.sample_pairs, signals._tone_sums, harness.write_csv) == originals
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ber trials=1: 1 warm calls")
    rest = 2 + len(stage_times.STAGES)
    calls = {line.split()[0]: float(line.split()[1]) for line in lines[2:rest]}
    assert list(calls) == [name for _, name in stage_times.STAGES] and lines[rest].startswith("rest")
    # One trial: one model, one sampled chunk, one filter call, one estimate per method and one scored block.
    assert calls["make_ofdm"] == calls["sample_pairs"] == calls["compute_subfilter_outputs"] == calls["qam_demod_ber"] == 1
    assert calls["_tone_sums"] == calls["add_awgn"] == calls["estimate_batch"] == 2
    # The warm call misses no cache: the untimed call built every plan, layout, phase vector and weight table.
    assert lines[rest + 1].split() == ["cache", "hits", "misses", "entries", "bytes"]
    caches = {line.split()[0]: line.split()[1:] for line in lines[rest + 2 :]}
    assert list(caches) == [name for _, name in stage_times.CACHES]
    assert all(int(hits) > 0 and misses == "0" and int(entries) > 0 for hits, misses, entries, _ in caches.values())
    assert caches["_cascade_weights"][3] == "-" and int(caches["_czt_plan"][3]) > 0


@pytest.mark.parametrize("argv", [["no_such_campaign"], ["grid", "trials"], ["grid", "--calls", "0"]])
def test_stage_times_rejects_bad_arguments(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        stage_times.main(argv)
    assert exit_info.value.code == 2 and "usage:" in capsys.readouterr().err


def test_code_size_counts_lines_code_tokens_and_long_lines(tmp_path, capsys):
    # A docstring is one code token and a comment none; a line of 150 bytes is not long, one of 156 is.
    lines = ['"""A docstring of several words."""', "", "# " + "c" * 148, "x = 1  # trailing comment", "y = '" + "a" * 150 + "'"]
    _write(tmp_path / "pkg" / "mod.py", "\n".join(lines) + "\n")
    assert code_size.module_size(tmp_path / "pkg" / "mod.py") == (5, 7, 1)
    assert code_size.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "tokens", "long"], ["pkg/mod.py", "5", "7", "1"], ["total", "5", "7", "1"]]

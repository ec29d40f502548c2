"""Campaign harness: seeding, CSV encoding, config parsing, runners, CLI."""

import csv
import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from farrowsync import estimation, harness
from farrowsync.design import ERROR_FRONTIER
from farrowsync.estimation import SingularSystemError
from farrowsync.harness import (
    ConfigError,
    Options,
    _true_params,
    format_field,
    get_bank,
    load_config,
    run_design,
    run_experiment,
    run_measure,
    stable_seed,
    write_csv,
)
from farrowsync.cli import main


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def run(name, raw, seed=42, full=False, out_dir=None):
    return run_experiment(name, Options(raw, name), seed, full, out_dir)


class TestSeeding:
    def test_frozen_values(self):
        # Regression pins: the digest layout must never drift, or every
        # campaign silently resamples.
        assert stable_seed(42, "example1", 0, "model") == 8548220703728196544
        assert stable_seed(42, "example1", 0, "noise") == 16660819611740378831
        assert stable_seed(7, "table3", "multisine", 3, "model") == 11907346431643529677
        assert stable_seed("a", 1, 2.5) == 9120601977152001607

    def test_distinct_cells_get_distinct_seeds(self):
        seeds = {stable_seed(42, "grid", i, j, "noise") for i in range(20) for j in range(20)}
        assert len(seeds) == 400
        assert all(0 <= s < 2**64 for s in seeds)

    def test_part_boundaries_matter(self):
        assert stable_seed("ab", "c") != stable_seed("a", "bc")


class TestCsv:
    def test_format_field_types(self):
        assert format_field(True) == "1"
        assert format_field(False) == "0"
        assert format_field(3) == "3"
        assert format_field("newton") == "newton"
        assert float(format_field(0.1)) == 0.1

    def test_floats_round_trip(self):
        rng = np.random.default_rng(0)
        for value in rng.standard_normal(50):
            assert float(format_field(float(value))) == float(value)

    def test_write_csv_creates_parents_and_formats(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "out.csv"
        write_csv(path, ("a", "b"), [(1.5, True), (2, "x")])
        header, rows = read_rows(path)
        assert header == ["a", "b"]
        assert rows == [["1.5", "1"], ["2", "x"]]


class TestOptions:
    def test_typed_getters(self):
        opts = Options(
            {"n": "12", "snr": "2.5e1", "flag": "yes", "name": " bank.txt ", "snrs": "20, 30 40", "lengths": "64 128"},
            "run",
        )
        assert opts.get_int("n") == 12
        assert opts.get_float("snr") == 25.0
        assert opts.get_bool("flag") is True
        assert opts.get_str("name") == "bank.txt"
        assert opts.get_float_list("snrs", []) == [20.0, 30.0, 40.0]
        assert opts.get_int_list("lengths", []) == [64, 128]
        opts.finish()

    def test_defaults_when_missing(self):
        opts = Options({}, "run")
        assert opts.get_int("n", 7) == 7
        assert opts.get_bool("flag") is False
        assert opts.get_float_list("snrs", [30.0]) == [30.0]
        opts.finish()

    @pytest.mark.parametrize(
        "key,value,getter",
        [
            ("n", "ten", "get_int"),
            ("snr", "loud", "get_float"),
            ("flag", "maybe", "get_bool"),
            ("snrs", "a b", "get_float_list"),
            ("snrs", "", "get_float_list"),
            ("lengths", " , ", "get_int_list"),
            ("signals", "", "get_str_list"),
            ("trials", "0", "run_experiment"),
        ],
    )
    def test_bad_values_name_the_section_and_key(self, key, value, getter):
        opts = Options({key: value}, "grid")
        with pytest.raises(ConfigError, match=rf"\[grid\] {key} must"):
            if getter == "run_experiment":
                run_experiment("grid", opts, 42, False, None)
            elif getter.endswith("list"):
                getattr(opts, getter)(key, [])
            else:
                getattr(opts, getter)(key)

    def test_unconsumed_keys_fail_loudly(self):
        opts = Options({"trials": "5", "tirals": "5"}, "run")
        opts.get_int("trials")
        with pytest.raises(ConfigError, match="unknown keys: tirals"):
            opts.finish()


class TestLoadConfig:
    def test_sections_and_case_preserved(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[run]\nexperiment = single\nN_samples = 256\n\n[design]\ndegree = 3\n")
        sections = load_config(cfg)
        assert sections["run"] == {"experiment": "single", "N_samples": "256"}
        assert sections["design"] == {"degree": "3"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg")

    def test_unparseable_file(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = single\n")  # key before any section
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(cfg)

    def test_percent_signs_are_literal(self, tmp_path):
        cfg = tmp_path / "pct.cfg"
        cfg.write_text("[run]\nnote = 100%\n")
        assert load_config(cfg)["run"]["note"] == "100%"


class TestTrueParams:
    def test_matches_the_effective_minimizer(self):
        p = _true_params(400e-6, -0.2)
        assert p.delta == pytest.approx(400e-6 / 1.0004, rel=1e-15)
        assert p.epsilon == pytest.approx(-0.2 / 1.0004, rel=1e-15)
        assert _true_params(0.0, 0.0) == _true_params(0.0, 0.0)


class TestRunExperiment:
    def test_unknown_name(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown experiment"):
            run("warp", {}, out_dir=tmp_path)

    def test_example1_smoke(self, tmp_path):
        outcome = run("example1", {"trials": "2"}, out_dir=tmp_path)
        assert outcome.failures == 0
        header, rows = read_rows(tmp_path / "example1.csv")
        assert header[:4] == ["trial", "seed", "method", "sfo_only"]
        # 2 trials x 4 variants x 2 iterations
        assert len(rows) == 16
        joint_final = [float(r[5]) for r in rows if r[3] == "0" and r[4] == "2"]
        assert all(300.0 < d < 500.0 for d in joint_final)

    def test_reruns_are_byte_identical_and_seeds_matter(self, tmp_path):
        dirs = [tmp_path / d for d in ("a", "b", "c")]
        run("example1", {"trials": "3"}, seed=7, out_dir=dirs[0])
        run("example1", {"trials": "3"}, seed=7, out_dir=dirs[1])
        run("example1", {"trials": "3"}, seed=8, out_dir=dirs[2])
        blobs = [(d / "example1.csv").read_bytes() for d in dirs]
        assert blobs[0] == blobs[1]
        assert blobs[0] != blobs[2]

    def test_table3_smoke(self, tmp_path):
        run("table3", {"trials": "1", "signals": "multisine", "snrs": "30"}, out_dir=tmp_path)
        header, rows = read_rows(tmp_path / "table3.csv")
        assert len(rows) == 4  # 2 methods x 2 iterations
        assert {r[4] for r in rows} == {"newton", "ils"}

    def test_grid_smoke(self, tmp_path):
        raw = {"trials": "2", "grid_points": "2", "snrs": "40", "n_samples": "512"}
        run("grid", raw, out_dir=tmp_path)
        header, rows = read_rows(tmp_path / "grid.csv")
        assert len(rows) == 8  # 2x2 cells x 2 methods
        for row in rows:
            cell = dict(zip(header, row))
            assert int(cell["trials"]) == 2
            # one iteration from a cold start leaves a visible residual
            assert abs(float(cell["mean_delta_ppm"]) - float(cell["delta_ppm"])) < 100.0

    def test_impaired_smoke(self, tmp_path):
        run("impaired", {"trials": "1"}, out_dir=tmp_path)
        header, rows = read_rows(tmp_path / "impaired.csv")
        labels = {r[2] for r in rows}
        assert labels == {"newton", "ils", "simplified", "true"}
        true_row = next(r for r in rows if r[2] == "true")
        assert float(true_row[6]) < 5e-3  # oracle compensation sits at the noise floor

    def test_ber_smoke(self, tmp_path):
        run("ber", {"trials": "1", "snrs": "30"}, out_dir=tmp_path)
        header, rows = read_rows(tmp_path / "ber.csv")
        assert {r[3] for r in rows} == {"newton", "ils", "true"}
        for row in rows:
            cell = dict(zip(header, row))
            assert int(cell["total_bits"]) > 0
            assert 0 <= int(cell["bit_errors"]) <= int(cell["total_bits"])

    def test_nsweep_smoke(self, tmp_path):
        raw = {"trials": "2", "lengths": "64 128", "snrs": "inf"}
        run("nsweep", raw, out_dir=tmp_path)
        header, rows = read_rows(tmp_path / "nsweep.csv")
        assert len(rows) == 8  # 2 sets x 1 snr x 2 lengths x 2 methods
        assert {r[4] for r in rows} == {"64", "128"}

    def test_a_singular_trial_is_dropped_whole_and_counted_once(self, tmp_path, monkeypatch):
        # grid and ber estimate batches; the other campaigns estimate one trial at a time.
        real_estimate = harness.estimate_from_outputs
        real_batch = harness.estimate_batch

        def singular_ils(u, ref, config):
            if config.method == "ils":
                raise SingularSystemError("forced")
            return real_estimate(u, ref, config)

        def singular_ils_batch(u, ref, config):
            result = real_batch(u, ref, config)
            if config.method == "ils":
                return dataclasses.replace(result, singular=np.ones_like(result.singular))
            return result

        monkeypatch.setattr(harness, "estimate_from_outputs", singular_ils)
        monkeypatch.setattr(harness, "estimate_batch", singular_ils_batch)
        trials_run = {
            "example1": ({"trials": "2"}, 2),
            "table3": ({"trials": "1", "signals": "multisine", "snrs": "30"}, 1),
            "grid": ({"trials": "1", "grid_points": "2", "snrs": "40", "n_samples": "256"}, 4),
            "impaired": ({"trials": "1"}, 1),
            "ber": ({"trials": "1", "snrs": "30"}, 1),
            "approx_sweep": ({"trials": "1"}, len(ERROR_FRONTIER)),
            "nsweep": ({"trials": "1", "lengths": "64 128", "snrs": "inf"}, 4),  # 2 sets x 2 lengths
        }
        for name, (raw, count) in trials_run.items():
            outcome = run(name, raw, out_dir=tmp_path / name)
            assert read_rows(outcome.files[0])[1] == [], name
            assert outcome.failures == count, name

    @pytest.mark.parametrize(
        "name,raw,trials",
        [
            ("grid", {"trials": "2", "grid_points": "2", "snrs": "40", "n_samples": "256"}, 8),
            ("ber", {"trials": "2", "snrs": "30"}, 2),
        ],
        ids=["grid", "ber"],
    )
    def test_the_measured_stream_is_filtered_once_per_trial(self, name, raw, trials, tmp_path, monkeypatch):
        calls = []
        real_filter = harness.compute_subfilter_outputs

        def counting(x1, bank):
            calls.append(len(x1))
            return real_filter(x1, bank)

        monkeypatch.setattr(harness, "compute_subfilter_outputs", counting)
        monkeypatch.setattr(estimation, "compute_subfilter_outputs", counting)
        assert run(name, raw, out_dir=tmp_path).failures == 0
        assert len(calls) == trials

    def test_a_grid_cell_keeps_the_statistics_of_its_good_trials(self, tmp_path, monkeypatch):
        results = {}
        real_batch = harness.estimate_batch

        def flag_the_first_trial(u, ref, config):
            results[config.method] = result = real_batch(u, ref, config)
            singular = np.zeros_like(result.singular)
            singular[0] = True
            return dataclasses.replace(result, singular=singular)

        monkeypatch.setattr(harness, "estimate_batch", flag_the_first_trial)
        outcome = run("grid", {"trials": "4", "grid_points": "1", "snrs": "40", "n_samples": "256"}, out_dir=tmp_path)
        assert outcome.failures == 1
        header, rows = read_rows(outcome.files[0])
        assert [row[3] for row in rows] == ["newton", "ils"]
        for row in rows:
            cell = dict(zip(header, row))
            kept = results[cell["method"]].params
            assert (cell["trials"], cell["failures"]) == ("3", "1")
            for column, values in (("delta_ppm", kept.delta[1:]), ("epsilon_ppm", kept.epsilon[1:])):
                assert float(cell[f"mean_{column}"]) == float(np.mean(values)) * 1e6
                assert float(cell[f"std_{column}"]) == float(np.std(values)) * 1e6

    @pytest.mark.parametrize(
        "name,raw,chunk,trials",
        [
            ("grid", {"trials": "5", "grid_points": "2", "snrs": "40", "n_samples": "256"}, 3, 20),
            ("ber", {"trials": "5", "snrs": "30"}, 2, 5),
        ],
        ids=["grid", "ber"],
    )
    def test_chunks_bound_the_batch_and_leave_the_csv_unchanged(self, name, raw, chunk, trials, tmp_path, monkeypatch):
        # Chunks cross cell boundaries, so a cell's trials may come from two chunks.
        whole = run(name, raw, out_dir=tmp_path / "whole").files[0].read_bytes()
        batches = []
        real_sampler = harness.sample_pairs
        monkeypatch.setattr(harness, "sample_pairs", lambda models, *args, **kw: batches.append(len(models)) or real_sampler(models, *args, **kw))
        monkeypatch.setattr(harness, "TRIAL_CHUNK", chunk)
        assert run(name, raw, out_dir=tmp_path / "chunked").files[0].read_bytes() == whole
        assert max(batches) == chunk
        assert sum(batches) == trials

    def test_nsweep_peak_memory_does_not_grow_with_the_trial_count(self):
        # Each signal is estimated at every length before the next is drawn,
        # so one signal's branch outputs are alive at a time, not every trial's.
        harness.nsweep_rows(1, 42, lengths=(64, 2048), snrs=(30.0,))  # designs and caches the bank
        peaks = []
        for trials in (4, 32):
            tracemalloc.start()
            try:
                harness.nsweep_rows(trials, 42, lengths=(64, 2048), snrs=(30.0,))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_unknown_table3_signal_fails_before_any_trial(self, tmp_path, monkeypatch):
        made = []
        real_multisine = harness.make_multisine
        monkeypatch.setattr(harness, "make_multisine", lambda **kw: made.append(kw) or real_multisine(**kw))
        with pytest.raises(ConfigError, match="unknown signal kind 'bogus'"):
            run("table3", {"trials": "1", "signals": "multisine bogus", "snrs": "30"}, out_dir=tmp_path)
        assert made == []
        with pytest.raises(ConfigError, match="unknown signal kind 'bogus'"):
            run("single", {"signal": "bogus"}, out_dir=tmp_path)

    def test_opcounts_formula_matches_instrumentation(self, tmp_path):
        run("opcounts", {}, out_dir=tmp_path)
        header, rows = read_rows(tmp_path / "opcounts.csv")
        by_key = {}
        for row in rows:
            cell = dict(zip(header, row))
            key = (cell["method"], cell["degree"], cell["n_samples"], cell["iterations"])
            counts = tuple(cell[c] for c in ("fixed_mults", "general_mults", "additions", "divisions"))
            by_key.setdefault(key, {})[cell["source"]] = counts
        # 7 degrees x 2 lengths x 5 method/iteration combos (simplified has one)
        assert len(by_key) == 7 * 2 * 5
        for key, sources in by_key.items():
            assert sources["formula"] == sources["measured"], key

    def test_single_with_signal_dump(self, tmp_path):
        raw = {"dump_signals": "true", "signal": "bandpass", "n_samples": "256", "iterations": "2"}
        outcome = run("single", raw, out_dir=tmp_path)
        assert [p.name for p in outcome.files] == ["single.csv", "signals.csv"]
        header, rows = read_rows(tmp_path / "single.csv")
        assert {r[0] for r in rows} == {"newton", "ils"}
        dump_header, dump = read_rows(tmp_path / "signals.csv")
        assert dump_header == ["n", "x0_re", "x0_im", "x1_re", "x1_im"]
        assert int(dump[0][0]) == -get_bank().group_delay
        assert all(float(r[2]) == 0.0 and float(r[4]) == 0.0 for r in dump)

    def test_single_default_flags_excess_delay(self, tmp_path):
        # 450 ppm over 1024 samples pushes |d| past 0.5 near the window end.
        run("single", {}, out_dir=tmp_path)
        header, rows = read_rows(tmp_path / "single.csv")
        assert any(r[-1] == "1" for r in rows)


#: Small runs at base seed 1234 whose every output file is pinned by sha256:
#: a refactor of the campaign layer must reproduce them byte for byte.
GOLDEN_RUNS = [
    ("example1", {"trials": "3"}),
    ("table3", {"trials": "2"}),
    ("grid", {"trials": "2", "grid_points": "3", "snrs": "20 40"}),
    ("impaired", {"trials": "2"}),
    ("ber", {"trials": "2", "snrs": "20 30"}),
    ("approx_sweep", {"trials": "2"}),
    ("nsweep", {"trials": "2", "lengths": "64 128 256"}),
    ("opcounts", {}),
    ("single", {"dump_signals": "true", "n_samples": "256"}),
    ("single", {"signal": "multisine"}),
]

GOLDEN_SHA256 = {
    "0_example1/example1.csv": "6d9c5d3b3bbf6903482fc26d778891b4809f52d1a42738198cccd7f5777f373d",
    "1_table3/table3.csv": "c929bb14152f1aa03bb8fa3f20b3f06be0c230d4183a15a7bea617926b543205",
    "2_grid/grid.csv": "76531200751a6196d3e5c352f6ad71e91bdda5112de80796ff0a9799bcc83b42",
    "3_impaired/impaired.csv": "a8d02a9521854a749acdf781efeb01b4f09b3b010f1328a11f6bd62ab7079dfe",
    "4_ber/ber.csv": "89b425184a64d9bc761a92abb968309edeb14ddd198061cff0c6879c871bdb57",
    "5_approx_sweep/approx_sweep.csv": "5909d2f5a3eba5a036f068a8c615abeef6a6bdadc647c2d901586cb1a3a2421b",
    "6_nsweep/nsweep.csv": "354de47903e46842a321c6e2d328936ef500b2e592f4973a3a0862f9d84a0b5f",
    "7_opcounts/opcounts.csv": "8f63f195c21dfd794fdc23e59eba00e48cbd23bb196545ce789bcb4d9990d2af",
    "8_single/signals.csv": "9180930086911b544febc7a5cf1ba21d232c2dc77b07a55c5139f114907cac54",
    "8_single/single.csv": "59944f9e84f640dbf97da15c969e70e238cc237edbfdd654bd9366365fafabb9",
    "9_single/single.csv": "fde726f1a7a75159e0627c1aaa443718e19066baa7b44b492edc8f60be52f78a",
    "design/bank_L2_NG8.txt": "264c2aa23375b8542adf9b42342482e9b6368ad5ce1597425463b7eeb0c43a12",
    "design/design_report.csv": "11224d52ef4cacf85e2974292798ed0db675fed5844cd435a493d04b8d9b8ac6",
    "design/measure.csv": "11224d52ef4cacf85e2974292798ed0db675fed5844cd435a493d04b8d9b8ac6",
}

#: Every campaign's config keys with their desk and ``--full`` values.
CAMPAIGN_DEFAULTS = {
    "example1": ({"trials": 100, "snr_db": 30.0}, {"trials": 1000, "snr_db": 30.0}),
    "table3": (
        {"trials": 100, "signals": ["multisine", "bandpass"], "snrs": [20.0, 30.0, 40.0]},
        {"trials": 1000, "signals": ["multisine", "bandpass"], "snrs": [20.0, 30.0, 40.0]},
    ),
    "grid": (
        {"trials": 100, "grid_points": 5, "snrs": [20.0, 40.0], "span_ppm": 500.0, "n_samples": 1000},
        {"trials": 1000, "grid_points": 20, "snrs": [20.0, 30.0, 40.0], "span_ppm": 500.0, "n_samples": 1000},
    ),
    "impaired": ({"trials": 100}, {"trials": 1000}),
    "ber": ({"trials": 120, "snrs": [30.0]}, {"trials": 10000, "snrs": [30.0]}),
    "approx_sweep": ({"trials": 100}, {"trials": 1000}),
    "nsweep": (
        {"trials": 100, "lengths": [64, 128, 256, 512, 1024, 2048], "snrs": [20.0, 30.0, float("inf")]},
        {"trials": 1000, "lengths": [64, 128, 256, 512, 1024, 2048], "snrs": [20.0, 30.0, float("inf")]},
    ),
    "opcounts": ({}, {}),
    "single": (
        {
            "delta_ppm": 450.0,
            "epsilon": 0.05,
            "snr_db": 20.0,
            "n_samples": 1024,
            "signal": "bandpass",
            "iterations": 3,
            "dump_signals": False,
        },
    )
    * 2,
}


class _Resolved(Exception):
    pass


class RecordingOptions(Options):
    """Options that record what each getter returned and stop the run at ``finish``."""

    def __init__(self, section):
        super().__init__({}, section)
        self.values = {}

    def finish(self):
        raise _Resolved()


def _recording_getter(name):
    getter = getattr(Options, name)

    def record(self, key, *args, **kwargs):
        value = getter(self, key, *args, **kwargs)
        self.values[key] = value
        return value

    return record


for _name in ("get_int", "get_float", "get_bool", "get_str", "get_float_list", "get_int_list", "get_str_list"):
    setattr(RecordingOptions, _name, _recording_getter(_name))


class TestGoldenOutputs:
    def test_small_runs_are_byte_identical_to_the_pinned_hashes(self, tmp_path):
        for i, (name, raw) in enumerate(GOLDEN_RUNS):
            outcome = run_experiment(name, Options(raw, name), 1234, False, tmp_path / f"{i}_{name}")
            assert outcome.failures == 0, name
        design = run_design(Options({"degree": "2", "order": "8"}, "design"), tmp_path / "design")
        run_measure(Options({"bank": str(design.files[0])}, "measure"), tmp_path / "design")
        digests = {
            path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.rglob("*"))
            if path.is_file()
        }
        assert digests == GOLDEN_SHA256

    @pytest.mark.parametrize("name", sorted(CAMPAIGN_DEFAULTS))
    def test_accepted_keys_and_resolved_defaults(self, name, tmp_path):
        for full, expected in zip((False, True), CAMPAIGN_DEFAULTS[name]):
            options = RecordingOptions(name)
            with pytest.raises(_Resolved):
                run_experiment(name, options, 0, full, tmp_path)
            typed = {key: (type(value), value) for key, value in options.values.items()}
            assert typed == {key: (type(value), value) for key, value in expected.items()}, (name, full)
        with pytest.raises(ConfigError, match="unknown keys: bogus"):
            run_experiment(name, Options({"bogus": "1"}, name), 0, False, tmp_path)


class TestDesignMeasure:
    def test_design_then_measure_round_trip(self, tmp_path):
        design_out = run_design(Options({"degree": "2", "order": "8", "bank": "b.txt"}, "design"), tmp_path)
        bank_path, report_path = design_out.files
        assert bank_path.name == "b.txt"
        measure_out = run_measure(Options({"bank": str(bank_path)}, "measure"), tmp_path)
        _, design_rows = read_rows(report_path)
        _, measure_rows = read_rows(measure_out.files[0])
        assert design_rows == measure_rows

    def test_design_rejects_bad_spec(self, tmp_path):
        with pytest.raises(ConfigError):
            run_design(Options({"order": "9"}, "design"), tmp_path)

    def test_measure_requires_a_bank(self, tmp_path):
        with pytest.raises(ConfigError, match="requires a bank"):
            run_measure(Options({}, "measure"), tmp_path)
        with pytest.raises(ConfigError, match="cannot load bank"):
            run_measure(Options({"bank": str(tmp_path / "ghost.txt")}, "measure"), tmp_path)


class TestCli:
    def test_opcounts_exits_zero_and_reports_files(self, tmp_path, capsys):
        assert main(["opcounts", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "opcounts.csv" in out

    def test_run_without_experiment_is_a_config_error(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path)]) == 1
        assert "requires an experiment" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 1
        assert "not found" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[run]\nexperiment = single\nn_sample = 128\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_seed_flag_controls_output(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[run]\nexperiment = single\nn_samples = 256\n")
        for sub, seed in (("a", "3"), ("b", "3"), ("c", "4")):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / sub), "--seed", seed]) == 0
        blob = (tmp_path / "a" / "single.csv").read_bytes()
        assert blob == (tmp_path / "b" / "single.csv").read_bytes()
        assert blob != (tmp_path / "c" / "single.csv").read_bytes()

    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit):
            main([])

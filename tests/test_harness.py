"""Campaign harness: seeding, CSV encoding, config parsing, runners, CLI."""

import argparse
import csv
import dataclasses
import hashlib
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from farrowsync import cli, estimation, harness
from farrowsync.design import ERROR_FRONTIER
from farrowsync.harness import (
    ConfigError,
    Options,
    _true_params,
    format_fields,
    get_bank,
    load_config,
    run_design,
    run_experiment,
    run_measure,
    stable_seed,
    write_csv,
)
from farrowsync.cli import main
from farrowsync.estimation import EstimatorConfig, estimate_batch
from farrowsync.farrow import compute_subfilter_outputs
from farrowsync.signals import OfdmSpec, sample_pair


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
        assert format_fields([True, False, 3, "newton"]) == ["1", "0", "3", "newton"]
        assert float(format_fields([0.1])[0]) == 0.1

    def test_format_field_formats_numpy_scalars_as_the_python_kinds_they_subclass(self):
        # np.float64 is a float subclass and keeps 17 significant digits, where str() would give "0.1".
        assert format_fields([np.float64(0.1), 0.1]) == ["0.10000000000000001"] * 2
        assert format_fields([np.int64(-7), np.int64(1), True]) == ["-7", "1", "1"]
        values = [*np.random.default_rng(1).standard_normal(200) * 10.0 ** np.arange(-100, 100), 0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
        expected = [format(float(value), ".17g") for value in values]
        assert format_fields(map(np.float64, values)) == format_fields(map(float, values)) == expected

    def test_floats_round_trip(self):
        values = np.random.default_rng(0).standard_normal(50).tolist()
        assert [float(text) for text in format_fields(values)] == values

    def test_write_csv_creates_parents_and_formats(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "out.csv"
        write_csv(path, ("a", "b"), [(1.5, True), (2, "x")])
        header, rows = read_rows(path)
        assert header == ["a", "b"]
        assert rows == [["1.5", "1"], ["2", "x"]]


class TestOptions:
    def test_values_parse_as_the_type_of_the_default(self):
        opts = Options(
            {"n": "12", "snr": "2.5e1", "flag": "yes", "name": " bank.txt ", "snrs": "20, 30 40", "lengths": "64 128", "signals": "a,b"},
            "run",
        )
        assert opts.get("n", 0) == 12
        assert opts.get("snr", 0.0) == 25.0
        assert opts.get("flag", False) is True
        assert opts.get("name", "x") == "bank.txt"
        assert opts.get("snrs", (30.0,)) == [20.0, 30.0, 40.0]
        assert opts.get("lengths", [1]) == [64, 128]
        assert opts.get("signals", ("x",)) == ["a", "b"]
        opts.finish()

    def test_defaults_when_missing(self):
        opts = Options({}, "run")
        assert opts.get("n", 7) == 7
        assert opts.get("flag", False) is False
        assert opts.get("snrs", (30.0,)) == [30.0]
        opts.finish()

    def test_a_type_as_the_default_reads_none_when_missing(self):
        opts = Options({"n_freq": "64"}, "measure")
        assert opts.get("n_freq", int) == 64
        assert opts.get("bank", str) is None
        with pytest.raises(ConfigError, match=r"\[measure\] n_freq must be an integer, got 'x'"):
            Options({"n_freq": "x"}, "measure").get("n_freq", int)

    @pytest.mark.parametrize(
        "key,value,default,message",
        [
            ("n", "ten", 1, "must be an integer"),
            ("snr", "loud", 1.0, "must be a number"),
            ("flag", "maybe", False, "must be a boolean"),
            ("snrs", "a b", (1.0,), "must be a list of numbers"),
            ("snrs", "", (1.0,), "must not be empty"),
            ("lengths", " , ", (1,), "must not be empty"),
            ("lengths", "1 2.5", (1,), "must be a list of integers"),
            ("signals", "", ("a",), "must not be empty"),
            ("trials", "0", None, "must be at least 1"),
        ],
    )
    def test_bad_values_name_the_section_and_key(self, key, value, default, message):
        opts = Options({key: value}, "grid")
        with pytest.raises(ConfigError, match=rf"\[grid\] {key} {message}"):
            if default is None:
                run_experiment("grid", opts, 42, False, None)
            else:
                opts.get(key, default)

    def test_unconsumed_keys_fail_loudly(self):
        opts = Options({"trials": "5", "tirals": "5"}, "run")
        opts.get("trials", 1)
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
        # Every campaign estimates its trials in batches through estimate_batch.
        real_batch = harness.estimate_batch

        def singular_ils_batch(u, ref, config):
            result = real_batch(u, ref, config)
            if config.method == "ils":
                return dataclasses.replace(result, singular=np.ones_like(result.singular))
            return result

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

    @pytest.mark.parametrize("singular_row", [None, 1], ids=["healthy", "one_singular"])
    def test_a_simplified_estimate_read_from_ils_has_the_bits_of_its_own_run(self, singular_row):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((3, 3, 200))
        ref = u[:, 0] + 0.05 * rng.standard_normal((3, 200))
        if singular_row is not None:
            u[singular_row, 1:] = 0.0  # u_1 identically zero: Q is singular
        simplified = EstimatorConfig(method="simplified")
        (ils, got), ok = harness._estimate_chunk(u, ref, [("ils", EstimatorConfig(method="ils")), ("simplified", simplified)])
        assert got is ils
        want = estimate_batch(u, ref, simplified)
        for g, w in [(got.history[0].delta, want.history[0].delta), (got.history[0].epsilon, want.history[0].epsilon), (got.rhs[0], want.rhs[0])]:
            assert g.tobytes() == w.tobytes()
        assert ok.tolist() == [row != singular_row for row in range(3)] == (~want.singular).tolist()

    def test_impaired_estimates_with_newton_and_ils_only(self, tmp_path, monkeypatch):
        methods = []
        real_batch = harness.estimate_batch

        def recording(u, ref, config):
            methods.append(config.method)
            return real_batch(u, ref, config)

        monkeypatch.setattr(harness, "estimate_batch", recording)
        run("impaired", {"trials": "2"}, out_dir=tmp_path)
        assert methods == ["newton", "ils"]
        _, rows = read_rows(tmp_path / "impaired.csv")
        first = {(r[0], r[2]): r[4:6] for r in rows if r[3] == "1"}
        assert all(first[trial, "simplified"] == first[trial, "ils"] for trial in ("0", "1"))

    @pytest.mark.parametrize(
        "name,raw,filtered",
        [
            ("example1", {"trials": "2"}, 2),
            ("table3", {"trials": "1", "signals": "multisine bandpass", "snrs": "30"}, 2),
            ("grid", {"trials": "2", "grid_points": "2", "snrs": "40", "n_samples": "256"}, 8),
            ("impaired", {"trials": "2"}, 2),
            ("ber", {"trials": "2", "snrs": "30"}, 2),
            ("approx_sweep", {"trials": "1"}, len(ERROR_FRONTIER)),  # once per bank
            ("nsweep", {"trials": "1", "lengths": "64 128", "snrs": "inf"}, 2),  # once per signal, for every length
        ],
        ids=["example1", "table3", "grid", "impaired", "ber", "approx_sweep", "nsweep"],
    )
    def test_the_measured_stream_is_filtered_once_per_trial(self, name, raw, filtered, tmp_path, monkeypatch):
        streams = []
        real_filter = harness.compute_subfilter_outputs

        def counting(x1, bank):
            # One stream per call: a traced run counts the filter's work per call.
            assert np.ndim(x1) == 1
            streams.append(x1)
            return real_filter(x1, bank)

        monkeypatch.setattr(harness, "compute_subfilter_outputs", counting)
        monkeypatch.setattr(estimation, "compute_subfilter_outputs", counting)
        assert run(name, raw, out_dir=tmp_path).failures == 0
        assert len(streams) == filtered

    @pytest.mark.parametrize(
        "name,raw,scored",
        [
            ("example1", {"trials": "2"}, 2),
            ("table3", {"trials": "1", "signals": "multisine bandpass", "snrs": "30"}, 2),
            ("impaired", {"trials": "2"}, 4),  # the full bank and its first-degree truncation
            ("ber", {"trials": "2", "snrs": "30"}, 2),
            ("approx_sweep", {"trials": "3"}, 2 * len(ERROR_FRONTIER)),  # once per chunk of 2 and bank
        ],
        ids=["example1", "table3", "impaired", "ber", "approx_sweep"],
    )
    def test_each_trial_is_compensated_and_scored_in_one_call_per_bank(self, name, raw, scored, tmp_path, monkeypatch):
        calls = {"farrow_output": 0, "nmse": 0}

        def counting(attr):
            real = getattr(harness, attr)

            def call(*args, **kwargs):
                calls[attr] += 1
                return real(*args, **kwargs)

            return call

        for attr in calls:
            monkeypatch.setattr(harness, attr, counting(attr))
        monkeypatch.setattr(harness, "TRIAL_CHUNK", 2)
        assert run(name, raw, out_dir=tmp_path).failures == 0
        assert calls == {"farrow_output": scored, "nmse": scored}

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
            ("example1", {"trials": "5"}, 2, 5),
            ("table3", {"trials": "2", "signals": "multisine bandpass", "snrs": "30"}, 3, 4),
            ("grid", {"trials": "5", "grid_points": "2", "snrs": "40", "n_samples": "256"}, 3, 20),
            ("impaired", {"trials": "3"}, 2, 3),
            ("ber", {"trials": "5", "snrs": "30"}, 2, 5),
            ("approx_sweep", {"trials": "3"}, 2, 3 * len(ERROR_FRONTIER)),
            ("nsweep", {"trials": "3", "lengths": "64 128", "snrs": "inf"}, 2, 6),  # 2 sets x 3 signals
        ],
        ids=["example1", "table3", "grid", "impaired", "ber", "approx_sweep", "nsweep"],
    )
    def test_chunks_bound_the_batch_and_leave_the_csv_unchanged(self, name, raw, chunk, trials, tmp_path, monkeypatch):
        # Chunks cross cell boundaries, so a cell's trials may come from two chunks
        # (and a table3 chunk may hold both signal kinds).
        whole = run(name, raw, out_dir=tmp_path / "whole").files[0].read_bytes()
        batches = []
        real_sampler = harness.sample_pairs
        monkeypatch.setattr(harness, "sample_pairs", lambda models, *args, **kw: batches.append(len(models)) or real_sampler(models, *args, **kw))
        monkeypatch.setattr(harness, "TRIAL_CHUNK", chunk)
        assert run(name, raw, out_dir=tmp_path / "chunked").files[0].read_bytes() == whole
        assert max(batches) == chunk
        assert sum(batches) == trials

    def test_nsweep_peak_memory_does_not_grow_with_the_trial_count(self, monkeypatch):
        # Each chunk of signals is estimated at every length before the next
        # is drawn, so one chunk's branch outputs are alive at a time, not
        # every trial's.  Both runs span whole chunks of 4 signals.
        monkeypatch.setattr(harness, "TRIAL_CHUNK", 4)
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

    def test_a_ber_chunk_scores_its_trials_in_trial_sized_buffers(self):
        # Each kept trial is compensated, demodulated and scored on its own,
        # so beside the chunk's x0, x1 and branch outputs the peak holds one
        # trial's work, not chunk-wide arrays per parameter set.
        harness.ber_rows(1, 42)  # designs and caches the bank
        bank, spec = get_bank(), OfdmSpec(qam_order=64)
        streams = harness.TRIAL_CHUNK * 2 * (spec.n_fft + bank.order)  # x0 and x1
        outputs = harness.TRIAL_CHUNK * (bank.degree + 1) * spec.n_fft
        tracemalloc.start()
        try:
            harness.ber_rows(harness.TRIAL_CHUNK, 42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = (streams + outputs) * np.dtype(np.complex128).itemsize
        assert peak < 1.6 * held, (peak, held)

    @pytest.mark.parametrize("per_cell", [1, 4])
    def test_a_grid_chunk_drops_its_complex_streams_before_estimating(self, per_cell):
        # The desk grid at one trial per cell is one 50-trial chunk, and at
        # four it is three chunks of 64 and one of 8.  The estimators read
        # real parts alone, so the sampler returns real rows and frees the
        # complex x0 and x1, the real x1 is freed before they run, and a
        # chunk's branch outputs are freed before the next chunk is sampled.
        # Peaks: 4.65 and 5.73 MB; 4.97 and 6.81 MB with x1 kept; 8.8 MB at
        # four per cell with the branch outputs kept.
        harness.grid_rows(1, 42)  # designs and caches the bank, builds the plans
        bank, rows, n = get_bank(), min(50 * per_cell, harness.TRIAL_CHUNK), 1000
        streams = rows * 2 * (n + bank.order) * np.dtype(np.complex128).itemsize  # x0 and x1
        outputs = rows * (bank.degree + 1) * n * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            harness.grid_rows(per_cell, 42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.32 * (streams + outputs), (peak, streams + outputs)

    @pytest.mark.parametrize("lead", [0, 11])
    @pytest.mark.parametrize("real", [False, True], ids=["as_sampled", "real_parts"])
    @pytest.mark.parametrize("signal", ["multisine", "ofdm"])
    def test_the_runner_frees_the_streams_before_work_and_the_chunk_before_the_next(self, signal, real, lead, monkeypatch):
        bank, span, sampled, held = get_bank(), 96, [], []
        gd = bank.group_delay
        real_sampler = harness.sample_pairs

        def sampler(*args, **kwargs):
            assert [alive() for alive in held] == [None] * len(held)  # the last chunk's arrays are gone
            x0, x1 = real_sampler(*args, **kwargs)
            sampled[:] = weakref.ref(x0), weakref.ref(x1)
            return x0, x1

        def work(chunk, extras, u, ref):
            x0, x1 = sampled
            assert x1() is None
            assert ref.base is x0()  # the windows are views of x0, real or complex as sampled
            for row, (t,) in enumerate(chunk):  # each row is its trial sampled from -lead and filtered alone
                want_x0, want_x1 = sample_pair(*draw(t)[:2], span + bank.order, start=-lead - gd)
                want_ref = want_x0[gd : gd + span]
                if real:
                    want_ref, want_x1 = want_ref.real, want_x1.real
                want_u = compute_subfilter_outputs(want_x1, bank)
                assert ref[row].dtype == want_ref.dtype and ref[row].tobytes() == want_ref.tobytes(), t
                assert u[row].dtype == want_u.dtype and u[row].tobytes() == want_u.tobytes(), t
            held[:] = weakref.ref(u), weakref.ref(ref), x0
            return chunk, extras

        model = {"multisine": harness.make_multisine, "ofdm": lambda seed: harness.make_ofdm(OfdmSpec(qam_order=16, seed=seed))[0]}[signal]
        draw = lambda t: (model(seed=t), harness.ImpairmentSpec(delta=1e-4 * (t - 1), epsilon=0.1 * t, snr_db=30.0, seed=t), t)
        monkeypatch.setattr(harness, "sample_pairs", sampler)
        monkeypatch.setattr(harness, "TRIAL_CHUNK", 2)
        chunks = harness._run_chunks(((t,) for t in range(3)), draw, bank, span, work, lead, real)
        assert chunks == [([(0,), (1,)], [(0, 1)]), ([(2,)], [(2,)])]
        assert [alive() for alive in held] == [None] * 3

    def test_the_grid_samples_real_components_and_the_per_trial_campaigns_complex_streams(self, monkeypatch):
        asked, sampler = [], harness.sample_pairs
        monkeypatch.setattr(harness, "sample_pairs", lambda *args, **kwargs: asked.append(kwargs.get("real", False)) or sampler(*args, **kwargs))
        harness.grid_rows(1, 42)
        assert asked == [True]
        per_trial = [
            lambda: harness.example1_rows(2, 42),
            lambda: harness.table3_rows(1, 42, signals=("multisine",), snrs=(30.0,)),
            lambda: harness.impaired_rows(2, 42),
            lambda: harness.ber_rows(2, 42),
        ]
        for campaign in per_trial:
            asked.clear()
            campaign()
            assert asked == [False]

    @pytest.mark.parametrize(
        "name,key,value",
        [
            ("grid", "n_samples", "2"),
            ("grid", "grid_points", "0"),
            ("nsweep", "lengths", "2 64"),
            ("single", "n_samples", "2"),
            ("single", "iterations", "0"),
        ],
    )
    def test_bad_values_fail_before_the_first_trial(self, name, key, value, tmp_path, monkeypatch):
        sampled = []
        monkeypatch.setattr(harness, "sample_pairs", lambda *args, **kw: sampled.append(args))
        monkeypatch.setattr(harness, "sample_pair", lambda *args, **kw: sampled.append(args))
        with pytest.raises(ConfigError, match=rf"\[{name}\] {key} must be at least"):
            run(name, {key: value}, out_dir=tmp_path)
        assert sampled == []
        assert list(tmp_path.iterdir()) == []

    def test_a_bad_value_exits_one_and_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[grid]\ngrid_points = 0\n")
        assert main(["grid", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "[grid] grid_points must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_table3_signal_fails_before_any_trial(self, tmp_path, monkeypatch):
        made = []
        real_multisine = harness.make_multisine
        monkeypatch.setattr(harness, "make_multisine", lambda **kw: made.append(kw) or real_multisine(**kw))
        with pytest.raises(ConfigError, match="unknown signal kind 'bogus'"):
            run("table3", {"trials": "1", "signals": "multisine bogus", "snrs": "30"}, out_dir=tmp_path / "out")
        assert made == []
        with pytest.raises(ConfigError, match="unknown signal kind 'bogus'"):
            run("single", {"signal": "bogus"}, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

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
    "0_example1/example1.csv": "217134fcd9d9610107855c44af385057cbf51e4979cc1da65d339001641868c8",
    "1_table3/table3.csv": "efd248581adb431012b361bbd6918cdef9d2555a349761b8048939e382fa5012",
    "2_grid/grid.csv": "81e3d485370e4e704b4db23b77fa6e401411f39fc05658613666d7904889b876",
    "3_impaired/impaired.csv": "ab8e46e3f5327b2a953a569ae2f49ce860d2d0833fea0148ada4aa2fcd446d58",
    "4_ber/ber.csv": "8cd97e969cf379f8139bb9c6a8f1521462cd2e812e29c25b5be6bdf13d2e254a",
    "5_approx_sweep/approx_sweep.csv": "4620f43af65313ea03dde24e1df8767ba799ee62dc3b0fa398c21eb94c1091d9",
    "6_nsweep/nsweep.csv": "85bd902f55b373bcb814871c5935069d32abd399730db78720e966e4b24a2861",
    "7_opcounts/opcounts.csv": "8f63f195c21dfd794fdc23e59eba00e48cbd23bb196545ce789bcb4d9990d2af",
    "8_single/signals.csv": "9d99be811e768247d440e0315241b17028cc5f598e9c8938c40a963bf59cb7ac",
    "8_single/single.csv": "e73dac193fb18930931cfd5962728c9827384c10db14372bc1ee657cc3d636cd",
    "9_single/single.csv": "bb09c790950eb1c61e0ad3961b950e5c6bff617f4c120140a7b68bc20f980f33",
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
    """Options that record what each key read returned and stop the run at ``finish``."""

    def __init__(self, section):
        super().__init__({}, section)
        self.values = {}

    def get(self, key, default):
        self.values[key] = value = super().get(key, default)
        return value

    def finish(self):
        raise _Resolved()


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
        # The flag overrides the config's seed key.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[run]\nexperiment = single\nn_samples = 256\nseed = 3\n")
        for sub, seed in (("a", "3"), ("b", None), ("c", "4")):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / sub)] + (["--seed", seed] if seed else [])) == 0
        blob = (tmp_path / "a" / "single.csv").read_bytes()
        assert blob == (tmp_path / "b" / "single.csv").read_bytes()
        assert blob != (tmp_path / "c" / "single.csv").read_bytes()

    @pytest.mark.parametrize("dump", [False, True])
    def test_a_singular_single_trial_exits_two_with_a_header_only_csv(self, dump, tmp_path, capsys):
        # At -3000 dB the noise swamps the signal and the first update is not finite.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[run]\nexperiment = single\nsnr_db = -3000\n" + ("dump_signals = true\n" if dump else ""))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "warning: 1 cell(s) failed and were skipped" in capsys.readouterr().err
        assert read_rows(out / "single.csv") == (list(harness.SINGLE_HEADER), [])
        assert (out / "signals.csv").exists() == dump

    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_a_shorthand_section_takes_no_experiment_key(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[grid]\nexperiment = ber\n")
        assert main(["grid", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "[grid] unknown keys: experiment" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["n_freq", "n_delay"])
    def test_measure_on_a_one_point_grid_exits_one(self, key, tmp_path, capsys):
        bank = run_design(Options({"degree": "2", "order": "8"}, "design"), tmp_path).files[0]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"[measure]\nbank = {bank}\n{key} = 1\n")
        assert main(["measure", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "error: measurement grid needs at least 2 points per axis" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, message", [("cutoff = 2", "omega_c must be in (0, pi)"), ("cutoff = nan", "omega_c must be in (0, pi)"), ("d_max = -3", "d_max must be in (0, 0.5]")])
    def test_measure_outside_the_design_band_exits_one(self, line, message, tmp_path, capsys):
        bank = run_design(Options({"degree": "2", "order": "8"}, "design"), tmp_path).files[0]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"[measure]\nbank = {bank}\n{line}\n")
        assert main(["measure", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section", ["[grid]\nsnrs = 20 {}", "[run]\nexperiment = single\nsnr_db = {}"], ids=["grid", "single"])
    @pytest.mark.parametrize("snr", ["nan", "-inf", "1e308"])
    def test_a_non_finite_snr_exits_one_before_the_first_trial(self, section, snr, tmp_path, capsys, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial was sampled")

        monkeypatch.setattr(harness, "sample_pairs", no_trials)
        monkeypatch.setattr(harness, "sample_pair", no_trials)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(section.format(snr) + "\n")
        command = "grid" if section.startswith("[grid]") else "run"
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "must be inf or finite within +-3000 dB" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, message",
        [
            ("[run]\nexperiment = single\ndelta_ppm = nan", "delta_ppm = nan is out of range: delta must be finite"),
            ("[run]\nexperiment = single\ndelta_ppm = 1e300", "delta_ppm = 1e+300 is out of range: delta must be finite with |delta| < 1"),
            ("[run]\nexperiment = single\ndelta_ppm = -1e6", "delta_ppm = -1000000.0 is out of range"),
            ("[run]\nexperiment = single\nepsilon = inf", "epsilon = inf is out of range: epsilon must be finite"),
            ("[run]\nexperiment = single\nepsilon = nan", "epsilon = nan is out of range: epsilon must be finite"),
            ("[grid]\nspan_ppm = nan", "span_ppm = nan is out of range"),
            ("[grid]\nspan_ppm = 2e6", "span_ppm = 2000000.0 is out of range"),
        ],
        ids=["single-delta-nan", "single-delta-1e300", "single-delta-minus-1", "single-epsilon-inf", "single-epsilon-nan", "grid-span-nan", "grid-span-2e6"],
    )
    def test_an_offset_that_cannot_run_exits_one_before_the_first_trial(self, section, message, tmp_path, capsys, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial was sampled")

        monkeypatch.setattr(harness, "sample_pairs", no_trials)
        monkeypatch.setattr(harness, "sample_pair", no_trials)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(section + "\n")
        command = "grid" if section.startswith("[grid]") else "run"
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: [{command}] {message}"), err
        assert not (tmp_path / "out").exists()

    def test_design_with_an_empty_bank_name_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[design]\ndegree = 2\norder = 8\nbank =\n")
        assert main(["design", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "error: [design] bank must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("degree, order", [(30, 8), (40, 2)])
    def test_a_rank_deficient_design_exits_one_without_a_bank(self, degree, order, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"[design]\ndegree = {degree}\norder = {order}\n")
        assert main(["design", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "rank deficient" in err[0], err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_an_unwritable_out_exits_one_before_the_first_trial(self, out, tmp_path, capsys, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial was sampled")

        monkeypatch.setattr(harness, "sample_pairs", no_trials)
        (tmp_path / "taken").write_text("a file, not a directory\n")
        assert main(["grid", "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write to {tmp_path / out}: "), err
        assert (tmp_path / "taken").read_text() == "a file, not a directory\n"

    @pytest.mark.parametrize("command", ["measure", "design"])
    def test_an_out_that_is_a_file_exits_one_with_one_error_line(self, command, tmp_path, capsys):
        bank = run_design(Options({"degree": "2", "order": "8"}, "design"), tmp_path).files[0]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"[measure]\nbank = {bank}\n[design]\ndegree = 2\norder = 8\n")
        (tmp_path / "taken").write_text("a file, not a directory\n")
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "taken")]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write to {tmp_path / 'taken'}: "), err
        assert captured.out == ""
        assert (tmp_path / "taken").read_text() == "a file, not a directory\n"

    def test_design_to_a_directory_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[design]\ndegree = 2\norder = 8\nbank = .\n")
        assert main(["design", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert f"error: cannot write bank {tmp_path}" in capsys.readouterr().err

    def test_design_creates_the_bank_directory(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[design]\ndegree = 2\norder = 8\nbank = sub/b.txt\n")
        assert main(["design", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "sub" / "b.txt").is_file()
        assert f"wrote {tmp_path / 'out' / 'sub' / 'b.txt'}" in capsys.readouterr().out

    def test_readme_names_every_subcommand_and_section(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme[readme.index("## Command line") :]
        usage = re.search(r"farrow-sync ([\w|-]+)", section).group(1).split("|")
        listed = re.findall(r"`\[(\w+)\]`", re.search(r"one section per subcommand\s*\(([^)]*)\)", section).group(1))
        parser = cli._build_parser()
        commands = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction)).choices
        assert sorted(usage) == sorted(commands) == sorted(["design", "measure", "run", *cli._SHORTHANDS])
        assert sorted(listed) == sorted(command.replace("-", "_") for command in commands)
        assert set(cli._SHORTHANDS.values()) <= set(harness.CAMPAIGNS)

"""Harmonic signal models, OFDM framing, and impairment generation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import CZT, czt

from farrowsync import qam, signals
from farrowsync.harness import Options, run_experiment
from farrowsync.signals import (
    _ChirpZPlan,
    _czt_plan,
    _ofdm_layouts,
    _next_fast_len,
    HarmonicSignalModel,
    ImpairmentSpec,
    OfdmSpec,
    add_awgn,
    demodulation_plan,
    make_bandpass_noise,
    make_multisine,
    make_ofdm,
    ofdm_demodulate,
    sample_pair,
    sample_pairs,
)


def _toy_model(is_complex=False):
    return HarmonicSignalModel(
        coefficients=np.array([1.0, 2.0, 3.0]) * np.exp(1j * np.array([0.3, -1.1, 2.0])),
        omegas=2.0 * np.pi * np.array([1.0, 2.0, 3.0]) / 16.0,
        is_complex=is_complex,
    )


def chirp_z(model, t0, step, count):
    """One model's tone sums on one affine grid: the chirp-z transform on a uniform grid, the direct sum otherwise."""
    result = signals._tone_sums([model], [t0], [step], count)[0]
    return result if model.is_complex else result.real


def _direct(model, t0, step, count):
    """The direct sum on the grid ``t0 + step*arange(count)``."""
    return model.evaluate(t0 + step * np.arange(count))


def _transform(plan, x):
    """``plan`` applied to ``x`` through a zero-padded buffer of its own."""
    a = np.empty(x.shape[:-1] + (plan.nfft,), dtype=np.complex128)
    a[..., : plan.n] = x
    return plan.transform(a)


class TestHarmonicModel:
    def test_power_convention_matches_time_average(self):
        # Tones on the period-16 grid: the time average over one period is exact.
        t = np.arange(16.0)
        real_model = _toy_model(False)
        complex_model = _toy_model(True)
        # A real model carries half the power of its complex tones, sum(|c|^2)/2.
        assert np.mean(real_model.evaluate(t) ** 2) == pytest.approx(np.sum(np.abs(real_model.coefficients) ** 2) / 2, rel=1e-12)
        assert np.mean(np.abs(complex_model.evaluate(t)) ** 2) == pytest.approx(np.sum(np.abs(complex_model.coefficients) ** 2), rel=1e-12)
        assert np.sum(np.abs(real_model.coefficients) ** 2) / 2 == pytest.approx(7.0)

    @pytest.mark.parametrize("count", [5, 50, 500])
    def test_small_uniform_jobs_take_the_chirp_z_path(self, count):
        # 4.8e-16, 3.7e-14 and 5.2e-12 of the peak for the toy model; 0 for one tone.
        one_tone = HarmonicSignalModel(np.array([2.0 - 1.5j]), np.array([0.3]), is_complex=True)
        for model in (_toy_model(False), _toy_model(True), one_tone):
            assert model.has_uniform_grid
            _czt_plan.cache_clear()
            fast = chirp_z(model, -3.25, 1.0 + 4e-4, count)
            assert _czt_plan.cache_info().misses == 1
            slow = _direct(model, -3.25, 1.0 + 4e-4, count)
            np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-11 * np.max(np.abs(slow)))

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_fast_path_matches_direct(self, is_complex):
        model = make_multisine(seed=5, complex_signal=is_complex)
        slow = _direct(model, -18.0, 1.0003, 400)
        fast = chirp_z(model, -18.0, 1.0003, 400)
        scale = np.max(np.abs(slow))
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-10 * scale)

    @pytest.mark.parametrize("delta, epsilon", [(400e-6, -0.2), (300e-6, 300e-6)], ids=["example1", "table3"])
    @pytest.mark.parametrize("is_complex", [False, True])
    def test_fast_path_matches_direct_on_a_desk_multisine_window(self, delta, epsilon, is_complex):
        # 2.54e-12 of the peak at worst over seeds 0-19, both channels, real and complex.
        for seed in range(4):
            model = make_multisine(seed=seed, complex_signal=is_complex)
            for t0, step in ((-18.0, 1.0), (-18.0 * (1.0 + delta) + epsilon, 1.0 + delta)):
                slow = _direct(model, t0, step, 1060)
                np.testing.assert_allclose(chirp_z(model, t0, step, 1060), slow, rtol=0, atol=1e-11 * np.max(np.abs(slow)))

    @pytest.mark.parametrize("seed", range(4))
    def test_fast_path_matches_direct_on_a_desk_ofdm_window(self, seed):
        # 7.99e-11 to 1.09e-10 of the peak over these 12 cases (seed 2, step 0.9995 the worst).
        model, _ = make_ofdm(OfdmSpec(qam_order=16, seed=seed))
        for step in (1.0, 1.0 - 5e-4, 1.0 + 5e-4):
            slow = _direct(model, -18.0, step, 1036)
            fast = chirp_z(model, -18.0, step, 1036)
            np.testing.assert_allclose(fast, slow, rtol=0, atol=1.25e-10 * np.max(np.abs(slow)))

    def test_automatic_fast_path_keeps_accuracy(self):
        model, _ = make_ofdm(OfdmSpec(seed=9))
        count = 400  # fewer samples than tones
        auto = signals._tone_sums([model], [-1024.0], [1.0 - 3e-4], count)[0]
        direct = _direct(model, -1024.0, 1.0 - 3e-4, count)
        scale = np.max(np.abs(direct))
        np.testing.assert_allclose(auto, direct, rtol=0, atol=1e-9 * scale)

    def test_a_non_uniform_grid_takes_the_direct_sum_at_any_size(self):
        misses = _czt_plan.cache_info().misses
        for is_complex in (False, True):
            model = HarmonicSignalModel(np.ones(3), np.array([0.1, 0.2, 0.5]), is_complex)
            assert not model.has_uniform_grid
            assert chirp_z(model, -2.5, 1.0 + 3e-4, 40).tobytes() == _direct(model, -2.5, 1.0 + 3e-4, 40).tobytes()
        assert _czt_plan.cache_info().misses == misses

    @pytest.mark.parametrize("n_total", [0, -1])
    def test_sampling_needs_a_positive_count(self, n_total):
        with pytest.raises(ValueError, match="n_total"):
            sample_pair(_toy_model(), ImpairmentSpec(), n_total)
        with pytest.raises(ValueError, match="n_total"):
            sample_pairs([_toy_model()] * 2, [ImpairmentSpec()] * 2, n_total)

    def test_construction_guards(self):
        ones = np.ones(2)
        with pytest.raises(ValueError, match="0.9"):
            HarmonicSignalModel(ones, np.array([0.5, 0.95 * np.pi]))
        with pytest.raises(ValueError, match="increasing"):
            HarmonicSignalModel(ones, np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            HarmonicSignalModel(np.array([1.0, np.nan]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="finite"):
            HarmonicSignalModel(np.array([1.0, 1j * np.inf]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="equal length"):
            HarmonicSignalModel(np.ones(3), np.array([0.1, 0.2]))

    @pytest.mark.parametrize(
        "omegas, message",
        [([0.1, np.nan], "finite"), ([-np.inf, 0.2], "finite"), ([0.5, 0.95 * np.pi], "0.9"), ([0.5, 0.5], "increasing"), ([0.3, 0.2, 0.4], "increasing")],
    )
    def test_a_bad_grid_raises_on_every_attempt(self, omegas, message):
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                HarmonicSignalModel(np.ones(len(omegas)), np.array(omegas))

    def test_coefficients_are_checked_for_every_model_on_a_known_grid(self):
        omegas = np.array([0.1, 0.2, 0.3])
        HarmonicSignalModel(np.ones(3), omegas)
        with pytest.raises(ValueError, match="finite"):
            HarmonicSignalModel(np.array([1.0, np.nan, 1.0]), omegas)

    @pytest.mark.parametrize(
        "omegas, uniform",
        [
            ([0.4], True),
            ([0.1, 0.7], True),
            ([0.1, 0.2, 0.5], False),
            (2.0 * np.pi * np.arange(-768, 769) / 2048, True),
            (0.9 * np.pi * np.arange(1, 65) / 64, True),
            (np.pi * np.linspace(0.1, 0.8, 512), True),
            ([0.1, 0.2, 0.3 + 5e-13], True),
            ([0.1, 0.2, 0.3 + 5e-12], False),
        ],
    )
    def test_uniform_grid_test_is_unchanged(self, omegas, uniform):
        omegas = np.asarray(omegas, dtype=np.float64)
        for _ in range(2):
            model = HarmonicSignalModel(np.ones(omegas.size), omegas)
            assert model.has_uniform_grid is uniform
            assert model._grid.w0 == omegas[0] and model._grid.dw == (omegas[1] - omegas[0] if omegas.size > 1 else 0.0)


def _fresh_phases(model, t0, step, count):
    """The phase vectors before and after the transform, built on every call."""
    w0 = float(model.omegas[0])
    dw = float(model.omegas[1] - model.omegas[0])
    return np.exp(1j * dw * t0 * np.arange(model.n_tones)), np.exp(1j * w0 * (t0 + step * np.arange(count)))


def _uncached_fast_path(model, t0, step, count):
    """The fast path with a chirp-z plan and phase vectors built on every call."""
    before, after = _fresh_phases(model, t0, step, count)
    dw = float(model.omegas[1] - model.omegas[0])
    spectrum = czt(model.coefficients * before, m=count, w=np.exp(1j * dw * step), a=1.0 + 0.0j)
    result = spectrum * after
    return result if model.is_complex else result.real


def _assert_fast_path_is_fresh(model, cases):
    """Each case's samples, and the phase vectors the caches give it, carry the bits of ones built afresh."""
    for t0, step, count in cases:
        assert chirp_z(model, t0, step, count).tobytes() == _uncached_fast_path(model, t0, step, count).tobytes()
        before = signals._input_phases(signals._TWO_FLOATS.pack(model._grid.dw, t0), model.n_tones)
        after = signals._output_phases(signals._THREE_FLOATS.pack(model._grid.w0, t0, step), count)
        assert [before.tobytes(), after.tobytes()] == [v.tobytes() for v in _fresh_phases(model, t0, step, count)], (t0, step)


_PHASE_CACHES = (signals._input_phases, signals._output_phases)

# 0.0 and -0.0 are one dict key, but at a negative step the output phases of
# a model whose first tone is negative differ in the sign of a zero.
_SIGNED_ZERO_CASES = [(0.0, 1.0, 300), (-0.0, 1.0, 300), (0.0, -1.0, 300), (-0.0, -1.0, 300)]


def _small_ofdm_model():
    return make_ofdm(OfdmSpec(n_fft=256, active_subcarriers=128, qam_order=16, seed=2))[0]


class TestPlanCache:
    @pytest.mark.parametrize("n, m", [(1537, 1036), (1537, 2084), (512, 1060), (64, 400), (3, 5), (5, 3), (1, 1)])
    def test_plan_is_bit_identical_to_scipy_signal_czt(self, n, m):
        rng = np.random.default_rng(n * m)
        rows = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        # OFDM and multisine tone spacings at the nominal, offset and half sampling rates.
        for dw in (2.0 * np.pi / 2048, 0.9 * np.pi / 64, 0.013):
            for step in (1.0, 1.0 + 1e-4, 1.0 - 3e-4, 0.5):
                w = np.exp(1j * dw * step)
                ours, reference = _ChirpZPlan(n, m, w), CZT(n, m, w, 1.0 + 0.0j)
                for x in (rows[0], rows):
                    got, want = _transform(ours, x), reference(x)
                    assert got.shape == want.shape == x.shape[:-1] + (m,)
                    assert np.array_equal(got, want), (dw, step, x.ndim)
                    assert np.array_equal(np.signbit(got.view(np.float64)), np.signbit(want.view(np.float64)))

    def test_fft_length_is_that_of_scipy(self):
        # Transform sizes n + m - 1 of the desk campaigns and frontier windows, then two beyond 2**15.
        campaign_sizes = [1537 + 1036 - 1, 1537 + 1060 - 1, 1537 + 2084 - 1, 1537 + 2120 - 1, 512 + 2084 - 1]
        frontier_sizes = [512 + 1024 + order - 1 for order in range(12, 63, 2)]
        for n in [*range(1, 2**15 + 1), *campaign_sizes, *frontier_sizes, 2**20 + 511, 3 * 5 * 7 * 11 * 13 * 17]:
            assert _next_fast_len(n) == next_fast_len(n), n

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_cached_fast_path_is_bit_identical_to_a_fresh_plan(self, is_complex):
        model = make_multisine(seed=5, complex_signal=is_complex)
        cases = [(-18.0, 1.0003, 400), (-18.0, 1.0, 400), (3.5, 1.0 - 2e-4, 257), *_SIGNED_ZERO_CASES]
        other = _small_ofdm_model()
        assert _fresh_phases(other, 0.0, -1.0, 300)[1].tobytes() != _fresh_phases(other, -0.0, -1.0, 300)[1].tobytes()
        _assert_fast_path_is_fresh(model, cases)
        _assert_fast_path_is_fresh(other, _SIGNED_ZERO_CASES)
        # Fill the caches with plans and phases of other models, sizes and
        # steps, then check that the original cases still come out bit-identical.
        for k in range(5):
            chirp_z(other, -7.0, 1.0 + k * 1e-4, 300)
            chirp_z(make_bandpass_noise(seed=k), 0.0, 1.0 - k * 1e-4, 400)
        _assert_fast_path_is_fresh(model, cases)
        _assert_fast_path_is_fresh(other, _SIGNED_ZERO_CASES)

    def test_desk_grid_builds_one_plan_per_sampling_rate(self, tmp_path, monkeypatch):
        grid_points = 5  # the desk default
        transforms = []
        real_transform = _ChirpZPlan.transform
        monkeypatch.setattr(_ChirpZPlan, "transform", lambda plan, a: transforms.append((len(a), plan.n)) or real_transform(plan, a))
        _czt_plan.cache_clear()
        run_experiment("grid", Options({"trials": "1", "snrs": "20"}, "grid"), 42, False, tmp_path)
        assert 0 < _czt_plan.cache_info().misses <= 1 + grid_points
        # One stacked transform per plan: x0 of all 25 cells, then x1 per delta.
        assert len(transforms) <= 1 + grid_points
        assert sum(shape[0] for shape in transforms) == 2 * grid_points**2

    def test_desk_grid_fills_the_phase_caches_once(self, tmp_path):
        # 25 offset cells: x1 takes one start time and step per cell, and x0's
        # start time and step are those of the cell with no offset.
        for cache in _PHASE_CACHES:
            cache.cache_clear()
        run_experiment("grid", Options({"trials": "1"}, "grid"), 42, False, tmp_path / "a")
        first = [cache.cache_info() for cache in _PHASE_CACHES]
        assert [(info.misses, info.currsize) for info in first] == [(25, 25), (25, 25)]
        run_experiment("grid", Options({"trials": "1"}, "grid"), 43, False, tmp_path / "b")
        second = [cache.cache_info() for cache in _PHASE_CACHES]
        assert [info.misses for info in second] == [25, 25]
        # Both channels of the 50 trials: 100 rows, and 100 vectors of each kind read.
        assert [info.hits - before.hits for info, before in zip(second, first)] == [100, 100]
        for cache in _PHASE_CACHES:
            assert all(not vector.flags.writeable for vector in cache._values.values())
            with pytest.raises(ValueError):
                next(iter(cache._values.values()))[0] = 0.0

    def test_phase_caches_stay_within_their_share(self, monkeypatch):
        model = make_bandpass_noise(seed=4)
        budget = 64 * 600 * 16  # a thirty-second holds two 9600-byte output phases (600 samples) or two 8192-byte input phases (512 tones)
        monkeypatch.setattr(signals, "_CZT_PLAN_CACHE_BYTES", budget)
        for cache in _PHASE_CACHES:
            cache.cache_clear()
        for k in range(80):
            chirp_z(model, k * 0.25, 1.0, 600)
            assert [cache.cache_info().nbytes <= budget / 32 for cache in _PHASE_CACHES] == [True, True]
        assert [cache.cache_info()[:3] for cache in _PHASE_CACHES] == [(0, 80, 2), (0, 80, 2)]

    def test_coefficients_are_read_only(self):
        coeffs = make_multisine(seed=3).coefficients
        assert coeffs.dtype == np.complex128
        assert not coeffs.flags.writeable
        with pytest.raises(ValueError):
            coeffs[0] = 0.0

    def test_cache_stays_bounded(self, monkeypatch):
        model = make_bandpass_noise(seed=4)
        _czt_plan.cache_clear()
        chirp_z(model, 0.0, 1.0, 600)
        plan_bytes = _czt_plan.cache_info().nbytes
        monkeypatch.setattr(signals, "_CZT_PLAN_CACHE_BYTES", 3 * plan_bytes)
        for k in range(1, 81):
            chirp_z(model, 0.0, 1.0 + k * 1e-6, 600)
            info = _czt_plan.cache_info()
            assert info.nbytes <= 3 * plan_bytes and info.currsize <= 3
        assert (info.hits, info.misses) == (0, 81)

    def test_eviction_keeps_results_bit_identical(self, monkeypatch):
        model = make_multisine(seed=5, complex_signal=True)
        cases = [(-18.0, 1.0003, 400), (-18.0, 1.0, 400), (3.5, 1.0 - 2e-4, 257)]
        # Below one entry's size: each new plan or phase vector evicts the one before and stays alone.
        monkeypatch.setattr(signals, "_CZT_PLAN_CACHE_BYTES", 1)
        for cache in (_czt_plan, *_PHASE_CACHES):
            cache.cache_clear()
        for _ in range(2):
            for t0, step, count in cases:
                assert np.array_equal(chirp_z(model, t0, step, count), _uncached_fast_path(model, t0, step, count))
                assert _czt_plan.cache_info().currsize == 1
                assert [cache.cache_info().currsize for cache in _PHASE_CACHES] == [1, 1]
        assert _czt_plan.cache_info().hits == 0
        # The first two cases share their start time, so only the second finds its input phases.
        assert [cache.cache_info().hits for cache in _PHASE_CACHES] == [2, 0]
        _assert_fast_path_is_fresh(model, _SIGNED_ZERO_CASES)
        _assert_fast_path_is_fresh(_small_ofdm_model(), _SIGNED_ZERO_CASES)

    def test_stacked_rows_match_one_row_transforms(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 1537)) + 1j * rng.standard_normal((5, 1537))
        plan = _ChirpZPlan(1537, 1036, np.exp(1j * 2.0 * np.pi / 2048 * (1.0 + 3e-4)))
        stacked = _transform(plan, x)
        for row in range(5):
            one = _transform(plan, x[row])
            assert np.array_equal(one, stacked[row])
            assert np.array_equal(np.signbit(one.view(np.float64)), np.signbit(stacked[row].view(np.float64)))

    @staticmethod
    def _grid_chunk():
        # One desk grid chunk: 5x5 offsets at two SNRs, one trial each.
        offsets = np.linspace(-500e-6, 500e-6, 5)
        models = [make_ofdm(OfdmSpec(qam_order=16, seed=k))[0] for k in range(50)]
        impairments = [
            ImpairmentSpec(delta=float(offsets[k // 5 % 5]), epsilon=float(offsets[k % 5]), snr_db=20.0 if k < 25 else 40.0, seed=k) for k in range(50)
        ]
        return models, impairments

    def test_ofdm_models_run_no_grid_check_after_their_layouts_first(self, monkeypatch):
        checks = []
        check = signals._check_grid
        monkeypatch.setattr(signals, "_check_grid", lambda omegas: checks.append(omegas.size) or check(omegas))
        _ofdm_layouts.cache_clear()
        models = [make_ofdm(OfdmSpec(qam_order=16, seed=k))[0] for k in range(50)]
        assert checks == [1537]
        assert all(model._grid is models[0]._grid for model in models)
        assert models[0]._grid == check(models[0].omegas)
        # Other models check their grid as they are built.
        make_multisine(seed=1)
        assert checks == [1537, 64]

    def test_sampling_a_warm_grid_chunk_holds_little_beyond_its_output(self):
        # Each row's input is written into the head of the one zero-padded
        # buffer: a (rows, tones) coefficient stack beside x0, x1 and that
        # buffer (1.2 MB here) would not fit under this bound.
        models, impairments = self._grid_chunk()
        peak, (x0, x1) = self._warm_peak(sample_pairs, models, impairments, 1036, -18)
        padded = len(models) * _next_fast_len(models[0].n_tones + 1036 - 1) * np.dtype(np.complex128).itemsize
        assert peak < x0.nbytes + x1.nbytes + padded, (peak, x0.nbytes + x1.nbytes + padded)

    @staticmethod
    def _warm_peak(call, *args):
        """Traced peak bytes of a warm ``call(*args)``, and what it returns."""
        call(*args)
        tracemalloc.start()
        try:
            out = call(*args)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    @classmethod
    def _warm_tone_sums_peak(cls, models, t0, step, count):
        """Traced peak bytes of a warm ``_tone_sums`` call on one grid, and its output's bytes."""
        peak, out = cls._warm_peak(signals._tone_sums, models, [t0] * len(models), [step] * len(models), count)
        return peak, out.nbytes

    def test_plan_groups_of_two_padded_lengths_share_one_buffer(self):
        # 8 multisine rows and 8 bandpass rows take the chirp-z path at two
        # padded lengths.  The mixed call holds what the bandpass rows' call
        # alone holds (their output, the buffer and the transform's own
        # temporaries) plus the multisine rows' output: no second buffer.
        models = [make_multisine(seed=k) for k in range(8)] + [make_bandpass_noise(seed=k) for k in range(8)]
        step, count = 1.0 + 1e-4, 5000
        lengths = [_czt_plan(m.n_tones, count, np.exp(1j * m._grid.dw * step)).nfft for m in (models[0], models[8])]
        assert lengths[0] < lengths[1]
        peak, out_bytes = self._warm_tone_sums_peak(models, -18.0, step, count)
        alone, alone_bytes = self._warm_tone_sums_peak(models[8:], -18.0, step, count)
        bound = alone + out_bytes - alone_bytes + 16 * 1024  # 16 KiB for the call's lists and dicts
        assert peak < bound, (peak, bound)
        # The smaller group's padded rows, which a buffer per length would add.
        assert 8 * lengths[0] * np.dtype(np.complex128).itemsize > 16 * 1024

    def test_real_models_drop_x0s_complex_tone_sums_before_x1s_are_formed(self):
        # 2.4 MiB traced; with x0's complex sums held while x1's are formed it was 3.7 MiB.
        models = [make_multisine(seed=k) for k in range(8)] + [make_bandpass_noise(seed=k) for k in range(8)]
        impairments = [ImpairmentSpec(delta=1e-4 * (k % 3), epsilon=0.01 * k, snr_db=30.0, seed=k) for k in range(16)]
        peak, _ = self._warm_peak(sample_pairs, models, impairments, 5000, -18)
        assert peak < 3.0 * 2**20, peak

    def test_transform_zeroes_the_padding_of_a_used_buffer(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 300)) + 1j * rng.standard_normal((3, 300))
        plan = _ChirpZPlan(300, 450, np.exp(1j * 0.9 * np.pi / 300 * (1.0 - 2e-4)))
        buffer = np.full((4, plan.nfft), np.nan + 1j * np.nan)
        buffer[:3, : plan.n] = x
        got = plan.transform(buffer[:3])
        assert np.shares_memory(got, buffer)
        assert np.array_equal(got, _transform(plan, x))


class TestGenerators:
    def test_multisine_grid_and_determinism(self):
        a = make_multisine(seed=11)
        b = make_multisine(seed=11)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        assert a.n_tones == 64
        np.testing.assert_allclose(a.omegas, 0.9 * np.pi * np.arange(1, 65) / 64)
        assert not np.array_equal(a.coefficients, make_multisine(seed=12).coefficients)

    def test_multisine_rejects_excess_bandwidth(self):
        with pytest.raises(ValueError):
            make_multisine(bandwidth=0.95)

    def test_bandpass_band_and_power(self):
        model = make_bandpass_noise(seed=2)
        assert model.n_tones == 512
        assert model.omegas[0] == pytest.approx(0.1 * np.pi)
        assert model.omegas[-1] == pytest.approx(0.8 * np.pi)
        assert np.sum(np.abs(model.coefficients) ** 2) / 2 == pytest.approx(256.0)
        with pytest.raises(ValueError):
            make_bandpass_noise(band=(0.1, 0.95))

    def test_ofdm_model_keeps_the_qam_symbols_bitwise(self):
        model, payload = make_ofdm(OfdmSpec(qam_order=16, seed=2))
        dc = payload.bins.size // 2
        np.testing.assert_array_equal(np.delete(model.coefficients, dc), payload.symbols)
        assert model.coefficients[dc] == 0.0

    @pytest.mark.parametrize("qam_order", [16, 64])
    def test_ofdm_payload_levels_are_those_decided_from_its_symbols(self, qam_order):
        payload = make_ofdm(OfdmSpec(qam_order=qam_order, seed=qam_order))[1]
        assert np.unique(payload.symbols).size == qam_order  # every label is drawn
        decided = qam._decide(payload.symbols, int(np.sqrt(qam_order)))
        assert payload.levels.dtype == decided.dtype and np.array_equal(payload.levels, decided)

    def test_ofdm_models_share_one_read_only_layout(self):
        (a, pa), (b, pb) = make_ofdm(OfdmSpec(qam_order=16, seed=2)), make_ofdm(OfdmSpec(qam_order=64, seed=3))
        assert a.omegas is b.omegas and pa.bins is pb.bins
        for array in (pa.bins, a.omegas):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_ofdm_spec_guards(self):
        with pytest.raises(ValueError):
            OfdmSpec(qam_order=32)
        with pytest.raises(ValueError):
            OfdmSpec(active_subcarriers=2048)
        with pytest.raises(ValueError):
            OfdmSpec(n_fft=1024, active_subcarriers=1000)  # > 0.9 bandwidth

    def test_ofdm_demodulation_roundtrip(self):
        spec = OfdmSpec(n_fft=256, active_subcarriers=128, qam_order=16, seed=3)
        model, payload = make_ofdm(spec)
        for start in (0, -64):
            samples = model.evaluate(np.arange(start, start + 256, dtype=float))
            rx = ofdm_demodulate(samples, demodulation_plan(spec, start))
            np.testing.assert_allclose(rx, payload.symbols, rtol=0, atol=1e-9)

    def test_ofdm_demodulate_needs_one_period(self):
        spec = OfdmSpec(n_fft=256, active_subcarriers=128, qam_order=16)
        with pytest.raises(ValueError):
            ofdm_demodulate(np.zeros(255, complex), demodulation_plan(spec, 0.0))

    @pytest.mark.parametrize(
        "spec", [OfdmSpec(qam_order=64, seed=5), OfdmSpec(n_fft=1000, active_subcarriers=800, qam_order=16, seed=6)], ids=["n_fft-2048", "n_fft-1000"]
    )
    def test_ofdm_demodulate_equals_the_division_form_byte_for_byte(self, spec):
        model, payload = make_ofdm(spec)
        m, start = spec.n_fft, -(spec.n_fft // 4)
        rng = np.random.default_rng(spec.n_fft)
        clean = model.evaluate(np.arange(start, start + m, dtype=float))
        samples = clean + 0.05 * (rng.standard_normal((2, 3, m)) + 1j * rng.standard_normal((2, 3, m)))
        # The division form: divide the whole spectrum by n_fft, then take the bins and rotate.
        spectrum = np.fft.fft(samples)
        spectrum /= m
        expected = spectrum[..., np.mod(payload.bins, m)]
        expected *= np.exp(-2j * np.pi * payload.bins * start / m)
        plan = demodulation_plan(spec, start)
        assert ofdm_demodulate(samples, plan).tobytes() == expected.tobytes()
        assert ofdm_demodulate(samples[1, 2], plan).tobytes() == expected[1, 2].tobytes()


class TestImpairments:
    def test_sample_pair_is_the_exact_resampling_oracle(self):
        model = _toy_model()
        imp = ImpairmentSpec(delta=3e-4, epsilon=-0.2)
        x0, x1 = sample_pair(model, imp, 40, start=-18)
        j = np.arange(40.0)
        np.testing.assert_allclose(x0, model.evaluate(-18.0 + j), rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            x1, model.evaluate((-18.0 + j) * (1.0 + 3e-4) - 0.2), rtol=0, atol=1e-13
        )

    def test_sample_pair_determinism(self):
        model = make_multisine(seed=1)
        imp = ImpairmentSpec(delta=1e-4, epsilon=0.05, snr_db=20.0, seed=77)
        a0, a1 = sample_pair(model, imp, 100)
        b0, b1 = sample_pair(model, imp, 100)
        np.testing.assert_array_equal(a0, b0)
        np.testing.assert_array_equal(a1, b1)

    def test_awgn_snr_level_and_complex_split(self):
        rng = np.random.default_rng(0)
        x = np.ones(200_000)
        noisy = add_awgn(x, 10.0, rng)
        measured = 10.0 * np.log10(1.0 / np.mean((noisy - x) ** 2))
        assert abs(measured - 10.0) < 0.5

        z = np.full(200_000, 1.0 + 0.0j)
        noisy_z = add_awgn(z, 10.0, np.random.default_rng(1))
        noise = noisy_z - z
        assert np.mean(noise.real**2) == pytest.approx(np.mean(noise.imag**2), rel=0.05)
        assert 10.0 * np.log10(1.0 / np.mean(np.abs(noise) ** 2)) == pytest.approx(10.0, abs=0.5)

    def test_noise_streams_differ_between_channels(self):
        model = _toy_model()
        imp = ImpairmentSpec(snr_db=30.0, seed=5)
        x0, x1 = sample_pair(model, imp, 64)
        clean = model.evaluate(np.arange(64.0))
        assert not np.allclose(x0 - clean, x1 - clean)

    def test_carrier_impairments_hit_both_chains_at_their_instants(self):
        model = _toy_model(True)
        clean0, clean1 = sample_pair(model, ImpairmentSpec(delta=1e-4, epsilon=0.3), 32, start=-4)
        imp = ImpairmentSpec(delta=1e-4, epsilon=0.3, cfo_fraction=0.05, phase_offset=0.7, n_fft=2048)
        x0, x1 = sample_pair(model, imp, 32, start=-4)
        n = np.arange(32.0) - 4.0
        omega = 2 * np.pi * 0.05 / 2048
        scale = np.max(np.abs(clean1))
        np.testing.assert_allclose(x0, clean0 * np.exp(1j * (omega * n + 0.7)), rtol=0, atol=1e-12 * scale)
        t1 = n * (1 + 1e-4) + 0.3
        np.testing.assert_allclose(x1, clean1 * np.exp(1j * (omega * t1 + 0.7)), rtol=0, atol=1e-12 * scale)

    def test_carrier_impairments_need_complex_model(self):
        with pytest.raises(ValueError, match="complex"):
            sample_pair(_toy_model(False), ImpairmentSpec(phase_offset=0.5), 16)

    def test_cfo_requires_fft_size(self):
        with pytest.raises(ValueError, match="n_fft"):
            ImpairmentSpec(cfo_fraction=0.05)

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf, 1e308, -1e308, 3000.5])
    def test_snr_outside_the_accepted_range_is_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            ImpairmentSpec(snr_db=snr_db)

    @pytest.mark.parametrize("offsets", [{"delta": np.nan}, {"delta": np.inf}, {"delta": 1.0}, {"delta": -1.0}, {"delta": 1e294}, {"epsilon": np.nan}, {"epsilon": -np.inf}])
    def test_offsets_that_cannot_run_are_rejected(self, offsets):
        with pytest.raises(ValueError, match=next(iter(offsets))):
            ImpairmentSpec(**offsets)

    def test_awgn_in_place_equals_a_new_array(self):
        for x in (np.linspace(-1.0, 1.0, 64), np.exp(1j * np.linspace(0.0, 3.0, 64))):
            fresh = add_awgn(x, 10.0, np.random.default_rng(4))
            y = x.copy()
            assert add_awgn(y, 10.0, np.random.default_rng(4), out=y) is y
            assert np.array_equal(fresh, y) and not np.array_equal(fresh, x)
            # A real one holding the real part takes the real part's noise alone.
            real, rng = np.ascontiguousarray(x.real), np.random.default_rng(4)
            add_awgn(x, 10.0, rng, out=real)
            assert real.tobytes() == np.ascontiguousarray(fresh.real).tobytes()
            assert rng.standard_normal() == np.random.default_rng(4).standard_normal(64 + 1)[-1]

    def test_infinite_snr_is_noiseless(self):
        model = _toy_model(True)
        clean = sample_pair(model, ImpairmentSpec(delta=1e-4), 32)
        noiseless = sample_pair(model, ImpairmentSpec(delta=1e-4, snr_db=np.inf, seed=5), 32)
        assert all(np.array_equal(a, b) for a, b in zip(clean, noiseless))
        for snr_db in (-3000.0, 3000.0):
            assert all(np.all(np.isfinite(x)) for x in sample_pair(model, ImpairmentSpec(snr_db=snr_db, seed=5), 32))


def _non_uniform_model(seed, is_complex=False):
    """Forty unit tones at sorted random frequencies: a grid that takes the direct sum."""
    rng = np.random.default_rng(seed)
    return HarmonicSignalModel(np.exp(2j * np.pi * rng.random(40)), np.sort(rng.uniform(-2.5, 2.5, 40)), is_complex)


_REAL_MODELS = st.one_of(
    st.builds(make_multisine, n_tones=st.sampled_from([16, 64, 300]), seed=st.integers(0, 99)),
    st.builds(make_bandpass_noise, n_lines=st.sampled_from([64, 200, 512]), seed=st.integers(0, 99)),
    st.builds(_non_uniform_model, seed=st.integers(0, 99)),
)
_COMPLEX_MODELS = st.one_of(
    st.builds(
        lambda layout, seed: make_ofdm(OfdmSpec(n_fft=layout[0], active_subcarriers=layout[1], qam_order=16, seed=seed))[0],
        st.sampled_from([(256, 128), (512, 384), (2048, 1536)]),
        st.integers(0, 99),
    ),
    st.builds(make_multisine, n_tones=st.sampled_from([16, 300]), seed=st.integers(0, 99), complex_signal=st.just(True)),
    st.builds(_non_uniform_model, seed=st.integers(0, 99), is_complex=st.just(True)),
)


def _impairments_of(complex_signal):
    # Few distinct deltas, so rows share plans; a carrier offset only on complex rows.
    carrier = st.fixed_dictionaries({"cfo_fraction": st.sampled_from([0.0, 0.05, -0.2]), "phase_offset": st.sampled_from([0.0, 0.7])})
    return st.builds(
        lambda delta, epsilon, snr_db, seed, extra: ImpairmentSpec(delta=delta, epsilon=epsilon, snr_db=snr_db, seed=seed, n_fft=2048, **extra),
        st.sampled_from([0.0, 1e-4, -2e-4, 3e-4]),
        st.floats(-0.5, 0.5),
        st.sampled_from([None, 20.0, 35.0]),
        st.integers(0, 99),
        carrier if complex_signal else st.just({}),
    )


class TestTrialAxis:
    """A batch of trials equals one-trial calls, row for row and bit for bit."""

    @staticmethod
    def _models(is_complex):
        # Uniform grids of two or three sizes (two of OFDM, complex only, or
        # multisine and bandpass noise) and a non-uniform one, so several
        # chirp-z plans and the direct path mix.
        if is_complex:
            small = [make_ofdm(OfdmSpec(n_fft=256, active_subcarriers=128, qam_order=16, seed=k))[0] for k in range(3)]
            large = [make_ofdm(OfdmSpec(qam_order=16, seed=k))[0] for k in range(2)]
            return small + large + [make_multisine(seed=9, complex_signal=True), _non_uniform_model(1, is_complex=True)]
        return [make_multisine(seed=k) for k in range(3)] + [make_bandpass_noise(seed=k) for k in range(3)] + [_non_uniform_model(1)]

    @staticmethod
    def _impairments(is_complex):
        carrier = {"cfo_fraction": 0.05, "phase_offset": 0.7, "n_fft": 2048} if is_complex else {}
        offsets = [(3e-4, -0.2), (3e-4, 0.1), (-2e-4, 0.0), (3e-4, -0.2), (0.0, 0.0), (-2e-4, 0.05), (1e-4, 0.3)]
        return [
            ImpairmentSpec(delta=d, epsilon=e, snr_db=None if k == 4 else 20.0 + k, seed=k, **(carrier if k % 2 else {}))
            for k, (d, e) in enumerate(offsets)
        ]

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_batched_sampler_equals_per_trial_calls(self, is_complex):
        models, impairments = self._models(is_complex), self._impairments(is_complex)
        x0, x1 = sample_pairs(models, impairments, 700, start=-18)
        assert x0.shape == x1.shape == (len(models), 700)
        assert np.iscomplexobj(x0) == is_complex
        for row, (model, imp) in enumerate(zip(models, impairments)):
            a0, a1 = sample_pair(model, imp, 700, start=-18)
            assert np.array_equal(x0[row], a0) and np.array_equal(x1[row], a1), row

    def test_rows_sharing_a_plan_share_one_transform(self, monkeypatch):
        transforms = []
        real_transform = _ChirpZPlan.transform
        monkeypatch.setattr(_ChirpZPlan, "transform", lambda plan, a: transforms.append((len(a), plan.n)) or real_transform(plan, a))
        models = [make_ofdm(OfdmSpec(qam_order=16, seed=k))[0] for k in range(6)]
        impairments = [ImpairmentSpec(delta=d, epsilon=0.1 * k) for k, d in enumerate([1e-4, 1e-4, -1e-4, 1e-4, -1e-4, 0.0])]
        sample_pairs(models, impairments, 600)
        # x0: one plan for all six rows; x1: one plan per distinct delta.
        assert sorted(transforms) == sorted([(6, 1537), (3, 1537), (2, 1537), (1, 1537)])

    @settings(max_examples=20)
    @given(
        trials=st.one_of(
            st.lists(st.tuples(_REAL_MODELS, _impairments_of(complex_signal=False)), min_size=2, max_size=5),
            st.lists(st.tuples(_COMPLEX_MODELS, _impairments_of(complex_signal=True)), min_size=2, max_size=5),
        ),
        n_total=st.integers(3, 2100),
        start=st.integers(-40, 40),
    )
    def test_mixed_batches_equal_per_trial_calls(self, trials, n_total, start):
        # Uniform grids of 16 to 1537 tones over 3 to 2100 samples put chirp-z
        # rows of several padded lengths into one call, beside direct rows of
        # non-uniform grids.
        models, impairments = zip(*trials)
        x0, x1 = sample_pairs(models, impairments, n_total, start=start)
        for row, (model, imp) in enumerate(trials):
            for batched, alone in zip((x0[row], x1[row]), sample_pair(model, imp, n_total, start=start)):
                batched, alone = batched.view(np.float64), alone.view(np.float64)
                assert np.array_equal(batched, alone) and np.array_equal(np.signbit(batched), np.signbit(alone)), row

    @staticmethod
    def _bits(a):
        return np.ascontiguousarray(a).tobytes()

    def test_real_sampling_gives_the_real_part_of_every_row_of_the_complex_call(self):
        models = [make_ofdm(OfdmSpec(n_fft=256, active_subcarriers=128, qam_order=16, seed=k))[0] for k in range(3)]
        models += [make_ofdm(OfdmSpec(qam_order=64, seed=k))[0] for k in range(3)] + [make_multisine(seed=9, complex_signal=True)]
        carrier = {"cfo_fraction": 0.05, "n_fft": 2048}
        extras = [{}, carrier, {"phase_offset": 0.7}, {**carrier, "phase_offset": -2.1}, {}, {}, carrier]
        snrs = [None, np.inf, 5.0, 40.0, 5.0, None, 40.0]
        impairments = [
            ImpairmentSpec(delta=d, epsilon=e, snr_db=snr, seed=k, **extra)
            for k, (d, e, snr, extra) in enumerate(zip([3e-4, 3e-4, -2e-4, 0.0, 1e-4, -2e-4, 3e-4], [-0.2, 0.1, 0.0, 0.3, 0.05, 0.0, -0.2], snrs, extras))
        ]
        x0, x1 = sample_pairs(models, impairments, 700, start=-18)
        r0, r1 = sample_pairs(models, impairments, 700, start=-18, real=True)
        for got in (r0, r1):
            assert got.dtype == np.float64 and got.shape == (len(models), 700) and got.flags.c_contiguous
        for row in range(len(models)):
            assert self._bits(r0[row]) == self._bits(x0[row].real) and self._bits(r1[row]) == self._bits(x1[row].real), row
        # A one-row batch, noisy and noiseless.
        for model, imp in zip(models[3:5], impairments[3:5]):
            a0, a1 = sample_pair(model, imp, 700, start=-18)
            b0, b1 = sample_pairs([model], [imp], 700, start=-18, real=True)
            assert self._bits(b0[0]) == self._bits(a0.real) and self._bits(b1[0]) == self._bits(a1.real)

    def test_real_sampling_of_real_models_is_the_real_call(self):
        models = [make_multisine(seed=k) for k in range(2)] + [make_bandpass_noise(seed=k) for k in range(2)]
        impairments = [ImpairmentSpec(delta=1e-4 * k, epsilon=0.1, snr_db=snr, seed=k) for k, snr in enumerate([None, np.inf, 5.0, 40.0])]
        for got, want in zip(sample_pairs(models, impairments, 300, real=True), sample_pairs(models, impairments, 300)):
            assert got.dtype == want.dtype == np.float64 and self._bits(got) == self._bits(want)

    def test_batch_guards(self):
        real, cplx = make_multisine(seed=1), make_multisine(seed=1, complex_signal=True)
        with pytest.raises(ValueError, match="all real or all complex"):
            sample_pairs([real, cplx], [ImpairmentSpec()] * 2, 64)
        with pytest.raises(ValueError, match="one impairment per model"):
            sample_pairs([real, real], [ImpairmentSpec()], 64)
        with pytest.raises(ValueError, match="complex model"):
            sample_pairs([real], [ImpairmentSpec(phase_offset=0.5)], 64)

    def test_batched_demodulation_equals_per_waveform_calls(self):
        spec = OfdmSpec(n_fft=256, active_subcarriers=128, qam_order=16, seed=3)
        model, plan = make_ofdm(spec)[0], demodulation_plan(spec, -64)
        waveforms = np.stack([model.evaluate(np.arange(-64.0, 192.0) * (1 + k * 1e-4)) for k in range(5)]).reshape(5, 1, 256)
        rx = ofdm_demodulate(waveforms, plan)
        assert rx.shape == (5, 1, 128)
        for k in range(5):
            assert np.array_equal(rx[k, 0], ofdm_demodulate(waveforms[k, 0], plan))

    def test_demodulation_leaves_its_input_unchanged(self):
        # The scaling and rotation run in place on the call's own arrays, never on the samples.
        spec = OfdmSpec(n_fft=256, active_subcarriers=128, qam_order=16, seed=4)
        model, plan = make_ofdm(spec)[0], demodulation_plan(spec, -64)
        waveforms = np.stack([model.evaluate(np.arange(-64.0, 192.0) * (1 + k * 1e-4)) for k in range(3)])
        kept = waveforms.copy()
        rx = ofdm_demodulate(waveforms, plan)
        assert np.array_equal(waveforms, kept)
        for k in range(3):
            assert np.array_equal(rx[k], ofdm_demodulate(waveforms[k], plan))
        assert np.array_equal(waveforms, kept)

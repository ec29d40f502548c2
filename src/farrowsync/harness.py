"""Seeded Monte-Carlo experiment campaigns and their CSV outputs.

Every random draw in a campaign is keyed by a stable 64-bit hash of the base
seed plus the cell coordinates (experiment name, sweep indices, trial index,
stream label), so runs are reproducible sample-for-sample regardless of
execution order, and rerunning any experiment with the same base seed yields
byte-identical CSV files.

A campaign is a ``*_rows`` function whose keyword-only parameters are its
config keys, desk-scale values as defaults; :data:`CAMPAIGNS` adds the rest.
A trial whose update system is singular is dropped whole and counted once.
A trial filters its measured stream once: every estimator and the scoring
take those branch outputs, or a slice of them.  ``grid`` and ``ber`` run
their trials, across cells, as batches of at most :data:`TRIAL_CHUNK`
through :func:`sample_pairs` and :func:`estimate_batch`; the batch size
changes no output byte.

Signal generation places the time origin in the middle of the filter run-up:
arrays start at sample index ``-N_G/2`` so that window sample ``n`` of the
estimator corresponds to absolute index ``n``, which keeps the effective
minimizer at ``delta/(1+delta), epsilon/(1+delta)`` (offsets of well below a
ppm for the ranges used here) instead of folding the bulk filter delay into
the time-offset estimate.

Float CSV fields use 17 significant digits, enough to round-trip float64.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .design import DesignSpec, ERROR_FRONTIER, design_bank, measure_error
from .estimation import BatchEstimate, EstimatorConfig, OffsetParams, SingularSystemError, count_operations, estimate, estimate_batch, estimate_from_outputs, trace_rows
from .farrow import CoefficientBank, SubfilterOutputs, compute_subfilter_outputs, farrow_output, load_bank, save_bank
from .metrics import nmse, qam_demod_ber
from .signals import HarmonicSignalModel, ImpairmentSpec, OfdmSpec, make_bandpass_noise, make_multisine, make_ofdm, ofdm_demodulate, sample_pair, sample_pairs

DEFAULT_SEED = 42

#: Most trials that ``grid`` and ``ber`` generate, filter and estimate at once.
#: The desk grid's 50 cells of one trial fit in one chunk, and the cap bounds
#: the memory of a ``--full`` cell of 1000 trials to one chunk of arrays.
TRIAL_CHUNK = 64

#: Canonical compensator: degree 4, order 36 (approximation error near -50 dB
#: over the full design band).
CANONICAL_DEGREE = 4
CANONICAL_ORDER = 36


class ConfigError(Exception):
    """Bad or missing configuration; the CLI maps this to exit code 1."""


def stable_seed(*parts) -> int:
    """Deterministic 64-bit seed from the base seed and cell coordinates."""
    digest = hashlib.blake2b("|".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def format_field(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path: Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([format_field(v) for v in row])


@lru_cache(maxsize=None)
def get_bank(degree: int = CANONICAL_DEGREE, order: int = CANONICAL_ORDER) -> CoefficientBank:
    return design_bank(DesignSpec(degree=degree, order=order))


# ── Option parsing ────────────────────────────────────────────────────────────


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


class Options:
    """Typed reader over one flat ``key = value`` config section.

    Every key must be consumed; leftovers are reported as configuration
    errors so typos fail loudly instead of silently running defaults.
    """

    def __init__(self, raw: Mapping[str, str], section: str):
        self._raw = dict(raw)
        self._section = section
        self._seen: set[str] = set()

    def _parse(self, key: str, default, convert: Callable[[str], object], kind: str):
        self._seen.add(key)
        raw = self._raw.get(key)
        if raw is None:
            return default
        try:
            return convert(raw)
        except ValueError as exc:
            raise ConfigError(f"[{self._section}] {key} must be {kind}, got {raw!r}") from exc

    def _parse_list(self, key: str, default: Iterable, convert: Callable[[str], object], kind: str) -> list:
        values = self._parse(key, list(default), lambda raw: [convert(tok) for tok in raw.replace(",", " ").split()], f"a list of {kind}")
        if not values:
            raise ConfigError(f"[{self._section}] {key} must not be empty")
        return values

    def get_int(self, key: str, default: int | None = None) -> int | None:
        return self._parse(key, default, int, "an integer")

    def get_float(self, key: str, default: float | None = None) -> float | None:
        return self._parse(key, default, float, "a number")

    def get_bool(self, key: str, default: bool = False) -> bool:
        return self._parse(key, default, _parse_bool, "a boolean")

    def get_str(self, key: str, default: str | None = None) -> str | None:
        return self._parse(key, default, str.strip, "text")

    def get_float_list(self, key: str, default: Iterable[float]) -> list[float]:
        return self._parse_list(key, default, float, "numbers")

    def get_int_list(self, key: str, default: Iterable[int]) -> list[int]:
        return self._parse_list(key, default, int, "integers")

    def get_str_list(self, key: str, default: Iterable[str]) -> list[str]:
        return self._parse_list(key, default, str, "words")

    def finish(self) -> None:
        unknown = set(self._raw) - self._seen
        if unknown:
            raise ConfigError(f"[{self._section}] unknown keys: {', '.join(sorted(unknown))}")


def load_config(path: str | Path) -> dict[str, dict[str, str]]:
    """Parse a flat key = value config file with one section per subcommand."""
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    return {section: dict(parser[section]) for section in parser.sections()}


# ── Shared trial machinery ────────────────────────────────────────────────────


@dataclass(frozen=True)
class ExperimentOutcome:
    """What a campaign produced: output files and the count of failed cells."""

    files: tuple[Path, ...]
    failures: int


def _run_trials(trial: Callable[..., list], *axes: Iterable) -> tuple[list, int]:
    """Concatenated outputs of ``trial(*key)`` over every key of ``product(*axes)``.

    A trial whose update system is singular contributes nothing, not even
    the results of the estimators that did succeed, and counts as one
    failure.
    """
    outputs: list = []
    failures = 0
    for key in product(*axes):
        try:
            output = trial(*key)
        except SingularSystemError:
            failures += 1
        else:
            outputs.extend(output)
    return outputs, failures


def _newton_ils(**config) -> list[tuple[str, EstimatorConfig]]:
    """``(method, config)`` for Newton and then ILS with the same settings."""
    return [(method, EstimatorConfig(method=method, **config)) for method in ("newton", "ils")]


def _per_method(outputs: list, configs: list[tuple[str, EstimatorConfig]]) -> list[tuple[str, list]]:
    """Split ``_run_trials`` outputs holding one entry per config and trial by method."""
    if not outputs:
        return []
    return [(method, outputs[m :: len(configs)]) for m, (method, _) in enumerate(configs)]


def _columns(samples: list[tuple]) -> np.ndarray:
    """Per-trial tuples as a ``(columns, trials)`` array with each column contiguous."""
    return np.ascontiguousarray(np.array(samples).T)


def _mean_std(samples: np.ndarray, *scales: float) -> np.ndarray:
    """Scaled population mean and standard deviation of the leading columns, over the trials.

    ``samples`` has shape ``(..., columns, trials)`` with the trial axis
    contiguous, so every row reduces exactly as a lone 1-D array would.  The
    result has shape ``(..., 2*len(scales))``: the mean and the standard
    deviation of column 0, then of column 1, and so on.
    """
    leading = samples[..., : len(scales), :]
    scale = np.array(scales)
    stats = np.stack([np.mean(leading, axis=-1) * scale, np.std(leading, axis=-1) * scale], axis=-1)
    return stats.reshape(stats.shape[:-2] + (2 * len(scales),))


def _chunks(count: int) -> Iterable[slice]:
    """Consecutive slices of at most :data:`TRIAL_CHUNK` of ``count`` trials."""
    return (slice(lo, min(lo + TRIAL_CHUNK, count)) for lo in range(0, count, TRIAL_CHUNK))


def _filter_rows(x1: np.ndarray, bank: CoefficientBank) -> SubfilterOutputs:
    """Branch outputs of every stream (row) of ``x1``, stacked on a leading trial axis."""
    return SubfilterOutputs(np.stack([compute_subfilter_outputs(row, bank).u for row in x1]))


def _estimate_chunk(u: SubfilterOutputs, ref: np.ndarray, configs: list[tuple[str, EstimatorConfig]]) -> tuple[list[BatchEstimate], np.ndarray]:
    """Each config's estimates for a batch of trials, and the mask of trials that no config flagged singular."""
    results = [estimate_batch(u, ref, config) for _, config in configs]
    return results, ~np.logical_or.reduce([result.singular for result in results])


def _check_real_signals(signals: Iterable[str]) -> None:
    for signal in signals:
        if signal not in ("multisine", "bandpass"):
            raise ConfigError(f"unknown signal kind {signal!r}")


def _real_model(signal: str, seed: int) -> HarmonicSignalModel:
    """Real test signal of a kind that passed :func:`_check_real_signals`."""
    return make_multisine(seed=seed) if signal == "multisine" else make_bandpass_noise(seed=seed)


def _window(model: HarmonicSignalModel, impairment: ImpairmentSpec, bank: CoefficientBank, n: int) -> tuple[SubfilterOutputs, np.ndarray]:
    """Branch outputs of the measured stream and the reference over an ``n``-sample window from sample 0."""
    gd = bank.group_delay
    x0, x1 = sample_pair(model, impairment, n + bank.order, start=-gd)
    return compute_subfilter_outputs(x1, bank), x0[gd : gd + n]


def _real_trial_rows(
    model: HarmonicSignalModel, impairment: ImpairmentSpec, variants: list[tuple[str, EstimatorConfig]]
) -> list[tuple[str, int, float, float, float, bool]]:
    """Estimate a real 1024-sample window with several configs and the canonical bank.

    One row ``(variant, iteration, delta_ppm, epsilon, nmse, flagged)`` per
    iteration, where the NMSE compensates with that iteration's parameters.
    """
    u, ref = _window(model, impairment, get_bank(), 1024)
    return [
        (label, rec.iteration, rec.params.delta_ppm, rec.params.epsilon, nmse(farrow_output(u, rec.params), ref), rec.delay_exceeded)
        for label, config in variants
        for rec in estimate_from_outputs(u, ref, config).records
    ]


def _true_params(delta: float, epsilon: float) -> OffsetParams:
    """Delay-law coefficients that exactly invert the sampling offsets."""
    return OffsetParams(delta / (1.0 + delta), epsilon / (1.0 + delta))


# ── Experiments ───────────────────────────────────────────────────────────────

EXAMPLE1_HEADER = ("trial", "seed", "method", "sfo_only", "iteration", "delta_ppm", "epsilon", "nmse", "flag_d_exceeded")


def example1_rows(trials: int, base_seed: int, *, snr_db: float = 30.0) -> tuple[list[tuple], int]:
    """Joint versus frequency-only estimation on random multisines.

    Each trial draws a fresh 64-tone 16-QAM multisine and noise, then runs
    both estimators (two iterations) jointly and with the time offset
    ignored.  Fixed scenario: delta = 400 ppm, epsilon = -0.2, a 1024-sample
    window and the canonical bank.
    """
    variants = _newton_ils(max_iterations=2) + [(f"{m}_sfo", c) for m, c in _newton_ils(max_iterations=2, sfo_only=True)]

    def trial(t: int) -> list[tuple]:
        model_seed = stable_seed(base_seed, "example1", t, "model")
        model = make_multisine(seed=model_seed)
        impairment = ImpairmentSpec(delta=400e-6, epsilon=-0.2, snr_db=snr_db, seed=stable_seed(base_seed, "example1", t, "noise"))
        trial_rows = _real_trial_rows(model, impairment, variants)
        return [(t, model_seed, label.removesuffix("_sfo"), label.endswith("_sfo"), *rest) for label, *rest in trial_rows]

    return _run_trials(trial, range(trials))


TABLE3_HEADER = ("signal", "snr_db", "trial", "seed", "method", "iteration", "delta_ppm", "epsilon", "nmse", "flag_d_exceeded")


def table3_rows(
    trials: int,
    base_seed: int,
    *,
    signals: Iterable[str] = ("multisine", "bandpass"),
    snrs: Iterable[float] = (20.0, 30.0, 40.0),
) -> tuple[list[tuple], int]:
    """Monte-Carlo NMSE of both estimators after one and two iterations.

    Fixed scenario: delta = epsilon = 300 ppm, a 1024-sample window and the
    canonical bank.
    """
    _check_real_signals(signals)
    variants = _newton_ils(max_iterations=2)

    def trial(signal: str, snr: float, t: int) -> list[tuple]:
        model_seed = stable_seed(base_seed, "table3", signal, t, "model")
        model = _real_model(signal, model_seed)
        impairment = ImpairmentSpec(delta=300e-6, epsilon=300e-6, snr_db=snr, seed=stable_seed(base_seed, "table3", signal, snr, t, "noise"))
        return [(signal, snr, t, model_seed, *row) for row in _real_trial_rows(model, impairment, variants)]

    return _run_trials(trial, signals, snrs, range(trials))


GRID_HEADER = ("snr_db", "delta_ppm", "epsilon_ppm", "method", "trials", "failures", "mean_delta_ppm", "std_delta_ppm", "mean_epsilon_ppm", "std_epsilon_ppm")


def grid_rows(
    trials: int,
    base_seed: int,
    *,
    grid_points: int = 5,
    span_ppm: float = 500.0,
    snrs: Iterable[float] = (20.0, 40.0),
    n_samples: int = 1000,
) -> tuple[list[tuple], int]:
    """Estimator spread over a two-dimensional offset grid, one iteration.

    16-QAM OFDM test signals, estimation from the real component only, with
    the canonical bank.  Each grid cell reports the population standard
    deviation of both estimates.  The trials of all cells run in chunks of
    :data:`TRIAL_CHUNK`, so one chunk can span several cells.
    """
    bank = get_bank()
    gd = bank.group_delay
    configs = _newton_ils(max_iterations=1)
    offsets = np.linspace(-span_ppm, span_ppm, grid_points) * 1e-6
    cells = list(product(snrs, range(grid_points), range(grid_points)))
    keys = list(product(range(len(cells)), range(trials)))
    estimates = np.empty((len(configs), 2, len(keys)))
    ok = np.empty(len(keys), dtype=bool)
    for chunk in _chunks(len(keys)):
        models, impairments = [], []
        for c, t in keys[chunk]:
            snr, di, ei = cells[c]
            models.append(make_ofdm(OfdmSpec(qam_order=16, seed=stable_seed(base_seed, "grid", snr, di, ei, t, "model")))[0])
            impairments.append(
                ImpairmentSpec(delta=float(offsets[di]), epsilon=float(offsets[ei]), snr_db=snr, seed=stable_seed(base_seed, "grid", snr, di, ei, t, "noise"))
            )
        x0, x1 = sample_pairs(models, impairments, n_samples + bank.order, start=-gd)
        results, ok[chunk] = _estimate_chunk(_filter_rows(x1.real, bank), x0.real[:, gd : gd + n_samples], configs)
        for m, result in enumerate(results):
            estimates[m, :, chunk] = result.params.delta, result.params.epsilon

    ok = ok.reshape(len(cells), trials)
    per_cell = estimates.reshape(len(configs), 2, len(cells), trials).transpose(0, 2, 1, 3)
    stats = np.empty((len(configs), len(cells), 4))
    whole = ok.all(axis=1)
    stats[:, whole] = _mean_std(np.ascontiguousarray(per_cell[:, whole]), 1e6, 1e6)
    rows: list[tuple] = []
    total_failures = 0
    for c, (snr, di, ei) in enumerate(cells):
        kept = int(ok[c].sum())
        total_failures += trials - kept
        if not kept:
            continue
        if not whole[c]:
            stats[:, c] = _mean_std(np.ascontiguousarray(per_cell[:, c][..., ok[c]]), 1e6, 1e6)
        for m, (method, _) in enumerate(configs):
            rows.append((snr, float(offsets[di]) * 1e6, float(offsets[ei]) * 1e6, method, kept, trials - kept, *stats[m, c].tolist()))
    return rows, total_failures


IMPAIRED_HEADER = ("trial", "seed", "method", "iteration", "delta_ppm", "epsilon_ppm", "nmse", "flag_d_exceeded")


def impaired_rows(trials: int, base_seed: int) -> tuple[list[tuple], int]:
    """Estimation from one real component under carrier offset and phase offset.

    Fixed scenario: 64-QAM OFDM at 30 dB, delta = -300 ppm, epsilon =
    -500 ppm, a carrier offset of 0.05 subcarrier spacings, a uniformly
    drawn phase offset, a 1024-sample window and the canonical bank.  The
    carrier error is common to both sampling chains, so offset compensation
    aligns the carrier along with the timing and the NMSE is taken directly
    against the noisy reference channel on the full complex signal.  The
    ``simplified`` variant compensates with the first-degree truncation of
    the bank; ``true`` compensates with the exact delay-law coefficients.
    """
    n, delta, epsilon = 1024, -300e-6, -500e-6
    bank = get_bank()

    def trial(t: int) -> list[tuple]:
        model_seed = stable_seed(base_seed, "impaired", t, "model")
        spec = OfdmSpec(qam_order=64, seed=model_seed)
        model, _ = make_ofdm(spec)
        po_rng = np.random.default_rng(stable_seed(base_seed, "impaired", t, "phase"))
        impairment = ImpairmentSpec(
            delta=delta,
            epsilon=epsilon,
            snr_db=30.0,
            cfo_fraction=0.05,
            phase_offset=float(po_rng.uniform(-np.pi, np.pi)),
            n_fft=spec.n_fft,
            seed=stable_seed(base_seed, "impaired", t, "noise"),
        )
        u, reference = _window(model, impairment, bank, n)
        u_re = SubfilterOutputs(u.u.real)

        def row(method: str, iteration: int, params: OffsetParams, outputs: SubfilterOutputs, flagged: bool) -> tuple:
            err = nmse(farrow_output(outputs, params), reference)
            return (t, model_seed, method, iteration, params.delta_ppm, params.epsilon * 1e6, err, flagged)

        rows = [
            row(method, rec.iteration, rec.params, u, rec.delay_exceeded)
            for method, config in _newton_ils(max_iterations=2)
            for rec in estimate_from_outputs(u_re, reference.real, config).records
        ]
        rec = estimate_from_outputs(u_re, reference.real, EstimatorConfig(method="simplified")).records[0]
        truncated = SubfilterOutputs(u.u[:2])  # the degree-1 truncation's branch outputs
        rows.append(row("simplified", 1, rec.params, truncated, rec.delay_exceeded))
        rows.append(row("true", 0, _true_params(delta, epsilon), u, False))
        return rows

    return _run_trials(trial, range(trials))


BER_HEADER = ("snr_db", "trial", "seed", "method", "iteration", "delta_ppm", "epsilon_ppm", "nmse", "bit_errors", "total_bits")


def ber_rows(trials: int, base_seed: int, *, snrs: Iterable[float] = (30.0,)) -> tuple[list[tuple], int]:
    """Bit error rate of a full OFDM symbol compensated with the estimates.

    Fixed scenario: 64-QAM OFDM, delta = epsilon = 293 ppm, a 1024-sample
    estimation window and the canonical bank.  The estimation window covers
    the second quarter of the symbol span: the symbol occupies absolute
    samples ``[-n_fft/4, 3*n_fft/4)`` while the estimator sees ``[0, n)``,
    so the delay law stays inside the design range over the whole symbol.
    Demodulation is a plain FFT; the model is periodic, which stands in for
    the cyclic prefix of a streaming system.
    """
    n, delta, epsilon = 1024, 293e-6, 293e-6
    bank = get_bank()
    gd = bank.group_delay
    configs = _newton_ils(max_iterations=2)
    keys = list(product(snrs, range(trials)))
    rows: list[tuple] = []
    failures = 0
    for chunk in _chunks(len(keys)):
        seeds, models, payloads, impairments = [], [], [], []
        for snr, t in keys[chunk]:
            seeds.append(stable_seed(base_seed, "ber", snr, t, "model"))
            spec = OfdmSpec(qam_order=64, seed=seeds[-1])
            model, payload = make_ofdm(spec)
            models.append(model)
            payloads.append(payload)
            impairments.append(ImpairmentSpec(delta=delta, epsilon=epsilon, snr_db=snr, seed=stable_seed(base_seed, "ber", snr, t, "noise")))
        symbol_start = -spec.n_fft // 4
        offset = -symbol_start  # array index of absolute sample -gd
        x0, x1 = sample_pairs(models, impairments, spec.n_fft + bank.order, start=symbol_start - gd)
        u = _filter_rows(x1, bank)
        ref = x0[:, offset + gd : offset + gd + n]
        results, ok = _estimate_chunk(SubfilterOutputs(u.u.real[..., offset : offset + n]), ref.real, configs)
        failures += int(np.count_nonzero(~ok))
        kept = np.flatnonzero(ok)
        if not kept.size:
            continue
        estimates = [(method, m + 1, params) for (method, _), result in zip(configs, results) for m, params in enumerate(result.history)]
        compensated = np.empty((kept.size, len(estimates) + 1, spec.n_fft), dtype=np.complex128)
        trial_rows = []
        for i, b in enumerate(kept):
            snr, t = keys[chunk][b]
            trial_u = SubfilterOutputs(u.u[b])
            variants = [(method, it, OffsetParams(float(p.delta[b]), float(p.epsilon[b]))) for method, it, p in estimates]
            for j, (method, iteration, params) in enumerate(variants + [("true", 0, _true_params(delta, epsilon))]):
                y = compensated[i, j] = farrow_output(trial_u, params, n0=symbol_start)
                trial_rows.append((snr, t, seeds[b], method, iteration, params.delta_ppm, params.epsilon * 1e6, nmse(y[offset : offset + n], ref[b])))
        # Every payload shares the subcarrier layout, so the chunk takes one
        # FFT and one rotation, and each trial's sent symbols are labelled once.
        rx = ofdm_demodulate(compensated, payloads[0], start_time=symbol_start)
        sent = np.array([payloads[b].symbols for b in kept])[:, None, :]
        errors, bits, _ = qam_demod_ber(rx, sent, spec.qam_order)
        rows += [row + (bit_errors, bits) for row, bit_errors in zip(trial_rows, errors.ravel().tolist())]
    return rows, failures


APPROX_HEADER = ("target_db", "degree", "order", "measured_error_db", "method", "trials", "mean_nmse", "mean_delta_ppm", "std_delta_ppm", "mean_epsilon", "std_epsilon")


def approx_sweep_rows(trials: int, base_seed: int) -> tuple[list[tuple], int]:
    """Noiseless estimation accuracy across the whole design frontier.

    The same bandpass-noise realizations are reused for every bank so the
    sweep isolates the effect of the approximation error.  Fixed scenario:
    delta = 200 ppm, epsilon = 0.01, a 1024-sample window, and up to three
    iterations stopping at a step below 1e-8.
    """
    n = 1024
    configs = _newton_ils(max_iterations=3, tolerance=1e-8)
    models = [make_bandpass_noise(seed=stable_seed(base_seed, "approx", t, "model")) for t in range(trials)]
    rows: list[tuple] = []
    total_failures = 0
    for target_db, degree, order in ERROR_FRONTIER:
        bank = get_bank(degree, order)
        report = measure_error(bank)

        def trial(t: int) -> list[tuple[float, float, float]]:
            u, ref = _window(models[t], ImpairmentSpec(delta=200e-6, epsilon=0.01), bank, n)
            return [(p.delta, p.epsilon, nmse(farrow_output(u, p), ref)) for p in (estimate_from_outputs(u, ref, config).params for _, config in configs)]

        outputs, failures = _run_trials(trial, range(trials))
        total_failures += failures
        for method, values in _per_method(outputs, configs):
            mean_nmse = float(np.mean(np.array(values)[:, 2]))
            rows.append((target_db, degree, order, report.error_db, method, len(values), mean_nmse, *_mean_std(_columns(values), 1e6, 1.0).tolist()))
    return rows, total_failures


NSWEEP_HEADER = ("set_index", "true_delta_ppm", "true_epsilon", "snr_db", "n_samples", "method", "trials", "mean_delta_ppm", "std_delta_ppm", "mean_epsilon", "std_epsilon")


def nsweep_rows(
    trials: int,
    base_seed: int,
    *,
    lengths: Iterable[int] = (64, 128, 256, 512, 1024, 2048),
    snrs: Iterable[float] = (20.0, 30.0, float("inf")),
) -> tuple[list[tuple], int]:
    """Estimate spread versus window length for two offset magnitudes.

    ``snr_db`` is written as ``inf`` for the noiseless case.  Two iterations
    per estimate with the canonical bank, bandpass-noise signals shared
    across lengths; a trial is one estimate at one length, so a singular
    system at one length leaves the other lengths of that signal counted.
    """
    bank = get_bank()
    n_max = max(lengths)
    configs = _newton_ils(max_iterations=2)
    rows: list[tuple] = []
    total_failures = 0
    for set_index, (delta, epsilon) in enumerate([(200e-6, 0.03), (100e-6, 300e-6)]):
        for snr in snrs:
            windows = []
            for t in range(trials):
                model = make_bandpass_noise(seed=stable_seed(base_seed, "nsweep", set_index, t, "model"))
                impairment = ImpairmentSpec(
                    delta=delta,
                    epsilon=epsilon,
                    snr_db=None if np.isinf(snr) else snr,
                    seed=stable_seed(base_seed, "nsweep", set_index, snr, t, "noise"),
                )
                windows.append(_window(model, impairment, bank, n_max))
            for n in lengths:

                def trial(t: int) -> list[tuple[float, float]]:
                    u, ref = windows[t]
                    return [(p.delta, p.epsilon) for p in (estimate_from_outputs(SubfilterOutputs(u.u[:, :n]), ref[:n], config).params for _, config in configs)]

                estimates, failures = _run_trials(trial, range(trials))
                total_failures += failures
                for method, samples in _per_method(estimates, configs):
                    rows.append((set_index, delta * 1e6, epsilon, snr, n, method, len(samples), *_mean_std(_columns(samples), 1e6, 1.0).tolist()))
    return rows, total_failures


OPCOUNT_HEADER = ("method", "degree", "n_samples", "iterations", "source", "fixed_mults", "general_mults", "additions", "divisions")


def opcount_rows(base_seed: int) -> tuple[list[tuple], int]:
    """Closed-form operation counts side by side with instrumented runs.

    The instrumented source executes :func:`estimate` on synthetic data with
    a bank of each degree 1 to 7 (order 12 up to degree 5, else 16) at
    window lengths 64 and 1024, and reports the tallies its iteration
    records accumulated; formula and instrumented rows must agree exactly.
    """
    rows: list[tuple] = []
    rng = np.random.default_rng(stable_seed(base_seed, "opcounts"))
    for degree in range(1, 8):
        bank = get_bank(degree, 12 if degree <= 5 else 16)
        for n in (64, 1024):
            x1 = rng.standard_normal(n + bank.order)
            x0 = rng.standard_normal(n + bank.group_delay)
            for method, iterations in (("newton", 1), ("newton", 2), ("ils", 1), ("ils", 2), ("simplified", 1)):
                formula = count_operations(method, degree, n, iterations)
                measured = estimate(x0, x1, bank, EstimatorConfig(method=method, max_iterations=iterations)).total_ops
                for source, ops in (("formula", formula), ("measured", measured)):
                    rows.append((method, degree, n, iterations, source, ops.fixed_mults, ops.general_mults, ops.additions, ops.divisions))
    return rows, 0


SINGLE_HEADER = ("method", "iteration", "delta_ppm", "epsilon", "grad_norm", "cost", "flag_d_exceeded")
SIGNAL_DUMP_HEADER = ("n", "x0_re", "x0_im", "x1_re", "x1_im")


def single_rows(
    base_seed: int,
    *,
    delta_ppm: float = 450.0,
    epsilon: float = 0.05,
    snr_db: float = 20.0,
    n_samples: int = 1024,
    signal: str = "bandpass",
    iterations: int = 3,
    dump_signals: bool = False,
) -> tuple:
    """One diagnostic realization with full iteration traces for both methods.

    With ``dump_signals`` it also returns ``("signals.csv", header, rows)``
    for the generated signal pair.  With the defaults the induced delay
    exceeds the design range near the end of the window, which shows up in
    the trace flag.  Uses the canonical bank.
    """
    _check_real_signals([signal])
    bank = get_bank()
    gd = bank.group_delay
    model = _real_model(signal, stable_seed(base_seed, "single", "model"))
    impairment = ImpairmentSpec(delta=delta_ppm * 1e-6, epsilon=epsilon, snr_db=snr_db, seed=stable_seed(base_seed, "single", "noise"))
    x0, x1 = sample_pair(model, impairment, n_samples + bank.order, start=-gd)
    u, ref = compute_subfilter_outputs(x1, bank), x0[gd : gd + n_samples]
    configs = _newton_ils(max_iterations=iterations, compute_cost=True)
    rows = [(method,) + trace for method, config in configs for trace in trace_rows(estimate_from_outputs(u, ref, config))]
    if not dump_signals:
        return rows, 0
    return rows, 0, ("signals.csv", SIGNAL_DUMP_HEADER, signal_dump_rows(x0, x1, start=-gd))


def signal_dump_rows(x0: np.ndarray, x1: np.ndarray, start: int) -> list[tuple]:
    return [(start + j, float(a.real), float(a.imag), float(b.real), float(b.imag)) for j, (a, b) in enumerate(zip(x0, x1))]


# ── Campaign runners (config-driven entry points) ─────────────────────────────


class Campaign(NamedTuple):
    """How :func:`run_experiment` runs one ``*_rows`` function.

    ``trials`` holds the desk and full trial counts, or ``None`` when the
    campaign takes no trial count; ``full`` replaces keyword defaults under
    ``--full``.  ``rows`` returns ``(rows, failures, *extra_files)``, each
    extra file being ``(file name, header, rows)``.
    """

    rows: Callable[..., tuple]
    header: tuple[str, ...]
    trials: tuple[int, int] | None = None
    full: Mapping[str, object] = {}


CAMPAIGNS = {
    "example1": Campaign(example1_rows, EXAMPLE1_HEADER, (100, 1000)),
    "table3": Campaign(table3_rows, TABLE3_HEADER, (100, 1000)),
    "grid": Campaign(grid_rows, GRID_HEADER, (100, 1000), {"grid_points": 20, "snrs": (20.0, 30.0, 40.0)}),
    "impaired": Campaign(impaired_rows, IMPAIRED_HEADER, (100, 1000)),
    "ber": Campaign(ber_rows, BER_HEADER, (120, 10000)),
    "approx_sweep": Campaign(approx_sweep_rows, APPROX_HEADER, (100, 1000)),
    "nsweep": Campaign(nsweep_rows, NSWEEP_HEADER, (100, 1000)),
    "opcounts": Campaign(opcount_rows, OPCOUNT_HEADER),
    "single": Campaign(single_rows, SINGLE_HEADER),
}

_GETTERS = {bool: "get_bool", int: "get_int", float: "get_float", str: "get_str"}


def run_experiment(
    name: str,
    options: Options,
    base_seed: int,
    full: bool,
    out_dir: Path,
) -> ExperimentOutcome:
    """Run one named campaign and write its CSV outputs under ``out_dir``."""
    if name not in CAMPAIGNS:
        raise ConfigError(f"unknown experiment {name!r}")
    campaign = CAMPAIGNS[name]
    args = []
    if campaign.trials is not None:
        desk_trials, full_trials = campaign.trials
        trials = options.get_int("trials", full_trials if full else desk_trials)
        if trials < 1:
            raise ConfigError(f"[{options._section}] trials must be positive")
        args.append(trials)
    kwargs = {}
    for key, default in (campaign.rows.__kwdefaults__ or {}).items():
        default = campaign.full.get(key, default) if full else default
        if isinstance(default, tuple):
            kwargs[key] = getattr(options, _GETTERS[type(default[0])] + "_list")(key, default)
        else:
            kwargs[key] = getattr(options, _GETTERS[type(default)])(key, default)
    options.finish()
    rows, failures, *extra = campaign.rows(*args, base_seed, **kwargs)
    files = []
    for file_name, header, body in [(f"{name}.csv", campaign.header, rows), *extra]:
        files.append(out_dir / file_name)
        write_csv(files[-1], header, body)
    return ExperimentOutcome(tuple(files), failures)


MEASURE_HEADER = ("L", "N_G", "omega_c_over_pi", "error_db", "worst_omega_over_pi", "worst_d")


def run_design(options: Options, out_dir: Path) -> ExperimentOutcome:
    """Design a bank per the config, save it, and report its measured error."""
    degree = options.get_int("degree", CANONICAL_DEGREE)
    order = options.get_int("order", CANONICAL_ORDER)
    cutoff = options.get_float("cutoff", 0.9)
    d_max = options.get_float("d_max", 0.5)
    n_freq = options.get_int("n_freq", None)
    n_delay = options.get_int("n_delay", 33)
    bank_name = options.get_str("bank", f"bank_L{degree}_NG{order}.txt")
    options.finish()
    try:
        spec = DesignSpec(degree=degree, order=order, omega_c=cutoff * np.pi, d_max=d_max, n_freq=n_freq, n_delay=n_delay)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    bank = design_bank(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    bank_path = out_dir / bank_name
    save_bank(bank, bank_path)
    report = measure_error(bank, omega_c=spec.omega_c, d_max=spec.d_max)
    report_path = out_dir / "design_report.csv"
    write_csv(report_path, MEASURE_HEADER, [_measure_row(bank, report)])
    return ExperimentOutcome((bank_path, report_path), 0)


def run_measure(options: Options, out_dir: Path) -> ExperimentOutcome:
    """Measure the approximation error of a saved bank."""
    bank_path = options.get_str("bank", None)
    cutoff = options.get_float("cutoff", 0.9)
    d_max = options.get_float("d_max", 0.5)
    n_freq = options.get_int("n_freq", None)
    n_delay = options.get_int("n_delay", 129)
    options.finish()
    if bank_path is None:
        raise ConfigError("[measure] requires a bank = <path> entry")
    try:
        bank = load_bank(bank_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load bank {bank_path}: {exc}") from exc
    report = measure_error(bank, omega_c=cutoff * np.pi, d_max=d_max, n_freq=n_freq, n_delay=n_delay)
    path = out_dir / "measure.csv"
    write_csv(path, MEASURE_HEADER, [_measure_row(bank, report)])
    return ExperimentOutcome((path,), 0)


def _measure_row(bank: CoefficientBank, report) -> tuple:
    return (
        bank.degree,
        bank.order,
        report.omega_c / np.pi,
        report.error_db,
        report.worst_omega / np.pi,
        report.worst_delay,
    )

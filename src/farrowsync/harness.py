"""Seeded Monte-Carlo experiment campaigns and their CSV outputs.

Every random draw in a campaign is keyed by a stable 64-bit hash of the base
seed plus the cell coordinates (experiment name, sweep indices, trial index,
stream label), so runs are reproducible sample-for-sample regardless of
execution order, and rerunning any experiment with the same base seed yields
byte-identical CSV files.

A campaign is a ``*_rows`` function whose keyword-only parameters are its
config keys, desk-scale values as defaults; :data:`CAMPAIGNS` adds the rest.
A trial whose update system is singular is dropped whole and counted once.
Every Monte-Carlo campaign states its trial keys, how to draw one trial and
a ``work`` function, and :func:`_run_chunks` runs them: in chunks of at most
:data:`TRIAL_CHUNK` trials across cells, it samples a chunk with one
:func:`sample_pairs` call, filters each measured stream with its own
:func:`compute_subfilter_outputs` call, hands ``work`` the branch outputs
and reference windows, and alone frees the chunk's arrays.  So a trial's
measured stream is filtered once.  ``grid``, ``approx_sweep`` and ``nsweep``
sample the real components alone, estimate from them and reduce with
:func:`_summaries`; the
per-trial campaigns (``example1``, ``table3``, ``impaired`` and ``ber``)
compensate and score the complex stream in :func:`_iteration_rows`, with
one Horner pass and one ``nmse`` call per kept trial and bank.  The chunk
size changes no output byte.  ``single`` (one traced realization) and
``opcounts`` (the instrumented :func:`estimate`) run outside the runner.

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

from .design import DesignError, DesignSpec, ERROR_FRONTIER, design_bank, measure_error
from .estimation import BatchEstimate, EstimatorConfig, OffsetParams, batch_cost, count_operations, estimate, estimate_batch, estimate_from_outputs
from .estimation import SingularSystemError
from .farrow import CoefficientBank, compute_subfilter_outputs, delay_out_of_range, farrow_output, load_bank, save_bank
from .metrics import nmse, qam_demod_ber
from .signals import MAX_SNR_DB, ImpairmentSpec, OfdmSpec, demodulation_plan, make_bandpass_noise, make_multisine, make_ofdm, ofdm_demodulate, sample_pair, sample_pairs, valid_snr_db

DEFAULT_SEED = 42

#: Most trials that a campaign generates, filters and estimates at once.
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


class _FieldFormatters(dict):
    """Each field type's formatter, chosen on its first field.

    A bool is written as 0 or 1, a float or float subclass (``np.float64``)
    with 17 significant digits (``"%.17g" % v`` gives the characters of
    ``format(v, ".17g")``), and anything else by ``str``.
    """

    def __missing__(self, kind: type) -> Callable[[object], str]:
        is_bool, is_float = issubclass(kind, bool), issubclass(kind, float)
        fmt = self[kind] = "%.17g".__mod__ if is_float else (lambda v: str(int(v))) if is_bool else str
        return fmt


_FIELD_FORMATTERS = _FieldFormatters()


def format_fields(row: Iterable) -> list[str]:
    """The CSV text of each value of ``row``, by the formatter of its type."""
    formatters = _FIELD_FORMATTERS
    return [formatters[type(v)](v) for v in row]


def write_csv(path: Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        writer.writerows(map(format_fields, rows))


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


#: type -> (parser of one value, what a value must be, what a list holds)
_PARSERS = {
    bool: (_parse_bool, "a boolean", "booleans"),
    int: (int, "an integer", "integers"),
    float: (float, "a number", "numbers"),
    str: (str.strip, "text", "words"),
}


class Options:
    """Typed reader over one flat ``key = value`` config section.

    Every key must be consumed; leftovers are reported as configuration
    errors so typos fail loudly instead of silently running defaults.
    """

    def __init__(self, raw: Mapping[str, str], section: str):
        self._raw = dict(raw)
        self._section = section
        self._seen: set[str] = set()

    def get(self, key: str, default):
        """The value of ``key`` parsed as the type of ``default``, or ``default`` when the key is absent.

        A list or tuple default reads a non-empty list of its entries' type,
        separated by commas or spaces.  A type as the default (``int``,
        ``str``) reads that type, and an absent key then reads as None.
        """
        self._seen.add(key)
        many = isinstance(default, (list, tuple))
        raw = self._raw.get(key)
        if raw is None:
            return list(default) if many else None if isinstance(default, type) else default
        kind = default if isinstance(default, type) else type(default[0] if many else default)
        parse, single, plural = _PARSERS[kind]
        try:
            value = [parse(tok) for tok in raw.replace(",", " ").split()] if many else parse(raw)
        except ValueError as exc:
            raise ConfigError(f"[{self._section}] {key} must be {f'a list of {plural}' if many else single}, got {raw!r}") from exc
        if many and not value:
            raise ConfigError(f"[{self._section}] {key} must not be empty")
        return value

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


#: ``(label, config)`` per estimator variant of a campaign.
_Variants = list[tuple[str, EstimatorConfig]]


def _newton_ils(**config) -> _Variants:
    """``(method, config)`` for Newton and then ILS with the same settings."""
    return [(method, EstimatorConfig(method=method, **config)) for method in ("newton", "ils")]


def _mean_std(samples: np.ndarray, *scales: float) -> np.ndarray:
    """Scaled population mean and standard deviation of the leading columns, over the trials.

    ``samples`` has shape ``(..., columns, trials)``.  The leading columns
    are copied with the trial axis contiguous, so every row reduces exactly
    as a lone 1-D array would.  The result has shape
    ``(..., 2*len(scales))``: the mean and the standard deviation of column
    0, then of column 1, and so on.
    """
    leading = np.ascontiguousarray(samples[..., : len(scales), :])
    scale = np.array(scales)
    stats = np.stack([np.mean(leading, axis=-1) * scale, np.std(leading, axis=-1) * scale], axis=-1)
    return stats.reshape(stats.shape[:-2] + (2 * len(scales),))


def _run_chunks(keys: Iterable[tuple], draw: Callable, bank: CoefficientBank, span: int, work: Callable, lead: int = 0, real: bool = False) -> list:
    """``work(chunk, extras, u, ref)`` of each chunk of at most :data:`TRIAL_CHUNK` trials of ``keys``, in key order.

    ``draw(*key)`` gives one trial's ``(model, impairment, *extras)``.  A
    chunk is sampled over ``span`` samples from sample ``-lead`` with one
    :func:`sample_pairs` call, and each measured stream is filtered alone.
    ``work`` gets the chunk's keys, a tuple per extra, the branch outputs
    ``u`` and the reference windows ``ref``, a view of the chunk's whole
    ``x0``, one row per trial.  With ``real`` the chunk is sampled real
    (``sample_pairs(..., real=True)``), so both hold the real components
    alone.
    """
    keys = list(keys)
    return [_sample_chunk(keys[lo : lo + TRIAL_CHUNK], draw, bank, span, work, lead, real) for lo in range(0, len(keys), TRIAL_CHUNK)]


def _sample_chunk(chunk: list[tuple], draw: Callable, bank: CoefficientBank, span: int, work: Callable, lead: int, real: bool):
    """One chunk of :func:`_run_chunks`, in a frame that ends with it.

    The models go before the filter runs, ``x1`` before ``work`` runs, and
    the rest, among it the ``x0`` that ``ref`` views, with this frame.
    """
    models, impairments, *extras = zip(*(draw(*key) for key in chunk))
    gd = bank.group_delay
    x0, x1 = sample_pairs(models, impairments, span + bank.order, start=-lead - gd, real=real)
    ref = x0[:, gd : gd + span]
    del models, impairments, x0
    # One stream per filter call: perfbench's span tracer counts work per call.
    u = np.empty((len(x1), bank.degree + 1, span), dtype=x1.dtype)
    for b in range(len(x1)):
        u[b] = compute_subfilter_outputs(x1[b], bank)
    del x1
    return work(chunk, extras, u, ref)


def _estimate_chunk(u: np.ndarray, ref: np.ndarray, configs: _Variants) -> tuple[list[BatchEstimate], np.ndarray]:
    """Each config's estimates for a batch of trials, and the mask of trials that no config flagged singular.

    A ``simplified`` config that follows a joint ILS config gets that ILS
    run itself, whose first iteration is the simplified estimate bit for
    bit; a trial singular at that iteration is flagged by the ILS run.
    """
    results: list[BatchEstimate] = []
    for _, config in configs:
        ils = [result for (_, c), result in zip(configs, results) if c.method == "ils" and not c.sfo_only]
        results.append(ils[0] if config.method == "simplified" and ils else estimate_batch(u, ref, config))
    return results, ~np.logical_or.reduce([result.singular for result in results])


def _finals(u: np.ndarray, ref: np.ndarray, configs: _Variants) -> tuple[np.ndarray, np.ndarray]:
    """Each config's final ``(delta, epsilon)`` per trial, shape ``(configs, 2, trials)``, and the mask of the kept trials."""
    results, ok = _estimate_chunk(u, ref, configs)
    return np.array([(result.params.delta, result.params.epsilon) for result in results]), ok


def _summaries(chunks: list[tuple], groups: list, configs: _Variants, *scales: float) -> tuple[list[tuple], int]:
    """Each config's kept final estimates, reduced per group by :func:`_mean_std`.

    Each chunk of trials is ``(finals, ok)``: final estimates of shape
    ``(configs, columns, ..., chunk)`` and the mask ``(..., chunk)`` of the
    kept trials.  Joined along the trial axis, they split into
    ``len(groups)`` groups of equally many consecutive trials.  Returns
    ``(group, method, kept, statistics)`` for every config of every group
    that kept a trial, and the count of dropped trials.  The groups that
    kept every trial reduce at once.
    """
    finals, oks = zip(*chunks)
    ok = np.concatenate(oks, axis=-1).reshape(len(groups), -1)
    samples = np.concatenate(finals, axis=-1)
    per_group = samples.reshape(samples.shape[:2] + ok.shape).transpose(0, 2, 1, 3)
    kept = ok.sum(axis=1).tolist()
    whole = ok.all(axis=1)
    stats = np.empty(per_group.shape[:2] + (2 * len(scales),))
    stats[:, whole] = _mean_std(per_group[:, whole], *scales)
    for g in np.flatnonzero(~whole & ok.any(axis=1)):
        stats[:, g] = _mean_std(per_group[:, g][..., ok[g]], *scales)
    summary = [(group, method, kept[g], stats[m, g].tolist()) for g, group in enumerate(groups) if kept[g] for m, (method, _) in enumerate(configs)]
    return summary, ok.size - sum(kept)


def _flagged(iteration: int, delta: float, epsilon: float) -> bool:
    """The ``flag_d_exceeded`` column: an estimate whose delay law leaves the design range over the 1024-sample window."""
    return iteration > 0 and delay_out_of_range(OffsetParams(delta, epsilon), 1024)


def _iteration_rows(
    keys: Iterable[tuple],
    draw: Callable[..., tuple],
    variants: _Variants,
    row: Callable[..., tuple],
    truth: OffsetParams | None = None,
    span: int = 1024,
    lead: int = 0,
    columns: Callable[..., Iterable[tuple]] = lambda y, *trial: [()] * len(y),
) -> tuple[list[tuple], int]:
    """Estimate each trial's 1024-sample window with several configs and the canonical bank.

    One row ``row(trial, label, iteration, delta, epsilon, nmse, more)`` per
    kept trial, variant and iteration, ``trial`` being ``(*key, *extras)``;
    a campaign with a ``flag_d_exceeded`` column fills it from
    :func:`_flagged`.
    A trial spans ``span`` samples from sample ``-lead``; the estimators see
    the window's real component.  A trial's parameter sets on each bank are
    compensated over the span in one Horner pass, a ``simplified`` estimate
    through the first-degree truncation of the bank, and one ``nmse`` call
    scores their window; ``columns(y, *trial)`` gives the tuple ``more`` per
    set from that ``(sets, span)`` block ``y``.  ``truth`` adds a row
    ``"true"`` of iteration 0 per trial, compensated with those offsets.
    The parameter sets are built once per chunk and grouped by the branches
    they compensate with.  No variant sets a tolerance, so every kept trial
    has every iteration.
    """
    n = 1024
    window = slice(lead, lead + n)

    def work(chunk, extras, u, ref):
        results, ok = _estimate_chunk(u.real[..., window], ref[:, window].real, variants)
        # (label, iteration, branches, delta per trial, epsilon per trial) per
        # set; ``branches`` slices the bank rows: 2 for the first-degree truncation.
        sets = [
            (label, m + 1, 2 if config.method == "simplified" else None, p.delta.tolist(), p.epsilon.tolist())
            for (label, config), result in zip(variants, results)
            for m, p in enumerate(result.history[:1] if config.method == "simplified" else result.history)
        ]
        sets += [("true", 0, None, [truth.delta] * len(chunk), [truth.epsilon] * len(chunk))] if truth else []
        groups = {key: [i for i, entry in enumerate(sets) if entry[2] == key] for key in dict.fromkeys(entry[2] for entry in sets)}
        rows: list[tuple] = []
        for b in np.flatnonzero(ok).tolist():
            trial = (*chunk[b], *(extra[b] for extra in extras))
            scores = [None] * len(sets)
            for branches, batch in groups.items():
                params = OffsetParams(np.array([sets[i][3][b] for i in batch]), np.array([sets[i][4][b] for i in batch]))
                y = farrow_output(u[b, :branches], params, n0=-lead)
                for i, err, more in zip(batch, nmse(y[:, window], ref[b, window]).tolist(), columns(y, *trial)):
                    scores[i] = (err, more)
            rows += [row(trial, label, m, d[b], e[b], *score) for (label, m, _, d, e), score in zip(sets, scores)]
        return rows, int(np.count_nonzero(~ok))

    chunks = _run_chunks(keys, draw, get_bank(), span, work, lead)
    return [row for rows, _ in chunks for row in rows], sum(failures for _, failures in chunks)


#: Real test signal of each signal kind from its seed.  Each generator is looked up by name at call time, so a rebound module name is seen.
_REAL_MODELS = {"multisine": lambda seed: make_multisine(seed=seed), "bandpass": lambda seed: make_bandpass_noise(seed=seed)}


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

    def draw(t: int):
        model_seed = stable_seed(base_seed, "example1", t, "model")
        impairment = ImpairmentSpec(delta=400e-6, epsilon=-0.2, snr_db=snr_db, seed=stable_seed(base_seed, "example1", t, "noise"))
        return make_multisine(seed=model_seed), impairment, model_seed

    def row(trial, label: str, m: int, d: float, e: float, err: float, _):
        return (*trial, label.removesuffix("_sfo"), label.endswith("_sfo"), m, d * 1e6, e, err, _flagged(m, d, e))

    return _iteration_rows(product(range(trials)), draw, variants, row)


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

    def draw(signal: str, snr: float, t: int):
        model_seed = stable_seed(base_seed, "table3", signal, t, "model")
        impairment = ImpairmentSpec(delta=300e-6, epsilon=300e-6, snr_db=snr, seed=stable_seed(base_seed, "table3", signal, snr, t, "noise"))
        return _REAL_MODELS[signal](model_seed), impairment, model_seed

    def row(trial, label: str, m: int, d: float, e: float, err: float, _):
        return (*trial, label, m, d * 1e6, e, err, _flagged(m, d, e))

    return _iteration_rows(product(signals, snrs, range(trials)), draw, _newton_ils(max_iterations=2), row)


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
    configs = _newton_ils(max_iterations=1)
    offsets = np.linspace(-span_ppm, span_ppm, grid_points) * 1e-6
    cells = list(product(snrs, range(grid_points), range(grid_points)))

    def draw(snr: float, di: int, ei: int, t: int):
        model = make_ofdm(OfdmSpec(qam_order=16, seed=stable_seed(base_seed, "grid", snr, di, ei, t, "model")))[0]
        return model, ImpairmentSpec(delta=float(offsets[di]), epsilon=float(offsets[ei]), snr_db=snr, seed=stable_seed(base_seed, "grid", snr, di, ei, t, "noise"))

    def work(_, __, u, ref):
        return _finals(u, ref, configs)

    chunks = _run_chunks(product(snrs, range(grid_points), range(grid_points), range(trials)), draw, get_bank(), n_samples, work, real=True)
    summary, failures = _summaries(chunks, cells, configs, 1e6, 1e6)
    rows = [(snr, float(offsets[di]) * 1e6, float(offsets[ei]) * 1e6, method, kept, trials - kept, *stats) for (snr, di, ei), method, kept, stats in summary]
    return rows, failures


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
    delta, epsilon = -300e-6, -500e-6

    def draw(t: int):
        model_seed = stable_seed(base_seed, "impaired", t, "model")
        spec = OfdmSpec(qam_order=64, seed=model_seed)
        impairment = ImpairmentSpec(
            delta=delta,
            epsilon=epsilon,
            snr_db=30.0,
            cfo_fraction=0.05,
            phase_offset=float(np.random.default_rng(stable_seed(base_seed, "impaired", t, "phase")).uniform(-np.pi, np.pi)),
            n_fft=spec.n_fft,
            seed=stable_seed(base_seed, "impaired", t, "noise"),
        )
        return make_ofdm(spec)[0], impairment, model_seed

    variants = _newton_ils(max_iterations=2) + [("simplified", EstimatorConfig(method="simplified"))]

    def row(trial, label: str, m: int, d: float, e: float, err: float, _):
        return (*trial, label, m, d * 1e6, e * 1e6, err, _flagged(m, d, e))

    return _iteration_rows(product(range(trials)), draw, variants, row, _true_params(delta, epsilon))


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
    delta, epsilon = 293e-6, 293e-6
    spec = OfdmSpec(qam_order=64)
    lead = spec.n_fft // 4
    plan = demodulation_plan(spec, -lead)  # every trial's symbol starts at -lead

    def draw(snr: float, t: int):
        seed = stable_seed(base_seed, "ber", snr, t, "model")
        model, payload = make_ofdm(OfdmSpec(qam_order=64, seed=seed))
        return model, ImpairmentSpec(delta=delta, epsilon=epsilon, snr_db=snr, seed=stable_seed(base_seed, "ber", snr, t, "noise")), seed, payload

    def bits(y: np.ndarray, snr: float, t: int, seed: int, payload):
        errors, total, _ = qam_demod_ber(ofdm_demodulate(y, plan), payload.levels, spec.qam_order)
        return [(count, total) for count in errors.tolist()]

    def row(trial, label: str, m: int, d: float, e: float, err: float, counts: tuple):
        return (*trial[:3], label, m, d * 1e6, e * 1e6, err, *counts)

    variants = _newton_ils(max_iterations=2)
    return _iteration_rows(product(snrs, range(trials)), draw, variants, row, _true_params(delta, epsilon), spec.n_fft, lead, bits)


APPROX_HEADER = ("target_db", "degree", "order", "measured_error_db", "method", "trials", "mean_nmse", "mean_delta_ppm", "std_delta_ppm", "mean_epsilon", "std_epsilon")


def approx_sweep_rows(trials: int, base_seed: int) -> tuple[list[tuple], int]:
    """Noiseless estimation accuracy across the whole design frontier.

    The same bandpass-noise realizations are reused for every bank so the
    sweep isolates the effect of the approximation error.  Fixed scenario:
    delta = 200 ppm, epsilon = 0.01, a 1024-sample window, and up to three
    iterations stopping at a step below 1e-8.
    """
    configs = _newton_ils(max_iterations=3, tolerance=1e-8)
    models = [make_bandpass_noise(seed=stable_seed(base_seed, "approx", t, "model")) for t in range(trials)]

    def draw(t: int):
        return models[t], ImpairmentSpec(delta=200e-6, epsilon=0.01)

    def work(_, __, u, ref):
        finals, ok = _finals(u, ref, configs)
        # Both configs' delay laws, shape (trials, configs), in one Horner pass.
        scores = nmse(farrow_output(u[:, None], OffsetParams(*finals.transpose(1, 2, 0))), ref[:, None])
        return np.concatenate([scores.T[:, None], finals], axis=1), ok

    rows: list[tuple] = []
    failures = 0
    for target_db, degree, order in ERROR_FRONTIER:
        bank = get_bank(degree, order)
        chunks = _run_chunks(product(range(trials)), draw, bank, 1024, work, real=True)
        summary, dropped = _summaries(chunks, [(target_db, degree, order, measure_error(bank).error_db)], configs, 1.0, 1e6, 1.0)
        failures += dropped
        # The mean NMSE (its spread is not reported), then both offsets' mean and spread.
        rows += [(*group, method, kept, stats[0], *stats[2:]) for group, method, kept, stats in summary]
    return rows, failures


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
    Each chunk of signals is estimated at every length before the next is
    drawn, so only one chunk's branch outputs are held at a time.
    """
    configs = _newton_ils(max_iterations=2)

    def work(_, __, u, ref):
        finals, oks = zip(*(_finals(u[..., :n], ref[:, :n], configs) for n in lengths))
        return np.stack(finals, axis=2), np.array(oks)

    rows: list[tuple] = []
    failures = 0
    for set_index, (delta, epsilon) in enumerate([(200e-6, 0.03), (100e-6, 300e-6)]):
        for snr in snrs:

            def draw(t: int):
                model = make_bandpass_noise(seed=stable_seed(base_seed, "nsweep", set_index, t, "model"))
                noise_seed = stable_seed(base_seed, "nsweep", set_index, snr, t, "noise")
                return model, ImpairmentSpec(delta=delta, epsilon=epsilon, snr_db=None if np.isinf(snr) else snr, seed=noise_seed)

            chunks = _run_chunks(product(range(trials)), draw, get_bank(), max(lengths), work, real=True)
            summary, dropped = _summaries(chunks, lengths, configs, 1e6, 1.0)
            failures += dropped
            rows += [(set_index, delta * 1e6, epsilon, snr, n, method, kept, *stats) for n, method, kept, stats in summary]
    return rows, failures


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
    the trace flag.  Uses the canonical bank.  A singular update in either
    method drops the trial whole: no rows and one failure.
    """
    bank = get_bank()
    gd = bank.group_delay
    model = _REAL_MODELS[signal](stable_seed(base_seed, "single", "model"))
    impairment = ImpairmentSpec(delta=delta_ppm * 1e-6, epsilon=epsilon, snr_db=snr_db, seed=stable_seed(base_seed, "single", "noise"))
    x0, x1 = sample_pair(model, impairment, n_samples + bank.order, start=-gd)
    u, ref = compute_subfilter_outputs(x1, bank), x0[gd : gd + n_samples]
    rows, failures = [], 0
    try:
        rows = [
            (method, rec.iteration, rec.params.delta_ppm, rec.params.epsilon, rec.residual_norm, batch_cost(u, ref, rec.params), rec.delay_exceeded)
            for method, config in _newton_ils(max_iterations=iterations)
            for rec in estimate_from_outputs(u, ref, config).records
        ]
    except SingularSystemError:
        failures = 1
    if not dump_signals:
        return rows, failures
    return rows, failures, ("signals.csv", SIGNAL_DUMP_HEADER, signal_dump_rows(x0, x1, start=-gd))


def signal_dump_rows(x0: np.ndarray, x1: np.ndarray, start: int) -> list[tuple]:
    return [(start + j, float(a.real), float(a.imag), float(b.real), float(b.imag)) for j, (a, b) in enumerate(zip(x0, x1))]


# ── Campaign runners (config-driven entry points) ─────────────────────────────


class Campaign(NamedTuple):
    """How :func:`run_experiment` runs one ``*_rows`` function.

    ``trials`` holds the desk and full trial counts, or ``None`` when the
    campaign takes no trial count; ``full`` replaces keyword defaults under
    ``--full``; ``least`` holds the smallest value each numeric key (or
    each entry of a list key) accepts, beside ``trials`` >= 1.  ``rows``
    returns ``(rows, failures, *extra_files)``, each extra file being
    ``(file name, header, rows)``.
    """

    rows: Callable[..., tuple]
    header: tuple[str, ...]
    trials: tuple[int, int] | None = None
    full: Mapping[str, object] = {}
    least: Mapping[str, int] = {}


CAMPAIGNS = {
    "example1": Campaign(example1_rows, EXAMPLE1_HEADER, (100, 1000)),
    "table3": Campaign(table3_rows, TABLE3_HEADER, (100, 1000)),
    "grid": Campaign(grid_rows, GRID_HEADER, (100, 1000), {"grid_points": 20, "snrs": (20.0, 30.0, 40.0)}, {"grid_points": 1, "n_samples": 3}),
    "impaired": Campaign(impaired_rows, IMPAIRED_HEADER, (100, 1000)),
    "ber": Campaign(ber_rows, BER_HEADER, (120, 10000)),
    "approx_sweep": Campaign(approx_sweep_rows, APPROX_HEADER, (100, 1000)),
    "nsweep": Campaign(nsweep_rows, NSWEEP_HEADER, (100, 1000), least={"lengths": 3}),
    "opcounts": Campaign(opcount_rows, OPCOUNT_HEADER),
    "single": Campaign(single_rows, SINGLE_HEADER, least={"n_samples": 3, "iterations": 1}),
}


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
    kwargs = {}
    if campaign.trials is not None:
        kwargs["trials"] = options.get("trials", campaign.trials[full])
    for key, default in (campaign.rows.__kwdefaults__ or {}).items():
        kwargs[key] = options.get(key, campaign.full.get(key, default) if full else default)
    options.finish()
    for key, least in {"trials": 1, **campaign.least}.items():
        if key in kwargs and np.min(kwargs[key]) < least:
            raise ConfigError(f"[{options._section}] {key} must be at least {least}")
    for key in ("snr_db", "snrs"):
        if key in kwargs and not all(map(valid_snr_db, np.atleast_1d(kwargs[key]))):
            raise ConfigError(f"[{options._section}] {key} must be inf or finite within +-{MAX_SNR_DB:g} dB, got {kwargs[key]}")
    # Each offset key as the impairment it sets; the grid spans +-span_ppm in delta and epsilon.
    for key, field, scale in (("delta_ppm", "delta", 1e-6), ("span_ppm", "delta", 1e-6), ("epsilon", "epsilon", 1.0)):
        if key in kwargs:
            try:
                ImpairmentSpec(**{field: kwargs[key] * scale})
            except ValueError as exc:
                raise ConfigError(f"[{options._section}] {key} = {kwargs[key]} is out of range: {exc}") from exc
    # table3's signals and single's signal; a campaign without the key checks a known kind.
    for signal in [*kwargs.get("signals", []), kwargs.get("signal", "bandpass")]:
        if signal not in _REAL_MODELS:
            raise ConfigError(f"unknown signal kind {signal!r}")
    _make_dir(out_dir)
    rows, failures, *extra = campaign.rows(base_seed=base_seed, **kwargs)
    files = []
    for file_name, header, body in [(f"{name}.csv", campaign.header, rows), *extra]:
        files.append(out_dir / file_name)
        write_csv(files[-1], header, body)
    return ExperimentOutcome(tuple(files), failures)


def _make_dir(path: Path) -> None:
    """Make the output directory ``path`` and its parents; one that cannot be made (a file stands there) is a configuration error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write to {path}: {exc}") from exc


MEASURE_HEADER = ("L", "N_G", "omega_c_over_pi", "error_db", "worst_omega_over_pi", "worst_d")


def _band(options: Options, n_delay: int) -> dict:
    """The band keys that ``design`` and ``measure`` share, as :func:`measure_error` keywords; ``n_delay`` is the command's default."""
    cutoff, d_max = options.get("cutoff", 0.9), options.get("d_max", 0.5)
    return {"omega_c": cutoff * np.pi, "d_max": d_max, "n_freq": options.get("n_freq", int), "n_delay": options.get("n_delay", n_delay)}


def _report(path: Path, bank: CoefficientBank, **band) -> Path:
    """Write the measured error of ``bank`` over ``band`` to ``path``; a band :func:`measure_error` refuses is a configuration error."""
    try:
        report = measure_error(bank, **band)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    row = (bank.degree, bank.order, report.omega_c / np.pi, report.error_db, report.worst_omega / np.pi, report.worst_delay)
    _make_dir(path.parent)
    write_csv(path, MEASURE_HEADER, [row])
    return path


def run_design(options: Options, out_dir: Path) -> ExperimentOutcome:
    """Design a bank per the config, save it, and report its measured error."""
    degree = options.get("degree", CANONICAL_DEGREE)
    order = options.get("order", CANONICAL_ORDER)
    band = _band(options, 33)
    bank_name = options.get("bank", f"bank_L{degree}_NG{order}.txt")
    options.finish()
    if not bank_name:
        raise ConfigError("[design] bank must not be empty")
    try:
        bank = design_bank(DesignSpec(degree=degree, order=order, **band))
    except (ValueError, DesignError) as exc:
        raise ConfigError(str(exc)) from exc
    bank_path = out_dir / bank_name
    _make_dir(bank_path.parent)
    try:
        save_bank(bank, bank_path)
    except OSError as exc:
        raise ConfigError(f"cannot write bank {bank_path}: {exc}") from exc
    return ExperimentOutcome((bank_path, _report(out_dir / "design_report.csv", bank, omega_c=band["omega_c"], d_max=band["d_max"])), 0)


def run_measure(options: Options, out_dir: Path) -> ExperimentOutcome:
    """Measure the approximation error of a saved bank."""
    bank_path = options.get("bank", str)
    band = _band(options, 129)
    options.finish()
    if bank_path is None:
        raise ConfigError("[measure] requires a bank = <path> entry")
    try:
        bank = load_bank(bank_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load bank {bank_path}: {exc}") from exc
    return ExperimentOutcome((_report(out_dir / "measure.csv", bank, **band),), 0)

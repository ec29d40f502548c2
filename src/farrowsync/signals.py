"""Exact harmonic test signals and sampling impairments.

Everything downstream of this module assumes the analog waveform is a finite
sum of complex exponentials, so resampling it at arbitrary (fractional) time
instants is exact: there is no interpolation error in the generated data, and
any residual after compensation is attributable to the compensator itself.

A model evaluated on an affine time grid ``t_j = t0 + j*step`` with a uniform
frequency grid reduces to a chirp-z transform; that fast path agrees with
direct evaluation to about 1e-10 of the peak sample magnitude (8.1e-11 to
1.04e-10 measured for 1537 OFDM tones over 1036 samples, 6.4e-11 in RMS; the
tests bound a multisine case at 1e-10) and is used automatically for large
products of tone count and sample count.
A chirp-z plan depends only on ``(n_tones, count, w, a)``, and within a
campaign the sizes are fixed and ``w = exp(1j*dw*step)`` takes one value per
sampling rate, so plans are kept in a module-level cache bounded by the
bytes of their arrays (:data:`_CZT_PLAN_CACHE_BYTES`) and shared across
trials and models.  Each model likewise computes its grid check once.  A
cached plan is the result of the same arithmetic on the same inputs as a
freshly built one, so the samples are bit-for-bit those of a plan built on
every call.

The sampler has a leading trial axis: :func:`sample_pairs` samples one
model under one impairment per row, and :func:`sample_pair` is its
one-trial case.  Rows whose models share a chirp-z plan go through one
stacked transform, and the phase vectors a row needs are computed once per
distinct start time and step.  Stacked FFTs and real elementwise operations
give every row exactly the bits of a one-row call, but a complex multiply
broadcast across rows can differ from the one-row product in the last bit
(about 1e-13 was seen on x0), so the phase multiplies before and after the
transform, the carrier rotation and the noise run row by row on contiguous
rows.  Every Monte-Carlo campaign samples its trials through it, capped at
``harness.TRIAL_CHUNK`` rows a batch, which bounds the memory a batch holds.

Conventions fixed here and relied on elsewhere:

* Frequencies are in radians per sample of the reference grid; models must
  stay inside ``|omega| <= 0.9*pi``.
* A model holds complex tone coefficients ``c_k``.  A real model is
  ``Re sum_k c_k*exp(1j*omega_k*t) = sum_k |c_k|*cos(omega_k*t + arg c_k)``;
  its mean power is ``sum(|c|^2)/2``.  A complex model is
  ``sum_k c_k*exp(1j*omega_k*t)`` with mean power ``sum(|c|^2)``.
* The impaired pair is ``x0[j] = x(start+j)`` and
  ``x1[j] = x((start+j)*(1+delta) + epsilon)``, optionally rotated by a
  carrier-offset phase ``exp(1j*(omega_cfo*(start+j) + phase_offset))`` and
  then corrupted by white Gaussian noise on *both* channels.  The SNR is
  defined per channel against that channel's own clean power, and the noise
  for x0 is drawn before the noise for x1.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
from scipy.signal import CZT

MAX_OMEGA = 0.9 * np.pi

# Above this many tone-sample products, evaluation switches to the CZT.
_FAST_PATH_THRESHOLD = 1 << 18

_DIRECT_CHUNK = 4096

# Bytes of plan arrays the chirp-z cache may hold.  A desk campaign needs at
# most 30 plans at once (approx_sweep: 15 window lengths times 2 sampling
# rates) of about 0.1 MiB each; one CZT(512, 2**20) plan alone holds 32 MiB.
_CZT_PLAN_CACHE_BYTES = 64 << 20


class _PlanCacheInfo(NamedTuple):
    hits: int
    misses: int
    currsize: int
    nbytes: int


class _PlanCache:
    """Chirp-z plans by ``(n, m, w, a)``, least recently used evicted first past the byte budget.

    The plan just built always stays, even when it alone exceeds the budget.
    """

    def __init__(self) -> None:
        self._plans: OrderedDict[tuple, tuple[CZT, int]] = OrderedDict()
        self.cache_clear()

    def __call__(self, n: int, m: int, w: complex, a: complex) -> CZT:
        key = (n, m, w, a)
        entry = self._plans.get(key)
        if entry is not None:
            self._plans.move_to_end(key)
            self._hits += 1
            return entry[0]
        self._misses += 1
        plan = CZT(n, m, w, a)
        size = sum(v.nbytes for v in vars(plan).values() if isinstance(v, np.ndarray))
        self._plans[key] = (plan, size)
        self._nbytes += size
        while self._nbytes > _CZT_PLAN_CACHE_BYTES and len(self._plans) > 1:
            self._nbytes -= self._plans.popitem(last=False)[1][1]
        return plan

    def cache_info(self) -> _PlanCacheInfo:
        return _PlanCacheInfo(self._hits, self._misses, len(self._plans), self._nbytes)

    def cache_clear(self) -> None:
        self._plans.clear()
        self._hits = self._misses = self._nbytes = 0


_czt_plan = _PlanCache()


@dataclass(frozen=True, eq=False)
class HarmonicSignalModel:
    """Finite line spectrum with exact evaluation at arbitrary times."""

    coefficients: np.ndarray  # complex tone coefficients c_k
    omegas: np.ndarray
    is_complex: bool = False

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        omegas = np.asarray(self.omegas, dtype=np.float64)
        if coeffs.shape != omegas.shape or coeffs.ndim != 1:
            raise ValueError("coefficients and omegas must be 1-D arrays of equal length")
        if coeffs.size == 0:
            raise ValueError("model must contain at least one tone")
        if not np.all(np.isfinite(coeffs)) or not np.all(np.isfinite(omegas)):
            raise ValueError("model parameters must be finite")
        if np.max(np.abs(omegas)) > MAX_OMEGA + 1e-12:
            raise ValueError(f"tone frequencies must satisfy |omega| <= 0.9*pi, got {np.max(np.abs(omegas)):.6f}")
        if np.any(np.diff(omegas) <= 0):
            raise ValueError("omegas must be strictly increasing")
        for name, arr in (("coefficients", coeffs), ("omegas", omegas)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_tones(self) -> int:
        return self.omegas.size

    @property
    def analytic_power(self) -> float:
        """Mean power of the waveform (time average over an infinite window)."""
        p = float(np.sum(np.abs(self.coefficients) ** 2))
        return p if self.is_complex else p / 2.0

    @cached_property
    def has_uniform_grid(self) -> bool:
        """True when the tone frequencies form an exact arithmetic progression."""
        if self.n_tones < 3:
            return True
        steps = np.diff(self.omegas)
        return bool(np.all(np.abs(steps - steps[0]) <= 1e-12))

    @cached_property
    def _grid(self) -> tuple[float, float]:
        """First tone frequency and tone spacing of a uniform grid."""
        w0 = float(self.omegas[0])
        dw = float(self.omegas[1] - self.omegas[0]) if self.n_tones > 1 else 0.0
        return w0, dw

    def _tone_sum(self, t: np.ndarray) -> np.ndarray:
        """Complex sum ``sum_k c_k*exp(1j*omega_k*t)`` at the flat times ``t``, by direct summation."""
        coeffs = self.coefficients
        out = np.empty(t.size, dtype=np.complex128)
        for lo in range(0, t.size, _DIRECT_CHUNK):
            chunk = t[lo : lo + _DIRECT_CHUNK]
            out[lo : lo + chunk.size] = np.exp(1j * np.outer(chunk, self.omegas)) @ coeffs
        return out

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        """Evaluate the waveform at arbitrary times by direct summation."""
        t = np.asarray(t, dtype=np.float64)
        result = self._tone_sum(t.reshape(-1)).reshape(t.shape)
        return result if self.is_complex else result.real

    def evaluate_affine(self, t0: float, step: float, count: int, fast: bool | None = None) -> np.ndarray:
        """Evaluate on the grid ``t0 + step*arange(count)``.

        ``fast=None`` picks the chirp-z path automatically for large jobs;
        ``fast=True`` forces it (requires a uniform frequency grid) and
        ``fast=False`` forces direct summation.
        """
        if count < 0:
            raise ValueError("count must be nonnegative")
        if count == 0:
            return np.zeros(0, dtype=np.complex128 if self.is_complex else np.float64)
        result = _tone_sums([self], [t0], [step], count, fast)[0]
        return result if self.is_complex else result.real


def _tone_sums(models: Sequence[HarmonicSignalModel], t0s: Sequence[float], steps: Sequence[float], count: int, fast: bool | None) -> np.ndarray:
    """Complex tone sums of ``models[b]`` on the grid ``t0s[b] + steps[b]*arange(count)``, one row each.

    Rows on the chirp-z path are grouped by plan and transformed by one
    stacked call per plan; the phase multiplies around it run row by row.
    """
    out = np.empty((len(models), count), dtype=np.complex128)
    plans: dict[tuple, list[int]] = {}
    for row, (model, t0, step) in enumerate(zip(models, t0s, steps)):
        use_fast = model.has_uniform_grid and model.n_tones * count > _FAST_PATH_THRESHOLD if fast is None else fast
        if not use_fast:
            out[row] = model._tone_sum(np.asarray(t0 + step * np.arange(count), dtype=np.float64))
        elif not model.has_uniform_grid:
            raise ValueError("fast evaluation requires a uniform frequency grid")
        else:
            plans.setdefault((model.n_tones, count, np.exp(1j * model._grid[1] * float(step)), 1.0 + 0.0j), []).append(row)
    before: dict[tuple, np.ndarray] = {}
    after: dict[tuple, np.ndarray] = {}
    for key, rows in plans.items():
        n_tones = key[0]
        x = np.empty((len(rows), n_tones), dtype=np.complex128)
        for i, row in enumerate(rows):
            # sum_m c_m e^{j omega_m t_j} = e^{j w0 t_j} * sum_m (c_m e^{j dw m t0}) e^{j dw s j m}
            dw, t0 = models[row]._grid[1], float(t0s[row])
            if (dw, t0, n_tones) not in before:
                before[dw, t0, n_tones] = np.exp(1j * dw * t0 * np.arange(n_tones))
            np.multiply(models[row].coefficients, before[dw, t0, n_tones], out=x[i])
        # scipy transforms a lone row faster as a 1-D array than as a stack of one.
        spectrum = _czt_plan(*key)(x if len(rows) > 1 else x[0]).reshape(len(rows), count)
        for i, row in enumerate(rows):
            w0, t0, step = models[row]._grid[0], float(t0s[row]), float(steps[row])
            if (w0, t0, step) not in after:
                after[w0, t0, step] = np.exp(1j * w0 * (t0 + step * np.arange(count)))
            np.multiply(spectrum[i], after[w0, t0, step], out=out[row])
    return out


# ── Generators ────────────────────────────────────────────────────────────────


def make_multisine(
    n_tones: int = 64,
    qam_order: int = 16,
    bandwidth: float = 0.9,
    seed: int = 0,
    complex_signal: bool = False,
) -> HarmonicSignalModel:
    """Multisine with QAM-modulated tone amplitudes and phases.

    Tones sit on the uniform grid ``omega_i = bandwidth*pi*i/n_tones`` for
    ``i = 1..n_tones`` (no DC).  Amplitude and phase of tone ``i`` are the
    magnitude and angle of a random QAM symbol, left unnormalized, so the
    expected mean power of the real signal is ``n_tones * E|s|^2 / 2``.
    """
    from . import qam

    if not 0 < bandwidth <= 0.9:
        raise ValueError("bandwidth must be in (0, 0.9]")
    if n_tones < 1:
        raise ValueError("n_tones must be positive")
    rng = np.random.default_rng(seed)
    symbols = qam.random_symbols(qam_order, n_tones, rng)
    omegas = bandwidth * np.pi * np.arange(1, n_tones + 1) / n_tones
    return HarmonicSignalModel(coefficients=symbols, omegas=omegas, is_complex=complex_signal)


def make_bandpass_noise(
    n_lines: int = 512,
    band: tuple[float, float] = (0.1, 0.8),
    seed: int = 0,
    complex_signal: bool = False,
) -> HarmonicSignalModel:
    """Dense equal-amplitude random-phase line spectrum over ``band`` (in units of pi).

    With unit amplitudes the real signal has mean power ``n_lines/2``.
    """
    lo, hi = band
    if not 0 <= lo < hi <= 0.9:
        raise ValueError("band must satisfy 0 <= low < high <= 0.9 (units of pi)")
    if n_lines < 2:
        raise ValueError("n_lines must be at least 2")
    rng = np.random.default_rng(seed)
    omegas = np.pi * np.linspace(lo, hi, n_lines)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_lines)
    return HarmonicSignalModel(coefficients=np.exp(1j * phases), omegas=omegas, is_complex=complex_signal)


@dataclass(frozen=True)
class OfdmSpec:
    """Parameters of a single OFDM symbol used as the test waveform.

    The harmonic model is periodic with period ``n_fft``, so the cyclic
    prefix is implicit in the waveform.
    """

    n_fft: int = 2048
    active_subcarriers: int = 1536
    qam_order: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.qam_order not in (16, 64):
            raise ValueError("qam_order must be 16 or 64")
        if self.active_subcarriers % 2 != 0 or self.active_subcarriers <= 0:
            raise ValueError("active_subcarriers must be positive and even")
        if self.active_subcarriers >= self.n_fft:
            raise ValueError("active_subcarriers must be smaller than n_fft")
        if self.active_subcarriers / self.n_fft > 0.9:
            raise ValueError("occupied bandwidth exceeds 0.9*pi")


@dataclass(frozen=True, eq=False)
class OfdmPayload:
    """Transmitted subcarrier symbols, for error scoring after demodulation."""

    bins: np.ndarray  # signed subcarrier indices, ascending
    symbols: np.ndarray  # complex QAM symbols, aligned with bins
    qam_order: int
    n_fft: int


def make_ofdm(spec: OfdmSpec) -> tuple[HarmonicSignalModel, OfdmPayload]:
    """Build the complex baseband OFDM waveform and its payload.

    Subcarriers ``k = -A/2..A/2`` excluding DC carry random QAM symbols; the
    DC bin is kept in the model with zero amplitude so the frequency grid
    stays uniform for the fast evaluation path.
    """
    from . import qam

    rng = np.random.default_rng(spec.seed)
    half = spec.active_subcarriers // 2
    bins = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    symbols = qam.random_symbols(spec.qam_order, bins.size, rng)
    grid = np.arange(-half, half + 1)
    coeffs = np.zeros(grid.size, dtype=np.complex128)
    coeffs[grid != 0] = symbols
    model = HarmonicSignalModel(coefficients=coeffs, omegas=2.0 * np.pi * grid / spec.n_fft, is_complex=True)
    payload = OfdmPayload(bins=bins, symbols=symbols, qam_order=spec.qam_order, n_fft=spec.n_fft)
    return model, payload


def ofdm_demodulate(samples: np.ndarray, payload: OfdmPayload, start_time: float) -> np.ndarray:
    """Recover subcarrier symbols from one period of the (compensated) waveform.

    ``samples`` must hold ``n_fft`` consecutive samples whose first element
    corresponds to absolute time ``start_time`` on the reference grid.
    Leading axes are separate waveforms with the same subcarrier layout; they
    share one stacked FFT and one rotation vector.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    m = payload.n_fft
    if samples.shape[-1:] != (m,):
        raise ValueError(f"expected {m} samples, got {samples.shape[-1] if samples.ndim else 0}")
    spectrum = np.fft.fft(samples) / m
    rotation = np.exp(-2j * np.pi * payload.bins * start_time / m)
    return spectrum[..., np.mod(payload.bins, m)] * rotation


# ── Impairments ───────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class ImpairmentSpec:
    """Sampling and front-end impairments applied to the sampled pair.

    ``delta`` is the relative sampling-frequency offset, ``epsilon`` the
    sampling-time offset in units of the reference period.  ``cfo_fraction``
    is a residual carrier offset as a fraction of the subcarrier spacing
    ``2*pi/n_fft`` and needs ``n_fft`` to be set; it only applies to complex
    models.  The carrier rotation models a common downconversion error, so
    it multiplies the continuous-time signal ahead of both sampling chains:
    each chain picks up the rotation evaluated at its own sampling instants.
    ``snr_db=None`` means noiseless.
    """

    delta: float = 0.0
    epsilon: float = 0.0
    snr_db: float | None = None
    cfo_fraction: float = 0.0
    phase_offset: float = 0.0
    n_fft: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cfo_fraction != 0.0 and self.n_fft is None:
            raise ValueError("cfo_fraction requires n_fft to define the subcarrier spacing")


def add_awgn(x: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Add white Gaussian noise at ``snr_db`` relative to the measured power of ``x``.

    Complex inputs get circular noise with the variance split evenly between
    the real and imaginary parts.
    """
    power = float(np.mean(np.abs(x) ** 2))
    variance = power / 10.0 ** (snr_db / 10.0)
    if np.iscomplexobj(x):
        scale = np.sqrt(variance / 2.0)
        noise = rng.normal(0.0, scale, x.size) + 1j * rng.normal(0.0, scale, x.size)
    else:
        noise = rng.normal(0.0, np.sqrt(variance), x.size)
    return x + noise


def sample_pairs(
    models: Sequence[HarmonicSignalModel],
    impairments: Sequence[ImpairmentSpec],
    n_total: int,
    start: int = 0,
    fast: bool | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample a batch of trials: row ``b`` of ``x0`` and ``x1`` is ``models[b]`` under ``impairments[b]``.

    Both outputs have shape ``(len(models), n_total)``, and each row is bit
    for bit what :func:`sample_pair` gives for that model and impairment.
    The models must be all real or all complex.
    """
    if n_total <= 0:
        raise ValueError("n_total must be positive")
    if not models or len(models) != len(impairments):
        raise ValueError("need at least one model and exactly one impairment per model")
    is_complex = models[0].is_complex
    if any(model.is_complex != is_complex for model in models):
        raise ValueError("the models of one batch must be all real or all complex")
    if not is_complex and any(imp.cfo_fraction != 0.0 or imp.phase_offset != 0.0 for imp in impairments):
        raise ValueError("carrier impairments require a complex model")
    t0 = float(start)
    x0 = _tone_sums(models, [t0] * len(models), [1.0] * len(models), n_total, fast)
    steps = [1.0 + imp.delta for imp in impairments]
    x1 = _tone_sums(models, [t0 * (1.0 + imp.delta) + imp.epsilon for imp in impairments], steps, n_total, fast)
    if not is_complex:
        x0, x1 = np.ascontiguousarray(x0.real), np.ascontiguousarray(x1.real)
    n = np.arange(n_total, dtype=np.float64) + t0
    for row, imp in enumerate(impairments):
        if imp.cfo_fraction != 0.0 or imp.phase_offset != 0.0:
            omega_cfo = 2.0 * np.pi * imp.cfo_fraction / imp.n_fft if imp.cfo_fraction else 0.0
            t1 = n * (1.0 + imp.delta) + imp.epsilon
            x0[row] = x0[row] * np.exp(1j * (omega_cfo * n + imp.phase_offset))
            x1[row] = x1[row] * np.exp(1j * (omega_cfo * t1 + imp.phase_offset))
        if imp.snr_db is not None:
            rng = np.random.default_rng(imp.seed)
            x0[row] = add_awgn(x0[row], imp.snr_db, rng)
            x1[row] = add_awgn(x1[row], imp.snr_db, rng)
    return x0, x1


def sample_pair(
    model: HarmonicSignalModel,
    impairment: ImpairmentSpec,
    n_total: int,
    start: int = 0,
    fast: bool | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the reference and the impaired channel over a common index window.

    Element ``j`` of both outputs corresponds to sample index ``n = start + j``:
    ``x0[j] = x(n)`` and ``x1[j] = x(n*(1+delta) + epsilon)``.  A carrier
    offset rotates the underlying continuous signal, so both chains see it
    at their respective sampling times; per-channel noise is independent.
    This is the one-trial case of :func:`sample_pairs`.
    """
    x0, x1 = sample_pairs([model], [impairment], n_total, start, fast)
    return x0[0], x1[0]

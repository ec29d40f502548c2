"""Exact harmonic test signals and sampling impairments.

Everything downstream of this module assumes the analog waveform is a finite
sum of complex exponentials, so resampling it at arbitrary (fractional) time
instants is exact: there is no interpolation error in the generated data, and
any residual after compensation is attributable to the compensator itself.

A model evaluated on an affine time grid ``t_j = t0 + j*step`` with a uniform
frequency grid reduces to a chirp-z transform; that fast path agrees with
direct evaluation to about 1e-10 of the peak sample magnitude (7.99e-11 to
1.09e-10 measured for 16-QAM OFDM models of 1537 tones over 1036 samples,
2.2e-11 to 2.7e-11 in RMS; the tests bound that case at 1.25e-10).  The
error grows with the sample count: at most 2.5e-12 of the peak for the
64-tone multisine over 1060 samples, 1.6e-12 to 9.6e-12 for 512-line
bandpass noise over 100 to 548 samples, 4.8e-16 to 5.2e-12 for a 3-tone
model over 5 to 500 samples, and 0 for one tone (the tests bound the
multisine and the small models at 1e-11).  The path follows the grid
alone: the chirp-z transform for every uniform grid, at any size, and the
direct sum for every other one.
The transform is Bluestein's algorithm (Rabiner, Schafer & Rader, "The
chirp z-transform algorithm", BSTJ 1969) on ``numpy.fft``, written here with
the arithmetic of ``scipy.signal.CZT`` at start point 1, so the samples are
bit for bit those of that class; the package itself needs NumPy alone and
imports no SciPy module.
A chirp-z plan depends only on ``(n_tones, count, w)``, and within a
campaign the sizes are fixed and ``w = exp(1j*dw*step)`` takes one value per
sampling rate, so plans are kept in a module-level cache bounded by the
bytes of their arrays (:data:`_CZT_PLAN_CACHE_BYTES`) and shared across
trials and models.  OFDM models share one read-only layout, which carries
its frequency grid already checked, so an OFDM model checks only its
coefficients; every other model checks its grid as it is built.  The phase
vectors that multiply a row before and after the transform depend only on
the grid's spacing or first tone, the row's start time and step, and the
sizes, which a campaign's offset grid fixes, so they are cached too, by the
exact bits of those inputs.  Plans, layouts and phase vectors share the
plan budget: the plan cache may fill all of it, the layout cache a
sixteenth, and the input and the output phase caches a thirty-second each.
A cached plan or vector is the result of the same arithmetic on the same
inputs as a fresh one, so the samples are bit for bit those of one built on
every call.  The transform runs in place on one flat zero-padded buffer
per call, sized for the largest group of rows that share a plan: each
row's input is written straight into the head of its padded row, only the
padding is zeroed, and every plan of the call reuses the buffer in turn.
The noise is added in place.

The sampler has a leading trial axis: :func:`sample_pairs` samples one
model under one impairment per row, and :func:`sample_pair` is its
one-trial case.  Rows whose models share a chirp-z plan go through one
stacked transform, and rows with one start time and step read one cached
pair of phase vectors.  Stacked FFTs and real elementwise operations
give every row exactly the bits of a one-row call, but a complex multiply
broadcast across rows can differ from the one-row product in the last bit
(about 1e-13 was seen on x0), so the phase multiplies before and after the
transform, the carrier rotation and the noise run row by row on contiguous
rows.  Every Monte-Carlo campaign samples its trials through it, capped at
``harness.TRIAL_CHUNK`` rows a batch, which bounds the memory a batch holds.

With ``real=True`` the sampler returns the real components alone, each row
bit for bit the real part of that row in a complex call, for campaigns that
estimate from one real component.  The noise is drawn in the order of a
complex call: each trial's generator gives x0 its in-phase and then its
quadrature block, and x1 its in-phase block, which goes straight into the
real output.  x1's quadrature block, the last draw, is not drawn at all.
x0's is drawn although nothing reads it: the ziggurat sampler takes a
varying number of random bits, so skipping it would shift x1's noise.  The
SNR is still measured against the complex power of each channel.

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

import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

MAX_OMEGA = 0.9 * np.pi

_DIRECT_CHUNK = 4096

# Bytes of plan arrays the chirp-z cache may hold.  A desk campaign needs at
# most 30 plans at once (approx_sweep: 15 window lengths times 2 sampling
# rates) of about 0.1 MiB each; one (512, 2**20) plan alone holds 32 MiB.
# The OFDM-layout cache gets a sixteenth of it and each phase-vector cache a
# thirty-second (2 MiB: a desk grid's 25 + 25 vectors take 0.6 + 0.4 MiB), so
# the four together hold at most 72 MiB of arrays beyond the entry each built
# last, which always stays.
_CZT_PLAN_CACHE_BYTES = 64 << 20


def _next_fast_len(n: int) -> int:
    """Smallest 11-smooth integer ``>= n``: a length that ``numpy.fft`` transforms fast (as ``scipy.fft.next_fast_len``)."""
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


class _ChirpZPlan:
    """Chirp-z transform ``y[..., j] = sum_k x[..., k] * w**(j*k)``, ``k < n``, ``j < m``, along the last axis.

    Bluestein's algorithm on ``numpy.fft`` with exactly the arithmetic of
    ``scipy.signal.CZT(n, m, w, 1+0j)``, so the output is bit for bit that
    class's.  The chirps are computed once.  :meth:`transform` runs in place
    on a caller's buffer of ``nfft`` columns whose first ``n`` hold the
    input, and the result is a view of the buffer.
    """

    def __init__(self, n: int, m: int, w: complex) -> None:
        wk2 = w ** (np.arange(max(m, n)) ** 2 / 2.0)
        self.n, self.m = n, m
        self.nfft = _next_fast_len(n + m - 1)
        self._wk2_n = wk2[:n]
        self._wk2_m = wk2[:m]
        self._fwk2 = np.fft.fft(1 / np.hstack((wk2[n - 1 : 0 : -1], wk2[:m])), self.nfft)
        self.nbytes = sum(v.nbytes for v in (self._wk2_n, self._wk2_m, self._fwk2))

    def transform(self, a: np.ndarray) -> np.ndarray:
        """Transform the input held in ``a[..., :n]``, zeroing the padding ``a[..., n:]``; ``a`` (complex, C-contiguous) is overwritten."""
        head = a[..., : self.n]
        np.multiply(head, self._wk2_n, out=head)
        a[..., self.n :] = 0.0
        np.fft.fft(a, out=a)
        # Operands in this order: a complex multiply is not bitwise commutative.
        np.multiply(self._fwk2, a, out=a)
        y = np.fft.ifft(a, out=a)[..., self.n - 1 : self.n + self.m - 1]
        return np.multiply(y, self._wk2_m, out=y)


class _CacheInfo(NamedTuple):
    hits: int
    misses: int
    currsize: int
    nbytes: int


class _ByteLRU:
    """Values ``build(*key)`` by key, least recently used evicted first past ``share`` of :data:`_CZT_PLAN_CACHE_BYTES`.

    A value counts its ``nbytes``.  The value just built always stays, even
    when it alone exceeds the budget.  A ``build`` that raises caches nothing.
    """

    def __init__(self, build: Callable[..., Any], share: float = 1.0) -> None:
        self._build = build
        self._share = share
        self._values: OrderedDict[tuple, Any] = OrderedDict()
        self.cache_clear()

    def __call__(self, *key) -> Any:
        value = self._values.get(key)
        if value is not None:
            self._values.move_to_end(key)
            self._hits += 1
            return value
        self._misses += 1
        value = self._values[key] = self._build(*key)
        self._nbytes += value.nbytes
        while self._nbytes > self._share * _CZT_PLAN_CACHE_BYTES and len(self._values) > 1:
            self._nbytes -= self._values.popitem(last=False)[1].nbytes
        return value

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, len(self._values), self._nbytes)

    def cache_clear(self) -> None:
        self._values.clear()
        self._hits = self._misses = self._nbytes = 0


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Grid(NamedTuple):
    """Facts of a validated frequency grid."""

    uniform: bool
    w0: float
    dw: float


def _check_grid(omegas: np.ndarray) -> _Grid:
    """Validate the tone frequencies ``omegas`` (float64) and describe their grid."""
    if not np.all(np.isfinite(omegas)):
        raise ValueError("model parameters must be finite")
    if np.max(np.abs(omegas)) > MAX_OMEGA + 1e-12:
        raise ValueError(f"tone frequencies must satisfy |omega| <= 0.9*pi, got {np.max(np.abs(omegas)):.6f}")
    steps = np.diff(omegas)
    if np.any(steps <= 0):
        raise ValueError("omegas must be strictly increasing")
    uniform = omegas.size < 3 or bool(np.all(np.abs(steps - steps[0]) <= 1e-12))
    return _Grid(uniform, float(omegas[0]), float(steps[0]) if steps.size else 0.0)


# Chirp-z plans by ``(n, m, w)``.
_czt_plan = _ByteLRU(_ChirpZPlan)

# The phase vectors around a chirp-z transform are keyed by the bytes of their
# float inputs: a dict takes -0.0 and 0.0 for one key, yet the two can give
# vectors that differ in the sign of a zero (an output phase at a negative
# step, for one).
_TWO_FLOATS, _THREE_FLOATS = struct.Struct("2d"), struct.Struct("3d")


def _input_phase(floats: bytes, n: int) -> np.ndarray:
    """``exp(1j*dw*t0*arange(n))`` for ``(dw, t0)`` packed in ``floats``: it moves a row's start time into its coefficients."""
    dw, t0 = _TWO_FLOATS.unpack(floats)
    return _read_only(np.exp(1j * dw * t0 * np.arange(n)))


def _output_phase(floats: bytes, count: int) -> np.ndarray:
    """``exp(1j*w0*(t0 + step*arange(count)))`` for ``(w0, t0, step)`` packed in ``floats``: it moves a transform to the grid's first tone."""
    w0, t0, step = _THREE_FLOATS.unpack(floats)
    return _read_only(np.exp(1j * w0 * (t0 + step * np.arange(count))))


_input_phases = _ByteLRU(_input_phase, share=1 / 32)
_output_phases = _ByteLRU(_output_phase, share=1 / 32)


@dataclass(frozen=True, eq=False)
class HarmonicSignalModel:
    """Finite line spectrum with exact evaluation at arbitrary times."""

    coefficients: np.ndarray  # complex tone coefficients c_k
    omegas: np.ndarray
    is_complex: bool = False
    _grid: _Grid | None = None  # the check of ``omegas``, when a layout already holds it

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        omegas = np.asarray(self.omegas, dtype=np.float64)
        if coeffs.shape != omegas.shape or coeffs.ndim != 1:
            raise ValueError("coefficients and omegas must be 1-D arrays of equal length")
        if coeffs.size == 0:
            raise ValueError("model must contain at least one tone")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("model parameters must be finite")
        object.__setattr__(self, "_grid", self._grid or _check_grid(omegas))
        for name, arr in (("coefficients", coeffs), ("omegas", omegas)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_tones(self) -> int:
        return self.omegas.size

    @property
    def has_uniform_grid(self) -> bool:
        """True when the tone frequencies form an exact arithmetic progression."""
        return self._grid.uniform

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


def _tone_sums(models: Sequence[HarmonicSignalModel], t0s: Sequence[float], steps: Sequence[float], count: int) -> np.ndarray:
    """Complex tone sums of ``models[b]`` on the grid ``t0s[b] + steps[b]*arange(count)``, one row each.

    A row takes the chirp-z path when its model's grid is uniform, whatever
    the sizes, and the direct sum otherwise.  Chirp-z rows are grouped by
    plan and transformed by one stacked call per plan; the phase multiplies
    around it run row by row.
    Each row's input goes straight into the head of its padded row in one
    flat buffer per call, sized for the largest group, which every group
    reuses in turn.
    """
    out = np.empty((len(models), count), dtype=np.complex128)
    groups: dict[tuple, list[int]] = {}
    for row, (model, t0, step) in enumerate(zip(models, t0s, steps)):
        if model.has_uniform_grid:
            groups.setdefault((model.n_tones, count, np.exp(1j * model._grid.dw * float(step))), []).append(row)
        else:
            out[row] = model._tone_sum(np.asarray(t0 + step * np.arange(count), dtype=np.float64))
    plans = {key: _czt_plan(*key) for key in groups}
    buffer = np.empty(max((len(rows) * plans[key].nfft for key, rows in groups.items()), default=0), dtype=np.complex128)
    for key, rows in groups.items():
        plan, n_tones = plans[key], key[0]
        a = buffer[: len(rows) * plan.nfft].reshape(len(rows), plan.nfft)
        for i, row in enumerate(rows):
            # sum_m c_m e^{j omega_m t_j} = e^{j w0 t_j} * sum_m (c_m e^{j dw m t0}) e^{j dw s j m}
            phases = _input_phases(_TWO_FLOATS.pack(models[row]._grid.dw, t0s[row]), n_tones)
            np.multiply(models[row].coefficients, phases, out=a[i, :n_tones])
        spectrum = plan.transform(a)
        for i, row in enumerate(rows):
            phases = _output_phases(_THREE_FLOATS.pack(models[row]._grid.w0, t0s[row], steps[row]), count)
            np.multiply(spectrum[i], phases, out=out[row])
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
    levels: np.ndarray  # per-axis level index of each symbol, in-phase and quadrature interleaved (see qam.count_bit_errors)


class _OfdmLayout(NamedTuple):
    bins: np.ndarray  # signed subcarrier indices without DC, ascending
    omegas: np.ndarray  # tone frequencies of the model grid, DC included
    grid: _Grid  # the check of omegas, which every model of the layout takes

    @property
    def nbytes(self) -> int:
        return self.bins.nbytes + self.omegas.nbytes


def _ofdm_layout(n_fft: int, active_subcarriers: int) -> _OfdmLayout:
    """The read-only subcarrier layout that every OFDM model of these sizes shares."""
    half = active_subcarriers // 2
    bins = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    omegas = _read_only(2.0 * np.pi * np.arange(-half, half + 1) / n_fft)
    return _OfdmLayout(_read_only(bins), omegas, _check_grid(omegas))


_ofdm_layouts = _ByteLRU(_ofdm_layout, share=1 / 16)


def make_ofdm(spec: OfdmSpec) -> tuple[HarmonicSignalModel, OfdmPayload]:
    """Build the complex baseband OFDM waveform and its payload.

    Subcarriers ``k = -A/2..A/2`` excluding DC carry random QAM symbols; the
    DC bin is kept in the model with zero amplitude so the frequency grid
    stays uniform for the fast evaluation path.  Models and payloads of one
    layout share its read-only ``omegas``, ``bins`` and checked grid.  The
    payload's level indices are read from the drawn labels, not decided
    from the symbols.
    """
    from . import qam

    rng = np.random.default_rng(spec.seed)
    layout = _ofdm_layouts(spec.n_fft, spec.active_subcarriers)
    half = spec.active_subcarriers // 2
    labels = rng.integers(0, spec.qam_order, size=layout.bins.size)  # the draw of qam.random_symbols
    symbols = qam.constellation(spec.qam_order)[labels]
    coeffs = np.zeros(layout.omegas.size, dtype=np.complex128)
    coeffs[:half], coeffs[half + 1 :] = symbols[:half], symbols[half:]
    model = HarmonicSignalModel(coefficients=coeffs, omegas=layout.omegas, is_complex=True, _grid=layout.grid)
    levels = qam._label_levels(spec.qam_order).take(labels, axis=0).ravel()
    return model, OfdmPayload(bins=layout.bins, symbols=symbols, levels=levels)


class DemodulationPlan(NamedTuple):
    """Where :func:`ofdm_demodulate` finds each subcarrier of one layout, in a period that starts at a given time."""

    n_fft: int
    index: np.ndarray  # FFT bin of each subcarrier: bins mod n_fft
    rotation: np.ndarray  # exp(-2j*pi*bins*start_time/n_fft), which undoes the start time's phase


def demodulation_plan(spec: OfdmSpec, start_time: float) -> DemodulationPlan:
    """The plan for periods of ``spec``'s layout whose first sample is at absolute time ``start_time``.

    A caller that demodulates many periods at one start time builds it once.
    """
    m = spec.n_fft
    bins = _ofdm_layouts(m, spec.active_subcarriers).bins
    return DemodulationPlan(m, np.mod(bins, m), np.exp(-2j * np.pi * bins * start_time / m))


def ofdm_demodulate(samples: np.ndarray, plan: DemodulationPlan) -> np.ndarray:
    """Recover subcarrier symbols, in the order of the payload's bins, from one period of the (compensated) waveform.

    ``samples`` must hold ``n_fft`` consecutive samples whose first element
    corresponds to the plan's start time on the reference grid.  Leading
    axes are separate waveforms of the plan's layout; they share one stacked
    FFT and the plan's rotation.

    Only the active bins are taken from the spectrum, and they are scaled by
    ``1.0 / n_fft``, which gives the bits of a division by ``n_fft``: NumPy
    divides a complex number by a real one with Smith's algorithm, which at
    a zero imaginary part multiplies by the rounded reciprocal.  The scaling
    and the rotation run in place on the array this call makes; ``samples``
    is left as it was.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    m = plan.n_fft
    if samples.shape[-1:] != (m,):
        raise ValueError(f"expected {m} samples, got {samples.shape[-1] if samples.ndim else 0}")
    symbols = np.fft.fft(samples).take(plan.index, axis=-1)
    symbols *= 1.0 / m
    symbols *= plan.rotation
    return symbols


# ── Impairments ───────────────────────────────────────────────────────────────

# Largest finite |snr_db| accepted: 10**(snr_db/10) stays a normal float.
MAX_SNR_DB = 3000.0


def valid_snr_db(snr_db: float) -> bool:
    """True for ``inf`` (noiseless) and for finite SNRs within ``MAX_SNR_DB`` dB of 0."""
    return snr_db == np.inf or abs(snr_db) <= MAX_SNR_DB


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
    ``snr_db=None`` means noiseless; so does ``snr_db=inf``, which still
    draws the (zero-variance) noise.  NaN, ``-inf`` and finite SNRs beyond
    ``MAX_SNR_DB`` in magnitude are rejected, as are a non-finite ``delta``
    or ``epsilon`` and any ``|delta| >= 1``, which would stop or reverse the
    impaired clock.
    """

    delta: float = 0.0
    epsilon: float = 0.0
    snr_db: float | None = None
    cfo_fraction: float = 0.0
    phase_offset: float = 0.0
    n_fft: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not abs(self.delta) < 1.0:
            raise ValueError(f"delta must be finite with |delta| < 1, got {self.delta}")
        if not np.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")
        if self.snr_db is not None and not valid_snr_db(self.snr_db):
            raise ValueError(f"snr_db must be inf or a finite value within +-{MAX_SNR_DB:g} dB, got {self.snr_db}")
        if self.cfo_fraction != 0.0 and self.n_fft is None:
            raise ValueError("cfo_fraction requires n_fft to define the subcarrier spacing")


def add_awgn(x: np.ndarray, snr_db: float, rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
    """Add white Gaussian noise at ``snr_db`` relative to the measured power of ``x``.

    Complex inputs get circular noise with the variance split evenly between
    the real and imaginary parts, drawn in that order.  The noisy signal
    goes to ``out`` (a new array by default; ``out=x`` adds the noise in
    place) and is returned.  A real ``out`` of a complex ``x`` holds the
    real part of ``x`` and takes the real part's noise alone; the imaginary
    part's is not drawn.
    """
    # The bits of np.mean(np.abs(x) ** 2), with one temporary.
    t = np.abs(x)
    t *= t
    power = float(np.add.reduce(t, axis=None) / t.size)
    variance = power / 10.0 ** (snr_db / 10.0)
    out = np.array(x, dtype=np.result_type(x, np.float64)) if out is None else out
    scale = np.sqrt(variance / 2.0 if np.iscomplexobj(x) else variance)
    out.real += rng.normal(0.0, scale, out.size)
    if np.iscomplexobj(out):
        out.imag += rng.normal(0.0, scale, out.size)
    return out


def sample_pairs(
    models: Sequence[HarmonicSignalModel],
    impairments: Sequence[ImpairmentSpec],
    n_total: int,
    start: int = 0,
    real: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample a batch of trials: row ``b`` of ``x0`` and ``x1`` is ``models[b]`` under ``impairments[b]``.

    Both outputs have shape ``(len(models), n_total)``, and each row is bit
    for bit what :func:`sample_pair` gives for that model and impairment.
    The models must be all real or all complex.  With ``real``, complex
    models give the real components alone, each bit for bit the real part
    of the complex call's row; the noise is drawn in the complex call's
    order, up to x1's imaginary part, which is not drawn.
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
    x0 = _tone_sums(models, [t0] * len(models), [1.0] * len(models), n_total)
    # A real model's x0 drops its complex sums before x1's are formed.
    if not is_complex:
        x0 = np.ascontiguousarray(x0.real)
    steps = [1.0 + imp.delta for imp in impairments]
    x1 = _tone_sums(models, [t0 * (1.0 + imp.delta) + imp.epsilon for imp in impairments], steps, n_total)
    if not is_complex:
        x1 = np.ascontiguousarray(x1.real)
    # With ``real``, x1's noise goes to its real rows alone, so its imaginary
    # part's, the last draw, is not drawn.  x0's is, since x1's follows it.
    y1 = np.empty(x1.shape) if real and is_complex else x1
    n = np.arange(n_total, dtype=np.float64) + t0
    for row, imp in enumerate(impairments):
        if imp.cfo_fraction != 0.0 or imp.phase_offset != 0.0:
            omega_cfo = 2.0 * np.pi * imp.cfo_fraction / imp.n_fft if imp.cfo_fraction else 0.0
            t1 = n * (1.0 + imp.delta) + imp.epsilon
            x0[row] *= np.exp(1j * (omega_cfo * n + imp.phase_offset))
            x1[row] *= np.exp(1j * (omega_cfo * t1 + imp.phase_offset))
        if y1 is not x1:
            y1[row] = x1[row].real
        if imp.snr_db is not None:
            rng = np.random.default_rng(imp.seed)
            add_awgn(x0[row], imp.snr_db, rng, out=x0[row])
            add_awgn(x1[row], imp.snr_db, rng, out=y1[row])
    if y1 is not x1:
        x0 = np.ascontiguousarray(x0.real)
    return x0, y1


def sample_pair(
    model: HarmonicSignalModel,
    impairment: ImpairmentSpec,
    n_total: int,
    start: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the reference and the impaired channel over a common index window.

    Element ``j`` of both outputs corresponds to sample index ``n = start + j``:
    ``x0[j] = x(n)`` and ``x1[j] = x(n*(1+delta) + epsilon)``.  A carrier
    offset rotates the underlying continuous signal, so both chains see it
    at their respective sampling times; per-channel noise is independent.
    This is the one-trial case of :func:`sample_pairs`.
    """
    x0, x1 = sample_pairs([model], [impairment], n_total, start)
    return x0[0], x1[0]

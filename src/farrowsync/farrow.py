"""Variable fractional-delay resampler with polynomial (Farrow) structure.

The compensator delays the measured stream ``x1`` by a slowly varying amount
``d(n) = n*delta + epsilon`` expressed in samples.  It runs ``x1`` through a
fixed bank of ``L+1`` FIR branch filters ``g_0..g_L`` once, then combines the
branch outputs per sample with a degree-``L`` polynomial in ``d(n)``:

    u_k[n] = sum_i g_k[i] * x1[n + N_G - i]        (steady state only)
    y[n]   = sum_k d(n)**k * u_k[n]                 (Horner evaluation)

Branch 0 is a pure delay of ``N_G/2`` samples, so ``u_0[n] = x1[n + N_G/2]``
and ``y == u_0`` exactly when ``d == 0``.  All branch filters share the even
order ``N_G``; the bank is designed for ``|d| <= 0.5`` and callers flag, but
do not reject, delays outside that range.

Output sample ``n`` of the window corresponds to input sample ``n + N_G/2``
of ``x1``, i.e. the caller hands in a stream whose first ``N_G/2`` samples
are run-up history.  A complex stream is filtered as two real ones, its real
and imaginary parts, into complex branch outputs; their Horner combination
equals two real resamplers, one per component, bit for bit.

The Horner pass runs in place: the first step ``y = u_L * d`` allocates the
result, and every later step is ``y *= d; y += u_k``, the same operations in
the same order as ``y = y * d + u_k``, so only one output-sized array is
made per call.  That one pass also gives the estimator its delay derivatives
(see :mod:`farrowsync.estimation`), so both run the same operations.

The branch outputs are a plain array ``u`` of shape ``(..., L+1, N)``, and
branch ``k`` is the view ``u[..., k, :]``.  Leading axes are trials, with one
stream's outputs per leading index; offsets holding arrays of that batch
shape then give one delay law per trial.  Offset arrays with a trailing axis
of their own give several delay laws per stream: params of shape ``(K,)`` on
one stream's ``(L+1, N)`` outputs give ``(K, N)``, and params of shape
``(B, K)`` on outputs of shape ``(B, 1, L+1, N)`` give ``(B, K, N)``.  Each
row of a batched call is exactly the output of a one-law call, because the
Horner passes multiply by a real delay elementwise.  The filter takes the
same leading trial axes on its input streams and runs each stream on its
own, so a batch of streams is filtered in one call with the bits of
one-stream calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Largest per-sample delay magnitude the banks are designed for.
DESIGN_DELAY_LIMIT = 0.5

# Output columns per branch-filter product: each block copies at most
# (N_G+1) x 4096 input samples, so a long stream needs no copy of its full
# window matrix.
_FILTER_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class CoefficientBank:
    """Branch filter taps, shape ``(L+1, N_G+1)``; row ``k`` holds ``g_k``."""

    taps: np.ndarray

    def __post_init__(self) -> None:
        taps = np.array(self.taps, dtype=np.float64)
        if taps.ndim != 2 or taps.shape[0] < 2 or taps.shape[1] < 3:
            raise ValueError("taps must be 2-D with at least 2 rows and 3 columns")
        order = taps.shape[1] - 1
        if order % 2 != 0:
            raise ValueError(f"filter order must be even, got {order}")
        expected = np.zeros(order + 1)
        expected[order // 2] = 1.0
        if not np.array_equal(taps[0], expected):
            raise ValueError("row 0 must be the unit pulse at index N_G/2 (pure delay)")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps must be finite")
        taps.setflags(write=False)
        object.__setattr__(self, "taps", taps)

    @property
    def degree(self) -> int:
        """Polynomial degree L (number of branch filters minus one)."""
        return self.taps.shape[0] - 1

    @property
    def order(self) -> int:
        """Branch filter order N_G (number of taps minus one)."""
        return self.taps.shape[1] - 1

    @property
    def group_delay(self) -> int:
        """Integer bulk delay N_G/2 shared by every branch."""
        return self.taps.shape[1] // 2


def compute_subfilter_outputs(x1: np.ndarray, bank: CoefficientBank) -> np.ndarray:
    """Run the measured stream through every branch filter (steady state only).

    ``u[k][n] = sum_i g_k[i] * x1[n + N_G - i]`` for ``n = 0..len(x1)-N_G-1``,
    so the output window is ``N_G`` samples shorter than the input.  All
    branches run as one matrix product of the reversed taps with the sliding
    windows of ``x1``, taken over blocks of output columns, and each product
    is written straight into its slot of the result, a float64 array.  A
    complex stream runs as two real passes, one per component, into a
    complex128 one.  Leading axes of ``x1`` are trials: ``(..., n)`` gives
    ``(..., L+1, n - N_G)``, each stream filtered on its own, so every trial
    gets the bits of a one-stream call.
    """
    x1 = np.asarray(x1)
    order = bank.order
    n_out = (x1.shape[-1] if x1.ndim else 0) - order
    if n_out <= 0:
        raise ValueError(f"need more than N_G = {order} input samples per stream, got {n_out + order}")
    # Contiguous streams of u's dtype (strided ones, such as the real parts of
    # complex streams, are copied), so that each window matrix is a view.
    rows = np.ascontiguousarray(x1.reshape(-1, x1.shape[-1]), dtype=np.complex128 if np.iscomplexobj(x1) else np.float64)
    u = np.empty((len(rows), bank.degree + 1, n_out), dtype=rows.dtype)
    passes = [(u.real, 0), (u.imag, 8)] if np.iscomplexobj(x1) else [(u, 0)]
    step = rows.itemsize
    reversed_taps = bank.taps[:, ::-1]
    # A non-finite input sample gives non-finite outputs quietly, as a
    # convolution would; the estimator rejects them.
    with np.errstate(invalid="ignore", over="ignore"):
        for out, offset in passes:
            for start in range(0, n_out, _FILTER_BLOCK):
                stop = min(start + _FILTER_BLOCK, n_out)
                for b in range(len(rows)):
                    # Row j of stream b's window matrix holds the component's samples
                    # start + j .. stop + j - 1, so column n holds n .. n + N_G.  The
                    # product of a contiguous copy runs faster than that of the view.
                    windows = np.ndarray((order + 1, stop - start), np.float64, rows[b], offset + start * step, (step, step))
                    np.matmul(reversed_taps, np.ascontiguousarray(windows), out=out[b, :, start:stop])
    return u.reshape(x1.shape[:-1] + u.shape[1:])


def delay_sequence(params, n_samples: int, n0: int = 0) -> np.ndarray:
    """Per-sample delay ``d(n) = n*delta + epsilon`` for ``n = n0..n0+n_samples-1``.

    ``params`` holding arrays of a batch shape gives one row per trial.
    """
    n = np.arange(n0, n0 + n_samples, dtype=np.float64)
    return n * np.asarray(params.delta)[..., None] + np.asarray(params.epsilon)[..., None]


def delay_out_of_range(params, n_samples: int) -> bool:
    """True when any ``|d(n)|`` over the window ``n = 0..n_samples-1`` exceeds :data:`DESIGN_DELAY_LIMIT`."""
    if n_samples <= 0:
        return False
    return bool(max(abs(float(n) * params.delta + params.epsilon) for n in (0, n_samples - 1)) > DESIGN_DELAY_LIMIT)


def _horner(d: np.ndarray, terms) -> np.ndarray:
    """Evaluate at ``d`` the polynomial whose coefficient arrays ``terms`` run from the highest degree down.

    The first multiply allocates the broadcast result and every later step
    is ``y *= d; y += t``, the operations of ``y = y * d + t`` in the same
    order.  A lone term is returned as it is, without ``d``.
    """
    terms = iter(terms)
    y = next(terms)
    t = next(terms, None)
    if t is None:
        return y
    y = y * d
    y += t
    for t in terms:
        y *= d
        y += t
    return y


def farrow_output(u: np.ndarray, params, n0: int = 0) -> np.ndarray:
    """Combine branch outputs into the compensated stream via Horner's rule, in place on one result array.

    On complex branch outputs the delay law is cast to complex once, to the
    ``(d, 0)`` that the multiply would otherwise make in its buffer on every
    Horner step, so the bits are the same; a real stream takes no copy.
    """
    d = delay_sequence(params, u.shape[-1], n0)
    return _horner(d.astype(u.dtype, copy=False), (u[..., k, :] for k in range(u.shape[-2] - 1, -1, -1)))


# ── Serialization ─────────────────────────────────────────────────────────────


def bank_to_text(bank: CoefficientBank) -> str:
    """Render a bank in the interchange format: ``L N_G`` header, one row per line."""
    lines = [f"{bank.degree} {bank.order}"]
    for row in bank.taps:
        lines.append(" ".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def bank_from_text(text: str) -> CoefficientBank:
    """Parse the interchange format produced by :func:`bank_to_text`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty coefficient bank file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("header must contain exactly two integers: degree and order")
    degree, order = int(header[0]), int(header[1])
    if len(lines) != degree + 2:
        raise ValueError(f"expected {degree + 1} coefficient rows, found {len(lines) - 1}")
    taps = np.empty((degree + 1, order + 1), dtype=np.float64)
    for k, line in enumerate(lines[1:]):
        values = [float(tok) for tok in line.split()]
        if len(values) != order + 1:
            raise ValueError(f"row {k} has {len(values)} taps, expected {order + 1}")
        taps[k] = values
    return CoefficientBank(taps)


def save_bank(bank: CoefficientBank, path: str | Path) -> None:
    Path(path).write_text(bank_to_text(bank))


def load_bank(path: str | Path) -> CoefficientBank:
    return bank_from_text(Path(path).read_text())

"""Quality metrics.

NMSE compares a compensated stream against an aligned reference over the
same window, normalized by the reference power; BER scores hard-decision
QAM demodulation.
"""

from __future__ import annotations

import numpy as np

from . import qam


def nmse(y: np.ndarray, reference: np.ndarray) -> float | np.ndarray:
    """``sum |y - ref|^2 / sum |ref|^2`` over a common window, the last axis.

    Leading axes are separate windows and ``reference`` broadcasts against
    ``y``; the result holds one score per window, each with the bits of a
    one-window call, because every sum runs along the contiguous last axis.
    One window gives a float.
    """
    y = np.asarray(y)
    reference = np.asarray(reference)
    if y.shape[-1:] != reference.shape[-1:]:
        raise ValueError("compensated and reference windows must have the same shape")
    # np.add.reduce is np.sum without its Python wrapper, which cost more
    # than the sums themselves on short windows.
    denom = np.add.reduce(np.abs(reference) ** 2, axis=-1)
    if not denom.all():
        raise ValueError("reference window has zero power")
    score = np.add.reduce(np.abs(y - reference) ** 2, axis=-1) / denom
    if score.shape != y.shape[:-1]:
        raise ValueError("the reference has more windows than the compensated stream")
    return float(score) if score.ndim == 0 else score


def qam_demod_ber(rx_symbols: np.ndarray, tx_symbols: np.ndarray, qam_order: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Hard-decision bit error count and rate per block of QAM symbols (the last axis; see :func:`qam.count_bit_errors`)."""
    errors, total = qam.count_bit_errors(rx_symbols, tx_symbols, qam_order)
    return errors, total, errors / total

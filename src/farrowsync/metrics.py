"""Quality metrics.

NMSE compares a compensated stream against an aligned reference over the
same window, normalized by the reference power; BER scores hard-decision
QAM demodulation.
"""

from __future__ import annotations

import numpy as np

from . import qam


def nmse(y: np.ndarray, reference: np.ndarray) -> float:
    """``sum |y - ref|^2 / sum |ref|^2`` over a common window."""
    y = np.asarray(y)
    reference = np.asarray(reference)
    if y.shape != reference.shape:
        raise ValueError("compensated and reference windows must have the same shape")
    denom = float(np.sum(np.abs(reference) ** 2))
    if denom == 0.0:
        raise ValueError("reference window has zero power")
    return float(np.sum(np.abs(y - reference) ** 2)) / denom


def qam_demod_ber(rx_symbols: np.ndarray, tx_symbols: np.ndarray, qam_order: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Hard-decision bit error count and rate per block of QAM symbols (the last axis; see :func:`qam.count_bit_errors`)."""
    errors, total = qam.count_bit_errors(rx_symbols, tx_symbols, qam_order)
    return errors, total, errors / total

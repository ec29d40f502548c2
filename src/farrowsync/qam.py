"""Gray-coded square QAM constellations.

Symbols live on the integer grid {..., -3, -1, 1, 3, ...} per axis and are
deliberately left unnormalized; generators that need a particular signal
power scale the symbols themselves.  Bit labels are Gray-coded per axis,
in-phase bits first, so nearest-neighbour symbol errors cost one bit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_SUPPORTED_ORDERS = (4, 16, 64, 256)


def _check_order(order: int) -> int:
    if order not in _SUPPORTED_ORDERS:
        raise ValueError(f"unsupported QAM order {order}; expected one of {_SUPPORTED_ORDERS}")
    return int(round(np.sqrt(order)))


def bits_per_symbol(order: int) -> int:
    """Number of bits carried by one symbol of a square QAM constellation."""
    _check_order(order)
    return int(np.log2(order))


@lru_cache(maxsize=None)
def constellation(order: int) -> np.ndarray:
    """Return the full constellation, indexed by the integer bit label.

    ``constellation(order)[label]`` is the complex symbol whose Gray-coded
    bit pattern equals ``label`` (in-phase bits in the high positions).
    Built once per order and shared: the array is read-only.
    """
    m = _check_order(order)
    half = bits_per_symbol(order) // 2
    labels = np.arange(order)
    gray_i = labels >> half
    gray_q = labels & (m - 1)
    points = np.empty(order, dtype=np.complex128)
    points.real = 2 * _gray_decode(gray_i, m) - (m - 1)
    points.imag = 2 * _gray_decode(gray_q, m) - (m - 1)
    points.setflags(write=False)
    return points


def _gray_decode(code: np.ndarray, m: int) -> np.ndarray:
    """Invert the per-axis Gray code ``g = i ^ (i >> 1)`` for levels 0..m-1."""
    index = np.zeros_like(code)
    shift = code.copy()
    while np.any(shift):
        index ^= shift
        shift = shift >> 1
    return index


def _gray_encode(index: np.ndarray) -> np.ndarray:
    return index ^ (index >> 1)


def random_symbols(order: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` uniform random symbols from the order-``order`` grid."""
    points = constellation(order)
    return points[rng.integers(0, order, size=size)]


def hard_decision_labels(symbols: np.ndarray, order: int) -> np.ndarray:
    """Quantize noisy symbols to the nearest grid point and return bit labels."""
    m = _check_order(order)
    half = bits_per_symbol(order) // 2
    idx_i = _nearest_level_index(np.real(symbols), m)
    idx_q = _nearest_level_index(np.imag(symbols), m)
    return (_gray_encode(idx_i) << half) | _gray_encode(idx_q)


def _nearest_level_index(values: np.ndarray, m: int) -> np.ndarray:
    # Levels are 2*i - (m - 1); round to the nearest and clip to the grid.
    idx = np.rint((np.asarray(values, dtype=np.float64) + (m - 1)) / 2.0).astype(np.int64)
    return np.clip(idx, 0, m - 1)


def count_bit_errors(rx_symbols: np.ndarray, tx_symbols: np.ndarray, order: int) -> tuple[np.ndarray, int]:
    """Hard-demodulate ``rx_symbols`` and count bit errors against the sent symbols.

    The last axis is one block of symbols and leading axes of ``rx_symbols``
    are separate blocks; ``tx_symbols`` broadcasts against them, so one sent
    block scored against several received ones is labelled once.  Returns
    ``(bit_errors, total_bits)`` per block.
    """
    rx_symbols = np.asarray(rx_symbols)
    tx_symbols = np.asarray(tx_symbols)
    if np.broadcast_shapes(rx_symbols.shape, tx_symbols.shape) != rx_symbols.shape:
        raise ValueError(f"tx symbols of shape {tx_symbols.shape} do not broadcast against rx symbols of shape {rx_symbols.shape}")
    rx_labels = hard_decision_labels(rx_symbols, order)
    tx_labels = hard_decision_labels(tx_symbols, order)
    diff = rx_labels ^ tx_labels
    errors = np.bitwise_count(diff.astype(np.uint64)).sum(axis=-1)
    total = rx_symbols.shape[-1] * bits_per_symbol(order)
    return errors, total

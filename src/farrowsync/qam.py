"""Gray-coded square QAM constellations.

Symbols live on the integer grid {..., -3, -1, 1, 3, ...} per axis and are
deliberately left unnormalized; generators that need a particular signal
power scale the symbols themselves.  Bit labels are Gray-coded per axis,
in-phase bits first, so nearest-neighbour symbol errors cost one bit.
Bit errors are counted from a per-axis table of Gray-label distances; its
integer sums equal the XOR-popcount of the labels exactly.
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


def _decide(symbols: np.ndarray, m: int) -> np.ndarray:
    """Nearest level index of every in-phase and quadrature part, interleaved along the last axis.

    Levels are ``2*i - (m - 1)``, so the index is ``rint((v + (m - 1)) / 2)``
    clipped to ``[0, m - 1]``: rint rounds a tie on a decision boundary to
    the even index, and a value beyond the outer levels decides the outer
    one.  Both parts of a block run in one pass over its interleaved float
    view.
    """
    values = np.ascontiguousarray(symbols, dtype=np.complex128).view(np.float64)
    if not np.isfinite(values).all():
        raise ValueError("symbols must be finite")
    index = values + (m - 1)
    index *= 0.5  # the bits of a division by 2: both round the same exact value
    np.rint(index, out=index)
    np.clip(index, 0, m - 1, out=index)
    return index.astype(np.intp)


@lru_cache(maxsize=None)
def _label_levels(order: int) -> np.ndarray:
    """``table[label]``: the in-phase and quadrature level indices of the symbol with that label, shape ``(order, 2)``.

    Taking a block's labels from it and flattening gives the interleaved
    levels that :func:`_decide` finds for the block's symbols.  Built on
    first use, like :func:`constellation`.
    """
    return _decide(constellation(order), _check_order(order)).reshape(order, 2)


def _bit_distance(m: int) -> np.ndarray:
    """``table[i * m + j]``: the number of bits in which the per-axis Gray labels of levels ``i`` and ``j`` differ."""
    gray = _gray_encode(np.arange(m))
    return np.bitwise_count(gray[:, None] ^ gray).ravel()


#: The per-axis bit distance table of each supported order, by its level count ``m``.
_BIT_DISTANCE = {m: _bit_distance(m) for m in map(_check_order, _SUPPORTED_ORDERS)}


def count_bit_errors(rx_symbols: np.ndarray, tx_symbols: np.ndarray, order: int) -> tuple[np.ndarray, int]:
    """Hard-demodulate ``rx_symbols`` and count bit errors against the sent symbols.

    The last axis is one block of symbols and leading axes of ``rx_symbols``
    are separate blocks; ``tx_symbols`` broadcasts against them, so one sent
    block scored against several received ones is decided once.  An integer
    ``tx_symbols`` holds the sent symbols' level indices instead, in-phase
    and quadrature interleaved along the last axis (as ``OfdmPayload.levels``),
    and is not decided at all; a level outside ``[0, sqrt(order))`` is a
    ``ValueError``, as is a non-finite symbol.  Returns
    ``(bit_errors, total_bits)`` per block.

    A symbol's label holds the in-phase Gray bits above the quadrature ones,
    so the popcount of the XOR of two labels is the sum of the per-axis
    popcounts.  Each part's decided levels index a table of those per-axis
    distances, and the exact integer sum of the table entries equals the
    XOR-popcount of the labels.
    """
    rx_symbols = np.asarray(rx_symbols)
    tx_symbols = np.asarray(tx_symbols)
    m = _check_order(order)
    pairs = _decide(rx_symbols, m) * m
    if tx_symbols.dtype.kind == "i":
        # A level outside [0, m) would index another pair's table entry.
        if tx_symbols.size and (tx_symbols.min() < 0 or tx_symbols.max() >= m):
            raise ValueError(f"sent level indices must lie in [0, {m})")
    else:
        tx_symbols = _decide(tx_symbols, m)
    # In place, so a tx that does not broadcast against rx is a ValueError.
    pairs += tx_symbols
    errors = _BIT_DISTANCE[m].take(pairs).sum(axis=-1)
    total = rx_symbols.shape[-1] * bits_per_symbol(order)
    return errors, total

"""Gray-coded QAM constellation and bit-error counting."""

import warnings

import numpy as np
import pytest

from farrowsync import qam


@pytest.mark.parametrize("order", [4, 16, 64, 256])
def test_constellation_covers_the_square_grid(order):
    points = qam.constellation(order)
    m = int(round(np.sqrt(order)))
    levels = np.arange(-(m - 1), m, 2)
    assert points.size == order
    assert len(set(points.tolist())) == order
    assert set(np.real(points)) == set(levels.astype(float))
    assert set(np.imag(points)) == set(levels.astype(float))


@pytest.mark.parametrize("order", [4, 16, 64, 256])
def test_nearest_neighbours_differ_in_one_bit(order):
    points = qam.constellation(order)
    labels = np.arange(order)
    for a in range(order):
        for b in range(a + 1, order):
            if abs(points[a] - points[b]) == 2.0:
                assert bin(labels[a] ^ labels[b]).count("1") == 1


def _reference_labels(symbols, order):
    """Gray labels of the nearest grid points, decided part by part: ``rint((v + (m - 1)) / 2)`` clipped to the grid."""
    m = int(round(np.sqrt(order)))
    half = qam.bits_per_symbol(order) // 2
    gray = [i ^ (i >> 1) for i in range(m)]

    def level(v):
        return gray[int(min(max(np.rint((v + (m - 1)) / 2.0), 0), m - 1))]

    return np.array([(level(z.real) << half) | level(z.imag) for z in np.ravel(symbols)], dtype=np.uint64).reshape(np.shape(symbols))


@pytest.mark.parametrize("order", [4, 16, 64, 256])
def test_hard_decision_roundtrip(order):
    # Every grid point, nudged anywhere inside its decision cell, decides its
    # own label: against point b it costs the bits in which a and b differ.
    points = qam.constellation(order)
    labels = np.arange(order)
    for nudge in (0.0, 0.49 - 0.49j, -0.49 + 0.49j):
        rx = np.broadcast_to((points + nudge)[:, None, None], (order, order, 1))
        errors, total = qam.count_bit_errors(rx, points[:, None], order)
        assert errors.shape == (order, order) and total == qam.bits_per_symbol(order)
        np.testing.assert_array_equal(errors, np.bitwise_count(labels[:, None] ^ labels[None, :]))


def test_hard_decision_clips_outside_the_grid():
    # Beyond the outer levels, however far and on either axis, decides the corner.
    far = np.array([100.0 + 100.0j, -100.0 - 100.0j, 1e300 - 1e300j, -1e300 + 4.0j])
    corners = np.array([3.0 + 3.0j, -3.0 - 3.0j, 3.0 - 3.0j, -3.0 + 3.0j])
    assert qam.count_bit_errors(far, corners, 16) == (0, 16)


@pytest.mark.parametrize("order", [4, 16, 64, 256])
def test_bit_counts_equal_the_xor_popcount_of_the_decided_labels(order):
    m = int(round(np.sqrt(order)))
    # Per axis: every level, every decision boundary (a tie, which rint
    # rounds to the even index), points just inside and beyond the outer
    # levels and far out, each against every sent level.
    values = np.concatenate([np.arange(-m, m + 1, dtype=float), [-m - 0.7, m + 0.7, -1e300, 1e300, 0.999, -1.001]])
    levels = np.arange(-(m - 1), m, 2, dtype=float)
    rx_part, tx_part = (a.ravel() for a in np.meshgrid(values, levels, indexing="ij"))
    shuffle = np.random.default_rng(order).permutation(rx_part.size)
    rx = rx_part + 1j * rx_part[shuffle]
    tx = tx_part + 1j * tx_part[shuffle]
    # Broadcast blocks: rx of (2, 3, n) against tx of (3, n).
    rx = np.stack([np.stack([np.roll(rx, 5 * a + b) for b in range(3)]) for a in range(2)])
    tx = np.stack([np.roll(tx, b) for b in range(3)])
    errors, total = qam.count_bit_errors(rx, tx, order)
    expected = np.bitwise_count(_reference_labels(rx, order) ^ _reference_labels(np.broadcast_to(tx, rx.shape), order)).sum(axis=-1)
    assert errors.shape == (2, 3) and total == rx.shape[-1] * qam.bits_per_symbol(order)
    np.testing.assert_array_equal(errors, expected)
    assert expected.min() > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, np.inf)])
def test_count_bit_errors_rejects_non_finite_symbols(bad):
    tx = qam.constellation(16)[:4]
    rx = tx.copy()
    rx[2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast warning on the way to the error
        with pytest.raises(ValueError, match="finite"):
            qam.count_bit_errors(rx, tx, 16)
        with pytest.raises(ValueError, match="finite"):
            qam.count_bit_errors(np.stack([tx, rx]), tx, 16)


def test_bits_per_symbol():
    assert [qam.bits_per_symbol(o) for o in (4, 16, 64, 256)] == [2, 4, 6, 8]
    with pytest.raises(ValueError):
        qam.bits_per_symbol(32)


def test_count_bit_errors_exact():
    points = qam.constellation(16)
    tx = points[np.array([0, 5, 9, 15])]
    # Move the second symbol one grid step: exactly one bit flips.
    rx = tx.copy()
    rx[1] += 2.0
    errors, total = qam.count_bit_errors(rx, tx, 16)
    assert total == 16
    assert errors == 1
    # No perturbation, no errors.
    assert qam.count_bit_errors(tx, tx, 16) == (0, 16)


def test_count_bit_errors_rejects_sent_levels_outside_the_axis():
    # 16-QAM has levels 0..3 per axis; a level of 4 or -1 would index another pair's table entry.
    rx = np.array([-3.0 - 3.0j])  # levels (0, 0)
    assert qam.count_bit_errors(rx, np.array([0, 0]), 16) == (0, 4)
    for levels in ((4, 0), (-1, 0)):
        with pytest.raises(ValueError, match="level"):
            qam.count_bit_errors(rx, np.array(levels), 16)


def test_count_bit_errors_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        qam.count_bit_errors(np.zeros(3, complex), np.zeros(4, complex), 16)


def test_random_symbols_draws_from_the_constellation():
    rng = np.random.default_rng(7)
    symbols = qam.random_symbols(64, 500, rng)
    points = set(qam.constellation(64).tolist())
    assert symbols.size == 500
    assert set(symbols.tolist()) <= points
    # All levels show up in a draw this large.
    assert len(set(symbols.tolist())) == 64


def test_count_bit_errors_per_block_against_one_sent_block():
    rng = np.random.default_rng(3)
    tx = qam.random_symbols(16, 40, rng)
    rx = tx + rng.normal(0.0, 0.8, (3, 2, 40)) + 1j * rng.normal(0.0, 0.8, (3, 2, 40))
    errors, total = qam.count_bit_errors(rx, tx, 16)
    assert errors.shape == (3, 2) and total == 160
    for index in np.ndindex(3, 2):
        assert errors[index] == qam.count_bit_errors(rx[index], tx, 16)[0]
    with pytest.raises(ValueError, match="broadcast"):
        qam.count_bit_errors(rx[0, 0], np.stack([tx, tx]), 16)


def test_constellation_is_built_once_and_read_only():
    points = qam.constellation(64)
    assert qam.constellation(64) is points
    assert not points.flags.writeable
    with pytest.raises(ValueError):
        points[0] = 0.0


@pytest.mark.parametrize("order", [16, 64])
def test_bit_counts_against_sent_levels_equal_those_against_sent_symbols(order):
    rng = np.random.default_rng(order)
    labels = rng.integers(0, order, 300)
    tx = qam.constellation(order)[labels]
    rx = tx + rng.normal(0.0, 0.9, (4, 300)) + 1j * rng.normal(0.0, 0.9, (4, 300))
    levels = qam._label_levels(order).take(labels, 0).ravel()
    errors, total = qam.count_bit_errors(rx, levels, order)
    assert np.array_equal(errors, qam.count_bit_errors(rx, tx, order)[0]) and errors.min() > 0
    assert total == 300 * qam.bits_per_symbol(order)
    with pytest.raises(ValueError):
        qam.count_bit_errors(rx, levels[:-2], order)

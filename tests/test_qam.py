"""Gray-coded QAM constellation and bit-error counting."""

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


@pytest.mark.parametrize("order", [4, 16, 64, 256])
def test_hard_decision_roundtrip(order):
    points = qam.constellation(order)
    labels = qam.hard_decision_labels(points, order)
    np.testing.assert_array_equal(labels, np.arange(order))
    # Perturbations inside the decision cell do not move the label.
    noisy = points + (0.49 - 0.49j)
    np.testing.assert_array_equal(qam.hard_decision_labels(noisy, order), np.arange(order))


def test_hard_decision_clips_outside_the_grid():
    labels = qam.hard_decision_labels(np.array([100.0 + 100.0j, -100.0 - 100.0j]), 16)
    corner_hi = qam.hard_decision_labels(np.array([3.0 + 3.0j]), 16)
    corner_lo = qam.hard_decision_labels(np.array([-3.0 - 3.0j]), 16)
    assert labels[0] == corner_hi[0]
    assert labels[1] == corner_lo[0]


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

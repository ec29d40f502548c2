"""NMSE and BER scoring conventions."""

import numpy as np
import pytest

from farrowsync import metrics
from farrowsync.metrics import nmse


def test_nmse_hand_value():
    assert nmse(np.array([1.0, 2.0]), np.array([1.0, 1.0])) == 0.5


def test_nmse_scale_covariance():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    ref = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    base = nmse(y, ref)
    for a in (2.0, -0.125, 3.0 - 4.0j):
        assert nmse(a * y, a * ref) == pytest.approx(base, rel=1e-12)


def test_nmse_component_swap_symmetry():
    rng = np.random.default_rng(4)
    y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    ref = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    swapped = nmse(y.imag + 1j * y.real, ref.imag + 1j * ref.real)
    assert swapped == pytest.approx(nmse(y, ref), rel=1e-14)


def test_nmse_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        nmse(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        nmse(np.ones(3), np.zeros(3))


def test_qam_demod_ber_matches_counts():
    from farrowsync import qam

    tx = qam.constellation(16)
    rx = tx.copy()
    rx[3] += 2.0
    errors, total, rate = metrics.qam_demod_ber(rx, tx, 16)
    assert (errors, total) == (1, 64)
    assert rate == pytest.approx(1 / 64)

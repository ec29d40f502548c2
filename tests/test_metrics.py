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


def test_nmse_scores_each_window_of_a_batch_with_its_one_window_bits():
    rng = np.random.default_rng(5)
    y = rng.standard_normal((3, 5, 1024)) + 1j * rng.standard_normal((3, 5, 1024))
    refs = rng.standard_normal((3, 1, 1024)) + 1j * rng.standard_normal((3, 1, 1024))
    # One reference for five windows, and one reference per window.
    scores = nmse(y[0, :, 100:900], refs[0, 0, 100:900])
    assert scores.shape == (5,)
    assert scores.tolist() == [nmse(w, refs[0, 0, 100:900]) for w in y[0, :, 100:900]]
    scores = nmse(y, refs)
    assert scores.shape == (3, 5)
    assert scores.tolist() == [[nmse(w, r[0]) for w in ws] for ws, r in zip(y, refs)]
    with pytest.raises(ValueError):
        nmse(y[0], refs)  # the reference has more windows than y
    silent = np.repeat(refs[0], 5, axis=0)
    silent[2] = 0.0
    with pytest.raises(ValueError, match="zero power"):
        nmse(y[0], silent)  # one window of zero power


def test_qam_demod_ber_matches_counts():
    from farrowsync import qam

    tx = qam.constellation(16)
    rx = tx.copy()
    rx[3] += 2.0
    errors, total, rate = metrics.qam_demod_ber(rx, tx, 16)
    assert (errors, total) == (1, 64)
    assert rate == pytest.approx(1 / 64)

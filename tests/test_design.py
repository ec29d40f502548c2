"""Least-squares bank design and error measurement."""

import numpy as np
import pytest

from farrowsync import design
from farrowsync.design import (
    ERROR_FRONTIER,
    DesignError,
    DesignSpec,
    ErrorReport,
    _solve,
    design_bank,
    measure_error,
)
from farrowsync.harness import get_bank


@pytest.fixture(scope="module")
def canonical():
    spec = DesignSpec(degree=4, order=36)
    return spec, design_bank(spec)


def test_frontier_table_structure():
    assert len(ERROR_FRONTIER) == 16
    targets = [t for t, _, _ in ERROR_FRONTIER]
    assert targets == sorted(targets, reverse=True)
    assert all(order % 2 == 0 for _, _, order in ERROR_FRONTIER)
    assert all(1 <= degree <= 7 for _, degree, _ in ERROR_FRONTIER)


def test_design_is_deterministic(canonical):
    spec, bank = canonical
    np.testing.assert_array_equal(design_bank(spec).taps, bank.taps)


def test_designed_rows_satisfy_symmetry_bitwise(canonical):
    _, bank = canonical
    taps = bank.taps
    flipped = taps[:, ::-1]
    for k in range(1, bank.degree + 1):
        if k % 2 == 1:
            np.testing.assert_array_equal(taps[k], -flipped[k])
        else:
            np.testing.assert_array_equal(taps[k], flipped[k])


def test_canonical_bank_meets_its_target(canonical):
    _, bank = canonical
    report = measure_error(bank)
    assert abs(report.error_db - (-50.0)) < 10.0
    assert report.max_error == pytest.approx(10.0 ** (report.error_db / 20.0))
    assert 0.0 <= report.worst_omega <= 0.9 * np.pi
    assert abs(report.worst_delay) <= 0.5


def test_reweighting_tightens_the_worst_case(monkeypatch):
    shaped = design_bank(DesignSpec(degree=4, order=36))
    monkeypatch.setattr(design, "_LAWSON_PASSES", 0)
    plain = design_bank(DesignSpec(degree=4, order=36))
    assert measure_error(shaped).max_error < measure_error(plain).max_error


def test_grid_refinement_stability(canonical):
    spec, bank = canonical
    fine = DesignSpec(degree=4, order=36, n_freq=2 * spec.freq_points, n_delay=65)
    e0 = measure_error(bank).max_error
    e1 = measure_error(design_bank(fine)).max_error
    assert abs(e1 - e0) / e0 < 0.05


@pytest.mark.parametrize("order", [16, 24])
def test_error_nonincreasing_in_degree(order):
    errors = [measure_error(design_bank(DesignSpec(degree=L, order=order))).error_db for L in range(1, 6)]
    assert all(errors[i + 1] <= errors[i] + 1e-9 for i in range(len(errors) - 1))


def test_spec_preconditions():
    with pytest.raises(ValueError, match="degree"):
        DesignSpec(degree=0, order=12)
    with pytest.raises(ValueError, match="even"):
        DesignSpec(degree=2, order=13)
    with pytest.raises(ValueError, match="omega_c"):
        DesignSpec(degree=2, order=12, omega_c=np.pi)
    with pytest.raises(ValueError, match="d_max"):
        DesignSpec(degree=2, order=12, d_max=0.6)
    with pytest.raises(ValueError, match="frequency grid"):
        DesignSpec(degree=2, order=12, n_freq=50)
    with pytest.raises(ValueError, match="delay grid"):
        DesignSpec(degree=2, order=12, n_delay=8)


def test_rank_deficiency_is_reported():
    matrix = np.column_stack([np.ones(40), np.ones(40)])
    with pytest.raises(DesignError, match="rank deficient"):
        _solve(matrix, np.arange(40.0), "test")


def test_measurement_grid_guards(canonical):
    _, bank = canonical
    with pytest.raises(ValueError):
        measure_error(bank, n_freq=1)
    report = measure_error(bank, n_freq=None)
    assert report.n_freq == 64 * bank.order
    for omega_c in (2.0 * np.pi, np.pi, 0.0, np.nan):
        with pytest.raises(ValueError, match="omega_c"):
            measure_error(bank, omega_c=omega_c)
    for d_max in (-3.0, 0.0, 0.6, np.nan):
        with pytest.raises(ValueError, match="d_max"):
            measure_error(bank, d_max=d_max)
    assert isinstance(report, ErrorReport)



def _full_grid_design(spec: DesignSpec, passes: int) -> np.ndarray:
    """Taps of the same design, with ``passes`` Lawson passes, solved as two full ``(n_freq*n_delay)``-row problems."""
    half = spec.order // 2
    omega = np.linspace(0.0, spec.omega_c, spec.freq_points)
    delay = np.linspace(-spec.d_max, spec.d_max, spec.n_delay)
    wg, dg = (g.reshape(-1) for g in np.meshgrid(omega, delay, indexing="ij"))
    m = np.arange(1, half + 1)
    sine = 2.0 * np.sin(np.outer(wg, m))
    cosine = np.column_stack([np.ones(wg.size), 2.0 * np.cos(np.outer(wg, m))])
    odd = list(range(1, spec.degree + 1, 2))
    even = list(range(2, spec.degree + 1, 2))
    systems = [(odd, np.hstack([dg[:, None] ** k * sine for k in odd]), -np.sin(wg * dg))]
    if even:
        systems.append((even, np.hstack([dg[:, None] ** k * cosine for k in even]), np.cos(wg * dg) - 1.0))
    weights = np.ones(wg.size)
    for _ in range(passes + 1):
        root = np.sqrt(weights)
        coefs = [np.linalg.lstsq(a * root[:, None], b * root, rcond=None)[0] for _, a, b in systems]
        resid = [a @ c - b for (_, a, b), c in zip(systems, coefs)]
        if not even:
            resid.append(1.0 - np.cos(wg * dg))
        weights = weights * np.hypot(*resid)
        weights *= weights.size / weights.sum()
    taps = np.zeros((spec.degree + 1, spec.order + 1))
    taps[0, half] = 1.0
    for k, c in zip(odd, coefs[0].reshape(len(odd), half)):
        taps[k, half - m], taps[k, half + m] = c, -c
    for k, a in zip(even, coefs[1].reshape(len(even), half + 1) if even else ()):
        taps[k, half] = a[0]
        taps[k, half - m] = taps[k, half + m] = a[1:]
    return taps


@pytest.mark.parametrize("lawson_passes", [0, 4])
@pytest.mark.parametrize("n_delay", [16, 17])
@pytest.mark.parametrize("degree,order", [(1, 8), (2, 8), (5, 10), (7, 12)])
def test_compressed_design_matches_the_full_grid_solve(degree, order, n_delay, lawson_passes, monkeypatch):
    monkeypatch.setattr(design, "_LAWSON_PASSES", lawson_passes)
    spec = DesignSpec(degree=degree, order=order, n_delay=n_delay)
    want = _full_grid_design(spec, lawson_passes)
    got = design_bank(spec).taps
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


#: Measured error (dB) of each frontier bank as designed by the full-grid
#: solve; the compressed design must reproduce it.
FULL_GRID_ERROR_DB = {
    (3, 12): -21.86043650962445,
    (3, 14): -24.766501129468473,
    (3, 18): -29.371943749843336,
    (4, 22): -37.317468889821626,
    (4, 24): -40.033588621159126,
    (4, 30): -46.535719544762266,
    (4, 36): -49.90773887977461,
    (5, 34): -55.87086235818837,
    (5, 38): -61.53582767044273,
    (5, 42): -65.81716419761322,
    (6, 44): -70.5118025374375,
    (6, 48): -75.97620890089527,
    (6, 52): -81.00359480056795,
    (6, 58): -86.40340510672515,
    (7, 58): -90.94004545656249,
    (7, 62): -96.62750749260007,
}


def test_frontier_banks_keep_their_measured_error():
    assert sorted(FULL_GRID_ERROR_DB) == sorted((degree, order) for _, degree, order in ERROR_FRONTIER)
    for (degree, order), want in FULL_GRID_ERROR_DB.items():
        assert abs(measure_error(get_bank(degree, order)).error_db - want) <= 1e-6, (degree, order)


def _whole_grid_error(bank, omega_c, d_max, n_freq, n_delay):
    """Reference: the error grid formed in one piece, ``(n_delay, n_freq)``."""
    omega = np.linspace(0.0, omega_c, n_freq)
    delay = np.linspace(-d_max, d_max, n_delay)
    offsets = np.arange(bank.order + 1) - bank.group_delay
    responses = bank.taps @ np.exp(-1j * np.outer(offsets, omega))
    achieved = (delay[:, None] ** np.arange(bank.degree + 1)) @ responses
    error = np.abs(achieved - np.exp(-1j * np.outer(delay, omega)))
    di, wi = np.unravel_index(int(np.argmax(error)), error.shape)
    return float(error[di, wi]), float(omega[wi]), float(delay[di])


@pytest.mark.parametrize("n_delay", [2, 3, 17, 33, 129])
@pytest.mark.parametrize("degree,order", [(1, 8), (4, 36), (7, 30)])
def test_measured_error_has_the_bits_of_the_whole_grid(degree, order, n_delay):
    bank = design_bank(DesignSpec(degree=degree, order=order))
    for omega_c, d_max, n_freq in ((0.9 * np.pi, 0.5, 64 * order), (0.5 * np.pi, 0.3, 1001)):
        report = measure_error(bank, omega_c=omega_c, d_max=d_max, n_freq=n_freq, n_delay=n_delay)
        assert (report.max_error, report.worst_omega, report.worst_delay) == _whole_grid_error(bank, omega_c, d_max, n_freq, n_delay)

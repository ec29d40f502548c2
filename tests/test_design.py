"""Least-squares bank design and error measurement."""

import numpy as np
import pytest

from farrowsync.design import (
    ERROR_FRONTIER,
    DesignError,
    DesignSpec,
    ErrorReport,
    _solve,
    design_bank,
    measure_error,
)


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


def test_reweighting_tightens_the_worst_case():
    plain = design_bank(DesignSpec(degree=4, order=36, reweight_passes=0))
    shaped = design_bank(DesignSpec(degree=4, order=36))
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
    with pytest.raises(ValueError, match="reweight"):
        DesignSpec(degree=2, order=12, reweight_passes=-1)


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
    assert isinstance(report, ErrorReport)


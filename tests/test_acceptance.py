"""Acceptance gate: one test per release criterion, in criterion order.

Statistical campaigns default to desk scale: 100 trials and every
statistical band widened by a factor of three.  Set
``FARROWSYNC_ACCEPTANCE_SCALE=full`` to run the full-scale campaigns
(1000 trials, 10000 for the bit error rate, bands as stated).  Exact
properties, orderings, and runtime bounds do not scale.

Criteria with several clauses collect every failing clause before
asserting, so a red line reports the complete miss list, not just the
first.  Bands the implementation is known to miss are asserted as stated
anyway rather than loosened.
"""

import os
import time

import numpy as np

from farrowsync.design import DesignSpec, ERROR_FRONTIER, design_bank, measure_error
from farrowsync.estimation import (
    EstimatorConfig,
    OffsetParams,
    assemble_gradient_hessian,
    batch_cost,
    cascaded_accumulate,
    count_operations,
    estimate,
    ils_normal_matrix,
    ils_step,
    newton_step,
    weighted_sums,
)
from farrowsync.farrow import compute_subfilter_outputs
from farrowsync.harness import (
    Options,
    approx_sweep_rows,
    ber_rows,
    example1_rows,
    get_bank,
    grid_rows,
    impaired_rows,
    run_experiment,
    table3_rows,
)

FULL = os.environ.get("FARROWSYNC_ACCEPTANCE_SCALE", "desk").strip().lower() == "full"
TRIALS = 1000 if FULL else 100
BER_TRIALS = 10000 if FULL else 120
GRID_POINTS = 20 if FULL else 5
BASE_SEED = 42
WIDTH = 1.0 if FULL else 3.0


def band(lo: float, hi: float) -> tuple[float, float]:
    """Acceptance band, widened about its center at desk scale."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * WIDTH
    return mid - half, mid + half


def rel_band(center: float, fraction: float) -> tuple[float, float]:
    return band(center * (1.0 - fraction), center * (1.0 + fraction))


class Clauses:
    """Collects named clause failures so one criterion reports every miss."""

    def __init__(self):
        self.failures: list[str] = []

    def check(self, label: str, ok: bool, detail: str) -> None:
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def within(self, label: str, value: float, bounds: tuple[float, float]) -> None:
        lo, hi = bounds
        self.check(label, lo <= value <= hi, f"{value:.6g} outside [{lo:.6g}, {hi:.6g}]")

    def finish(self) -> None:
        assert not self.failures, " | ".join(self.failures)


_BANKS: dict[tuple[int, int], object] = {}


def bank_of(degree: int, order: int = 12):
    key = (degree, order)
    if key not in _BANKS:
        _BANKS[key] = design_bank(DesignSpec(degree=degree, order=order))
    return _BANKS[key]


def random_batch(degree: int, seed: int, n: int = 160):
    rng = np.random.default_rng(seed)
    bank = bank_of(degree)
    u = compute_subfilter_outputs(rng.standard_normal(n + bank.order), bank)
    x0 = rng.standard_normal(u.shape[-1])
    return u, x0


def mean_by(rows, key, value) -> dict:
    groups: dict = {}
    for row in rows:
        groups.setdefault(key(row), []).append(value(row))
    return {k: float(np.mean(v)) for k, v in groups.items()}


def test_criterion_01_cascaded_accumulators_match_direct_sums():
    rng = np.random.default_rng(BASE_SEED)
    started = time.perf_counter()
    for _ in range(1000):
        size = int(rng.integers(1, 4097))
        v = rng.standard_normal(size)
        n = np.arange(size, dtype=np.float64)
        s0, s1, s2 = weighted_sums(cascaded_accumulate(v), size)
        for got, want in [(s0, np.sum(v)), (s1, np.sum(n * v)), (s2, np.sum(n * n * v))]:
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want))
    assert time.perf_counter() - started < 1.0


def test_criterion_02_gradient_and_hessian_match_finite_differences():
    # 100 random batches split evenly across bank degrees 1 through 5.
    started = time.perf_counter()
    h = 1e-7
    for degree in range(1, 6):
        for i in range(20):
            u, x0 = random_batch(degree, seed=1000 * degree + i)
            rng = np.random.default_rng(2000 * degree + i)
            params = OffsetParams(float(rng.uniform(-5e-4, 5e-4)), float(rng.uniform(-0.25, 0.25)))
            gradient, hessian = assemble_gradient_hessian(u, x0, params)
            g_norm = float(np.linalg.norm(gradient))
            h_norm = float(np.linalg.norm(hessian))
            for j, (ed, ee) in enumerate([(1.0, 0.0), (0.0, 1.0)]):
                plus = OffsetParams(params.delta + h * ed, params.epsilon + h * ee)
                minus = OffsetParams(params.delta - h * ed, params.epsilon - h * ee)
                fd = (batch_cost(u, x0, plus) - batch_cost(u, x0, minus)) / (2 * h)
                assert abs(fd - gradient[j]) < 1e-5 * g_norm
                gp, _ = assemble_gradient_hessian(u, x0, plus)
                gm, _ = assemble_gradient_hessian(u, x0, minus)
                column = (gp - gm) / (2 * h)
                assert float(np.linalg.norm(column - hessian[:, j])) < 1e-5 * h_norm
    assert time.perf_counter() - started < 10.0


def test_criterion_03_first_degree_newton_equals_ils_and_converges_in_one_step():
    started = time.perf_counter()
    u, x0 = random_batch(1, seed=300)
    q = ils_normal_matrix(u)
    rng = np.random.default_rng(301)
    for _ in range(50):
        start = OffsetParams(float(rng.uniform(-5e-3, 5e-3)), float(rng.uniform(-0.3, 0.3)))
        nm = newton_step(u, x0, start)
        il, _, _ = ils_step(u, x0, start, q)
        assert abs(nm.params.delta - il.delta) < 1e-12
        assert abs(nm.params.epsilon - il.epsilon) < 1e-12
        second = newton_step(u, x0, nm.params)
        assert float(np.max(np.abs(second.step))) < 1e-12
        _, ils_second, _ = ils_step(u, x0, il, q)
        assert float(np.max(np.abs(ils_second))) < 1e-12
    assert time.perf_counter() - started < 5.0


def test_criterion_04_normal_matrix_determinant_sign():
    rng = np.random.default_rng(400)
    for _ in range(1000):
        n = int(rng.integers(2, 50))
        u1 = rng.standard_normal(n)
        if n >= 3 and rng.random() < 0.3:  # sparse edge: exactly two nonzero entries
            keep = rng.choice(n, size=2, replace=False)
            mask = np.zeros(n, bool)
            mask[keep] = True
            u1 = np.where(mask, u1, 0.0)
        q = ils_normal_matrix(np.stack([np.zeros(n), u1]))
        assert q[0, 0] * q[1, 1] - q[0, 1] ** 2 > 0.0
    # Dyadic amplitudes keep every accumulator sum exact, so the degenerate
    # determinant is exactly zero rather than merely small.
    rng = np.random.default_rng(401)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        u1 = np.zeros(n)
        if rng.random() < 0.8:
            amp = float(rng.choice([1.0, 1.5])) * 2.0 ** int(rng.integers(-8, 9))
            u1[int(rng.integers(0, n))] = amp * float(rng.choice([-1.0, 1.0]))
        q = ils_normal_matrix(np.stack([np.zeros(n), u1]))
        assert q[0, 0] * q[1, 1] - q[0, 1] ** 2 == 0.0


def _expected_iteration_ops(method: str, degree: int, n: int, iteration: int) -> tuple[int, int, int, int]:
    """Per-iteration (fixed, general, additions, divisions) written out
    independently here so the test is not a readback of the library formulas."""
    if method == "newton":
        if degree == 1:
            return (5, 2 * n + 8, 7 * n + 4, 1)
        return ((2 * degree - 2) * n + 5, max(degree + 1, 4) * n + 8, (2 * degree + 5) * n + 4, 1)
    if iteration == 1:
        return (5, 2 * n + 8, 7 * n + 4, 1)
    return (1, n + 8, 4 * n + 4, 1)


def test_criterion_05_operation_counters_match_the_cost_model():
    rng = np.random.default_rng(500)
    for method in ("newton", "ils"):
        for degree in range(1, 6):
            bank = bank_of(degree)
            for n in (64, 1024):
                x1 = rng.standard_normal(n + bank.order)
                x0 = rng.standard_normal(n + bank.group_delay)
                for iterations in (1, 2):
                    expected = np.sum(
                        [_expected_iteration_ops(method, degree, n, it) for it in range(1, iterations + 1)],
                        axis=0,
                    )
                    for counts in (
                        count_operations(method, degree, n, iterations),
                        estimate(x0, x1, bank, EstimatorConfig(method=method, max_iterations=iterations)).total_ops,
                    ):
                        got = (counts.fixed_mults, counts.general_mults, counts.additions, counts.divisions)
                        assert got == tuple(expected), (method, degree, n, iterations, got, tuple(expected))


def test_criterion_06_joint_versus_frequency_only_means():
    rows, failures = example1_rows(TRIALS, BASE_SEED)
    assert failures == 0
    final = [r for r in rows if r[4] == 2]
    delta = mean_by(final, lambda r: (r[2], r[3]), lambda r: r[5])
    err = mean_by(final, lambda r: (r[2], r[3]), lambda r: r[7])
    clauses = Clauses()
    for method in ("newton", "ils"):
        clauses.within(f"joint {method} delta_ppm", delta[(method, False)], band(395.0, 405.0))
        clauses.within(f"joint {method} nmse", err[(method, False)], band(1.5e-3, 2.5e-3))
        clauses.within(f"sfo-only {method} delta_ppm", delta[(method, True)], band(90.0, 115.0))
        clauses.within(f"sfo-only {method} nmse", err[(method, True)], band(2.2e-2, 3.3e-2))
    clauses.finish()


def test_criterion_07_two_iteration_nmse_table():
    rows, failures = table3_rows(TRIALS, BASE_SEED, snrs=[30.0])
    assert failures == 0
    err = mean_by(rows, lambda r: (r[0], r[4], r[5]), lambda r: r[8])
    targets = {
        ("multisine", "newton", 1): (2.966e-3, 0.25),
        ("multisine", "ils", 1): (2.172e-3, 0.25),
        ("multisine", "newton", 2): (1.98e-3, 0.15),
        ("multisine", "ils", 2): (1.98e-3, 0.15),
        ("bandpass", "newton", 1): (2.557e-3, 0.25),
        ("bandpass", "ils", 1): (2.109e-3, 0.25),
        ("bandpass", "newton", 2): (1.99e-3, 0.15),
        ("bandpass", "ils", 2): (1.99e-3, 0.15),
    }
    clauses = Clauses()
    for key, (center, fraction) in targets.items():
        clauses.within(" ".join(map(str, key)), err[key], rel_band(center, fraction))
    for signal in ("multisine", "bandpass"):
        clauses.check(
            f"{signal} first-iteration ordering",
            err[(signal, "ils", 1)] <= err[(signal, "newton", 1)],
            f"ils {err[(signal, 'ils', 1)]:.6g} > newton {err[(signal, 'newton', 1)]:.6g}",
        )
        clauses.check(
            f"{signal} second-iteration ordering",
            err[(signal, "newton", 2)] <= err[(signal, "ils", 2)],
            f"newton {err[(signal, 'newton', 2)]:.6g} > ils {err[(signal, 'ils', 2)]:.6g}",
        )
    clauses.finish()


def test_criterion_08_offset_grid_spread():
    rows, failures = grid_rows(TRIALS, BASE_SEED, grid_points=GRID_POINTS, snrs=[20.0, 40.0])
    assert failures == 0
    assert len(rows) == 2 * GRID_POINTS * GRID_POINTS * 2
    clauses = Clauses()
    # The desk subgrid is sanctioned as-is, so the thresholds stay unwidened.
    for snr, bound in ((40.0, 8.0), (20.0, 40.0)):
        worst = max((r for r in rows if r[0] == snr), key=lambda r: r[7])
        clauses.check(
            f"{snr:.0f} dB spread",
            worst[7] < bound,
            f"{worst[7]:.3f} ppm >= {bound} ppm ({worst[3]} at delta={worst[1]:.0f}, epsilon={worst[2]:.0f})",
        )
    clauses.finish()


def test_criterion_09_carrier_impaired_scenario():
    rows, failures = impaired_rows(TRIALS, BASE_SEED)
    assert failures == 0
    delta = mean_by(rows, lambda r: (r[2], r[3]), lambda r: r[4])
    epsilon = mean_by(rows, lambda r: (r[2], r[3]), lambda r: r[5])
    err = mean_by(rows, lambda r: (r[2], r[3]), lambda r: r[6])
    clauses = Clauses()
    clauses.within("ils m1 delta_ppm", delta[("ils", 1)], band(-300.0, -282.0))
    clauses.within("ils m1 epsilon_ppm", epsilon[("ils", 1)], band(-470.0, -400.0))
    clauses.within("newton m1 delta_ppm", delta[("newton", 1)], band(-315.0, -291.0))
    clauses.within("newton m2 epsilon_ppm", epsilon[("newton", 2)], band(-620.0, -500.0))
    clauses.within("newton m2 nmse", err[("newton", 2)], rel_band(1.915e-3, 0.15))
    clauses.within("ils m2 nmse", err[("ils", 2)], rel_band(1.915e-3, 0.15))
    clauses.within("simplified nmse", err[("simplified", 1)], rel_band(2.127e-3, 0.15))
    by_trial = {(r[0], r[2]): r for r in rows if r[3] == 1}
    for trial in sorted({r[0] for r in rows}):
        simp = by_trial[(trial, "simplified")]
        ils = by_trial[(trial, "ils")]
        for column, name in ((4, "delta"), (5, "epsilon")):
            a, b = simp[column], ils[column]
            clauses.check(
                f"trial {trial} simplified {name} identity",
                abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-12),
                f"{a!r} != {b!r}",
            )
    clauses.finish()


def test_criterion_10_design_frontier_tracks_targets():
    measured = []
    for target_db, degree, order in ERROR_FRONTIER:
        report = measure_error(get_bank(degree, order))
        assert abs(report.error_db - target_db) <= 10.0, (target_db, degree, order, report.error_db)
        measured.append(report.error_db)
    for earlier, later in zip(measured, measured[1:]):
        assert later < earlier + 1e-9, f"frontier not monotone: {measured}"


def test_criterion_11_approximation_error_sweep():
    rows, failures = approx_sweep_rows(TRIALS, BASE_SEED)
    assert failures == 0
    clauses = Clauses()
    for method in ("newton", "ils"):
        cells = {r[0]: r for r in rows if r[4] == method}
        nmse_db = {target: 10.0 * np.log10(r[6]) for target, r in cells.items()}
        plateau = [nmse_db[t] for t, r in cells.items() if r[3] <= -50.0]
        clauses.check(
            f"{method} plateau",
            max(plateau) - min(plateau) < 3.0,
            f"nmse spans {max(plateau) - min(plateau):.2f} dB across banks at or below -50 dB",
        )
        clauses.check(
            f"{method} rise",
            nmse_db[-20] - nmse_db[-50] >= 10.0,
            f"only {nmse_db[-20] - nmse_db[-50]:.2f} dB from the -50 dB bank to the -20 dB bank",
        )
        delta_growth = cells[-20][8] / cells[-35][8]
        epsilon_growth = cells[-20][10] / cells[-35][10]
        clauses.check(
            f"{method} time-offset degradation",
            epsilon_growth / delta_growth > 1.0,
            f"epsilon std grew {epsilon_growth:.3f}x vs delta {delta_growth:.3f}x",
        )
    clauses.finish()


def test_criterion_12_ofdm_bit_error_rate():
    rows, failures = ber_rows(BER_TRIALS, BASE_SEED)
    assert failures == 0
    errors = {}
    bits = {}
    for row in rows:
        key = (row[3], row[4])
        errors[key] = errors.get(key, 0) + row[8]
        bits[key] = bits.get(key, 0) + row[9]
    clauses = Clauses()
    for key in (("newton", 1), ("ils", 1), ("ils", 2)):
        clauses.check(f"{key} volume", bits[key] >= 1_000_000, f"only {bits[key]} bits")
    ber = {key: errors[key] / bits[key] for key in bits}
    clauses.check("newton m1", ber[("newton", 1)] < 1e-5, f"ber {ber[('newton', 1)]:.3g}")
    clauses.check("ils m2", ber[("ils", 2)] < 1e-5, f"ber {ber[('ils', 2)]:.3g}")
    clauses.within("ils m1", ber[("ils", 1)], (1e-6, 1e-4))
    clauses.finish()


def test_criterion_13_byte_identical_reruns(tmp_path):
    def run_once(tag: str, seed: int) -> bytes:
        out = tmp_path / tag
        out.mkdir()
        run_experiment("example1", Options({"trials": "4"}, "example1"), seed, False, out)
        return (out / "example1.csv").read_bytes()

    first = run_once("first", BASE_SEED)
    assert run_once("again", BASE_SEED) == first
    assert run_once("other", BASE_SEED + 1) != first

"""Estimator mathematics: accumulators, derivatives, solvers, operation accounting."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from farrowsync import estimation
from farrowsync.design import DesignSpec, design_bank
from farrowsync.estimation import (
    EstimatorConfig,
    OffsetParams,
    OpCounts,
    SingularSystemError,
    assemble_gradient_hessian,
    batch_cost,
    cascaded_accumulate,
    count_operations,
    estimate,
    estimate_batch,
    estimate_from_outputs,
    ils_normal_matrix,
    ils_step,
    newton_step,
    per_sample_derivatives,
    solve_sym2x2,
    weighted_sums,
)
from farrowsync.estimation import _index_weighted
from farrowsync.farrow import compute_subfilter_outputs, delay_sequence, farrow_output
from farrowsync.metrics import nmse
from farrowsync.signals import ImpairmentSpec, make_bandpass_noise, make_multisine, sample_pair, sample_pairs

_BANKS = {}


def small_bank(degree):
    if degree not in _BANKS:
        _BANKS[degree] = design_bank(DesignSpec(degree=degree, order=12))
    return _BANKS[degree]


def _random_batch(degree, n=160, seed=0):
    rng = np.random.default_rng(seed)
    bank = small_bank(degree)
    u = compute_subfilter_outputs(rng.standard_normal(n + bank.order), bank)
    x0 = rng.standard_normal(u.shape[-1])
    return bank, u, x0


class TestAccumulators:
    def test_hand_example(self):
        acc = cascaded_accumulate(np.ones(4))
        assert acc == (4.0, 10.0, 20.0)
        assert weighted_sums(acc, 4) == (4.0, 6.0, 14.0)

    @pytest.mark.parametrize("size", [1, 2, 3, 17, 256, 1000, 4096])
    def test_matches_direct_sums(self, size):
        rng = np.random.default_rng(size)
        v = rng.standard_normal(size)
        n = np.arange(size, dtype=np.float64)
        s0, s1, s2 = weighted_sums(cascaded_accumulate(v), size)
        for got, want in [(s0, np.sum(v)), (s1, np.sum(n * v)), (s2, np.sum(n * n * v))]:
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def _exact_index_weighted(row):
    """Exact ``(sum v, sum n*v, sum n^2*v)`` of one float64 row, as Fractions.

    Every float64 is an integer multiple of ``2**-1074``, so the sums are
    formed on Python integers with no rounding.
    """
    ulps = [num * ((1 << 1074) // den) for num, den in map(float.as_integer_ratio, row.tolist())]
    return [Fraction(sum(n**p * x for n, x in enumerate(ulps)), 1 << 1074) for p in range(3)]


class TestAccuracy:
    """The index-weighted sums against an exact reference, on positive data like the normal matrix's ``u_1**2``.

    Measured as the largest ``|got - exact| / exact`` over the three sums and
    every row, with ``v`` the squares of standard normals, seeds 0-3.  One row
    of 2**16: 3.4e-17 to 3.4e-16 from the pairwise reductions, against
    1.0e-15 to 2.9e-14 from running-sum cascades.  A ``(50, 1000)`` batch:
    7.3e-16 to 1.05e-15, against 5.2e-15 to 6.2e-15.  Pairwise summation
    bounds the error by about ``log2(N)`` roundings, a recursive running sum
    by about ``N`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., section 4.2).
    """

    @pytest.mark.parametrize("shape,bound", [((1 << 16,), 1e-15), ((50, 1000), 2e-15)], ids=["row_2_16", "batch_50x1000"])
    def test_sums_are_within_a_few_roundings_of_exact(self, shape, bound):
        v = np.random.default_rng(0).standard_normal(shape) ** 2
        got = np.stack(_index_weighted(v), axis=-1).reshape(-1, 3)
        for row, sums in zip(v.reshape(-1, v.shape[-1]), got):
            for value, exact in zip(sums.tolist(), _exact_index_weighted(row)):
                assert abs(Fraction(value) - exact) <= bound * exact


class TestDerivatives:
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_gradient_matches_cost_differences(self, degree):
        _, u, x0 = _random_batch(degree, seed=degree)
        params = OffsetParams(delta=1e-4, epsilon=0.07)
        g, _ = assemble_gradient_hessian(u, x0, params)
        h = 1e-7
        for j, unit in enumerate([(1.0, 0.0), (0.0, 1.0)]):
            plus = OffsetParams(params.delta + h * unit[0], params.epsilon + h * unit[1])
            minus = OffsetParams(params.delta - h * unit[0], params.epsilon - h * unit[1])
            fd = (batch_cost(u, x0, plus) - batch_cost(u, x0, minus)) / (2 * h)
            assert abs(fd - g[j]) < 1e-5 * abs(g[j])

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_hessian_matches_gradient_differences(self, degree):
        _, u, x0 = _random_batch(degree, seed=10 + degree)
        params = OffsetParams(delta=-2e-4, epsilon=0.11)
        _, hess = assemble_gradient_hessian(u, x0, params)
        h = 1e-7
        for j, unit in enumerate([(1.0, 0.0), (0.0, 1.0)]):
            plus = OffsetParams(params.delta + h * unit[0], params.epsilon + h * unit[1])
            minus = OffsetParams(params.delta - h * unit[0], params.epsilon - h * unit[1])
            gp, _ = assemble_gradient_hessian(u, x0, plus)
            gm, _ = assemble_gradient_hessian(u, x0, minus)
            fd = (gp - gm) / (2 * h)
            np.testing.assert_allclose(fd, hess[:, j], rtol=1e-5)

    def test_first_degree_second_derivative_is_u1_squared(self):
        _, u, x0 = _random_batch(1, seed=3)
        _, f2 = per_sample_derivatives(u, x0, OffsetParams(1e-4, 0.2))
        np.testing.assert_array_equal(f2, u[1] * u[1])

    def test_batch_cost_definition(self):
        _, u, x0 = _random_batch(3, seed=4)
        params = OffsetParams(2e-4, -0.1)
        r = farrow_output(u, params) - x0
        assert batch_cost(u, x0, params) == pytest.approx(0.5 * np.sum(r * r), rel=1e-14)


class TestSolver:
    def test_matches_generic_solver(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m = rng.standard_normal((2, 2))
            a = m @ m.T + 0.1 * np.eye(2)
            b = rng.standard_normal(2)
            x_a, x_b, singular = solve_sym2x2(a[0, 0], a[0, 1], a[1, 1], b[0], b[1])
            assert not singular
            np.testing.assert_allclose([x_a, x_b], np.linalg.solve(a, b), rtol=1e-12)

    @staticmethod
    def _assert_flagged_and_raised(entries, monkeypatch):
        """The solver flags the system, and the one-trial estimator raises from that flag."""
        x_a, x_b, singular = solve_sym2x2(*entries, 0.5, 0.5)
        assert singular and np.isnan(x_a) and np.isnan(x_b)
        h_a, h_b, h_c = entries
        monkeypatch.setattr(estimation, "ils_normal_matrix", lambda u: np.array([[h_a, h_b], [h_b, h_c]]))
        _, u, x0 = _random_batch(2, seed=30)
        with pytest.raises(SingularSystemError, match="not finite"):
            estimate_from_outputs(u, x0, EstimatorConfig(method="ils"))

    def test_singular_raises(self, monkeypatch):
        self._assert_flagged_and_raised([1.0, 1.0, 1.0], monkeypatch)
        self._assert_flagged_and_raised([0.0, 0.0, 0.0], monkeypatch)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_finite_matrix_raises(self, bad, slot, monkeypatch):
        entries = [2.0, 0.5, 1.0]
        entries[slot] = bad
        self._assert_flagged_and_raised(entries, monkeypatch)

    def test_a_batch_flags_only_its_singular_systems(self):
        h_a = np.array([2.0, 1.0, np.inf, 2.0])
        h_b = np.array([0.5, 1.0, 0.5, 0.5])
        h_c = np.array([1.0, 1.0, 1.0, 1.0])
        x_a, x_b, singular = solve_sym2x2(h_a, h_b, h_c, 0.5, 0.5)
        np.testing.assert_array_equal(singular, [False, True, True, False])
        want = solve_sym2x2(2.0, 0.5, 1.0, 0.5, 0.5)
        for row in (0, 3):
            assert (x_a[row], x_b[row]) == want[:2]

    # At -520 the unscaled determinant is subnormal while the noise-level
    # bound on it rounds to zero.
    @pytest.mark.parametrize("power", [-1000, -520, -300, 300, 1000])
    def test_a_system_scaled_by_a_power_of_two_solves_to_the_same_bits(self, power):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((2, 2))
        a = m @ m.T + 0.1 * np.eye(2)
        b = rng.standard_normal(2)
        want = solve_sym2x2(a[0, 0], a[0, 1], a[1, 1], b[0], b[1])
        scaled = [np.ldexp(v, power) for v in (a[0, 0], a[0, 1], a[1, 1], b[0], b[1])]
        assert solve_sym2x2(*scaled) == want

    def test_a_finite_system_near_the_top_of_the_range_is_not_singular(self):
        # det and the squared norm of this system overflow unless it is scaled first.
        x_a, x_b, singular = solve_sym2x2(8e305, 1e305, 2e305, 3e305, 1e305)
        assert not singular
        np.testing.assert_allclose([x_a, x_b], np.linalg.solve([[8.0, 1.0], [1.0, 2.0]], [3.0, 1.0]), rtol=1e-15)


class TestNormalMatrix:
    def test_determinant_positive_for_two_or_more_nonzeros(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            u1 = rng.standard_normal(n)
            if n >= 3 and rng.random() < 0.3:  # sparse case: exactly two nonzero entries
                keep = rng.choice(n, size=2, replace=False)
                mask = np.zeros(n, bool)
                mask[keep] = True
                u1 = np.where(mask, u1, 0.0)
            q = ils_normal_matrix(np.stack([np.zeros(n), u1]))
            assert q[0, 0] * q[1, 1] - q[0, 1] ** 2 > 0.0

    def test_determinant_zero_for_at_most_one_nonzero(self):
        # Dyadic amplitude keeps every cascade sum exact, so the zero is exact.
        for n, hot in [(5, 0), (5, 3), (9, 8), (4, None)]:
            u1 = np.zeros(n)
            if hot is not None:
                u1[hot] = 1.5
            q = ils_normal_matrix(np.stack([np.zeros(n), u1]))
            assert q[0, 0] * q[1, 1] - q[0, 1] ** 2 == 0.0

    def test_equals_newton_hessian_for_first_degree(self):
        _, u, x0 = _random_batch(1, seed=12)
        q = ils_normal_matrix(u)
        for params in [OffsetParams(), OffsetParams(3e-4, 0.1)]:
            _, hess = assemble_gradient_hessian(u, x0, params)
            np.testing.assert_array_equal(hess, q)


class TestFirstDegreeEquivalence:
    def test_newton_equals_ils_from_any_start(self):
        _, u, x0 = _random_batch(1, seed=13)
        q = ils_normal_matrix(u)
        rng = np.random.default_rng(14)
        for _ in range(20):
            start = OffsetParams(float(rng.uniform(-5e-3, 5e-3)), float(rng.uniform(-0.3, 0.3)))
            nm = newton_step(u, x0, start).params
            ils, _, _ = ils_step(u, x0, start, q)
            assert abs(nm.delta - ils.delta) < 1e-12
            assert abs(nm.epsilon - ils.epsilon) < 1e-12

    def test_one_step_convergence(self):
        _, u, x0 = _random_batch(1, seed=15)
        first = newton_step(u, x0, OffsetParams(2e-3, -0.2))
        second = newton_step(u, x0, first.params)
        assert np.max(np.abs(second.step)) < 1e-12

    def test_simplified_is_the_first_ils_iteration(self):
        bank, u, x0 = _random_batch(4, seed=16)
        n = u.shape[-1]
        rng = np.random.default_rng(17)
        x1 = rng.standard_normal(n + bank.order)
        ref = rng.standard_normal(n + bank.group_delay)
        simp = estimate(ref, x1, bank, EstimatorConfig(method="simplified"))
        ils = estimate(ref, x1, bank, EstimatorConfig(method="ils", max_iterations=1))
        assert simp.params.delta == ils.params.delta
        assert simp.params.epsilon == ils.params.epsilon
        assert simp.converged

    def test_simplified_matches_direct_solve(self):
        _, u, x0 = _random_batch(4, seed=18)
        params = estimate_from_outputs(u, x0, EstimatorConfig(method="simplified")).params
        q = ils_normal_matrix(u)
        want = np.linalg.solve(q, np.array([_index_weighted(u[1] * (u[0] - x0))[1],
                                            _index_weighted(u[1] * (u[0] - x0))[0]]))
        np.testing.assert_allclose([params.delta, params.epsilon], -want, rtol=1e-10)


class TestNewtonState:
    def test_reports_prestep_gradient_and_hessian(self):
        _, u, x0 = _random_batch(3, seed=19)
        start = OffsetParams(1e-4, 0.05)
        state = newton_step(u, x0, start)
        g, h = assemble_gradient_hessian(u, x0, start)
        np.testing.assert_array_equal(state.gradient, g)
        np.testing.assert_array_equal(state.hessian, h)
        np.testing.assert_allclose(
            [start.delta - state.params.delta, start.epsilon - state.params.epsilon], state.step, rtol=1e-12
        )

    def test_descent_on_benign_noiseless_data(self):
        bank = small_bank(3)
        model = make_multisine(seed=21)
        gd = bank.group_delay
        x0, x1 = sample_pair(model, ImpairmentSpec(delta=2e-4, epsilon=0.1), 512 + bank.order, start=-gd)
        result = estimate(x0, x1, bank, EstimatorConfig(method="newton", max_iterations=3))
        u, ref = compute_subfilter_outputs(x1, bank), x0[gd : gd + 512]
        costs = [batch_cost(u, ref, rec.params) for rec in result.records]
        assert all(costs[i + 1] <= costs[i] * (1 + 1e-12) for i in range(len(costs) - 1))


class TestOperationCounts:
    def test_closed_forms_match_the_published_totals(self):
        for degree in range(1, 6):
            for n in (64, 1024):
                ops = count_operations("newton", degree, n)
                if degree >= 2:
                    want = (max(degree + 1, 4) * n + 8, (2 * degree - 2) * n + 5, (2 * degree + 5) * n + 4, 1)
                else:
                    want = (2 * n + 8, 5, 7 * n + 4, 1)
                assert (ops.general_mults, ops.fixed_mults, ops.additions, ops.divisions) == want
        ils_one = count_operations("ils", 4, 64, 1)
        assert (ils_one.general_mults, ils_one.fixed_mults, ils_one.additions, ils_one.divisions) == (136, 5, 452, 1)
        ils_two = count_operations("ils", 4, 64, 2)
        assert (ils_two.general_mults, ils_two.fixed_mults, ils_two.additions, ils_two.divisions) == (208, 6, 712, 2)
        simp = count_operations("simplified", 4, 64)
        assert (simp.general_mults, simp.fixed_mults, simp.additions, simp.divisions) == (136, 5, 388, 1)

    def test_instrumented_runs_equal_the_formulas(self):
        rng = np.random.default_rng(22)
        for degree, method, iterations in [(1, "newton", 2), (4, "newton", 1), (4, "ils", 2), (4, "simplified", 1)]:
            bank = small_bank(degree)
            n = 96
            x1 = rng.standard_normal(n + bank.order)
            x0 = rng.standard_normal(n + bank.group_delay)
            result = estimate(x0, x1, bank, EstimatorConfig(method=method, max_iterations=iterations))
            assert result.total_ops == count_operations(method, degree, n, iterations)

    def test_validation(self):
        with pytest.raises(ValueError):
            count_operations("gauss", 2, 64)
        with pytest.raises(ValueError):
            count_operations("newton", 2, 64, iterations=0)
        total = OpCounts(fixed_mults=1, general_mults=2, additions=3, divisions=4) + OpCounts(additions=1)
        assert total == OpCounts(fixed_mults=1, general_mults=2, additions=4, divisions=4)


class TestEstimateDriver:
    def test_converges_to_the_effective_offsets(self):
        bank = design_bank(DesignSpec(degree=4, order=36))
        model = make_multisine(seed=23)
        delta, epsilon = 3e-4, -0.2
        gd = bank.group_delay
        x0, x1 = sample_pair(model, ImpairmentSpec(delta=delta, epsilon=epsilon), 512 + bank.order, start=-gd)
        effective = OffsetParams(delta / (1 + delta), epsilon / (1 + delta))
        # The fixed point carries a small bias from the bank approximation
        # error (about -50 dB here), so the bounds are not machine precision.
        for method in ("newton", "ils"):
            result = estimate(x0, x1, bank, EstimatorConfig(method=method, max_iterations=8, tolerance=1e-6))
            assert result.converged
            assert abs(result.params.delta - effective.delta) < 3e-6
            assert abs(result.params.epsilon - effective.epsilon) < 3e-3

    def test_tolerance_stops_early(self):
        bank = small_bank(2)
        model = make_multisine(seed=24)
        x0, x1 = sample_pair(model, ImpairmentSpec(delta=1e-4, epsilon=0.01), 256 + bank.order, start=-bank.group_delay)
        result = estimate(x0, x1, bank, EstimatorConfig(method="newton", max_iterations=8, tolerance=1e-9))
        assert result.converged
        assert result.iterations < 8

    def test_sfo_only_is_biased_when_a_time_offset_exists(self):
        bank = design_bank(DesignSpec(degree=4, order=36))
        model = make_multisine(seed=25)
        delta, epsilon = 4e-4, -0.2
        x0, x1 = sample_pair(model, ImpairmentSpec(delta=delta, epsilon=epsilon), 1024 + bank.order, start=-bank.group_delay)
        joint = estimate(x0, x1, bank, EstimatorConfig(method="newton", max_iterations=2))
        ablated = estimate(x0, x1, bank, EstimatorConfig(method="newton", max_iterations=2, sfo_only=True))
        effective = delta / (1 + delta)
        assert abs(joint.params.delta - effective) < 3e-6
        assert abs(ablated.params.delta - effective) > 1e-4
        assert ablated.params.epsilon == 0.0
        assert ablated.total_ops == OpCounts()

    # Every method with sfo_only off, then the two that allow it on.
    ALL_VARIANTS = [("newton", False), ("ils", False), ("simplified", False), ("newton", True), ("ils", True)]

    @pytest.mark.parametrize("method,sfo_only", ALL_VARIANTS)
    @pytest.mark.parametrize("make_model", [make_multisine, make_bandpass_noise])
    def test_an_unimpaired_pair_gives_zero_offsets_at_every_iteration(self, make_model, method, sfo_only):
        bank = small_bank(3)
        config = EstimatorConfig(method=method, max_iterations=3, sfo_only=sfo_only)
        for seed in range(3):
            x0, x1 = sample_pair(make_model(seed=seed), ImpairmentSpec(), 256 + bank.order, start=-bank.group_delay)
            result = estimate(x0, x1, bank, config)
            assert result.iterations == (1 if method == "simplified" else 3)
            assert all((rec.params.delta, rec.params.epsilon) == (0.0, 0.0) for rec in result.records)

    @pytest.mark.parametrize("method,sfo_only", ALL_VARIANTS)
    @pytest.mark.parametrize("scale", [1e150, 1e160, 1e300])
    def test_finite_but_huge_inputs_raise_without_warnings(self, scale, method, sfo_only):
        # The index-weighted sums of a 200-sample multisine window overflow
        # from 1e150 on; the update turns non-finite and is flagged quietly.
        bank = small_bank(3)
        gd = bank.group_delay
        x0, x1 = sample_pair(make_multisine(seed=29), ImpairmentSpec(delta=1e-4, epsilon=0.01), 200 + bank.order, start=-gd)
        u = compute_subfilter_outputs(x1 * scale, bank)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError):
                estimate_from_outputs(u, x0[gd : gd + u.shape[-1]] * scale, EstimatorConfig(method=method, sfo_only=sfo_only))

    @pytest.mark.parametrize("method,sfo_only", ALL_VARIANTS)
    def test_a_window_scaled_to_near_overflow_keeps_its_estimate(self, method, sfo_only):
        # The Hessian of this window scaled by 1e150 is finite (largest entry
        # about 8e305), but its determinant is not unless the solver scales it.
        _, u, x0 = _random_batch(3, seed=29)
        config = EstimatorConfig(method=method, sfo_only=sfo_only)
        want = estimate_from_outputs(u, x0, config).params
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = estimate_from_outputs(u * 1e150, x0 * 1e150, config).params
        assert got.delta == pytest.approx(want.delta, rel=1e-12)
        assert got.epsilon == pytest.approx(want.epsilon, rel=1e-12, abs=0.0)
        if (method, sfo_only) == ("newton", True):
            assert got.delta == pytest.approx(-2.4384e-3, rel=1e-4)

    # At 2**-268 the unscaled determinants of these windows are subnormal.
    @settings(max_examples=40)
    @given(power=st.integers(-480, 480), seed=st.integers(0, 999), variant=st.sampled_from(ALL_VARIANTS))
    @example(power=-268, seed=1, variant=("newton", False))
    @example(power=-268, seed=1, variant=("ils", False))
    def test_scaling_both_streams_by_a_power_of_two_leaves_the_estimate_bitwise(self, power, seed, variant):
        method, sfo_only = variant
        bank = small_bank(3)
        gd = bank.group_delay
        model = make_multisine(seed=seed)
        x0, x1 = sample_pair(model, ImpairmentSpec(delta=3e-4, epsilon=0.1), 160 + bank.order, start=-gd)
        config = EstimatorConfig(method=method, max_iterations=3, sfo_only=sfo_only)
        want = estimate(x0, x1, bank, config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = estimate(np.ldexp(x0, power), np.ldexp(x1, power), bank, config)
        assert [(r.params.delta, r.params.epsilon) for r in got.records] == [(r.params.delta, r.params.epsilon) for r in want.records]

    def test_input_guards(self):
        bank = small_bank(2)
        with pytest.raises(TypeError):
            estimate(np.zeros(50, complex), np.zeros(50), bank, EstimatorConfig())
        with pytest.raises(ValueError, match="more than 2"):
            estimate(np.zeros(8), np.zeros(14), bank, EstimatorConfig())
        u = compute_subfilter_outputs(np.ones(40), bank)
        with pytest.raises(TypeError):
            estimate_from_outputs(u + 0j, np.zeros(u.shape[-1]), EstimatorConfig())
        with pytest.raises(TypeError):
            estimate_from_outputs(u, np.zeros(u.shape[-1], complex), EstimatorConfig())
        with pytest.raises(ValueError, match="does not match"):
            estimate_from_outputs(u, np.zeros(u.shape[-1] + 1), EstimatorConfig())
        with pytest.raises(ValueError, match="more than 2"):
            estimate_from_outputs(u[:, :2], np.zeros(2), EstimatorConfig())
        with pytest.raises(ValueError):
            EstimatorConfig(method="bfgs")
        with pytest.raises(ValueError):
            EstimatorConfig(max_iterations=0)
        with pytest.raises(ValueError):
            EstimatorConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            EstimatorConfig(method="simplified", sfo_only=True)

    @pytest.mark.parametrize("method", ["newton", "ils", "simplified"])
    @pytest.mark.parametrize("channel", ["x0", "x1", "u", "ref"])
    def test_non_finite_window_samples_are_rejected(self, method, channel):
        # x0 and x1 go through estimate; u and ref straight into estimate_from_outputs.
        bank = small_bank(2)
        gd = bank.group_delay
        model = make_multisine(seed=28)
        x0, x1 = sample_pair(model, ImpairmentSpec(delta=1e-4, epsilon=0.01), 200 + bank.order, start=-gd)
        u = compute_subfilter_outputs(x1, bank)
        ref = x0[gd : gd + u.shape[-1]].copy()
        target = {"x0": x0, "x1": x1, "u": u[2], "ref": ref}[channel]
        config = EstimatorConfig(method=method)
        for bad in (np.nan, np.inf):
            target[gd + 50] = bad
            with pytest.raises(ValueError, match="non-finite"):
                if channel in ("x0", "x1"):
                    estimate(x0, x1, bank, config)
                else:
                    estimate_from_outputs(u, ref, config)

    def test_non_finite_samples_outside_the_window_are_ignored(self):
        # Unequal lengths: the longer input has a tail past the window the shorter one allows.
        bank = small_bank(2)
        n, gd = 200, bank.group_delay
        model = make_multisine(seed=28)
        x0, x1 = sample_pair(model, ImpairmentSpec(delta=1e-4, epsilon=0.01), n + bank.order + 10, start=-gd)
        config = EstimatorConfig(method="newton")
        for x0_n, x1_n in ((x0, x1[: n + bank.order].copy()), (x0[: n + gd].copy(), x1)):
            want = estimate(x0_n, x1_n, bank, config)
            assert want.records[0].ops == count_operations("newton", 2, n)  # the window is n samples
            longer = x0_n if x0_n.size > n + gd else x1_n
            longer[-1] = np.nan
            got = estimate(x0_n, x1_n, bank, config)
            assert got.params == want.params

    def test_one_real_component_is_consistent_with_averaging(self):
        # Diagnostic: a single-component estimate performs like the average of
        # two per-component estimates, within a factor of two in NMSE.
        bank = design_bank(DesignSpec(degree=4, order=36))
        model = make_multisine(seed=27, complex_signal=True)
        imp = ImpairmentSpec(delta=2e-4, epsilon=0.1, snr_db=30.0, seed=27)
        gd = bank.group_delay
        n = 512
        x0, x1 = sample_pair(model, imp, n + bank.order, start=-gd)
        re = estimate(
            np.ascontiguousarray(x0.real), np.ascontiguousarray(x1.real), bank, EstimatorConfig(max_iterations=2)
        ).params
        im = estimate(
            np.ascontiguousarray(x0.imag), np.ascontiguousarray(x1.imag), bank, EstimatorConfig(max_iterations=2)
        ).params
        avg = OffsetParams(0.5 * (re.delta + im.delta), 0.5 * (re.epsilon + im.epsilon))
        u = compute_subfilter_outputs(x1, bank)
        ref = x0[gd : gd + n]
        err_single = nmse(farrow_output(u, re), ref)
        err_avg = nmse(farrow_output(u, avg), ref)
        assert 0.5 <= err_single / err_avg <= 2.0



class TestTrialAxis:
    """A batch of windows equals one-trial estimates, trial for trial and bit for bit."""

    @staticmethod
    def _windows(offsets, n=256, degree=3):
        bank = small_bank(degree)
        gd = bank.group_delay
        models = [make_multisine(seed=40 + k) for k in range(len(offsets))]
        impairments = [ImpairmentSpec(delta=d, epsilon=e) for d, e in offsets]
        x0, x1 = sample_pairs(models, impairments, n + bank.order, start=-gd)
        u = np.stack([compute_subfilter_outputs(row, bank) for row in x1])
        return u, np.ascontiguousarray(x0[:, gd : gd + n])

    OFFSETS = [(2e-4, 0.1), (-3e-4, 0.25), (0.0, 0.0), (1e-5, -0.02), (4e-4, -0.3)]

    @pytest.mark.parametrize(
        "config",
        [
            EstimatorConfig(method="newton", max_iterations=3),
            EstimatorConfig(method="ils", max_iterations=3),
            EstimatorConfig(method="simplified"),
            EstimatorConfig(method="newton", max_iterations=3, sfo_only=True),
            EstimatorConfig(method="ils", max_iterations=3, sfo_only=True),
            EstimatorConfig(method="newton", max_iterations=3, tolerance=1e-7),
            EstimatorConfig(method="ils", max_iterations=3, tolerance=1e-7),
        ],
        ids=["newton", "ils", "simplified", "newton_sfo", "ils_sfo", "newton_tol", "ils_tol"],
    )
    def test_batch_equals_one_trial_calls(self, config):
        u, ref = self._windows(self.OFFSETS)
        batch = estimate_batch(u, ref, config)
        assert not batch.singular.any()
        for k in range(len(self.OFFSETS)):
            one = estimate_from_outputs(u[k], ref[k], config)
            assert batch.iterations[k] == one.iterations
            assert batch.converged[k] == one.converged
            for m, rec in enumerate(one.records):
                assert (batch.history[m].delta[k], batch.history[m].epsilon[k]) == (rec.params.delta, rec.params.epsilon)
            assert (batch.params.delta[k], batch.params.epsilon[k]) == (one.params.delta, one.params.epsilon)
        if config.tolerance is not None:
            # Trials stop at different iterations, and a stopped trial keeps its offsets.
            assert len(set(batch.iterations.tolist())) > 1

    @pytest.mark.parametrize("method,sfo_only", [("newton", False), ("ils", False), ("simplified", False), ("newton", True), ("ils", True)])
    def test_a_degenerate_row_is_flagged_alone(self, method, sfo_only):
        config = EstimatorConfig(method=method, max_iterations=2, sfo_only=sfo_only)
        u, ref = self._windows(self.OFFSETS[:3])
        healthy = estimate_batch(u[[0, 2]], ref[[0, 2]], config)
        u[1, 1:] = 0.0  # u_1 (and every higher branch) identically zero
        batch = estimate_batch(u, ref, config)
        np.testing.assert_array_equal(batch.singular, [False, True, False])
        for got, want in ((0, 0), (2, 1)):
            assert batch.iterations[got] == healthy.iterations[want]
            assert (batch.params.delta[got], batch.params.epsilon[got]) == (healthy.params.delta[want], healthy.params.epsilon[want])
        with pytest.raises(SingularSystemError):
            estimate_from_outputs(u[1], ref[1], config)

    @settings(max_examples=40)
    @given(
        n=st.integers(3, 4096),
        degree=st.integers(1, 7),
        trials=st.integers(1, 4),
        variant=st.sampled_from([("newton", False), ("ils", False), ("simplified", False), ("newton", True), ("ils", True)]),
        iterations=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=3, degree=1, trials=2, variant=("newton", False), iterations=3, seed=0)
    @example(n=4096, degree=7, trials=2, variant=("ils", False), iterations=2, seed=1)
    @example(n=1001, degree=3, trials=3, variant=("simplified", False), iterations=1, seed=2)
    def test_every_row_of_a_batch_has_the_bits_of_its_one_trial_estimate(self, n, degree, trials, variant, iterations, seed):
        # Window lengths that are not multiples of 8 or 128 sum their rows
        # pairwise with a ragged tail; each row must still sum on its own.
        method, sfo_only = variant
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((trials, degree + 1, n))
        ref = u[:, 0] + 0.05 * rng.standard_normal((trials, n))
        config = EstimatorConfig(method=method, max_iterations=iterations, sfo_only=sfo_only)
        batch = estimate_batch(u, ref, config)
        for k in range(trials):
            if batch.singular[k]:
                with pytest.raises(SingularSystemError):
                    estimate_from_outputs(u[k], ref[k], config)
                continue
            one = estimate_from_outputs(u[k], ref[k], config)
            assert (batch.iterations[k], batch.converged[k]) == (one.iterations, one.converged)
            got = [(h.delta[k], h.epsilon[k]) for h in batch.history[: one.iterations]]
            assert _same_bits(np.array(got), np.array([(r.params.delta, r.params.epsilon) for r in one.records]))
            norms = [abs(float(b[k])) if sfo_only else math.hypot(*b[:, k].tolist()) for b in batch.rhs[: one.iterations]]
            assert norms == [r.residual_norm for r in one.records]

    def test_batch_input_guards(self):
        u, ref = self._windows(self.OFFSETS[:2])
        with pytest.raises(ValueError, match="does not match"):
            estimate_batch(u, ref[0], EstimatorConfig())
        with pytest.raises(ValueError, match="one trial"):
            estimate_from_outputs(u, ref, EstimatorConfig())
        bad = ref.copy()
        bad[1, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            estimate_batch(u, bad, EstimatorConfig())


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _reference_terms(u, x0, params):
    """Newton's per-sample terms (P0, P1, P2) from out-of-place Horner passes over the delay sequence."""
    degree = u.shape[-2] - 1
    branches = [u[..., k, :] for k in range(degree + 1)]
    d = delay_sequence(params, u.shape[-1])
    p0 = branches[degree].copy()
    for k in range(degree - 1, -1, -1):
        p0 = p0 * d + branches[k]
    p0 = p0 - x0
    p1 = degree * branches[degree].copy()
    for k in range(degree - 1, 0, -1):
        p1 = p1 * d + k * branches[k]
    if degree < 2:
        return p0, p1, None
    p2 = degree * (degree - 1) * branches[degree].copy()
    for k in range(degree - 1, 1, -1):
        p2 = p2 * d + k * (k - 1) * branches[k]
    return p0, p1, p2


class TestAtRestAndInPlace:
    """Every step equals out-of-place Horner passes over an explicit delay sequence, bit for bit, at rest and off it."""

    # (delta, epsilon) per trial of a batch of three; a one-trial call takes the first.
    POINTS = {
        "rest": ([0.0] * 3, [0.0] * 3),
        "signed_zero_rest": ([-0.0] * 3, [-0.0, 0.0, -0.0]),
        "off_rest": ([3e-4, -2e-4, 0.0], [-0.2, 0.0, 0.31]),
    }

    @staticmethod
    def _case(degree, batch, point):
        rng = np.random.default_rng(degree)
        deltas, epsilons = TestAtRestAndInPlace.POINTS[point]
        shape = (3,) if batch else ()
        u = rng.standard_normal(shape + (degree + 1, 97))
        x0 = rng.standard_normal(shape + (97,))
        params = OffsetParams(np.array(deltas), np.array(epsilons)) if batch else OffsetParams(deltas[0], epsilons[0])
        return u, x0, params

    @pytest.mark.parametrize("point", sorted(POINTS))
    @pytest.mark.parametrize("batch", [False, True], ids=["one_trial", "batch"])
    @pytest.mark.parametrize("degree", range(1, 8))
    def test_steps_match_out_of_place_horner(self, degree, batch, point):
        u, x0, params = self._case(degree, batch, point)
        before = u.copy()
        p0, p1, p2 = _reference_terms(u, x0, params)
        f1, f2 = p0 * p1, p1 * p1 if p2 is None else p1 * p1 + p0 * p2

        got = per_sample_derivatives(u, x0, params)
        assert _same_bits(got[0], f1) and _same_bits(got[1], f2)
        assert _same_bits(u, before)

        g0, g1, _ = _index_weighted(f1)
        h0, h1, h2 = _index_weighted(f2)
        sd, se, _ = solve_sym2x2(h2, h1, h0, g1, g0)
        state = newton_step(u, x0, params)
        assert _same_bits(state.gradient, np.array([g1, g0]))
        assert _same_bits(state.hessian, np.array([[h2, h1], [h1, h0]]))
        assert _same_bits(state.step, np.array([sd, se]))
        assert _same_bits(state.params.delta, params.delta - sd) and _same_bits(state.params.epsilon, params.epsilon - se)
        assert _same_bits(u, before)

        q = ils_normal_matrix(u)
        c0, c1, _ = _index_weighted(u[..., 1, :] * p0)
        sd, se, _ = solve_sym2x2(q[0, 0], q[0, 1], q[1, 1], c1, c0)
        new, step, c = ils_step(u, x0, params, q)
        assert _same_bits(c, np.array([c1, c0]))
        assert _same_bits(step, np.array([sd, se]))
        assert _same_bits(new.delta, params.delta - sd) and _same_bits(new.epsilon, params.epsilon - se)
        assert _same_bits(u, before)

    @pytest.mark.parametrize("degree", [1, 3])
    def test_a_rest_point_with_its_own_law_axis_broadcasts_as_horner_does(self, degree):
        # Zero offsets of shape (2,) on one trial's outputs are two delay laws, not a rest point of that trial.
        u, x0, _ = self._case(degree, False, "rest")
        params = OffsetParams(np.zeros(2), np.zeros(2))
        p0, p1, p2 = _reference_terms(u, x0, params)
        f1, f2 = per_sample_derivatives(u, x0, params)
        assert f1.shape == (2, u.shape[-1])
        assert _same_bits(f1, p0 * p1) and _same_bits(f2, p1 * p1 if p2 is None else p1 * p1 + p0 * p2)

    @pytest.mark.parametrize("shape", [(50,), (4, 50)], ids=["one_trial", "batch"])
    def test_two_accumulators_give_the_first_two_cascade_sums(self, shape):
        v = np.random.default_rng(0).standard_normal(shape)
        s0, s1 = _index_weighted(v, 2)
        want0, want1, _ = _index_weighted(v)
        assert _same_bits(s0, want0) and _same_bits(s1, want1)

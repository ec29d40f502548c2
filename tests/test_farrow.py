"""Farrow resampler core: branch filtering, Horner combination, serialization."""

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided
from hypothesis import given, settings
from hypothesis import strategies as st

from farrowsync.design import ERROR_FRONTIER, DesignSpec, design_bank, measure_error
from farrowsync.estimation import OffsetParams
from farrowsync.farrow import (
    _FILTER_BLOCK,
    CoefficientBank,
    SubfilterOutputs,
    bank_from_text,
    bank_to_text,
    compute_subfilter_outputs,
    delay_out_of_range,
    delay_sequence,
    farrow_output,
    load_bank,
    save_bank,
)


def _tiny_bank():
    # Order-2 first-degree bank, small enough to verify by hand.
    return CoefficientBank(np.array([[0.0, 1.0, 0.0], [0.5, 0.0, -0.5]]))


@pytest.fixture(scope="module")
def canonical_bank():
    return design_bank(DesignSpec(degree=4, order=36))


def test_hand_computed_branch_outputs_and_combination():
    bank = _tiny_bank()
    u = compute_subfilter_outputs(np.array([1.0, 2.0, 4.0, 8.0]), bank)
    np.testing.assert_array_equal(u.u[0], [2.0, 4.0])
    np.testing.assert_array_equal(u.u[1], [1.5, 3.0])
    y = farrow_output(u, OffsetParams(delta=0.1, epsilon=-0.05))
    np.testing.assert_allclose(y, [2.0 - 0.05 * 1.5, 4.0 + 0.05 * 3.0], rtol=0, atol=1e-15)


def test_zero_delay_output_is_branch_zero_bitwise(canonical_bank):
    rng = np.random.default_rng(0)
    x1 = rng.standard_normal(200)
    u = compute_subfilter_outputs(x1, canonical_bank)
    y = farrow_output(u, OffsetParams())
    np.testing.assert_array_equal(y, u.u[0])
    # Branch zero is the pure bulk delay.
    gd = canonical_bank.group_delay
    np.testing.assert_array_equal(u.u[0], x1[gd : gd + u.n_samples])


def test_horner_matches_direct_polynomial(canonical_bank):
    rng = np.random.default_rng(1)
    x1 = rng.standard_normal(150)
    u = compute_subfilter_outputs(x1, canonical_bank)
    params = OffsetParams(delta=0.0, epsilon=0.31)
    direct = sum(0.31**k * u.u[k] for k in range(u.degree + 1))
    y = farrow_output(u, params)
    np.testing.assert_allclose(y, direct, rtol=1e-13)


def _out_of_place_horner(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``y = y * d + u_k`` from the highest branch down, each step making a fresh array."""
    y = u[..., -1, :]
    for k in range(u.shape[-2] - 2, -1, -1):
        y = y * d + u[..., k, :]
    return y


@pytest.mark.parametrize("kind", [np.float64, np.complex128])
@pytest.mark.parametrize("degree", range(1, 8))
def test_output_bits_equal_an_out_of_place_horner_loop(degree, kind):
    rng = np.random.default_rng(degree)
    n, k_laws, b_trials = 64, 3, 2

    def outputs(*shape):
        u = rng.standard_normal(shape + (degree + 1, n))
        return u + 1j * rng.standard_normal(u.shape) if kind is np.complex128 else u

    def law(*shape):
        return rng.uniform(-4e-4, 4e-4, shape), rng.uniform(-0.4, 0.4, shape)

    # Delay-law shape (), (K,) and (B, K), with the branch outputs each one takes.
    for u, (delta, epsilon) in [(outputs(), law()), (outputs(), law(k_laws)), (outputs(b_trials, 1), law(b_trials, k_laws))]:
        for n0 in (0, -7, 11):
            d = np.arange(n0, n0 + n, dtype=np.float64) * delta[..., None] + epsilon[..., None]
            want = _out_of_place_horner(u, d)
            y = farrow_output(SubfilterOutputs(u), OffsetParams(delta, epsilon), n0)
            assert (y.shape, y.dtype) == (want.shape, want.dtype) == (np.broadcast_shapes(u.shape[:-2], delta.shape) + (n,), kind)
            assert y.tobytes() == want.tobytes(), (delta.shape, n0)


def test_delay_fidelity_within_measured_error(canonical_bank):
    delta_c = measure_error(canonical_bank).max_error
    gd = canonical_bank.group_delay
    for omega, d in [(0.8 * np.pi, 0.37), (0.5 * np.pi, -0.5), (0.9 * np.pi, 0.11)]:
        t = np.arange(300.0)
        x1 = np.cos(omega * t + 0.4)
        u = compute_subfilter_outputs(x1, canonical_bank)
        y = farrow_output(u, OffsetParams(delta=0.0, epsilon=d))
        want = np.cos(omega * (np.arange(u.n_samples) + gd - d) + 0.4)
        assert np.max(np.abs(y - want)) <= 2.0 * delta_c


def test_output_is_linear_in_the_input(canonical_bank):
    rng = np.random.default_rng(2)
    xa = rng.standard_normal(120)
    xb = rng.standard_normal(120)
    params = OffsetParams(delta=2e-4, epsilon=0.2)

    def run(x):
        return farrow_output(compute_subfilter_outputs(x, canonical_bank), params)

    np.testing.assert_allclose(run(1.5 * xa - 0.25 * xb), 1.5 * run(xa) - 0.25 * run(xb), rtol=1e-12)


def test_window_origin_offset():
    bank = _tiny_bank()
    u = compute_subfilter_outputs(np.arange(8.0), bank)
    shifted = farrow_output(u, OffsetParams(delta=0.01, epsilon=0.0), n0=5)
    d = (np.arange(u.n_samples) + 5) * 0.01
    np.testing.assert_allclose(shifted, u.u[0] + d * u.u[1], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(delay_sequence(OffsetParams(0.01, 0.0), u.n_samples, n0=5), d)


@pytest.mark.parametrize("kind", [np.float64, np.complex128])
def test_the_delay_law_takes_the_branch_dtype_and_a_real_one_no_copy(kind, monkeypatch):
    from farrowsync import farrow

    laws, seen = [], []

    def law(*args):
        laws.append(delay_sequence(*args))
        return laws[-1]

    monkeypatch.setattr(farrow, "delay_sequence", law)
    monkeypatch.setattr(farrow, "_horner", lambda d, terms: seen.append(d))
    farrow_output(SubfilterOutputs(np.ones((3, 16), dtype=kind)), OffsetParams(np.array([1e-4, 2e-4]), np.array([0.1, -0.1])))
    assert seen[0].dtype == kind and np.array_equal(seen[0], laws[0])
    assert (seen[0] is laws[0]) == (kind is np.float64)


def test_complex_compensation_is_componentwise(canonical_bank):
    rng = np.random.default_rng(3)
    z = rng.standard_normal(160) + 1j * rng.standard_normal(160)
    # A run of signed zeros longer than the filters gives zero outputs whose signs must match too.
    z.real[50:110] = np.where(rng.random(60) < 0.5, -0.0, 0.0)
    z.imag[50:110] = np.where(rng.random(60) < 0.5, -0.0, 0.0)
    u = compute_subfilter_outputs(z, canonical_bank)
    u_re = compute_subfilter_outputs(z.real, canonical_bank)
    u_im = compute_subfilter_outputs(np.ascontiguousarray(z.imag), canonical_bank)
    assert u.u.dtype == np.complex128
    np.testing.assert_array_equal(u.u.real, u_re.u)
    np.testing.assert_array_equal(u.u.imag, u_im.u)
    assert np.array_equal(np.signbit(u.u.real), np.signbit(u_re.u))
    assert np.array_equal(np.signbit(u.u.imag), np.signbit(u_im.u))
    params = OffsetParams(delta=1e-4, epsilon=-0.1)
    y = farrow_output(u, params)
    np.testing.assert_array_equal(y.real, farrow_output(u_re, params))
    np.testing.assert_array_equal(y.imag, farrow_output(u_im, params))


@pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
def test_a_batch_of_delay_laws_gives_each_row_its_one_law_bits(canonical_bank, is_complex):
    rng = np.random.default_rng(4)
    shape = (3, 300)
    x1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape) if is_complex else rng.standard_normal(shape)
    streams = [compute_subfilter_outputs(x, canonical_bank) for x in x1]
    delta = rng.uniform(-4e-4, 4e-4, (3, 5))
    epsilon = rng.uniform(-0.4, 0.4, (3, 5))

    def one_law(b, k):
        return farrow_output(streams[b], OffsetParams(float(delta[b, k]), float(epsilon[b, k])), n0=-7)

    # Params of shape (K,) on one stream's (L+1, N) outputs.
    y = farrow_output(streams[0], OffsetParams(delta[0], epsilon[0]), n0=-7)
    assert y.shape == (5, streams[0].n_samples) and y.dtype == streams[0].u.dtype
    for k in range(5):
        assert np.array_equal(y[k], one_law(0, k))
    # Params of shape (B, K) on (B, 1, L+1, N) outputs.
    batch = SubfilterOutputs(np.stack([s.u for s in streams])[:, None])
    y = farrow_output(batch, OffsetParams(delta, epsilon), n0=-7)
    assert y.shape == (3, 5, streams[0].n_samples)
    for b in range(3):
        for k in range(5):
            assert np.array_equal(y[b, k], one_law(b, k))


@pytest.mark.parametrize("degree,order", sorted({(degree, order) for _, degree, order in ERROR_FRONTIER}))
def test_branch_outputs_match_a_convolution_for_every_frontier_shape(degree, order):
    rng = np.random.default_rng(degree * 100 + order)
    taps = rng.standard_normal((degree + 1, order + 1))
    taps[0] = 0.0
    taps[0, order // 2] = 1.0
    bank = CoefficientBank(taps)
    x = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    for stream in (x.real, x):
        u = compute_subfilter_outputs(stream, bank).u
        want = np.array([np.convolve(stream, row)[order : stream.size] for row in taps])
        assert u.dtype == want.dtype
        assert np.max(np.abs(u - want)) <= 1e-14 * np.max(np.abs(want))


def test_branch_outputs_match_a_convolution_across_column_blocks(canonical_bank):
    # Two full blocks of output columns and a partial third.
    order = canonical_bank.order
    rng = np.random.default_rng(11)
    x = rng.standard_normal(2 * 4096 + 100 + order) + 1j * rng.standard_normal(2 * 4096 + 100 + order)
    for stream in (x.real, x):
        u = compute_subfilter_outputs(stream, canonical_bank).u
        want = np.array([np.convolve(stream, row)[order : stream.size] for row in canonical_bank.taps])
        assert np.max(np.abs(u - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [300, 4096 + 50], ids=["one_block", "two_blocks"])
@pytest.mark.parametrize("trials", [(3,), (2, 2)], ids=["B", "AxB"])
@pytest.mark.parametrize("kind", ["real", "complex", "strided_real"])
def test_a_batch_of_streams_gives_every_row_the_bits_of_a_one_stream_call(canonical_bank, kind, trials, n):
    rng = np.random.default_rng(n)
    z = rng.standard_normal(trials + (n,)) + 1j * rng.standard_normal(trials + (n,))
    x = {"real": np.ascontiguousarray(z.real), "complex": z, "strided_real": z.real}[kind]
    shape = (canonical_bank.degree + 1, n - canonical_bank.order)
    u = compute_subfilter_outputs(x, canonical_bank).u
    assert u.shape == trials + shape
    for trial in np.ndindex(trials):
        one = compute_subfilter_outputs(x[trial], canonical_bank).u
        assert one.shape == shape
        assert u[trial].dtype == one.dtype and u[trial].tobytes() == one.tobytes(), trial


def _strided_subfilter_outputs(x1, bank):
    """The branch filter as it was first written: ``as_strided`` windows of each component, a contiguous copy, and ``@``."""
    x1 = np.asarray(x1)
    order, n_out = bank.order, x1.shape[-1] - bank.order
    rows = x1.reshape(-1, x1.shape[-1])
    u = np.empty((len(rows), bank.degree + 1, n_out), dtype=np.complex128 if np.iscomplexobj(x1) else np.float64)
    passes = [(u.real, rows.real), (u.imag, rows.imag)] if np.iscomplexobj(x1) else [(u, rows)]
    for out, part in passes:
        for start in range(0, n_out, 4096):
            stop = min(start + 4096, n_out)
            for b in range(len(rows)):
                windows = as_strided(part[b, start:], (order + 1, stop - start), part.strides[-1:] * 2, writeable=False)
                out[b, :, start:stop] = bank.taps[:, ::-1] @ np.ascontiguousarray(windows)
    return u.reshape(x1.shape[:-1] + u.shape[1:])


def _random_bank(degree, order, seed):
    taps = np.random.default_rng(seed).standard_normal((degree + 1, order + 1))
    taps[0] = 0.0
    taps[0, order // 2] = 1.0
    return CoefficientBank(taps)


@pytest.mark.parametrize("kind", ["real", "real_part_view", "complex", "batch", "strided_batch", "long_real", "long_complex"])
def test_branch_outputs_have_the_bits_of_the_strided_window_product(canonical_bank, kind):
    assert _FILTER_BLOCK == 4096
    for bank in (_random_bank(1, 2, 1), canonical_bank, _random_bank(7, 62, 2)):
        n = 1036 if not kind.startswith("long") else _FILTER_BLOCK + bank.order + 300
        rng = np.random.default_rng(n + bank.order)
        z = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        x = {
            "real": np.ascontiguousarray(z[0].real),
            "real_part_view": z[0].real,
            "complex": z[0],
            "batch": np.ascontiguousarray(z.real),
            "strided_batch": z.real,
            "long_real": np.ascontiguousarray(z[1].real),
            "long_complex": z[1],
        }[kind]
        got, want = compute_subfilter_outputs(x, bank).u, _strided_subfilter_outputs(x, bank)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (bank.degree, bank.order)


def test_branch_filter_memory_does_not_grow_with_the_window_matrix(canonical_bank):
    # A copy of the whole (N_G+1) x N window matrix of this stream would take
    # about 39 MB; the blocked product copies one block at a time.
    x = np.random.default_rng(12).standard_normal(2**17)
    tracemalloc.start()
    try:
        u = compute_subfilter_outputs(x, canonical_bank)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - u.u.nbytes < 4 * 2**20


def test_a_batch_of_streams_holds_its_branch_outputs_once(canonical_bank):
    # Each stream is filtered straight into its slot of the one result, so
    # the peak is the result plus one stream's filter work, not the result twice.
    x1 = np.random.default_rng(6).standard_normal((64, 2048 + canonical_bank.order))
    tracemalloc.start()
    try:
        u = compute_subfilter_outputs(x1, canonical_bank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * u.u.nbytes, (peak, u.u.nbytes)


def test_subfilter_outputs_reject_short_input(canonical_bank):
    with pytest.raises(ValueError):
        compute_subfilter_outputs(np.zeros(canonical_bank.order), canonical_bank)
    with pytest.raises(ValueError):
        compute_subfilter_outputs(np.zeros(canonical_bank.order, complex), canonical_bank)
    with pytest.raises(ValueError, match="per stream"):
        compute_subfilter_outputs(np.zeros((3, canonical_bank.order)), canonical_bank)


def test_bank_validation():
    with pytest.raises(ValueError, match="even"):
        CoefficientBank(np.zeros((2, 4)))
    with pytest.raises(ValueError, match="unit pulse"):
        CoefficientBank(np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        CoefficientBank(np.array([[0.0, 1.0, 0.0], [np.inf, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        CoefficientBank(np.array([[0.0, 1.0, 0.0]]))  # a single row is not a bank


def test_delay_range_flag_checks_window_endpoints():
    assert delay_out_of_range(OffsetParams(450e-6, 0.05), 1024)
    assert not delay_out_of_range(OffsetParams(450e-6, 0.039), 1024)
    assert delay_out_of_range(OffsetParams(-450e-6, -0.05), 1024)
    assert not delay_out_of_range(OffsetParams(0.0, 0.2), 0)


def test_serialization_roundtrip_is_exact(canonical_bank, tmp_path):
    again = bank_from_text(bank_to_text(canonical_bank))
    np.testing.assert_array_equal(again.taps, canonical_bank.taps)
    path = tmp_path / "bank.txt"
    save_bank(canonical_bank, path)
    np.testing.assert_array_equal(load_bank(path).taps, canonical_bank.taps)


def test_serialization_rejects_malformed_text():
    good = bank_to_text(_tiny_bank())
    with pytest.raises(ValueError, match="empty"):
        bank_from_text("")
    with pytest.raises(ValueError, match="header"):
        bank_from_text("1 2 3\n0 1 0\n")
    with pytest.raises(ValueError, match="rows"):
        bank_from_text(good.splitlines()[0] + "\n0 1 0\n")
    with pytest.raises(ValueError, match="taps"):
        bank_from_text("1 2\n0 1 0\n0.5 0\n")


@settings(max_examples=25)
@given(
    delta=st.floats(-4e-4, 4e-4),
    epsilon=st.floats(-0.45, 0.45),
    seed=st.integers(0, 2**32 - 1),
)
def test_combination_matches_direct_sum_for_any_delay_law(delta, epsilon, seed):
    bank = _tiny_bank()
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal(40)
    u = compute_subfilter_outputs(x1, bank)
    params = OffsetParams(delta, epsilon)
    d = delay_sequence(params, u.n_samples)
    direct = u.u[0] + d * u.u[1]
    np.testing.assert_allclose(farrow_output(u, params), direct, rtol=0, atol=1e-12)

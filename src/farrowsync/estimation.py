"""Joint estimation of sampling-frequency and sampling-time offsets.

Both estimators minimize the batch cost

    F(delta, epsilon) = 1/2 * sum_n (y(n, d(n)) - x0(n))**2,
    y(n, d) = sum_k d**k * u_k(n),   d(n) = n*delta + epsilon,

over a window of N samples, starting always from (0, 0):

* Newton iterations use the exact gradient and Hessian of F.  The per-sample
  pieces are three Horner evaluations sharing the branch outputs: the
  residual P0 = y - x0, the first delay derivative P1 = sum k*u_k*d**(k-1)
  and the second P2 = sum k*(k-1)*u_k*d**(k-2), giving
  F'_n = P0*P1 and F''_n = P1**2 + P0*P2.
* Iterative least squares (ILS) linearizes y around the current delay using
  only the first-degree branch, solving the normal equations with the fixed
  matrix Q built from u_1 once per batch and the projected residual c
  refreshed each iteration.

Two variants are restrictions of these steps rather than further algorithms.
The simplified estimator is one ILS iteration from rest: the closed form
both methods reduce to for a first-degree bank, since the Farrow output at
zero delay is exactly u_0 for any degree.  ``sfo_only`` pins epsilon at
zero and solves only the delta row of the method's own system: the first
entry of the gradient (or of c) over the first diagonal entry of the
Hessian (or of Q).

Index-weighted sums ``sum n^p * v(n)`` are never formed with explicit
products; each is obtained from plain running-sum cascades (one addition per
sample) combined with a handful of fixed multiplications at the end of the
batch:

    A1 = sum v,  A2 = sum (N-n)*v,  A3 = sum (N-n)(N-n+1)/2 * v
    sum n*v   = N*A1 - A2
    sum n^2*v = N^2*A1 - (2N+1)*A2 + 2*A3

Every step takes leading trial axes: branch outputs ``(..., L+1, N)``,
references ``(..., N)`` and offsets of the batch shape, accumulated along the
last axis, with 2-vectors and 2x2 matrices carrying their component axes
first.  The Horner passes, running sums and closed-form solves are real
elementwise or per-row operations, so a batch gives every trial exactly the
bits of a one-trial call.  :func:`estimate_batch` runs a batch and flags a
trial whose 2x2 system is singular instead of raising;
:func:`estimate_from_outputs` is its one-trial case and raises
:class:`SingularSystemError` from that flag.  Every Monte-Carlo campaign
hands it at most ``harness.TRIAL_CHUNK`` trials at a time.

Operation counters account for a fixed-point reference datapath, not for the
numpy arithmetic executed here: multiplies by compile-time constants count as
fixed multiplications, and work shared with the compensator (the branch
convolutions and the Farrow output y itself) is excluded.  Per batch of N
samples and one iteration the totals are, for Newton with degree L >= 2,
``max(L+1,4)*N+8`` general multiplications, ``(2L-2)*N+5`` fixed,
``(2L+5)*N+4`` additions and one division; for degree 1 and for ILS,
``2N+8`` general, five fixed, ``7N+4`` additions and one division.  ILS
iterations after the first reuse Q and are cheaper; see
:func:`count_operations`.  The power-of-two scaling in :func:`solve_sym2x2`
shifts exponents only and is not counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .farrow import CoefficientBank, SubfilterOutputs, compute_subfilter_outputs, delay_out_of_range, delay_sequence, farrow_output

_METHODS = ("newton", "ils", "simplified")


class SingularSystemError(RuntimeError):
    """Raised when the 2x2 normal or Hessian system cannot be solved."""


@dataclass(frozen=True)
class OffsetParams:
    """Current (delta, epsilon) point; delta is relative, epsilon in samples."""

    delta: float = 0.0
    epsilon: float = 0.0

    @property
    def delta_ppm(self) -> float:
        return self.delta * 1e6

    def as_array(self) -> np.ndarray:
        return np.array([self.delta, self.epsilon])


@dataclass(frozen=True)
class OpCounts:
    """Reference-datapath operation tallies for one or more iterations."""

    fixed_mults: int = 0
    general_mults: int = 0
    additions: int = 0
    divisions: int = 0

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            self.fixed_mults + other.fixed_mults,
            self.general_mults + other.general_mults,
            self.additions + other.additions,
            self.divisions + other.divisions,
        )


def cascaded_accumulate(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the three-accumulator cascade along the last axis of ``v`` (one addition per stage and sample).

    Stage 1 sums ``v``; each later stage sums the running output of the one
    before, so the final values weight ``v[n]`` by 1, ``N-n`` and
    ``(N-n)(N-n+1)/2`` respectively, without any multiplications.  Leading
    axes are trials, each accumulated on its own.
    """
    c1 = v.cumsum(axis=-1)
    c2 = c1.cumsum(axis=-1)
    c3 = c2.cumsum(axis=-1)
    # [()] turns the 0-d result of a single trial into a scalar, which keeps
    # the per-batch arithmetic that follows cheap.
    return c1[..., -1][()], c2[..., -1][()], c3[..., -1][()]


def weighted_sums(acc: tuple, n_samples: int) -> tuple:
    """Recover ``(sum v, sum n*v, sum n^2*v)`` from the cascade outputs ``(a1, a2, a3)``."""
    n = float(n_samples)
    a1, a2, a3 = acc
    s0 = a1
    s1 = n * a1 - a2
    s2 = n * n * a1 - (2.0 * n + 1.0) * a2 + 2.0 * a3
    return s0, s1, s2


def per_sample_derivatives(u: SubfilterOutputs, x0: np.ndarray, params: OffsetParams, n0: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample first and second derivatives of the cost w.r.t. the delay.

    Returns ``(F'_n, F''_n)`` evaluated at ``params`` over the window.  For a
    first-degree bank the second derivative collapses to ``u_1**2``.
    """
    degree = u.degree
    d = delay_sequence(params, u.n_samples, n0)
    branches = u.branches
    p0 = branches[degree].copy()
    for k in range(degree - 1, -1, -1):
        p0 = p0 * d + branches[k]
    p0 -= x0
    p1 = degree * branches[degree].copy()
    for k in range(degree - 1, 0, -1):
        p1 = p1 * d + k * branches[k]
    if degree >= 2:
        p2 = degree * (degree - 1) * branches[degree].copy()
        for k in range(degree - 1, 1, -1):
            p2 = p2 * d + k * (k - 1) * branches[k]
        f2 = p1 * p1 + p0 * p2
    else:
        f2 = p1 * p1
    return p0 * p1, f2


def batch_cost(u: SubfilterOutputs, x0: np.ndarray, params: OffsetParams, n0: int = 0) -> float:
    """Value of the batch cost F at ``params`` for one trial (diagnostic; not op-counted)."""
    r = farrow_output(u, params, n0) - x0
    return 0.5 * float(r @ r)


def _index_weighted(v: np.ndarray, n0: int) -> tuple:
    """(sum v, sum n*v, sum n^2*v) along the last axis with n starting at ``n0``, via the cascade."""
    s0, s1, s2 = weighted_sums(cascaded_accumulate(v), v.shape[-1])
    if n0:
        s2 = s2 + 2.0 * n0 * s1 + n0 * n0 * s0
        s1 = s1 + n0 * s0
    return s0, s1, s2


def assemble_gradient_hessian(
    u: SubfilterOutputs, x0: np.ndarray, params: OffsetParams, n0: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient ``(2, ...)`` and Hessian ``(2, 2, ...)`` of F w.r.t. ``(delta, epsilon)`` at ``params``."""
    f1, f2 = per_sample_derivatives(u, x0, params, n0)
    g0, g1, _ = _index_weighted(f1, n0)
    h0, h1, h2 = _index_weighted(f2, n0)
    gradient = np.array([g1, g0])
    hessian = np.array([[h2, h1], [h1, h0]])
    return gradient, hessian


_SINGULAR_RTOL = 1e3 * np.finfo(np.float64).eps


def solve_sym2x2(h_a, h_b, h_c, g_a, g_b) -> tuple:
    """Solve ``[[h_a, h_b], [h_b, h_c]] @ x = [g_a, g_b]`` in closed form, elementwise over trials.

    Returns ``(x_a, x_b, singular)``.  ``singular`` flags each system with a
    non-finite entry or whose determinant is at noise level relative to its
    squared Frobenius norm; its solution entries are NaN.

    Each system is first multiplied by a power of two that brings its
    largest ``|h|`` to within a factor of four of one.  That only shifts
    exponents, so it leaves the bits of a solution unchanged while keeping
    the determinant and the norm clear of overflow and underflow: scaling a
    system by ``2**k`` changes neither its solution nor its flag.  A system
    whose entries all lie below the smallest normal float is flagged.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite system is flagged, not warned about
        scale = np.ldexp(1.0, -np.frexp(0.25 * abs(h_a) + 0.5 * abs(h_b) + 0.25 * abs(h_c))[1])
        h_a, h_b, h_c, g_a, g_b = h_a * scale, h_b * scale, h_c * scale, g_a * scale, g_b * scale
        det = h_a * h_c - h_b * h_b
        frob2 = h_a * h_a + 2.0 * h_b * h_b + h_c * h_c
        # The comparison is also False for a NaN or infinite norm.
        singular = ~(abs(det) > _SINGULAR_RTOL * frob2)
        inv_det = 1.0 / (np.where(singular, np.nan, det) if singular.any() else det)
        return (h_c * g_a - h_b * g_b) * inv_det, (h_a * g_b - h_b * g_a) * inv_det, singular


@dataclass(frozen=True)
class NewtonState:
    """Outcome of one Newton step: the new point plus the data that produced it."""

    params: OffsetParams
    step: np.ndarray  # subtracted update (delta, epsilon components)
    gradient: np.ndarray  # evaluated at the pre-step point
    hessian: np.ndarray  # evaluated at the pre-step point


def newton_step(u: SubfilterOutputs, x0: np.ndarray, params: OffsetParams, n0: int = 0) -> NewtonState:
    """One exact Newton update ``w <- w - H^{-1} g`` from ``params``; a singular ``H`` gives a NaN update."""
    gradient, hessian = assemble_gradient_hessian(u, x0, params, n0)
    sd, se, _ = solve_sym2x2(hessian[0, 0], hessian[0, 1], hessian[1, 1], gradient[0], gradient[1])
    new = OffsetParams(params.delta - sd, params.epsilon - se)
    return NewtonState(params=new, step=np.array([sd, se]), gradient=gradient, hessian=hessian)


def ils_normal_matrix(u: SubfilterOutputs, n0: int = 0) -> np.ndarray:
    """Index-weighted normal matrix Q, shape ``(2, 2, ...)``, built from the first-degree branch.

    Q is fixed for the whole batch; it is invertible exactly when u_1 is
    nonzero at two or more window positions (then det Q > 0 by
    Cauchy-Schwarz, with equality impossible for distinct indices).
    """
    u1 = u.branches[1]
    q0, q1, q2 = _index_weighted(u1 * u1, n0)
    return np.array([[q2, q1], [q1, q0]])


def ils_step(
    u: SubfilterOutputs, x0: np.ndarray, params: OffsetParams, normal_matrix: np.ndarray, n0: int = 0
) -> tuple[OffsetParams, np.ndarray, np.ndarray]:
    """One ILS update from ``params`` given the precomputed Q; a singular Q gives a NaN update.

    Returns ``(new_params, step, c)`` where ``c`` is the projected residual
    vector of the linearized problem.
    """
    r = farrow_output(u, params, n0) - x0
    c0, c1, _ = _index_weighted(u.branches[1] * r, n0)
    c = np.array([c1, c0])
    sd, se, _ = solve_sym2x2(normal_matrix[0, 0], normal_matrix[0, 1], normal_matrix[1, 1], c[0], c[1])
    new = OffsetParams(params.delta - sd, params.epsilon - se)
    return new, np.array([sd, se]), c


# ── Batch driver ──────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class EstimatorConfig:
    """Options of :func:`estimate_from_outputs` and :func:`estimate`.

    ``tolerance`` enables early stopping on the max-norm of the applied update.
    ``method="simplified"`` runs exactly one ILS iteration.  ``sfo_only``
    keeps epsilon at zero and solves the delta row of the method's system
    alone; it exists to quantify the cost of ignoring the time offset and
    has no operation-count model.
    """

    method: str = "newton"
    max_iterations: int = 2
    tolerance: float | None = None
    compute_cost: bool = False
    sfo_only: bool = False

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.tolerance is not None and self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.sfo_only and self.method == "simplified":
            raise ValueError("the simplified estimator is inherently joint")


@dataclass(frozen=True)
class IterationRecord:
    """State after one iteration, as written to trace files."""

    iteration: int
    params: OffsetParams
    step: np.ndarray
    residual_norm: float  # 2-norm of the solved right-hand side (g or c)
    cost: float  # batch cost at params, nan unless compute_cost
    delay_exceeded: bool  # any |d(n)| > 0.5 over the window at params
    ops: OpCounts


@dataclass(frozen=True)
class EstimationResult:
    params: OffsetParams
    records: tuple[IterationRecord, ...]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def total_ops(self) -> OpCounts:
        total = OpCounts()
        for rec in self.records:
            total = total + rec.ops
        return total


TRACE_HEADER = ("iter", "delta_ppm", "epsilon", "grad_norm", "cost", "flag_d_exceeded")


def trace_rows(result: EstimationResult) -> list[tuple]:
    """Trace table rows matching :data:`TRACE_HEADER`."""
    return [
        (rec.iteration, rec.params.delta_ppm, rec.params.epsilon, rec.residual_norm, rec.cost, int(rec.delay_exceeded))
        for rec in result.records
    ]


@lru_cache(maxsize=None)
def _iteration_ops(method: str, degree: int, n: int, first: bool) -> OpCounts:
    """Stage-by-stage tally of one iteration; sums to the closed forms in the module docstring.

    ILS builds Q on its first iteration and reuses it after; the simplified
    estimate is a first ILS iteration at rest, which needs no delay sequence.
    """
    if method == "newton":
        if degree >= 2:
            ops = OpCounts(general_mults=max(degree - 3, 0) * n, additions=n)  # d and its powers
            ops = ops + OpCounts(general_mults=4 * n, fixed_mults=(2 * degree - 2) * n, additions=(2 * degree - 1) * n)
        else:
            ops = OpCounts(general_mults=2 * n, additions=2 * n)  # delay law plus derivative products
    elif first:
        ops = OpCounts(additions=n if method == "simplified" else 2 * n)  # residual y - x0, and the delay sequence off rest
        ops = ops + OpCounts(general_mults=2 * n)  # u1*r and u1*u1
    else:
        ops = OpCounts(additions=2 * n)  # delay sequence and residual y - x0
        ops = ops + OpCounts(general_mults=n)  # u1*r only
        ops = ops + OpCounts(fixed_mults=1, additions=2 * (n - 1) + 1)  # c accumulators and their combine
    if method == "newton" or first:
        ops = ops + OpCounts(additions=5 * (n - 1))  # five cascaded accumulators
        ops = ops + OpCounts(fixed_mults=5, additions=4)  # index-weighted combines
    ops = ops + OpCounts(general_mults=8, additions=3, divisions=1)  # 2x2 solve
    return ops + OpCounts(additions=2)  # parameter update


def count_operations(method: str, degree: int, n_samples: int, iterations: int = 1) -> OpCounts:
    """Closed-form operation counts of a full estimation run.

    Per iteration these match the module-docstring formulas; for ILS the
    first iteration includes assembling Q and later ones reuse it.  The
    simplified estimate is always one iteration.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    total = OpCounts()
    for m in range(1 if method == "simplified" else iterations):
        total = total + _iteration_ops(method, degree, n_samples, m == 0)
    return total


@dataclass(frozen=True)
class BatchEstimate:
    """What :func:`estimate_batch` found for each trial of a batch.

    ``history[m]`` holds the offsets after iteration ``m + 1``, ``steps[m]``
    the update of that iteration and ``rhs[m]`` the right-hand side it
    solved (the gradient or ``c``; for ``sfo_only`` the scalar numerator),
    with the component axis of 2 first and the batch shape after it.  A
    trial that stopped repeats its last offsets.  ``iterations`` counts the
    iterations each trial completed, ``converged`` marks a stop at the
    tolerance, and ``singular`` marks a trial whose update was not finite.
    """

    history: tuple[OffsetParams, ...]
    steps: tuple[np.ndarray, ...]
    rhs: tuple[np.ndarray, ...]
    iterations: np.ndarray
    converged: np.ndarray
    singular: np.ndarray

    @property
    def params(self) -> OffsetParams:
        """Final offsets of every trial."""
        return self.history[-1]


def estimate_batch(u: SubfilterOutputs, ref: np.ndarray, config: EstimatorConfig) -> BatchEstimate:
    """Estimate the offsets of a batch of measured streams from their branch outputs, all from rest.

    ``u`` has shape ``(..., L+1, N)`` and ``ref`` shape ``(..., N)``; every
    leading index is one trial, and window sample ``n`` of a trial compares
    ``y(n)`` against ``ref[..., n]``.  Each step runs once for the whole
    batch, and each trial's numbers are bit for bit those of a one-trial
    call.  A trial whose update is not finite (a singular or non-finite 2x2
    system, or zero curvature for ``sfo_only``) is flagged ``singular`` and
    frozen; so is a trial whose step fell below ``tolerance``, as converged.
    The inputs must be real, longer than 2 samples and finite.
    """
    ref = np.asarray(ref)
    if np.iscomplexobj(u.u) or np.iscomplexobj(ref):
        raise TypeError("estimation operates on one real component")
    n = u.n_samples
    if u.u.ndim < 2 or ref.shape != u.u.shape[:-2] + (n,):
        raise ValueError(f"reference of shape {ref.shape} does not match branch outputs of shape {u.u.shape}")
    if n <= 2:
        raise ValueError(f"need more than 2 window samples, got {n}")
    if not (np.isfinite(u.u).all() and np.isfinite(ref).all()):
        raise ValueError("inputs hold non-finite samples inside the estimation window")
    ref = ref.astype(np.float64, copy=False)
    shape = ref.shape[:-1]
    params = OffsetParams(np.zeros(shape), np.zeros(shape))
    history: list[OffsetParams] = []
    steps: list[np.ndarray] = []
    rhs: list[np.ndarray] = []
    normal_matrix: np.ndarray | None = None
    active: np.ndarray | None = None  # per-trial state, made when the first trial stops
    # Huge finite inputs overflow to a non-finite update, which is flagged below.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for m in range(1, (1 if config.method == "simplified" else config.max_iterations) + 1):
            if config.method == "newton":
                state = newton_step(u, ref, params)
                new, step, b, system = state.params, state.step, state.gradient, state.hessian
            else:
                if normal_matrix is None:
                    normal_matrix = ils_normal_matrix(u)
                new, step, b = ils_step(u, ref, params, normal_matrix)
                system = normal_matrix
            if config.sfo_only:
                b = b[0]
                sd = b / system[0, 0]
                new, step = OffsetParams(params.delta - sd, params.epsilon), np.array([sd, np.zeros_like(sd)])
            stop = np.max(np.abs(step), axis=0) < config.tolerance if config.tolerance is not None else None
            if active is None and np.isfinite(step).all() and (stop is None or not stop.any()):
                params = new
            else:
                if active is None:
                    active = np.ones(shape, dtype=bool)
                    iterations = np.full(shape, m - 1)
                    converged = np.zeros(shape, dtype=bool)
                    singular = np.zeros(shape, dtype=bool)
                failed = active & ~np.isfinite(step).all(axis=0)
                singular |= failed
                active &= ~failed
                params = OffsetParams(np.where(active, new.delta, params.delta), np.where(active, new.epsilon, params.epsilon))
                iterations += active
                if stop is not None:
                    stop &= active
                    converged |= stop
                    active &= ~stop
            history.append(params)
            steps.append(step)
            rhs.append(b)
            if active is not None and not active.any():
                break
    if active is None:
        iterations = np.full(shape, len(history))
        converged = singular = np.zeros(shape, dtype=bool)
    if config.method == "simplified":
        converged = ~singular
    return BatchEstimate(tuple(history), tuple(steps), tuple(rhs), iterations, converged, singular)


def estimate_from_outputs(u: SubfilterOutputs, ref: np.ndarray, config: EstimatorConfig) -> EstimationResult:
    """Estimate the offsets of one measured stream from its branch outputs, from a standing start.

    The window is every sample ``u`` covers, and window sample ``n`` compares
    ``y(n)`` against ``ref[n]``.  ``u`` and ``ref`` must be real (one
    component of a complex stream), of equal length above 2, and finite.
    This is the one-trial case of :func:`estimate_batch`; a trial it flags
    singular raises :class:`SingularSystemError`.
    """
    if u.u.ndim != 2:
        raise ValueError(f"one trial takes branch outputs of shape (L+1, N), got {u.u.shape}; use estimate_batch")
    batch = estimate_batch(u, ref, config)
    done = int(batch.iterations)
    if batch.singular:
        raise SingularSystemError(f"the update of iteration {done + 1} is not finite: the 2x2 system is singular or not finite")
    n = u.n_samples
    records = []
    for m in range(done):
        params = OffsetParams(float(batch.history[m].delta), float(batch.history[m].epsilon))
        if config.sfo_only:
            rhs_norm, ops = abs(float(batch.rhs[m])), OpCounts()
        else:
            rhs_norm, ops = math.hypot(*batch.rhs[m].tolist()), _iteration_ops(config.method, u.degree, n, m == 0)
        records.append(
            IterationRecord(
                iteration=m + 1,
                params=params,
                step=batch.steps[m],
                residual_norm=rhs_norm,
                cost=batch_cost(u, np.asarray(ref, dtype=np.float64), params) if config.compute_cost else float("nan"),
                delay_exceeded=delay_out_of_range(params, n),
                ops=ops,
            )
        )
    return EstimationResult(params=records[-1].params, records=tuple(records), converged=bool(batch.converged))


def estimate(x0: np.ndarray, x1: np.ndarray, bank: CoefficientBank, config: EstimatorConfig) -> EstimationResult:
    """Filter ``x1`` with ``bank`` and estimate its offsets relative to ``x0``.

    The window is as long as both inputs allow: ``x1`` covers it plus
    ``N_G`` run-up samples, and ``x0`` supplies the reference shifted by the
    bulk delay ``N_G/2``, so window sample ``n`` compares ``y(n)`` against
    ``x0[n + N_G/2]``.  See :func:`estimate_from_outputs` for the rest.
    """
    gd = bank.group_delay
    n = min(len(x1) - bank.order, len(x0) - gd)
    if n <= 2:
        raise ValueError(f"need more than 2 window samples, got {n}")
    return estimate_from_outputs(compute_subfilter_outputs(x1[: n + bank.order], bank), x0[gd : gd + n], config)


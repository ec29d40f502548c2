"""Joint estimation of sampling-frequency and sampling-time offsets.

Both estimators minimize the batch cost

    F(delta, epsilon) = 1/2 * sum_n (y(n, d(n)) - x0(n))**2,
    y(n, d) = sum_k d**k * u_k(n),   d(n) = n*delta + epsilon,

over a window of N samples, starting always from (0, 0):

* Newton iterations use the exact gradient and Hessian of F.  The per-sample
  pieces are three Horner evaluations sharing the branch outputs: the
  residual P0 = y - x0, the first delay derivative P1 = sum k*u_k*d**(k-1)
  and the second P2 = sum k*(k-1)*u_k*d**(k-2), giving
  F'_n = P0*P1 and F''_n = P1**2 + P0*P2.  All three run the compensator's own
  in-place Horner pass from :mod:`farrowsync.farrow`, so P0 is the
  compensated stream y, bit for bit, less x0.
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

Every estimate's first iteration is at rest, where d(n) = 0: the Farrow
output is u_0 and the delay derivatives are P1 = u_1 and P2 = 2*u_2.  A step
at rest takes these branch outputs as they are, with no delay sequence and
no Horner pass, so Newton's terms are P0 = u_0 - x0, P1 and P2, and the ILS
residual is u_0 - x0.  They are the bits a Horner pass gives at d = +-0,
since p*(+-0) + u_k = u_k for every non-zero u_k.  Later iterations run
the compensator's Horner pass, one array per polynomial.

Index-weighted sums ``sum n^p * v(n)`` come from the final values of a
three-accumulator cascade, combined with a handful of fixed multiplications
at the end of the batch:

    A1 = sum v,  A2 = sum (N-n)*v,  A3 = sum (N-n)(N-n+1)/2 * v
    sum n*v   = N*A1 - A2
    sum n^2*v = N^2*A1 - (2N+1)*A2 + 2*A3

The reference datapath runs the cascade, one addition per stage and sample.
This code forms each A as one product with exact integer weights, built once
per window length, and one pairwise ``np.add.reduce`` along the contiguous
last axis.  That is faster than running sums, and its rounding error grows
like log2(N) rather than N.  The gradient and the ILS right-hand side read
only the first two sums and run only the first two stages.

Every step takes the plain array ``u`` of branch outputs that
:func:`compute_subfilter_outputs` returns and reads branch ``k`` as the view
``u[..., k, :]``.  It takes leading trial axes: branch outputs
``(..., L+1, N)``, references ``(..., N)`` and offsets of the batch shape,
accumulated along the last axis, with 2-vectors and 2x2 matrices carrying
their component axes first.  The Horner passes, weighted row sums and
closed-form solves are real elementwise or per-row operations, so a batch
gives every trial exactly the bits of a one-trial call.
:func:`estimate_batch` runs a batch and flags a trial whose 2x2 system is
singular instead of raising; :func:`estimate_from_outputs` is its one-trial
case and raises :class:`SingularSystemError` from that flag.  Every
Monte-Carlo campaign hands it at most ``harness.TRIAL_CHUNK`` trials at a
time.

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
shifts exponents only and is not counted.  The at-rest first iteration
leaves these counts as they are, because they model the reference datapath
and not this code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .farrow import CoefficientBank, _horner, compute_subfilter_outputs, delay_out_of_range, delay_sequence, farrow_output

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


@lru_cache(maxsize=8)
def _cascade_weights(n_samples: int) -> np.ndarray:
    """Read-only ``(2, N)`` integer weights ``N-n`` and ``(N-n)(N-n+1)/2`` of the second and third cascade stages."""
    k = np.arange(n_samples, 0, -1, dtype=np.float64)
    weights = np.stack([k, k * (k + 1.0) * 0.5])
    weights.flags.writeable = False
    return weights


def cascaded_accumulate(v: np.ndarray, stages: int = 3) -> tuple:
    """The final values ``(a1, a2, a3)`` of the three-accumulator cascade along the last axis of ``v``, or of its first ``stages``.

    A cascade sums ``v`` in its first stage and, in each later stage, the
    running output of the stage before, so its final values weight ``v[n]``
    by 1, ``N-n`` and ``(N-n)(N-n+1)/2``.  They are formed here without
    running the cascade: each is a product with those exact integer weights,
    built once per window length, and one pairwise sum, so
    the rounding error grows like ``log2(N)`` rather than ``N`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., section 4.2).
    The weights are exact while ``(N-n)(N-n+1)/2 <= 2**53``, that is for
    ``N`` up to about ``2**26``.  Leading axes are trials; each row is summed
    on its own, so a batch gives every trial the bits of a one-trial call.
    """
    weights = _cascade_weights(v.shape[-1])
    return (np.add.reduce(v, axis=-1),) + tuple(np.add.reduce(v * w, axis=-1) for w in weights[: stages - 1])


def weighted_sums(acc: tuple, n_samples: int) -> tuple:
    """Recover ``(sum v, sum n*v, sum n^2*v)`` from the cascade outputs ``(a1, a2, a3)``, or the first two sums from ``(a1, a2)``."""
    n = float(n_samples)
    a1, a2 = acc[:2]
    sums = (a1, n * a1 - a2)
    if len(acc) == 3:
        sums += (n * n * a1 - (2.0 * n + 1.0) * a2 + 2.0 * acc[2],)
    return sums


def _at_rest(u: np.ndarray, params: OffsetParams) -> bool:
    """True when every delay of ``params`` is zero and the point adds no trial axis to those of ``u``."""
    batch = u.shape[:-2]
    for v in (params.delta, params.epsilon):
        v = np.asarray(v)
        if v.any() or v.shape not in ((), batch):
            return False
    return True


def per_sample_derivatives(u: np.ndarray, x0: np.ndarray, params: OffsetParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample first and second derivatives of the cost w.r.t. the delay.

    Returns ``(F'_n, F''_n)`` evaluated at ``params`` over the window.  For a
    first-degree bank the second derivative collapses to ``u_1**2``.  At
    rest each Horner pass reduces to its constant term.
    """
    degree = u.shape[-2] - 1
    branches = [u[..., k, :] for k in range(degree + 1)]
    if _at_rest(u, params):
        # p * (+-0) + u_k == u_k for every non-zero u_k, so these are the
        # bits of the Horner passes at d == 0.
        p0 = branches[0] - x0
        p1 = branches[1]
        p2 = 2 * branches[2] if degree >= 2 else None
    else:
        d = delay_sequence(params, u.shape[-1])
        p0 = _horner(d, branches[::-1])
        p0 -= x0
        p1 = _horner(d, (k * branches[k] for k in range(degree, 0, -1)))
        p2 = _horner(d, (k * (k - 1) * branches[k] for k in range(degree, 1, -1))) if degree >= 2 else None
    # p0 is this call's own array and has the widest shape, so the products
    # reuse it; IEEE sums are commutative, so these are the bits of
    # p1 * p1 + p0 * p2.
    if p2 is None:
        f2 = p1 * p1
    else:
        f2 = p0 * p2
        f2 += p1 * p1
    p0 *= p1
    return p0, f2


def batch_cost(u: np.ndarray, x0: np.ndarray, params: OffsetParams) -> float:
    """Value of the batch cost F at ``params`` for one trial (diagnostic; not op-counted)."""
    r = farrow_output(u, params) - x0
    return 0.5 * float(r @ r)


def _index_weighted(v: np.ndarray, stages: int = 3) -> tuple:
    """(sum v, sum n*v, sum n^2*v) along the last axis, from the cascade outputs; the first two from two stages alone."""
    return weighted_sums(cascaded_accumulate(v, stages), v.shape[-1])


def assemble_gradient_hessian(u: np.ndarray, x0: np.ndarray, params: OffsetParams) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient ``(2, ...)`` and Hessian ``(2, 2, ...)`` of F w.r.t. ``(delta, epsilon)`` at ``params``."""
    f1, f2 = per_sample_derivatives(u, x0, params)
    g0, g1 = _index_weighted(f1, 2)
    h0, h1, h2 = _index_weighted(f2)
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


def newton_step(u: np.ndarray, x0: np.ndarray, params: OffsetParams) -> NewtonState:
    """One exact Newton update ``w <- w - H^{-1} g`` from ``params``; a singular ``H`` gives a NaN update."""
    gradient, hessian = assemble_gradient_hessian(u, x0, params)
    sd, se, _ = solve_sym2x2(hessian[0, 0], hessian[0, 1], hessian[1, 1], gradient[0], gradient[1])
    new = OffsetParams(params.delta - sd, params.epsilon - se)
    return NewtonState(params=new, step=np.array([sd, se]), gradient=gradient, hessian=hessian)


def ils_normal_matrix(u: np.ndarray) -> np.ndarray:
    """Index-weighted normal matrix Q, shape ``(2, 2, ...)``, built from the first-degree branch.

    Q is fixed for the whole batch; it is invertible exactly when u_1 is
    nonzero at two or more window positions (then det Q > 0 by
    Cauchy-Schwarz, with equality impossible for distinct indices).
    """
    u1 = u[..., 1, :]
    q0, q1, q2 = _index_weighted(u1 * u1)
    return np.array([[q2, q1], [q1, q0]])


def ils_step(u: np.ndarray, x0: np.ndarray, params: OffsetParams, normal_matrix: np.ndarray) -> tuple[OffsetParams, np.ndarray, np.ndarray]:
    """One ILS update from ``params`` given the precomputed Q; a singular Q gives a NaN update.

    Returns ``(new_params, step, c)`` where ``c`` is the projected residual
    vector of the linearized problem.
    """
    r = u[..., 0, :] - x0 if _at_rest(u, params) else farrow_output(u, params) - x0
    c0, c1 = _index_weighted(u[..., 1, :] * r, 2)
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
    residual_norm: float  # 2-norm of the solved right-hand side (g or c)
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

    ``history[m]`` holds the offsets after iteration ``m + 1`` and ``rhs[m]``
    the right-hand side that iteration solved (the gradient or ``c``; for
    ``sfo_only`` the scalar numerator), with the component axis of 2 first
    and the batch shape after it.  A
    trial that stopped repeats its last offsets.  ``iterations`` counts the
    iterations each trial completed, ``converged`` marks a stop at the
    tolerance, and ``singular`` marks a trial whose update was not finite.
    """

    history: tuple[OffsetParams, ...]
    rhs: tuple[np.ndarray, ...]
    iterations: np.ndarray
    converged: np.ndarray
    singular: np.ndarray

    @property
    def params(self) -> OffsetParams:
        """Final offsets of every trial."""
        return self.history[-1]


def estimate_batch(u: np.ndarray, ref: np.ndarray, config: EstimatorConfig) -> BatchEstimate:
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
    if np.iscomplexobj(u) or np.iscomplexobj(ref):
        raise TypeError("estimation operates on one real component")
    n = u.shape[-1]
    if u.ndim < 2 or ref.shape != u.shape[:-2] + (n,):
        raise ValueError(f"reference of shape {ref.shape} does not match branch outputs of shape {u.shape}")
    if n <= 2:
        raise ValueError(f"need more than 2 window samples, got {n}")
    if not (np.isfinite(u).all() and np.isfinite(ref).all()):
        raise ValueError("inputs hold non-finite samples inside the estimation window")
    ref = ref.astype(np.float64, copy=False)
    shape = ref.shape[:-1]
    params = OffsetParams(np.zeros(shape), np.zeros(shape))
    history: list[OffsetParams] = []
    rhs: list[np.ndarray] = []
    normal_matrix: np.ndarray | None = None
    # Per-trial state, made when the first trial stops.  Until then each
    # iteration takes its new point whole: masks made up front and an
    # ``np.where`` per iteration cost about 25-30 us a one-trial estimate.
    active: np.ndarray | None = None
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
            rhs.append(b)
            if active is not None and not active.any():
                break
    if active is None:
        iterations = np.full(shape, len(history))
        converged = singular = np.zeros(shape, dtype=bool)
    if config.method == "simplified":
        converged = ~singular
    return BatchEstimate(tuple(history), tuple(rhs), iterations, converged, singular)


def estimate_from_outputs(u: np.ndarray, ref: np.ndarray, config: EstimatorConfig) -> EstimationResult:
    """Estimate the offsets of one measured stream from its branch outputs, from a standing start.

    The window is every sample ``u`` covers, and window sample ``n`` compares
    ``y(n)`` against ``ref[n]``.  ``u`` and ``ref`` must be real (one
    component of a complex stream), of equal length above 2, and finite.
    This is the one-trial case of :func:`estimate_batch`; a trial it flags
    singular raises :class:`SingularSystemError`.
    """
    if u.ndim != 2:
        raise ValueError(f"one trial takes branch outputs of shape (L+1, N), got {u.shape}; use estimate_batch")
    batch = estimate_batch(u, ref, config)
    done = int(batch.iterations)
    if batch.singular:
        raise SingularSystemError(f"the update of iteration {done + 1} is not finite: the 2x2 system is singular or not finite")
    n = u.shape[-1]
    records = []
    for m in range(done):
        params = OffsetParams(float(batch.history[m].delta), float(batch.history[m].epsilon))
        if config.sfo_only:
            rhs_norm, ops = abs(float(batch.rhs[m])), OpCounts()
        else:
            rhs_norm, ops = math.hypot(*batch.rhs[m].tolist()), _iteration_ops(config.method, u.shape[-2] - 1, n, m == 0)
        records.append(
            IterationRecord(
                iteration=m + 1,
                params=params,
                residual_norm=rhs_norm,
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


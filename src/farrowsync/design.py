"""Least-squares design of the polynomial branch filter bank.

The design target is the variable fractional delay ``e^{-j*omega*d}``
(normalized by the bulk delay ``N_G/2``) over the region
``omega in [0, omega_c]``, ``d in [-d_max, d_max]``.  Branch 0 is pinned to a
pure delay.  Structural symmetry does the real/imaginary split: rows with odd
polynomial index are antisymmetric about the center tap (purely imaginary
normalized response, a sine series), rows with even index are symmetric
(purely real, a cosine series).  That decouples the fit into two real
least-squares problems on a rectangular grid:

    sum_{k odd}      d^k * 2*sum_m c_{k,m} sin(m*omega)  ~  -sin(omega*d)
    sum_{k even>=2}  d^k * A_k(omega)                    ~  cos(omega*d) - 1

with ``A_k(omega) = g_k(M) + 2*sum_m g_k(M-m) cos(m*omega)`` and ``M = N_G/2``.
Only half the taps of each row are free; the other half follows from the
symmetry.  For degree 1 the even system is empty and the residual
``1 - cos(omega*d)`` is irreducible: no antisymmetric correction filter can
touch the real part.

A plain unweighted fit minimizes the mean-square grid residual and leaves the
worst-case error concentrated at the band-edge/half-delay corner, several dB
above the minimax optimum.  ``design_bank`` therefore applies a fixed
:data:`_LAWSON_PASSES` = 4 Lawson reweighting passes: after each solve the
grid weights are multiplied by the combined complex residual magnitude and
renormalized, which pushes the solution toward the minimax one while staying
a (weighted) linear least-squares problem on the same grid.

Each system is separable on the grid.  At frequency ``omega_i`` its rows,
weighted by ``r_i = sqrt(w_i)``, are ``diag(r_i) P (x) s_i`` with
``P[j, k] = d_j**k`` over the system's degrees ``k`` and ``s_i`` the sine
(or cosine) basis row at ``omega_i``.  A thin QR ``diag(r_i) P = Q_i R_i``
turns that block into ``Q_i (R_i (x) s_i)``, so the full matrix is
``blockdiag(Q_i)`` times the stack of the blocks ``R_i (x) s_i``.
``blockdiag(Q_i)`` has orthonormal columns: it preserves the norm of
anything in its range and is orthogonal to the rest.  The squared residual
therefore splits into ``sum_i |(R_i (x) s_i) c - Q_i^T (r_i b_i)|^2`` plus a
term that does not depend on ``c``.  The compressed problem has the same
minimizer, the same singular values and the same rank as the full one, with
``K`` rows per frequency instead of ``n_delay`` (``K`` = number of odd or
even degrees, at most 4 on the frontier against 33 delays).  The Lawson
residual ``(S C^T) P^T - b`` is evaluated on the grid without building
either matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .farrow import CoefficientBank

#: (target error dB, degree L, order N_G) pairs tracing the minimal-complexity
#: frontier at omega_c = 0.9*pi, |d| <= 0.5.  Orders are kept even; the -40 dB
#: entry is rounded up from an odd order accordingly.
ERROR_FRONTIER: tuple[tuple[int, int, int], ...] = (
    (-20, 3, 12),
    (-25, 3, 14),
    (-30, 3, 18),
    (-35, 4, 22),
    (-40, 4, 24),
    (-45, 4, 30),
    (-50, 4, 36),
    (-55, 5, 34),
    (-60, 5, 38),
    (-65, 5, 42),
    (-70, 6, 44),
    (-75, 6, 48),
    (-80, 6, 52),
    (-85, 6, 58),
    (-90, 7, 58),
    (-95, 7, 62),
)

#: Lawson reweighting passes after the first, plain solve.
_LAWSON_PASSES = 4


class DesignError(RuntimeError):
    """Raised when the least-squares design problem is rank deficient."""


def _check_band(omega_c: float, d_max: float) -> None:
    """Reject a design or measurement band outside ``0 < omega_c < pi``, ``0 < d_max <= 0.5`` (NaN included)."""
    if not 0.0 < omega_c < np.pi:
        raise ValueError("omega_c must be in (0, pi)")
    if not 0.0 < d_max <= 0.5:
        raise ValueError("d_max must be in (0, 0.5]")


@dataclass(frozen=True)
class DesignSpec:
    """Design-time parameters of a coefficient bank."""

    degree: int
    order: int
    omega_c: float = 0.9 * np.pi
    d_max: float = 0.5
    n_freq: int | None = None  # default 16 * order
    n_delay: int = 33

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if self.order < 2 or self.order % 2 != 0:
            raise ValueError("order must be even and at least 2")
        _check_band(self.omega_c, self.d_max)
        if self.freq_points < 8 * self.order:
            raise ValueError(f"frequency grid too coarse: need at least {8 * self.order} points")
        if self.n_delay < 16:
            raise ValueError("delay grid too coarse: need at least 16 points")

    @property
    def freq_points(self) -> int:
        return 16 * self.order if self.n_freq is None else self.n_freq


@dataclass(frozen=True)
class ErrorReport:
    """Worst-case complex approximation error of a bank over a dense grid."""

    max_error: float
    error_db: float
    worst_omega: float
    worst_delay: float
    omega_c: float
    d_max: float
    n_freq: int
    n_delay: int


def design_bank(spec: DesignSpec) -> CoefficientBank:
    """Solve the two decoupled least-squares problems and assemble the bank.

    The solve is repeated :data:`_LAWSON_PASSES` times with Lawson weights
    (grid weight times combined residual magnitude, renormalized) to pull
    the worst-case error down toward the minimax level.
    """
    half = spec.order // 2
    omega = np.linspace(0.0, spec.omega_c, spec.freq_points)
    delay = np.linspace(-spec.d_max, spec.d_max, spec.n_delay)
    odd_rows = [k for k in range(1, spec.degree + 1) if k % 2 == 1]
    even_rows = [k for k in range(2, spec.degree + 1) if k % 2 == 0]

    m_idx = np.arange(1, half + 1)
    wd = np.outer(omega, delay)  # (freq, delay) grid
    b_odd = -np.sin(wd)
    b_even = np.cos(wd) - 1.0
    sine = 2.0 * np.sin(np.outer(omega, m_idx))  # (freq, M)
    cosine = np.concatenate([np.ones((omega.size, 1)), 2.0 * np.cos(np.outer(omega, m_idx))], axis=1)

    weights = np.ones(wd.shape)
    for _ in range(_LAWSON_PASSES + 1):
        root = np.sqrt(weights)
        c_odd, resid_odd = _fit(delay, odd_rows, sine, b_odd, root, "antisymmetric")
        # Degree 1 leaves the real part uncorrected.
        c_even, resid_even = _fit(delay, even_rows, cosine, b_even, root, "symmetric") if even_rows else ((), -b_even)
        weights = weights * np.hypot(resid_odd, resid_even)
        total = weights.sum()
        if total <= 0.0:  # exact fit everywhere; nothing left to reweight
            break
        weights *= weights.size / total

    taps = np.zeros((spec.degree + 1, spec.order + 1))
    taps[0, half] = 1.0
    for k, c in zip(odd_rows, c_odd):
        taps[k, half - m_idx] = c
        taps[k, half + m_idx] = -c
    for k, a in zip(even_rows, c_even):
        taps[k, half] = a[0]
        taps[k, half - m_idx] = a[1:]
        taps[k, half + m_idx] = a[1:]

    return CoefficientBank(taps)


def _fit(delay, degrees, basis, target, root, label) -> tuple[np.ndarray, np.ndarray]:
    """Weighted fit of ``sum_k d^k * basis @ c_k`` to ``target`` on the (freq, delay) grid.

    Solves the QR-compressed rows ``R_i (x) basis_i`` of the module docstring
    and returns the coefficients, one row ``c_k`` per degree, with the
    unweighted residual on the grid.
    """
    powers = delay[:, None] ** np.asarray(degrees)  # P, (delay, K)
    n_coef = len(degrees) * basis.shape[1]
    q, r = np.linalg.qr(root[:, :, None] * powers)  # (freq, delay, K), (freq, K, K)
    rows = (r[:, :, :, None] * basis[:, None, None, :]).reshape(-1, n_coef)
    rhs = (np.swapaxes(q, 1, 2) @ (root * target)[:, :, None]).reshape(-1)
    coef = _solve(rows, rhs, label).reshape(len(degrees), -1)
    return coef, (basis @ coef.T) @ powers.T - target


def _solve(matrix: np.ndarray, rhs: np.ndarray, label: str) -> np.ndarray:
    solution, _, rank, _ = np.linalg.lstsq(matrix, rhs, rcond=None)
    if rank < matrix.shape[1]:
        raise DesignError(
            f"{label} system is rank deficient: rank {rank} < {matrix.shape[1]} unknowns; "
            "refine the design grid or reduce the filter order"
        )
    return solution


def _normalized_responses(bank: CoefficientBank, omega: np.ndarray) -> np.ndarray:
    """Branch responses with the bulk delay removed, shape ``(L+1, len(omega))``."""
    offsets = np.arange(bank.order + 1) - bank.group_delay
    phase = np.multiply(-1j, np.outer(offsets, omega))
    return bank.taps @ np.exp(phase, out=phase)


def measure_error(
    bank: CoefficientBank,
    omega_c: float = 0.9 * np.pi,
    d_max: float = 0.5,
    n_freq: int | None = None,
    n_delay: int = 129,
) -> ErrorReport:
    """Worst-case ``|sum_k d^k G_k(omega) - e^{-j*omega*d}|`` on a measurement grid.

    Defaults to a grid four times denser than the design default
    (``64*N_G`` frequencies by 129 delays) so the report is an honest check
    rather than a readback of the fit residual.  ``omega_c`` and ``d_max``
    must lie within the :class:`DesignSpec` bounds.
    """
    _check_band(omega_c, d_max)
    if n_freq is None:
        n_freq = 64 * bank.order
    if n_freq < 2 or n_delay < 2:
        raise ValueError("measurement grid needs at least 2 points per axis")
    omega = np.linspace(0.0, omega_c, n_freq)
    delay = np.linspace(-d_max, d_max, n_delay)
    responses = _normalized_responses(bank, omega)
    powers = delay[:, None] ** np.arange(bank.degree + 1)  # (n_delay, L+1)
    # A band of about 16 delays at a time, in two complex buffers that every
    # band reuses; each element takes the operations it takes on the whole
    # grid.  Every band holds at least two delays: a one-delay product runs a
    # matrix-vector kernel, whose sums can round differently.
    bands = -(-n_delay // 16)
    edges = [n_delay * i // bands for i in range(bands + 1)]
    achieved, target = np.empty((2, -(-n_delay // bands), n_freq), complex)
    error = np.empty((n_delay, n_freq))
    for lo, hi in zip(edges, edges[1:]):
        a, t, e = achieved[: hi - lo], target[: hi - lo], error[lo:hi]
        np.matmul(powers[lo:hi], responses, out=a)
        np.exp(np.multiply(-1j, np.multiply(delay[lo:hi, None], omega, out=e), out=t), out=t)
        np.abs(np.subtract(a, t, out=a), out=e)
    flat = int(np.argmax(error))
    di, wi = np.unravel_index(flat, error.shape)
    max_error = float(error[di, wi])
    return ErrorReport(
        max_error=max_error,
        error_db=20.0 * np.log10(max_error) if max_error > 0 else -np.inf,
        worst_omega=float(omega[wi]),
        worst_delay=float(delay[di]),
        omega_c=omega_c,
        d_max=d_max,
        n_freq=n_freq,
        n_delay=n_delay,
    )

"""LPPL model function, analytic Jacobian, and the data-parallel evaluation kernel.

The model is f(x) = A - B (T - x)^m (1 + C cos(omega ln(T - x) + phi)) fitted
against log prices at integer indices 1..n. `lppl_kernel` is the single
definition of f and its partials, in two stages: the value stage computes f
and keeps its intermediates (T - x, ln(T - x), (T - x)^m, theta, cos theta,
1 + C cos theta), and the partials stage adds sin theta and (T - x)^(m-1)
and writes the 7 columns. The public evaluators, scalar and vector, the
batch evaluator and the linear sub-system all go through it.

Evaluation dominates fit run time. A solver needs the residuals at every
trial point but the n x 7 Jacobian only at the points it accepts, so the
batch evaluator can run the value stage alone and complete the Jacobian
later from the kept intermediates, without recomputing a log, power or
cosine. It splits the index range into contiguous chunks processed by a
thread pool and sums E once over the whole residual vector, so every output
is bit-identical whatever the thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

# Minimum allowed gap between the critical time and the last sample index.
# Smaller gaps blow up (T - x)^(m-1) and ln(T - x); treated as domain errors
# rather than clamped silently.
T_GAP = 1e-6

# Parameter order used for all 7-vectors and Jacobian columns.
PARAM_NAMES = ("A", "B", "T", "m", "C", "omega", "phi")


class LpplDomainError(ValueError):
    """Raised when the model is evaluated where T - x <= 0 (or T too close to n)."""

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class LpplParams:
    """The 7 LPPL parameters (A, B, T, m, C, omega, phi)."""

    A: float
    B: float
    T: float
    m: float
    C: float
    omega: float
    phi: float

    def as_array(self) -> np.ndarray:
        return np.array([self.A, self.B, self.T, self.m, self.C, self.omega, self.phi])

    @classmethod
    def from_array(cls, v) -> "LpplParams":
        v = np.asarray(v, dtype=float)
        if v.shape != (7,):
            raise ValueError(f"expected a 7-vector, got shape {v.shape}")
        return cls(*v.tolist())

    def validate(self, n: int) -> None:
        """Check the fit-problem constraints B > 0, 0 < m <= 1, T > n against a series length."""
        if not np.all(np.isfinite(self.as_array())):
            raise ValueError(f"non-finite parameter in {self}")
        if self.B <= 0:
            raise ValueError(f"B must be positive, got {self.B}")
        if not (0 < self.m <= 1):
            raise ValueError(f"m must be in (0, 1], got {self.m}")
        if self.T - n < T_GAP:
            raise LpplDomainError(
                f"critical time T={self.T} must exceed series length n={n} by at least {T_GAP}",
                index=n,
            )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def replace(self, **kw) -> "LpplParams":
        return LpplParams(**{**self.to_dict(), **kw})


@dataclass(frozen=True)
class PriceSeries:
    """Log prices at indices 1..n with per-point weights w(i) >= 0."""

    log_prices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        lp = np.ascontiguousarray(np.asarray(self.log_prices, dtype=float))
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "log_prices", lp)
        object.__setattr__(self, "weights", w)
        if lp.ndim != 1 or w.shape != lp.shape:
            raise ValueError("log_prices and weights must be 1-d arrays of equal length")
        if not np.all(np.isfinite(lp)):
            raise ValueError("log_prices contains non-finite values")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and non-negative")

    @property
    def n(self) -> int:
        return self.log_prices.shape[0]

    @cached_property
    def indices(self) -> np.ndarray:
        """Sample positions 1..n as floats (1-based trading-period indexing), read-only."""
        x = np.arange(1, self.n + 1, dtype=float)
        x.flags.writeable = False
        return x

    @property
    def degrees_of_freedom(self) -> int:
        return self.n - 7

    def require_fit_ready(self) -> None:
        """Fitting needs positive degrees of freedom over the effective sample.

        Evaluation alone tolerates any non-negative weights (including all
        zero); solving does not.
        """
        if int(np.count_nonzero(self.weights > 0)) < 8:
            raise ValueError(
                "need at least 8 positively weighted points (n - 7 degrees of freedom)"
            )


@dataclass(frozen=True)
class ResidualReport:
    """Residual vector with the weighted error E and the average error E / (n - 7)."""

    residuals: np.ndarray
    error: float
    average_error: float


def _check_domain(params: LpplParams, x) -> None:
    """Raise LpplDomainError at the first x with T - x <= 0; x is a float or an array."""
    bad = params.T - x <= 0
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise LpplDomainError(
            f"T - x <= 0 at x={np.atleast_1d(x)[idx]} (T={params.T})",
            index=np.atleast_1d(x)[idx],
        )


class KernelValues(NamedTuple):
    """Output of the kernel's value stage: f and the intermediates the partials reuse."""

    f: np.ndarray
    d: np.ndarray  # T - x
    logd: np.ndarray
    g: np.ndarray  # (T - x)^m
    theta: np.ndarray
    cos_t: np.ndarray
    osc: np.ndarray  # 1 + C cos theta


def lppl_kernel_values(params: LpplParams, x) -> KernelValues:
    """Value stage of `lppl_kernel`: f at x (a float or an array), with its intermediates."""
    d = params.T - x
    logd = np.log(d)
    g = np.power(d, params.m)
    theta = params.omega * logd + params.phi
    cos_t = np.cos(theta)
    osc = 1.0 + params.C * cos_t
    f = params.A - params.B * g * osc
    return KernelValues(f, d, logd, g, theta, cos_t, osc)


def lppl_kernel_partials(params: LpplParams, v: KernelValues, jac) -> None:
    """Partials stage of `lppl_kernel`: writes the 7 partials at v's points into jac[..., k]."""
    B, C = params.B, params.C
    g, logd, cos_t, osc = v.g, v.logd, v.cos_t, v.osc
    sin_t = np.sin(v.theta)
    g1 = np.power(v.d, params.m - 1.0)
    jac[..., 0] = 1.0
    jac[..., 1] = -g * osc
    jac[..., 2] = -B * params.m * g1 * osc + B * C * params.omega * g1 * sin_t
    jac[..., 3] = -B * g * logd * osc
    jac[..., 4] = -B * g * cos_t
    jac[..., 5] = B * g * C * sin_t * logd
    jac[..., 6] = B * g * C * sin_t


def lppl_kernel(params: LpplParams, x, jac=None):
    """The one definition of f and its partials; requires T - x > 0 elementwise.

    With g = (T-x)^m and theta = omega ln(T-x) + phi:
      f = A - B g (1 + C cos theta)
      df/dA = 1
      df/dB = -g (1 + C cos theta)
      df/dT = -B m (T-x)^(m-1) (1 + C cos theta) + B C omega (T-x)^(m-1) sin theta
      df/dm = -B g ln(T-x) (1 + C cos theta)
      df/dC = -B g cos theta
      df/domega = B g C sin theta ln(T-x)
      df/dphi = B g C sin theta

    `x` is a float or an array. Returns (f, g, cos theta); g and g cos theta
    are the basis of the linear (A, B, C) sub-system. When `jac` is given
    (shape x.shape + (7,), columns in PARAM_NAMES order), the partials are
    written into it in place.
    """
    v = lppl_kernel_values(params, x)
    if jac is not None:
        lppl_kernel_partials(params, v, jac)
    return v.f, v.g, v.cos_t


def lppl_values(params: LpplParams, x: np.ndarray) -> np.ndarray:
    """Vectorized f(x); requires T - x > 0 elementwise."""
    x = np.asarray(x, dtype=float)
    _check_domain(params, x)
    return lppl_kernel(params, x)[0]


def lppl_value(params: LpplParams, x: float) -> float:
    """f(x) at a single point; bit-identical to the matching element of `lppl_values`."""
    x = float(x)
    _check_domain(params, x)
    return float(lppl_kernel(params, x)[0])


def lppl_jacobian(params: LpplParams, x: np.ndarray) -> np.ndarray:
    """Analytic partials of f at each x; rows ordered (A, B, T, m, C, omega, phi)."""
    x = np.asarray(x, dtype=float)
    _check_domain(params, x)
    J = np.empty((x.shape[0], 7))
    lppl_kernel(params, x, J)
    return J


def lppl_jacobian_row(params: LpplParams, x: float) -> np.ndarray:
    """Single-point 7-vector of partials; bit-identical to the matching row of `lppl_jacobian`."""
    x = float(x)
    _check_domain(params, x)
    row = np.empty(7)
    lppl_kernel(params, x, row)
    return row


def chunk_bounds(n: int, threads: int):
    """Contiguous static partition of range [0, n) into min(threads, n) chunks.

    The partition depends only on (n, threads); each point belongs to exactly
    one chunk, so per-point results are thread-layout independent.
    """
    k = max(1, min(int(threads), n))
    base, extra = divmod(n, k)
    bounds = []
    lo = 0
    for c in range(k):
        hi = lo + base + (1 if c < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _map_chunks(fn, bounds):
    """fn(lo, hi) for each chunk, in a thread pool when there is more than one; chunk order."""
    if len(bounds) == 1:
        return [fn(*bounds[0])]
    with ThreadPoolExecutor(max_workers=len(bounds)) as pool:
        return list(pool.map(lambda lo_hi: fn(*lo_hi), bounds))


def evaluate_batch(
    params: LpplParams, series: PriceSeries, threads: int = 1, jacobian: bool = True
):
    """Residuals r_i = f(i) - ln p(i), weighted error E, and the full n x 7 Jacobian.

    Work is split over `threads` contiguous chunks. E is summed once over the
    whole residual vector after the chunks finish, so the residuals, E and J
    are bit-identical across thread counts.

    Returns (report, J). Each chunk runs the kernel's value stage and keeps
    its intermediates; a second pass over the same chunks completes J from
    them. With `jacobian=False` that pass is left to the caller: the second
    element is instead the function that runs it and returns J.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    params.validate(series.n)
    n = series.n
    x = series.indices
    y = series.log_prices
    w = series.weights

    residuals = np.empty(n)
    kept = {}  # chunk start -> value-stage intermediates
    bounds = chunk_bounds(n, threads)

    def run_chunk(lo, hi):
        v = lppl_kernel_values(params, x[lo:hi])
        kept[lo] = v
        residuals[lo:hi] = v.f - y[lo:hi]

    _map_chunks(run_chunk, bounds)
    error = float(np.sum(w * residuals * residuals))
    d = series.degrees_of_freedom
    report = ResidualReport(
        residuals=residuals,
        error=error,
        average_error=error / d if d > 0 else np.inf,
    )

    def complete_jacobian() -> np.ndarray:
        J = np.empty((n, 7))
        _map_chunks(lambda lo, hi: lppl_kernel_partials(params, kept[lo], J[lo:hi]), bounds)
        return J

    return report, (complete_jacobian() if jacobian else complete_jacobian)

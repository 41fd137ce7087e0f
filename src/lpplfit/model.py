"""LPPL model function, analytic Jacobian, and the data-parallel evaluation kernel.

The model is f(x) = A - B (T - x)^m (1 + C cos(omega ln(T - x) + phi)) fitted
against log prices at integer indices 1..n. f and its partials are defined
once, in two stages: `lppl_kernel_values` computes f and keeps four
intermediates (T - x, ln(T - x), (T - x)^m, cos theta), and
`lppl_kernel_partials` rebuilds theta and 1 + C cos theta from them with the
same expressions, adds sin theta and (T - x)^(m-1), and writes the 7 columns.
Every evaluator and the linear sub-system call them.

The fit constraints B > 0, 0 < m <= 1, T > n are one closed box, defined
here alone: `box(n)` gives its bounds, and `LpplParams.validate` accepts
exactly the points that clipping to `box(n)` leaves unchanged.

Evaluation dominates fit run time. A solver needs the residuals at every
trial point but the n x 7 Jacobian only at the points it accepts, so the
batch evaluator can run the value stage alone and complete the Jacobian
later from the kept intermediates, without recomputing a log, power or
cosine. It cuts the index range into blocks of BLOCK points, a partition
that depends on n alone; the thread count only sets how many workers map
over the blocks. E is summed once over the whole residual vector, so every
output is bit-identical whatever the thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

# Bounds of the feasibility box (`box`). T_GAP is the minimum gap between the
# critical time and the last sample index: smaller gaps blow up (T - x)^(m-1)
# and ln(T - x), so `validate` reports them as domain errors.
T_GAP = 1e-6
B_MIN = 1e-12
M_MIN = 1e-6
M_MAX = 1.0

# Points per evaluation block: long series run in cache-sized pieces, and
# n = 1e4 is still one block, which runs inline.
BLOCK = 16_384

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
        """Check that the point is finite and inside `box(n)` for a series of length n."""
        fields = (self.A, self.B, self.T, self.m, self.C, self.omega, self.phi)
        if not all(map(math.isfinite, fields)):
            raise ValueError(f"non-finite parameter in {self}")
        if self.B < B_MIN:
            raise ValueError(f"B must be at least {B_MIN}, got {self.B}")
        if not (M_MIN <= self.m <= M_MAX):
            raise ValueError(f"m must be in [{M_MIN}, {M_MAX}], got {self.m}")
        if self.T - n < T_GAP:
            raise LpplDomainError(
                f"critical time T={self.T} must exceed series length n={n} by at least {T_GAP}",
                index=n,
            )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def replace(self, **kw) -> "LpplParams":
        return LpplParams(**{**self.to_dict(), **kw})


def box(n: int):
    """The feasible box as 7-vectors (lo, hi) in PARAM_NAMES order; A, C, omega, phi are free."""
    t_min = n + T_GAP
    while t_min - n < T_GAP:  # rounding in n + gap can land just under the gap
        t_min = np.nextafter(t_min, np.inf)
    lo = np.array([-np.inf, B_MIN, t_min, M_MIN, -np.inf, -np.inf, -np.inf])
    hi = np.array([np.inf, np.inf, np.inf, M_MAX, np.inf, np.inf, np.inf])
    return lo, hi


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
    """The value stage's logs, powers and cosines, which the partials stage reuses."""

    d: np.ndarray  # T - x
    logd: np.ndarray
    g: np.ndarray  # (T - x)^m
    cos_t: np.ndarray  # cos theta


def lppl_kernel_values(params: LpplParams, x):
    """Value stage: (f, KernelValues) at x (a float or an array); requires T - x > 0."""
    d = params.T - x
    logd = np.log(d)
    g = np.power(d, params.m)
    cos_t = np.cos(params.omega * logd + params.phi)  # theta, rebuilt by the partials
    f = params.A - params.B * g * (1.0 + params.C * cos_t)
    return f, KernelValues(d, logd, g, cos_t)


def lppl_kernel_partials(params: LpplParams, v: KernelValues, jac) -> None:
    """Partials stage: writes the 7 partials at v's points into jac[..., k].

    theta and 1 + C cos theta are rebuilt from v by the value stage's own
    expressions, so they have its bits. `jac` has shape x.shape + (7,),
    columns in PARAM_NAMES order. With g = (T-x)^m and theta = omega ln(T-x) + phi:
      f = A - B g (1 + C cos theta)
      df/dA = 1
      df/dB = -g (1 + C cos theta)
      df/dT = -B m (T-x)^(m-1) (1 + C cos theta) + B C omega (T-x)^(m-1) sin theta
      df/dm = -B g ln(T-x) (1 + C cos theta)
      df/dC = -B g cos theta
      df/domega = B g C sin theta ln(T-x)
      df/dphi = B g C sin theta
    """
    B, C = params.B, params.C
    g, logd, cos_t = v.g, v.logd, v.cos_t
    osc = 1.0 + C * cos_t
    sin_t = np.sin(params.omega * logd + params.phi)
    g1 = np.power(v.d, params.m - 1.0)
    jac[..., 0] = 1.0
    jac[..., 1] = -g * osc
    jac[..., 2] = -B * params.m * g1 * osc + B * C * params.omega * g1 * sin_t
    jac[..., 3] = -B * g * logd * osc
    jac[..., 4] = -B * g * cos_t
    jac[..., 5] = B * g * C * sin_t * logd
    jac[..., 6] = B * g * C * sin_t


def lppl_values(params: LpplParams, x: np.ndarray) -> np.ndarray:
    """Vectorized f(x); requires T - x > 0 elementwise."""
    x = np.asarray(x, dtype=float)
    _check_domain(params, x)
    return lppl_kernel_values(params, x)[0]


def lppl_value(params: LpplParams, x: float) -> float:
    """f(x) at a single point; bit-identical to the matching element of `lppl_values`."""
    x = float(x)
    _check_domain(params, x)
    return float(lppl_kernel_values(params, x)[0])


def lppl_jacobian(params: LpplParams, x: np.ndarray) -> np.ndarray:
    """Analytic partials of f at each x; rows ordered (A, B, T, m, C, omega, phi)."""
    x = np.asarray(x, dtype=float)
    _check_domain(params, x)
    J = np.empty((x.shape[0], 7))
    lppl_kernel_partials(params, lppl_kernel_values(params, x)[1], J)
    return J


def lppl_jacobian_row(params: LpplParams, x: float) -> np.ndarray:
    """Single-point 7-vector of partials; bit-identical to the matching row of `lppl_jacobian`."""
    x = float(x)
    _check_domain(params, x)
    row = np.empty(7)
    lppl_kernel_partials(params, lppl_kernel_values(params, x)[1], row)
    return row


@cache
def block_bounds(n: int):
    """[0, n) cut into (lo, hi) blocks of BLOCK points, the last one shorter; cached per n."""
    return tuple((lo, min(lo + BLOCK, n)) for lo in range(0, n, BLOCK))


@cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The evaluation pool with `workers` threads, created on first use and then reused."""
    return ThreadPoolExecutor(max_workers=workers)


# A forked child has none of the parent's pool threads to run its blocks.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _map(fn, items, threads):
    """list(map(fn, items)), spread over at most `threads` pool workers and one per item."""
    workers = min(threads, len(items))
    if workers <= 1:
        return list(map(fn, items))
    return list(_pool(workers).map(fn, items))


def evaluate_batch(
    params: LpplParams, series: PriceSeries, threads: int = 1, jacobian: bool = True
):
    """Residuals r_i = f(i) - ln p(i), weighted error E, and the full n x 7 Jacobian.

    The points are cut into `block_bounds(n)`, which `threads` workers map
    over; n <= BLOCK is one block and runs inline. E is summed once over the
    whole residual vector after the blocks finish, so the residuals, E and J
    are bit-identical across thread counts.

    Returns (report, J). Each block runs the kernel's value stage and keeps
    its intermediates; a second pass over the same blocks completes J from
    them. With `jacobian=False` that pass is left to the caller: the second
    element is instead the function that runs it and returns J.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    params.validate(series.n)
    n, x, y = series.n, series.indices, series.log_prices
    blocks = block_bounds(n)
    residuals = np.empty(n)

    def value_stage(block):
        lo, hi = block
        f, v = lppl_kernel_values(params, x[lo:hi])
        residuals[lo:hi] = f - y[lo:hi]
        return v

    kept = _map(value_stage, blocks, threads)  # value-stage intermediates, one per block
    error = float(np.sum(series.weights * residuals * residuals))
    d = series.degrees_of_freedom
    report = ResidualReport(
        residuals=residuals,
        error=error,
        average_error=error / d if d > 0 else np.inf,
    )

    def complete_jacobian() -> np.ndarray:
        J = np.empty((n, 7))
        _map(lambda i: lppl_kernel_partials(params, kept[i], J[slice(*blocks[i])]),
             range(len(blocks)), threads)
        return J

    return report, (complete_jacobian() if jacobian else complete_jacobian)

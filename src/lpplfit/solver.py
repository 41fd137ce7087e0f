"""Levenberg-Marquardt for the 7-parameter LPPL fit.

Damping uses Marquardt scaling (mu * diag(J'WJ)), since A and omega live on
wildly different magnitudes. The iterate is a 7-vector in PARAM_NAMES order.
The start and every trial point are clipped to the feasibility box that
`model.box` defines, so every point evaluated passes `LpplParams.validate`.
A trial that clipping rounds back to the iterate is not evaluated: its E is
the iterate's, as B, T and m are bounded away from 0 and a signed zero in A,
C, omega or phi moves no residual, so it is rejected as any worse trial is.
When a step solve breaks down (singular system, non-finite step) or mu
underflows to 0, the run restarts from the current iterate with mu set to a
seed value mu_bar that is doubled on every restart up to MU_BAR_CAP; a
failure at the cap ends the run, so a run restarts at most
ceil(log2(MU_BAR_CAP / mu_bar)) times (37 from MU_INIT).

mu and mu_bar are run state, not settings: a run takes an `LmState` (E and
(g, N) at its start, and the damping to start with) and returns the one it
ended in, so a caller that runs LM in capped pieces resumes each piece where
the last one stopped.

A fit whose weighted error is at the rounding floor of the data (see
`exact_fit_floor`) is exact: E >= 0, so it is a global minimum and the run
stops there as converged.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .model import LpplParams, PriceSeries, box, evaluate_batch

# mu step factors within a run: shrink on accept, grow on reject.
MU_SHRINK = 1.0 / 3.0
MU_GROW = 2.0
MU_INIT = 1e-3  # mu and mu_bar of a fresh run
MU_BAR_CAP = 1e8  # ceiling of the doubling restart seed mu_bar
MAX_ITERATIONS = 200
# Stopping tolerances: largest gradient entry, largest relative parameter
# step, and relative E decrease over ERROR_TOL_WINDOW accepted steps.
GRADIENT_TOL = 1e-12
STEP_TOL = 1e-12
ERROR_TOL = 1e-15
ERROR_TOL_WINDOW = 3


def check_count(name: str, value) -> None:
    """An iteration or round cap is an integer >= 1; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


class LmState(NamedTuple):
    """E and (g, N) at a point of the box, and the damping a run there starts with."""

    error: float
    normal_equations: tuple
    mu: float = MU_INIT
    mu_bar: float = MU_INIT


@dataclass(frozen=True)
class FitResult:
    """Converged (or stopped) parameters plus error and run accounting."""

    params: LpplParams
    error: float
    average_error: float
    termination: str  # converged | iteration-cap | mu-exhausted
    iterations: int
    restarts: int
    wall_time: float
    error_history: tuple = field(default=(), compare=False)
    # lm_fit's exit state at params, which a further run from there resumes
    state: Optional[LmState] = field(default=None, compare=False, repr=False)


def project_params(params: LpplParams, n: int) -> LpplParams:
    """Clip onto the feasibility box `model.box(n)`."""
    return LpplParams(*np.clip(params.as_array(), *box(n)).tolist())


def exact_fit_floor(series: PriceSeries) -> float:
    """Weighted error below which a fit is exact to rounding: n * eps^2 * sum(w * y^2).

    An exact fit leaves residuals that are rounding errors of order
    eps * |y(i)|, so E is of order eps^2 * sum(w * y^2); the factor n is
    headroom for rounding that accumulates in the sums of the model and of
    the linear solve.
    """
    y = series.log_prices
    eps = np.finfo(float).eps
    return float(series.n * eps**2 * np.dot(series.weights, y * y))


def _solve_step(N: np.ndarray, g: np.ndarray, mu: float) -> Optional[np.ndarray]:
    """Solve (N + mu * diag(N)) delta = -g; None signals a restart-worthy failure.

    Falls back to a minimum-norm least-squares solve when the damped normal
    matrix is singular (e.g. C = 0 zeroes the omega and phi columns), which
    leaves the unidentifiable directions untouched instead of aborting.
    """
    M = N.copy()
    diag = M.reshape(-1)[:: M.shape[0] + 1]  # a view of M's diagonal
    with np.errstate(over="ignore", invalid="ignore"):
        # a huge mu can overflow the damping term; the non-finite check below
        # routes that into the restart path
        diag += mu * diag
    if not np.isfinite(M).all():
        return None
    try:
        delta = np.linalg.solve(M, -g)
    except np.linalg.LinAlgError:
        delta, *_ = np.linalg.lstsq(M, -g, rcond=1e-14)
    if not np.all(np.isfinite(delta)):
        return None
    return delta


def normal_equations(J: np.ndarray, w: np.ndarray, r: np.ndarray):
    """Gradient J'Wr and normal matrix J'WJ of the weighted problem."""
    Jw = J * w[:, None]
    return Jw.T @ r, Jw.T @ J


def lm_fit(
    series: PriceSeries,
    start: LpplParams,
    max_iterations: int = MAX_ITERATIONS,
    threads: int = 1,
    *,
    state: Optional[LmState] = None,
) -> FitResult:
    """Run damped Gauss-Newton iterations from `start` until a stopping rule fires.

    Every accepted step strictly decreases the weighted error E; rejected steps
    only raise mu. The run ends as converged once E is at the rounding floor
    (`exact_fit_floor`), checked before each step and before the iteration
    cap, so a start that is already exact takes 0 iterations and a run that
    reaches the floor on its last allowed step still ends converged.
    Identical inputs give identical results, whatever the thread count.

    A trial point is evaluated for its residuals and E only. The Jacobian and
    the normal equations are formed once per accepted iterate (and once at
    the start), from the intermediates that evaluation kept, so a rejected
    step costs one residual evaluation and one damped 7x7 solve, and a trial
    that clipping rounds back to the iterate costs the solve alone: its E is
    the iterate's. A caller that has E and (g, N) at `start`, a point of the
    box, passes them in `state`, and the run skips that evaluation; without
    one the run starts at MU_INIT damping. The result's `state` holds the
    run's exit state, with a mu that underflowed to 0 reset to MU_INIT.
    """
    t_start = time.perf_counter()
    check_count("max_iterations", max_iterations)
    series.require_fit_ready()
    w = series.weights
    d = series.degrees_of_freedom
    floor = exact_fit_floor(series)
    lo, hi = box(series.n)

    x = np.clip(start.as_array(), lo, hi)
    params = LpplParams(*x.tolist())
    if state is None:
        report, jacobian = evaluate_batch(params, series, threads, jacobian=False)
        state = LmState(report.error, normal_equations(jacobian(), w, report.residuals))
    error, (g, N), mu, mu_bar = state
    if not mu > 0:  # NaN fails too
        raise ValueError(f"mu must be positive, got {mu!r}")
    if not 0 < mu_bar <= MU_BAR_CAP:
        raise ValueError(f"mu_bar must be in (0, {MU_BAR_CAP:g}], got {mu_bar!r}")
    flat = np.max(np.abs(g)) < GRADIENT_TOL  # the gradient test, rerun wherever g changes
    history = [error]
    iterations = 0
    restarts = 0

    def finish(reason):
        return FitResult(
            params=params,
            error=error,
            average_error=error / d,
            termination=reason,
            iterations=iterations,
            restarts=restarts,
            wall_time=time.perf_counter() - t_start,
            error_history=tuple(history),
            state=LmState(error, (g, N), mu if mu > 0 else MU_INIT, mu_bar),
        )

    while True:
        if error <= floor:
            return finish("converged")
        if iterations >= max_iterations:
            return finish("iteration-cap")
        if flat:
            return finish("converged")

        delta = _solve_step(N, g, mu) if 0.0 < mu < np.inf else None
        if delta is None:
            if mu_bar >= MU_BAR_CAP:
                return finish("mu-exhausted")
            mu = mu_bar = min(2.0 * mu_bar, MU_BAR_CAP)  # from the current iterate
            restarts += 1
            continue

        iterations += 1
        trial = np.clip(x + delta, lo, hi)
        if np.array_equal(trial, x):  # E at x: rejected; a signed zero moves no r^2
            mu *= MU_GROW
            continue
        trial_params = LpplParams(*trial.tolist())
        report, jacobian = evaluate_batch(trial_params, series, threads, jacobian=False)
        if report.error < error:
            step_scale = np.max(np.abs(trial - x) / np.maximum(1.0, np.abs(x)))
            x, params, error = trial, trial_params, report.error
            g, N = normal_equations(jacobian(), w, report.residuals)
            flat = np.max(np.abs(g)) < GRADIENT_TOL
            history.append(error)
            mu *= MU_SHRINK
            if step_scale < STEP_TOL:
                return finish("converged")
            if len(history) > ERROR_TOL_WINDOW:
                prev = history[-1 - ERROR_TOL_WINDOW]
                if prev > 0 and (prev - error) / prev < ERROR_TOL:
                    return finish("converged")
        else:
            mu *= MU_GROW

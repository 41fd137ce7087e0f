"""Linear (A, B, C) sub-system and the LM/linear interleave with adaptive L.

Fixing (T, m, omega, phi) makes the fit linear in A, beta = B, and
gamma = B * C: the model is A - beta*v(i) - gamma*z(i) with v = (T-i)^m and
z = v * cos(omega ln(T-i) + phi). The interleave alternates a capped LM run
with this linear solve, accepting a linear result only when it strictly
reduces E, and adapts the LM iteration cap L by comparing the error reduction
per unit of cost of the two solvers. Costs are counted in iteration
equivalents, not seconds, so identical runs follow identical schedules: an LM
run of l iterations costs l + 1 and a linear solve costs 1. LM always runs on
all 7 parameters with the analytic Jacobian; (A, B, C) are never substituted
into the objective.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.linalg

from .model import LpplParams, PriceSeries, evaluate_batch, lppl_kernel
from .solver import FitResult, LmConfig, exact_fit_floor, lm_fit, project_params

RANK_TOL = 1e-10
RATE_TIE_BAND = 0.01  # rates within 1% count as a tie, broken toward more LM
MAX_L = 4096  # ceiling of the adaptive LM iteration cap


@dataclass(frozen=True)
class LinearSolveResult:
    """Outcome of one fixed-(T, m, omega, phi) linear solve."""

    status: str  # ok | rank-deficient | nonpositive-beta
    A: float = np.nan
    beta: float = np.nan
    gamma: float = np.nan
    C: float = np.nan
    error: float = np.nan
    params: Optional[LpplParams] = None


def solve_linear_subsystem(
    series: PriceSeries,
    fixed: LpplParams,
    threads: int = 1,
) -> LinearSolveResult:
    """Weighted least-squares for (A, B, C) at fixed (T, m, omega, phi).

    Solved by rank-revealing QR on the sqrt(w)-scaled design matrix rather
    than normal equations; the basis is nearly collinear when oscillations
    are small and squaring the condition number would hurt. A rank-deficient
    system or beta <= 0 (which would break B > 0) is a rejection; the caller
    keeps its incumbent.
    """
    series.require_fit_ready()
    fixed.validate(series.n)
    _, v, cos_t = lppl_kernel(fixed, series.indices)
    z = v * cos_t

    sw = np.sqrt(series.weights)
    X = np.column_stack([np.ones(series.n), -v, -z]) * sw[:, None]
    y = series.log_prices * sw

    coef, _, rank, _ = scipy.linalg.lstsq(
        X, y, cond=RANK_TOL, lapack_driver="gelsy"
    )
    if rank < 3:
        return LinearSolveResult(status="rank-deficient")
    A, beta, gamma = (float(c) for c in coef)
    if beta <= 0:
        return LinearSolveResult(status="nonpositive-beta", A=A, beta=beta, gamma=gamma)

    C = gamma / beta
    params = fixed.replace(A=A, B=beta, C=C)
    report, _ = evaluate_batch(params, series, threads, jacobian=False)
    return LinearSolveResult(
        status="ok", A=A, beta=beta, gamma=gamma, C=C, error=report.error, params=params
    )


@dataclass
class InterleaveState:
    """Adaptive-L bookkeeping: phase, marginal LM cost, and last measurements."""

    L: int = 5
    phase: str = "startup"  # startup | regime
    T1: float = 0.0
    prev_lm: Optional[tuple] = None  # (iterations, cost) of the invocation before last
    last_lm: Optional[tuple] = None  # (iterations, cost, error_reduction)
    last_linear: Optional[tuple] = None  # (cost, error_reduction)


def _refit_runtime_model(state: InterleaveState) -> None:
    """Re-estimate the marginal cost T1 per LM iteration from the last two LM invocations.

    The slope of cost against iteration count; requires distinct iteration
    counts, otherwise the previous T1 is kept.
    """
    if state.prev_lm is None or state.last_lm is None:
        return
    la, ta = state.prev_lm[0], state.prev_lm[1]
    lb, tb = state.last_lm[0], state.last_lm[1]
    if la == lb:
        return
    state.T1 = (tb - ta) / (lb - la)


def update_L(state: InterleaveState) -> int:
    """Advance the adaptive schedule one step and return the new L.

    Startup doubles L while the LM error reduction per marginal cost (T1 per
    iteration, so the fixed cost of an invocation is left out) is at least
    the linear solver's reduction per unit of cost, then hands over to the
    regime phase, which nudges L by one toward the faster reducer. A tie
    within 1% increments L: the nonlinear solver can leave the fixed
    subspace, the linear one cannot.
    """
    _refit_runtime_model(state)
    if state.last_lm is None or state.last_linear is None:
        return state.L

    l_last, t_lm, dE_lm = state.last_lm
    t_lin, dE_lin = state.last_linear

    lin_rate = dE_lin / t_lin if t_lin > 0 and dE_lin > 0 else 0.0
    marginal_denom = state.T1 * l_last if state.T1 > 0 else t_lm
    lm_rate = dE_lm / marginal_denom if marginal_denom > 0 and dE_lm > 0 else 0.0

    if state.phase == "startup":
        if lm_rate >= lin_rate:
            state.L = max(1, state.L * 2)
        else:
            state.phase = "regime"
            state.L = max(1, state.L - 1)
    else:
        ref = max(lm_rate, lin_rate)
        tie = ref == 0.0 or abs(lm_rate - lin_rate) <= RATE_TIE_BAND * ref
        if tie or lm_rate > lin_rate:
            state.L += 1
        else:
            state.L = max(1, state.L - 1)
    return state.L


@dataclass(frozen=True)
class InterleaveConfig:
    lm: LmConfig = LmConfig()
    L: int = 5
    adaptive_L: bool = True
    max_rounds: int = 200


def interleave_fit(
    series: PriceSeries,
    seed: LpplParams,
    config: InterleaveConfig = InterleaveConfig(),
    threads: int = 1,
) -> FitResult:
    """Alternate capped LM runs with the linear sub-system solve.

    The linear result replaces the incumbent only on strict error decrease,
    so the accepted-error sequence is strictly decreasing and the loop
    terminates: it stops once the linear solve fails to improve and LM can
    make no further progress (converged or damping exhausted).

    Before the first round the linear sub-system is solved at the projected
    seed. If that fit is exact to rounding (`exact_fit_floor`), it is a global
    minimum and is returned as converged with no LM iterations; otherwise it
    is discarded and the rounds start from the projected seed itself.
    """
    t_start = time.perf_counter()
    n = series.n
    d = series.degrees_of_freedom
    incumbent = project_params(seed, n)
    report, _ = evaluate_batch(incumbent, series, threads, jacobian=False)
    error = report.error
    history = [error]

    state = InterleaveState(L=max(1, config.L))
    total_iterations = 0
    total_restarts = 0

    def finish(reason):
        return FitResult(
            params=incumbent,
            error=error,
            average_error=error / d,
            termination=reason,
            iterations=total_iterations,
            restarts=total_restarts,
            wall_time=time.perf_counter() - t_start,
            error_history=tuple(history),
        )

    floor = exact_fit_floor(series)
    if error > floor:
        lin = solve_linear_subsystem(series, incumbent, threads)
        if lin.status == "ok" and lin.error <= floor:
            incumbent = lin.params
            error = lin.error
            history.append(error)
    if error <= floor:
        return finish("converged")

    mu = config.lm.mu_init
    mu_bar = config.lm.mu_bar
    for _ in range(config.max_rounds):
        round_start_error = error
        # Resume the damping state from the previous round: a fresh mu_init
        # every round would make a stalled L-capped invocation look final
        # even though a larger mu (or a restart) would still make progress.
        lm_res = lm_fit(
            series,
            incumbent,
            replace(config.lm, max_iterations=state.L, mu_init=mu, mu_bar=mu_bar),
            threads,
        )
        total_iterations += lm_res.iterations
        total_restarts += lm_res.restarts
        mu = lm_res.mu_final if lm_res.mu_final > 0 else config.lm.mu_init
        mu_bar = lm_res.mu_bar_final

        dE_lm = error - lm_res.error
        if lm_res.error < error:
            incumbent = lm_res.params
            error = lm_res.error
            history.extend(lm_res.error_history[1:])
        lm_stalled = lm_res.termination in ("converged", "mu-exhausted", "restart-cap")

        lin = solve_linear_subsystem(series, incumbent, threads)
        lin_improved = lin.status == "ok" and lin.error < error
        dE_lin = error - lin.error if lin_improved else 0.0
        if lin_improved:
            incumbent = lin.params
            error = lin.error
            history.append(error)
            mu = config.lm.mu_init  # new basin; damping history no longer applies

        if not lin_improved and lm_stalled:
            return finish(
                lm_res.termination if lm_res.termination != "iteration-cap" else "converged"
            )

        # Round-level analogue of the solver's relative-error stopping rule:
        # a round that improves E, but by less than the tolerance, is treated
        # as converged rather than ground out. Zero-progress rounds are not
        # convergence: an L-capped LM invocation may still be searching for a
        # workable mu, which the carried damping state resumes next round.
        if (
            round_start_error > error > 0
            and (round_start_error - error) / round_start_error < config.lm.error_tol
        ):
            return finish("converged")

        if config.adaptive_L:
            state.prev_lm = state.last_lm[:2] if state.last_lm is not None else None
            state.last_lm = (max(1, lm_res.iterations), float(lm_res.iterations + 1),
                             max(dE_lm, 0.0))
            state.last_linear = (1.0, dE_lin)
            update_L(state)
            state.L = min(state.L, MAX_L)

    return finish("iteration-cap")  # the round cap ran out while still improving

"""Linear (A, B, C) sub-system and the LM/linear interleave with adaptive L.

Fixing (T, m, omega, phi) makes the fit linear in A, beta = B, and
gamma = B * C: the model is A - beta*v(i) - gamma*z(i) with v = (T-i)^m and
z = v * cos(omega ln(T-i) + phi). The interleave alternates a capped LM run
with this linear solve, accepting a linear result only when it strictly
reduces E, and adapts the LM iteration cap L by comparing the error reduction
per unit of cost of the two solvers (`update_L`). Costs are counted in
iteration equivalents, not seconds, so identical runs follow identical
schedules: a linear solve costs 1, and an LM run of l iterations costs l + 1
at the first update and max(1, l) after it. LM always runs on all 7
parameters with the analytic Jacobian; (A, B, C) are never substituted into
the objective.
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


def update_L(
    L: int, phase: str, lm_iterations: int, dE_lm: float, dE_lin: float, first: bool
) -> tuple[int, str]:
    """One step of the adaptive schedule: the (L, phase) for the next round.

    Each solver's rate is its error reduction per unit of cost. A linear
    solve costs 1. An LM run of l iterations costs its whole l + 1 on the
    first update and max(1, l) after it, when its fixed cost is already
    paid. Startup doubles L while LM's rate is at least the linear one, then
    hands over to the regime phase, which nudges L by one toward the faster
    reducer. A tie within 1% increments L: the nonlinear solver can leave the
    fixed subspace, the linear one cannot. L stays in [1, MAX_L].
    """
    lm_cost = lm_iterations + 1 if first else max(1, lm_iterations)
    lm_rate = dE_lm / lm_cost if dE_lm > 0 else 0.0
    lin_rate = dE_lin if dE_lin > 0 else 0.0
    if phase == "startup":
        if lm_rate >= lin_rate:
            L *= 2
        else:
            phase, L = "regime", L - 1
    else:
        ref = max(lm_rate, lin_rate)
        tie = ref == 0.0 or abs(lm_rate - lin_rate) <= RATE_TIE_BAND * ref
        L += 1 if tie or lm_rate > lin_rate else -1
    return min(max(1, L), MAX_L), phase


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

    L, phase = max(1, config.L), "startup"
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
    for round_ in range(config.max_rounds):
        round_start_error = error
        # Resume the damping state from the previous round: a fresh mu_init
        # every round would make a stalled L-capped invocation look final
        # even though a larger mu (or a restart) would still make progress.
        lm_res = lm_fit(
            series,
            incumbent,
            replace(config.lm, max_iterations=L, mu_init=mu, mu_bar=mu_bar),
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
            L, phase = update_L(L, phase, lm_res.iterations, dE_lm, dE_lin, round_ == 0)

    return finish("iteration-cap")  # the round cap ran out while still improving

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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from .model import B_MIN, LpplParams, PriceSeries, evaluate_batch, lppl_kernel_values
from .solver import (ERROR_TOL, FitResult, LmState, check_count, exact_fit_floor, lm_fit,
                     normal_equations, project_params)

RANK_TOL = 1e-10
RATE_TIE_BAND = 0.01  # rates within 1% count as a tie, broken toward more LM
L_START = 5  # LM iteration cap of the first round
MAX_L = 4096  # ceiling of the adaptive LM iteration cap


@dataclass(frozen=True)
class LinearSolveResult:
    """Outcome of one fixed-(T, m, omega, phi) linear solve."""

    status: str  # ok | rank-deficient | nonpositive-beta (beta < B_MIN)
    error: float = np.nan
    params: Optional[LpplParams] = None
    # evaluate_batch's (report, Jacobian closure) at params, for the next LM run
    evaluation: tuple = field(default=(), compare=False, repr=False)


def solve_linear_subsystem(
    series: PriceSeries,
    fixed: LpplParams,
    threads: int = 1,
) -> LinearSolveResult:
    """Weighted least-squares for (A, B, C) at fixed (T, m, omega, phi).

    Solved by rank-revealing QR on the sqrt(w)-scaled design matrix rather
    than normal equations; the basis is nearly collinear when oscillations
    are small and squaring the condition number would hurt. A rank-deficient
    system is a rejection, and so is beta < B_MIN, below the feasibility box
    (status "nonpositive-beta"); the caller keeps its incumbent.
    """
    series.require_fit_ready()
    fixed.validate(series.n)
    _, kv = lppl_kernel_values(fixed, series.indices)
    v, z = kv.g, kv.g * kv.cos_t

    sw = np.sqrt(series.weights)
    X = np.column_stack([np.ones(series.n), -v, -z]) * sw[:, None]
    y = series.log_prices * sw

    coef, _, rank, _ = scipy.linalg.lstsq(
        X, y, cond=RANK_TOL, lapack_driver="gelsy"
    )
    if rank < 3:
        return LinearSolveResult(status="rank-deficient")
    A, beta, gamma = (float(c) for c in coef)
    if beta < B_MIN:
        return LinearSolveResult(status="nonpositive-beta")

    params = fixed.replace(A=A, B=beta, C=gamma / beta)
    report, jacobian = evaluate_batch(params, series, threads, jacobian=False)
    return LinearSolveResult(status="ok", error=report.error, params=params,
                             evaluation=(report, jacobian))


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
    """The round cap; each round's LM run is capped at that round's adaptive L."""

    max_rounds: int = 200

    def __post_init__(self):
        check_count("max_rounds", self.max_rounds)


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
    make no further progress (converged or damping exhausted). Each round's
    LM run resumes the `LmState` that the last one ended in: a fresh MU_INIT
    every round would make a stalled L-capped run look final even though a
    larger mu (or a restart) would still make progress. The first round
    starts at MU_INIT, and a round after a linear improvement starts at mu =
    MU_INIT in the new basin, keeping only mu_bar.

    Before the first round the linear sub-system is solved at the projected
    seed. If that fit is exact to rounding (`exact_fit_floor`), it is a global
    minimum and is returned as converged with no LM iterations; otherwise the
    rounds start from the projected seed, and that solve stands as the linear
    result until an LM run lowers E. Only such a round solves again: the solve
    reads only (T, m, omega, phi), which only an LM step moves, so any other
    round would repeat the last solve at its own point and result.

    No round's LM run evaluates its start: it is handed E and (g, N) there,
    from the seed's evaluation, the linear solve's or the last LM run's.
    """
    t_start = time.perf_counter()
    n = series.n
    d = series.degrees_of_freedom
    incumbent = project_params(seed, n)
    report, jacobian = evaluate_batch(incumbent, series, threads, jacobian=False)
    error = report.error
    history = [error]

    L, phase = L_START, "startup"
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

    # E, (g, N) and the damping at the incumbent, handed to the next round's LM run
    state = LmState(error, normal_equations(jacobian(), series.weights, report.residuals))
    for round_ in range(config.max_rounds):
        round_start_error = error
        lm_res = lm_fit(series, incumbent, L, threads, state=state)
        total_iterations += lm_res.iterations
        total_restarts += lm_res.restarts
        state = lm_res.state

        dE_lm = error - lm_res.error
        if lm_res.error < error:
            incumbent = lm_res.params
            error = lm_res.error
            history.extend(lm_res.error_history[1:])
        lm_stalled = lm_res.termination in ("converged", "mu-exhausted")

        # (A, B, C) depends on (T, m, omega, phi) alone, which only an LM step moves
        if dE_lm > 0:
            lin = solve_linear_subsystem(series, incumbent, threads)
        lin_improved = lin.status == "ok" and lin.error < error
        dE_lin = error - lin.error if lin_improved else 0.0
        if lin_improved:
            incumbent = lin.params
            error = lin.error
            history.append(error)
            report, jacobian = lin.evaluation
            state = LmState(error, normal_equations(jacobian(), series.weights, report.residuals),
                            mu_bar=state.mu_bar)

        if not lin_improved and lm_stalled:
            return finish(lm_res.termination)

        # Round-level analogue of the solver's relative-error stopping rule:
        # a round that improves E, but by less than the tolerance, is treated
        # as converged rather than ground out. Zero-progress rounds are not
        # convergence: an L-capped LM invocation may still be searching for a
        # workable mu, which the carried damping state resumes next round.
        if (
            round_start_error > error > 0
            and (round_start_error - error) / round_start_error < ERROR_TOL
        ):
            return finish("converged")

        L, phase = update_L(L, phase, lm_res.iterations, dE_lm, dE_lin, round_ == 0)

    return finish("iteration-cap")  # the round cap ran out while still improving

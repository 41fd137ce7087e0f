import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from lpplfit import model, solver
from lpplfit.linear import solve_linear_subsystem
from lpplfit.model import (B_MIN, M_MAX, M_MIN, T_GAP, LpplParams, PriceSeries, box,
                           evaluate_batch, lppl_values)
from lpplfit.solver import (
    ERROR_TOL,
    ERROR_TOL_WINDOW,
    GRADIENT_TOL,
    MAX_ITERATIONS,
    MU_BAR_CAP,
    MU_GROW,
    MU_INIT,
    MU_SHRINK,
    STEP_TOL,
    FitResult,
    LmState,
    exact_fit_floor,
    lm_fit,
    normal_equations,
    project_params,
)
from lpplfit.synth import PRESETS, SynthSpec, generate_trace


def perturbed(params, factor=1.01):
    return LpplParams(*(v * factor for v in params.as_array()))


def evaluated_state(series, start, **damping):
    """The `LmState` that `lm_fit` would build at `start`, with the given damping."""
    params = project_params(start, series.n)
    report, jacobian = evaluate_batch(params, series, jacobian=False)
    g_N = normal_equations(jacobian(), series.weights, report.residuals)
    return LmState(report.error, g_N, **damping)


def lm_fit_evaluating_every_trial(series, start, max_iterations=MAX_ITERATIONS, mu=MU_INIT):
    """`lm_fit` as it was before null trials were skipped: every trial point is
    evaluated, and the gradient test runs on every pass of the loop."""
    w, d, floor = series.weights, series.degrees_of_freedom, exact_fit_floor(series)
    lo, hi = box(series.n)
    x = np.clip(start.as_array(), lo, hi)
    params = LpplParams(*x.tolist())
    report, jacobian = evaluate_batch(params, series, jacobian=False)
    error = report.error
    g, N = normal_equations(jacobian(), w, report.residuals)
    history = [error]
    mu_bar, iterations, restarts = MU_INIT, 0, 0

    def finish(reason):
        return FitResult(params, error, error / d, reason, iterations, restarts, 0.0,
                         tuple(history), LmState(error, (g, N), mu or MU_INIT, mu_bar))

    while True:
        if error <= floor:
            return finish("converged")
        if iterations >= max_iterations:
            return finish("iteration-cap")
        if np.max(np.abs(g)) < GRADIENT_TOL:
            return finish("converged")
        delta = solver._solve_step(N, g, mu) if 0.0 < mu < np.inf else None
        if delta is None:
            if mu_bar >= MU_BAR_CAP:
                return finish("mu-exhausted")
            restarts += 1
            mu = mu_bar = min(2.0 * mu_bar, MU_BAR_CAP)
            continue
        iterations += 1
        trial = np.clip(x + delta, lo, hi)
        trial_params = LpplParams(*trial.tolist())
        report, jacobian = evaluate_batch(trial_params, series, jacobian=False)
        if report.error < error:
            step_scale = np.max(np.abs(trial - x) / np.maximum(1.0, np.abs(x)))
            x, params, error = trial, trial_params, report.error
            g, N = normal_equations(jacobian(), w, report.residuals)
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


def result_fields(result):
    """Every field of a FitResult but its wall time, with arrays as bytes."""
    out = dataclasses.asdict(result)
    del out["wall_time"]
    error, (g, N), mu, mu_bar = result.state
    out["state"] = (error, g.tobytes(), N.tobytes(), mu, mu_bar)
    return out


class TestConfigAndPolicy:
    def test_config_validation(self):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.01, n=300, seed=1)
        series = generate_trace(spec)
        start = perturbed(spec.params, 1.05)
        for bad in (0, -5, 2.5, True):
            with pytest.raises(ValueError, match="max_iterations"):
                lm_fit(series, start, bad)
        state = evaluated_state(series, start)
        for bad in ({"mu": 0.0}, {"mu": float("nan")}, {"mu_bar": 0.0},
                    {"mu_bar": float("nan")}, {"mu_bar": 2 * MU_BAR_CAP}):
            with pytest.raises(ValueError, match=f"{next(iter(bad))} must"):
                lm_fit(series, start, state=state._replace(**bad))
        # the cap itself is a valid seed, an infinite mu is carried over from
        # an interleave round that ended with its damping exhausted, and any
        # integer type is an iteration cap
        lm_fit(series, start, np.int64(5), state=state._replace(mu=float("inf"), mu_bar=MU_BAR_CAP))

    def test_projection(self):
        p = LpplParams(A=1, B=-5, T=90, m=2.0, C=0, omega=1, phi=0)
        q = project_params(p, 100)
        assert q.B == B_MIN and q.m == M_MAX and q.T == pytest.approx(100, abs=1e-5)
        p2 = LpplParams(A=1, B=0.1, T=200, m=-3, C=0, omega=1, phi=0)
        assert project_params(p2, 100).m == M_MIN


class TestLmFit:
    def test_noiseless_recovery_from_perturbed_truth(self):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.0, n=1000, seed=0)
        series = generate_trace(spec)
        res = lm_fit(series, perturbed(spec.params), 500)
        assert res.error < 1e-15
        np.testing.assert_allclose(
            res.params.as_array(), spec.params.as_array(), rtol=1e-4, atol=1e-8
        )
        assert res.termination == "converged"

    def test_error_history_strictly_decreasing(self):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.01, n=600, seed=4)
        series = generate_trace(spec)
        res = lm_fit(series, perturbed(spec.params, 1.05))
        h = np.array(res.error_history)
        assert len(h) > 3
        assert np.all(np.diff(h) < 0)

    def test_jacobian_only_at_accepted_iterates(self, monkeypatch):
        # trial points are evaluated for residuals only; the partials are
        # computed at the start and once per accepted step, never for a reject
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.01, n=600, seed=4)
        series = generate_trace(spec)
        calls = []
        partials = model.lppl_kernel_partials

        def counting(params, v, jac):
            calls.append(params)
            partials(params, v, jac)

        monkeypatch.setattr(model, "lppl_kernel_partials", counting)
        res = lm_fit(series, perturbed(spec.params, 1.05))
        accepted = len(res.error_history) - 1
        assert res.iterations > accepted  # some trial points were rejected
        assert len(calls) == len(res.error_history)

    def test_deterministic(self):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.01, n=400, seed=9)
        series = generate_trace(spec)
        a = lm_fit(series, perturbed(spec.params, 1.02))
        b = lm_fit(series, perturbed(spec.params, 1.02))
        assert a.params == b.params and a.error == b.error
        assert a.iterations == b.iterations and a.termination == b.termination

    def test_matches_reference_optimizer(self):
        # trust-region reflective least squares as an independent oracle: both
        # start from the same perturbed truth on a noisy trace and should land
        # in the same basin with matching weighted error
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.005, n=1000, seed=2)
        series = generate_trace(spec)
        start = perturbed(spec.params, 1.01)
        res = lm_fit(series, start, 500)

        sw = np.sqrt(series.weights)
        x = series.indices

        def resid(v):
            return sw * (lppl_values(LpplParams.from_array(v), x) - series.log_prices)

        ref = least_squares(
            resid,
            start.as_array(),
            bounds=(
                [-np.inf, 1e-12, 1000 + 1e-6, 1e-6, -np.inf, -np.inf, -np.inf],
                [np.inf, np.inf, np.inf, 1.0, np.inf, np.inf, np.inf],
            ),
            xtol=1e-14, ftol=1e-14, gtol=1e-14,
        )
        ref_error = float(np.sum(ref.fun**2))
        assert res.error == pytest.approx(ref_error, rel=1e-6)

    def test_exact_start_stops_before_first_step(self):
        # with m = 1 and C = 0 the linear sub-system fits the noiseless
        # exponential trace exactly; E is then at the rounding floor, a global
        # minimum, so no step is taken
        spec = SynthSpec(params=PRESETS["exponential"].params, sigma=0.0, n=1000, seed=0)
        series = generate_trace(spec)
        start = solve_linear_subsystem(
            series, project_params(perturbed(spec.params), series.n)
        ).params
        res = lm_fit(series, start)
        assert 0.0 < res.error <= exact_fit_floor(series)
        assert res.termination == "converged"
        assert res.iterations == 0
        assert res.params == start

    def test_floor_on_the_last_allowed_step_is_converged(self):
        # the floor is checked before the iteration cap, so a run capped at
        # exactly the step that reaches the floor still ends converged
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.0, n=1000, seed=0)
        series = generate_trace(spec)
        free = lm_fit(series, perturbed(spec.params), 500)
        assert free.termination == "converged" and free.error <= exact_fit_floor(series)
        capped = lm_fit(series, perturbed(spec.params), free.iterations)
        assert capped.termination == "converged"
        assert capped.params == free.params and capped.iterations == free.iterations
        short = free.iterations - 1
        assert lm_fit(series, perturbed(spec.params), short).termination == "iteration-cap"

    def test_iteration_cap(self):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.01, n=300, seed=1)
        series = generate_trace(spec)
        res = lm_fit(series, perturbed(spec.params, 1.3), 2)
        assert res.termination == "iteration-cap"
        assert res.iterations == 2

    def test_start_is_projected(self):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.0, n=200, seed=0)
        series = generate_trace(spec)
        bad = spec.params.replace(T=50.0, B=-1.0)  # outside the box and the domain
        res = lm_fit(series, bad, 5)
        assert res.params.T > 200 and res.params.B >= B_MIN

    def test_every_trial_point_is_in_the_box(self, monkeypatch):
        # the start and every trial point go through solver.evaluate_batch
        # (which the benchmark tracer wraps), clipped to the box
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.01, n=300, seed=1)
        series = generate_trace(spec)
        seen = []
        evaluate = solver.evaluate_batch

        def recording(params, *args, **kwargs):
            seen.append(params)
            return evaluate(params, *args, **kwargs)

        monkeypatch.setattr(solver, "evaluate_batch", recording)
        start = spec.params.replace(T=250.0, B=-0.5, m=1.5)
        res = lm_fit(series, start, 40)
        assert res.iterations > 0
        assert len(seen) == res.iterations + 1
        for p in seen:
            assert p.B >= B_MIN and M_MIN <= p.m <= M_MAX and p.T - series.n >= T_GAP

    def test_huge_mu_restarts_without_warnings(self):
        # mu * diag(N) overflows; _solve_step must report that as a restart,
        # without a RuntimeWarning, and the run goes on from mu_bar
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.01, n=300, seed=1)
        series = generate_trace(spec)
        start = perturbed(spec.params, 1.05)
        state = evaluated_state(series, start, mu=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = lm_fit(series, start, 20, state=state)
        assert res.restarts >= 1
        assert res.iterations > 0

    @pytest.mark.parametrize("mu_bar, restarts", [
        (MU_INIT, 37),  # ceil(log2(1e8 / 1e-3))
        (1e-12, 67),  # ceil(log2(1e8 / 1e-12))
    ], ids=["default", "mu-bar-1e-12"])
    def test_mu_bar_cap_bounds_restarts(self, monkeypatch, mu_bar, restarts):
        # every step solve fails: mu_bar doubles on each restart until the
        # cap, and the next failure ends the run
        solves = []

        def failing(N, g, mu):
            solves.append(mu)

        monkeypatch.setattr(solver, "_solve_step", failing)
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.01, n=300, seed=1)
        series = generate_trace(spec)
        start = perturbed(spec.params, 1.05)
        res = lm_fit(series, start, state=evaluated_state(series, start, mu=mu_bar, mu_bar=mu_bar))
        assert res.termination == "mu-exhausted"
        assert (res.restarts, res.iterations) == (restarts, 0)
        assert res.state.mu_bar == MU_BAR_CAP
        # each restart doubles mu_bar and runs the next solve at it, until the cap
        assert solves == [min(mu_bar * 2.0**k, MU_BAR_CAP) for k in range(restarts + 1)]

    def test_exposes_damping_state(self):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.01, n=300, seed=1)
        series = generate_trace(spec)
        res = lm_fit(series, perturbed(spec.params, 1.05), 3)
        assert res.state.mu > 0 and res.state.mu_bar > 0

    def test_rejects_underweighted_series(self):
        series = PriceSeries(
            log_prices=np.linspace(1, 2, 10), weights=np.r_[np.ones(7), np.zeros(3)]
        )
        with pytest.raises(ValueError):
            lm_fit(series, PRESETS["base"].params)


class TestNullTrials:
    # A trial that clipping rounds back to the iterate has the iterate's E, so
    # it is rejected without an evaluation; every result stays the same.

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        preset=st.sampled_from(sorted(PRESETS)),
        n=st.integers(20, 200),
        noise_seed=st.integers(0, 2**32 - 1),
        factors=st.lists(st.floats(0.8, 1.2), min_size=7, max_size=7),
        # C and phi away from 0, where no step rounds back
        dC=st.floats(0.01, 0.1) | st.floats(-0.1, -0.01),
        phi=st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
        mu_exponent=st.integers(-6, 250),
        max_iterations=st.integers(1, 60),
    )
    def test_matches_the_loop_that_evaluates_every_trial(
        self, preset, n, noise_seed, factors, dC, phi, mu_exponent, max_iterations
    ):
        truth = PRESETS[preset].params
        series = generate_trace(SynthSpec(params=truth, sigma=0.01, n=n, seed=noise_seed))
        start = LpplParams(*(v * f for v, f in zip(truth.as_array(), factors)))
        start = start.replace(C=start.C + dC, phi=phi)
        mu = 10.0**mu_exponent
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # both loops overflow alike
            expected = lm_fit_evaluating_every_trial(series, start, max_iterations, mu)
            got = lm_fit(series, start, max_iterations, state=evaluated_state(series, start, mu=mu))
        assert result_fields(got) == result_fields(expected)

    def test_huge_mu_evaluates_no_trial(self, monkeypatch):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.01, n=600, seed=4)
        series = generate_trace(spec)
        fitted = lm_fit(series, perturbed(spec.params, 1.05), 20)
        assert fitted.termination == "iteration-cap"
        calls = []
        evaluate = solver.evaluate_batch

        def counting(*args, **kwargs):
            calls.append(args[0])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(solver, "evaluate_batch", counting)
        res = lm_fit(series, fitted.params, 50, state=fitted.state._replace(mu=1e200))
        assert (res.iterations, res.termination, res.restarts) == (50, "iteration-cap", 0)
        assert calls == []  # the start's E and (g, N) come with the state
        assert res.params == fitted.params and res.error == fitted.error

    def test_start_state_skips_the_start_evaluation(self, monkeypatch):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.01, n=600, seed=4)
        series = generate_trace(spec)
        first = lm_fit(series, perturbed(spec.params, 1.05), 5)
        plain = lm_fit(series, first.params)
        calls = []
        evaluate = solver.evaluate_batch

        def recording(params, *args, **kwargs):
            calls.append(params)
            return evaluate(params, *args, **kwargs)

        monkeypatch.setattr(solver, "evaluate_batch", recording)
        fresh_damping = first.state._replace(mu=MU_INIT, mu_bar=MU_INIT)
        handed = lm_fit(series, first.params, state=fresh_damping)
        assert first.params not in calls
        assert result_fields(handed) == result_fields(plain)

    def test_mu_underflow_resumes_from_mu_init(self):
        # a run whose mu shrinks to 0 on its last accepted step hands over
        # MU_INIT, which is what a further run from its exit point resumes;
        # off a noiseless trace's A alone, the undamped step is accepted
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.0, n=300, seed=1)
        series = generate_trace(spec)
        start = spec.params.replace(A=spec.params.A * 1.01)
        res = lm_fit(series, start, 1, state=evaluated_state(series, start, mu=5e-324))
        assert 5e-324 * MU_SHRINK == 0.0
        assert (res.iterations, len(res.error_history), res.termination) == (1, 2, "iteration-cap")
        assert (res.state.mu, res.state.mu_bar) == (MU_INIT, MU_INIT)
        resumed = lm_fit(series, res.params, 30, state=res.state)
        damping = {"mu": res.state.mu, "mu_bar": res.state.mu_bar}
        fresh = lm_fit(series, res.params, 30, state=evaluated_state(series, res.params, **damping))
        assert resumed.iterations > 0
        assert result_fields(resumed) == result_fields(fresh)

import dataclasses

import numpy as np
import pytest

from lpplfit import linear, solver
from lpplfit.linear import (
    MAX_L,
    InterleaveConfig,
    interleave_fit,
    solve_linear_subsystem,
    update_L,
)
from lpplfit.model import B_MIN, LpplParams, PriceSeries, evaluate_batch
from lpplfit.solver import lm_fit, normal_equations
from lpplfit.seeds import exponential_prefit
from lpplfit.synth import PRESETS, SynthSpec, generate_trace, standard_suite


def noiseless_base(n=1000, seed=0):
    return generate_trace(SynthSpec(params=PRESETS["base"].params, sigma=0.0, n=n, seed=seed))


class TestLinearSubsystem:
    def test_exact_recovery_from_distorted_linear_part(self):
        series = noiseless_base()
        truth = PRESETS["base"].params
        distorted = truth.replace(A=truth.A + 1.0, B=2 * truth.B, C=-truth.C)
        res = solve_linear_subsystem(series, distorted)
        assert res.status == "ok"
        assert res.params.A == pytest.approx(truth.A, rel=1e-10)
        assert res.params.B == pytest.approx(truth.B, rel=1e-10)
        assert res.params.C == pytest.approx(truth.C, rel=1e-10)
        assert res.error < 1e-20

    def test_idempotent(self):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.01, n=800, seed=3)
        series = generate_trace(spec)
        first = solve_linear_subsystem(series, spec.params)
        second = solve_linear_subsystem(series, first.params)
        assert second.status == "ok"
        np.testing.assert_allclose(
            [second.params.A, second.params.B, second.params.C],
            [first.params.A, first.params.B, first.params.C],
            rtol=1e-12,
        )

    def test_matches_normal_equations_oracle(self):
        spec = SynthSpec(params=PRESETS["oscillatory"].params, sigma=0.02, n=700, seed=5)
        series = generate_trace(spec)
        fixed = spec.params
        res = solve_linear_subsystem(series, fixed)

        # independent construction straight from the weighted normal equations
        i = series.indices
        d = fixed.T - i
        v = d**fixed.m
        z = v * np.cos(fixed.omega * np.log(d) + fixed.phi)
        X = np.column_stack([np.ones(series.n), -v, -z])
        W = np.diag(series.weights)
        coef = np.linalg.solve(X.T @ W @ X, X.T @ W @ series.log_prices)
        p = res.params
        np.testing.assert_allclose([p.A, p.B, p.B * p.C], coef, rtol=1e-9)

    def test_never_increases_error(self):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.02, n=500, seed=11)
        series = generate_trace(spec)
        for factor in (0.9, 1.0, 1.3):
            fixed = spec.params.replace(A=spec.params.A * factor)
            before = evaluate_batch(fixed, series)[0].error
            res = solve_linear_subsystem(series, fixed)
            assert res.status == "ok"
            assert res.error <= before * (1 + 1e-12)

    def test_nonpositive_beta_rejected(self):
        # a rising "bubble" mirrored downward forces the slope the wrong way
        series = noiseless_base(n=300)
        flipped = PriceSeries(log_prices=-series.log_prices, weights=series.weights)
        res = solve_linear_subsystem(flipped, PRESETS["base"].params)
        assert res.status == "nonpositive-beta"
        assert res.params is None

    def test_beta_below_box_rejected(self):
        # a noiseless trace with 0 < B < B_MIN: the linear solve recovers that
        # beta, which is outside the feasibility box, so it must not be "ok"
        truth = PRESETS["base"].params.replace(B=1e-13)
        assert truth.C != 0
        series = generate_trace(SynthSpec(params=truth, sigma=0.0, n=1000, seed=0))
        res = solve_linear_subsystem(series, truth.replace(B=PRESETS["base"].params.B))
        # the beta that was rejected, from an independent weighted least squares
        d = truth.T - series.indices
        v = d**truth.m
        z = v * np.cos(truth.omega * np.log(d) + truth.phi)
        sw = np.sqrt(series.weights)
        X = np.column_stack([np.ones(series.n), -v, -z]) * sw[:, None]
        beta = np.linalg.lstsq(X, series.log_prices * sw, rcond=None)[0][1]
        assert 0 < beta < B_MIN
        assert res.status == "nonpositive-beta"
        assert res.params is None

    def test_rank_deficient_rejected(self):
        # omega = 0, phi = 0 makes the oscillation column equal the power column
        series = noiseless_base(n=300)
        fixed = PRESETS["base"].params.replace(omega=0.0, phi=0.0)
        res = solve_linear_subsystem(series, fixed)
        assert res.status == "rank-deficient"
        assert res.params is None

    def test_zero_weight_points_ignored(self):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.01, n=400, seed=2)
        series = generate_trace(spec)
        w = series.weights.copy()
        w[:100] = 0.0
        a = solve_linear_subsystem(PriceSeries(series.log_prices, w), spec.params)
        corrupted = series.log_prices.copy()
        corrupted[:100] = 99.0
        b = solve_linear_subsystem(PriceSeries(corrupted, w), spec.params)
        np.testing.assert_allclose([a.params.A, a.params.B, a.params.C],
                                   [b.params.A, b.params.B, b.params.C], rtol=1e-12)


class TestUpdateL:
    # update_L(L, phase, lm_iterations, dE_lm, dE_lin, first) -> (L, phase);
    # a linear solve costs 1, so its rate is its error reduction

    def test_startup_doubles_while_lm_wins(self):
        # LM: reduction 100 over 5 iterations -> rate 20; linear: rate 4
        assert update_L(5, "startup", 5, 100.0, 4.0, first=False) == (10, "startup")

    def test_startup_hands_over_when_linear_wins(self):
        # LM rate 10 / 16 against the linear rate 4
        assert update_L(16, "startup", 16, 10.0, 4.0, first=False) == (15, "regime")

    def test_regime_steps_toward_faster_reducer(self):
        assert update_L(8, "regime", 8, 100.0, 4.0, first=False) == (9, "regime")
        assert update_L(9, "regime", 9, 1.0, 4.0, first=False) == (8, "regime")

    def test_tie_increments(self):
        # rates 5.0 vs 4.96: within the 1% band, broken toward more LM
        assert update_L(8, "regime", 8, 40.0, 4.96, first=False) == (9, "regime")

    def test_L_floor_is_one(self):
        assert update_L(1, "regime", 1, 0.0, 4.0, first=False) == (1, "regime")
        assert update_L(1, "startup", 1, 0.0, 4.0, first=False) == (1, "regime")

    def test_first_update_charges_whole_cost(self):
        # 5 iterations reducing E by 24: rate 24 / 6 = 4 on the first update,
        # 24 / 5 = 4.8 after it, against the linear rate 4.5
        assert update_L(5, "startup", 5, 24.0, 4.5, first=True) == (4, "regime")
        assert update_L(5, "startup", 5, 24.0, 4.5, first=False) == (10, "startup")
        # a zero-iteration run still costs 1
        assert update_L(5, "startup", 0, 0.0, 0.0, first=False) == (10, "startup")

    def test_MAX_L_ceiling(self):
        assert update_L(3000, "startup", 3000, 1e6, 1.0, first=False) == (MAX_L, "startup")
        assert update_L(MAX_L, "regime", MAX_L, 1e6, 1.0, first=False) == (MAX_L, "regime")
        # an L above the ceiling is clamped on a handover too
        assert update_L(10_000, "startup", 10_000, 1.0, 4.0, first=True) == (MAX_L, "regime")


class TestInterleaveFit:
    def test_noiseless_recovery(self):
        series = noiseless_base()
        truth = PRESETS["base"].params
        start = LpplParams(*(v * 1.01 for v in truth.as_array()))
        res = interleave_fit(series, start)
        assert res.error < 1e-15
        assert res.termination == "converged"
        np.testing.assert_allclose(res.params.as_array(), truth.as_array(),
                                   rtol=1e-4, atol=1e-8)

    def test_history_strictly_decreasing(self):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.01, n=600, seed=8)
        series = generate_trace(spec)
        start = LpplParams(*(v * 1.05 for v in spec.params.as_array()))
        res = interleave_fit(series, start)
        h = np.array(res.error_history)
        assert np.all(np.diff(h) < 0)
        assert res.termination in (
            "converged", "mu-exhausted", "iteration-cap"
        )

    def test_not_worse_than_plain_lm(self):
        spec = SynthSpec(params=PRESETS["oscillatory"].params, sigma=0.02, n=800, seed=6)
        series = generate_trace(spec)
        start = LpplParams(*(v * 1.05 for v in spec.params.as_array()))
        plain = lm_fit(series, start, 400)
        mixed = interleave_fit(series, start)
        assert mixed.error <= plain.error * (1 + 1e-9)

    def test_deterministic_under_real_clock(self):
        # the default cost model prices rounds in iterations, not seconds, so
        # two identical runs agree bitwise even with timing jitter
        spec = SynthSpec(params=PRESETS["oscillatory"].params, sigma=0.02, n=500, seed=21)
        series = generate_trace(spec)
        start = LpplParams(*(v * 1.03 for v in spec.params.as_array()))
        a = interleave_fit(series, start)
        b = interleave_fit(series, start)
        assert a.params == b.params and a.error == b.error
        assert a.iterations == b.iterations

    def test_pinned_adaptive_schedule(self, monkeypatch):
        # frozen base#4 from its exponential seed: round 1 (L = 5) uses all 5
        # iterations and, charged its whole cost 6, loses to the linear solve,
        # so the schedule hands over and round 2 runs with L = 4
        caps = []

        def recording_lm_fit(series, start, max_iterations, threads=1, **kwargs):
            caps.append(max_iterations)
            return lm_fit(series, start, max_iterations, threads, **kwargs)

        monkeypatch.setattr("lpplfit.linear.lm_fit", recording_lm_fit)
        _, _, spec = standard_suite(20260823)[4]
        series = generate_trace(spec)
        interleave_fit(series, exponential_prefit(series).params, InterleaveConfig(max_rounds=3))
        assert caps == [5, 4, 5]


def frozen_trace(k):
    """Trace k of the frozen suite and its exponential seed."""
    _, _, spec = standard_suite(20260823)[k]
    series = generate_trace(spec)
    return series, exponential_prefit(series).params


class TestInterleaveHandOver:
    # Each round's LM run starts from the E and (g, N) that the interleave
    # already has at the incumbent, and only a round whose LM run lowered E
    # solves the linear sub-system again, since any other round would repeat
    # the last solve; the results are the same bits as without either.

    @pytest.mark.parametrize("k, pinned", [
        (4, ("0x1.50d75aa46a3f4p+1", 180, 0, "iteration-cap")),  # base#4
        (6, ("0x1.f9508bc3efdd2p+5", 212, 0, "iteration-cap")),  # oscillatory#1
    ], ids=["base-4", "oscillatory-1"])
    def test_pinned_results(self, k, pinned):
        # values of the interleave that evaluated every round's start and
        # solved after every round
        series, seed = frozen_trace(k)
        res = interleave_fit(series, seed, InterleaveConfig(max_rounds=40))
        assert (res.error.hex(), res.iterations, res.restarts, res.termination) == pinned

    @pytest.mark.parametrize("k", [4, 6])
    def test_same_result_without_the_hand_over(self, monkeypatch, k):
        series, seed = frozen_trace(k)
        config = InterleaveConfig(max_rounds=40)
        handed = interleave_fit(series, seed, config)

        def recomputing(series, start, *args, state, **kwargs):
            # E and (g, N) evaluated afresh at the start; only the damping is handed over
            report, jacobian = evaluate_batch(start, series, jacobian=False)
            g_N = normal_equations(jacobian(), series.weights, report.residuals)
            fresh = state._replace(error=report.error, normal_equations=g_N)
            return lm_fit(series, start, *args, state=fresh, **kwargs)

        monkeypatch.setattr("lpplfit.linear.lm_fit", recomputing)
        fresh = interleave_fit(series, seed, config)
        assert dataclasses.replace(handed, wall_time=0.0) == dataclasses.replace(fresh, wall_time=0.0)
        assert handed.error_history == fresh.error_history

    def test_no_round_evaluates_its_own_start(self, monkeypatch):
        series, seed = frozen_trace(6)
        rounds = []  # (start, the points evaluated in that round)
        evaluate = solver.evaluate_batch

        def recording_lm_fit(series, start, *args, **kwargs):
            rounds.append((start, []))
            return lm_fit(series, start, *args, **kwargs)

        def recording_evaluate(params, *args, **kwargs):
            rounds[-1][1].append(params)
            return evaluate(params, *args, **kwargs)

        monkeypatch.setattr("lpplfit.linear.lm_fit", recording_lm_fit)
        monkeypatch.setattr(solver, "evaluate_batch", recording_evaluate)
        interleave_fit(series, seed, InterleaveConfig(max_rounds=40))
        assert len(rounds) == 40
        assert not any(evaluated and evaluated[0] == start for start, evaluated in rounds)

    @pytest.mark.parametrize("k", [4, 6])
    def test_solves_only_after_a_lowering_lm_run(self, monkeypatch, k):
        series, seed = frozen_trace(k)
        solved, lowered = [], []
        solve = linear.solve_linear_subsystem

        def recording_solve(series, fixed, *args):
            solved.append((fixed.T, fixed.m, fixed.omega, fixed.phi))
            return solve(series, fixed, *args)

        def recording_lm_fit(series, start, *args, state, **kwargs):
            res = lm_fit(series, start, *args, state=state, **kwargs)
            lowered.append(res.error < state.error)
            return res

        monkeypatch.setattr(linear, "solve_linear_subsystem", recording_solve)
        monkeypatch.setattr(linear, "lm_fit", recording_lm_fit)
        res = interleave_fit(series, seed, InterleaveConfig(max_rounds=40))
        assert res.termination == "iteration-cap" and len(lowered) == 40
        # the solve before the first round, then one after each LM run that lowered E
        assert len(solved) == 1 + sum(lowered)
        assert not any(a == b for a, b in zip(solved, solved[1:]))


class TestInterleaveConfig:
    def test_round_cap_is_the_only_setting(self):
        # each round's LM cap is its adaptive L, and its damping is the LmState
        # that the last round handed over, so the interleave has no LM settings
        assert tuple(f.name for f in dataclasses.fields(InterleaveConfig)) == ("max_rounds",)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True, None, "3"])
    def test_round_cap_must_be_a_positive_integer(self, bad):
        with pytest.raises(ValueError, match="max_rounds"):
            InterleaveConfig(max_rounds=bad)
        InterleaveConfig(max_rounds=np.int64(1))  # any integer type will do

import numpy as np
import pytest

from lpplfit.linear import (
    MAX_L,
    InterleaveConfig,
    interleave_fit,
    solve_linear_subsystem,
    update_L,
)
from lpplfit.model import LpplParams, PriceSeries, evaluate_batch
from lpplfit.solver import LmConfig, lm_fit
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
        assert res.A == pytest.approx(truth.A, rel=1e-10)
        assert res.beta == pytest.approx(truth.B, rel=1e-10)
        assert res.C == pytest.approx(truth.C, rel=1e-10)
        assert res.error < 1e-20

    def test_idempotent(self):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.01, n=800, seed=3)
        series = generate_trace(spec)
        first = solve_linear_subsystem(series, spec.params)
        second = solve_linear_subsystem(series, first.params)
        assert second.status == "ok"
        np.testing.assert_allclose(
            [second.A, second.beta, second.C],
            [first.A, first.beta, first.C],
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
        np.testing.assert_allclose([res.A, res.beta, res.gamma], coef, rtol=1e-9)

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
        np.testing.assert_allclose([a.A, a.beta, a.C], [b.A, b.beta, b.C], rtol=1e-12)


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
        # a --L above the ceiling is clamped on a handover too
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
            "converged", "mu-exhausted", "restart-cap", "iteration-cap"
        )

    def test_not_worse_than_plain_lm(self):
        spec = SynthSpec(params=PRESETS["oscillatory"].params, sigma=0.02, n=800, seed=6)
        series = generate_trace(spec)
        start = LpplParams(*(v * 1.05 for v in spec.params.as_array()))
        plain = lm_fit(series, start, LmConfig(max_iterations=400))
        mixed = interleave_fit(series, start, InterleaveConfig(lm=LmConfig(max_iterations=400)))
        assert mixed.error <= plain.error * (1 + 1e-9)

    def test_fixed_L_mode(self):
        series = noiseless_base(n=400)
        start = LpplParams(*(v * 1.02 for v in PRESETS["base"].params.as_array()))
        res = interleave_fit(series, start, InterleaveConfig(L=3, adaptive_L=False))
        # a hard cap of 3 LM iterations per round converges slowly; just check
        # L stays fixed and the fit still makes substantial progress
        start_error = evaluate_batch(start, series)[0].error
        assert res.error < 1e-3 * start_error

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

        def recording_lm_fit(series, start, config, threads=1):
            caps.append(config.max_iterations)
            return lm_fit(series, start, config, threads)

        monkeypatch.setattr("lpplfit.linear.lm_fit", recording_lm_fit)
        _, _, spec = standard_suite(20260823)[4]
        series = generate_trace(spec)
        interleave_fit(series, exponential_prefit(series).params, InterleaveConfig(max_rounds=3))
        assert caps == [5, 4, 5]

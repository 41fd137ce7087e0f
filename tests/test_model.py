import numpy as np
import pytest

from lpplfit.model import (
    LpplDomainError,
    LpplParams,
    PriceSeries,
    chunk_bounds,
    evaluate_batch,
    lppl_jacobian,
    lppl_jacobian_row,
    lppl_value,
    lppl_values,
)
from lpplfit.synth import PRESETS, SynthSpec, generate_trace


def make_series(n=100, params=None, weights=None):
    params = params or PRESETS["base"].params
    x = np.arange(1, n + 1, dtype=float)
    y = lppl_values(params.replace(T=max(params.T, n * 1.1)), x)
    w = np.ones(n) if weights is None else weights
    return PriceSeries(log_prices=y, weights=w)


class TestLpplValue:
    def test_affine_reduction(self):
        # m=1, C=0 collapses the model to A - B (T - x)
        p = LpplParams(A=5, B=0.02, T=1100, m=1, C=0, omega=1, phi=0)
        assert lppl_value(p, 100) == 5 - 0.02 * 1000
        x = np.linspace(1, 1000, 50)
        np.testing.assert_array_equal(lppl_values(p, x), 5 - 0.02 * (1100 - x))

    def test_unit_distance(self):
        # T - x = 1 makes ln(T-x) = 0 and (T-x)^m = 1
        p = LpplParams(A=5, B=0.02, T=1100, m=0.68, C=0, omega=9, phi=0)
        assert lppl_value(p, 1099) == pytest.approx(4.98)

    def test_domain_error(self):
        p = LpplParams(A=5, B=0.02, T=100, m=0.5, C=0.05, omega=9, phi=0)
        for scalar_path in (lppl_value, lppl_jacobian_row):
            with pytest.raises(LpplDomainError):
                scalar_path(p, 100)
            with pytest.raises(LpplDomainError):
                scalar_path(p, 150)

    def test_scalar_paths_match_vector_paths(self):
        # lppl_value / lppl_jacobian_row run the same kernel on a float, so
        # they give the very bits of lppl_values / lppl_jacobian
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = LpplParams(
                A=rng.uniform(-5, 10),
                B=rng.uniform(1e-3, 1.0),
                T=rng.uniform(1100, 3000),
                m=rng.uniform(0.05, 1.0),
                C=rng.uniform(-0.5, 0.5),
                omega=rng.uniform(0.5, 20),
                phi=rng.uniform(-10, 10),
            )
            xs = rng.uniform(1, 1000, size=10)
            values, J = lppl_values(p, xs), lppl_jacobian(p, xs)
            for k, x in enumerate(xs):
                assert np.array_equal(lppl_value(p, float(x)), values[k])
                assert np.array_equal(lppl_jacobian_row(p, float(x)), J[k])


class TestJacobian:
    def test_dA_is_one(self):
        p = PRESETS["base"].params
        row = lppl_jacobian_row(p, 500.0)
        assert row[0] == 1.0

    def test_no_oscillation_kills_omega_phi(self):
        p = PRESETS["base"].params.replace(C=0.0)
        row = lppl_jacobian_row(p, 500.0)
        assert row[5] == 0.0 and row[6] == 0.0

    @staticmethod
    def finite_difference_row(p, x):
        # Independent central-difference oracle for the analytic partials.
        v = p.as_array()
        out = np.empty(7)
        for idx in range(7):
            h = 1e-6 * max(1.0, abs(v[idx]))
            hi, lo = v.copy(), v.copy()
            hi[idx] += h
            lo[idx] -= h
            out[idx] = (
                lppl_value(LpplParams.from_array(hi), x)
                - lppl_value(LpplParams.from_array(lo), x)
            ) / (2 * h)
        return out

    def test_matches_finite_differences_at_fixed_point(self):
        p = LpplParams(A=5, B=0.02, T=1100, m=0.68, C=0.05, omega=9, phi=0)
        analytic = lppl_jacobian_row(p, 500.0)
        fd = self.finite_difference_row(p, 500.0)
        np.testing.assert_allclose(analytic, fd, rtol=1e-6)

    def test_matches_finite_differences_randomized(self):
        # 100 random parameter vectors x 100 random points. Tolerance is
        # 1e-5; m is kept off the m=1 boundary where the one-sided power
        # makes central differences themselves less accurate.
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = LpplParams(
                A=rng.uniform(-5, 10),
                B=rng.uniform(1e-3, 1.0),
                T=rng.uniform(1100, 3000),
                m=rng.uniform(0.1, 0.95),
                C=rng.uniform(-0.5, 0.5),
                omega=rng.uniform(0.5, 20),
                phi=rng.uniform(-10, 10),
            )
            xs = rng.uniform(1, 1000, size=100)
            J = lppl_jacobian(p, xs)
            fd = np.array([self.finite_difference_row(p, float(x)) for x in xs])
            np.testing.assert_allclose(J, fd, rtol=1e-5, atol=1e-9)


class TestEvaluateBatch:
    def test_thread_count_invariance(self):
        series = make_series(997)
        p = PRESETS["base"].params
        rep1, J1 = evaluate_batch(p, series, threads=1)
        rep8, J8 = evaluate_batch(p, series, threads=8)
        np.testing.assert_array_equal(rep1.residuals, rep8.residuals)
        np.testing.assert_array_equal(J1, J8)
        assert rep1.error == rep8.error
        # the batch evaluator and the public model functions share one kernel
        x = series.indices
        for rep, J in ((rep1, J1), (rep8, J8)):
            assert np.array_equal(J, lppl_jacobian(p, x))
            assert np.array_equal(rep.residuals, lppl_values(p, x) - series.log_prices)
        # residual-only evaluation gives the same residuals and E, and the
        # Jacobian it completes later is the full one, at every thread count
        for threads, rep in ((1, rep1), (8, rep8)):
            lean, complete_jacobian = evaluate_batch(p, series, threads=threads, jacobian=False)
            assert np.array_equal(lean.residuals, rep.residuals)
            assert lean.error == rep.error
            assert np.array_equal(complete_jacobian(), lppl_jacobian(p, x))

    def test_all_zero_weights_zero_error(self):
        n = 50
        series = PriceSeries(log_prices=np.linspace(1, 2, n), weights=np.zeros(n))
        p = LpplParams(A=0, B=1e-9, T=100, m=1, C=0, omega=1, phi=0)
        rep, _ = evaluate_batch(p, series, threads=2)
        assert rep.error == 0.0

    def test_noiseless_self_consistency(self):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.0, n=1000, seed=3)
        series = generate_trace(spec)
        rep, _ = evaluate_batch(spec.params, series, threads=4)
        assert rep.error < 1e-20

    def test_weight_doubling_doubles_error(self):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.01, n=500, seed=3)
        series = generate_trace(spec)
        p = spec.params.replace(A=spec.params.A + 0.1)
        e1 = evaluate_batch(p, series, threads=1)[0].error
        series2 = PriceSeries(log_prices=series.log_prices, weights=2 * series.weights)
        e2 = evaluate_batch(p, series2, threads=1)[0].error
        assert e2 == pytest.approx(2 * e1, rel=1e-14)

    def test_average_error_uses_total_n(self):
        series = make_series(107)
        p = PRESETS["base"].params
        rep, _ = evaluate_batch(p, series)
        assert rep.average_error == pytest.approx(rep.error / 100)

    def test_domain_error_reports_index(self):
        series = make_series(100)
        p = PRESETS["base"].params.replace(T=50.0)
        for jacobian in (True, False):
            with pytest.raises(LpplDomainError):
                evaluate_batch(p, series, jacobian=jacobian)

    def test_t_gap_guard(self):
        series = make_series(100)
        p = PRESETS["base"].params.replace(T=100.0 + 1e-9)
        with pytest.raises(LpplDomainError):
            evaluate_batch(p, series)


class TestChunkBounds:
    def test_partition_covers_range(self):
        for n in (1, 7, 100, 1001):
            for threads in (1, 2, 3, 8, 200):
                bounds = chunk_bounds(n, threads)
                assert bounds[0][0] == 0 and bounds[-1][1] == n
                for (a, b), (c, d) in zip(bounds, bounds[1:]):
                    assert b == c and a < b

    def test_more_threads_than_points(self):
        assert len(chunk_bounds(3, 16)) == 3


class TestPriceSeries:
    def test_fit_needs_eight_weighted_points(self):
        s = PriceSeries(log_prices=np.ones(10), weights=np.r_[np.ones(7), np.zeros(3)])
        with pytest.raises(ValueError):
            s.require_fit_ready()

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            PriceSeries(log_prices=np.ones(10), weights=-np.ones(10))


class TestLpplParams:
    def test_validate_box(self):
        p = PRESETS["base"].params
        p.validate(1000)
        with pytest.raises(ValueError):
            p.replace(B=0.0).validate(1000)
        with pytest.raises(ValueError):
            p.replace(m=1.5).validate(1000)
        with pytest.raises(LpplDomainError):
            p.validate(1100)

    def test_array_round_trip(self):
        p = PRESETS["oscillatory"].params
        assert LpplParams.from_array(p.as_array()) == p

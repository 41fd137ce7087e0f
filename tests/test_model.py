import multiprocessing
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lpplfit import model
from lpplfit.model import (
    B_MIN,
    BLOCK,
    M_MAX,
    M_MIN,
    LpplDomainError,
    LpplParams,
    PriceSeries,
    block_bounds,
    box,
    evaluate_batch,
    lppl_jacobian,
    lppl_jacobian_row,
    lppl_value,
    lppl_values,
)
from lpplfit.solver import lm_fit
from lpplfit.synth import PRESETS, SynthSpec, generate_trace

# Lengths that end inside, on and just past a block edge, and span three blocks.
EDGE_LENGTHS = (997, BLOCK, BLOCK + 1, 2 * BLOCK + 3)


def noisy_trace(n):
    """A base-preset trace of n points with T = 1.1 n, and its generating spec."""
    base = PRESETS["base"]
    spec = SynthSpec(params=base.params.replace(T=1.1 * n), sigma=base.sigma, n=n, seed=5)
    return spec, generate_trace(spec)


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
        # the blocks depend on n alone and E is summed over the whole vector,
        # so no thread count can move a bit, on either side of a block edge
        for n in EDGE_LENGTHS:
            spec, series = noisy_trace(n)
            p, x = spec.params, series.indices
            rep1, J1 = evaluate_batch(p, series, threads=1)
            # the batch evaluator and the public model functions share one kernel
            assert np.array_equal(J1, lppl_jacobian(p, x))
            assert np.array_equal(rep1.residuals, lppl_values(p, x) - series.log_prices)
            for threads in (1, 2, 3, 8):
                rep, J = evaluate_batch(p, series, threads=threads)
                assert np.array_equal(rep.residuals, rep1.residuals)
                assert rep.error == rep1.error
                assert np.array_equal(J, J1)
                # residual-only evaluation gives the same residuals and E, and
                # the Jacobian it completes later is the full one
                lean, complete_jacobian = evaluate_batch(p, series, threads=threads,
                                                         jacobian=False)
                assert np.array_equal(lean.residuals, rep1.residuals)
                assert lean.error == rep1.error
                assert np.array_equal(complete_jacobian(), J1)
        # and so a fit over three blocks takes the very same steps
        spec, series = noisy_trace(2 * BLOCK + 3)
        start = spec.params.replace(A=spec.params.A * 1.01, m=0.6)
        serial, pooled = (lm_fit(series, start, 5, threads)
                          for threads in (1, 3))
        assert len(serial.error_history) > 1
        assert serial.params == pooled.params
        assert serial.error == pooled.error
        assert serial.error_history == pooled.error_history

    def test_residual_only_result_holds_five_arrays(self):
        # the residuals plus, per block, the four intermediates the partials
        # stage needs (T - x, ln(T - x), (T - x)^m, cos theta), not seven
        spec, series = noisy_trace(2 * BLOCK + 3)
        series.indices  # cached on first use, outside the evaluation
        tracemalloc.start()
        try:
            held = evaluate_batch(spec.params, series, jacobian=False)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size < 6 * 8 * series.n
        assert held[0].residuals.shape == (series.n,)

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


@pytest.fixture
def counted_pools(monkeypatch):
    """The max_workers of every evaluation pool built while the test runs."""
    constructed = []

    class CountingExecutor(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            constructed.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(model, "ThreadPoolExecutor", CountingExecutor)
    model._pool.cache_clear()
    yield constructed
    model._pool.cache_clear()  # no later test gets the counting pool


class TestEvaluationPool:
    def test_one_pool_for_all_calls(self, counted_pools):
        spec, series = noisy_trace(2 * BLOCK + 3)
        for jacobian in (True, False):
            for _ in range(10):
                evaluate_batch(spec.params, series, threads=2, jacobian=jacobian)
        assert counted_pools == [2]

    def test_short_series_builds_no_pool(self, counted_pools):
        # one block runs inline whatever the thread count
        spec, series = noisy_trace(1000)
        for jacobian in (True, False):
            evaluate_batch(spec.params, series, threads=2, jacobian=jacobian)
        assert counted_pools == []

    def test_pool_never_outnumbers_blocks(self, counted_pools):
        spec, series = noisy_trace(2 * BLOCK + 3)
        evaluate_batch(spec.params, series, threads=64)
        assert counted_pools == [3]

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_forked_child_evaluates_in_parallel(self):
        # the parent's pool threads do not exist in a forked child; a pool
        # reused from the parent would leave the child waiting forever
        spec, series = noisy_trace(2 * BLOCK + 3)
        evaluate_batch(spec.params, series, threads=2)
        child = multiprocessing.get_context("fork").Process(
            target=evaluate_batch, args=(spec.params, series, 2))
        child.start()
        child.join(timeout=30)
        try:
            assert not child.is_alive()
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()


class TestBlockBounds:
    LENGTHS = (1, 7, 1000, BLOCK - 1, *EDGE_LENGTHS, 10 * BLOCK)

    def test_partition_covers_range(self):
        for n in self.LENGTHS:
            bounds = block_bounds(n)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            for (a, b), (c, d) in zip(bounds, bounds[1:]):
                assert b == c and a < b

    def test_blocks_are_full_but_the_last(self):
        for n in self.LENGTHS:
            sizes = [hi - lo for lo, hi in block_bounds(n)]
            assert set(sizes[:-1]) <= {BLOCK}
            assert 0 < sizes[-1] <= BLOCK

    def test_short_series_is_one_block(self):
        for n in (1, 3, 1000, 10_000, BLOCK):
            assert block_bounds(n) == ((0, n),)


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
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                p.replace(omega=bad).validate(1000)
        with pytest.raises(LpplDomainError):
            p.validate(1100)

        # validate(n) accepts a finite point exactly when clipping it to box(n)
        # leaves it unchanged: each bound, the float just outside and just
        # inside it, half the lower bounds, and a seeded sample around them.
        # n = 9 and 1000 take the nextafter guard of the T floor, n = 300 not.
        rng = np.random.default_rng(20261019)
        for n in (9, 300, 1000):
            lo, hi = box(n)
            edges = {1: [B_MIN, B_MIN / 2], 2: [lo[2]], 3: [M_MIN, M_MAX, M_MIN / 2]}
            points = []
            for k, values in edges.items():
                for edge in values:
                    for value in (edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)):
                        v = p.as_array()
                        v[k] = value
                        points.append(v)
            for _ in range(2000):
                v = p.as_array()
                v[0], v[4], v[5], v[6] = rng.normal(0.0, 10.0, 4)
                v[1] = B_MIN * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 2)
                v[2] = lo[2] + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-20, 0)
                v[3] = rng.choice([M_MIN, M_MAX]) + rng.normal(0.0, rng.choice([1e-7, 1e-16]))
                points.append(v)
            assert len({tuple(np.clip(v, lo, hi) == v) for v in points}) > 4
            for v in points:
                inside = np.array_equal(np.clip(v, lo, hi), v)
                try:
                    LpplParams.from_array(v).validate(n)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == inside, (n, v)

    def test_array_round_trip(self):
        p = PRESETS["oscillatory"].params
        assert LpplParams.from_array(p.as_array()) == p

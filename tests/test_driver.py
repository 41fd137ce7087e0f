import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lpplfit import driver, seeds
from lpplfit.driver import (
    AllFitsFailed,
    ClassifyThresholds,
    bench_command,
    build_seed_set,
    classify,
    fit_command,
    report_to_dict,
    report_to_json,
)
from lpplfit.model import LpplParams, PriceSeries
from lpplfit.solver import FitResult, lm_fit
from lpplfit.linear import InterleaveConfig
from lpplfit.synth import PRESETS, SynthSpec, generate_log_prices, generate_trace, standard_suite
from lpplfit.weights import WeightScheme, build_weights


def fake_fit(params, average_error=1e-4):
    return FitResult(
        params=params, error=average_error * 993, average_error=average_error,
        termination="converged", iterations=10, restarts=0, wall_time=0.0,
    )


BUBBLE = LpplParams(A=5, B=0.02, T=1100, m=0.68, C=0.05, omega=9, phi=0)


class TestClassify:
    def test_clean_bubble(self):
        v = classify(fake_fit(BUBBLE), baseline_error=1e-3)
        assert v.label == "lppl-bubble"

    def test_high_m_is_exponential(self):
        v = classify(fake_fit(BUBBLE.replace(m=0.97)), baseline_error=1e-3)
        assert v.label == "non-lppl"
        assert any("m =" in r for r in v.reasons)

    def test_low_omega(self):
        v = classify(fake_fit(BUBBLE.replace(omega=1.0)), baseline_error=1e-3)
        assert v.label == "non-lppl"

    def test_omega_sign_ignored(self):
        assert classify(fake_fit(BUBBLE.replace(omega=-9)), 1e-3).label == "lppl-bubble"

    def test_negligible_amplitude(self):
        v = classify(fake_fit(BUBBLE.replace(C=0.001)), baseline_error=1e-3)
        assert v.label == "non-lppl"

    def test_weak_error_reduction(self):
        v = classify(fake_fit(BUBBLE, average_error=0.95e-3), baseline_error=1e-3)
        assert v.label == "non-lppl"
        assert any("reduction" in r for r in v.reasons)

    def test_reduction_boundary(self):
        # exactly 10% reduction passes; just under fails
        assert classify(fake_fit(BUBBLE, 0.9e-3), 1e-3).label == "lppl-bubble"
        assert classify(fake_fit(BUBBLE, 0.901e-3), 1e-3).label == "non-lppl"

    def test_custom_thresholds(self):
        t = ClassifyThresholds(m_hi=0.5)
        assert classify(fake_fit(BUBBLE), 1e-3, t).label == "non-lppl"


class TestBuildSeedSet:
    def base_series(self, sigma=0.005, seed=1):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=sigma, n=1000, seed=seed)
        return generate_trace(spec)

    def test_exponential_always_first(self):
        seeds = build_seed_set(self.base_series())
        assert seeds[0].provenance == "exponential"

    def test_manual_triples_included(self):
        seeds = build_seed_set(
            self.base_series(),
            manual_triples=[(342, 723, 912, "peak")],
        )
        assert any(s.provenance == "triple(342,723,912,peak)" for s in seeds)

    def test_bad_manual_triple_skipped(self):
        seeds = build_seed_set(
            self.base_series(),
            manual_triples=[(100, 300, 400, "peak")],  # implied T inside the series
        )
        assert len(seeds) == 1

    def test_auto_detection_finds_triples_on_bubble(self):
        seeds = build_seed_set(self.base_series(), auto_triples=8)
        assert len(seeds) > 1

    def test_no_duplicate_triples(self):
        seeds = build_seed_set(
            self.base_series(),
            manual_triples=[(342, 723, 912, "peak"), (342, 723, 912, "peak")],
        )
        provs = [s.provenance for s in seeds]
        assert len(provs) == len(set(provs))

    def test_one_ladder_and_one_prefit_for_the_scans(self, monkeypatch):
        # propose_triples fits the pre-fit regression once for its three
        # detrended scans; every other pre-fit call makes a seed
        calls = {"propose_triples": 0, "exponential_prefit": 0}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(driver, "propose_triples", counted(seeds.propose_triples))
        prefit = counted(seeds.exponential_prefit)
        monkeypatch.setattr(driver, "exponential_prefit", prefit)
        monkeypatch.setattr(seeds, "exponential_prefit", prefit)
        _, _, spec = standard_suite(20260823)[0]  # frozen base#0
        found = build_seed_set(generate_trace(spec), auto_triples=8)
        assert len(found) > 1
        assert calls == {"propose_triples": 1, "exponential_prefit": len(found) + 1}

    @pytest.mark.parametrize("log_prices", [
        np.linspace(0.0, 1.0, 200),
        np.linspace(0.0, 1.0, 1000),
        5.0 + 0.005 * np.arange(1, 1001),
    ], ids=["linspace-200", "linspace-1000", "line-1000"])
    def test_exact_exponential_gets_no_triple_seeds(self, log_prices):
        # the pre-fit is exact to rounding, so the detrended scans would read
        # rounding noise: only the exponential seed is left
        series = PriceSeries(log_prices=log_prices, weights=np.ones(log_prices.shape[0]))
        assert len(build_seed_set(series, auto_triples=8)) == 1

    def test_frozen_suite_seed_sets_are_pinned(self):
        # every seed, bit for bit and in order, over the frozen suite under
        # two weight schemes: any change to the scans, the pre-fit or the
        # triple geometry moves this digest
        digest = hashlib.sha256()
        for _, _, spec in standard_suite(20260823):
            lp = generate_log_prices(spec)
            for scheme in (WeightScheme.uniform(), WeightScheme.quadratic(100)):
                series = PriceSeries(log_prices=lp, weights=build_weights(scheme, spec.n))
                for init in build_seed_set(series, auto_triples=8):
                    digest.update(init.provenance.encode())
                    digest.update(init.params.as_array().tobytes())
        assert digest.hexdigest() == (
            "e15ac789b39e68ccda7feb58e5169269aca1e3868eee358a395c1434d1412b2f")

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.integers(8, 3000), shape=st.sampled_from(["walk", "flat", "falling", "tiny"]),
           seed=st.integers(0, 2**32 - 1))
    @example(n=200, shape="tiny", seed=0)
    @example(n=8, shape="flat", seed=0)
    def test_every_seed_is_in_the_box(self, n, shape, seed):
        rng = np.random.default_rng(seed)
        i = np.arange(1, n + 1)
        walk = np.cumsum(rng.normal(0.0, rng.choice([1e-4, 0.01, 0.1]), n))
        y = 5.0 + {"walk": walk, "flat": 0.0 * i, "falling": walk - 1e-3 * i,
                   "tiny": 1e-13 * i}[shape]
        series = PriceSeries(log_prices=y, weights=np.ones(n))
        for init in build_seed_set(series, manual_triples=[(1, n // 2, n - n // 8, "peak")],
                                   auto_triples=8, extremum_half_width=int(rng.integers(1, 40))):
            init.params.validate(n)


def quick_config():
    return InterleaveConfig(max_rounds=30)


@pytest.fixture(scope="module")
def prices():
    spec = SynthSpec(params=PRESETS["base"].params, sigma=0.005, n=1000, seed=1)
    return generate_log_prices(spec)


class TestFitCommand:
    def test_bubble_detected(self, prices):
        report = fit_command(prices, [WeightScheme.uniform()], config=quick_config())
        assert report.verdict.label == "lppl-bubble"
        assert report.best.result.average_error <= report.fits[-1].result.average_error
        assert report.best.result.params.T > 1000

    def test_ranking_is_sorted(self, prices):
        report = fit_command(
            prices, [WeightScheme.uniform(), WeightScheme.quadratic(100)],
            config=quick_config(),
        )
        errs = [rf.result.average_error for rf in report.fits]
        assert errs == sorted(errs)

    def test_jobs_do_not_change_results(self, prices):
        a = fit_command(prices, [WeightScheme.uniform()], config=quick_config(), jobs=1)
        b = fit_command(prices, [WeightScheme.uniform()], config=quick_config(), jobs=4)
        assert report_to_json(a) == report_to_json(b)

    @pytest.mark.parametrize("index", [0, 5], ids=["base#0", "oscillatory#0"])
    def test_threads_do_not_change_report(self, index):
        # the evaluation blocks depend on n alone and E is summed once over
        # the whole residual vector, so --threads cannot move a bit of any
        # fit (test_model checks the same across block edges)
        _, _, spec = standard_suite(20260823)[index]
        lp = generate_log_prices(spec)
        one, three = (report_to_json(fit_command(lp, [WeightScheme.uniform()],
                                                 auto_triples=2, threads=threads))
                      for threads in (1, 3))
        assert one == three

    def test_report_json_deterministic(self, prices):
        a = fit_command(prices, [WeightScheme.uniform()], config=quick_config())
        b = fit_command(prices, [WeightScheme.uniform()], config=quick_config())
        assert report_to_json(a).encode() == report_to_json(b).encode()

    def test_report_shape(self, prices):
        report = fit_command(prices, [WeightScheme.uniform()], config=quick_config())
        d = report_to_dict(report)
        assert d["schema_version"] == 1
        assert d["n"] == 1000
        assert set(d["best"]["params"]) == {"A", "B", "T", "m", "C", "omega", "phi"}
        assert "timings" not in d
        json.loads(report_to_json(report))  # round-trips as valid JSON

    def test_timings_opt_in(self, prices):
        report = fit_command(prices, [WeightScheme.uniform()],
                             config=quick_config(), collect_timings=True)
        d = report_to_dict(report)
        assert d["timings"] and all("wall_time" in row for row in d["timings"])

    def test_plain_lm_task_is_lm_fit_at_its_defaults(self, prices):
        # with the interleave off, `config` is not read: each task is one
        # lm_fit from its seed at MAX_ITERATIONS
        series = PriceSeries(prices, build_weights(WeightScheme.uniform(), prices.size))
        report = fit_command(prices, [WeightScheme.uniform()], auto_triples=2,
                             interleave=False, config=InterleaveConfig(max_rounds=1))
        assert len(report.fits) > 1
        for rf in report.fits:
            plain = lm_fit(series, rf.seed.params)
            assert (rf.result.error, rf.result.iterations) == (plain.error, plain.iterations)

    def test_exponential_trace_not_a_bubble(self):
        spec = SynthSpec(params=PRESETS["exponential"].params, sigma=0.05, n=1000, seed=2)
        report = fit_command(generate_log_prices(spec), [WeightScheme.uniform()],
                             config=quick_config())
        assert report.verdict.label == "non-lppl"

    def test_tiny_positive_slope_gets_a_report(self):
        # the slope 1e-13 is below the box's B floor; the exponential seed,
        # which is also the baseline, must still be a valid point
        report = fit_command(5 + 1e-13 * np.arange(1, 201), [WeightScheme.uniform()],
                             auto_triples=0)
        assert report.fits and report.baseline_average_error >= 0

    def test_all_failures_raise(self):
        # five points cannot be fitted under any scheme, so the run raises
        # (a ValueError, before it builds a seed or runs a task)
        flat = np.zeros(20)
        with pytest.raises((AllFitsFailed, ValueError)):
            fit_command(flat[:5], [WeightScheme.uniform()])


class TestBench:
    def test_rows_and_speedup_baseline(self):
        rows = bench_command(n=2000, thread_counts=(1, 2), repetitions=2)
        assert [r["threads"] for r in rows] == [1, 2]
        assert rows[0]["speedup"] == pytest.approx(1.0)
        assert all(r["evaluate_median_s"] > 0 and r["lm_fit_10iter_s"] > 0 for r in rows)

    def test_n_floor(self):
        with pytest.raises(ValueError):
            bench_command(n=10)

import json

import numpy as np
import pytest

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
from lpplfit.model import LpplParams
from lpplfit.solver import FitResult, LmConfig
from lpplfit.linear import InterleaveConfig
from lpplfit.synth import PRESETS, SynthSpec, generate_log_prices, standard_suite
from lpplfit.weights import WeightScheme


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
    def base_prices(self, sigma=0.005, seed=1):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=sigma, n=1000, seed=seed)
        return generate_log_prices(spec)

    def test_exponential_always_first(self):
        seeds = build_seed_set(self.base_prices(), WeightScheme.uniform())
        assert seeds[0].provenance == "exponential"

    def test_manual_triples_included(self):
        seeds = build_seed_set(
            self.base_prices(), WeightScheme.uniform(),
            manual_triples=[(342, 723, 912, "peak")],
        )
        assert any(s.provenance == "triple(342,723,912,peak)" for s in seeds)

    def test_bad_manual_triple_skipped(self):
        seeds = build_seed_set(
            self.base_prices(), WeightScheme.uniform(),
            manual_triples=[(100, 300, 400, "peak")],  # implied T inside the series
        )
        assert len(seeds) == 1

    def test_auto_detection_finds_triples_on_bubble(self):
        seeds = build_seed_set(self.base_prices(), WeightScheme.uniform(), auto_triples=8)
        assert len(seeds) > 1

    def test_no_duplicate_triples(self):
        seeds = build_seed_set(
            self.base_prices(), WeightScheme.uniform(),
            manual_triples=[(342, 723, 912, "peak"), (342, 723, 912, "peak")],
        )
        provs = [s.provenance for s in seeds]
        assert len(provs) == len(set(provs))


def quick_config():
    return InterleaveConfig(lm=LmConfig(max_iterations=60), max_rounds=30)


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
        # E is summed once over the whole residual vector, so the chunking
        # that --threads sets cannot move a bit of any fit
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

    def test_exponential_trace_not_a_bubble(self):
        spec = SynthSpec(params=PRESETS["exponential"].params, sigma=0.05, n=1000, seed=2)
        report = fit_command(generate_log_prices(spec), [WeightScheme.uniform()],
                             config=quick_config())
        assert report.verdict.label == "non-lppl"

    def test_all_failures_raise(self):
        # a constant series defeats every seed constructor downstream of the
        # exponential pre-fit, whose regression needs index variance
        flat = np.zeros(20)
        with pytest.raises((AllFitsFailed, ValueError)):
            fit_command(flat[:5], [WeightScheme.uniform()])


class TestBench:
    def test_rows_and_speedup_baseline(self):
        rows = bench_command(n=2000, thread_counts=(1, 2), repetitions=2,
                             include_fit=False)
        assert [r["threads"] for r in rows] == [1, 2]
        assert rows[0]["speedup"] == pytest.approx(1.0)
        assert all(r["evaluate_median_s"] > 0 for r in rows)

    def test_n_floor(self):
        with pytest.raises(ValueError):
            bench_command(n=10)

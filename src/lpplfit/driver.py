"""Multi-start orchestration, bubble classification, report emission, benchmarking.

Builds one seed set per distinct weight scheme, runs every (seed x scheme)
combination as an independent task in a thread pool (`jobs` concurrent fits,
each internally parallel over `threads` evaluation workers), ranks results by
average error, and classifies the best fit against the exponential null
hypothesis (the best scheme's exponential seed).
"""

from __future__ import annotations

import json
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .linear import InterleaveConfig, interleave_fit
from .model import LpplParams, PriceSeries, evaluate_batch, lppl_values
from .seeds import (DEFAULT_EXTREMUM_HALF_WIDTH, InitSeed, SeedRejected, exponential_prefit,
                    propose_triples, triple_to_seed)
from .solver import FitResult, lm_fit
from .synth import PRESETS, SynthSpec, generate_trace
from .weights import WeightScheme, build_weights

REPORT_SCHEMA_VERSION = 1
DEFAULT_AUTO_TRIPLES = 8


@dataclass(frozen=True)
class ClassifyThresholds:
    """Verdict cutoffs; m ~ 1 or omega ~ 1 or a weak error reduction means no bubble."""

    m_hi: float = 0.95
    omega_lo: float = 1.5
    c_lo: float = 0.01
    min_reduction: float = 0.10


@dataclass(frozen=True)
class Verdict:
    label: str  # lppl-bubble | non-lppl
    reasons: Tuple[str, ...]


def classify(
    best: FitResult,
    baseline_error: float,
    thresholds: ClassifyThresholds = ClassifyThresholds(),
) -> Verdict:
    """Bubble vs non-bubble from the best fit and the exponential pre-fit error.

    Both errors must be on the same scale (average error is used throughout).
    omega is compared by magnitude since the fit may converge to the
    sign-flipped oscillation.
    """
    reasons = []
    if best.params.m >= thresholds.m_hi:
        reasons.append(f"m = {best.params.m:.4g} >= {thresholds.m_hi} (nearly exponential)")
    if abs(best.params.omega) <= thresholds.omega_lo:
        reasons.append(
            f"|omega| = {abs(best.params.omega):.4g} <= {thresholds.omega_lo} (oscillations absent)"
        )
    if abs(best.params.C) <= thresholds.c_lo:
        # Same degeneracy as small omega seen from the other side: when the
        # fitted oscillation amplitude is negligible, omega is unidentified
        # and may sit anywhere, but the fit is effectively super-exponential.
        reasons.append(
            f"|C| = {abs(best.params.C):.4g} <= {thresholds.c_lo} (oscillations absent)"
        )
    if baseline_error > 0:
        reduction = (baseline_error - best.average_error) / baseline_error
        if reduction < thresholds.min_reduction:
            reasons.append(
                f"error reduction {reduction:.1%} vs exponential baseline "
                f"< {thresholds.min_reduction:.0%}"
            )
    if reasons:
        return Verdict(label="non-lppl", reasons=tuple(reasons))
    return Verdict(label="lppl-bubble", reasons=("m, omega, and error reduction all pass",))


@dataclass
class RankedFit:
    seed: InitSeed
    scheme: WeightScheme
    result: FitResult


@dataclass
class RunReport:
    best: RankedFit
    fits: List[RankedFit]
    verdict: Verdict
    baseline_average_error: float
    thresholds: ClassifyThresholds
    n: int
    timings: Optional[List[dict]] = None
    failures: List[str] = field(default_factory=list)


class AllFitsFailed(RuntimeError):
    def __init__(self, failures: Sequence[str]):
        super().__init__("every fit task failed:\n" + "\n".join(failures))
        self.failures = list(failures)


def build_seed_set(
    series: PriceSeries,
    manual_triples: Sequence[Tuple[int, int, int, str]] = (),
    auto_triples: int = 0,
    extremum_half_width: int = DEFAULT_EXTREMUM_HALF_WIDTH,
) -> List[InitSeed]:
    """Exponential seed (always) plus manual and auto-detected triple seeds."""
    seeds = [exponential_prefit(series)]
    triples = list(manual_triples)
    if auto_triples > 0:
        triples += propose_triples(series, half_width=extremum_half_width,
                                   max_triples=auto_triples)
    for (i, j, k, kind) in dict.fromkeys(map(tuple, triples)):  # first of each, in order
        try:
            seeds.append(triple_to_seed(i, j, k, kind, series))
        except SeedRejected:
            continue
    return seeds


def fit_command(
    log_prices: np.ndarray,
    schemes: Sequence[WeightScheme],
    manual_triples: Sequence[Tuple[int, int, int, str]] = (),
    auto_triples: int = DEFAULT_AUTO_TRIPLES,
    extremum_half_width: int = DEFAULT_EXTREMUM_HALF_WIDTH,
    interleave: bool = True,
    config: InterleaveConfig = InterleaveConfig(),
    jobs: int = 1,
    threads: int = 1,
    thresholds: ClassifyThresholds = ClassifyThresholds(),
    collect_timings: bool = False,
) -> RunReport:
    """Fit every (seed x distinct scheme) combination and rank by average error.

    A repeated scheme is fitted once. Each scheme's series is built and
    checked for fit readiness before any seed is built, so a scheme that
    cannot be fitted is a ValueError for the whole run. Each task is
    deterministic, so running them across `jobs` workers cannot change any
    individual result, only wall time. Rank ties break by task order so
    reports are stable. The baseline is the best scheme's exponential seed.
    `config` configures the interleave alone: with `interleave=False` each
    task is one `lm_fit` of at most `solver.MAX_ITERATIONS` (200) iterations.
    """
    n = log_prices.shape[0]
    series_of = {scheme: PriceSeries(log_prices=log_prices, weights=build_weights(scheme, n))
                 for scheme in schemes}
    for series in series_of.values():
        series.require_fit_ready()
    seeds_of = {scheme: build_seed_set(series, manual_triples, auto_triples, extremum_half_width)
                for scheme, series in series_of.items()}
    tasks = [(seed, scheme) for scheme, seeds in seeds_of.items() for seed in seeds]

    def run(task: Tuple[InitSeed, WeightScheme]):
        seed, scheme = task
        try:
            if interleave:
                return interleave_fit(series_of[scheme], seed.params, config, threads)
            return lm_fit(series_of[scheme], seed.params, threads=threads)
        except Exception as exc:
            return exc

    failures: List[str] = []
    if jobs <= 1:
        raw = [run(t) for t in tasks]
    else:
        # Not the model's evaluation pool: a task running on one of its
        # workers would wait on block work queued behind itself.
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(run, tasks))

    fits: List[RankedFit] = []
    timings: List[dict] = []
    for (seed, scheme), result in zip(tasks, raw):
        if isinstance(result, Exception):
            failures.append(f"{seed.provenance} / {scheme.label()}: {result}")
            continue
        fits.append(RankedFit(seed=seed, scheme=scheme, result=result))
        timings.append({
            "seed": seed.provenance,
            "weights": scheme.label(),
            "wall_time": result.wall_time,
            "iterations": result.iterations,
        })
    if not fits:
        raise AllFitsFailed(failures or ["no fit produced a result"])

    order = sorted(range(len(fits)), key=lambda idx: (fits[idx].result.average_error, idx))
    fits = [fits[idx] for idx in order]
    best = fits[0]

    # Self-consistency: the reported error must be reproducible from the
    # reported parameters against the reported data and weights.
    series = series_of[best.scheme]
    recheck, _ = evaluate_batch(best.result.params, series, threads, jacobian=False)
    if not np.isclose(recheck.error, best.result.error, rtol=1e-9, atol=1e-12):
        raise RuntimeError(
            f"best-fit error {best.result.error} not reproducible "
            f"(re-evaluation gives {recheck.error})"
        )

    baseline = seeds_of[best.scheme][0]
    baseline_report, _ = evaluate_batch(baseline.params, series, threads, jacobian=False)

    verdict = classify(best.result, baseline_report.average_error, thresholds)
    return RunReport(
        best=best,
        fits=fits,
        verdict=verdict,
        baseline_average_error=baseline_report.average_error,
        thresholds=thresholds,
        n=n,
        timings=timings if collect_timings else None,
        failures=failures,
    )


def report_to_dict(report: RunReport) -> dict:
    """JSON-ready report; timing data is included only when collected.

    Wall-clock fields are excluded from the per-fit records so that identical
    runs serialize byte-identically.
    """
    def fit_record(rf: RankedFit) -> dict:
        return {
            "seed": rf.seed.provenance,
            "weights": rf.scheme.label(),
            "params": rf.result.params.to_dict(),
            "error": rf.result.error,
            "average_error": rf.result.average_error,
            "termination": rf.result.termination,
            "iterations": rf.result.iterations,
            "restarts": rf.result.restarts,
        }

    out = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "n": report.n,
        "best": fit_record(report.best),
        "fits": [fit_record(rf) for rf in report.fits],
        "verdict": {"label": report.verdict.label, "reasons": list(report.verdict.reasons)},
        "baseline_average_error": report.baseline_average_error,
        "thresholds": asdict(report.thresholds),
        "failures": report.failures,
    }
    if report.timings is not None:
        out["timings"] = report.timings
    return out


def report_to_json(report: RunReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


def write_plot_csv(path, log_prices: np.ndarray, best_params: LpplParams) -> None:
    """`index,log_price,fit` CSV for external plotting."""
    x = np.arange(1, log_prices.shape[0] + 1, dtype=float)
    fit = lppl_values(best_params, x)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,log_price,fit\n")
        for i, (lp, fv) in enumerate(zip(log_prices, fit), start=1):
            fh.write(f"{i},{float(lp)!r},{float(fv)!r}\n")


def bench_command(
    n: int = 100_000,
    thread_counts: Sequence[int] = (1, 2, 4, 8),
    repetitions: int = 5,
) -> List[dict]:
    """Median evaluate_batch wall time per thread count on a synthetic trace.

    Speedup is relative to threads = 1 (first entry if 1 is absent). One
    short lm_fit is timed per thread count as an end-to-end sample.
    """
    if n < 1000:
        raise ValueError("benchmark needs n >= 1000")
    if repetitions < 1:
        raise ValueError(f"repetitions (--reps) must be >= 1, got {repetitions}")
    base = PRESETS["base"]
    spec = SynthSpec(params=base.params.replace(T=float(n) * 1.1), sigma=base.sigma,
                     n=n, seed=12345)
    series = generate_trace(spec)
    start = spec.params.replace(A=spec.params.A * 1.01, m=0.6)

    rows = []
    for threads in thread_counts:
        times = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            evaluate_batch(spec.params, series, threads)
            times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        lm_fit(series, start, 10, threads)
        rows.append({"threads": threads, "evaluate_median_s": statistics.median(times),
                     "lm_fit_10iter_s": time.perf_counter() - t0})
    baseline = next((r for r in rows if r["threads"] == 1), rows[0])
    for row in rows:
        row["speedup"] = baseline["evaluate_median_s"] / row["evaluate_median_s"]
    return rows

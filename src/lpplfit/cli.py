"""Command-line interface: fit, synth, bench, and classify subcommands.

Exit codes: 0 success, 2 input error, 3 all fits failed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from pathlib import Path

from .driver import (
    REPORT_SCHEMA_VERSION,
    AllFitsFailed,
    ClassifyThresholds,
    bench_command,
    classify,
    fit_command,
    report_to_json,
    write_plot_csv,
)
from .ingest import IngestError, load_csv, to_series
from .linear import InterleaveConfig
from .model import PARAM_NAMES, LpplParams
from .solver import FitResult, LmConfig
from .synth import PRESETS, SynthSpec, write_trace
from .weights import parse_scheme

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ALL_FAILED = 3


def _parse_triple(text: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(f"expected i,j,k[,peak|trough], got {text!r}")
    try:
        i, j, k = (int(p) for p in parts[:3])
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer triple indices in {text!r}")
    kind = parts[3] if len(parts) == 4 else "peak"
    if kind not in ("peak", "trough"):
        raise argparse.ArgumentTypeError(f"triple kind must be peak or trough, got {kind!r}")
    return (i, j, k, kind)


def _on_off(text: str) -> bool:
    if text not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"expected on|off, got {text!r}")
    return text == "on"


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _load_json(path):
    """Parse a JSON file; NaN, Infinity and numbers that overflow a float are input errors.

    Python's json accepts all three, and a NaN compares false against every
    threshold, so it would pass the checks it meets silently.
    """
    def finite(text, convert=float):
        if not math.isfinite(float(text)):
            raise IngestError(f"{path}: non-finite number {text} in JSON")
        return convert(text)

    with open(path) as fh:
        return json.load(fh, parse_float=finite, parse_constant=finite,
                         parse_int=lambda text: finite(text, int))


def _lm_config_from(args) -> LmConfig:
    kwargs = {}
    if args.config:
        loaded = _load_json(args.config)
        if not isinstance(loaded, dict):
            raise IngestError(f"solver config {args.config} must be a JSON object")
        defaults = LmConfig()
        valid = {f.name for f in dataclasses.fields(LmConfig)}
        unknown = set(loaded) - valid
        if unknown:
            raise IngestError(f"unknown solver config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            # an int field takes an int; a float field takes an int or a float
            want = int if isinstance(getattr(defaults, key), int) else (int, float)
            if isinstance(value, bool) or not isinstance(value, want):
                raise IngestError(f"solver config key {key!r} has the wrong type: {value!r}")
        kwargs.update(loaded)
    if args.max_iter is not None:
        kwargs["max_iterations"] = args.max_iter
    return LmConfig(**kwargs)


def _add_threshold_flags(p):
    p.add_argument("--m-hi", type=_finite_float, default=0.95)
    p.add_argument("--omega-lo", type=_finite_float, default=1.5)
    p.add_argument("--c-lo", type=_finite_float, default=0.01)
    p.add_argument("--min-reduction", type=_finite_float, default=0.10)


def _add_parallel_flags(p):
    p.add_argument("--jobs", type=int, default=1,
                   help="concurrent fit tasks (0 or less: one per CPU)")
    p.add_argument("--threads", type=int, default=1,
                   help="evaluation workers per fit (0 or less: 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lpplfit",
                                     description="LPPL bubble fitting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="multi-start LPPL fit of a price CSV")
    fit.add_argument("data", help="input CSV of closing prices")
    fit.add_argument("--column", default="close",
                     help="close column, by header name or 0-based position")
    fit.add_argument("--weights", action="append", default=None, metavar="SCHEME",
                     help="uniform | step:s,t | quad:W (repeatable)")
    fit.add_argument("--triple", action="append", type=_parse_triple, default=[],
                     metavar="i,j,k[,KIND]", help="manual extremum triple seed (repeatable)")
    fit.add_argument("--auto-triples", type=int, default=8,
                     help="max auto-detected triple seeds (0 disables)")
    fit.add_argument("--extremum-window", type=int, default=10,
                     help="half-width of the extremum detection window")
    fit.add_argument("--interleave", type=_on_off, default=True, metavar="on|off")
    fit.add_argument("--L", type=int, default=5, help="LM iteration bound per interleave round")
    fit.add_argument("--adaptive-L", type=_on_off, default=True, metavar="on|off")
    fit.add_argument("--max-iter", type=int, default=None, help="LM iteration cap per invocation")
    fit.add_argument("--config", default=None, help="JSON file with LmConfig keys")
    _add_threshold_flags(fit)
    fit.add_argument("--timings", action="store_true",
                     help="include wall-clock timings in the report (breaks byte-determinism)")
    fit.add_argument("--out", default=None, help="report path (default: stdout)")
    fit.add_argument("--plot-csv", default=None, help="write index,log_price,fit CSV")
    fit.add_argument("--format", choices=["json", "csv"], default="json")
    _add_parallel_flags(fit)

    synth = sub.add_parser("synth", help="generate a synthetic LPPL + noise trace")
    synth.add_argument("--preset", choices=sorted(PRESETS), default="base")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    synth.add_argument("--sigma", type=_finite_float, default=None)
    synth.add_argument("--n", type=int, default=None)
    for name in ("A", "B", "T", "m", "C", "omega", "phi"):
        synth.add_argument(f"--{name}", type=_finite_float, default=None)

    bench = sub.add_parser("bench", help="thread-scaling benchmark of the evaluation kernel")
    bench.add_argument("--n", type=int, default=100_000)
    bench.add_argument("--threads", default="1,2,4,8",
                       help="comma-separated thread counts")
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("--out", default=None)

    cls = sub.add_parser("classify", help="re-apply verdict thresholds to a fit report")
    cls.add_argument("report", help="JSON report produced by `fit`")
    _add_threshold_flags(cls)

    return parser


def _emit(text: str, out):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _report_csv(report) -> str:
    # seed provenances and weight labels contain commas; csv quotes them
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["seed", "weights", "average_error", "T", "m", "C", "omega", "termination"])
    for rf in report.fits:
        p = rf.result.params
        writer.writerow([rf.task.seed.provenance, rf.task.scheme.label(),
                         *(float(v) for v in (rf.result.average_error, p.T, p.m, p.C, p.omega)),
                         rf.result.termination])
    return out.getvalue()


def cmd_fit(args) -> int:
    raw = load_csv(args.data, column=args.column)
    schemes = [parse_scheme(s) for s in (args.weights or ["uniform"])]
    series = to_series(raw)
    config = InterleaveConfig(lm=_lm_config_from(args), L=args.L,
                              adaptive_L=args.adaptive_L)
    thresholds = ClassifyThresholds(m_hi=args.m_hi, omega_lo=args.omega_lo,
                                    c_lo=args.c_lo, min_reduction=args.min_reduction)
    jobs = args.jobs if args.jobs >= 1 else max(1, os.cpu_count() or 1)
    report = fit_command(
        series.log_prices,
        schemes,
        manual_triples=args.triple,
        auto_triples=args.auto_triples,
        extremum_half_width=args.extremum_window,
        interleave=args.interleave,
        config=config,
        jobs=jobs,
        threads=max(1, args.threads),
        thresholds=thresholds,
        collect_timings=args.timings,
    )
    if args.format == "json":
        _emit(report_to_json(report), args.out)
    else:
        _emit(_report_csv(report), args.out)
    if args.plot_csv:
        write_plot_csv(args.plot_csv, series.log_prices, report.best.result.params)
    return EXIT_OK


def cmd_synth(args) -> int:
    preset = PRESETS[args.preset]
    overrides = {name: getattr(args, name) for name in ("A", "B", "T", "m", "C", "omega", "phi")
                 if getattr(args, name) is not None}
    params = preset.params.replace(**overrides)
    spec = SynthSpec(
        params=params,
        sigma=preset.sigma if args.sigma is None else args.sigma,
        n=preset.n if args.n is None else args.n,
        seed=args.seed,
    )
    write_trace(args.out, spec)
    return EXIT_OK


def cmd_bench(args) -> int:
    counts = [int(c) for c in args.threads.split(",")]
    rows = bench_command(n=args.n, thread_counts=counts, repetitions=args.reps)
    text = json.dumps(rows, indent=2) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    report = _load_json(args.report)
    if not isinstance(report, dict):
        raise IngestError(f"{args.report}: a fit report must be a JSON object")
    version = report.get("schema_version")
    if version != REPORT_SCHEMA_VERSION:
        raise IngestError(f"{args.report}: report schema_version {version!r}, "
                          f"expected {REPORT_SCHEMA_VERSION}")
    try:
        best = report["best"]
        fit_result = FitResult(
            params=LpplParams(**{name: float(best["params"][name]) for name in PARAM_NAMES}),
            error=float(best["error"]),
            average_error=float(best["average_error"]),
            termination=str(best["termination"]),
            iterations=int(best["iterations"]),
            restarts=int(best["restarts"]),
            wall_time=0.0,
        )
        baseline_average_error = float(report["baseline_average_error"])
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"{args.report}: malformed fit report ({exc!r})") from exc
    thresholds = ClassifyThresholds(m_hi=args.m_hi, omega_lo=args.omega_lo,
                                    c_lo=args.c_lo, min_reduction=args.min_reduction)
    verdict = classify(fit_result, baseline_average_error, thresholds)
    sys.stdout.write(json.dumps(
        {"label": verdict.label, "reasons": list(verdict.reasons)}, indent=2) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"fit": cmd_fit, "synth": cmd_synth, "bench": cmd_bench,
                "classify": cmd_classify}
    try:
        return handlers[args.command](args)
    except AllFitsFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ALL_FAILED
    except (IngestError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

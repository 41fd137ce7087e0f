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

import numpy as np

from .driver import (
    DEFAULT_AUTO_TRIPLES,
    REPORT_SCHEMA_VERSION,
    AllFitsFailed,
    ClassifyThresholds,
    bench_command,
    classify,
    fit_command,
    report_to_json,
    write_plot_csv,
)
from .ingest import IngestError, load_csv
from .model import BLOCK, PARAM_NAMES, LpplParams
from .seeds import DEFAULT_EXTREMUM_HALF_WIDTH
from .solver import FitResult
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


def _add_threshold_flags(p):
    for f in dataclasses.fields(ClassifyThresholds):  # --m-hi, --omega-lo, ...
        p.add_argument(f"--{f.name.replace('_', '-')}", type=_finite_float, default=f.default)


def _thresholds_from(args) -> ClassifyThresholds:
    return ClassifyThresholds(**{f.name: getattr(args, f.name)
                                 for f in dataclasses.fields(ClassifyThresholds)})


def _add_parallel_flags(p):
    p.add_argument("--jobs", type=int, default=1,
                   help="concurrent fit tasks (0 or less: one per CPU); threads that "
                        "contend for the GIL, so more than 1 is usually slower")
    p.add_argument("--threads", type=int, default=1,
                   help=f"evaluation workers per fit, over blocks of {BLOCK:,} points; a "
                        f"series of at most {BLOCK:,} points runs serially (0 or less: 1)")


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
    fit.add_argument("--auto-triples", type=int, default=DEFAULT_AUTO_TRIPLES,
                     help="max auto-detected triple seeds (0 disables)")
    fit.add_argument("--extremum-window", type=int, default=DEFAULT_EXTREMUM_HALF_WIDTH,
                     help="half-width of the extremum detection window")
    fit.add_argument("--interleave", type=_on_off, default=True, metavar="on|off",
                     help="alternate adaptively capped LM runs with the linear (A, B, C) "
                          "solve; off: one LM run of at most 200 iterations per task")
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
        writer.writerow([rf.seed.provenance, rf.scheme.label(),
                         *(float(v) for v in (rf.result.average_error, p.T, p.m, p.C, p.omega)),
                         rf.result.termination])
    return out.getvalue()


def cmd_fit(args) -> int:
    for path in filter(None, (args.out, args.plot_csv)):  # before any fit
        parent = Path(path).parent
        if not parent.is_dir() or not os.access(parent, os.W_OK):
            raise IngestError(f"cannot write {path}: {parent} is not a writable directory")
    raw = load_csv(args.data, column=args.column)
    schemes = [parse_scheme(s) for s in (args.weights or ["uniform"])]
    log_prices = np.log(raw.closes)
    jobs = args.jobs if args.jobs >= 1 else max(1, os.cpu_count() or 1)
    report = fit_command(
        log_prices,
        schemes,
        manual_triples=args.triple,
        auto_triples=args.auto_triples,
        extremum_half_width=args.extremum_window,
        interleave=args.interleave,
        jobs=jobs,
        threads=max(1, args.threads),
        thresholds=_thresholds_from(args),
        collect_timings=args.timings,
    )
    if args.plot_csv:  # first, so a failed write leaves no report behind
        write_plot_csv(args.plot_csv, log_prices, report.best.result.params)
    if args.format == "json":
        _emit(report_to_json(report), args.out)
    else:
        _emit(_report_csv(report), args.out)
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

    def number(value):  # float() alone would read "nan" and bools, past _load_json's guard
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"expected a JSON number, got {value!r}")
        return float(value)

    try:
        best = report["best"]
        fit_result = FitResult(
            params=LpplParams(**{name: number(best["params"][name]) for name in PARAM_NAMES}),
            error=number(best["error"]),
            average_error=number(best["average_error"]),
            termination=str(best["termination"]),
            iterations=int(number(best["iterations"])),
            restarts=int(number(best["restarts"])),
            wall_time=0.0,
        )
        baseline_average_error = number(report["baseline_average_error"])
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"{args.report}: malformed fit report ({exc!r})") from exc
    verdict = classify(fit_result, baseline_average_error, _thresholds_from(args))
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

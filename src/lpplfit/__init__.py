"""Weighted LPPL least-squares fitting of asset-price time series."""

from .model import (
    LpplDomainError,
    LpplParams,
    PriceSeries,
    ResidualReport,
    evaluate_batch,
    lppl_jacobian,
    lppl_jacobian_row,
    lppl_value,
    lppl_values,
)
from .weights import WeightScheme, build_weights, parse_scheme
from .solver import FitResult, LmState, lm_fit
from .linear import (
    InterleaveConfig,
    LinearSolveResult,
    interleave_fit,
    solve_linear_subsystem,
    update_L,
)
from .seeds import (
    InitSeed,
    SeedRejected,
    exponential_prefit,
    propose_triples,
    triple_geometry,
    triple_to_seed,
)
from .synth import PRESETS, SynthSpec, generate_trace, standard_suite, write_trace
from .ingest import IngestError, RawSeries, load_csv
from .driver import (
    ClassifyThresholds,
    RunReport,
    Verdict,
    bench_command,
    classify,
    fit_command,
    report_to_json,
)

__version__ = "0.1.0"

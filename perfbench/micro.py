"""Layer micro-benchmarks, run outside any fit, each beside a plain single-threaded baseline.

The baselines are the textbook NumPy / math formulas with no validation,
chunking or dataclass handling, so the gap to each layer function is that
layer's overhead. Byte and operation counts are computed from array shapes
and from the formulas, not measured; no bandwidth figure is derived.
"""

from __future__ import annotations

import math
import statistics
import time
import types
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from lpplfit import linear, model, synth

# Per point, evaluate_batch reads x, y, w and writes the residual and a
# 7-column Jacobian row: 3 + 1 + 7 float64 values.
BYTES_PER_POINT = (3 + 1 + 7) * 8
# Per point, as written in model.evaluate_batch: log, two powers, cos and sin,
# plus 33 multiplies, adds, subtracts and negations (T - x 1, theta 2, f 5,
# residual 1, oscillation factor 2, Jacobian columns 19, weighted square and sum 3).
TRANSCENDENTAL_PER_POINT = 5
ARITHMETIC_PER_POINT = 33


BLOCK_S = 0.02  # each timed block of calls lasts at least this long
REPEATS = 7


def per_call_s(fn: Callable[[], object]) -> float:
    """Median over REPEATS blocks of the mean time per call."""
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - t0 >= BLOCK_S or number >= 1 << 20:
            break
        number *= 2
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return statistics.median(times)


def plain_evaluate(p: model.LpplParams, x: np.ndarray, y: np.ndarray, w: np.ndarray):
    d = p.T - x
    logd = np.log(d)
    g = d ** p.m
    g1 = d ** (p.m - 1.0)
    theta = p.omega * logd + p.phi
    c, s = np.cos(theta), np.sin(theta)
    osc = 1.0 + p.C * c
    r = p.A - p.B * g * osc - y
    J = np.column_stack([np.ones_like(x), -g * osc,
                         -p.B * p.m * g1 * osc + p.B * p.C * p.omega * g1 * s,
                         -p.B * g * logd * osc, -p.B * g * c,
                         p.B * g * p.C * s * logd, p.B * g * p.C * s])
    return r, float(np.dot(w * r, r)), J


def plain_value(p: model.LpplParams, x: float) -> float:
    d = p.T - x
    return p.A - p.B * d ** p.m * (1.0 + p.C * math.cos(p.omega * math.log(d) + p.phi))


def plain_jacobian_row(p: model.LpplParams, x: float) -> List[float]:
    d = p.T - x
    logd = math.log(d)
    g = d ** p.m
    g1 = d ** (p.m - 1.0)
    theta = p.omega * logd + p.phi
    c, s = math.cos(theta), math.sin(theta)
    osc = 1.0 + p.C * c
    return [1.0, -g * osc, -p.B * p.m * g1 * osc + p.B * p.C * p.omega * g1 * s,
            -p.B * g * logd * osc, -p.B * g * c, p.B * g * p.C * s * logd, p.B * g * p.C * s]


def plain_linear(p: model.LpplParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    d = p.T - x
    v = d ** p.m
    X = np.column_stack([np.ones_like(x), -v, -v * np.cos(p.omega * np.log(d) + p.phi)])
    return np.linalg.lstsq(X, y, rcond=None)[0]


CALIBRATION_BLOCKS = 7


def calibration_s() -> float:
    """Seconds for one fixed block of plain NumPy and plain Python work; median of 7 blocks.

    It runs none of the program's code, so it reads how fast the machine is
    at the moment it runs: run.py divides each fit's time by the calibrations
    taken just before and just after it. About half of a block is the NumPy
    kernel at n = 1000 and half interpreted scalar math, a mix like that of
    a fit at n = 1000.
    """
    p = types.SimpleNamespace(A=1.0, B=0.5, C=0.05, T=1100.0, m=0.5, omega=6.0, phi=0.1)
    x = np.arange(1.0, 1001.0)
    y, w = np.zeros_like(x), np.ones_like(x)
    times = []
    for _ in range(CALIBRATION_BLOCKS):
        t0 = time.perf_counter()
        for _ in range(100):
            plain_evaluate(p, x, y, w)
        for i in range(5000):
            plain_jacobian_row(p, float(i % 1000 + 1))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _series(n: int) -> Tuple[model.LpplParams, model.PriceSeries]:
    base = synth.PRESETS["base"]
    spec = synth.SynthSpec(base.params.replace(T=1.1 * n), base.sigma, n, seed=12345)
    return spec.params, synth.generate_trace(spec)


def llc_bytes() -> Optional[int]:
    """Size of the highest cache level of CPU 0, read from sysfs; None if not exposed."""
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    best = None
    for idx in caches:
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * mult
        if best is None or level > best[0]:
            best = (level, value)
    return best[1] if best else None


def run() -> Tuple[Dict[str, float], List[str]]:
    """Per-layer micro-benchmark metrics, and printable lines with baselines and counts."""
    metrics: Dict[str, float] = {}
    lines: List[str] = []
    llc = llc_bytes()
    for n, threads, name, scale, unit in ((1_000, 1, "model.evaluate_batch.n1e3.t1_us", 1e6, "us"),
                                          (100_000, 1, "model.evaluate_batch.n1e5.t1_ms", 1e3, "ms"),
                                          (100_000, 2, "model.evaluate_batch.n1e5.t2_ms", 1e3, "ms")):
        params, series = _series(n)
        metrics[name] = per_call_s(lambda: model.evaluate_batch(params, series, threads)) * scale
        if threads == 1:
            x, y, w = series.indices, series.log_prices, series.weights
            baseline = per_call_s(lambda: plain_evaluate(params, x, y, w)) * scale
            nbytes = BYTES_PER_POINT * n
            ops = (TRANSCENDENTAL_PER_POINT + ARITHMETIC_PER_POINT) * n
            fits = "unknown" if llc is None else ("yes" if nbytes < llc else "no")
            lines.append(
                f"micro n={n}: evaluate_batch {metrics[name]:.4g} {unit}, plain numpy baseline "
                f"{baseline:.4g} {unit}; computed {nbytes} bytes moved per call "
                f"(Jacobian {56 * n} bytes), {ops} operations, {ops / nbytes:.3f} ops/byte; "
                f"working set within LLC: {fits}")
    params, series = _series(1_000)
    metrics["model.lppl_value_us"] = per_call_s(lambda: model.lppl_value(params, 500.0)) * 1e6
    metrics["model.lppl_jacobian_row_us"] = per_call_s(
        lambda: model.lppl_jacobian_row(params, 500.0)) * 1e6
    metrics["linear.solve_linear_subsystem.n1e3_us"] = per_call_s(
        lambda: linear.solve_linear_subsystem(series, params)) * 1e6
    x, y = series.indices, series.log_prices
    lines.append(
        f"micro scalar: lppl_value {metrics['model.lppl_value_us']:.3g} us vs math baseline "
        f"{per_call_s(lambda: plain_value(params, 500.0)) * 1e6:.3g} us; lppl_jacobian_row "
        f"{metrics['model.lppl_jacobian_row_us']:.3g} us vs math baseline "
        f"{per_call_s(lambda: plain_jacobian_row(params, 500.0)) * 1e6:.3g} us")
    lines.append(
        f"micro n=1000: solve_linear_subsystem {metrics['linear.solve_linear_subsystem.n1e3_us']:.4g}"
        f" us vs numpy lstsq baseline {per_call_s(lambda: plain_linear(params, x, y)) * 1e6:.4g} us")
    lines.append("micro LLC: " + (f"{llc} bytes ({llc / (1 << 20):.0f} MiB)" if llc else "not exposed"))
    return metrics, lines

"""Starting points for the multi-start fit: exponential pre-fit and peak triples.

Three consecutive same-kind price extrema i < j < k that are one full
oscillation apart satisfy (T - i)/(T - j) = (T - j)/(T - k) = rho, which
pins down rho = (j - i)/(k - j), omega = 2*pi / ln(rho), and
T = (rho*k - j)/(rho - 1). The phase is then read off by requiring the
oscillation angle at k to sit at a peak (or trough) of the price.
Windows are numpy views of the edge-padded series; every seed is in `model.box`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import LpplParams, PriceSeries
from .solver import exact_fit_floor

# Floor on the regression slope taken as B: above model.B_MIN, so every seed
# lies inside the box, while staying numerically negligible.
B_FLOOR = 1e-8

DEFAULT_EXTREMUM_HALF_WIDTH = 10


class SeedRejected(ValueError):
    """A candidate starting point violates the geometry or box constraints."""


@dataclass(frozen=True)
class InitSeed:
    params: LpplParams
    provenance: str  # "exponential" or "triple(i,j,k,kind)"


def exponential_prefit(series: PriceSeries, T: Optional[float] = None) -> InitSeed:
    """Weighted linear regression ln p(i) = A - B (T - i), returned as an LPPL seed.

    The regression is ln p(i) = (A - B*T) + B*i, so B is the slope and A is
    recovered from the intercept once T is chosen. T comes from a paired
    triple estimate when available; the pure-exponential seed defaults to
    T = n + n/10. The seed keeps m = 1, C = 0 so the general fit starts from
    the exponential null hypothesis.
    """
    n = series.n
    if T is None:
        T = n + n / 10.0
    i = series.indices
    y = series.log_prices
    w = series.weights

    sw = w.sum()
    if sw <= 0 or np.count_nonzero(w > 0) < 2:
        raise ValueError("exponential pre-fit needs at least 2 positively weighted points")
    ibar = float(np.sum(w * i) / sw)
    var = float(np.sum(w * (i - ibar) ** 2))
    if var == 0:
        raise ValueError("degenerate regression: no variance in the index")
    slope = float(np.sum(w * (i - ibar) * y) / var)
    intercept = float(np.sum(w * y) / sw - slope * ibar)

    B = max(slope, B_FLOOR)
    A = intercept + B * T
    params = LpplParams(A=A, B=B, T=float(T), m=1.0, C=0.0, omega=1.0, phi=0.0)
    return InitSeed(params=params, provenance="exponential")


def triple_geometry(i: int, j: int, k: int, kind: str = "peak") -> Tuple[float, float, float, float]:
    """(rho, omega, T, phi) from three angle-consecutive extrema i < j < k.

    Peaks put the oscillation angle at pi (the bracketed term minimal under
    the C >= 0 seed convention), troughs at 0 mod 2*pi; the trough convention
    mirrors the peak derivation and is an interpretation, the peak form is
    the derived one.
    """
    if not (1 <= i < j < k):
        raise SeedRejected(f"need 1 <= i < j < k, got ({i}, {j}, {k})")
    if kind not in ("peak", "trough"):
        raise SeedRejected(f"kind must be peak or trough, got {kind!r}")
    rho = (j - i) / (k - j)
    if rho <= 1.0:
        raise SeedRejected(f"triple ({i}, {j}, {k}) gives rho = {rho:g} <= 1")
    omega = 2.0 * math.pi / math.log(rho)
    T = (rho * k - j) / (rho - 1.0)
    if kind == "peak":
        phi = math.pi - omega * math.log(T - k)
    else:
        phi = -omega * math.log(T - k)
    return rho, omega, T, phi


def triple_to_seed(
    i: int, j: int, k: int, kind: str, series: PriceSeries
) -> InitSeed:
    """Full starting vector from an extremum triple plus the exponential pre-fit.

    The triple supplies (T, omega, phi); A and B come from the exponential
    regression at that T; m = 1 and C = 0 are relaxed by the solver. Triples
    whose implied T does not clear the end of the series are rejected.
    """
    _, omega, T, phi = triple_geometry(i, j, k, kind)
    if T <= series.n + 1:
        raise SeedRejected(
            f"triple ({i}, {j}, {k}) implies T = {T:.2f} <= n + 1 = {series.n + 1}"
        )
    base = exponential_prefit(series, T=T).params
    params = base.replace(omega=omega, phi=phi)
    return InitSeed(params=params, provenance=f"triple({i},{j},{k},{kind})")


def _envelope(y: np.ndarray, half_width: int, mode: str) -> np.ndarray:
    """Max (mode "max") or min of y over each centred window of 2*half_width + 1 points."""
    windows = sliding_window_view(np.pad(y, half_width, mode="edge"), 2 * half_width + 1)
    return windows.max(axis=1) if mode == "max" else windows.min(axis=1)


def _window_mean(y: np.ndarray, half_width: int) -> np.ndarray:
    """Centred window mean, a running sum in `uniform_filter1d`'s order (so its bits)."""
    size = 2 * half_width + 1
    p = np.pad(y, half_width, mode="edge")
    return np.cumsum(np.concatenate((p[:size], p[size:] - p[:-size])))[size - 1:] / size


def _local_extrema(y: np.ndarray, half_width: int, mode: str) -> List[int]:
    """1-based indices where y attains the window extremum, deduplicated plateaus."""
    hits = np.flatnonzero(y == _envelope(y, half_width, mode))
    out: List[int] = []
    for h in hits:
        if out and h - (out[-1] - 1) <= half_width:
            continue  # same plateau / window
        out.append(int(h) + 1)
    return out


def propose_triples(
    series: PriceSeries,
    half_width: int = DEFAULT_EXTREMUM_HALF_WIDTH,
    max_triples: Optional[int] = None,
) -> List[Tuple[int, int, int, str]]:
    """Candidate (i, j, k, kind) triples from a ladder of sliding-window extremum scans.

    The first scan reads raw ln p at `half_width`. A monotone power-law trend
    hides the oscillation peaks of a developing bubble, so three more read the
    residual of one exponential pre-fit, smoothed at 1, 2 and 4 times
    `half_width`. Each scan lists its consecutive same-kind triples with
    rho > 1 recent first, capped at `max_triples`; the scans follow in that
    order and may repeat a triple. The detrended scans are skipped when the
    pre-fit is exact to rounding (`exact_fit_floor`): the residual's wiggles
    are then rounding noise. Selection is a heuristic stand-in for manual
    inspection; `--triple` bypasses it.
    """
    if half_width < 1:
        raise ValueError("half_width must be >= 1")
    y = series.log_prices
    pre = exponential_prefit(series).params
    residual = y - (pre.A - pre.B * (pre.T - series.indices))
    scans = [(y, half_width)]
    if np.dot(series.weights, residual * residual) > exact_fit_floor(series):
        scans += [(_window_mean(residual, hw), hw)
                  for hw in (half_width, 2 * half_width, 4 * half_width)]
    triples: List[Tuple[int, int, int, str]] = []
    for values, hw in scans:
        scan = []
        for kind, mode in (("peak", "max"), ("trough", "min")):
            ext = [e for e in _local_extrema(values, hw, mode) if 1 < e < series.n]
            scan += [(a, b, c, kind) for a, b, c in zip(ext, ext[1:], ext[2:]) if b - a > c - b]
        scan.sort(key=lambda t: t[2], reverse=True)
        triples += scan[:max_triples]
    return triples

"""Synthetic trace generation: LPPL signal plus scaled Brownian motion.

log p(i) = f(i) + sigma * B(i), where B is a standard Brownian motion sampled
at unit steps (B(0) = 0, N(0,1) increments) so sigma carries all the scaling.
Traces are reproducible from a 64-bit seed; the generator algorithm is
recorded in the trace metadata.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .model import LpplParams, PriceSeries, lppl_values

RNG_ALGORITHM = "numpy-pcg64"

# Stochastic model presets: base and oscillatory are LPPL processes,
# exponential is the non-bubble control.
PRESETS: Dict[str, "SynthSpec"] = {}


@dataclass(frozen=True)
class SynthSpec:
    """LPPL parameters + noise scale + length + RNG seed for one trace."""

    params: LpplParams
    sigma: float
    n: int
    seed: int

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.n >= self.params.T:
            raise ValueError(f"n = {self.n} must be below the critical time T = {self.params.T}")

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "sigma": self.sigma,
            "n": self.n,
            "seed": int(self.seed),
            "rng": RNG_ALGORITHM,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SynthSpec":
        return cls(
            params=LpplParams(**d["params"]),
            sigma=float(d["sigma"]),
            n=int(d["n"]),
            seed=int(d["seed"]),
        )


def _preset(A, B, T, m, C, omega, phi, n, sigma) -> SynthSpec:
    return SynthSpec(
        params=LpplParams(A=A, B=B, T=T, m=m, C=C, omega=omega, phi=phi),
        sigma=sigma, n=n, seed=0,
    )


PRESETS["base"] = _preset(A=5, B=0.02, T=1100, m=0.68, C=0.05, omega=9, phi=0,
                          n=1000, sigma=0.005)
PRESETS["oscillatory"] = _preset(A=5, B=0.02, T=1100, m=0.68, C=0.2, omega=9, phi=0,
                                 n=1000, sigma=0.02)
PRESETS["exponential"] = _preset(A=5, B=0.005, T=1100, m=1, C=0, omega=1, phi=0,
                                 n=1000, sigma=0.05)


def brownian_path(n: int, seed: int) -> np.ndarray:
    """B(1..n): running sum of N(0,1) increments from B(0) = 0."""
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.standard_normal(n))


def generate_log_prices(spec: SynthSpec) -> np.ndarray:
    """log p(i) = f(i) + sigma * B(i) for i = 1..n; deterministic given the seed."""
    x = np.arange(1, spec.n + 1, dtype=float)
    signal = lppl_values(spec.params, x)
    if spec.sigma == 0:
        return signal
    return signal + spec.sigma * brownian_path(spec.n, spec.seed)


def generate_trace(spec: SynthSpec) -> PriceSeries:
    """Trace as a PriceSeries with uniform weights (reweight at fit time)."""
    return PriceSeries(log_prices=generate_log_prices(spec), weights=np.ones(spec.n))


def derive_seeds(master_seed: int, count: int) -> List[int]:
    """Deterministic 64-bit sub-seeds from a master seed."""
    state = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def standard_suite(master_seed: int) -> List[Tuple[str, int, SynthSpec]]:
    """The 15-trace evaluation set: 5 seeds per stochastic model."""
    names = ("base", "oscillatory", "exponential")
    seeds = derive_seeds(master_seed, 5 * len(names))
    suite = []
    for gi, name in enumerate(names):
        preset = PRESETS[name]
        for rep in range(5):
            spec = SynthSpec(params=preset.params, sigma=preset.sigma, n=preset.n,
                             seed=seeds[gi * 5 + rep])
            suite.append((name, rep, spec))
    return suite


def write_trace(path, spec: SynthSpec) -> PriceSeries:
    """Write `index,log_price,price` CSV plus a .json sidecar with the spec.

    The rows are built first, so a spec whose prices are not finite floats
    raises ValueError and leaves neither file behind.
    """
    path = Path(path)
    series = generate_trace(spec)  # rejects non-finite log prices
    try:
        rows = [[i, repr(lp), repr(math.exp(lp))]
                for i, lp in enumerate(series.log_prices.tolist(), start=1)]
    except OverflowError:
        raise ValueError("a price of the trace overflows a float") from None
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "log_price", "price"])
        writer.writerows(rows)
    sidecar = path.with_suffix(path.suffix + ".json")
    with open(sidecar, "w") as fh:
        json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return series

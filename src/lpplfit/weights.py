"""Per-point weight vectors: uniform, step sub-interval, and quadratic recency."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class WeightScheme:
    """One of uniform, step(s, t), or quadratic(W).

    step keeps w(i) = 1 on [s, t] and 0 elsewhere; quadratic sets
    w(i) = (W / (n - i + W))^2 so importance decays quadratically with age,
    faster for smaller W.
    """

    kind: str
    s: Optional[int] = None
    t: Optional[int] = None
    W: Optional[float] = None

    @classmethod
    def uniform(cls) -> "WeightScheme":
        return cls("uniform")

    @classmethod
    def step(cls, s: int, t: int) -> "WeightScheme":
        return cls("step", s=int(s), t=int(t))

    @classmethod
    def quadratic(cls, W: float) -> "WeightScheme":
        return cls("quad", W=float(W))

    def label(self) -> str:
        if self.kind == "uniform":
            return "uniform"
        if self.kind == "step":
            return f"step:{self.s},{self.t}"
        text = f"{self.W:g}"  # short, unless it would not parse back to W
        return f"quad:{text if float(text) == self.W else repr(self.W)}"


def build_weights(scheme: WeightScheme, n: int) -> np.ndarray:
    """Weight vector w(1..n) for the scheme; validates scheme parameters against n."""
    if n < 1:
        raise ValueError("n must be positive")
    if scheme.kind == "uniform":
        return np.ones(n)
    if scheme.kind == "step":
        s, t = scheme.s, scheme.t
        if s is None or t is None or not (1 <= s <= t <= n):
            raise ValueError(f"step weights require 1 <= s <= t <= n, got s={s}, t={t}, n={n}")
        w = np.zeros(n)
        w[s - 1 : t] = 1.0
        return w
    if scheme.kind == "quad":
        W = scheme.W
        if W is None or not 0 < W < np.inf:  # NaN fails too
            raise ValueError(f"W must be finite and > 0, got {W}")
        i = np.arange(1, n + 1, dtype=float)
        return (W / (n - i + W)) ** 2
    raise ValueError(f"unknown weight scheme {scheme.kind!r}")


def parse_scheme(text: str) -> WeightScheme:
    """Parse a CLI weight spec: 'uniform', 'step:s,t', or 'quad:W'."""
    text = text.strip()
    if text == "uniform":
        return WeightScheme.uniform()
    if text.startswith("step:"):
        try:
            s, t = (int(p) for p in text[len("step:") :].split(","))
        except ValueError as exc:
            raise ValueError(f"bad step weights {text!r}, expected step:s,t") from exc
        return WeightScheme.step(s, t)
    if text.startswith("quad:"):
        try:
            W = float(text[len("quad:") :])
        except ValueError as exc:
            raise ValueError(f"bad quadratic weights {text!r}, expected quad:W") from exc
        return WeightScheme.quadratic(W)
    raise ValueError(f"unknown weight scheme {text!r}")

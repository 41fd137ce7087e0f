import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import maximum_filter1d, minimum_filter1d, uniform_filter1d

import lpplfit
from lpplfit.model import PriceSeries, lppl_values
from lpplfit.seeds import (
    B_FLOOR,
    SeedRejected,
    _envelope,
    _window_mean,
    exponential_prefit,
    propose_triples,
    triple_geometry,
    triple_to_seed,
)
from lpplfit.synth import PRESETS, SynthSpec, generate_trace


def flat_series(n=50, level=3.0):
    return PriceSeries(log_prices=np.full(n, level), weights=np.ones(n))


class TestTripleGeometry:
    def test_sp500_2007_peak_triple(self):
        # Three consecutive peaks of the 2003-2007 S&P 500 run-up.
        rho, omega, T, phi = triple_geometry(718, 916, 988, "peak")
        assert rho == pytest.approx(198 / 72) == pytest.approx(2.75)
        assert T == pytest.approx(1029.14, abs=0.01)
        assert omega == pytest.approx(6.21, abs=0.01)
        assert phi == pytest.approx(-19.95, abs=0.01)

    def test_equally_spaced_rejected(self):
        with pytest.raises(SeedRejected):
            triple_geometry(100, 200, 300, "peak")

    def test_wrong_order_rejected(self):
        with pytest.raises(SeedRejected):
            triple_geometry(0, 200, 300, "peak")
        with pytest.raises(SeedRejected):
            triple_geometry(300, 200, 100, "peak")

    def test_shift_invariance(self):
        # shifting all indices shifts T by the same amount, rho/omega unchanged
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(30, 1000))
            j = k - int(rng.integers(5, 200))
            i = j - int(rng.integers(j - k + j + 1 - j + 1, 500))  # ensure j-i > k-j
            i = j - (k - j) - int(rng.integers(1, 300))
            if i < 1:
                continue
            s = int(rng.integers(1, 500))
            rho1, om1, T1, _ = triple_geometry(i, j, k, "peak")
            rho2, om2, T2, _ = triple_geometry(i + s, j + s, k + s, "peak")
            assert rho2 == pytest.approx(rho1, rel=1e-12)
            assert om2 == pytest.approx(om1, rel=1e-12)
            assert T2 == pytest.approx(T1 + s, rel=1e-12)

    def test_trough_phase_convention(self):
        # troughs put the angle at 0 mod 2*pi at k
        _, omega, T, phi = triple_geometry(342, 723, 912, "trough")
        angle = omega * math.log(T - 912) + phi
        assert math.cos(angle) == pytest.approx(1.0, abs=1e-12)


class TestExponentialPrefit:
    def test_exact_exponential_recovery(self):
        n, T, A, B = 900, 1100.0, 5.0, 0.001
        x = np.arange(1, n + 1, dtype=float)
        series = PriceSeries(log_prices=A - B * (T - x), weights=np.ones(n))
        seed = exponential_prefit(series, T=T)
        assert seed.params.A == pytest.approx(A, rel=1e-12)
        assert seed.params.B == pytest.approx(B, rel=1e-12)
        assert seed.params.m == 1.0 and seed.params.C == 0.0

    def test_flat_series_floors_B(self):
        seed = exponential_prefit(flat_series())
        assert seed.params.B == B_FLOOR == 1e-8
        # a positive slope below the floor is floored too, so B stays in the box
        n = 50
        rising = PriceSeries(log_prices=3.0 + 1e-10 * np.arange(1, n + 1), weights=np.ones(n))
        assert 0 < np.polyfit(np.arange(n), rising.log_prices, 1)[0] < B_FLOOR
        assert exponential_prefit(rising).params.B == B_FLOOR

    def test_default_T(self):
        seed = exponential_prefit(flat_series(n=100))
        assert seed.params.T == pytest.approx(110.0)

    def test_degenerate_support(self):
        n = 20
        w = np.zeros(n)
        w[3] = 1.0
        series = PriceSeries(log_prices=np.linspace(0, 1, n), weights=w)
        with pytest.raises(ValueError):
            exponential_prefit(series)


class TestTripleToSeed:
    def test_uses_triple_T_and_prefit(self):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.0, n=1000, seed=0)
        series = generate_trace(spec)
        seed = triple_to_seed(342, 723, 912, "peak", series)
        assert seed.params.T > 1001
        assert seed.params.m == 1.0 and seed.params.C == 0.0
        assert "triple(342,723,912,peak)" == seed.provenance

    def test_rejects_T_inside_series(self):
        spec = SynthSpec(params=PRESETS["base"].params, sigma=0.0, n=1000, seed=0)
        series = generate_trace(spec)
        with pytest.raises(SeedRejected):
            triple_to_seed(100, 300, 400, "peak", series)


class TestNoiselessRoundTrip:
    def true_peaks(self, params, n):
        # analytic peak positions: omega*ln(T-x) + phi = (2k+1)*pi
        out = []
        k = 0
        while True:
            d = math.exp(((2 * k + 1) * math.pi - params.phi) / params.omega)
            x = params.T - d
            if x < 1:
                break
            if x <= n:
                out.append(int(round(x)))
            k += 1
        return sorted(out)

    def test_recovers_T_and_omega(self):
        params = PRESETS["oscillatory"].params
        n = 1000
        peaks = [p for p in self.true_peaks(params, n) if p < n - 5]
        i, j, k = peaks[-3], peaks[-2], peaks[-1]
        _, omega, T, _ = triple_geometry(i, j, k, "peak")
        # integer rounding of peak positions is the only error source
        assert T == pytest.approx(params.T, rel=0.02)
        assert omega == pytest.approx(params.omega, rel=0.02)


class TestProposeTriples:
    def test_monotone_series_empty(self):
        # convex, so the pre-fit residual is convex too and no scan finds a triple
        n = 200
        series = PriceSeries(log_prices=np.linspace(0, 1, n) ** 2, weights=np.ones(n))
        assert propose_triples(series) == []

    def test_noiseless_oscillatory_omega_within_20pct(self):
        spec = SynthSpec(params=PRESETS["oscillatory"].params, sigma=0.0, n=1000, seed=0)
        series = generate_trace(spec)
        found = []
        for (i, j, k, kind) in propose_triples(series, half_width=10):
            try:
                _, omega, T, _ = triple_geometry(i, j, k, kind)
            except SeedRejected:
                continue
            if T > 1001:
                found.append(omega)
        assert found, "no usable triples on a noiseless oscillatory trace"
        assert any(abs(om - 9.0) / 9.0 < 0.2 for om in found)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            propose_triples(flat_series(), half_width=0)


class TestWindows:
    """The numpy windows reproduce scipy.ndimage's mode="nearest" filters bit for bit."""

    def test_match_ndimage(self):
        rng = np.random.default_rng(20261019)
        for half_width in range(1, 81):
            size = 2 * half_width + 1
            for n in (1, half_width, size - 1, size, int(rng.integers(size + 1, 2000))):
                scale = rng.choice([1e-13, 1e-3, 1.0])
                y = rng.normal(5.0, 1.0) + np.cumsum(rng.normal(0.0, scale, n))
                assert np.array_equal(_envelope(y, half_width, "max"),
                                      maximum_filter1d(y, size, mode="nearest"))
                assert np.array_equal(_envelope(y, half_width, "min"),
                                      minimum_filter1d(y, size, mode="nearest"))
                assert np.array_equal(_window_mean(y, half_width),
                                      uniform_filter1d(y, size, mode="nearest"))

    def test_import_leaves_ndimage_out(self):
        src = str(Path(lpplfit.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import lpplfit; "
                "sys.exit('scipy.ndimage' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr or "import lpplfit loaded scipy.ndimage"

import numpy as np
import pytest

from lpplfit.weights import WeightScheme, build_weights, parse_scheme


def test_uniform():
    np.testing.assert_array_equal(build_weights(WeightScheme.uniform(), 5), np.ones(5))


def test_step():
    np.testing.assert_array_equal(
        build_weights(WeightScheme.step(3, 5), 5), [0, 0, 1, 1, 1]
    )


def test_quadratic_endpoints():
    w = build_weights(WeightScheme.quadratic(10), 11)
    assert w[0] == pytest.approx((10 / 20) ** 2) == 0.25
    assert w[-1] == 1.0  # n - n + W = W exactly


def test_quadratic_strictly_increasing():
    w = build_weights(WeightScheme.quadratic(25), 300)
    assert np.all(np.diff(w) > 0)
    assert w[-1] == 1.0


def test_smaller_W_more_recency():
    # smaller W strictly decreases every weight before the last point
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(10, 500))
        W_small, W_big = sorted(rng.uniform(0.5, 200, size=2))
        if W_small == W_big:
            continue
        ws = build_weights(WeightScheme.quadratic(W_small), n)
        wb = build_weights(WeightScheme.quadratic(W_big), n)
        assert np.all(ws[:-1] < wb[:-1])
        assert ws[-1] == wb[-1] == 1.0


@pytest.mark.parametrize("s,t", [(0, 3), (4, 2), (1, 99)])
def test_step_validation(s, t):
    with pytest.raises(ValueError):
        build_weights(WeightScheme.step(s, t), 10)


def test_quadratic_validation():
    with pytest.raises(ValueError):
        build_weights(WeightScheme.quadratic(0.0), 10)


def test_parse_round_trip():
    for text in ("uniform", "step:3,5", "quad:10"):
        scheme = parse_scheme(text)
        assert scheme.label().startswith(text.split(":")[0])
    assert parse_scheme("step:3,5") == WeightScheme.step(3, 5)
    assert parse_scheme("quad:2.5") == WeightScheme.quadratic(2.5)
    with pytest.raises(ValueError):
        parse_scheme("gauss:1")
    with pytest.raises(ValueError):
        parse_scheme("step:3")


@pytest.mark.parametrize("W", [100, 0.1, 1234567, 100.123456789, 2.5e-7])
def test_quadratic_label_parses_back(W):
    scheme = WeightScheme.quadratic(W)
    assert parse_scheme(scheme.label()) == scheme


def test_quadratic_labels_keep_near_schemes_apart():
    # 6 significant digits would print both as quad:1.23457e+06
    near = WeightScheme.quadratic(1234567), WeightScheme.quadratic(1234568)
    assert near[0].label() != near[1].label()
    assert WeightScheme.quadratic(100).label() == "quad:100"  # short where that is exact


@pytest.mark.parametrize("W", [float("nan"), float("inf")])
def test_quadratic_W_must_be_finite(W):
    with pytest.raises(ValueError, match="W must be finite and > 0"):
        build_weights(WeightScheme.quadratic(W), 10)

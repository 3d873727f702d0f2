import math
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from windforecast.dataset import Dataset, physical_power
from windforecast.errors import BetzViolation, ConstantInput, LengthMismatch
from windforecast.stats import (
    CORRELATION_COLUMNS,
    correlation_matrix,
    heatmap_csv,
    pearson,
)


def naive_pearson(x, y):
    """Independent two-pass oracle: plain Python loops and fsum."""
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def test_pearson_self_and_anti_correlation():
    x = np.array([1.0, 3.0, 7.0, 2.0, 9.0])
    assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_matches_naive_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(10.0, 3.0, 1000)
    y = 2.0 * x + rng.normal(0.0, 5.0, 1000)
    assert pearson(x, y) == pytest.approx(naive_pearson(x, y), abs=1e-12)


def test_pearson_errors():
    with pytest.raises(LengthMismatch):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ConstantInput):
        pearson([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])
    with pytest.raises(ConstantInput):
        pearson([1.0], [2.0])


@pytest.mark.parametrize("x", [[math.nan, 2.0, 3.0], [1.0, math.nan, 3.0]])
def test_pearson_of_nan_input_is_nan(x):
    assert math.isnan(pearson(x, [1.0, 2.0, 4.0]))
    assert math.isnan(pearson([1.0, 2.0, 4.0], x))


# offsets are kept within ~1e3 standard deviations of the scaled data:
# beyond that the centering step itself loses more than 1e-12
@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=0.1, max_value=100.0),
    b=st.floats(min_value=-100.0, max_value=100.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_pearson_positive_affine_invariance(a, b, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, 50)
    y = rng.normal(0.0, 1.0, 50)
    assert pearson(a * x + b, y) == pytest.approx(pearson(x, y), abs=1e-12)


def test_correlation_matrix_structure(synthetic_5k):
    cm = correlation_matrix(synthetic_5k)
    assert cm.labels == CORRELATION_COLUMNS
    assert np.array_equal(np.diag(cm.values), np.ones(4))
    assert np.array_equal(cm.values, cm.values.T)
    assert np.all(np.abs(cm.values) <= 1.0)


def test_correlation_matrix_against_oracle(synthetic_5k):
    cm = correlation_matrix(synthetic_5k)
    speed = synthetic_5k.column("wind_speed")
    power = synthetic_5k.column("power")
    r = cm.lookup("wind_speed", "power")
    assert r >= 0.85
    assert r == pytest.approx(naive_pearson(speed, power), abs=1e-12)


def test_correlation_matrix_names_constant_column():
    d = Dataset(
        [datetime(2019, 1, 1) + i * timedelta(minutes=15) for i in range(3)],
        wind_speed=[5.0 + i for i in range(3)],
        wind_direction=[100.0] * 3,
        temperature=[10.0 + i for i in range(3)],
        power=[100.0 * (i + 1) for i in range(3)],
        rated_power=2000.0,
    )
    with pytest.raises(ConstantInput, match="wind_direction"):
        correlation_matrix(d)


def test_heatmap_csv_triples(synthetic_5k):
    cm = correlation_matrix(synthetic_5k)
    lines = heatmap_csv(cm).strip().split("\n")
    assert lines[0] == "row_label,col_label,r"
    assert len(lines) == 1 + 16
    row, col, r = lines[1].split(",")
    assert (row, col) == ("wind_speed", "wind_speed")
    assert float(r) == 1.0


# -- physical power law -------------------------------------------------------

def test_physical_power_zero_wind():
    assert physical_power(0.0, 1.225, 0.4, 1000.0) == 0.0


def test_physical_power_hand_value():
    # 0.5 * 1.225 * 0.4 * 1000 * 10^3 = 245000 W = 245 kW
    assert physical_power(10.0, 1.225, 0.4, 1000.0) == pytest.approx(245.0, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(v=st.floats(min_value=0.0, max_value=100.0))
@example(v=1.3332515042520695e-103)  # subnormal output
@example(v=2.70137914171654e-103)  # normal output, subnormal v**3
@example(v=2.3529709335126447e-103)  # subnormal output, subnormal v**3
def test_physical_power_doubling_octuples_exactly(v):
    p1 = physical_power(v, 1.225, 0.45, 5000.0)
    p2 = physical_power(2.0 * v, 1.225, 0.45, 5000.0)
    if v == 0.0 or p1 >= np.finfo(np.float64).tiny:
        assert p2 == 8.0 * p1
    else:
        # Subnormals sit on a fixed 2**-1074 grid, so exact octupling cannot
        # hold for every v: if v0 were the smallest speed with f(v0) > 0,
        # f(v0/2) = f(v0)/8 > 0 would contradict it. Allowed gap: half an ulp
        # of p2 (at most 2 steps, since p2 < 2**-1019) plus 8 half-steps of p1.
        assert abs(p2 - 8.0 * p1) <= 6 * 2.0**-1074


def test_physical_power_monotone_in_each_argument():
    base = physical_power(8.0, 1.2, 0.4, 2000.0)
    assert physical_power(9.0, 1.2, 0.4, 2000.0) >= base
    assert physical_power(8.0, 1.3, 0.4, 2000.0) >= base
    assert physical_power(8.0, 1.2, 0.5, 2000.0) >= base
    assert physical_power(8.0, 1.2, 0.4, 2500.0) >= base


def test_physical_power_rejects_betz_violation():
    with pytest.raises(BetzViolation):
        physical_power(10.0, 1.225, 0.6, 1000.0)
    # exactly at the bound is allowed
    physical_power(10.0, 1.225, 0.59, 1000.0)


def test_physical_power_rejects_negative_inputs():
    with pytest.raises(ValueError):
        physical_power(-1.0, 1.225, 0.4, 1000.0)
    with pytest.raises(ValueError):
        physical_power(1.0, -1.225, 0.4, 1000.0)


def test_physical_power_vectorized():
    v = np.array([0.0, 5.0, 10.0])
    out = physical_power(v, 1.225, 0.4, 1000.0)
    assert out.shape == (3,)
    assert out[0] == 0.0
    assert out[2] == pytest.approx(245.0, rel=1e-12)

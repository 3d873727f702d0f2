import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windforecast.errors import ConstantActual, Empty, LengthMismatch
from windforecast.metrics import EvalReport, mae, r_squared, rmse


def test_perfect_forecast():
    a = np.array([1.0, 2.0, 3.0])
    assert mae(a, a) == 0.0
    assert rmse(a, a) == 0.0
    assert r_squared(a, a) == 1.0


def test_hand_arithmetic():
    assert mae([0.0, 0.0], [3.0, 4.0]) == 3.5
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), rel=1e-15)


def test_mae_matches_naive_loop_oracle():
    rng = np.random.default_rng(3)
    a = rng.normal(0.0, 100.0, 1000)
    p = rng.normal(0.0, 100.0, 1000)
    oracle = math.fsum(abs(x - y) for x, y in zip(a, p)) / len(a)
    assert mae(a, p) == pytest.approx(oracle, abs=1e-9)
    rmse_oracle = math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, p)) / len(a))
    assert rmse(a, p) == pytest.approx(rmse_oracle, abs=1e-9)


def test_rmse_dominates_mae_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(1, 40))
        a = rng.normal(0.0, 50.0, n)
        p = rng.normal(0.0, 50.0, n)
        assert rmse(a, p) >= mae(a, p) - 1e-12


def test_mean_predictor_scores_zero():
    a = np.array([1.0, 2.0, 3.0, 10.0])
    p = np.full(4, a.mean())
    assert r_squared(a, p) == 0.0


def test_worse_than_mean_goes_negative():
    a = np.array([1.0, 2.0, 3.0])
    p = np.array([10.0, -10.0, 30.0])
    assert r_squared(a, p) < 0.0


def test_errors():
    with pytest.raises(LengthMismatch):
        mae([1.0], [1.0, 2.0])
    with pytest.raises(Empty):
        mae([], [])
    with pytest.raises(Empty):
        rmse([], [])
    with pytest.raises(ConstantActual):
        r_squared([5.0, 5.0], [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        r_squared([1.0, 2.0], [1.0])
    # lengths are judged before the entries, so a length error reads the same whatever the entries hold
    with pytest.raises(LengthMismatch, match=r"^length 1 vs 2$"):
        r_squared(True, [1.0, 2.0])


def test_mae_rmse_symmetric_r2_not():
    rng = np.random.default_rng(4)
    a = rng.normal(0.0, 1.0, 64)
    p = a + rng.normal(0.0, 0.5, 64)
    assert mae(a, p) == mae(p, a)
    assert rmse(a, p) == rmse(p, a)
    assert r_squared(a, p) != r_squared(p, a)


def test_joint_permutation_invariance():
    rng = np.random.default_rng(5)
    a = rng.normal(0.0, 1.0, 128)
    p = rng.normal(0.0, 1.0, 128)
    perm = rng.permutation(128)
    assert mae(a[perm], p[perm]) == pytest.approx(mae(a, p), rel=1e-14)
    assert rmse(a[perm], p[perm]) == pytest.approx(rmse(a, p), rel=1e-14)
    assert r_squared(a[perm], p[perm]) == pytest.approx(r_squared(a, p), rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    scale=st.floats(min_value=1e-3, max_value=1e4),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_mae_rmse_scale_linearly(scale, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, 32)
    p = rng.normal(0.0, 1.0, 32)
    assert mae(scale * a, scale * p) == pytest.approx(scale * mae(a, p), rel=1e-12)
    assert rmse(scale * a, scale * p) == pytest.approx(scale * rmse(a, p), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(min_value=1e-3, max_value=1e3),
    beta=st.floats(min_value=-1e3, max_value=1e3),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_r2_joint_affine_invariance(alpha, beta, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, 32)
    p = a + rng.normal(0.0, 0.3, 32)
    assert r_squared(alpha * a + beta, alpha * p + beta) == pytest.approx(
        r_squared(a, p), abs=1e-9
    )


def test_eval_report_fields():
    a = np.array([0.0, 2.0])
    p = np.array([3.0, 4.0])
    report = EvalReport.from_predictions(a, p)
    assert report.mae == 2.5
    assert report.rmse == pytest.approx(math.sqrt(6.5), rel=1e-15)
    assert report.r_squared == r_squared(a, p)
    assert report.n_samples == 2
    assert report.rmse >= report.mae

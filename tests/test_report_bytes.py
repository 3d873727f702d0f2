"""Exact bytes of every CSV the program writes, on tiny hand-built inputs.

Floats are written as repr (the shortest string that round-trips), lines end
in "\\n", None is an empty cell and a cell holding a comma is quoted.
"""

import hashlib
from datetime import datetime, timedelta

import numpy as np

from windforecast import ann, harness, regression, stats
from windforecast.dataset import (
    Dataset,
    DesignMatrix,
    FeatureSet,
    SyntheticConfig,
    generate_synthetic,
    select_features,
    write_csv,
)
from windforecast.metrics import EvalReport


def test_write_csv_bytes():
    start = datetime(2019, 1, 1)
    d = Dataset(
        [start + i * timedelta(minutes=15) for i in range(3)],
        wind_speed=[3.5, 0.1, 12.0],
        wind_direction=[0.0, 359.9, 180.25],
        temperature=[-1.5, 0.1 + 0.2, 1e-05],
        power=[0.0, 1999.9999999999998, 2000.0],
        rated_power=2000.0,
    )
    assert write_csv(d) == (
        "timestamp,wind_speed,wind_direction,temperature,power\n"
        "2019-01-01T00:00:00,3.5,0.0,-1.5,0.0\n"
        "2019-01-01T00:15:00,0.1,359.9,0.30000000000000004,1999.9999999999998\n"
        "2019-01-01T00:30:00,12.0,180.25,1e-05,2000.0\n"
    )


def test_heatmap_csv_bytes():
    r = 0.1 + 0.2
    cm = stats.CorrelationMatrix(labels=("wind_speed", "power"), values=np.array([[1.0, r], [r, 1.0]]))
    assert stats.heatmap_csv(cm) == (
        "row_label,col_label,r\n"
        "wind_speed,wind_speed,1.0\n"
        "wind_speed,power,0.30000000000000004\n"
        "power,wind_speed,0.30000000000000004\n"
        "power,power,1.0\n"
    )


def test_history_to_csv_bytes():
    history = ann.TrainHistory(losses=(0.5, 0.1 + 0.2, 1e-07))
    assert ann.history_to_csv(history) == "epoch,loss\n1,0.5\n2,0.30000000000000004\n3,1e-07\n"


def test_sweep_csv_bytes():
    ok = harness.SweepRow(
        model="polynomial",
        feature_set=FeatureSet.SPEED_ONLY,
        train_fraction=0.85,
        degree=2,
        horizon=None,
        report=EvalReport(mae=12.5, rmse=0.1 + 0.2, r_squared=0.9876, n_samples=450),
        out_of_bounds_fraction=0.0,
    )
    failed = harness.SweepRow(
        model="ann",
        feature_set=FeatureSet.SPEED_DIRECTION,
        train_fraction=0.7,
        degree=None,
        horizon=None,
        report=None,
        out_of_bounds_fraction=None,
        error="TooFewRows: need more than 55 rows, got 37",
    )
    assert harness.sweep_csv([ok, failed]) == (
        "# schema=windforecast.sweep.v1\n"
        "model,feature_set,train_fraction,degree,horizon,n_test,mae,rmse,r_squared,"
        "out_of_bounds_fraction,status\n"
        "polynomial,speed_only,0.85,2,,450,12.5,0.30000000000000004,0.9876,0.0,ok\n"
        'ann,speed_direction,0.7,,,,,,,,"TooFewRows: need more than 55 rows, got 37"\n'
    )


def test_plot_data_bytes():
    x = np.array([7.0, 3.0, 5.0])
    test_m = DesignMatrix(rows=x[:, None], target=[14.0, 6.5, 10.0], feature_names=("wind_speed",))
    model = regression.LinearModel(intercept=0.5, coefficients=(0.1,), feature_names=("wind_speed",))
    curve, scatter = harness.plot_data(model, test_m)
    assert curve == (
        "wind_speed,actual_power,predicted_power\n"
        "3.0,6.5,0.8\n"
        "5.0,10.0,1.0\n"
        "7.0,14.0,1.2000000000000002\n"
    )
    assert scatter == (
        "actual_power,predicted_power\n"
        "14.0,1.2000000000000002\n"
        "6.5,0.8\n"
        "10.0,1.0\n"
    )


# SHA-256 of whole outputs on a 2,000-row synthetic plant, pinned across versions: the
# plant exercises the copula's normal CDF, and the sweep and the fit the QR fold and solve
PLANT_CSV_SHA256 = "4b3b2574c24d061d44ab5c96bfda6e396cb787f3c564e241646a5adce5ff0a90"
SWEEP_CSV_SHA256 = "1298d95fde53f6516320576787189e38025467b4b1fc9d58eb661b06552f7e57"
SWEEP_JSON_SHA256 = "5bb98c3229742171812ba0c21ac9417635a8c6fc9daa0477f4358480f862d2f3"
DEGREE_5_DOCUMENT_SHA256 = "7379a3c0226bed4d617511087458b5c5a2cee9f95f2fc3168b57478f2ff43e6c"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_plant_sweep_and_model_document_bytes_are_pinned():
    d = generate_synthetic(SyntheticConfig(n_samples=2000, seed=7))
    assert _sha256(write_csv(d)) == PLANT_CSV_SHA256
    cfg = harness.SweepConfig(models=("persistence", "linear", "polynomial"))
    rows = harness.run_sweep(d, cfg)
    assert _sha256(harness.sweep_csv(rows)) == SWEEP_CSV_SHA256
    assert _sha256(harness.sweep_json(rows, cfg)) == SWEEP_JSON_SHA256
    model = regression.fit_polynomial(select_features(d, FeatureSet.SPEED_DIRECTION_TEMPERATURE), 5)
    assert _sha256(harness.to_json(model)) == DEGREE_5_DOCUMENT_SHA256

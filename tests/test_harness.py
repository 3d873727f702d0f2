import csv
import io
import json
from datetime import datetime, timedelta

import numpy as np
import pytest

from windforecast import ann, regression
from windforecast.dataset import (
    Dataset,
    DesignMatrix,
    FeatureSet,
    SplitSpec,
    SyntheticConfig,
    generate_synthetic,
    select_features,
    split,
)
from windforecast.errors import FeatureMismatch, InvalidConfig, SeriesTooShort
from windforecast.harness import (
    SweepConfig,
    emit_power_curve_points,
    emit_pred_vs_actual,
    fit_model,
    persistence_forecast,
    predict_with,
    run_sweep,
    sweep_csv,
    sweep_json,
)
from windforecast.metrics import mae, rmse


def power_series(powers, rated_power=2000.0):
    n = len(powers)
    return Dataset(
        [datetime(2019, 1, 1) + i * timedelta(minutes=15) for i in range(n)],
        wind_speed=[5.0] * n,
        wind_direction=[90.0] * n,
        temperature=[10.0] * n,
        power=[float(p) for p in powers],
        rated_power=rated_power,
    )


FAST_ANN = ann.TrainConfig(epochs=2, seed=42)


# -- persistence --------------------------------------------------------------

def test_persistence_shift_by_one():
    d = power_series([10.0, 12.0, 11.0])
    actual, predicted = persistence_forecast(d, 1)
    assert predicted.tolist() == [10.0, 12.0]
    assert actual.tolist() == [12.0, 11.0]


def test_persistence_constant_series_is_exact():
    d = power_series([500.0] * 20)
    for horizon in (1, 5, 19):
        actual, predicted = persistence_forecast(d, horizon)
        assert mae(actual, predicted) == 0.0


def test_persistence_errors():
    d = power_series([1.0, 2.0, 3.0])
    with pytest.raises(SeriesTooShort):
        persistence_forecast(d, 3)
    with pytest.raises(InvalidConfig):
        persistence_forecast(d, 0)


def test_persistence_error_grows_with_horizon(synthetic_5k):
    a1, p1 = persistence_forecast(synthetic_5k, 1)
    a96, p96 = persistence_forecast(synthetic_5k, 96)
    assert mae(a1, p1) < mae(a96, p96)


# -- run_sweep ----------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_sweep():
    d = generate_synthetic(SyntheticConfig(n_samples=600, seed=20))
    cfg = SweepConfig(ann_train=FAST_ANN)
    with pytest.warns(Warning):
        rows = run_sweep(d, cfg)
    return d, cfg, rows


def test_default_grid_row_count(tiny_sweep):
    _, cfg, rows = tiny_sweep
    by_model = {}
    for row in rows:
        by_model.setdefault(row.model, []).append(row)
    assert len(by_model["linear"]) == 6 * 4
    assert len(by_model["polynomial"]) == 6 * 4 * 4
    assert len(by_model["ann"]) == 6 * 4
    assert len(by_model["linear"]) + len(by_model["polynomial"]) + len(by_model["ann"]) == 144
    assert len(by_model["persistence"]) == len(cfg.persistence_horizons)


def test_sweep_row_order_deterministic(tiny_sweep):
    _, _, rows = tiny_sweep
    models = [row.model for row in rows]
    # canonical model-major order
    assert models == sorted(models, key=("persistence", "linear", "polynomial", "ann").index)
    poly = [r for r in rows if r.model == "polynomial"]
    assert [r.degree for r in poly[:4]] == [2, 3, 4, 5]
    assert poly[0].feature_set is FeatureSet.SPEED_ONLY
    assert poly[0].train_fraction == 0.95


def test_sweep_deterministic_reports(tiny_sweep):
    d, cfg, rows = tiny_sweep
    with pytest.warns(Warning):
        again = run_sweep(d, cfg)
    assert sweep_csv(rows) == sweep_csv(again)
    assert sweep_json(rows, cfg) == sweep_json(again, cfg)


def test_sweep_single_row_reproducible(tiny_sweep):
    d, cfg, rows = tiny_sweep
    target = next(
        r
        for r in rows
        if r.model == "polynomial"
        and r.feature_set is FeatureSet.SPEED_DIRECTION
        and r.train_fraction == 0.85
        and r.degree == 3
    )
    solo_cfg = SweepConfig(
        train_fractions=(0.85,),
        feature_sets=(FeatureSet.SPEED_DIRECTION,),
        degrees=(3,),
        models=("polynomial",),
        seed=cfg.seed,
        ann_train=cfg.ann_train,
    )
    (solo,) = run_sweep(d, solo_cfg)
    assert solo.report == target.report
    assert solo.out_of_bounds_fraction == target.out_of_bounds_fraction


def test_sweep_records_failures_without_aborting():
    d = generate_synthetic(SyntheticConfig(n_samples=10, seed=2))
    cfg = SweepConfig(
        train_fractions=(0.5,),
        feature_sets=(FeatureSet.SPEED_ONLY,),
        degrees=(5,),  # 5 train rows cannot support 6 coefficients
        ann_train=FAST_ANN,  # batch 32 > 5 rows
        persistence_horizons=(1, 96),  # 96 > 10 rows
    )
    rows = run_sweep(d, cfg)
    by_model = {r.model: r for r in rows if r.error is not None}
    assert "TooFewRows" in by_model["polynomial"].error
    assert "InvalidConfig" in by_model["ann"].error
    failed_persistence = [r for r in rows if r.model == "persistence" and r.error]
    assert len(failed_persistence) == 1 and "SeriesTooShort" in failed_persistence[0].error
    ok_rows = [r for r in rows if r.error is None]
    assert any(r.model == "linear" for r in ok_rows)
    assert any(r.model == "persistence" for r in ok_rows)
    for r in ok_rows:
        assert r.report is not None


def test_sweep_config_validation():
    with pytest.raises(InvalidConfig):
        SweepConfig(train_fractions=(0.3,))
    with pytest.raises(InvalidConfig):
        SweepConfig(degrees=(6,))
    with pytest.raises(InvalidConfig):
        SweepConfig(models=("linear", "svm"))
    with pytest.raises(InvalidConfig):
        SweepConfig(persistence_horizons=(0,))
    cfg = SweepConfig(models=("ann", "linear"))
    assert cfg.models == ("linear", "ann")


def test_out_of_bounds_fraction_counts_unphysical_predictions(tiny_sweep):
    _, _, rows = tiny_sweep
    linear_rows = [r for r in rows if r.model == "linear" and r.error is None]
    # a straight line through a sigmoid curve dips below zero at calm winds
    assert any(r.out_of_bounds_fraction > 0 for r in linear_rows)
    for r in rows:
        if r.out_of_bounds_fraction is not None:
            assert 0.0 <= r.out_of_bounds_fraction <= 1.0


# -- report formats -----------------------------------------------------------

def test_sweep_csv_schema_and_shape(tiny_sweep):
    _, _, rows = tiny_sweep
    text = sweep_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "# schema=windforecast.sweep.v1"
    reader = csv.DictReader(io.StringIO("\n".join(lines[1:])))
    parsed = list(reader)
    assert len(parsed) == len(rows)
    ok = [p for p in parsed if p["status"] == "ok"]
    assert ok and all(float(p["r_squared"]) <= 1.0 for p in ok)


def test_sweep_json_schema(tiny_sweep):
    _, cfg, rows = tiny_sweep
    doc = json.loads(sweep_json(rows, cfg))
    assert doc["schema"] == "windforecast.sweep.v1"
    assert doc["config"]["seed"] == cfg.seed
    assert len(doc["rows"]) == len(rows)
    assert doc["rows"][0]["model"] == "persistence"


# -- plot-data emitters -------------------------------------------------------

def test_power_curve_points_rows_and_sorting():
    x = np.array([7.0, 3.0, 5.0])
    test_m = DesignMatrix(rows=x[:, None], target=2.0 + x, feature_names=("wind_speed",))
    model = regression.LinearModel(intercept=2.0, coefficients=(1.0,), feature_names=("wind_speed",))
    lines = emit_power_curve_points(model, test_m).strip().split("\n")
    assert lines[0] == "wind_speed,actual_power,predicted_power"
    assert len(lines) == 4
    speeds = [float(line.split(",")[0]) for line in lines[1:]]
    assert speeds == sorted(speeds) == [3.0, 5.0, 7.0]


def test_power_curve_linear_prediction_is_affine_in_speed(synthetic_5k):
    train_ds, test_ds = split(synthetic_5k, SplitSpec(0.85, seed=1))
    train_m = select_features(train_ds, FeatureSet.SPEED_ONLY)
    test_m = select_features(test_ds, FeatureSet.SPEED_ONLY)
    model = regression.fit_ols(train_m)
    lines = emit_power_curve_points(model, test_m).strip().split("\n")[1:]
    for line in lines[:50]:
        speed, _, predicted = (float(v) for v in line.split(","))
        assert predicted == pytest.approx(model.intercept + model.coefficients[0] * speed, rel=1e-12)


def test_power_curve_requires_speed_column():
    m = DesignMatrix(rows=np.ones((3, 1)), target=np.ones(3), feature_names=("temperature",))
    model = regression.LinearModel(intercept=0.0, coefficients=(1.0,), feature_names=("temperature",))
    with pytest.raises(FeatureMismatch):
        emit_power_curve_points(model, m)


def test_pred_vs_actual_perfect_model_sits_on_identity():
    x = np.linspace(0.0, 10.0, 9)
    test_m = DesignMatrix(rows=x[:, None], target=3.0 + 2.0 * x, feature_names=("wind_speed",))
    model = regression.LinearModel(intercept=3.0, coefficients=(2.0,), feature_names=("wind_speed",))
    lines = emit_pred_vs_actual(model, test_m).strip().split("\n")
    assert lines[0] == "actual_power,predicted_power"
    assert len(lines) == 1 + 9
    gaps = [abs(float(a) - float(p)) for a, p in (line.split(",") for line in lines[1:])]
    assert max(gaps) == 0.0


def test_ann_clusters_tighter_than_linear(synthetic_5k):
    train_ds, test_ds = split(synthetic_5k, SplitSpec(0.85, seed=3))
    train_m = select_features(train_ds, FeatureSet.SPEED_ONLY)
    test_m = select_features(test_ds, FeatureSet.SPEED_ONLY)
    linear = regression.fit_ols(train_m)
    net, _ = ann.train(
        ann.init_network(1, seed=3),
        train_m,
        ann.TrainConfig(epochs=10, seed=3),
        target_scale=synthetic_5k.rated_power,
    )
    rmse_linear = rmse(test_m.target, regression.predict_linear(linear, test_m))
    rmse_ann = rmse(test_m.target, ann.predict(net, test_m))
    assert rmse_ann < rmse_linear


def test_predict_with_rejects_unknown_model():
    m = DesignMatrix(rows=np.ones((2, 1)), target=np.ones(2), feature_names=("wind_speed",))
    with pytest.raises(FeatureMismatch):
        predict_with(object(), m)


@pytest.mark.parametrize("name", ["persistence", "svm"])
def test_fit_model_rejects_unknown_name(name):
    m = DesignMatrix(rows=np.arange(8.0)[:, None], target=np.arange(8.0), feature_names=("wind_speed",))
    with pytest.raises(InvalidConfig, match="unknown model"):
        fit_model(name, m)

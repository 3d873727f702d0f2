"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line. Criteria that depend on the full-size synthetic series
share one session dataset (n=30090, seed 42).
"""

import os
import time

import mpmath as mp
import numpy as np
import pytest

from windforecast import ann, regression
from windforecast.cli import main as cli_main
from windforecast.dataset import (
    DesignMatrix,
    FeatureSet,
    SplitSpec,
    SyntheticConfig,
    generate_synthetic,
    physical_power,
    select_features,
)
from windforecast.harness import SweepConfig, run_sweep
from windforecast.metrics import mae, r_squared, rmse
from windforecast.regression import expand_polynomial, fit_ols, fit_polynomial
from windforecast.stats import pearson

DEFAULT_FRACTIONS = (0.95, 0.90, 0.85, 0.80, 0.75, 0.70)


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


@pytest.fixture(scope="module")
def full_dataset():
    return generate_synthetic(SyntheticConfig())  # n=30090, seed 42


# -- criterion 1: OLS oracle equivalence ---------------------------------------

def _oracle_normal_equations(a, y, dps=50):
    with mp.workdps(dps):
        am = mp.matrix(a.tolist())
        ym = mp.matrix([float(v) for v in y])
        at = am.T
        beta = mp.lu_solve(at * am, at * ym)
        return np.array([float(b) for b in beta])


def test_criterion_1_ols_matches_extended_precision_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0

    def compare(matrix: DesignMatrix):
        nonlocal worst, checked
        model = fit_ols(matrix)
        fitted = np.array([model.intercept, *model.coefficients])
        augmented = np.column_stack([np.ones(matrix.n), matrix.rows])
        oracle = _oracle_normal_equations(augmented, matrix.target)
        rel = np.abs(fitted - oracle) / np.maximum(1.0, np.abs(oracle))
        worst = max(worst, float(rel.max()))
        checked += 1
        assert np.all(rel <= 1e-8)

    # 94 plain systems with k in {1, 2, 3}
    for i in range(94):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 5, 201))
        x = rng.normal(0.0, 1.0, (n, k))
        beta = rng.normal(0.0, 2.0, k + 1)
        y = beta[0] + x @ beta[1:] + rng.normal(0.0, 0.1, n)
        compare(DesignMatrix(rows=x, target=y, feature_names=tuple(f"x{j}" for j in range(k))))

    # 6 degree-5 expansions, two per base dimensionality
    for k, n in ((1, 200), (1, 120), (2, 150), (2, 120), (3, 120), (3, 110)):
        x = rng.uniform(0.5, 1.5, (n, k))
        base = DesignMatrix(rows=x, target=np.zeros(n), feature_names=tuple(f"x{j}" for j in range(k)))
        expanded = expand_polynomial(base, 5)
        beta = rng.normal(0.0, 1.0, expanded.k)
        y = 0.5 + expanded.rows @ beta + rng.normal(0.0, 0.05, n)
        compare(DesignMatrix(rows=expanded.rows, target=y, feature_names=expanded.feature_names))

    elapsed = time.monotonic() - start
    _report(
        "criterion 1 (OLS oracle equivalence, 100 systems)",
        checked == 100 and elapsed < 10.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# -- criterion 2: ANN gradient check -------------------------------------------

def test_criterion_2_gradient_check_at_init_and_after_training():
    start = time.monotonic()
    d = generate_synthetic(SyntheticConfig(n_samples=512, seed=77))
    feature_sets = {
        1: FeatureSet.SPEED_ONLY,
        2: FeatureSet.SPEED_DIRECTION,
        3: FeatureSet.SPEED_DIRECTION_TEMPERATURE,
    }
    worst = 0.0
    for dim, fs in feature_sets.items():
        matrix = select_features(d, fs)
        sample = DesignMatrix(
            rows=matrix.rows[:32], target=matrix.target[:32], feature_names=matrix.feature_names
        )
        net = ann.init_network(dim, seed=dim)
        err_init = ann.gradient_check(net, sample)
        trained, _ = ann.train(
            net, matrix, ann.TrainConfig(epochs=5, batch_size=32, seed=dim), target_scale=d.rated_power
        )
        err_trained = ann.gradient_check(trained, sample)
        worst = max(worst, err_init, err_trained)
        assert err_init < 1e-4 and err_trained < 1e-4, f"dim {dim}"
    elapsed = time.monotonic() - start
    _report(
        "criterion 2 (gradient check, dims 1-3, init + 5 epochs)",
        worst < 1e-4 and elapsed < 30.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# -- criterion 3: metric identities ---------------------------------------------

def test_criterion_3_metric_identity_suite():
    rng = np.random.default_rng(31)
    a = rng.normal(500.0, 100.0, 256)
    assert mae(a, a) == 0.0
    assert rmse(a, a) == 0.0
    assert r_squared(a, a) == 1.0
    assert r_squared(a, np.full_like(a, a.mean())) == 0.0
    for _ in range(500):
        n = int(rng.integers(1, 50))
        x = rng.normal(0.0, 50.0, n)
        y = rng.normal(0.0, 50.0, n)
        assert rmse(x, y) >= mae(x, y) - 1e-12
    for _ in range(50):
        actual = rng.normal(0.0, 1.0, 64)
        predicted = actual + rng.normal(0.0, 0.3, 64)
        alpha = float(rng.uniform(0.1, 100.0))
        beta = float(rng.uniform(-50.0, 50.0))
        assert r_squared(alpha * actual + beta, alpha * predicted + beta) == pytest.approx(
            r_squared(actual, predicted), abs=1e-9
        )
    _report("criterion 3 (metric identities)", True)


# -- criterion 4: qualitative model ordering ------------------------------------

def test_criterion_4_model_ordering_on_default_synthetic(full_dataset):
    start = time.monotonic()
    results = []
    for seed in (42, 43, 44):
        cfg = SweepConfig(
            train_fractions=(0.85,),
            feature_sets=tuple(FeatureSet),
            degrees=(5,),
            models=("linear", "polynomial", "ann"),
            seed=seed,
            ann_train=ann.TrainConfig(epochs=20, batch_size=32, learning_rate=1e-3, seed=seed),
        )
        rows = run_sweep(full_dataset, cfg)
        assert all(r.error is None for r in rows)
        best = {}
        for model in ("linear", "polynomial", "ann"):
            best[model] = max(r.report.r_squared for r in rows if r.model == model)
        results.append((seed, best))
        # ordering must hold strictly for every seed
        assert best["linear"] < best["polynomial"] <= best["ann"], f"seed {seed}: {best}"
        # regime thresholds, +/-0.02 tolerance
        assert best["linear"] >= 0.80 - 0.02, f"seed {seed}: {best}"
        assert best["polynomial"] >= 0.93 - 0.02, f"seed {seed}: {best}"
        assert best["ann"] >= 0.95 - 0.02, f"seed {seed}: {best}"
    elapsed = time.monotonic() - start
    detail = "; ".join(
        f"seed {s}: lin {b['linear']:.3f} < poly5 {b['polynomial']:.3f} <= ann {b['ann']:.3f}"
        for s, b in results
    )
    _report(
        "criterion 4 (model ordering on synthetic data)",
        elapsed < 300.0,
        f"{detail}; {elapsed:.0f}s",
    )


# -- criterion 5: training R^2 monotone in degree --------------------------------

def test_criterion_5_training_r2_nondecreasing_in_degree(full_dataset):
    worst_drop = 0.0
    for fraction in DEFAULT_FRACTIONS:
        train_rows, _ = SplitSpec(train_fraction=fraction, seed=42).sides(len(full_dataset))
        for fs in FeatureSet:
            matrix = select_features(full_dataset, fs, train_rows)
            scores = []
            for degree in (2, 3, 4, 5):
                model = fit_polynomial(matrix, degree)
                scores.append(
                    r_squared(matrix.target, regression.predict_polynomial(model, matrix))
                )
            for lower, higher in zip(scores, scores[1:]):
                worst_drop = min(worst_drop, higher - lower)
                assert higher >= lower - 1e-9, (fraction, fs, scores)
    _report(
        "criterion 5 (training R^2 monotone over degrees 2-5, full grid)",
        True,
        f"worst consecutive drop {worst_drop:.1e}",
    )


# -- criterion 6: sweep determinism ----------------------------------------------

def test_criterion_6_cli_sweep_byte_identical(tmp_path):
    data = tmp_path / "data.csv"
    assert cli_main(["gen", "--out", str(data), "--n-samples", "400", "--seed", "5"]) == 0
    args = [
        "sweep",
        "--data", str(data),
        "--seed", "7",
        "--train-fraction", "0.85,0.7",
        "--features", "speed,speed_direction_temperature",
        "--degree", "2,5",
        "--model", "persistence,linear,polynomial,ann",
        "--epochs", "2",
        "--horizons", "1,8",
    ]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(args + ["--out-dir", str(out_a)]) == 0
    assert cli_main(args + ["--out-dir", str(out_b)]) == 0
    identical_csv = (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()
    identical_json = (out_a / "sweep.json").read_bytes() == (out_b / "sweep.json").read_bytes()
    _report("criterion 6 (sweep determinism, byte-identical reports)", identical_csv and identical_json)


# -- criterion 7: conditional real-data check ------------------------------------

REAL_DATA_ENV = "WINDFORECAST_BABLESHWAR_CSV"


def test_criterion_7_real_dataset_speed_power_correlation():
    path = os.environ.get(REAL_DATA_ENV)
    if not path:
        print(f"[acceptance] criterion 7 (real-data correlation): SKIP ({REAL_DATA_ENV} not set)")
        pytest.skip(f"{REAL_DATA_ENV} not set; real dataset unavailable")
    from windforecast.dataset import parse_csv

    with open(path, "rb") as fh:
        d = parse_csv(fh)
    r = pearson(d.column("wind_speed"), d.column("power"))
    _report(
        "criterion 7 (real-data speed/power correlation)",
        abs(r - 0.934438) <= 1e-4,
        f"r={r:.6f}",
    )


# -- criterion 8: physics bounds --------------------------------------------------

def test_criterion_8_conversion_bound_and_cubic_scaling(noise_free_2k):
    cfg = SyntheticConfig(n_samples=2000, noise_sd=0.0, seed=7)
    v = noise_free_2k.column("wind_speed")
    power = noise_free_2k.column("power")
    bound = physical_power(v, cfg.air_density, 0.59, cfg.rotor_area)
    assert np.all(power <= bound)

    rng = np.random.default_rng(88)
    speeds = rng.uniform(0.0, 50.0, 1000)
    p1 = physical_power(speeds, 1.225, 0.45, 5000.0)
    p2 = physical_power(2.0 * speeds, 1.225, 0.45, 5000.0)
    octuples_exactly = np.array_equal(p2, 8.0 * p1)
    _report(
        "criterion 8 (0.59-coefficient bound and exact cubic scaling)",
        bool(np.all(power <= bound)) and octuples_exactly,
    )

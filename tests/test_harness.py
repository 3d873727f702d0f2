import csv
import functools
import io
import json
import math
import operator
import os
import re
import struct
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import fields as dataclass_fields
from dataclasses import is_dataclass, replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windforecast import ann, harness, regression
from windforecast.dataset import (
    Dataset,
    DesignMatrix,
    FeatureSet,
    MinMaxScaler,
    SplitSpec,
    SyntheticConfig,
    generate_synthetic,
    select_features,
)
from windforecast.errors import FeatureMismatch, InvalidConfig, MalformedModel, SeriesTooShort
from windforecast.harness import (
    SweepConfig,
    from_json,
    persistence_forecast,
    plot_data,
    predict_with,
    run_sweep,
    sweep_csv,
    sweep_json,
    to_json,
)
from windforecast.metrics import mae, rmse

from test_ann import narrow_net
from test_constructors import _same


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
    cfg = SweepConfig(epochs=2)
    return d, cfg, run_sweep(d, cfg)


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
    again = run_sweep(d, cfg)
    assert sweep_csv(rows) == sweep_csv(again)
    assert sweep_json(rows, cfg) == sweep_json(again, cfg)


def test_sweep_constructs_no_dataset(tiny_sweep, monkeypatch):
    """Every matrix is indexed straight out of the plant's columns: no row subset is a Dataset."""
    d, cfg, rows = tiny_sweep
    original, calls = Dataset.__init__, []

    def counting_init(self, *args, **kwargs):
        calls.append(len(args[0]))
        original(self, *args, **kwargs)

    monkeypatch.setattr(Dataset, "__init__", counting_init)
    assert sweep_csv(run_sweep(d, cfg)) == sweep_csv(rows)
    assert calls == []


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
        epochs=cfg.epochs,
    )
    (solo,) = run_sweep(d, solo_cfg)
    assert solo.report == target.report
    assert solo.out_of_bounds_fraction == target.out_of_bounds_fraction


def test_sweep_polynomial_rows_equal_fits_alone(tiny_sweep):
    """Each degree read from the sweep's shared factor is the model fit_polynomial builds alone.

    Every model row keeps the test matrix it was scored on, one object per
    (fraction, feature set); a persistence row keeps none.
    """
    d, cfg, rows = tiny_sweep
    assert [r.test for r in rows if r.model == "persistence"] == [None] * len(cfg.persistence_horizons)
    shared = {}
    for r in (r for r in rows if r.model != "persistence"):
        test_m = select_features(d, r.feature_set,
                                 SplitSpec(train_fraction=r.train_fraction, seed=cfg.seed).sides(len(d))[1])
        assert np.array_equal(r.test.rows, test_m.rows)
        assert np.array_equal(r.test.target, test_m.target)
        assert r.test.feature_names == test_m.feature_names
        assert shared.setdefault((r.train_fraction, r.feature_set), r.test) is r.test
    assert len(shared) == 6 * 4
    fs = FeatureSet.SPEED_DIRECTION_TEMPERATURE
    # the sweep's factor chains the train rows in the split's shuffled order
    spec, full = SplitSpec(train_fraction=0.85, seed=cfg.seed), select_features(d, fs)
    train_rows = spec.order(len(d))[: spec.n_train(len(d))]
    train_m = DesignMatrix(full.rows[train_rows], full.target[train_rows], fs.columns)
    swept = {
        r.degree: r.fitted for r in rows if (r.model, r.feature_set, r.train_fraction) == ("polynomial", fs, 0.85)
    }
    assert sorted(swept) == [2, 3, 4, 5]
    factor = regression.factor_design(train_m)
    for degree, model in swept.items():
        for alone in (regression.fit_polynomial(train_m, degree),
                      factor.polynomial(degree)):
            assert alone.terms == model.terms
            assert alone.coefficients == model.coefficients
            assert alone.condition_estimate == model.condition_estimate


def test_sweep_degree_too_large_for_its_rows_fails_alone():
    # 45 train rows: degree 4 of three features needs 35 coefficients, degree 5 needs 56
    d = generate_synthetic(SyntheticConfig(n_samples=60, seed=3))
    cfg = SweepConfig(train_fractions=(0.75,), feature_sets=(FeatureSet.SPEED_DIRECTION_TEMPERATURE,),
                      models=("polynomial",))
    rows = run_sweep(d, cfg)
    assert [(r.degree, r.error) for r in rows] == [
        (2, None), (3, None), (4, None), (5, "TooFewRows: need more than 55 rows, got 45")]
    assert all(r.report is not None for r in rows[:3])


def test_sweep_polynomial_row_is_the_same_bits_alone_or_among_every_fraction():
    # every train set folds two whole row blocks or more, and the largest three
    d = generate_synthetic(SyntheticConfig(n_samples=3 * regression.BLOCK_ROWS + 1500, seed=8))
    cfg = SweepConfig(feature_sets=(FeatureSet.SPEED_DIRECTION_TEMPERATURE,), models=("polynomial",))
    together = run_sweep(d, cfg)
    assert len(together) == 6 * 4 and all(r.error is None for r in together)
    for fraction in cfg.train_fractions:
        alone = run_sweep(d, replace(cfg, train_fractions=(fraction,)))
        assert alone == [r for r in together if r.train_fraction == fraction]
        assert [r.fitted for r in alone] == [r.fitted for r in together if r.train_fraction == fraction]


def test_sweep_fraction_too_small_for_a_degree_fails_only_its_own_rows():
    # 66 train rows at 0.95 fit degree 5 of three features (56 coefficients), 35 at 0.5 do not
    d = generate_synthetic(SyntheticConfig(n_samples=70, seed=3))
    cfg = SweepConfig(train_fractions=(0.95, 0.5), feature_sets=(FeatureSet.SPEED_DIRECTION_TEMPERATURE,),
                      models=("polynomial",))
    rows = run_sweep(d, cfg)
    assert [(r.train_fraction, r.degree, r.error) for r in rows] == [
        (0.95, 2, None), (0.95, 3, None), (0.95, 4, None), (0.95, 5, None),
        (0.5, 2, None), (0.5, 3, None), (0.5, 4, None), (0.5, 5, "TooFewRows: need more than 55 rows, got 35")]
    assert rows[:4] == run_sweep(d, replace(cfg, train_fractions=(0.95,)))
    # one row: every fraction leaves an empty train side, and each row says so
    one = run_sweep(generate_synthetic(SyntheticConfig(n_samples=1, seed=3)), cfg)
    assert len(one) == 8 and all(r.error.startswith("DegenerateSplit: ") for r in one)


def test_sweep_marks_each_ill_conditioned_polynomial_row_without_a_warning(tiny_sweep):
    d, cfg, _ = tiny_sweep
    cfg = replace(cfg, models=("polynomial",))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the library reports ill-conditioning on the model only
        rows = run_sweep(d, cfg)
    ill = [r for r in rows if r.fitted.ill_conditioned]
    assert 0 < len(ill) < len(rows)
    for r in rows:
        assert r.fitted.ill_conditioned == (r.fitted.condition_estimate > regression.CONDITION_LIMIT)
    # the monomials of speed alone stay well-conditioned at every degree
    assert all(r.feature_set is not FeatureSet.SPEED_ONLY for r in ill)


def test_sweep_records_failures_without_aborting():
    d = generate_synthetic(SyntheticConfig(n_samples=10, seed=2))
    cfg = SweepConfig(
        train_fractions=(0.5,),
        feature_sets=(FeatureSet.SPEED_ONLY,),
        degrees=(5,),  # 5 train rows cannot support 6 coefficients
        epochs=2,  # the ANN fails: its batch of 32 exceeds 5 train rows
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


PINNED_ANN_ROWS = {
    # (feature set, fraction): float.hex of mae, rmse and r_squared
    ("speed_only", 0.85): ("0x1.9f82268540ff7p+8", "0x1.0c45a2be0cc93p+9", "0x1.8f4cbe3840b80p-4"),
    ("speed_only", 0.7): ("0x1.a8ffaee55d2e6p+8", "0x1.0e6ae1adcaf5bp+9", "0x1.b33f0960aefe8p-4"),
    ("speed_direction", 0.85): ("0x1.853616b15135fp+8", "0x1.f5c784228db58p+8", "0x1.af69b7e70b060p-3"),
    ("speed_direction", 0.7): ("0x1.a310426373c9fp+8", "0x1.0c28d590888dbp+9", "0x1.f0203a2e7d618p-4"),
    ("speed_temperature", 0.85): ("0x1.7eba1356826fcp+8", "0x1.ec6649bf16cb6p+8", "0x1.eb49393876330p-3"),
    ("speed_temperature", 0.7): ("0x1.9c60995a6e73fp+8", "0x1.0868b8fc9a0efp+9", "0x1.2a0ee1dd4381cp-3"),
    ("speed_direction_temperature", 0.85): (
        "0x1.9d3af294edc3ap+8", "0x1.188541646b461p+9", "0x1.b0430dab68bc0p-7"),
    ("speed_direction_temperature", 0.7): (
        "0x1.93158380dbb7dp+8", "0x1.25f9a599f53b7p+9", "-0x1.ccb641e6e3d80p-5"),
}


def test_ann_sweep_rows_are_pinned():
    d = generate_synthetic(SyntheticConfig(n_samples=2000, seed=42))
    cfg = SweepConfig(train_fractions=(0.85, 0.7), models=("ann",), epochs=2)
    rows = run_sweep(d, cfg)
    got = {
        (r.feature_set.tag, r.train_fraction): tuple(
            x.hex() for x in (r.report.mae, r.report.rmse, r.report.r_squared)
        )
        for r in rows
    }
    assert [(r.feature_set.tag, r.train_fraction) for r in rows] == list(PINNED_ANN_ROWS)
    assert got == PINNED_ANN_ROWS


def explode_speed_only(monkeypatch):
    """Make every 1-input network (speed_only, the first of each stack) diverge in its first step."""
    init_network = ann.init_network

    def exploding(input_dim, hidden=ann.DEFAULT_HIDDEN, seed=0):
        net = init_network(input_dim, hidden, seed)
        if input_dim == 1:
            net = replace(net, weights=tuple(w * 1e160 for w in net.weights))
        return net

    monkeypatch.setattr(ann, "init_network", exploding)


def test_sweep_divergence_fails_only_its_own_row(monkeypatch):
    d = generate_synthetic(SyntheticConfig(n_samples=400, seed=42))
    cfg = SweepConfig(train_fractions=(0.85, 0.7), models=("ann",), epochs=2)
    calm = run_sweep(d, replace(cfg, feature_sets=tuple(FeatureSet)[1:]))
    explode_speed_only(monkeypatch)
    with np.errstate(all="ignore"):  # overflow on the way to divergence is the point
        rows = run_sweep(d, cfg)
    diverged = [r for r in rows if r.feature_set is FeatureSet.SPEED_ONLY]
    assert [r.train_fraction for r in diverged] == [0.85, 0.7]
    for row in diverged:
        assert row.report is None
        assert row.error == (
            "NonFiniteLoss: training diverged at epoch 1 (learning_rate=0.001); "
            "try a smaller learning rate"
        )
    assert [r for r in rows if r.feature_set is not FeatureSet.SPEED_ONLY] == calm


def test_sweep_trains_each_fraction_once_when_a_network_diverges(monkeypatch):
    d = generate_synthetic(SyntheticConfig(n_samples=400, seed=42))
    cfg = SweepConfig(train_fractions=(0.85, 0.7), models=("ann",), epochs=2)
    explode_speed_only(monkeypatch)
    # one process, so that every call reaches the list below
    monkeypatch.setattr(harness, "_usable_cores", lambda: 1)
    stack_sizes = []
    train_stack = ann.train_stack

    def counting(models, *args):
        stack_sizes.append(len(models))
        return train_stack(models, *args)

    monkeypatch.setattr(ann, "train_stack", counting)
    with np.errstate(all="ignore"):
        rows = run_sweep(d, cfg)
    assert stack_sizes == [4, 4]
    assert sum(r.error is not None for r in rows) == 2


def test_sweep_trains_each_fraction_once_across_worker_processes(monkeypatch, tmp_path):
    d = generate_synthetic(SyntheticConfig(n_samples=400, seed=42))
    cfg = SweepConfig(train_fractions=(0.85, 0.7, 0.6), models=("ann",), epochs=2)
    explode_speed_only(monkeypatch)
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    log = tmp_path / "stacks.log"
    train_stack = ann.train_stack

    def counting(models, *args):
        with open(log, "a") as f:  # a line this short is appended whole, from any process
            f.write(f"{os.getpid()} {len(models)}\n")
        return train_stack(models, *args)

    monkeypatch.setattr(ann, "train_stack", counting)
    with np.errstate(all="ignore"):
        rows = run_sweep(d, cfg)
    calls = [line.split() for line in log.read_text().splitlines()]
    assert sorted(size for _, size in calls) == ["4", "4", "4"]
    pids = [int(pid) for pid, _ in calls]
    assert pids.count(os.getpid()) == 2 and len(set(pids)) == 2
    assert sum(r.error is not None for r in rows) == 3


def test_sweep_gives_the_same_rows_and_bytes_in_one_process_or_several(monkeypatch):
    # 60 rows: fraction 0.5 trains on 30, fewer than a batch of 32; speed_only diverges everywhere
    d = generate_synthetic(SyntheticConfig(n_samples=60, seed=42))
    cfg = SweepConfig(train_fractions=(0.9, 0.5, 0.8), models=("linear", "ann"), epochs=2)
    explode_speed_only(monkeypatch)
    runs = {}
    for cores in (1, 2, 3):
        monkeypatch.setattr(harness, "_usable_cores", lambda: cores)
        with np.errstate(all="ignore"):
            runs[cores] = run_sweep(d, cfg)
    serial = runs[1]
    errors = [r.error for r in serial if r.model == "ann"]
    assert errors.count("InvalidConfig: batch_size 32 exceeds training rows 30") == 4
    assert sum(e is not None and e.startswith("NonFiniteLoss") for e in errors) == 2
    assert sum(e is None for e in errors) == 6
    for cores in (2, 3):
        rows = runs[cores]
        assert rows == serial
        assert sweep_csv(rows) == sweep_csv(serial) and sweep_json(rows, cfg) == sweep_json(serial, cfg)
        for row, alone in zip(rows, serial):
            assert _same(alone.fitted, row.fitted) and _same(alone.history, row.history)
            assert type(row.exception) is type(alone.exception)


def test_a_worker_that_exits_without_its_results_fails_only_its_own_rows(monkeypatch):
    import multiprocessing

    d = generate_synthetic(SyntheticConfig(n_samples=200, seed=42))
    cfg = SweepConfig(train_fractions=(0.85, 0.7), models=("ann",), epochs=2)
    parent, train_stack = os.getpid(), ann.train_stack

    def dying(models, *args):
        if os.getpid() != parent:
            os._exit(3)
        return train_stack(models, *args)

    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    monkeypatch.setattr(ann, "train_stack", dying)
    rows = run_sweep(d, cfg)
    assert [r.error for r in rows if r.train_fraction == 0.85] == [None] * 4
    lost = {r.error for r in rows if r.train_fraction == 0.7}
    assert lost == {"ChildProcessError: a worker process exited with code 3 before sending its results"}
    assert not multiprocessing.active_children()


def test_a_worker_that_sends_part_of_its_results_fails_only_its_own_rows(monkeypatch):
    import multiprocessing

    d = generate_synthetic(SyntheticConfig(n_samples=200, seed=42))
    cfg = SweepConfig(train_fractions=(0.85, 0.7), models=("ann",), epochs=2)

    def cut_short(writer, fn, items):
        # a message header that promises 1 MiB, then 7 bytes of it
        os.write(writer.fileno(), struct.pack("!i", 1 << 20) + b"partial")
        os._exit(4)

    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    monkeypatch.setattr(harness, "_send", cut_short)
    rows = run_sweep(d, cfg)
    assert [r.error for r in rows if r.train_fraction == 0.85] == [None] * 4
    lost = {r.error for r in rows if r.train_fraction == 0.7}
    assert lost == {"ChildProcessError: a worker process exited with code 4 before sending its results"}
    assert not multiprocessing.active_children()


class _TwoPartError(Exception):
    """Pickles, but its default pickle calls the constructor with one argument, so it does not unpickle."""

    def __init__(self, first, second):
        super().__init__(f"{first} and {second}")


def test_an_exception_that_does_not_pickle_reads_the_same_from_a_worker(monkeypatch):
    class LocalError(Exception):  # a local class does not pickle
        pass

    d = generate_synthetic(SyntheticConfig(n_samples=200, seed=42))
    cfg = SweepConfig(train_fractions=(0.85, 0.7, 0.6), models=("ann",), epochs=2)
    for error in (LocalError("no pickle"), _TwoPartError("pickles", "does not unpickle")):
        def failing(models, *args):
            raise error

        monkeypatch.setattr(ann, "train_stack", failing)
        runs = {}
        for cores in (1, 2):
            monkeypatch.setattr(harness, "_usable_cores", lambda: cores)
            runs[cores] = run_sweep(d, cfg)
        assert {r.error for r in runs[1]} == {f"{type(error).__name__}: {error}"}
        assert runs[2] == runs[1]
        assert sweep_csv(runs[2]) == sweep_csv(runs[1]) and sweep_json(runs[2], cfg) == sweep_json(runs[1], cfg)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="threads are counted through procfs")
def test_usable_cores_is_one_while_a_blas_thread_pool_runs():
    # without the BLAS pin numpy may start a thread pool at import; a process that runs one forks nothing
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(harness.__file__).parents[1]),
                                                     env.get("PYTHONPATH")]))
    code = ("import os; from windforecast import harness; "
            "print(len(os.listdir('/proc/self/task')), harness._usable_cores())")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    threads, cores = map(int, out.stdout.split())
    if threads > 1:
        assert cores == 1
    elif hasattr(os, "sched_getaffinity"):
        assert cores == len(os.sched_getaffinity(0))


def test_usable_cores_is_one_where_affinity_cannot_be_read(monkeypatch):
    if hasattr(os, "sched_getaffinity") and hasattr(os, "fork"):
        assert harness._usable_cores() == len(os.sched_getaffinity(0)) >= 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert harness._usable_cores() == 1


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="affinity is read on Linux only")
def test_usable_cores_is_one_while_another_python_thread_runs():
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert harness._usable_cores() == 1
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    # a joined thread's OS thread leaves procfs a moment after join returns
    deadline = time.monotonic() + 10
    while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert harness._usable_cores() == len(os.sched_getaffinity(0))


def _pool_sweep() -> tuple[int, list]:
    d = generate_synthetic(SyntheticConfig(n_samples=200, seed=42))
    cfg = SweepConfig(train_fractions=(0.85, 0.7), models=("ann",), epochs=2)
    return harness._usable_cores(), [r.error for r in run_sweep(d, cfg)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its worker")
def test_a_sweep_in_a_daemonic_pool_worker_trains_in_that_worker_alone():
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(1) as pool:
        cores, errors = pool.apply_async(_pool_sweep).get(timeout=60)
    assert cores == 1 and errors == [None] * 8


def test_sweep_batch_larger_than_train_rows_fails_every_ann_row_of_that_fraction():
    d = generate_synthetic(SyntheticConfig(n_samples=40, seed=2))
    cfg = SweepConfig(train_fractions=(0.9, 0.5), models=("ann",), epochs=2)
    rows = run_sweep(d, cfg)
    assert len(rows) == 8
    for row in rows:
        if row.train_fraction == 0.5:
            assert row.error == "InvalidConfig: batch_size 32 exceeds training rows 20"
            assert type(row.exception) is InvalidConfig and row.error.endswith(str(row.exception))
        else:
            assert row.error is None and row.exception is None


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


@pytest.mark.parametrize(
    "grid, message",
    [
        (dict(degrees=(2.7,)), "degree must be an integer, got 2.7"),
        (dict(degrees=(3.0,)), "degree must be an integer, got 3.0"),
        (dict(degrees=(True,)), "degree must be an integer, got True"),
        (dict(degrees=("2",)), "degree must be an integer, got '2'"),
        (dict(persistence_horizons=(1.9,)), "persistence_horizon must be an integer, got 1.9"),
        (dict(persistence_horizons=(False,)), "persistence_horizon must be an integer, got False"),
        (dict(feature_sets=("speed",)), r"feature_set must be one of .*, got 'speed'$"),
        (dict(feature_sets=(FeatureSet.SPEED_ONLY, ("wind_speed",))), r"feature_set must be one of .*, got \('wind_speed',\)$"),
        (dict(train_fractions=(0.3,)), r"train_fraction must lie in \[0.5, 0.99\], got 0.3"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(seed=True), "seed must be an integer, got True"),
    ],
)
def test_sweep_config_refuses_a_value_of_the_wrong_kind(grid, message):
    with pytest.raises(InvalidConfig, match=message):
        SweepConfig(**grid)


def test_sweep_config_takes_numpy_integers_as_ints():
    cfg = SweepConfig(degrees=(np.int64(3),), persistence_horizons=(np.int32(4),))
    assert cfg.degrees == (3,) and cfg.persistence_horizons == (4,)
    assert type(cfg.degrees[0]) is int and type(cfg.persistence_horizons[0]) is int


@pytest.mark.parametrize(
    "grid, message",
    [
        (dict(models=()), "no grid row for any model"),
        (dict(models=("linear",), feature_sets=()), "no grid row for linear"),
        (dict(models=("ann",), train_fractions=()), "no grid row for ann"),
        (dict(models=("linear", "polynomial"), degrees=()), "no grid row for polynomial"),
        (dict(models=("persistence", "linear"), persistence_horizons=()), "no grid row for persistence"),
        (dict(train_fractions=(0.8, 0.8)), "train_fractions lists a value more than once"),
        (dict(feature_sets=(FeatureSet.SPEED_ONLY,) * 2), "feature_sets lists a value more than once"),
        (dict(degrees=(2, 3, 2)), "degrees lists a value more than once"),
        (dict(models=("linear", "linear")), "models lists a value more than once"),
        (dict(persistence_horizons=(1, 1)), "persistence_horizons lists a value more than once"),
    ],
)
def test_sweep_config_rejects_empty_or_repeated_axes(grid, message):
    with pytest.raises(InvalidConfig, match=message):
        SweepConfig(**grid)


def test_sweep_config_allows_empty_axis_no_requested_model_needs():
    cfg = SweepConfig(models=("linear",), degrees=(), persistence_horizons=())
    assert len(list(harness._grid(cfg))) == len(cfg.feature_sets) * len(cfg.train_fractions)


@pytest.mark.parametrize(
    "config, fields",
    [(SyntheticConfig, {}), (SplitSpec, {"train_fraction": 0.8}), (ann.TrainConfig, {}), (SweepConfig, {})],
)
def test_configs_reject_negative_seed(config, fields):
    with pytest.raises(InvalidConfig, match="^seed must be >= 0, got -1$"):
        config(**fields, seed=-1)
    assert config(**fields, seed=0).seed == 0


def _wrong_kind_cases():
    """(config, field, value) for each field of the four configs and each value of the wrong kind."""
    numbers = {
        SyntheticConfig: [f.name for f in dataclass_fields(SyntheticConfig)],
        SplitSpec: ["train_fraction", "seed"],
        ann.TrainConfig: ["epochs", "batch_size", "learning_rate", "seed"],
        SweepConfig: ["seed", "epochs"],
    }
    for config, names in numbers.items():
        for name in names:
            for value in (True, "1", None, math.nan):
                yield config, name, value
    # a scalar and a string per axis, then one-value axes of the wrong kind
    axes = {
        "train_fractions": (0.8, "0.8"),
        "feature_sets": (FeatureSet.SPEED_ONLY, "speed"),
        "degrees": (5, "5"),
        "models": (None, "linear"),
        "persistence_horizons": (1, "1"),
    }
    for axis, values in axes.items():
        for value in (*values, (True,), ("1",), (None,), (math.nan,)):
            yield SweepConfig, axis, value


@pytest.mark.parametrize(
    "config, name, value",
    [pytest.param(*case, id=f"{case[0].__name__}-{case[1]}-{case[2]!r}") for case in _wrong_kind_cases()],
)
def test_configs_refuse_a_value_of_the_wrong_kind_naming_its_field(config, name, value):
    required = {"train_fraction": 0.8, "seed": 0} if config is SplitSpec else {}
    with pytest.raises(InvalidConfig, match=re.escape(name.removesuffix("s"))):
        config(**{**required, name: value})


def test_configs_store_numpy_scalars_as_plain_numbers():
    synthetic = SyntheticConfig(n_samples=np.int64(5), noise_sd=np.float32(2.5), seed=np.int64(3))
    spec = SplitSpec(train_fraction=np.float64(0.8), seed=np.int64(3))
    train = ann.TrainConfig(epochs=np.int32(2), learning_rate=np.float64(0.01), seed=np.int64(3))
    sweep = SweepConfig(train_fractions=np.array([0.8, 0.9]), seed=np.int64(3), epochs=np.int32(2))
    ints = (synthetic.n_samples, synthetic.seed, spec.seed, train.epochs, train.seed, sweep.seed, sweep.epochs)
    floats = (synthetic.noise_sd, spec.train_fraction, train.learning_rate, *sweep.train_fractions)
    assert [type(v) for v in ints] == [int] * len(ints)
    assert [type(v) for v in floats] == [float] * len(floats)


def test_sweep_json_echoes_numpy_seeds_as_plain_ints():
    numpy_seeds = SweepConfig(seed=np.int64(3), epochs=np.int64(5))
    plain_seeds = SweepConfig(seed=3, epochs=5)
    assert sweep_json([], numpy_seeds) == sweep_json([], plain_seeds)


def test_sweep_json_echoes_the_training_recipe_from_the_sweep_seed_and_epochs():
    config = json.loads(sweep_json([], SweepConfig(seed=7, epochs=3)))["config"]
    assert config["seed"] == 7
    echoed = [("epochs", 3), ("batch_size", 32), ("learning_rate", 0.001), ("seed", 7), ("optimizer", "adam")]
    assert list(config["ann_train"].items()) == echoed


def test_sweep_config_judges_epochs_before_its_other_fields():
    # a command's --epochs error reads the same whatever else is wrong
    with pytest.raises(InvalidConfig, match="^epochs must be >= 1, got 0$"):
        SweepConfig(epochs=0, seed=-1, train_fractions=(1.5,), models=("nope",))


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


# -- plot data -----------------------------------------------------------------

def test_power_curve_points_rows_and_sorting():
    x = np.array([7.0, 3.0, 5.0])
    test_m = DesignMatrix(rows=x[:, None], target=2.0 + x, feature_names=("wind_speed",))
    model = regression.LinearModel(intercept=2.0, coefficients=(1.0,), feature_names=("wind_speed",))
    lines = plot_data(model, test_m)[0].strip().split("\n")
    assert lines[0] == "wind_speed,actual_power,predicted_power"
    assert len(lines) == 4
    speeds = [float(line.split(",")[0]) for line in lines[1:]]
    assert speeds == sorted(speeds) == [3.0, 5.0, 7.0]


def test_power_curve_linear_prediction_is_affine_in_speed(synthetic_5k):
    train_m, test_m = (select_features(synthetic_5k, FeatureSet.SPEED_ONLY, rows)
                       for rows in SplitSpec(0.85, seed=1).sides(len(synthetic_5k)))
    model = regression.fit_ols(train_m)
    lines = plot_data(model, test_m)[0].strip().split("\n")[1:]
    for line in lines[:50]:
        speed, _, predicted = (float(v) for v in line.split(","))
        assert predicted == pytest.approx(model.intercept + model.coefficients[0] * speed, rel=1e-12)


def test_power_curve_requires_speed_column():
    m = DesignMatrix(rows=np.ones((3, 1)), target=np.ones(3), feature_names=("temperature",))
    model = regression.LinearModel(intercept=0.0, coefficients=(1.0,), feature_names=("temperature",))
    with pytest.raises(FeatureMismatch):
        plot_data(model, m)


def test_pred_vs_actual_perfect_model_sits_on_identity():
    x = np.linspace(0.0, 10.0, 9)
    test_m = DesignMatrix(rows=x[:, None], target=3.0 + 2.0 * x, feature_names=("wind_speed",))
    model = regression.LinearModel(intercept=3.0, coefficients=(2.0,), feature_names=("wind_speed",))
    lines = plot_data(model, test_m)[1].strip().split("\n")
    assert lines[0] == "actual_power,predicted_power"
    assert len(lines) == 1 + 9
    gaps = [abs(float(a) - float(p)) for a, p in (line.split(",") for line in lines[1:])]
    assert max(gaps) == 0.0


def test_ann_clusters_tighter_than_linear(synthetic_5k):
    train_m, test_m = (select_features(synthetic_5k, FeatureSet.SPEED_ONLY, rows)
                       for rows in SplitSpec(0.85, seed=3).sides(len(synthetic_5k)))
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


# -- model documents ----------------------------------------------------------

def _leaves(value) -> list:
    """Every type, tuple length, array byte string and scalar repr of a model, in field order."""
    if is_dataclass(value):
        return [type(value)] + [leaf for f in dataclass_fields(value) for leaf in _leaves(getattr(value, f.name))]
    if isinstance(value, tuple):
        return [len(value)] + [leaf for v in value for leaf in _leaves(v)]
    if isinstance(value, np.ndarray):
        return [(value.shape, value.dtype.str, value.tobytes())]
    return [(type(value), repr(value))]


LINEAR_DOCUMENT = """\
{
  "schema": "windforecast.model.linear.v1",
  "intercept": -12.5,
  "coefficients": [
    150.25,
    0.1
  ],
  "feature_names": [
    "wind_speed",
    "wind_direction"
  ]
}"""

POLYNOMIAL_DOCUMENT = """\
{
  "schema": "windforecast.model.polynomial.v1",
  "degree": 2,
  "terms": [
    [
      0,
      0
    ],
    [
      1,
      0
    ],
    [
      0,
      1
    ],
    [
      2,
      0
    ],
    [
      1,
      1
    ],
    [
      0,
      2
    ]
  ],
  "coefficients": [
    1.5,
    -2.0,
    0.25,
    3.0,
    -0.5,
    1e-07
  ],
  "feature_names": [
    "wind_speed",
    "temperature"
  ],
  "condition_estimate": 1234.5
}"""

MLP_DOCUMENT = """\
{
  "schema": "windforecast.model.mlp.v1",
  "layer_sizes": [
    1,
    1,
    1,
    1,
    1,
    1
  ],
  "activations": [
    "relu",
    "relu",
    "sigmoid",
    "sigmoid",
    "identity"
  ],
  "weights": [
    [
      0.5
    ],
    [
      -1.25
    ],
    [
      2.0
    ],
    [
      0.75
    ],
    [
      3.0
    ]
  ],
  "biases": [
    [
      0.1
    ],
    [
      0.0
    ],
    [
      -0.5
    ],
    [
      0.25
    ],
    [
      -1.0
    ]
  ],
  "input_scaler": {
    "mins": [
      0.0
    ],
    "maxs": [
      25.0
    ]
  },
  "target_scale": 500.0
}"""


def _pinned_models():
    linear = regression.LinearModel(
        intercept=-12.5, coefficients=(150.25, 0.1), feature_names=("wind_speed", "wind_direction")
    )
    polynomial = regression.PolynomialModel(
        degree=2,
        terms=((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)),
        coefficients=(1.5, -2.0, 0.25, 3.0, -0.5, 1e-07),
        feature_names=("wind_speed", "temperature"),
        condition_estimate=1234.5,
    )
    net = narrow_net(w=[0.5, -1.25, 2.0, 0.75, 3.0], b=[0.1, 0.0, -0.5, 0.25, -1.0], target_scale=500.0)
    mlp = replace(net, input_scaler=MinMaxScaler(mins=[0.0], maxs=[25.0]))
    return [(linear, LINEAR_DOCUMENT), (polynomial, POLYNOMIAL_DOCUMENT), (mlp, MLP_DOCUMENT)]


def test_model_documents_are_pinned():
    for model, document in _pinned_models():
        assert to_json(model) == document
        assert _leaves(from_json(document)) == _leaves(model)


def _document_paths(node, path=()):
    """The path (keys and list indices) to every scalar of a JSON document."""
    if not isinstance(node, (dict, list)):
        yield path
        return
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield from _document_paths(child, (*path, key))


# JSON values that are no model parameter, and plain numbers, which may be one
_HOSTILE_VALUES = st.one_of(
    st.sampled_from([True, False, None, math.nan, math.inf, -math.inf, 10**400, -10**400, {}]),
    st.text(max_size=3),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=2),
    st.integers(),
    st.floats(),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_hostile_value_at_any_document_leaf_is_refused_or_round_trips(data):
    for _, document in _pinned_models():
        for path in _document_paths(json.loads(document)):
            doc = json.loads(document)
            *parents, last = path
            functools.reduce(operator.getitem, parents, doc)[last] = data.draw(_HOSTILE_VALUES, label=repr(path))
            try:
                model = from_json(json.dumps(doc))
            except MalformedModel:
                continue
            assert _leaves(from_json(to_json(model))) == _leaves(model)

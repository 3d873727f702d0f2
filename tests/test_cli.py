import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from windforecast import ann, cli, regression
from windforecast.cli import _featured_row, main
from windforecast.dataset import (
    DesignMatrix,
    FeatureSet,
    SplitSpec,
    SyntheticConfig,
    generate_synthetic,
    parse_csv,
    select_features,
)
from windforecast.errors import DataError, NonFiniteLoss, NumericError, TooFewRows
from windforecast.harness import SweepConfig, SweepRow, plot_data, run_sweep


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    code = run(["gen", "--out", path, "--n-samples", 400, "--seed", 9])
    assert code == 0
    return path


def test_gen_writes_parseable_deterministic_csv(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["gen", "--out", a, "--n-samples", 100, "--seed", 1]) == 0
    assert run(["gen", "--out", b, "--n-samples", 100, "--seed", 1]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(parse_csv(a.read_text())) == 100


def test_gen_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "plant.cfg"
    cfg.write_text("n_samples=50\nrated_power=1000  # one megawatt\nseed=3\n")
    out = tmp_path / "d.csv"
    assert run(["gen", "--out", out, "--config", cfg, "--n-samples", 75]) == 0
    d = parse_csv(out.read_text())
    assert len(d) == 75  # flag beats file
    assert max(d.column("power")) <= 1.05 * 1000.0


def test_gen_rejects_bad_config_key(tmp_path):
    cfg = tmp_path / "plant.cfg"
    cfg.write_text("rotor_diameter=100\n")
    assert run(["gen", "--out", tmp_path / "d.csv", "--config", cfg]) == 2


def test_gen_config_value_of_wrong_type_exits_2(tmp_path, capsys):
    cfg = tmp_path / "plant.cfg"
    cfg.write_text("seed=3\nn_samples=1e3\n")
    assert run(["gen", "--out", tmp_path / "d.csv", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:2:" in err and "n_samples" in err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run(["gen"])  # --out is required
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "flag, value", [("--train-fraction", "abc"), ("--degree", "x"), ("--horizons", "1,a")]
)
def test_sweep_bad_number_is_usage_error(data_csv, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--data", data_csv, flag, value])
    assert exc.value.code == 1
    assert f"argument {flag}" in capsys.readouterr().err


def test_mixed_timestamp_offsets_exit_2(tmp_path, capsys):
    path = tmp_path / "mixed.csv"
    path.write_text(
        "timestamp,wind_speed,wind_direction,temperature,power\n"
        "2019-01-01T00:00:00,5.0,100.0,20.0,400.0\n"
        "2019-01-01T00:15:00+00:00,6.0,110.0,21.0,600.0\n"
    )
    assert run(["correlate", "--data", path, "--out-dir", tmp_path]) == 2
    assert "data error: row 2: " in capsys.readouterr().err


def test_zero_rated_power_exits_2_with_short_message(data_csv, tmp_path, capsys):
    assert run(["correlate", "--data", data_csv, "--rated-power", 0, "--out-dir", tmp_path]) == 2
    assert capsys.readouterr().err == "data error: rated_power must be finite and > 0, got 0.0\n"


@pytest.mark.parametrize("command", ["gen", "fit", "sweep", "gradcheck"])
def test_negative_seed_exits_2_with_short_message(data_csv, tmp_path, capsys, command):
    out = tmp_path / "out"
    args = {
        "gen": ["--out", out / "d.csv"],
        "fit": ["--data", data_csv, "--out-dir", out],
        "sweep": ["--data", data_csv, "--out-dir", out],
        "gradcheck": [],
    }[command]
    assert run([command, *args, "--seed", -1]) == 2
    assert capsys.readouterr().err == "data error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value", [("--noise-sd", "nan"), ("--rotor-area", "inf"), ("--air-density", "nan")]
)
def test_gen_non_finite_setting_exits_2_naming_it(tmp_path, capsys, flag, value):
    assert run(["gen", "--out", tmp_path / "d.csv", flag, value]) == 2
    field = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == f"data error: {field} must be finite, got {value}\n"
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize(
    "flags", [["--model", ","], ["--model", "linear", "--features", ","], ["--train-fraction", "0.8,0.8"]]
)
def test_sweep_empty_or_repeated_axis_exits_2(data_csv, tmp_path, capsys, flags):
    assert run(["sweep", "--data", data_csv, "--out-dir", tmp_path / "out", *flags]) == 2
    assert capsys.readouterr().err.startswith("data error: ")
    assert not (tmp_path / "out").exists()


def test_non_utf8_data_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(
        b"timestamp,wind_speed,wind_direction,temperature,power\n"
        b"2019-01-01T00:00:00,5.0,100.0,20.0,400.0\xff\n"
    )
    assert run(["correlate", "--data", path, "--out-dir", tmp_path]) == 2
    assert "data error: input is not UTF-8: invalid byte at offset 94" in capsys.readouterr().err


def test_cell_over_the_csv_field_limit_exits_2_naming_its_row(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text(
        "timestamp,wind_speed,wind_direction,temperature,power\n"
        f"2019-01-01T00:00:00,{'5' * 200_000},100.0,20.0,400.0\n"
    )
    assert run(["correlate", "--data", path, "--out-dir", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == "data error: 1 invalid row(s): row 1: field larger than field limit (131072)\n"


def test_missing_data_file_exits_2(tmp_path):
    assert run(["correlate", "--data", tmp_path / "nope.csv"]) == 2


def test_data_path_that_is_a_directory_exits_2(tmp_path, capsys):
    assert run(["correlate", "--data", tmp_path]) == 2
    assert f"data error: data path is not a regular file: {tmp_path}" in capsys.readouterr().err


def test_config_path_that_is_a_directory_exits_2(tmp_path, capsys):
    assert run(["gen", "--out", tmp_path / "d.csv", "--config", tmp_path]) == 2
    assert f"config path is not a regular file: {tmp_path}" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


def test_non_utf8_config_exits_2_with_the_offset(tmp_path, capsys):
    cfg = tmp_path / "plant.cfg"
    cfg.write_bytes(b"seed=3\nnoise_sd=2\xb50\n")
    assert run(["gen", "--out", tmp_path / "d.csv", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"data error: config {cfg} is not UTF-8: invalid byte at offset 17\n"
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("under_a_file", [False, True], ids=["names", "under-a-file"])
@pytest.mark.parametrize("command", ["correlate", "fit", "sweep", "plot-data", "reproduce", "gen"])
def test_output_path_of_the_wrong_kind_exits_2_before_reading_data(
    monkeypatch, data_csv, tmp_path, capsys, command, under_a_file
):
    # an --out-dir that is a file or lies under one, a gen --out that is a directory or lies under a file
    (tmp_path / "dir").mkdir()
    if command == "gen":
        out = data_csv / "d.csv" if under_a_file else tmp_path / "dir"
        args = ["--out", out]
    else:
        out = data_csv / "out" if under_a_file else data_csv
        args = ["--quick"] if command == "reproduce" else ["--data", data_csv]
        args += ["--out-dir", out]
    if command == "gen" and not under_a_file:
        message = f"output file {out} is a directory"
    else:
        where = out.parent if command == "gen" else out
        message = f"output directory {where} cannot be made: {data_csv} is not a directory"
    before = sorted(tmp_path.rglob("*"))

    def no_data(*args):
        raise AssertionError("data was read")

    monkeypatch.setattr(cli, "_load_dataset", no_data)
    monkeypatch.setattr(cli, "generate_synthetic", no_data)
    assert run([command, *args]) == 2
    assert capsys.readouterr() == ("", f"data error: {message}\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_correlate_outputs(data_csv, tmp_path, capsys):
    out = tmp_path / "corr"
    assert run(["correlate", "--data", data_csv, "--out-dir", out]) == 0
    printed = capsys.readouterr().out
    assert "wind_speed" in printed
    lines = (out / "correlation_heatmap.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 16


def test_fit_prints_metrics(data_csv, capsys):
    assert run(["fit", "--data", data_csv, "--model", "linear", "--features", "speed"]) == 0
    printed = capsys.readouterr().out
    assert "mae=" in printed and "rmse=" in printed and "r_squared=" in printed


def test_fit_persistence(data_csv, capsys):
    assert run(["fit", "--data", data_csv, "--model", "persistence", "--horizon", "4"]) == 0
    assert "r_squared=" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--train-fraction", "5", "train_fraction must lie in [0.5, 0.99], got 5.0"),
        ("--features", "bogus", "unknown feature set 'bogus'"),
        ("--epochs", "0", "epochs must be >= 1"),
    ],
)
def test_fit_persistence_checks_model_flags(data_csv, capsys, flag, value, message):
    assert run(["fit", "--data", data_csv, "--model", "persistence", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--model", "polynomial", "--degree", 5], "need more than 55 rows, got 51"),
        (["--model", "ann", "--features", "speed", "--train-fraction", 0.5], "batch_size 32 exceeds training rows 30"),
    ],
)
def test_fit_failure_keeps_the_fits_own_message(tmp_path, capsys, flags, message):
    path = tmp_path / "small.csv"
    assert run(["gen", "--out", path, "--n-samples", 60, "--seed", 5]) == 0
    capsys.readouterr()
    assert run(["fit", "--data", path, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"data error: {message}\n"
    assert captured.out == ""


def test_fit_checks_its_settings_before_reading_data(tmp_path, capsys):
    assert run(["fit", "--data", tmp_path / "missing.csv", "--train-fraction", 5]) == 2
    assert capsys.readouterr().err == "data error: train_fraction must lie in [0.5, 0.99], got 5.0\n"


def test_fit_ignores_the_flags_its_model_does_not_use(data_csv):
    # a degree names a polynomial row only, a horizon a persistence row only
    assert run(["fit", "--data", data_csv, "--model", "linear", "--degree", 7, "--horizon", 0]) == 0


def test_fit_polynomial_requires_degree(data_csv):
    assert run(["fit", "--data", data_csv, "--model", "polynomial"]) == 1


def test_fit_saves_model(data_csv, tmp_path):
    out = tmp_path / "models"
    assert (
        run(
            [
                "fit", "--data", data_csv, "--model", "polynomial", "--degree", 3,
                "--features", "speed", "--out-dir", out,
            ]
        )
        == 0
    )
    doc = json.loads((out / "polynomial_model.json").read_text())
    assert doc["schema"] == "windforecast.model.polynomial.v1"
    assert doc["degree"] == 3


def test_fit_ann_saves_history(data_csv, tmp_path):
    out = tmp_path / "ann"
    assert (
        run(
            [
                "fit", "--data", data_csv, "--model", "ann", "--features", "speed",
                "--epochs", 2, "--out-dir", out,
            ]
        )
        == 0
    )
    history = (out / "ann_loss_history.csv").read_text().strip().split("\n")
    assert history[0] == "epoch,loss"
    assert len(history) == 3


@pytest.mark.parametrize("model, degree", [("linear", 2), ("polynomial", 3), ("ann", 2)])
def test_fit_agrees_with_sweep_row(data_csv, capsys, model, degree):
    argv = [
        "fit", "--data", data_csv, "--model", model, "--degree", degree,
        "--features", "speed_direction", "--train-fraction", 0.8, "--epochs", 2,
    ]
    assert run(argv) == 0
    printed = dict(re.findall(r"^(\w+)=(\S+)", capsys.readouterr().out, re.MULTILINE))
    cfg = SweepConfig(
        train_fractions=(0.8,),
        feature_sets=(FeatureSet.SPEED_DIRECTION,),
        degrees=(degree,),
        models=(model,),
        epochs=2,
    )
    (row,) = run_sweep(parse_csv(data_csv.read_bytes()), cfg)
    report = row.report
    assert printed["r_squared"] == f"{report.r_squared:.5f}"
    assert printed["mae"] == f"{report.mae:.5f}"
    assert printed["rmse"] == f"{report.rmse:.5f}"
    assert int(printed["n_test"]) == report.n_samples


def test_numeric_failure_exits_3(tmp_path, capsys):
    rows = ["timestamp,wind_speed,wind_direction,temperature,power"]
    for i in range(10):
        rows.append(f"2019-01-01T{i:02d}:00:00,5.0,100.0,20.0,{100.0 * i}")
    bad = tmp_path / "constant_speed.csv"
    bad.write_text("\n".join(rows) + "\n")
    code = run(["fit", "--data", bad, "--model", "linear", "--features", "speed", "--train-fraction", "0.5"])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def test_sweep_writes_reports(data_csv, tmp_path):
    out = tmp_path / "reports"
    code = run(
        [
            "sweep", "--data", data_csv, "--model", "persistence,linear,polynomial",
            "--features", "speed,speed_direction", "--train-fraction", "0.85,0.7",
            "--degree", "2,3", "--horizons", "1,4", "--out-dir", out,
        ]
    )
    assert code == 0
    csv_lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "# schema=windforecast.sweep.v1"
    # 2 persistence + 4 linear + 8 polynomial rows + header
    assert len(csv_lines) == 2 + 2 + 4 + 8
    doc = json.loads((out / "sweep.json").read_text())
    assert len(doc["rows"]) == 14


def test_plot_data_files(data_csv, tmp_path):
    out = tmp_path / "plots"
    code = run(
        [
            "plot-data", "--data", data_csv, "--model", "polynomial", "--degree", 3,
            "--features", "speed", "--train-fraction", "0.8", "--out-dir", out,
        ]
    )
    assert code == 0
    curve = (out / "polynomial_power_curve.csv").read_text().strip().split("\n")
    scatter = (out / "polynomial_pred_vs_actual.csv").read_text().strip().split("\n")
    assert curve[0] == "wind_speed,actual_power,predicted_power"
    assert len(curve) == len(scatter) == 1 + 80  # 20% of 400 rows


@pytest.mark.parametrize(
    "args, n_fractions",
    [
        (["plot-data", "--data", "{data}", "--model", "linear", "--train-fraction", "0.8"], 1),
        (["reproduce", "--quick", "--n-samples", 400, "--epochs", 3], 2),
    ],
)
def test_plotting_commands_split_each_fraction_once(data_csv, tmp_path, monkeypatch, args, n_fractions):
    """The plot files come from the rows the sweep scored, not from a second split."""
    original = SplitSpec.sides
    calls = []

    def counting_sides(spec, n):
        calls.append(spec.train_fraction)
        return original(spec, n)

    monkeypatch.setattr(SplitSpec, "sides", counting_sides)
    argv = [str(data_csv) if a == "{data}" else a for a in args]
    assert run([*argv, "--out-dir", tmp_path / "out"]) == 0
    assert len(calls) == len(set(calls)) == n_fractions


def test_gradcheck_passes(capsys):
    assert run(["gradcheck", "--seed", 3]) == 0
    assert "OK" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--seed", -1], ["--n-samples", 0], ["--quick", "--epochs", 0]])
def test_reproduce_bad_setting_exits_2_before_writing(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert run(["reproduce", "--out-dir", out, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("data error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_reproduce_failed_featured_row_exits_with_its_error(tmp_path, capsys):
    # 51 training rows cannot fit the 56 coefficients of the degree-5 polynomial
    out = tmp_path / "out"
    assert run(["reproduce", "--quick", "--n-samples", 60, "--out-dir", out]) == 2
    assert capsys.readouterr().err == (
        # the two failed degree-5 rows are not counted among the scored fits
        "warning: 4 of 14 polynomial fits have a condition estimate above 1e+10; "
        "their coefficients may be unstable\n"
        "data error: sweep row polynomial speed_direction_temperature 0.85 degree=5 failed: "
        "TooFewRows: need more than 55 rows, got 51\n"
    )
    assert not list(out.glob("*_power_curve.csv"))


@pytest.mark.parametrize(
    "exception, kind",
    [
        (TooFewRows("need more than 55 rows, got 51"), DataError),
        (NonFiniteLoss(2, 0.001), NumericError),
        (np.linalg.LinAlgError("Singular matrix"), NumericError),
    ],
)
def test_reproduce_failed_featured_row_keeps_its_error_kind(exception, kind):
    error = f"{type(exception).__name__}: {exception}"
    row = SweepRow(
        model="ann", feature_set=FeatureSet.SPEED_DIRECTION_TEMPERATURE, train_fraction=0.85,
        degree=None, horizon=None, report=None, out_of_bounds_fraction=None, error=error,
        exception=exception,
    )
    message = f"sweep row ann speed_direction_temperature 0.85 degree=None failed: {error}"
    with pytest.raises(kind) as exc:
        _featured_row([row], "ann", None)
    assert type(exc.value) is kind and str(exc.value) == message


def _ill_conditioned_line(dataset, cfg: SweepConfig) -> str:
    """The stderr line for ``cfg``'s sweep, its counts read from the fitted polynomial models."""
    fits = [r.fitted for r in run_sweep(dataset, cfg) if r.model == "polynomial" and r.report is not None]
    ill = sum(model.ill_conditioned for model in fits)
    assert 0 < ill < len(fits)
    return (f"warning: {ill} of {len(fits)} polynomial fits have a condition estimate above 1e+10; "
            "their coefficients may be unstable\n")


def test_ill_conditioned_polynomial_fits_are_counted_on_one_stderr_line(data_csv, tmp_path, capsys):
    assert run(["sweep", "--data", data_csv, "--model", "polynomial", "--out-dir", tmp_path / "sweep"]) == 0
    err = capsys.readouterr().err
    assert err == _ill_conditioned_line(parse_csv(data_csv.read_bytes()), SweepConfig(models=("polynomial",)))
    assert " 96 polynomial fits " in err

    assert run(["reproduce", "--quick", "--n-samples", 600, "--epochs", 1, "--out-dir", tmp_path / "rep"]) == 0
    err = capsys.readouterr().err
    quick = SweepConfig(train_fractions=(0.85, 0.70), degrees=(2, 5), models=("polynomial",))
    assert err == _ill_conditioned_line(generate_synthetic(SyntheticConfig(n_samples=600, seed=42)), quick)
    assert " 16 polynomial fits " in err

    assert run(["fit", "--data", data_csv, "--model", "linear"]) == 0
    assert capsys.readouterr().err == ""


def test_reproduce_plots_the_sweep_models(tmp_path):
    """The plot data equals a direct refit of each model at 0.85 with all three features."""
    out = tmp_path / "out"
    assert run(["reproduce", "--quick", "--n-samples", 2000, "--epochs", 5, "--out-dir", out]) == 0
    rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()[1:]))
    # 2 persistence horizons + 4 feature sets x 2 fractions x (linear, 2 degrees, ann)
    assert len(rows) == 2 + 4 * 2 * 4
    assert {r["status"] for r in rows} == {"ok"}
    doc = json.loads((out / "sweep.json").read_text())
    assert [r["r_squared"] for r in doc["rows"]] == [float(r["r_squared"]) for r in rows]

    dataset = generate_synthetic(SyntheticConfig(n_samples=2000, seed=42))
    fs = FeatureSet.SPEED_DIRECTION_TEMPERATURE
    train_m, test_m = (select_features(dataset, fs, rows)
                       for rows in SplitSpec(train_fraction=0.85, seed=42).sides(len(dataset)))
    # --quick caps the ANN at 3 epochs
    net, history = ann.train(
        ann.init_network(3, seed=42), train_m, ann.TrainConfig(epochs=3, seed=42), target_scale=dataset.rated_power
    )
    # the sweep's polynomial factor chains the train rows in the split's shuffled order
    spec, full = SplitSpec(train_fraction=0.85, seed=42), select_features(dataset, fs)
    shuffled = spec.order(2000)[: spec.n_train(2000)]
    shuffled_m = DesignMatrix(full.rows[shuffled], full.target[shuffled], fs.columns)
    models = {
        "linear": regression.fit_ols(train_m),
        "polynomial_deg5": regression.fit_polynomial(shuffled_m, 5),
        "ann": net,
    }
    n_test = 2000 - int(2000 * 0.85)
    for name, model in models.items():
        curve, scatter = plot_data(model, test_m)
        assert (out / f"{name}_power_curve.csv").read_text() == curve
        assert (out / f"{name}_pred_vs_actual.csv").read_text() == scatter
        assert len(curve.splitlines()) == len(scatter.splitlines()) == 1 + n_test
    loss_csv = (out / "ann_loss_history.csv").read_text()
    assert loss_csv == ann.history_to_csv(history)
    assert len(loss_csv.splitlines()) == 1 + 3


def test_cli_import_loads_no_scipy():
    # the runtime is numpy alone: scipy, where installed, is a test reference only
    code = (f"import sys; sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r}); import windforecast.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_commands_that_train_at_most_one_stack_load_no_multiprocessing(tmp_path):
    # only a sweep with ANN rows of two or more train fractions forks workers, and only it loads the module
    data, out = str(tmp_path / "data.csv"), str(tmp_path / "out")
    commands = [
        ["gen", "--out", data, "--n-samples", "300"],
        ["sweep", "--data", data, "--out-dir", out, "--model", "persistence,linear,polynomial"],
        ["fit", "--data", data, "--model", "ann", "--epochs", "1"],
        ["plot-data", "--data", data, "--model", "ann", "--epochs", "1", "--out-dir", out],
    ]
    code = (f"import sys; sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r}); from windforecast import cli; "
            f"codes = [cli.main(argv) for argv in {commands!r}]; print(codes, 'multiprocessing' in sys.modules)")
    stdout = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert stdout.splitlines()[-1] == "[0, 0, 0, 0] False"

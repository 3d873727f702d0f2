"""Command-line interface.

Commands: gen, correlate, fit, sweep, plot-data, gradcheck, reproduce.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import ann, harness, regression, stats
from .dataset import Dataset, FeatureSet, SyntheticConfig, generate_synthetic, parse_csv, select_features
from .dataset import decode_utf8, write_csv
from .errors import DataError, InvalidConfig, NumericError

GRADCHECK_TOLERANCE = 1e-4

# SyntheticConfig field -> the type of its default, for gen's flags and config file
_SYNTHETIC_TYPES = {f.name: type(f.default) for f in dataclass_fields(SyntheticConfig)}

# reproduce plots these sweep rows at 0.85 with all three features: plot-file prefix -> (model, degree)
_FEATURED_FRACTION = 0.85
_FEATURED_FEATURES = FeatureSet.SPEED_DIRECTION_TEMPERATURE
_FEATURED_ROWS = {"linear": ("linear", None), "polynomial_deg5": ("polynomial", 5), "ann": ("ann", None)}


class _UsageError(Exception):
    """Command-line misuse that argparse cannot express declaratively."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract reserves 2
    # for data errors, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _input_file(path: Path, what: str) -> Path:
    """``path``, after checking that it names a regular file."""
    if not path.exists():
        raise DataError(f"{what} file not found: {path}")
    if not path.is_file():
        raise DataError(f"{what} path is not a regular file: {path}")
    return path


def _load_dataset(args) -> Dataset:
    return parse_csv(_input_file(Path(args.data), "data").read_bytes(), rated_power=args.rated_power)


def _out_dir_arg(text: str) -> Path:
    """``--out-dir``'s argparse type: refused (exit 2) unless it is, or can be made, a directory."""
    path = Path(text)
    nearest = next(p for p in (path, *path.parents) if p.exists())
    if not nearest.is_dir():
        raise DataError(f"output directory {path} cannot be made: {nearest} is not a directory")
    return path


def _out_file_arg(text: str) -> Path:
    """``gen --out``'s argparse type: refused (exit 2) if it is a directory or its own cannot be made."""
    path = Path(text)
    if path.is_dir():
        raise DataError(f"output file {path} is a directory")
    _out_dir_arg(str(path.parent))
    return path


def _out_dir(args) -> Path:
    """The checked ``--out-dir``, made with its parents just before a command writes to it."""
    args.out_dir.mkdir(parents=True, exist_ok=True)
    return args.out_dir


def _floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _feature_sets(text: str) -> list[FeatureSet]:
    return [FeatureSet.parse(part) for part in text.split(",") if part.strip()]


def _read_config_file(path: Path) -> dict:
    """Flat key=value synthetic config; '#' starts a comment."""
    text = decode_utf8(_input_file(path, "config").read_bytes(), f"config {path}")
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise InvalidConfig(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        if key not in _SYNTHETIC_TYPES:
            raise InvalidConfig(f"{path}:{lineno}: unknown key {key!r}")
        kind = _SYNTHETIC_TYPES[key]
        try:
            values[key] = kind(raw.strip())
        except ValueError:
            raise InvalidConfig(f"{path}:{lineno}: {key} must be {kind.__name__}, got {raw.strip()!r}") from None
    return values


def _cmd_gen(args) -> int:
    values = _read_config_file(Path(args.config)) if args.config else {}
    for name in _SYNTHETIC_TYPES:
        flag_value = getattr(args, name)
        if flag_value is not None:
            values[name] = flag_value
    config = SyntheticConfig(**values)
    dataset = generate_synthetic(config)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(write_csv(dataset))
    print(f"wrote {len(dataset)} rows to {args.out}")
    return 0


def _cmd_correlate(args) -> int:
    dataset = _load_dataset(args)
    cm = stats.correlation_matrix(dataset)
    width = max(len(label) for label in cm.labels)
    print(" " * (width + 1) + "  ".join(f"{label:>14s}" for label in cm.labels))
    for i, label in enumerate(cm.labels):
        cells = "  ".join(f"{cm.values[i, j]:14.6f}" for j in range(len(cm.labels)))
        print(f"{label:>{width}s} {cells}")
    print(f"wrote {_write_heatmap(_out_dir(args), cm)}")
    return 0


def _write_heatmap(out: Path, cm: stats.CorrelationMatrix) -> Path:
    path = out / "correlation_heatmap.csv"
    path.write_text(stats.heatmap_csv(cm))
    return path


def _one_row_sweep(command: str, args) -> harness.SweepConfig:
    """The one-row sweep that fit and plot-data run, every setting checked before data is read.

    A degree is an axis of the polynomial only and a horizon of persistence
    only, so another model neither uses nor checks those flags.
    """
    if args.model == "polynomial" and args.degree is None:
        raise _UsageError(f"{command}: --degree is required when --model polynomial")
    return harness.SweepConfig(
        train_fractions=(args.train_fraction,),
        feature_sets=(FeatureSet.parse(args.features),),
        degrees=(args.degree,) if args.model == "polynomial" else (),
        models=(args.model,),
        seed=args.seed,
        epochs=args.epochs,
        persistence_horizons=(args.horizon,) if args.model == "persistence" else (),
    )


def _run_sweep(dataset: Dataset, cfg: harness.SweepConfig) -> list[harness.SweepRow]:
    """``cfg``'s sweep rows; one stderr line counts the ill-conditioned polynomial fits, if any."""
    rows = harness.run_sweep(dataset, cfg)
    fits = [r.fitted for r in rows if r.model == "polynomial" and r.report is not None]
    if ill := sum(model.ill_conditioned for model in fits):
        limit = regression.CONDITION_LIMIT
        print(f"warning: {ill} of {len(fits)} polynomial fits have a condition estimate above {limit:.0e}; "
              "their coefficients may be unstable", file=sys.stderr)
    return rows


def _sweep_row(dataset: Dataset, cfg: harness.SweepConfig) -> harness.SweepRow:
    """The one row of ``cfg``'s sweep; a failed row raises its own exception."""
    (row,) = _run_sweep(dataset, cfg)
    if row.exception is not None:
        raise row.exception
    return row


def _cmd_fit(args) -> int:
    cfg = _one_row_sweep("fit", args)
    row = _sweep_row(_load_dataset(args), cfg)
    report = row.report
    print(f"model={args.model} features={args.features} train_fraction={args.train_fraction}")
    print(f"mae={report.mae:.5f} kW")
    print(f"rmse={report.rmse:.5f} kW")
    print(f"r_squared={report.r_squared:.5f}")
    print(f"n_test={report.n_samples}")
    if args.out_dir is not None and row.fitted is not None:
        out = _out_dir(args)
        model_path = out / f"{args.model}_model.json"
        model_path.write_text(harness.to_json(row.fitted))
        if row.history is not None:
            (out / "ann_loss_history.csv").write_text(ann.history_to_csv(row.history))
        print(f"wrote {model_path}")
    return 0


def _cmd_sweep(args) -> int:
    dataset = _load_dataset(args)
    cfg = harness.SweepConfig(
        train_fractions=args.train_fraction,
        feature_sets=_feature_sets(args.features),
        degrees=args.degree,
        models=tuple(m.strip() for m in args.model.split(",") if m.strip()),
        seed=args.seed,
        epochs=args.epochs,
        persistence_horizons=args.horizons,
    )
    rows = _run_sweep(dataset, cfg)
    csv_path, json_path = _write_sweep(_out_dir(args), rows, cfg)
    print(f"{len(rows)} configurations ({sum(r.error is not None for r in rows)} failed)")
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return 0


def _write_sweep(out: Path, rows, cfg: harness.SweepConfig) -> tuple[Path, Path]:
    paths = out / "sweep.csv", out / "sweep.json"
    for path, text in zip(paths, (harness.sweep_csv(rows), harness.sweep_json(rows, cfg))):
        path.write_text(text)
    return paths


def _cmd_plot_data(args) -> int:
    row = _sweep_row(_load_dataset(args), _one_row_sweep("plot-data", args))
    for path in _write_plot_data(_out_dir(args), args.model, row):
        print(f"wrote {path}")
    return 0


def _write_plot_data(out: Path, prefix: str, row: harness.SweepRow) -> tuple[Path, Path]:
    """The plot files of a scored row's model on the test rows it was scored on."""
    paths = out / f"{prefix}_power_curve.csv", out / f"{prefix}_pred_vs_actual.csv"
    for path, text in zip(paths, harness.plot_data(row.fitted, row.test)):
        path.write_text(text)
    return paths


def _cmd_gradcheck(args) -> int:
    sample_sets = {
        1: FeatureSet.SPEED_ONLY,
        2: FeatureSet.SPEED_DIRECTION,
        3: FeatureSet.SPEED_DIRECTION_TEMPERATURE,
    }
    dataset = generate_synthetic(SyntheticConfig(n_samples=256, seed=args.seed))
    worst = 0.0
    for dim, fs in sample_sets.items():
        full = select_features(dataset, fs)
        sample = select_features(dataset, fs, slice(32))
        net = ann.init_network(dim, seed=args.seed)
        err_init = ann.gradient_check(net, sample)
        trained, _ = ann.train(
            net,
            full,
            ann.TrainConfig(epochs=5, batch_size=16, seed=args.seed),
            target_scale=dataset.rated_power,
        )
        err_trained = ann.gradient_check(trained, sample)
        worst = max(worst, err_init, err_trained)
        print(
            f"input_dim={dim}: max relative error {err_init:.3e} at init, "
            f"{err_trained:.3e} after 5 epochs"
        )
    if worst >= GRADCHECK_TOLERANCE:
        print(f"FAIL: worst error {worst:.3e} >= {GRADCHECK_TOLERANCE:.0e}", file=sys.stderr)
        return 3
    print(f"OK: worst error {worst:.3e} < {GRADCHECK_TOLERANCE:.0e}")
    return 0


def _featured_row(rows, model: str, degree: int | None) -> harness.SweepRow:
    """The sweep row ``reproduce`` plots for ``model``; a failed row raises its exception's kind."""
    key = (model, _FEATURED_FEATURES, _FEATURED_FRACTION, degree)
    row = next(r for r in rows if (r.model, r.feature_set, r.train_fraction, r.degree) == key)
    if row.exception is not None:
        kind = DataError if isinstance(row.exception, DataError) else NumericError
        where = f"{model} {_FEATURED_FEATURES.tag} {_FEATURED_FRACTION} degree={degree}"
        raise kind(f"sweep row {where} failed: {row.error}")
    return row


def _cmd_reproduce(args) -> int:
    # every setting is checked before the first file is written
    synthetic = SyntheticConfig(n_samples=args.n_samples, seed=args.seed)
    grid = dict(train_fractions=(_FEATURED_FRACTION, 0.70), degrees=(2, 5)) if args.quick else {}
    epochs = min(args.epochs, 3) if args.quick else args.epochs
    cfg = harness.SweepConfig(seed=args.seed, epochs=epochs, **grid)

    t0 = time.time()
    dataset = generate_synthetic(synthetic)
    out = _out_dir(args)
    data_path = out / "synthetic.csv"
    data_path.write_text(write_csv(dataset))
    print(f"dataset: {len(dataset)} rows -> {data_path}")
    cm = stats.correlation_matrix(dataset)
    _write_heatmap(out, cm)
    print(f"corr(speed, power) = {cm.lookup('wind_speed', 'power'):.6f}")

    rows = _run_sweep(dataset, cfg)
    csv_path, _ = _write_sweep(out, rows, cfg)
    failed = sum(r.error is not None for r in rows)
    print(f"sweep: {len(rows)} configurations ({failed} failed) -> {csv_path}")
    for model in cfg.models:
        scored = [r for r in rows if r.model == model and r.report is not None]
        if scored:
            best = max(scored, key=lambda r: r.report.r_squared)
            label = f"fs={best.feature_set.tag}" if best.feature_set else f"h={best.horizon}"
            extra = f" deg={best.degree}" if best.degree else ""
            print(
                f"  best {model:<12s} R^2={best.report.r_squared:.5f} "
                f"mae={best.report.mae:8.3f} rmse={best.report.rmse:8.3f} ({label}{extra})"
            )

    featured = {name: _featured_row(rows, *key) for name, key in _FEATURED_ROWS.items()}
    (out / "ann_loss_history.csv").write_text(ann.history_to_csv(featured["ann"].history))
    for name, row in featured.items():
        _write_plot_data(out, name, row)
        print(f"plot data: {name}")
    print(f"done in {time.time() - t0:.0f}s")
    return 0


def _add_model_flags(command: argparse.ArgumentParser, models: tuple[str, ...]) -> None:
    """The data, model and split flags that fit and plot-data share (see _one_row_sweep)."""
    command.add_argument("--data", required=True)
    command.add_argument("--model", choices=models, default="linear")
    command.add_argument("--features", default="speed_direction_temperature")
    command.add_argument("--degree", type=int, default=None)
    command.add_argument("--train-fraction", dest="train_fraction", type=float, default=0.85)
    command.add_argument("--seed", type=int, default=42)
    command.add_argument("--epochs", type=int, default=20)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="windforecast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    gen.add_argument("--out", type=_out_file_arg, required=True, help="output CSV path")
    gen.add_argument("--config", help="flat key=value config file")
    for name, kind in _SYNTHETIC_TYPES.items():
        gen.add_argument("--" + name.replace("_", "-"), dest=name, type=kind, default=None)
    gen.set_defaults(func=_cmd_gen)

    correlate = sub.add_parser("correlate", help="correlation matrix and heatmap plot data")
    correlate.add_argument("--data", required=True)
    correlate.add_argument("--rated-power", dest="rated_power", type=float, default=None)
    correlate.add_argument("--out-dir", dest="out_dir", type=_out_dir_arg, default=".")
    correlate.set_defaults(func=_cmd_correlate)

    fit = sub.add_parser("fit", help="fit one model and print its evaluation")
    _add_model_flags(fit, harness.MODEL_ORDER)
    fit.add_argument("--horizon", type=int, default=1, help="persistence steps ahead")
    fit.add_argument("--rated-power", dest="rated_power", type=float, default=None)
    fit.add_argument(
        "--out-dir", dest="out_dir", type=_out_dir_arg, default=None, help="save the fitted model here"
    )
    fit.set_defaults(func=_cmd_fit)

    sweep = sub.add_parser("sweep", help="run the full experiment grid")
    sweep.add_argument("--data", required=True)
    sweep.add_argument("--seed", type=int, default=42)
    sweep.add_argument(
        "--train-fraction",
        dest="train_fraction",
        type=_floats,
        default=",".join(str(f) for f in harness.DEFAULT_FRACTIONS),
    )
    sweep.add_argument(
        "--features",
        default=",".join(fs.tag for fs in FeatureSet),
    )
    sweep.add_argument("--degree", type=_ints, default="2,3,4,5")
    sweep.add_argument("--model", default=",".join(harness.MODEL_ORDER))
    sweep.add_argument("--epochs", type=int, default=20)
    sweep.add_argument(
        "--horizons", type=_ints, default=",".join(str(h) for h in harness.DEFAULT_HORIZONS)
    )
    sweep.add_argument("--rated-power", dest="rated_power", type=float, default=None)
    sweep.add_argument("--out-dir", dest="out_dir", type=_out_dir_arg, default=".")
    sweep.set_defaults(func=_cmd_sweep)

    plot_data = sub.add_parser("plot-data", help="power-curve and pred-vs-actual plot files")
    _add_model_flags(plot_data, harness.TRAINABLE_MODELS)
    plot_data.add_argument("--rated-power", dest="rated_power", type=float, default=None)
    plot_data.add_argument("--out-dir", dest="out_dir", type=_out_dir_arg, default=".")
    plot_data.set_defaults(func=_cmd_plot_data)

    gradcheck = sub.add_parser("gradcheck", help="verify the backward pass numerically")
    gradcheck.add_argument("--seed", type=int, default=0)
    gradcheck.set_defaults(func=_cmd_gradcheck)

    reproduce = sub.add_parser("reproduce", help="synthetic plant -> sweep tables and plot data")
    reproduce.add_argument("--out-dir", dest="out_dir", type=_out_dir_arg, default="results")
    reproduce.add_argument("--n-samples", dest="n_samples", type=int, default=SyntheticConfig.n_samples)
    reproduce.add_argument("--seed", type=int, default=42)
    reproduce.add_argument("--epochs", type=int, default=20)
    reproduce.add_argument("--quick", action="store_true", help="fractions 0.85/0.70, degrees 2/5, <= 3 epochs")
    reproduce.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # an output flag's type refuses its path here
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

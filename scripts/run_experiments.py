#!/usr/bin/env python3
"""Reproduce the full evaluation grid on a synthetic plant.

Generates the default 30090-row dataset, runs every model across the
feature-set x train-fraction x degree grid, and writes the report tables
plus the plot-data files behind the power-curve and predicted-vs-actual
figures. Everything lands under --out-dir (default ./results).

Typical use:
    python scripts/run_experiments.py
    python scripts/run_experiments.py --quick        # small grid, seconds
    python scripts/run_experiments.py --epochs 30 --seed 7
"""

import argparse
import sys
import time
import warnings
from pathlib import Path

from windforecast import ann, harness, stats
from windforecast.dataset import (
    FeatureSet,
    SplitSpec,
    SyntheticConfig,
    generate_synthetic,
    select_features,
    split,
    write_csv,
)
from windforecast.errors import ConditionWarning


def featured_plot_data(dataset, out_dir: Path, seed: int, epochs: int) -> None:
    """Plot data for each model at the 85/15 split with all three features."""
    train_ds, test_ds = split(dataset, SplitSpec(train_fraction=0.85, seed=seed))
    fs = FeatureSet.SPEED_DIRECTION_TEMPERATURE
    train_m, test_m = select_features(train_ds, fs), select_features(test_ds, fs)
    ann_train = ann.TrainConfig(epochs=epochs, seed=seed)
    fits = {
        label: harness.fit_model(
            name, train_m, degree=5, ann_train=ann_train, target_scale=dataset.rated_power
        )
        for label, name in (("linear", "linear"), ("polynomial_deg5", "polynomial"), ("ann", "ann"))
    }
    (out_dir / "ann_loss_history.csv").write_text(ann.history_to_csv(fits["ann"][1]))
    for name, (model, _) in fits.items():
        curve, scatter = harness.plot_data(model, test_m)
        (out_dir / f"{name}_power_curve.csv").write_text(curve)
        (out_dir / f"{name}_pred_vs_actual.csv").write_text(scatter)
        print(f"plot data: {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--n-samples", type=int, default=30090)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--quick", action="store_true", help="reduced grid for a dry run")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    dataset = generate_synthetic(SyntheticConfig(n_samples=args.n_samples, seed=args.seed))
    data_path = out_dir / "synthetic.csv"
    data_path.write_text(write_csv(dataset))
    print(f"dataset: {len(dataset)} rows -> {data_path}")

    cm = stats.correlation_matrix(dataset)
    (out_dir / "correlation_heatmap.csv").write_text(stats.heatmap_csv(cm))
    print(f"corr(speed, power) = {cm.lookup('wind_speed', 'power'):.6f}")

    grid = dict(train_fractions=(0.85, 0.70), degrees=(2, 5)) if args.quick else {}
    epochs = min(args.epochs, 3) if args.quick else args.epochs
    cfg = harness.SweepConfig(
        seed=args.seed, ann_train=ann.TrainConfig(epochs=epochs, seed=args.seed), **grid
    )
    with warnings.catch_warnings():
        # raw degree-5 direction monomials trip the condition warning on
        # every fit; the estimate is recorded per model, keep the log quiet
        warnings.simplefilter("ignore", ConditionWarning)
        rows = harness.run_sweep(dataset, cfg)
        (out_dir / "sweep.csv").write_text(harness.sweep_csv(rows))
        (out_dir / "sweep.json").write_text(harness.sweep_json(rows, cfg))
        failed = sum(1 for r in rows if r.error is not None)
        print(f"sweep: {len(rows)} configurations ({failed} failed) -> {out_dir / 'sweep.csv'}")

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

        featured_plot_data(dataset, out_dir, args.seed, epochs)
    print(f"done in {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

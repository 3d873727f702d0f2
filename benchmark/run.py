#!/usr/bin/env python3
"""Benchmark of the windforecast CLI, run from the root of a source checkout.

    python3 benchmark/run.py --workload ann-sweep --seed 1 --seconds 30 --trace 0

Imports the program from ``src/`` of the checkout and drives it only
through ``windforecast.cli.main``, in a fresh worker process per step. It
sets up the workload's inputs several times (reporting the median set-up
time), then runs measured passes while another pass still fits in
``--seconds``, checks the outputs of the passes and prints one JSON object as
its last line of output: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. Run outputs go to
``bench_out/`` in the checkout. See benchmark/README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads here and inherited by every
# worker: multithreaded OpenBLAS spent 1.9x the CPU time on regression-sweep
# on two cores without saving wall time.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 5
# The whole run must end within 180 s; no step may start after this.
LAST_START_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "best_r2": "1",
}


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


# Per-layer metric -> (unit, value from one traced pass's span summary).
# A layer the workload does not reach reads 0.
PER_LAYER = {
    "ann.train.s": ("s", lambda s, c: s("ann.train")),
    "ann.train.step_us": ("us", lambda s, c: 1e6 * _rate(s("ann.train"), c("ann.train.steps"))),
    "ann.train.sample_epochs": ("count", lambda s, c: c("ann.train.sample_epochs")),
    "ann.predict.s": ("s", lambda s, c: s("ann.predict")),
    "regression.fit_polynomial.s": ("s", lambda s, c: s("regression.fit_polynomial")),
    "regression.expand_polynomial.s": ("s", lambda s, c: s("regression.expand_polynomial")),
    "regression.fit_ols.s": ("s", lambda s, c: s("regression.fit_ols")),
    "regression.predict_polynomial.s": ("s", lambda s, c: s("regression.predict_polynomial")),
    "regression.predict_linear.s": ("s", lambda s, c: s("regression.predict_linear")),
    "regression.fits": ("count", lambda s, c: c("regression.fits")),
    "dataset.split.s": ("s", lambda s, c: s("dataset.split")),
    "dataset.select_features.s": ("s", lambda s, c: s("dataset.select_features")),
    "dataset.Dataset.s": ("s", lambda s, c: s("dataset.Dataset")),
    "dataset.Dataset.column.s": ("s", lambda s, c: s("dataset.Dataset.column")),
    "dataset.Dataset.rows": ("count", lambda s, c: c("dataset.Dataset.rows")),
    "dataset.parse_csv.s": ("s", lambda s, c: s("dataset.parse_csv")),
    "dataset.parse_csv.rows_per_s": (
        "rows/s", lambda s, c: _rate(c("dataset.parse_csv.rows"), s("dataset.parse_csv"))),
    "dataset.write_csv.s": ("s", lambda s, c: s("dataset.write_csv")),
    "dataset.generate_synthetic.s": ("s", lambda s, c: s("dataset.generate_synthetic")),
    "stats.correlation_matrix.s": ("s", lambda s, c: s("stats.correlation_matrix")),
    "stats.heatmap_csv.s": ("s", lambda s, c: s("stats.heatmap_csv")),
    "cli.main.self_s": ("s", lambda s, c: s("cli.main", "self_s")),
    "harness.run_sweep.self_s": ("s", lambda s, c: s("harness.run_sweep", "self_s")),
    "harness.persistence_forecast.s": ("s", lambda s, c: s("harness.persistence_forecast")),
    "harness.sweep_csv.s": ("s", lambda s, c: s("harness.sweep_csv")),
    "harness.sweep_json.s": ("s", lambda s, c: s("harness.sweep_json")),
    "metrics.EvalReport.from_predictions.s": (
        "s", lambda s, c: s("metrics.EvalReport.from_predictions")),
}
OVERHEAD = ("trace.overhead_s", "s")


def layer_metrics(summary: dict) -> dict:
    layers, counts = summary["layers"], summary["counts"]

    def s(name, key="s"):
        return layers.get(name, {}).get(key, 0.0)

    def c(name):
        return counts.get(name, 0)

    return {metric: fn(s, c) for metric, (_, fn) in PER_LAYER.items()}


class Run:
    """One benchmark run: its directory, its clock and its worker processes."""

    def __init__(self, name: str, seed: int, trace: bool, scale, out_root: Path):
        self.workload = workloads.WORKLOADS[name](scale, seed)
        self.dir = out_root / f"{name}-seed{seed}-trace{int(trace)}"
        self.inputs = self.dir / "inputs"
        self.spec = {"workload": name, "seed": seed, "scale": asdict(scale),
                     "src": str(ROOT / "src"), "inputs": str(self.inputs)}
        self.started = time.perf_counter()

    def child(self, step: str, tag: str, **spec) -> dict:
        """Run one worker step to completion; returns its result and duration."""
        elapsed = time.perf_counter() - self.started
        if elapsed > LAST_START_S:
            raise TimeoutError(f"run has taken {elapsed:.0f} s; not starting {tag}")
        spec_path = self.dir / f"{tag}.spec.json"
        result_path = self.dir / f"{tag}.result.json"
        spec_path.write_text(json.dumps({**self.spec, **spec}))
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), step, str(spec_path), str(result_path)],
            check=True, stdout=sys.stderr, timeout=180.0 - elapsed - 5.0,
        )
        result = json.loads(result_path.read_text())
        result["process_s"] = time.perf_counter() - t0
        return result


def measure(name: str, seed: int, seconds: float, trace: bool,
            scale=workloads.Scale(), out_root: Path = ROOT / "bench_out") -> dict:
    """Set up, run and check one workload; returns the result object."""
    run = Run(name, seed, trace, scale, out_root)
    shutil.rmtree(run.dir, ignore_errors=True)
    run.inputs.mkdir(parents=True)
    setup_s = [run.child("setup", f"setup-{i}")["setup_s"] for i in range(SETUP_REPEATS)]

    wl = run.workload
    modes = (False, True) if trace else (False,)
    passes, problems = [], []
    attempted = failed = 0
    measured_s = 0.0
    best_r2 = digest0 = None
    while True:
        round_s = 0.0
        for traced in modes:
            out = run.dir / f"pass-{len(passes)}"
            result = run.child("pass", out.name, out=str(out), trace=traced)
            round_s += result["process_s"]
            ops = result["ops"]
            attempted += wl.attempted()
            failed += wl.failed(ops, out)
            digest = wl.outputs_digest(ops, out)
            if not passes:
                try:
                    found, best_r2 = wl.check(run.inputs, ops, out)
                except (OSError, ValueError, KeyError) as exc:
                    found, best_r2 = [f"{out.name}: unreadable output: {exc!r}"], 0.0
                problems += found
                digest0 = digest
            else:
                if digest != digest0:
                    problems.append(f"{out.name}: outputs differ from pass-0")
                if traced:
                    shutil.move(out / "trace.jsonl", run.dir / f"trace-{out.name}.jsonl")
                shutil.rmtree(out)
            result["traced"] = traced
            passes.append(result)
        measured_s += round_s
        if measured_s + round_s > seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    if trace:
        traced = [p for p in passes if p["traced"]]
        values = [layer_metrics(p["trace"]) for p in traced]
        metrics = {
            metric: {"value": statistics.median(v[metric] for v in values), "unit": unit}
            for metric, (unit, _) in PER_LAYER.items()
        }
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - statistics.median(p["wall_s"] for p in plain))
        metrics[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1]}
    else:
        wall_s = statistics.median(p["wall_s"] for p in plain)
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall_s,
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "items_per_s": wl.items() / wall_s,
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
            "best_r2": best_r2 if math.isfinite(best_r2) else 0.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "passes": len(passes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "windforecast" / "cli.py").is_file():
        print(f"no windforecast sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("threads: " + " ".join(f"{k}={v}" for k, v in THREADS.items())
          + f"; passes: {result.pop('passes')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

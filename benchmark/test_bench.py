"""Tests of the benchmark itself, at toy size.

Every workload must run and pass its checks, the traced run must report
every per-layer metric, and every check must reject an output corrupted in
the way it guards against.

    python3 -m pytest benchmark/test_bench.py -q
"""

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

# Small enough for seconds per workload; 20 epochs keep every ANN above the
# 0.95 threshold on 1,700 training rows.
TOY = workloads.Scale(plant_rows=2000, long_rows=4000, ann_epochs=20)
SEED = 3

EXPECTED_FAILED = {"ann-sweep": 0, "regression-sweep": 0, "csv-ingest": 1}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Untraced and traced toy runs of every workload: {(name, trace): (result, dir)}."""
    root = tmp_path_factory.mktemp("bench_out")
    out = {}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run.measure(name, SEED, 0, trace, TOY, root)
            out[name, trace] = result, root / f"{name}-seed{SEED}-trace{int(trace)}"
    return out


def first_pass(run_dir: Path):
    ops = json.loads((run_dir / "pass-0.result.json").read_text())["ops"]
    return run_dir / "inputs", ops, run_dir / "pass-0"


def toy(name):
    return workloads.WORKLOADS[name](TOY, SEED)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks(runs, name):
    for trace in (False, True):
        result, _ = runs[name, trace]
        assert result["correct"], result
        passes = result["attempted"] // toy(name).attempted()
        assert result["attempted"] == passes * toy(name).attempted()
        assert result["failed"] == passes * EXPECTED_FAILED[name]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_metrics_match_benchmark_json(runs, name):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics = runs[name, trace][0]["metrics"]
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in metrics.items()} == declared
        assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(m["value"] > 0 for m in runs[name, False][0]["metrics"].values())


def test_layer_counts(runs):
    ann = runs["ann-sweep", True][0]["metrics"]
    assert ann["ann.train.sample_epochs"]["value"] == toy("ann-sweep").items()
    assert ann["regression.fits"]["value"] == 0
    reg = runs["regression-sweep", True][0]["metrics"]
    assert reg["regression.fits"]["value"] == 24 + 96
    # parse validates every row once, each of the six splits once more
    assert reg["dataset.Dataset.rows"]["value"] == 7 * TOY.long_rows
    assert reg["ann.train.s"]["value"] == 0
    csv_ = runs["csv-ingest", True][0]["metrics"]
    assert csv_["dataset.parse_csv.rows_per_s"]["value"] > 0
    assert csv_["harness.run_sweep.self_s"]["value"] == 0


# -- each check rejects a corrupted output ---------------------------------------


@pytest.fixture()
def sweep_rows(runs):
    def load(name):
        inputs, _, out = first_pass(runs[name, False][1])
        rows = workloads._sweep_rows(out / "sweep.csv")
        plant = workloads.read_plant(inputs / "plant.csv")
        assert toy(name).check_rows(rows, plant) == []
        return rows, plant

    return load


def _problems_after(name, rows, plant, index, **changes):
    rows = copy.deepcopy(rows)
    rows[index].update({k: str(v) for k, v in changes.items()})
    return " | ".join(toy(name).check_rows(rows, plant))


@pytest.mark.parametrize("name", ["ann-sweep", "regression-sweep"])
def test_sweep_checks_reject_corruption(sweep_rows, name):
    rows, plant = sweep_rows(name)
    i = len(rows) - 1
    row = rows[i]
    r2 = float(row["r_squared"])
    assert "1 - n*rmse^2/SS_tot" in _problems_after(name, rows, plant, i, r_squared=r2 - 1e-6)
    assert "n_test" in _problems_after(name, rows, plant, i, n_test=int(row["n_test"]) + 1)
    assert "> rmse" in _problems_after(name, rows, plant, i, mae=float(row["rmse"]) * 1.01)
    assert "status" in _problems_after(name, rows, plant, i, status="RankDeficient: x")
    assert "grid" in " ".join(toy(name).check_rows(rows[:-1], plant))


def _consistent_r2(row, plant, r2):
    """rmse that keeps the R^2 identity true for a chosen r_squared."""
    f = float(row["train_fraction"])
    actual = plant.columns["power"][workloads.split_indices(plant.n, f)[1]]
    ss_tot = float(((actual - actual.mean()) ** 2).sum())
    return {"r_squared": r2, "rmse": math.sqrt((1 - r2) * ss_tot / len(actual)),
            "mae": 0.0}


def test_ann_threshold_rejects_weak_network(sweep_rows):
    rows, plant = sweep_rows("ann-sweep")
    problems = _problems_after("ann-sweep", rows, plant, 0, **_consistent_r2(rows[0], plant, 0.9))
    assert "below 0.95" in problems and "SS_tot" not in problems


def test_regression_recomputations_reject_wrong_r2(sweep_rows):
    rows, plant = sweep_rows("regression-sweep")
    persistence = rows.index(next(r for r in rows if r["model"] == "persistence"))
    problems = _problems_after("regression-sweep", rows, plant, persistence,
                               r_squared=float(rows[persistence]["r_squared"]) + 1e-6)
    assert "recomputed" in problems
    for model, degree in (("linear", ""), ("polynomial", "2"), ("polynomial", "3")):
        i = next(j for j, r in enumerate(rows) if r["model"] == model and r["degree"] == degree)
        wrong = float(rows[i]["r_squared"]) - 1e-6
        problems = _problems_after("regression-sweep", rows, plant, i,
                                   **_consistent_r2(rows[i], plant, wrong))
        assert "recomputed" in problems and "SS_tot" not in problems, (model, degree)


def test_sweep_check_reads_files(runs, tmp_path):
    inputs, ops, out = first_pass(runs["regression-sweep", False][1])
    corrupted = tmp_path / "pass"
    shutil.copytree(out, corrupted)
    text = (corrupted / "sweep.csv").read_text().splitlines()
    text[3] = text[3].replace(",ok", ",ValueError: boom")
    (corrupted / "sweep.csv").write_text("\n".join(text) + "\n")
    problems, _ = toy("regression-sweep").check(inputs, ops, corrupted)
    assert any("status" in p for p in problems)
    assert toy("regression-sweep").failed(ops, corrupted) == 1


@pytest.fixture()
def ingest(runs, tmp_path):
    inputs, ops, out = first_pass(runs["csv-ingest", False][1])
    corrupted = tmp_path / "pass"
    shutil.copytree(out, corrupted)
    wl = toy("csv-ingest")
    assert wl.check(inputs, ops, corrupted)[0] == []
    return wl, inputs, ops, corrupted


def test_ingest_flaw_checks_reject_corruption(ingest):
    wl, inputs, ops, out = ingest
    flaws = wl.flaws()
    flawed_ops = ops[3:]
    assert [op["exit"] for op in flawed_ops] == [2, 2, 2, 2, 1]
    assert flawed_ops[-1]["failed"] and "TypeError" in flawed_ops[-1]["stderr"]
    for flaw, op in zip(flaws[:-1], flawed_ops):
        assert wl.check_flaw(flaw, op) == []
        assert "expected 2" in wl.check_flaw(flaw, {**op, "exit": 1})[0]
        vague = {**op, "stderr": "data error: something is wrong\n"}
        assert "names none" in wl.check_flaw(flaw, vague)[0]
        off_by_one = {**op, "stderr": op["stderr"].replace(f"row {flaw.row}", f"row {flaw.row}0")}
        if flaw.name != "timestamp_order":
            assert wl.check_flaw(flaw, off_by_one)
    # a mended mixed-offset file passes when it exits 2 naming the row
    mended = {**flawed_ops[-1], "exit": 2, "failed": False,
              "stderr": f"data error: row {flaws[-1].row}: mixed UTC offsets\n"}
    assert wl.check_flaw(flaws[-1], mended) == []


def test_ingest_output_checks_reject_corruption(ingest):
    wl, inputs, ops, out = ingest
    plant = workloads.read_plant(out / "plant.csv")
    short = dataclasses.replace(plant, timestamps=plant.timestamps[:-1])
    assert "rows" in wl.check_plant(short)[0]
    stamps = list(plant.timestamps)
    stamps[5] = stamps[5].replace(":15:", ":16:") if ":15:" in stamps[5] else stamps[5][:-2] + "01"
    assert "15-minute" in wl.check_plant(dataclasses.replace(plant, timestamps=tuple(stamps)))[0]

    heatmap = out / "correlate" / "correlation_heatmap.csv"
    lines = heatmap.read_text().splitlines()
    label_a, label_b, value = lines[2].split(",")
    lines[2] = f"{label_a},{label_b},{float(value) + 1e-9!r}"
    heatmap.write_text("\n".join(lines) + "\n")
    assert "corrcoef" in wl.check_heatmap(heatmap, plant)[0]

    fit = ops[2]["stdout"]
    r2 = float(fit.split("r_squared=")[1].split()[0])
    assert wl.check_fit(fit, plant)[0] == []
    wrong = fit.replace(f"r_squared={r2:.5f}", f"r_squared={r2 + 2e-5:.5f}")
    assert "lstsq" in wl.check_fit(wrong, plant)[0][0]
    n_test = fit.split("n_test=")[1].split()[0]
    assert "n_test" in wl.check_fit(fit.replace(f"n_test={n_test}", "n_test=1"), plant)[0][0]
    gen_failed = [{**ops[0], "exit": 3}] + ops[1:]
    assert "exited 3" in wl.check(inputs, gen_failed, out)[0][0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "csv-ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

import csv
import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_run_writes_reports_and_plot_data(tmp_path):
    argv = ["--quick", "--n-samples", "2000", "--epochs", "5", "--out-dir", str(tmp_path)]
    assert load_script().main(argv) == 0

    csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert csv_lines[0] == "# schema=windforecast.sweep.v1"
    rows = list(csv.DictReader(csv_lines[1:]))
    # 2 persistence horizons + 4 feature sets x 2 fractions x (linear, 2 degrees, ann)
    assert len(rows) == 2 + 4 * 2 * 4
    assert {r["status"] for r in rows} == {"ok"}
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert [r["r_squared"] for r in doc["rows"]] == [float(r["r_squared"]) for r in rows]

    n_test = 2000 - int(2000 * 0.85)
    for name in ("linear", "polynomial_deg5", "ann"):
        curve = (tmp_path / f"{name}_power_curve.csv").read_text().splitlines()
        scatter = (tmp_path / f"{name}_pred_vs_actual.csv").read_text().splitlines()
        assert curve[0] == "wind_speed,actual_power,predicted_power"
        assert scatter[0] == "actual_power,predicted_power"
        assert len(curve) == len(scatter) == 1 + n_test
    history = (tmp_path / "ann_loss_history.csv").read_text().splitlines()
    # --quick caps every ANN fit at 3 epochs, the plot-data fit included
    assert history[0] == "epoch,loss" and len(history) == 1 + 3

"""The benchmark's workloads: their inputs, their CLI calls and their checks.

Each workload makes its inputs from the workload seed in ``setup``, lists
the ``windforecast`` CLI calls of one measured pass in ``commands``, and
checks a pass's outputs in ``check`` against computations made here with
numpy alone, never with the program's own code. This module imports no
``windforecast`` code; ``setup`` reaches the program only through the
``invoke`` callable the worker passes in.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

CSV_HEADER = ("timestamp", "wind_speed", "wind_direction", "temperature", "power")

# Row count of the Bableshwar record the paper uses (15-minute samples).
PLANT_ROWS = 30_090

# The split seed every sweep and fit call uses: the CLI's default, given
# explicitly so the checks can rebuild the split.
SPLIT_SEED = 42

FEATURES = {
    "speed_only": ("wind_speed",),
    "speed_direction": ("wind_speed", "wind_direction"),
    "speed_temperature": ("wind_speed", "temperature"),
    "speed_direction_temperature": ("wind_speed", "wind_direction", "temperature"),
}

# README: on the default synthetic plant every ANN reaches test R^2 0.95.
ANN_R2_THRESHOLD = 0.95

# Agreement allowed between the program and the lstsq / corrcoef
# recomputations. Both sides are least-squares minimisers of the same
# system, so R^2 differs only at second order in the coefficient error.
R2_TOL = 1e-9
CORR_TOL = 1e-12
# `fit` prints R^2 with 5 decimals.
PRINTED_R2_TOL = 5e-6 + 1e-12


@dataclass(frozen=True)
class Scale:
    """Input sizes; the defaults are the measured ones, tests use toy sizes."""

    plant_rows: int = PLANT_ROWS
    long_rows: int = 4 * PLANT_ROWS
    ann_epochs: int = 3


# -- independent readers and arithmetic ----------------------------------------


@dataclass(frozen=True)
class Plant:
    """A plant CSV as read here: timestamp strings and float64 columns."""

    timestamps: tuple[str, ...]
    columns: dict

    @property
    def n(self) -> int:
        return len(self.timestamps)


def read_plant(path: Path) -> Plant:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"{path}: header {header}")
        rows = [row for row in reader if row]
    values = np.array([[float(x) for x in row[1:]] for row in rows], dtype=np.float64)
    values = values.reshape(len(rows), len(CSV_HEADER) - 1)
    return Plant(
        timestamps=tuple(row[0] for row in rows),
        columns={name: values[:, j] for j, name in enumerate(CSV_HEADER[1:])},
    )


def split_indices(n: int, fraction: float, seed: int = SPLIT_SEED):
    """The documented split: first floor(n*f) of a PCG64 permutation train."""
    n_train = math.floor(n * fraction)
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def r_squared(actual, predicted) -> float:
    resid = actual - predicted
    centred = actual - actual.mean()
    return 1.0 - float(resid @ resid) / float(centred @ centred)


def lstsq_test_r2(plant: Plant, features, fraction: float, degree: int) -> float:
    """Test R^2 of a least-squares fit of every monomial up to ``degree``."""
    base = np.column_stack([plant.columns[name] for name in features])
    exponents = [
        e for e in itertools.product(range(degree + 1), repeat=base.shape[1])
        if 1 <= sum(e) <= degree
    ]
    design = np.ones((plant.n, len(exponents) + 1))
    for j, e in enumerate(exponents, start=1):
        for feature, power in enumerate(e):
            if power:
                design[:, j] *= base[:, feature] ** power
    train, test = split_indices(plant.n, fraction)
    norms = np.linalg.norm(design[train], axis=0)
    target = plant.columns["power"]
    coef, *_ = np.linalg.lstsq(design[train] / norms, target[train], rcond=None)
    return r_squared(target[test], (design[test] / norms) @ coef)


def _sweep_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# schema="):
        raise ValueError(f"{path}: no schema line")
    return list(csv.DictReader(lines[1:]))


def _r2_identity_problem(label: str, row: dict, actual: np.ndarray) -> str | None:
    """r_squared must equal 1 - n_test * rmse^2 / SS_tot of the test targets."""
    n_test = int(row["n_test"])
    rmse, r2 = float(row["rmse"]), float(row["r_squared"])
    centred = actual - actual.mean()
    expected = 1.0 - n_test * rmse * rmse / float(centred @ centred)
    if not abs(r2 - expected) <= R2_TOL * max(1.0, abs(expected)):
        return f"{label}: r_squared {r2!r} but 1 - n*rmse^2/SS_tot = {expected!r}"
    return None


# -- workloads ------------------------------------------------------------------


class Sweep:
    """A `windforecast sweep` over one generated plant CSV."""

    models: str
    fractions: tuple[float, ...]
    degrees: tuple[int, ...] = (2, 3, 4, 5)
    horizons: tuple[int, ...] = (1, 96)

    def __init__(self, scale: Scale, seed: int):
        self.scale = scale
        self.seed = seed

    @property
    def n_rows(self) -> int:
        return self.scale.plant_rows

    def setup(self, inputs: Path, invoke) -> None:
        op = invoke(["gen", "--out", str(inputs / "plant.csv"),
                     "--n-samples", str(self.n_rows), "--seed", str(self.seed)])
        if op["exit"] != 0:
            raise RuntimeError(f"gen failed: {op['stderr']}")

    def extra_args(self) -> list[str]:
        return []

    def commands(self, inputs: Path, out: Path) -> list[list[str]]:
        return [[
            "sweep", "--data", str(inputs / "plant.csv"), "--out-dir", str(out),
            "--model", self.models,
            "--features", ",".join(FEATURES),
            "--train-fraction", ",".join(repr(f) for f in self.fractions),
            "--degree", ",".join(map(str, self.degrees)),
            "--horizons", ",".join(map(str, self.horizons)),
            "--seed", str(SPLIT_SEED),
            *self.extra_args(),
        ]]

    def grid(self) -> list[tuple]:
        """Expected (model, feature_set, fraction, degree, horizon), in order."""
        out = []
        models = self.models.split(",")
        if "persistence" in models:
            out += [("persistence", "", "", "", str(h)) for h in self.horizons]
        for model in ("linear", "polynomial", "ann"):
            if model not in models:
                continue
            for fs in FEATURES:
                for f in self.fractions:
                    for d in (self.degrees if model == "polynomial" else ("",)):
                        out.append((model, fs, repr(f), str(d), ""))
        return out

    def attempted(self) -> int:
        return len(self.grid())

    def failed(self, ops, out: Path) -> int:
        if any(op["failed"] or op["exit"] != 0 for op in ops):
            return self.attempted()
        return sum(1 for row in _sweep_rows(out / "sweep.csv") if row["status"] != "ok")

    def outputs_digest(self, ops, out: Path) -> bytes:
        return (out / "sweep.csv").read_bytes() if (out / "sweep.csv").exists() else b""

    def check(self, inputs: Path, ops, out: Path) -> tuple[list[str], float]:
        """Problems found in one pass's outputs, and the pass's best test R^2."""
        (op,) = ops
        if op["failed"] or op["exit"] != 0:
            return [f"sweep exited {op['exit']}: {op['stderr'][-400:]}"], math.nan
        plant = read_plant(inputs / "plant.csv")
        rows = _sweep_rows(out / "sweep.csv")
        problems = self.check_rows(rows, plant)
        r2 = [float(r["r_squared"]) for r in rows if r["r_squared"]]
        return problems, max(r2) if r2 else math.nan

    def check_rows(self, rows: list[dict], plant: Plant) -> list[str]:
        problems = []
        keys = [(r["model"], r["feature_set"], r["train_fraction"], r["degree"], r["horizon"])
                for r in rows]
        if keys != self.grid():
            problems.append(f"sweep rows {keys[:3]}... do not match the requested grid")
        power = plant.columns["power"]
        for r in rows:
            label = f"{r['model']}/{r['feature_set']}/{r['train_fraction']}/{r['degree']}{r['horizon']}"
            if r["status"] != "ok":
                problems.append(f"{label}: status {r['status']!r}")
                continue
            if r["model"] == "persistence":
                h = int(r["horizon"])
                actual = power[h:]
                expected_n = plant.n - h
            else:
                f = float(r["train_fraction"])
                expected_n = plant.n - math.floor(plant.n * f)
                actual = power[split_indices(plant.n, f)[1]]
            if int(r["n_test"]) != expected_n:
                problems.append(f"{label}: n_test {r['n_test']} != {expected_n}")
                continue
            if not float(r["mae"]) <= float(r["rmse"]):
                problems.append(f"{label}: mae {r['mae']} > rmse {r['rmse']}")
            problem = _r2_identity_problem(label, r, actual)
            if problem:
                problems.append(problem)
            problems.extend(self.check_model(label, r, plant))
        return problems

    def check_model(self, label: str, row: dict, plant: Plant) -> list[str]:
        return []


class AnnSweep(Sweep):
    """`sweep --model ann`: every feature set at two train fractions."""

    models = "ann"
    fractions = (0.85, 0.7)

    def extra_args(self) -> list[str]:
        return ["--epochs", str(self.scale.ann_epochs)]

    def items(self) -> int:
        """Sample-epochs trained in one pass."""
        return sum(
            math.floor(self.n_rows * f) * self.scale.ann_epochs * len(FEATURES)
            for f in self.fractions
        )

    def check_model(self, label, row, plant):
        r2 = float(row["r_squared"])
        if not r2 >= ANN_R2_THRESHOLD:
            return [f"{label}: ANN test R^2 {r2!r} below {ANN_R2_THRESHOLD}"]
        return []


class RegressionSweep(Sweep):
    """Persistence, linear and polynomial over the full default grid."""

    models = "persistence,linear,polynomial"
    fractions = (0.95, 0.9, 0.85, 0.8, 0.75, 0.7)
    # polynomial degrees recomputed with lstsq; higher ones are checked only
    # by the R^2 identity
    lstsq_degrees = (2, 3)

    @property
    def n_rows(self) -> int:
        return self.scale.long_rows

    def items(self) -> int:
        """Scored sweep rows in one pass."""
        return self.attempted()

    def check_model(self, label, row, plant):
        r2 = float(row["r_squared"])
        power = plant.columns["power"]
        if row["model"] == "persistence":
            h = int(row["horizon"])
            expected = r_squared(power[h:], power[:-h])
        elif row["model"] == "linear" or int(row["degree"]) in self.lstsq_degrees:
            degree = 1 if row["model"] == "linear" else int(row["degree"])
            expected = lstsq_test_r2(
                plant, FEATURES[row["feature_set"]], float(row["train_fraction"]), degree
            )
        else:
            return []
        if not abs(r2 - expected) <= R2_TOL * max(1.0, abs(expected)):
            return [f"{label}: test R^2 {r2!r}, recomputed {expected!r}"]
        return []


@dataclass(frozen=True)
class Flaw:
    """One planted flaw: its file, its 1-based row, what the error may name."""

    name: str
    row: int
    markers: tuple[str, ...]


# Inputs of the mixed-offset file do not depend on the workload seed: the
# program fails on it every time (an uncaught TypeError), and a failure
# that never varies keeps the failed share of every run identical.
MIXED_OFFSET_SEED = 20210819


def _synthetic_columns(rng: np.random.Generator, n: int) -> dict:
    """A plain plant series: Weibull speeds, a clipped cubic power curve."""
    speed = 8.0 * rng.weibull(2.0, n)
    direction = rng.uniform(0.0, 360.0, n)
    temperature = 20.0 + rng.normal(0.0, 3.0, n)
    power = np.clip(1.4 * speed**3, 0.0, 2000.0) * (speed < 25.0)
    power = np.clip(power + rng.normal(0.0, 30.0, n), 0.0, 2000.0)
    return {"wind_speed": speed, "wind_direction": direction,
            "temperature": temperature, "power": power}


def _timestamps(n: int) -> list[str]:
    start = datetime(2020, 1, 1)
    return [(start + i * timedelta(minutes=15)).isoformat() for i in range(n)]


def _write_plant(path: Path, timestamps, columns: dict) -> None:
    cells = [timestamps] + [[repr(float(x)) for x in columns[name]] for name in CSV_HEADER[1:]]
    with open(path, "w") as out:
        out.write(",".join(CSV_HEADER) + "\n")
        out.writelines(",".join(row) + "\n" for row in zip(*cells))


class CsvIngest:
    """`gen`, `correlate` and `fit` on a plant CSV, then files with one flaw each."""

    flaw_names = ("nonfinite_power", "negative_speed", "direction_360",
                  "timestamp_order", "mixed_offset")
    fit_fraction = 0.85

    def __init__(self, scale: Scale, seed: int):
        self.scale = scale
        self.seed = seed

    @property
    def n_rows(self) -> int:
        return self.scale.plant_rows

    def flaws(self) -> list[Flaw]:
        rng = np.random.Generator(np.random.PCG64([self.seed, 1]))
        n = self.n_rows
        ts = _timestamps(n)
        out = []
        for name in self.flaw_names:
            if name == "mixed_offset":
                row = n - 7
            else:
                row = n - 2 - int(rng.integers(0, min(50, n - 3)))
            if name == "timestamp_order":
                markers = (ts[row - 1], ts[row])  # rows `row` and `row + 1` swap
            elif name == "mixed_offset":
                markers = (f"row {row}", ts[row - 1], ts[row - 2])
            else:
                markers = (f"row {row}",)
            out.append(Flaw(name, row, markers))
        return out

    def setup(self, inputs: Path, invoke) -> None:
        n = self.n_rows
        for flaw in self.flaws():
            data_seed = MIXED_OFFSET_SEED if flaw.name == "mixed_offset" else self.seed
            rng = np.random.Generator(np.random.PCG64([data_seed, 2]))
            columns = _synthetic_columns(rng, n)
            ts = _timestamps(n)
            i = flaw.row - 1
            if flaw.name == "nonfinite_power":
                columns["power"][i] = math.nan
            elif flaw.name == "negative_speed":
                columns["wind_speed"][i] = -columns["wind_speed"][i] - 0.5
            elif flaw.name == "direction_360":
                columns["wind_direction"][i] = 360.0
            elif flaw.name == "timestamp_order":
                ts[i], ts[i + 1] = ts[i + 1], ts[i]
            elif flaw.name == "mixed_offset":
                ts[i:] = [t + "+00:00" for t in ts[i:]]
            _write_plant(inputs / f"{flaw.name}.csv", ts, columns)

    def commands(self, inputs: Path, out: Path) -> list[list[str]]:
        plant = str(out / "plant.csv")
        return [
            ["gen", "--out", plant, "--n-samples", str(self.n_rows), "--seed", str(self.seed)],
            ["correlate", "--data", plant, "--out-dir", str(out / "correlate")],
            ["fit", "--data", plant, "--model", "linear",
             "--features", "speed_direction_temperature",
             "--train-fraction", repr(self.fit_fraction), "--seed", str(SPLIT_SEED)],
        ] + [
            ["correlate", "--data", str(inputs / f"{name}.csv"), "--out-dir", str(out / "flawed")]
            for name in self.flaw_names
        ]

    def attempted(self) -> int:
        return 3 + len(self.flaw_names)

    def items(self) -> int:
        """CSV rows written (gen) and read (correlate, fit, each flawed file)."""
        return self.n_rows * self.attempted()

    def failed(self, ops, out: Path) -> int:
        return sum(1 for op in ops if op["failed"])

    def outputs_digest(self, ops, out: Path) -> bytes:
        # stdout names the pass's own directory
        parts = [f"{op['exit']}\n{op['stdout']}".replace(str(out), "<out>") for op in ops]
        for path in (out / "plant.csv", out / "correlate" / "correlation_heatmap.csv"):
            parts.append(path.read_text() if path.exists() else "")
        return "\x00".join(parts).encode()

    def check(self, inputs: Path, ops, out: Path) -> tuple[list[str], float]:
        gen, correlate, fit, *flawed = ops
        problems = []
        for op in (gen, correlate, fit):
            if op["failed"] or op["exit"] != 0:
                problems.append(f"{op['argv'][0]} exited {op['exit']}: {op['stderr'][-400:]}")
        if problems:
            return problems, math.nan
        plant = read_plant(out / "plant.csv")
        problems += self.check_plant(plant)
        problems += self.check_heatmap(out / "correlate" / "correlation_heatmap.csv", plant)
        fit_problems, r2 = self.check_fit(fit["stdout"], plant)
        problems += fit_problems
        for flaw, op in zip(self.flaws(), flawed):
            if not op["failed"]:
                problems += self.check_flaw(flaw, op)
        return problems, r2

    def check_plant(self, plant: Plant) -> list[str]:
        problems = []
        if plant.n != self.n_rows:
            problems.append(f"gen wrote {plant.n} rows, asked for {self.n_rows}")
        stamps = [datetime.fromisoformat(t) for t in plant.timestamps]
        steps = {b - a for a, b in zip(stamps, stamps[1:])}
        if steps != {timedelta(minutes=15)}:
            problems.append(f"gen timestamps are not on a 15-minute grid: steps {sorted(steps)[:3]}")
        return problems

    def check_heatmap(self, path: Path, plant: Plant) -> list[str]:
        labels = CSV_HEADER[1:]
        expected = np.corrcoef(np.vstack([plant.columns[name] for name in labels]))
        with open(path, newline="") as f:
            cells = {(r["row_label"], r["col_label"]): float(r["r"]) for r in csv.DictReader(f)}
        problems = []
        if set(cells) != set(itertools.product(labels, labels)):
            problems.append(f"heatmap has cells {sorted(cells)[:3]}...")
        for (a, b), value in cells.items():
            if a in labels and b in labels:
                want = expected[labels.index(a), labels.index(b)]
                if not abs(value - want) <= CORR_TOL:
                    problems.append(f"correlation {a}/{b} {value!r}, numpy.corrcoef {want!r}")
        return problems

    def check_fit(self, stdout: str, plant: Plant) -> tuple[list[str], float]:
        fields = dict(re.findall(r"^(\w+)=(\S+)", stdout, re.MULTILINE))
        problems = []
        try:
            r2 = float(fields["r_squared"])
            n_test = int(fields["n_test"])
        except (KeyError, ValueError):
            return [f"fit printed no r_squared/n_test: {stdout!r}"], math.nan
        expected_n = plant.n - math.floor(plant.n * self.fit_fraction)
        if n_test != expected_n:
            problems.append(f"fit n_test {n_test} != {expected_n}")
        expected = lstsq_test_r2(plant, FEATURES["speed_direction_temperature"], self.fit_fraction, 1)
        if not abs(r2 - expected) <= PRINTED_R2_TOL:
            problems.append(f"fit r_squared {r2!r}, lstsq {expected!r}")
        return problems, r2

    def check_flaw(self, flaw: Flaw, op) -> list[str]:
        if op["exit"] != 2:
            return [f"{flaw.name}: exit code {op['exit']}, expected 2 (data error)"]
        message = op["stderr"]
        if not any(re.search(re.escape(m) + r"(?![0-9])", message) for m in flaw.markers):
            return [f"{flaw.name}: message {message.strip()!r} names none of {flaw.markers}"]
        return []


WORKLOADS = {
    "ann-sweep": AnnSweep,
    "regression-sweep": RegressionSweep,
    "csv-ingest": CsvIngest,
}

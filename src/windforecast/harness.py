"""Experiment grid: models x feature subsets x train fractions x degrees.

The one module that knows all three model kinds: it fits, predicts, writes
and loads linear, polynomial and MLP models.

One split per train fraction is shared by every model so comparisons within
a fraction see identical data. Rows are generated in a fixed (model,
feature_set, fraction, degree) order and failed configurations become
failed-row records instead of aborting the sweep.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Hashable
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from . import ann, regression
from .dataset import Dataset, DesignMatrix, FeatureSet, MinMaxScaler, SplitSpec, select_features
from .dataset import _csv_text, _integer, _shown
from .errors import DataError, FeatureMismatch, InvalidConfig, MalformedModel, SeriesTooShort
from .metrics import EvalReport
from .regression import MAX_DEGREE, MIN_DEGREE, LinearModel, PolynomialModel

MODEL_ORDER = ("persistence", "linear", "polynomial", "ann")

# the models plot-data can plot; persistence fits no model
TRAINABLE_MODELS = MODEL_ORDER[1:]

SWEEP_SCHEMA = "windforecast.sweep.v1"

DEFAULT_FRACTIONS = (0.95, 0.90, 0.85, 0.80, 0.75, 0.70)

# 96 steps of 15 minutes = 24 h ahead; 1 step is the ultra-short horizon.
DEFAULT_HORIZONS = (1, 96)


def _axis(name: str, values, check) -> tuple:
    """``values`` as a tuple of ``check(value)``; a string, a scalar or a repeated value is refused."""
    # a 0-d array has __iter__ but cannot be iterated
    if isinstance(values, str) or not hasattr(values, "__iter__") or getattr(values, "ndim", 1) == 0:
        raise InvalidConfig(f"{name} must be a collection of values, got {_shown(values)}")
    items = tuple(map(check, values))
    if len(set(items)) != len(items):
        raise InvalidConfig(f"{name} lists a value more than once")
    return items


def _one_of(name: str, value, choices):
    """``value`` if it is one of ``choices``; an unhashable value (a list, an array) is refused
    before ``in`` compares it."""
    if not (isinstance(value, Hashable) and value in choices):
        raise InvalidConfig(f"{name} must be one of {', '.join(map(str, choices))}, got {_shown(value)}")
    return value


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification; defaults reproduce the full evaluation tables."""

    train_fractions: tuple[float, ...] = DEFAULT_FRACTIONS
    feature_sets: tuple[FeatureSet, ...] = tuple(FeatureSet)
    degrees: tuple[int, ...] = (2, 3, 4, 5)
    models: tuple[str, ...] = MODEL_ORDER
    seed: int = 42
    ann_train: ann.TrainConfig = ann.TrainConfig(seed=42)
    persistence_horizons: tuple[int, ...] = DEFAULT_HORIZONS

    def __post_init__(self):
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))
        if not isinstance(self.ann_train, ann.TrainConfig):
            raise InvalidConfig(f"ann_train must be an ann.TrainConfig, got {_shown(self.ann_train)}")
        checks = {
            # the split states its own range
            "train_fractions": lambda f: SplitSpec(train_fraction=f, seed=self.seed).train_fraction,
            "feature_sets": lambda fs: _one_of("feature_set", fs, tuple(FeatureSet)),
            "degrees": lambda d: _one_of("degree", _integer("degree", d), range(MIN_DEGREE, MAX_DEGREE + 1)),
            "models": lambda m: _one_of("model", m, MODEL_ORDER),
            "persistence_horizons": lambda h: _integer("persistence_horizon", h, 1),
        }
        for axis, check in checks.items():
            object.__setattr__(self, axis, _axis(axis, getattr(self, axis), check))
        # canonical model order keeps row order deterministic
        object.__setattr__(self, "models", tuple(m for m in MODEL_ORDER if m in self.models))
        gridded = {row["model"] for row in _grid(self)}
        rowless = [name for name in self.models if name not in gridded]
        if rowless or not self.models:
            raise InvalidConfig(f"no grid row for {', '.join(rowless) or 'any model'}: an axis is empty")


@dataclass(frozen=True)
class SweepRow:
    """Result of one grid configuration; a failed row sets ``error`` and keeps its ``exception``."""

    model: str
    feature_set: FeatureSet | None
    train_fraction: float | None
    degree: int | None
    horizon: int | None
    report: EvalReport | None
    out_of_bounds_fraction: float | None
    error: str | None = None
    # the fitted model, an ANN's TrainHistory, the test matrix a model row is scored on
    # and a failed row's exception, None where absent; no report writes them
    fitted: object = field(default=None, compare=False, repr=False)
    history: ann.TrainHistory | None = field(default=None, compare=False, repr=False)
    test: DesignMatrix | None = field(default=None, compare=False, repr=False)
    exception: Exception | None = field(default=None, compare=False, repr=False)


def persistence_forecast(d: Dataset, horizon_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Predict power[i] = power[i - horizon] on the chronological series.

    No shuffling: persistence is a time-structural baseline, so it runs on
    the dataset in timestamp order.
    """
    if horizon_steps < 1:
        raise InvalidConfig(f"horizon_steps must be >= 1, got {horizon_steps}")
    power = d.column("power")
    if len(power) <= horizon_steps:
        raise SeriesTooShort(
            f"dataset has {len(power)} rows, needs more than horizon {horizon_steps}"
        )
    actual = power[horizon_steps:]
    predicted = power[:-horizon_steps]
    return actual, predicted


def predict_with(model, m: DesignMatrix) -> np.ndarray:
    """Dispatch prediction for any fitted model type."""
    if isinstance(model, LinearModel):
        return regression.predict_linear(model, m)
    if isinstance(model, PolynomialModel):
        return regression.predict_polynomial(model, m)
    if isinstance(model, ann.MlpModel):
        return ann.predict(model, m)
    raise FeatureMismatch(f"cannot predict with {type(model).__name__}")


# -- model documents ----------------------------------------------------------

# A document is the schema tag, then every dataclass field in declaration
# order, so adding or renaming a field needs a new tag.
_MODEL_SCHEMAS = {
    LinearModel: "windforecast.model.linear.v1",
    PolynomialModel: "windforecast.model.polynomial.v1",
    ann.MlpModel: "windforecast.model.mlp.v1",
}


def _plain(value):
    """``value`` as JSON data: an array flattens to a list, a tuple becomes a list, a dataclass an object."""
    if isinstance(value, np.ndarray):
        return value.ravel().tolist()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return value


def to_json(model) -> str:
    """Versioned JSON document of any fitted model; floats round-trip bit for bit via repr."""
    if type(model) not in _MODEL_SCHEMAS:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return json.dumps({"schema": _MODEL_SCHEMAS[type(model)], **_plain(model)}, indent=2)


def from_json(text: str):
    """The model a ``to_json`` document describes; its constructor validates every field."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal past int's digit limit
        raise MalformedModel(f"model document is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedModel(f"model document must be a JSON object, got {type(doc).__name__}")
    schema = doc.get("schema")
    cls = next((c for c, tag in _MODEL_SCHEMAS.items() if tag == schema), None)
    if cls is None:
        raise MalformedModel(f"unknown model schema {_shown(schema)}")
    try:
        values = {f.name: doc[f.name] for f in fields(cls)}
        if cls is ann.MlpModel:
            sizes, scaler = values["layer_sizes"], values["input_scaler"]
            values["weights"] = [
                np.asarray(w, dtype=object).reshape(sizes[l + 1], sizes[l])
                for l, w in enumerate(values["weights"])
            ]
            if scaler is not None:
                values["input_scaler"] = MinMaxScaler(mins=scaler["mins"], maxs=scaler["maxs"])
        return cls(**values)
    except KeyError as exc:
        raise MalformedModel(f"{schema} document has no {exc} key") from None
    except (IndexError, TypeError, ValueError, DataError) as exc:
        raise MalformedModel(f"{schema} document has a malformed value: {exc}") from None


def _grid(cfg: SweepConfig):
    """Each row's identifying fields in (model, feature_set, fraction, degree) order."""
    for name in cfg.models:
        if name == "persistence":
            for horizon in cfg.persistence_horizons:
                yield dict(
                    model=name, feature_set=None, train_fraction=None, degree=None, horizon=horizon
                )
            continue
        for fs in cfg.feature_sets:
            for fraction in cfg.train_fractions:
                for degree in cfg.degrees if name == "polynomial" else (None,):
                    yield dict(
                        model=name, feature_set=fs, train_fraction=fraction, degree=degree, horizon=None
                    )


def run_sweep(d: Dataset, cfg: SweepConfig = SweepConfig()) -> list[SweepRow]:
    """Evaluate every configuration of the grid on held-out test data.

    The split for a given fraction uses the sweep seed and is reused across models
    and feature sets; every matrix is indexed out of ``d`` by the split's rows. The
    polynomial rows of one feature set read their models off one chain over the split's
    shuffled row order, with one stop per fraction, and the ANN rows of one fraction
    train once, as one stack: a diverged network fails its own row, any other training
    error every ANN row. Only test matrices are kept: each model row keeps the one it is
    scored on, shared with the other rows of its (fraction, feature set), and each scored
    row its fitted model and, for the ANN, its loss history.
    Identical inputs yield an identical row list.
    """

    def spec(fraction: float) -> SplitSpec:
        return SplitSpec(train_fraction=fraction, seed=cfg.seed)

    @functools.cache
    def sides(fraction: float) -> tuple[np.ndarray, np.ndarray]:
        return spec(fraction).sides(len(d))

    @functools.cache
    def test_matrix(fraction: float, fs: FeatureSet) -> DesignMatrix:
        return select_features(d, fs, sides(fraction)[1])

    @functools.cache
    def chain(fs: FeatureSet) -> dict[int, regression.LeastSquaresFactor]:
        # the row order depends on the seed alone, so every fraction's train set is a prefix of it
        specs = [spec(f) for f in cfg.train_fractions]
        columns = [d.column(name) for name in fs.columns]
        stops = [s.n_train(len(d)) for s in specs]
        return regression.factor_prefixes(columns, d.column("power"), fs.columns, stops,
                                          order=specs[0].order(len(d)))

    @functools.cache
    def networks(fraction: float) -> dict:
        trains = [select_features(d, fs, sides(fraction)[0]) for fs in cfg.feature_sets]
        nets = [ann.init_network(m.k, seed=cfg.ann_train.seed) for m in trains]
        try:
            fits = ann.train_stack(nets, trains, cfg.ann_train, d.rated_power)
        except Exception as exc:
            fits = [exc] * len(trains)
        return dict(zip(cfg.feature_sets, fits))

    rows: list[SweepRow] = []
    for fields in _grid(cfg):
        try:
            model = history = test_m = None
            if fields["model"] == "persistence":
                actual, predicted = persistence_forecast(d, fields["horizon"])
            else:
                fraction, fs = fields["train_fraction"], fields["feature_set"]
                test_m = test_matrix(fraction, fs)
                if fields["model"] == "ann":
                    fit = networks(fraction)[fs]
                    if isinstance(fit, Exception):
                        raise fit
                    model, history = fit
                elif fields["model"] == "polynomial":
                    model = chain(fs)[spec(fraction).n_train(len(d))].polynomial(fields["degree"])
                else:
                    model = regression.fit_ols(select_features(d, fs, sides(fraction)[0]))
                actual, predicted = test_m.target, predict_with(model, test_m)
            oob = float(np.mean((predicted < 0) | (predicted > d.rated_power)))
            report = EvalReport.from_predictions(actual, predicted)
            rows.append(SweepRow(**fields, report=report, out_of_bounds_fraction=oob,
                                 fitted=model, history=history, test=test_m))
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            rows.append(SweepRow(**fields, report=None, out_of_bounds_fraction=None, error=error,
                                 test=test_m, exception=exc))
    return rows


# -- report writers -----------------------------------------------------------

SWEEP_COLUMNS = ("model", "feature_set", "train_fraction", "degree", "horizon", "n_test",
                 "mae", "rmse", "r_squared", "out_of_bounds_fraction", "status")


def _row_values(row: SweepRow) -> tuple:
    """One report row, in ``SWEEP_COLUMNS`` order."""
    r = row.report
    scores = (None,) * 4 if r is None else (r.n_samples, r.mae, r.rmse, r.r_squared)
    tag = None if row.feature_set is None else row.feature_set.tag
    status = "ok" if row.error is None else row.error
    return (
        row.model,
        tag,
        row.train_fraction,
        row.degree,
        row.horizon,
        *scores,
        row.out_of_bounds_fraction,
        status,
    )


def sweep_csv(rows: list[SweepRow]) -> str:
    """Primary report format; first line carries the schema version."""
    return f"# schema={SWEEP_SCHEMA}\n" + _csv_text(SWEEP_COLUMNS, map(_row_values, rows))


def sweep_json(rows: list[SweepRow], cfg: SweepConfig) -> str:
    """Structured report format with the generating configuration echoed."""
    doc = {
        "schema": SWEEP_SCHEMA,
        "config": {
            "train_fractions": list(cfg.train_fractions),
            "feature_sets": [fs.tag for fs in cfg.feature_sets],
            "degrees": list(cfg.degrees),
            "models": list(cfg.models),
            "seed": cfg.seed,
            "persistence_horizons": list(cfg.persistence_horizons),
            "ann_train": asdict(cfg.ann_train),
        },
        "rows": [dict(zip(SWEEP_COLUMNS, _row_values(row))) for row in rows],
    }
    return json.dumps(doc, indent=2)


# -- plot data ----------------------------------------------------------------

def plot_data(model, test: DesignMatrix) -> tuple[str, str]:
    """The power-curve and predicted-vs-actual CSVs of ``model`` on ``test``, from one prediction.

    The curve is (wind_speed, actual_power, predicted_power) sorted by speed,
    enough to regenerate scatter-plus-curve figures; the scatter is
    (actual_power, predicted_power) pairs in test-set order.
    """
    if "wind_speed" not in test.feature_names:
        raise FeatureMismatch("test matrix has no wind_speed column")
    speed = test.rows[:, test.feature_names.index("wind_speed")]
    predicted = predict_with(model, test)
    actual = test.target
    points = np.column_stack([speed, actual, predicted])[np.lexsort((predicted, actual, speed))]
    curve = _csv_text(("wind_speed", "actual_power", "predicted_power"), points.tolist())
    scatter = _csv_text(("actual_power", "predicted_power"), zip(actual.tolist(), predicted.tolist()))
    return curve, scatter

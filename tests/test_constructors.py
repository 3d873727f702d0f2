"""Every public constructor refuses a hostile field value with a documented error.

Each field of each constructor is replaced, in an otherwise valid call, by
each value of ``HOSTILE``: the call must return, or raise a ``DataError`` or
``NumericError`` whose text can be made. Any other exception, a warning
included, is a bare failure at the input edge.
"""

import functools
import inspect
import itertools
import math
import pickle
from dataclasses import asdict, fields, is_dataclass
from datetime import datetime, timedelta

import numpy as np
import pytest

from windforecast.ann import MlpModel, TrainConfig, init_network
from windforecast.dataset import (
    Dataset, DesignMatrix, FeatureSet, MinMaxScaler, SplitSpec, SyntheticConfig, _integer, _shown, physical_power,
)
from windforecast.errors import (
    BetzViolation, DataError, DegreeOutOfRange, InvalidArchitecture, InvalidConfig, NumericError, SeriesTooShort,
    TooFewRows,
)
from windforecast.harness import SweepConfig, persistence_forecast
from windforecast.regression import LinearModel, PolynomialModel, expand_polynomial, factor_prefixes, fit_polynomial

# (label, value): the label names a value whose repr may be too long to make
HOSTILE = [
    ("True", True),
    ("'x'", "x"),
    ("None", None),
    ("nan", math.nan),
    ("inf", math.inf),
    ("-inf", -math.inf),
    ("10**400", 10**400),
    ("-10**400", -(10**400)),
    ("-10**5000", -(10**5000)),
    ("[-10**5000]", [-(10**5000)]),
    ("(1.5, -10**5000)", (1.5, -(10**5000))),
    ("float32(1.5)", np.float32(1.5)),
    ("int8(3)", np.int8(3)),
    ("array(2.0)", np.array(2.0)),
    ("[[1.0]]", [[1.0]]),
    ("[]", []),
    ("zeros((2, 2, 2))", np.zeros((2, 2, 2))),
    ("{}", {}),
]


def _valid_calls():
    """(label, callable, keyword arguments of a call that succeeds), one per constructor or function."""
    net = init_network(1, seed=0)
    x = np.linspace(0.0, 10.0, 12)
    return [
        ("SyntheticConfig", SyntheticConfig, asdict(SyntheticConfig(n_samples=100))),
        ("SplitSpec", SplitSpec, dict(train_fraction=0.8, seed=1)),
        ("TrainConfig", TrainConfig, asdict(TrainConfig(epochs=1, batch_size=2))),
        ("SweepConfig", SweepConfig, dict(
            train_fractions=(0.8,), feature_sets=(FeatureSet.SPEED_ONLY,), degrees=(2,),
            models=("persistence", "linear"), seed=1, ann_train=TrainConfig(), persistence_horizons=(1,),
        )),
        ("MlpModel", MlpModel, dict(
            layer_sizes=net.layer_sizes, activations=net.activations, weights=net.weights, biases=net.biases,
            input_scaler=MinMaxScaler(mins=[0.0], maxs=[1.0]), target_scale=2.0,
        )),
        ("PolynomialModel", PolynomialModel, dict(
            degree=2, terms=((0,), (1,), (2,)), coefficients=(1.0, 2.0, 3.0), feature_names=("wind_speed",),
            condition_estimate=10.0,
        )),
        ("LinearModel", LinearModel, dict(intercept=1.0, coefficients=(2.0,), feature_names=("wind_speed",))),
        ("MinMaxScaler", MinMaxScaler, dict(mins=[0.0], maxs=[1.0])),
        ("DesignMatrix", DesignMatrix, dict(rows=x[:, None], target=x**2, feature_names=("wind_speed",))),
        ("Dataset", Dataset, dict(
            timestamps=[datetime(2019, 1, 1) + i * timedelta(minutes=15) for i in range(3)],
            wind_speed=[5.0, 6.0, 7.0], wind_direction=[0.0, 90.0, 180.0], temperature=[10.0, 11.0, 12.0],
            power=[100.0, 200.0, 300.0], rated_power=2000.0,
        )),
        ("init_network", init_network, dict(input_dim=1, hidden=(4, 4, 4, 4), seed=0)),
        ("factor_prefixes", functools.partial(factor_prefixes, [x], x**2, ("wind_speed",), degree=2),
         dict(stops=(10,))),
    ]


def test_valid_calls_name_every_field():
    for label, make, kwargs in _valid_calls():
        make(**kwargs)
        if isinstance(make, type):
            names = [f.name for f in fields(make)] if is_dataclass(make) else inspect.signature(make).parameters
            assert set(kwargs) == set(names), label


def test_hostile_value_in_any_constructor_field_is_refused_or_accepted():
    bare = []
    for (label, make, kwargs), (shown, value) in itertools.product(_valid_calls(), HOSTILE):
        for name in kwargs:
            try:
                make(**{**kwargs, name: value})
            except (DataError, NumericError) as exc:
                str(exc)
            except Exception as exc:  # any other exception is the failure this test reports
                bare.append(f"{label}({name}={shown}): {type(exc).__name__}")
    assert not bare, f"{len(bare)} bare exception(s):\n" + "\n".join(bare)


@pytest.mark.parametrize(
    "value",
    [0, -7, 1.5, -0.0, math.nan, "x", None, True, [1, 2.0], (1, "a"), {"a": 1}, np.int64(5), np.float32(1.5),
     np.array([1.0, 2.0]), FeatureSet.SPEED_ONLY, 10**4000, -(10**4000)],
    ids=lambda v: type(v).__name__,
)
def test_shown_is_repr_wherever_repr_works(value):
    assert _shown(value) == repr(value)


def test_shown_names_a_value_too_long_to_print_by_its_size():
    assert _shown(-(10**5000)) == "a negative integer of 16610 bits"
    assert _shown(10**5000) == "an integer of 16610 bits"
    for container in ([-(10**5000)], (1.5, -(10**5000)), {"seed": 10**5000}):
        text = _shown(container)
        assert text == f"a {type(container).__name__} too long to print"
        assert not any(c.isdigit() for c in text)


def test_lower_bound_names_a_numpy_integer_as_str_prints_it():
    with pytest.raises(InvalidConfig, match="^seed must be >= 0, got -1$"):
        _integer("seed", np.int64(-1), 0)
    with pytest.raises(InvalidConfig, match=r"^seed must be an integer, got a tuple too long to print$"):
        _integer("seed", (1.5, -(10**5000)))


@pytest.mark.parametrize(
    "rows, target, message",
    [
        ([[math.nan]], [1.0], "^rows must be finite, got nan$"),
        ([[1.0]], [math.inf], "^target must be finite, got inf$"),
        ([[-math.inf]], [1.0], "^rows must be finite, got -inf$"),
        ([[True]], [1.0], "^rows must be finite, got True$"),
        ([["1.0"]], [1.0], "^rows must be finite, got '1.0'$"),
        ([[1.0]], {}, r"^target must be finite, got \{\}$"),
        (np.zeros((2, 2, 2)), [1.0, 2.0], r"^rows must be 2-D, got shape \(2, 2, 2\)$"),
        ([[1.0], [1.0, 2.0]], [1.0, 2.0], r"^rows must be finite, got \[1.0\]$"),
    ],
    ids=["nan", "inf-target", "minus-inf", "bool", "string", "dict-target", "3-d", "ragged"],
)
def test_design_matrix_holds_finite_numbers_only(rows, target, message):
    with pytest.raises(InvalidConfig, match=message):
        DesignMatrix(rows=rows, target=target, feature_names=("wind_speed",))


def test_design_matrix_arrays_are_read_only_float64():
    target = np.arange(6.0).reshape(3, 2, order="F")[:, ::-1]  # neither C- nor F-ordered
    m = DesignMatrix(rows=[[1], [2], [3], [4], [5], [6]], target=target, feature_names=["wind_speed"])
    assert m.rows.dtype == m.target.dtype == np.float64
    assert not (m.rows.flags.writeable or m.target.flags.writeable)
    assert m.target.tolist() == np.ravel(target).tolist() and m.feature_names == ("wind_speed",)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: init_network(1, seed=1.5), InvalidConfig, "^seed must be an integer, got 1.5$"),
        (lambda: init_network(1, seed=-1), InvalidConfig, "^seed must be >= 0, got -1$"),
        (lambda: init_network(1, hidden=8), InvalidArchitecture, "^hidden must be a sequence, got int$"),
        (lambda: factor_prefixes([np.ones(3)], np.ones(3), ("x",), 2), TooFewRows,
         "^stops must be a sequence, got int$"),
        (lambda: SweepConfig(models=(np.zeros((2, 2, 2)),)), InvalidConfig, "^model must be one of "),
        (lambda: SweepConfig(feature_sets=np.zeros((2, 2, 2))), InvalidConfig, "^feature_set must be one of "),
        (lambda: SweepConfig(models=(["linear"],)), InvalidConfig, r"^model must be one of .*, got \['linear'\]$"),
        (lambda: FeatureSet.parse(3), InvalidConfig, "^unknown feature set 3; choose from "),
    ],
    ids=["float-seed", "negative-seed", "int-hidden", "int-stops", "array-model", "array-axis", "list-model",
         "int-feature-set"],
)
def test_a_value_of_the_wrong_kind_is_refused_by_its_check(make, error, message):
    with pytest.raises(error, match=message):
        make()


@pytest.mark.parametrize("name", [["relu"], np.array(["relu", "relu"]), {}], ids=["list", "array", "dict"])
def test_an_activation_that_is_no_name_is_refused(name):
    net = init_network(1, seed=0)
    for at in (0, -1):
        activations = list(net.activations)
        activations[at] = name
        with pytest.raises(InvalidArchitecture, match="^(unknown activation|output activation must be identity)"):
            MlpModel(net.layer_sizes, tuple(activations), net.weights, net.biases)


def _same(a, b) -> bool:
    """Whether a and b hold equal values of the same types, every array of b read-only."""
    if is_dataclass(a):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and a.dtype == b.dtype and np.array_equal(a, b) and not b.flags.writeable
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("make, kwargs", [pytest.param(*c[1:], id=c[0]) for c in _valid_calls() if is_dataclass(c[1])])
def test_a_value_unpickles_equal_with_read_only_arrays(make, kwargs):
    value = make(**kwargs)
    assert _same(value, pickle.loads(pickle.dumps(value)))


@pytest.mark.parametrize(
    "column, value, message",
    [
        ("wind_speed", "x", "^wind_speed must be finite, got 'x'$"),
        ("power", {}, r"^power must be finite, got \{\}$"),
        ("temperature", [-(10**5000), 1.0, 2.0], "^temperature must be finite, got an integer beyond the float range$"),
        ("wind_direction", [True, 1.0, 2.0], "^wind_direction must be finite, got True$"),
    ],
    ids=["string", "dict", "huge-int", "bool"],
)
def test_dataset_refuses_a_column_entry_that_is_no_number_naming_the_column(column, value, message):
    (_, _, kwargs), = (c for c in _valid_calls() if c[0] == "Dataset")
    with pytest.raises(InvalidConfig, match=message):
        Dataset(**{**kwargs, column: value})


def test_dataset_passes_a_non_finite_column_entry_on_to_its_row_check():
    (_, _, kwargs), = (c for c in _valid_calls() if c[0] == "Dataset")
    with pytest.raises(DataError, match="^2 invalid row.*row 1: wind_speed is not finite; row 3: wind_speed is not"):
        Dataset(**{**kwargs, "wind_speed": [math.nan, 6.0, np.float32(math.inf)]})


def _plant():
    (_, _, kwargs), = (c for c in _valid_calls() if c[0] == "Dataset")
    return Dataset(**kwargs)


def _matrix():
    (_, _, kwargs), = (c for c in _valid_calls() if c[0] == "DesignMatrix")
    return DesignMatrix(**kwargs)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: persistence_forecast(_plant(), 10**5000), SeriesTooShort,
         "^dataset has 3 rows, needs more than horizon an integer of 16610 bits$"),
        (lambda: persistence_forecast(_plant(), np.int64(0)), InvalidConfig, "^horizon_steps must be >= 1, got 0$"),
        (lambda: persistence_forecast(_plant(), np.int64(3)), SeriesTooShort,
         "^dataset has 3 rows, needs more than horizon 3$"),
        (lambda: physical_power(5.0, 1.2, 10**5000, 1.0), BetzViolation,
         "^power coefficient an integer of 16610 bits exceeds 0.59$"),
        (lambda: physical_power(5.0, 1.2, np.float64(0.75), 1.0), BetzViolation,
         "^power coefficient 0.75 exceeds 0.59$"),
        (lambda: fit_polynomial(_matrix(), 10**5000), DegreeOutOfRange,
         r"^degree must lie in \[2, 5\], got an integer of 16610 bits$"),
        (lambda: expand_polynomial(_matrix(), -(10**5000)), DegreeOutOfRange,
         r"^degree must lie in \[2, 5\], got a negative integer of 16610 bits$"),
        (lambda: fit_polynomial(_matrix(), np.int64(7)), DegreeOutOfRange, r"^degree must lie in \[2, 5\], got 7$"),
    ],
    ids=["huge-horizon", "int64-horizon-low", "int64-horizon-long", "huge-cp", "float64-cp", "huge-degree",
         "huge-negative-degree", "int64-degree"],
)
def test_a_number_in_an_error_text_is_printed_as_str_prints_it_or_by_its_size(call, error, message):
    with pytest.raises(error, match=message):
        call()

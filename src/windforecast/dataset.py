"""Ingest, synthesis, splitting and scaling of 15-minute wind-farm time series.

All random draws in this package go through numpy's PCG64 generator so that
every split, synthetic dataset and weight initialisation is reproducible from
a non-negative integer seed, on any platform. Shuffles are Fisher-Yates as
implemented by ``numpy.random.Generator.permutation``.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass, fields
from datetime import datetime, timedelta
from enum import Enum
from itertools import islice

import numpy as np

from .errors import (
    BetzViolation,
    DataError,
    DegenerateSplit,
    EmptyInput,
    InvalidConfig,
    MalformedHeader,
    MixedTimezones,
    NonMonotonicTimestamps,
    RowParseError,
)

CSV_HEADER = ("timestamp", "wind_speed", "wind_direction", "temperature", "power")

# Ratio of observed power to rated power above which a row is rejected.
OVERPOWER_TOLERANCE = 1.05


def _rng(seed: int) -> np.random.Generator:
    """The package-wide PRNG: PCG64 seeded with a non-negative integer of any size."""
    return np.random.Generator(np.random.PCG64(seed))


def _is_int(value) -> bool:
    """Whether ``value`` is an int or numpy integer; a bool, float or string is not, so none is truncated."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


def _integer(name: str, value, low: int | None = None) -> int:
    """A config value as a plain int; refused unless an integer (see ``_is_int``) >= ``low``, if given."""
    if not _is_int(value):
        raise InvalidConfig(f"{name} must be an integer, got {_shown(value)}")
    if low is not None and value < low:
        raise InvalidConfig(f"{name} must be >= {low}, got {_shown(int(value))}")
    return int(value)


def _shown(value) -> str:
    """How an error message names a refused value: its repr, or, where repr raises (an integer with
    more digits than ``str`` may print, or a container holding one), its size, printing no digit."""
    try:
        return repr(value)
    except ValueError:
        if _is_int(value):
            return f"{'a negative' if value < 0 else 'an'} integer of {int(value).bit_length()} bits"
        return f"a {type(value).__name__} too long to print"


def _tuple(name: str, values, error: type[DataError]) -> tuple:
    """``values`` as a tuple; refused with ``error`` unless iterable, so a lone number is no sequence."""
    try:
        return tuple(values)
    except TypeError:
        raise error(f"{name} must be a sequence, got {type(values).__name__}") from None


def _real(name: str, value, low: int | None = None, error: type[DataError] = InvalidConfig) -> float:
    """A config value or model parameter as a plain float; refused with ``error`` unless an int, float or
    numpy number (a bool or a string is not, so none is misread) that is finite and > ``low``, if given."""
    shown = None
    try:
        number = float(value) if _is_int(value) or isinstance(value, (float, np.floating)) else math.nan
    except OverflowError:  # an int beyond the float range, whose repr may be too long to make
        number, shown = math.inf, "an integer beyond the float range"
    if not (math.isfinite(number) and (low is None or number > low)):
        bound = "" if low is None else f" and > {low}"
        raise error(f"{name} must be finite{bound}, got {shown or _shown(value)}")
    return number


def _reals(name: str, values, error: type[DataError] = InvalidConfig) -> np.ndarray:
    """Numbers as a read-only float64 array: a finite float64 array is copied as it is,
    anything else is checked entry by entry with ``_real``, so no bool or string is read as a number."""
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64 and np.isfinite(values).all()):
        entries = np.asarray(values, dtype=object)
        values = np.array([_real(name, v, error=error) for v in entries.flat]).reshape(entries.shape)
    return _readonly(values)


def _row_problems(columns: dict[str, np.ndarray], rated_power: float | None) -> list[tuple[int, str]]:
    """Invariant violations as (0-based row index, reason) pairs, in row order.

    Each invariant is one vectorized mask over the four numeric columns;
    reasons are formatted only for the rows some mask flags.
    """
    speed, direction, power = columns["wind_speed"], columns["wind_direction"], columns["power"]
    limit = np.inf if rated_power is None else OVERPOWER_TOLERANCE * rated_power
    overpower = f"power {{}} exceeds rated power {rated_power} by more than 5%"
    # (mask, reason template, column whose value fills the template)
    checks = [(~np.isfinite(col), f"{name} is not finite", col) for name, col in columns.items()]
    checks += [
        (speed < 0, "wind_speed {} < 0", speed),
        (~((0 <= direction) & (direction < 360)), "wind_direction {} outside [0, 360)", direction),
        (power < 0, "power {} < 0", power),
        (~(power < 0) & (power > limit), overpower, power),
    ]
    flagged = np.flatnonzero(np.logical_or.reduce([mask for mask, _, _ in checks]))
    return [
        (int(i), reason.format(float(col[i]))) for i in flagged for mask, reason, col in checks if mask[i]
    ]


def _check_order(stamps: np.ndarray) -> None:
    """Raise unless timestamps strictly increase, naming the first offending row."""
    # first pair (i, i + 1) that mixes naive and aware stamps; len - 1 when none does
    mixed = len(stamps) - 1
    try:
        increasing = stamps[1:] > stamps[:-1]
    except TypeError:
        # order can only be judged up to the first pair that cannot be compared
        aware = np.array([t.utcoffset() is not None for t in stamps])
        mixed = int(np.flatnonzero(aware[1:] != aware[:-1])[0])
        increasing = stamps[1 : mixed + 1] > stamps[:mixed]
    out_of_order = np.flatnonzero(~increasing)
    i = int(out_of_order[0]) if len(out_of_order) else mixed
    if i == len(stamps) - 1:
        return
    later, earlier = stamps[i + 1].isoformat(), stamps[i].isoformat()
    if len(out_of_order):
        raise NonMonotonicTimestamps(
            f"row {i + 2}: timestamp {later} does not increase past row {i + 1}'s {earlier}"
        )
    raise MixedTimezones(
        f"row {i + 2}: timestamp {later} and row {i + 1}'s {earlier} mix offset-naive "
        "and offset-aware forms"
    )


class Dataset:
    """Ordered, validated wind-farm samples plus the plant's rated power.

    One array of ``datetime`` timestamps and the four float64 columns of
    ``CSV_HEADER``, row-aligned, read-only and set once here, so instances are
    immutable and safe to share across threads. Rows are numbered from 1 in
    error messages.
    """

    def __init__(self, timestamps, wind_speed, wind_direction, temperature, power, rated_power: float):
        stamps = np.array(timestamps, dtype=object)
        columns = {
            name: _readonly(values)
            for name, values in zip(CSV_HEADER[1:], (wind_speed, wind_direction, temperature, power))
        }
        if any(a.ndim != 1 or len(a) != len(stamps) for a in (stamps, *columns.values())):
            raise InvalidConfig("timestamps and the four columns must be 1-D and of equal length")
        if not len(stamps):
            raise EmptyInput("dataset has no records")
        rated_power = _real("rated_power", rated_power, 0)
        failures = _row_problems(columns, rated_power)
        if failures:
            raise RowParseError((i + 1, reason) for i, reason in failures)
        _check_order(stamps)
        stamps.setflags(write=False)
        self._columns = columns
        self._rated_power = rated_power
        # named _records, and set last, because benchmark/tracing.py counts validated rows by it
        self._records = stamps

    @property
    def timestamps(self) -> np.ndarray:
        """Read-only object array of ``datetime``s, strictly increasing."""
        return self._records

    @property
    def rated_power(self) -> float:
        return self._rated_power

    def __len__(self) -> int:
        return len(self._records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self._rated_power == other._rated_power
            and np.array_equal(self._records, other._records)
            and all(np.array_equal(self._columns[k], other._columns[k]) for k in self._columns)
        )

    def __repr__(self) -> str:
        return f"Dataset(n={len(self)}, rated_power={self._rated_power})"

    def column(self, name: str) -> np.ndarray:
        """Read-only float64 array for one of the four numeric columns."""
        return self._columns[name]


class FeatureSet(Enum):
    """Which regressor columns feed a model; wind speed is always first."""

    SPEED_ONLY = ("wind_speed",)
    SPEED_DIRECTION = ("wind_speed", "wind_direction")
    SPEED_TEMPERATURE = ("wind_speed", "temperature")
    SPEED_DIRECTION_TEMPERATURE = ("wind_speed", "wind_direction", "temperature")

    @property
    def columns(self) -> tuple[str, ...]:
        return self.value

    @property
    def tag(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "FeatureSet":
        key = text.strip().lower() if isinstance(text, str) else None
        aliases = {
            "speed": cls.SPEED_ONLY,
            "speed_direction": cls.SPEED_DIRECTION,
            "speed_temperature": cls.SPEED_TEMPERATURE,
            "speed_direction_temperature": cls.SPEED_DIRECTION_TEMPERATURE,
        }
        for fs in cls:
            aliases.setdefault(fs.name.lower(), fs)
        if key not in aliases:
            raise InvalidConfig(
                f"unknown feature set {_shown(text)}; choose from {sorted(set(aliases))}"
            )
        return aliases[key]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DesignMatrix:
    """Numeric feature matrix (n x k) with its kW target vector, both finite and read-only."""

    rows: np.ndarray
    target: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        rows = np.atleast_2d(_reals("rows", self.rows))
        if rows.ndim != 2:
            raise InvalidConfig(f"rows must be 2-D, got shape {rows.shape}")
        target = _reals("target", self.target).ravel()
        target.setflags(write=False)  # ravel copies a target that is not C-ordered
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "feature_names", _tuple("feature_names", self.feature_names, InvalidConfig))
        n, k = self.rows.shape
        if n != self.target.shape[0]:
            raise InvalidConfig(f"rows has {n} rows but target has {self.target.shape[0]}")
        if k != len(self.feature_names):
            raise InvalidConfig(f"{k} columns but {len(self.feature_names)} feature names")

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def k(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class SplitSpec:
    """Shuffled train/test split: fraction in [0.5, 0.99] plus a seed."""

    train_fraction: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "train_fraction", _real("train_fraction", self.train_fraction))
        if not 0.5 <= self.train_fraction <= 0.99:
            raise InvalidConfig(
                f"train_fraction must lie in [0.5, 0.99], got {self.train_fraction}"
            )
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))

    def order(self, n: int) -> np.ndarray:
        """The shuffled row order of an n-row dataset, a PCG64 permutation drawn from the seed alone."""
        return _rng(self.seed).permutation(n)

    def n_train(self, n: int) -> int:
        """The train-row count of an n-row dataset: the train set is the first floor(n * train_fraction)
        rows of ``order(n)``, so with one seed a smaller fraction's train set is a prefix of a larger one's."""
        return math.floor(n * self.train_fraction)

    def sides(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The train and test row indices of an n-row dataset: the first ``n_train(n)`` entries of
        ``order(n)`` and the rest, each sorted ascending, so each side stays in chronological order."""
        n_train = self.n_train(n)
        if n_train == 0 or n_train == n:
            raise DegenerateSplit(f"fraction {self.train_fraction} of {n} rows leaves an empty train or test side")
        order = self.order(n)
        return np.sort(order[:n_train]), np.sort(order[n_train:])


@dataclass(frozen=True)
class MinMaxScaler:
    """Per-feature [0, 1] scaling within finite 1-D bounds; a constant feature maps to 0."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mins", _reals("mins", self.mins))
        object.__setattr__(self, "maxs", _reals("maxs", self.maxs))
        if self.mins.ndim != 1 or self.mins.shape != self.maxs.shape:
            raise InvalidConfig("mins and maxs must be 1-D arrays of matching shapes")
        if not np.all(self.maxs >= self.mins):
            raise InvalidConfig("mins and maxs need max >= min for every feature")

    def transform_array(self, x: np.ndarray) -> np.ndarray:
        span = self.maxs - self.mins
        constant = span == 0
        scaled = (np.asarray(x, dtype=np.float64) - self.mins) / np.where(constant, 1.0, span)
        # constant feature: span forced to 1 above, numerator is 0 on the
        # training range; zero it explicitly so unseen values also map to 0
        if np.any(constant):
            scaled = np.where(constant, 0.0, scaled)
        return scaled


def fit_scaler(m: DesignMatrix) -> MinMaxScaler:
    """Column minima/maxima of a training matrix. Fit on the train split only."""
    return MinMaxScaler(mins=m.rows.min(axis=0), maxs=m.rows.max(axis=0))


BETZ_LIMIT = 0.59


def physical_power(v, rho: float, cp: float, area: float):
    """Kinetic-energy power law 0.5*rho*cp*A*v^3 in kW; cp above ``BETZ_LIMIT`` is rejected.

    The law is evaluated on v's mantissa m (v = m * 2**e) and scaled by 2**(3e) last, so rounding
    never depends on v's scale: doubling v scales a normal output by exactly 8. A subnormal output
    (below 2.2250738585072014e-308 kW) lies on a fixed 2**-1074 grid, where f(2v) == 8*f(v) can fail.
    """
    if cp > BETZ_LIMIT:
        raise BetzViolation(f"power coefficient {cp} exceeds {BETZ_LIMIT}")
    v_arr = np.asarray(v, dtype=np.float64)
    if np.any(v_arr < 0) or rho < 0 or cp < 0 or area < 0:
        raise ValueError("wind speed, density, power coefficient and area must be >= 0")
    m, e = np.frexp(v_arr)
    result = np.ldexp(0.5 * rho * cp * area * (m * m * m) / 1000.0, 3 * e)
    return float(result) if np.isscalar(v) or v_arr.ndim == 0 else result


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic plant.

    Defaults produce a 2 MW turbine whose cubic region caps at rated power
    just below the rated speed, giving the familiar sigmoid-shaped curve.
    """

    n_samples: int = 30090
    cut_in_speed: float = 3.0
    rated_speed: float = 12.0
    cut_out_speed: float = 25.0
    rated_power: float = 2000.0
    air_density: float = 1.225
    rotor_area: float = 5000.0
    power_coefficient: float = 0.45
    noise_sd: float = 40.0
    seed: int = 42

    def __post_init__(self):
        lows = {"n_samples": 1, "seed": 0}  # the integer fields; every other field is a float
        for f in fields(self):
            check = _integer if f.name in lows else _real
            object.__setattr__(self, f.name, check(f.name, getattr(self, f.name), lows.get(f.name)))
        if not 0 < self.cut_in_speed < self.rated_speed < self.cut_out_speed:
            raise InvalidConfig(
                "need 0 < cut_in_speed < rated_speed < cut_out_speed, got "
                f"{self.cut_in_speed}, {self.rated_speed}, {self.cut_out_speed}"
            )
        if not 0 < self.power_coefficient <= BETZ_LIMIT:
            raise InvalidConfig(f"power_coefficient must lie in (0, {BETZ_LIMIT}], got {self.power_coefficient}")
        if self.rated_power <= 0 or self.air_density <= 0 or self.rotor_area <= 0:
            raise InvalidConfig("rated_power, air_density and rotor_area must be > 0")
        if self.noise_sd < 0:
            raise InvalidConfig("noise_sd must be >= 0")


def power_curve(config: SyntheticConfig, v) -> np.ndarray:
    """Deterministic turbine curve in kW for wind speed ``v`` (scalar or array).

    Zero below cut-in and above cut-out; the cubic kinetic-energy law capped
    at rated power on [cut_in, rated]; rated power on (rated, cut_out].
    """
    v = np.asarray(v, dtype=np.float64)
    ramp = (v >= config.cut_in_speed) & (v <= config.rated_speed)
    plateau = (v > config.rated_speed) & (v <= config.cut_out_speed)
    # the law on ramp speeds only: a speed below 0 reads 0, like any other below cut-in
    law = physical_power(np.where(ramp, v, 0), config.air_density, config.power_coefficient, config.rotor_area)
    return np.where(ramp, np.minimum(law, config.rated_power), np.where(plateau, config.rated_power, 0.0))


# Wind speeds are Weibull with shape 2 (Rayleigh) and scale 2/3 of the rated
# speed: mean speed ~ 0.59 * rated, a typical onshore siting.
WEIBULL_SHAPE = 2.0
WEIBULL_SCALE_RATIO = 2.0 / 3.0

# Lag-1 autocorrelation of the latent Gaussian driving wind speed. 0.97 per
# 15-minute step decays to ~0.05 over 24 h, so short-horizon persistence
# forecasting works and day-ahead persistence does not.
AR1_PHI = 0.97

_SYNTHETIC_EPOCH = datetime(2019, 1, 1)
_GRID = timedelta(minutes=15)


# Cephes ``ndtr`` (S. L. Moshier, "Methods and Programs for Mathematical Functions", 1989):
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and erfc(x) = exp(-x^2) P(x) / Q(x) on [1, 8),
# exp(-x^2) R(x) / S(x) from 8 up; Q, S and U have a leading coefficient of 1
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# log of the largest double: below -_MAXLOG, exp(-x^2) is taken as 0
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 7.07106781186547524401e-1


def _polevl(x: np.ndarray, coef, leading_one: bool = False) -> np.ndarray:
    """Cephes ``polevl`` (``p1evl`` if ``leading_one``): Horner's rule, multiply then add."""
    y = x + coef[0] if leading_one else np.full_like(x, coef[0])
    for c in coef[1:]:
        y = y * x + c
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes ``erf`` for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U, True)


def _ndtr(a: np.ndarray) -> np.ndarray:
    """The standard normal CDF of a 1-d array, evaluated as Cephes ``ndtr`` (the code
    ``scipy.special.ndtr`` runs) operation for operation, so it gives the same bits.
    exp is libm's, through ``math.exp``: ``np.exp`` rounds differently on some CPUs."""
    x = np.asarray(a, dtype=np.float64) * _SQRT1_2
    z = np.abs(x)
    y = np.full_like(x, math.nan)  # NaN fails every branch test below
    inner = z < _SQRT1_2
    y[inner] = 0.5 + 0.5 * _erf(x[inner])
    middle = (z >= _SQRT1_2) & (z < 1.0)
    y[middle] = 0.5 * (1.0 - _erf(z[middle]))
    # erfc(z) for z >= 1: 0 once -z^2 < -_MAXLOG, and for inf
    erfc = np.zeros_like(z)
    with np.errstate(over="ignore"):  # z * z of a huge z is inf
        live = (z >= 1.0) & (-z * z >= -_MAXLOG)
    for mask, (p, q) in ((live & (z < 8.0), (_ERFC_P, _ERFC_Q)), (live & (z >= 8.0), (_ERFC_R, _ERFC_S))):
        t = z[mask]
        erfc[mask] = np.array([math.exp(-v * v) for v in t.tolist()]) * _polevl(t, p) / _polevl(t, q, True)
    tail = z >= 1.0
    y[tail] = 0.5 * erfc[tail]
    upper = (z >= _SQRT1_2) & (x > 0)
    y[upper] = 1.0 - y[upper]
    return y


def _autocorrelated_speeds(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    """Stationary AR(1) Gaussian mapped through a Weibull marginal.

    The Gaussian copula keeps the marginal distribution exactly Weibull
    while giving the series the strong short-range persistence of real wind.
    """
    eps = rng.standard_normal(n)
    z = np.empty(n)
    z[0] = eps[0]
    innovation = math.sqrt(1.0 - AR1_PHI**2)
    for t in range(1, n):
        z[t] = AR1_PHI * z[t - 1] + innovation * eps[t]
    u = _ndtr(z)
    # inverse Weibull CDF; log1p keeps precision for u near 0
    return scale * (-np.log1p(-u)) ** (1.0 / WEIBULL_SHAPE)


def generate_synthetic(config: SyntheticConfig = SyntheticConfig()) -> Dataset:
    """Synthesize a plausible 15-minute SCADA series from the turbine curve.

    Draw order is fixed (speed, direction, temperature noise, power noise) so
    a given config and seed always yields a byte-identical dataset. Direction
    is uniform on [0, 360); temperature follows a seasonal sinusoid plus
    2 degC noise, independent of speed, so its correlation with power is
    negligible. Gaussian noise on power is clamped to
    [0, 1.05 * rated_power] to keep every row within dataset invariants.
    """
    rng = _rng(config.seed)
    n = config.n_samples
    v = _autocorrelated_speeds(rng, n, WEIBULL_SCALE_RATIO * config.rated_speed)
    direction = rng.uniform(0.0, 360.0, n)
    day = np.arange(n) * (15.0 / (60.0 * 24.0))
    temperature = 20.0 + 8.0 * np.sin(2.0 * np.pi * day / 365.25) + rng.normal(0.0, 2.0, n)
    power = power_curve(config, v)
    if config.noise_sd > 0:
        power = power + rng.normal(0.0, config.noise_sd, n)
    power = np.clip(power, 0.0, OVERPOWER_TOLERANCE * config.rated_power)
    timestamps = _SYNTHETIC_EPOCH + np.arange(n) * _GRID
    return Dataset(timestamps, v, direction, temperature, power, config.rated_power)


def select_features(dataset: Dataset, fs: FeatureSet, rows=slice(None)) -> DesignMatrix:
    """Project the chosen feature columns of ``rows`` (a slice or ascending row indices, such as a
    side of ``SplitSpec.sides``); target is always the power column. A Dataset's rows were validated
    when it was made, and any of them in ascending order still are, so none is validated again."""
    columns = np.column_stack([dataset.column(name)[rows] for name in fs.columns])
    return DesignMatrix(rows=columns, target=dataset.column("power")[rows], feature_names=fs.columns)


def _csv_text(header, rows) -> str:
    """The one CSV writer: ``header``, then ``rows``, each line ended by a line feed.

    A Python float is written as its repr, the shortest string that
    round-trips it exactly, None as an empty cell, and a cell holding a comma
    is quoted. Pass arrays as ``.tolist()``: a numpy scalar's repr names its type.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_csv(dataset: Dataset) -> str:
    """Serialize to the canonical CSV format; parse_csv inverts it exactly."""
    columns = (dataset.column(name).tolist() for name in CSV_HEADER[1:])
    return _csv_text(CSV_HEADER, zip((ts.isoformat() for ts in dataset.timestamps), *columns))


def decode_utf8(raw: bytes, what: str) -> str:
    """``raw`` decoded as UTF-8; otherwise a DataError naming ``what`` and the first bad byte's offset."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} is not UTF-8: invalid byte at offset {exc.start}") from None


# Data rows that parse_csv converts at a time. Kept small because a block's row lists then die
# young, so the cyclic garbage collector never walks them: on 120,360 rows (one thread), blocks
# of 256 parsed in 0.29 s, of 1,024 in 0.34 s, of 4,096 in 0.36 s and the whole file in 0.47 s.
_BLOCK_ROWS = 256


def _csv_rows(reader):
    """The rows of a csv ``reader``, with the ``csv.Error`` a line raises (a cell over
    ``csv.field_size_limit()`` characters) in place of that line's row; reading resumes after it.
    ``parse_csv`` consumes it ``_BLOCK_ROWS`` rows at a time."""
    while True:
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            yield exc


def parse_csv(source, rated_power: float | None = None) -> Dataset:
    """Parse the canonical CSV format into a validated Dataset.

    ``source`` may be a str, bytes, or a readable text/binary stream; content
    must be UTF-8 with header ``timestamp,wind_speed,wind_direction,
    temperature,power`` and ISO-8601 timestamps. Blank lines are skipped and
    not counted: data rows are numbered from 1 after the header. Any row that
    fails to parse or violates the dataset invariants rejects the whole file
    via RowParseError, which keeps every such row. A given ``rated_power``
    must be finite and > 0; when omitted it is taken as the maximum observed
    power.
    """
    if rated_power is not None:  # checked before any row is judged by it
        rated_power = _real("rated_power", rated_power, 0)
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = decode_utf8(source, "input")
    records = _csv_rows(csv.reader(source.splitlines()))
    header = next(records, None)
    if header is None:
        raise EmptyInput("no content")
    if isinstance(header, csv.Error):
        raise MalformedHeader(f"header cannot be read: {header}")
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise MalformedHeader(f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}")

    timestamps: list[datetime] = []
    storage = [array("d") for _ in CSV_HEADER[1:]]
    failures: list[tuple[int, str]] = []
    row = 0
    while block := list(islice(records, _BLOCK_ROWS)):
        # a block of well-formed rows is converted column by column, by the functions the row
        # loop below calls on each cell; any other block, and one where a cell fails, goes
        # through that loop, the one place a row is judged and a failure named
        if all(type(fields) is list and len(fields) == len(CSV_HEADER) for fields in block):
            cells = list(zip(*block))
            try:
                stamps = list(map(datetime.fromisoformat, map(str.strip, cells[0])))
                values = [list(map(float, column)) for column in cells[1:]]
            except ValueError:
                pass
            else:
                timestamps += stamps
                for col, converted in zip(storage, values):
                    col.extend(converted)
                row += len(block)
                continue
        for fields in block:
            if not fields:
                continue
            row += 1
            if isinstance(fields, csv.Error):
                failures.append((row, str(fields)))
                continue
            if len(fields) != len(CSV_HEADER):
                failures.append((row, f"expected {len(CSV_HEADER)} fields, got {len(fields)}"))
                continue
            try:
                ts = datetime.fromisoformat(fields[0].strip())
            except ValueError:
                failures.append((row, f"bad timestamp {fields[0]!r}"))
                continue
            values = []
            for name, raw in zip(CSV_HEADER[1:], fields[1:]):
                try:
                    values.append(float(raw))
                except ValueError:
                    failures.append((row, f"bad {name} value {raw!r}"))
            if len(values) == len(storage):
                timestamps.append(ts)
                for col, x in zip(storage, values):
                    col.append(x)

    columns = dict(zip(CSV_HEADER[1:], map(np.frombuffer, storage)))
    # data row number of each parsed row: every row that failed to parse is skipped
    parsed_rows = np.delete(np.arange(1, row + 1), sorted({r - 1 for r, _ in failures}))
    failures += [(int(parsed_rows[i]), reason) for i, reason in _row_problems(columns, rated_power)]
    if failures:
        raise RowParseError(sorted(failures, key=lambda failure: failure[0]))
    if not timestamps:
        raise EmptyInput("no data rows")
    if rated_power is None:
        rated_power = float(columns["power"].max())
        if rated_power <= 0:
            rated_power = 1.0
    return Dataset(timestamps, *columns.values(), rated_power=rated_power)

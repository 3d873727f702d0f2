"""Pearson correlation analysis and the kinetic-energy reference curve."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _csv_text, _readonly
from .errors import BetzViolation, ConstantInput, LengthMismatch

BETZ_LIMIT = 0.59

CORRELATION_COLUMNS = ("wind_speed", "wind_direction", "temperature", "power")


def pearson(x, y) -> float:
    """Pearson product-moment correlation, clamped to [-1, 1].

    Two-pass computation (mean first, then centered moments) keeps the
    result stable on long series.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise LengthMismatch(f"length {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise ConstantInput("need at least 2 samples")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise ConstantInput("constant input vector")
    r = float(dx @ dy) / np.sqrt(sxx * syy)
    return float(min(1.0, max(-1.0, r)))


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric Pearson matrix over named columns; unit diagonal."""

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "values", _readonly(self.values))

    def lookup(self, a: str, b: str) -> float:
        return float(self.values[self.labels.index(a), self.labels.index(b)])


def correlation_matrix(d: Dataset) -> CorrelationMatrix:
    """4x4 Pearson matrix over (speed, direction, temperature, power).

    A constant column raises ConstantInput naming the column instead of
    leaking NaN into downstream heatmaps.
    """
    cols = [d.column(name) for name in CORRELATION_COLUMNS]
    for name, c in zip(CORRELATION_COLUMNS, cols):
        if len(c) < 2 or np.all(c == c[0]):
            raise ConstantInput(f"column {name!r} is constant")
    k = len(cols)
    values = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            r = pearson(cols[i], cols[j])
            values[i, j] = r
            values[j, i] = r
    return CorrelationMatrix(labels=CORRELATION_COLUMNS, values=values)


def heatmap_csv(cm: CorrelationMatrix) -> str:
    """Plot-data for heatmap rendering: (row_label, col_label, r) triples."""
    labels = cm.labels
    triples = ((row, col, r) for row, rs in zip(labels, cm.values.tolist()) for col, r in zip(labels, rs))
    return _csv_text(("row_label", "col_label", "r"), triples)


def physical_power(v, rho: float, cp: float, area: float):
    """Kinetic-energy power law 0.5*rho*cp*A*v^3, returned in kW.

    v's binary exponent is split off first (v = m * 2**e), the law is
    evaluated on the mantissa m, and 2**(3e) is applied last. Rounding
    therefore never depends on v's scale, so doubling v scales the output
    by exactly 8 whenever the output is a normal float. Below
    2.2250738585072014e-308 kW the output is subnormal: subnormals lie on
    a fixed grid of spacing 2**-1074, so no floating-point format can keep
    f(2v) == 8*f(v) there, and the two sides may differ by a few grid
    steps. cp above the 0.59 conversion bound is rejected.
    """
    if cp > BETZ_LIMIT:
        raise BetzViolation(f"power coefficient {cp} exceeds {BETZ_LIMIT}")
    v_arr = np.asarray(v, dtype=np.float64)
    if np.any(v_arr < 0) or rho < 0 or cp < 0 or area < 0:
        raise ValueError("wind speed, density, power coefficient and area must be >= 0")
    m, e = np.frexp(v_arr)
    result = np.ldexp(0.5 * rho * cp * area * (m * m * m) / 1000.0, 3 * e)
    return float(result) if np.isscalar(v) or v_arr.ndim == 0 else result

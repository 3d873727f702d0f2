"""Pearson correlation analysis and its heatmap plot data."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _csv_text, _readonly
from .errors import ConstantInput, LengthMismatch

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
    return float(np.clip(r, -1.0, 1.0))  # NaN stays NaN


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

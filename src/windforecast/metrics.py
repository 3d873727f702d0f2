"""The three evaluation metrics, computed identically for every model.

Sums run through numpy's pairwise summation in double precision, which is
stable on 30k-row inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import _checked_reals, _entries
from .errors import ConstantActual, Empty, LengthMismatch


def _paired(actual, predicted, names=("actual", "predicted"), score: str = "") -> tuple[np.ndarray, np.ndarray]:
    """Two vectors, raveled; refused unless their lengths are equal and, for a named ``score``, unless they
    are empty, and then read through the number rule (NaN and +-inf pass), so a length is judged first."""
    pair = [v if type(v) is np.ndarray else _entries(name, v) for name, v in zip(names, (actual, predicted))]
    if pair[0].size != pair[1].size:
        raise LengthMismatch(f"length {pair[0].size} vs {pair[1].size}")
    if score and pair[0].size == 0:
        raise Empty(f"{score} needs at least one sample")
    return tuple(_checked_reals(name, v, finite=False).ravel() for name, v in zip(names, pair))


def mae(actual, predicted) -> float:
    """Mean absolute deviation between actuals and predictions, in kW."""
    a, p = _paired(actual, predicted, score="mae")
    return float(np.mean(np.abs(a - p)))


def rmse(actual, predicted) -> float:
    """Root mean squared deviation, in kW."""
    a, p = _paired(actual, predicted, score="rmse")
    return float(np.sqrt(np.mean((a - p) ** 2)))


def r_squared(actual, predicted) -> float:
    """1 - SS_res/SS_tot about the mean of the actuals.

    1 is a perfect fit, 0 matches the mean predictor, negative values are
    allowed (worse than the mean). Constant actuals are rejected rather
    than returning NaN.
    """
    a, p = _paired(actual, predicted, score="r_squared")
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    if ss_tot == 0.0:
        raise ConstantActual("actual values are constant; R^2 is undefined")
    ss_res = float(np.sum((a - p) ** 2))
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class EvalReport:
    """MAE, RMSE and R^2 for one model on one evaluation set."""

    mae: float
    rmse: float
    r_squared: float
    n_samples: int

    @classmethod
    def from_predictions(cls, actual, predicted) -> "EvalReport":
        a, p = _paired(actual, predicted)
        return cls(
            mae=mae(a, p),
            rmse=rmse(a, p),
            r_squared=r_squared(a, p),
            n_samples=int(a.size),
        )

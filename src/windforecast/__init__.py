"""Wind-power forecasting models and a reproducible experiment harness."""

from .dataset import (
    Dataset,
    DesignMatrix,
    FeatureSet,
    MinMaxScaler,
    SplitSpec,
    SyntheticConfig,
    fit_scaler,
    generate_synthetic,
    parse_csv,
    physical_power,
    power_curve,
    select_features,
    split,
    write_csv,
)
from .metrics import EvalReport, mae, r_squared, rmse
from .stats import CorrelationMatrix, correlation_matrix, pearson

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DesignMatrix",
    "FeatureSet",
    "MinMaxScaler",
    "SplitSpec",
    "SyntheticConfig",
    "EvalReport",
    "CorrelationMatrix",
    "fit_scaler",
    "generate_synthetic",
    "parse_csv",
    "power_curve",
    "select_features",
    "split",
    "write_csv",
    "mae",
    "rmse",
    "r_squared",
    "pearson",
    "correlation_matrix",
    "physical_power",
    "__version__",
]

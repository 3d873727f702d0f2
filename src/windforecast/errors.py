"""Exception hierarchy shared by all modules.

Two base classes partition failures the way the CLI reports them:
``DataError`` for invalid inputs or configuration (exit code 2) and
``NumericError`` for failures inside a numeric routine (exit code 3).
"""


class DataError(Exception):
    """Invalid input data or configuration."""


class NumericError(Exception):
    """A numeric routine failed (rank deficiency, divergence, ...)."""


# -- ingest / dataset ---------------------------------------------------------

class MalformedHeader(DataError):
    """CSV header does not match the expected column list."""


class EmptyInput(DataError):
    """No data rows present."""


class NonMonotonicTimestamps(DataError):
    """Timestamps are not strictly increasing."""


class MixedTimezones(DataError):
    """Offset-naive and offset-aware timestamps meet, so they cannot be ordered."""


# Failing rows a RowParseError message names; ``failures`` keeps every row.
MAX_NAMED_ROWS = 10


class RowParseError(DataError):
    """One or more rows failed to parse or violated record invariants.

    ``failures`` holds ``(row_number, reason)`` pairs; row numbers are
    1-based over data rows (the header line is not counted).
    """

    def __init__(self, failures):
        self.failures = tuple(failures)
        failing = list(dict.fromkeys(self.rows))
        named = set(failing[:MAX_NAMED_ROWS])
        text = "; ".join(f"row {i}: {r}" for i, r in self.failures if i in named)
        if len(failing) > MAX_NAMED_ROWS:
            text += f"; and {len(failing) - MAX_NAMED_ROWS} more row(s)"
        super().__init__(f"{len(failing)} invalid row(s): {text}")

    @property
    def rows(self):
        return [i for i, _ in self.failures]


class InvalidConfig(DataError):
    """A configuration object violates its invariants."""


class DegenerateSplit(DataError):
    """Requested split would leave the train or test side empty."""


# -- stats / metrics ----------------------------------------------------------

class LengthMismatch(DataError):
    """Paired vectors have different lengths."""


class Empty(DataError):
    """Operation requires at least one sample."""


class ConstantInput(DataError):
    """A vector (or named column) has zero variance."""


class ConstantActual(DataError):
    """The actual-value vector is constant, so R^2 is undefined."""


class BetzViolation(DataError):
    """Power coefficient exceeds the 0.59 physical bound."""


# -- regression ---------------------------------------------------------------

class TooFewRows(DataError):
    """Fewer rows than columns after intercept augmentation."""


class RankDeficient(NumericError):
    """Design matrix lost full column rank; names the dependent columns."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__("design matrix is rank deficient in columns: %s" % (", ".join(self.columns)))


class FeatureMismatch(DataError):
    """Prediction input does not match the features the model was fit on."""


class DegreeOutOfRange(DataError):
    """Polynomial degree outside the supported range [2, 5]."""


class MalformedModel(DataError, ValueError):
    """A saved model document is not an object, lacks a key or has an unknown schema."""


class ConditionWarning(UserWarning):
    """Fit succeeded but the design matrix condition estimate exceeds 1e10."""


# -- ann ----------------------------------------------------------------------

class InvalidArchitecture(DataError):
    """Network layer specification violates the four-hidden-layer contract."""


class DimensionMismatch(DataError):
    """Input vector dimension does not match the network input layer."""


class NonFiniteLoss(NumericError):
    """Training loss became NaN or infinite; a training stack returns it as that network's result."""

    def __init__(self, epoch, learning_rate):
        self.epoch = epoch
        self.learning_rate = learning_rate
        super().__init__(
            f"training diverged at epoch {epoch} (learning_rate={learning_rate}); "
            "try a smaller learning rate"
        )


# -- harness ------------------------------------------------------------------

class SeriesTooShort(DataError):
    """Dataset shorter than the requested persistence horizon."""

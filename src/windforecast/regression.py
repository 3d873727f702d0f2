"""Parametric models: OLS multiple linear regression and polynomial regression.

Monomial order contract
-----------------------
``expand_polynomial`` emits every monomial of the base features with total
degree 1..d in graded lexicographic order: ascending total degree, and within
one degree descending lexicographic exponent tuples. For features (x1, x2)
and degree 2 the columns are x1, x2, x1^2, x1*x2, x2^2. This order is stable
across releases; serialized models store their exponent tuples explicitly.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np
from scipy.linalg import solve_triangular

from .dataset import DesignMatrix
from .errors import (
    ConditionWarning,
    DegreeOutOfRange,
    FeatureMismatch,
    RankDeficient,
    TooFewRows,
)

MIN_DEGREE, MAX_DEGREE = 2, 5

# Condition estimate above which a polynomial fit carries a warning.
CONDITION_LIMIT = 1e10

_RANK_TOL = 1e-10


@dataclass(frozen=True)
class LinearModel:
    """OLS fit: intercept plus one coefficient per feature, in kW units."""

    intercept: float
    coefficients: tuple[float, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if len(self.coefficients) != len(self.feature_names):
            raise FeatureMismatch("coefficient count does not match feature names")
        if not np.all(np.isfinite([self.intercept, *self.coefficients])):
            raise FeatureMismatch("model parameters must be finite")


@dataclass(frozen=True)
class PolynomialModel:
    """Polynomial fit: exponent tuples over the base features plus coefficients.

    ``terms`` includes the all-zeros intercept tuple; ``condition_estimate``
    is the 2-norm condition number of the intercept-augmented expanded design
    matrix the model was fit on.
    """

    degree: int
    terms: tuple[tuple[int, ...], ...]
    coefficients: tuple[float, ...]
    feature_names: tuple[str, ...]
    condition_estimate: float

    def __post_init__(self):
        # a float, string or bool exponent is refused, not truncated to an int
        if any(isinstance(e, bool) or not isinstance(e, (int, np.integer)) for t in self.terms for e in t):
            raise FeatureMismatch("each exponent must be an integer")
        object.__setattr__(self, "terms", tuple(tuple(int(e) for e in t) for t in self.terms))
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if operator.index(self.degree) not in range(MIN_DEGREE, MAX_DEGREE + 1):
            raise FeatureMismatch(f"degree {self.degree!r} is not an integer in [{MIN_DEGREE}, {MAX_DEGREE}]")
        cond = self.condition_estimate
        if isinstance(cond, bool) or not isinstance(cond, (int, float)) or not 1 <= cond < np.inf:
            raise FeatureMismatch(f"condition estimate {cond!r} is not a finite number >= 1")
        if any(len(t) != len(self.feature_names) or min(t, default=0) < 0 for t in self.terms):
            raise FeatureMismatch("each term needs one non-negative exponent per feature")
        if len(self.terms) != len(set(self.terms)):
            raise FeatureMismatch("duplicate terms")
        if len(self.terms) != len(self.coefficients):
            raise FeatureMismatch("coefficient count does not match terms")
        if any(sum(t) > self.degree for t in self.terms):
            raise FeatureMismatch("term exceeds the model degree")
        if not np.all(np.isfinite(self.coefficients)):
            raise FeatureMismatch("model parameters must be finite")

    @property
    def ill_conditioned(self) -> bool:
        return self.condition_estimate > CONDITION_LIMIT


def monomial_exponents(k: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree 1..degree in graded lex order."""
    out = []
    for total in range(1, degree + 1):
        tuples = []
        for combo in combinations_with_replacement(range(k), total):
            e = [0] * k
            for i in combo:
                e[i] += 1
            tuples.append(tuple(e))
        out.extend(sorted(tuples, reverse=True))
    return out


def _term_name(exponents: tuple[int, ...], feature_names: tuple[str, ...]) -> str:
    parts = []
    for e, name in zip(exponents, feature_names):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _times_monomial(rows: np.ndarray, exponents: tuple[int, ...], start: np.ndarray) -> np.ndarray:
    """``start`` times the monomial ``exponents`` of ``rows``, factor by factor in feature order."""
    col = start
    for feat, exp in enumerate(exponents):
        if exp:
            col = col * rows[:, feat] ** exp
    return col


def expand_polynomial(m: DesignMatrix, degree: int) -> DesignMatrix:
    """All monomials of the base features up to ``degree``, cross terms included.

    Column count is C(k + degree, degree) - 1; the target passes through.
    """
    if not MIN_DEGREE <= degree <= MAX_DEGREE:
        raise DegreeOutOfRange(f"degree must lie in [{MIN_DEGREE}, {MAX_DEGREE}], got {degree}")
    exponents = monomial_exponents(m.k, degree)
    cols = np.empty((m.n, len(exponents)))
    for j, e in enumerate(exponents):
        cols[:, j] = _times_monomial(m.rows, e, np.ones(m.n))
    names = tuple(_term_name(e, m.feature_names) for e in exponents)
    return DesignMatrix(rows=cols, target=m.target, feature_names=names)


def _qr_lstsq(a: np.ndarray, y: np.ndarray, column_names: tuple[str, ...]) -> tuple[np.ndarray, float]:
    """Least squares via Householder QR of the column-equilibrated matrix.

    Equilibration (dividing each column by its norm) is an exact
    reparameterization of the same column space; it keeps the factorization
    well scaled when monomial columns span many orders of magnitude. Returns
    the coefficients in original scaling and the condition estimate of the
    unequilibrated matrix.
    """
    n, p = a.shape
    if n <= p - 1:  # p includes the intercept column
        raise TooFewRows(f"need more than {p - 1} rows, got {n}")
    norms = np.linalg.norm(a, axis=0)
    zero = norms == 0
    safe_norms = np.where(zero, 1.0, norms)
    q, r = np.linalg.qr(a / safe_norms, mode="reduced")
    diag = np.abs(np.diag(r))
    threshold = _RANK_TOL * max(diag.max(), 1.0)
    dependent = [column_names[j] for j in range(p) if zero[j] or diag[j] <= threshold]
    if dependent:
        raise RankDeficient(dependent)
    beta = solve_triangular(r, q.T @ y) / safe_norms
    # singular values of the raw matrix equal those of R * diag(norms)
    cond = float(np.linalg.cond(r * safe_norms[np.newaxis, :]))
    return beta, cond


def _augmented(m: DesignMatrix) -> tuple[np.ndarray, tuple[str, ...]]:
    a = np.column_stack([np.ones(m.n), m.rows])
    return a, ("intercept", *m.feature_names)


def fit_ols(m: DesignMatrix) -> LinearModel:
    """Unique least-squares minimizer of the intercept-augmented system.

    Solved by orthogonal factorization, never by inverting the normal
    equations; rank deficiency is reported with the dependent column names.
    """
    a, names = _augmented(m)
    beta, _ = _qr_lstsq(a, m.target, names)
    return LinearModel(
        intercept=float(beta[0]),
        coefficients=tuple(beta[1:]),
        feature_names=m.feature_names,
    )


def predict_linear(model: LinearModel, m: DesignMatrix) -> np.ndarray:
    """Intercept plus weighted feature sum, in kW."""
    if m.feature_names != model.feature_names:
        raise FeatureMismatch(
            f"model was fit on {model.feature_names}, matrix has {m.feature_names}"
        )
    return model.intercept + m.rows @ np.asarray(model.coefficients)


def fit_polynomial(m: DesignMatrix, degree: int) -> PolynomialModel:
    """Equivalent to fit_ols after expand_polynomial.

    Ill-conditioning is not a failure: the condition estimate is stored on
    the model and a ConditionWarning is emitted when it exceeds 1e10.
    """
    expanded = expand_polynomial(m, degree)
    a, names = _augmented(expanded)
    beta, cond = _qr_lstsq(a, expanded.target, names)
    if cond > CONDITION_LIMIT:
        warnings.warn(
            "polynomial design matrix condition estimate exceeds 1e10; "
            "coefficients may be unstable",
            ConditionWarning,
            stacklevel=2,
        )
    k = m.k
    terms = [tuple([0] * k)] + monomial_exponents(k, degree)
    return PolynomialModel(
        degree=degree,
        terms=tuple(terms),
        coefficients=tuple(beta),
        feature_names=m.feature_names,
        condition_estimate=cond,
    )


def predict_polynomial(model: PolynomialModel, m: DesignMatrix) -> np.ndarray:
    """Evaluate the stored monomials on base features, in kW."""
    if m.feature_names != model.feature_names:
        raise FeatureMismatch(
            f"model was fit on {model.feature_names}, matrix has {m.feature_names}"
        )
    out = np.zeros(m.n)
    for coef, term in zip(model.coefficients, model.terms):
        out += _times_monomial(m.rows, term, np.full(m.n, coef))
    return out


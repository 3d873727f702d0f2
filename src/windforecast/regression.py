"""Parametric models: OLS multiple linear regression and polynomial regression.

Monomial order contract
-----------------------
``expand_polynomial`` emits every monomial of the base features with total
degree 1..d in graded lexicographic order: ascending total degree, and within
one degree descending lexicographic exponent tuples. For features (x1, x2)
and degree 2 the columns are x1, x2, x1^2, x1*x2, x2^2. This order is stable
across releases; serialized models store their exponent tuples explicitly.

Nested prefixes: under this order every degree's intercept-augmented design
is a column prefix of the ``MAX_DEGREE`` design, and one R factor of the
equilibrated ``[1 | expand(m, MAX_DEGREE) | y]`` answers every degree: p
columns read R's leading p x p block and the first p entries of its last
column (Q^T y). ``factor_design`` never holds that design whole: it applies
Householder QR to each block of ``BLOCK_ROWS`` rows (sized for the cache), then
to the stacked block Rs, until one R is left, and reads the equilibrating
column norms from R (Q is orthogonal). Every step factors whole columns left
to right, so the column-prefix contract holds, and a degree fits to the same
bits alone or in a sweep; ``fit_ols`` factors its own ``[1 | x | y]``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np
from scipy.linalg import solve_triangular

from .dataset import DesignMatrix, _is_int, _is_real
from .errors import DegreeOutOfRange, FeatureMismatch, RankDeficient, TooFewRows

MIN_DEGREE, MAX_DEGREE = 2, 5

# Condition estimate above which a polynomial fit is ill-conditioned: its coefficients may be unstable
CONDITION_LIMIT = 1e10

_RANK_TOL = 1e-10

# Rows of the design built and factored at a time: a 4,096-row block of the 57-column
# degree-5 design is 1.9 MB and stays in cache; 1,024 to 4,096 rows ran alike, 16,384 slower
BLOCK_ROWS = 4096


def _numbers(values) -> tuple[float, ...]:
    """``values`` as floats; anything but a number (see ``_is_real``) is refused, not read as one."""
    if not all(map(_is_real, values)):
        raise FeatureMismatch("model parameters must be numbers")
    return tuple(float(v) for v in values)


def _names(values) -> tuple[str, ...]:
    if not all(isinstance(name, str) for name in values):
        raise FeatureMismatch("feature names must be strings")
    return tuple(values)


@dataclass(frozen=True)
class LinearModel:
    """OLS fit: intercept plus one coefficient per feature, in kW units."""

    intercept: float
    coefficients: tuple[float, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        intercept, *coefficients = _numbers((self.intercept, *self.coefficients))
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "coefficients", tuple(coefficients))
        object.__setattr__(self, "feature_names", _names(self.feature_names))
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
        if not all(_is_int(e) for t in self.terms for e in t):
            raise FeatureMismatch("each exponent must be an integer")
        object.__setattr__(self, "terms", tuple(tuple(int(e) for e in t) for t in self.terms))
        object.__setattr__(self, "coefficients", _numbers(self.coefficients))
        object.__setattr__(self, "feature_names", _names(self.feature_names))
        if operator.index(self.degree) not in range(MIN_DEGREE, MAX_DEGREE + 1):
            raise FeatureMismatch(f"degree {self.degree!r} is not an integer in [{MIN_DEGREE}, {MAX_DEGREE}]")
        cond = self.condition_estimate
        if not (_is_real(cond) and 1 <= cond < np.inf):
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


def _polynomial_terms(k: int, degree: int) -> list[tuple[int, ...]]:
    if not MIN_DEGREE <= degree <= MAX_DEGREE:
        raise DegreeOutOfRange(f"degree must lie in [{MIN_DEGREE}, {MAX_DEGREE}], got {degree}")
    return monomial_exponents(k, degree)


def _design(rows: np.ndarray, target: np.ndarray, terms: list[tuple[int, ...]]) -> np.ndarray:
    """Columns 1, the monomials ``terms`` of ``rows`` and ``target``, in one Fortran-ordered buffer."""
    n, k = rows.shape
    a = np.empty((n, len(terms) + 2), order="F")
    ones = np.ones(n)
    for j, e in enumerate([(0,) * k, *terms]):
        a[:, j] = _times_monomial(rows, e, ones)
    a[:, -1] = target
    return a


def expand_polynomial(m: DesignMatrix, degree: int) -> DesignMatrix:
    """All monomials of the base features up to ``degree``, cross terms included.

    Column count is C(k + degree, degree) - 1; the target passes through.
    """
    exponents = _polynomial_terms(m.k, degree)
    names = tuple(_term_name(e, m.feature_names) for e in exponents)
    return DesignMatrix(rows=_design(m.rows, m.target, exponents)[:, 1:-1], target=m.target, feature_names=names)


@dataclass(frozen=True)
class LeastSquaresFactor:
    """R of ``[1 | columns | y]`` after each of the first columns is divided by its norm;
    ``norms`` (0 marks a zero column) and ``names`` describe ``[1 | columns]``, the
    monomials up to ``degree`` of an n-row matrix over ``feature_names``."""

    r: np.ndarray
    norms: np.ndarray
    names: tuple[str, ...]
    degree: int
    feature_names: tuple[str, ...]
    n: int

    def solve(self, p: int) -> tuple[np.ndarray, float]:
        """Coefficients (original scaling) and condition estimate of the first p raw columns."""
        if self.n <= p - 1:  # p includes the intercept column
            raise TooFewRows(f"need more than {p - 1} rows, got {self.n}")
        r, norms = self.r[:p, :p], self.norms[:p]
        diag = np.abs(np.diag(r))
        threshold = _RANK_TOL * max(diag.max(), 1.0)
        dependent = [self.names[j] for j in range(p) if norms[j] == 0 or diag[j] <= threshold]
        if dependent:
            raise RankDeficient(dependent)
        beta = solve_triangular(r, self.r[:p, -1]) / norms
        # singular values of the raw matrix equal those of R * diag(norms)
        return beta, float(np.linalg.cond(r * norms[np.newaxis, :]))


def factor_design(m: DesignMatrix, degree: int = MAX_DEGREE) -> LeastSquaresFactor:
    """The factor of ``m``'s monomials up to ``degree``: 1 is the linear design,
    and every ``fit_polynomial`` of ``m`` reads the ``MAX_DEGREE`` factor."""
    terms = monomial_exponents(m.k, degree)
    # each reduction must shrink the stack, so a block has at least twice the columns;
    # an empty matrix is one empty block, whose R ``solve`` refuses for too few rows
    step = max(BLOCK_ROWS, 2 * (len(terms) + 2))
    rs = [
        np.linalg.qr(_design(m.rows[i : i + step], m.target[i : i + step], terms), mode="r")
        for i in range(0, max(m.n, 1), step)
    ]
    while len(rs) > 1:
        stack = np.vstack(rs)
        rs = [np.linalg.qr(stack[i : i + step], mode="r") for i in range(0, len(stack), step)]
    r = rs[0]
    # equilibration, an exact reparameterization, keeps the rank test and the solve well
    # scaled when monomial columns span many orders of magnitude; A's column norms are R's,
    # so R with its columns divided by them is the R of the equilibrated design
    norms = np.linalg.norm(r[:, :-1], axis=0)
    r[:, :-1] /= np.where(norms == 0, 1.0, norms)
    names = ("intercept", *(_term_name(e, m.feature_names) for e in terms))
    return LeastSquaresFactor(r, norms, names, degree, m.feature_names, m.n)


def fit_ols(m: DesignMatrix) -> LinearModel:
    """Unique least-squares minimizer of the intercept-augmented system.

    Solved by orthogonal factorization, never by inverting the normal
    equations; rank deficiency is reported with the dependent column names.
    """
    beta, _ = factor_design(m, 1).solve(m.k + 1)
    return LinearModel(intercept=beta[0], coefficients=tuple(beta[1:]), feature_names=m.feature_names)


def predict_linear(model: LinearModel, m: DesignMatrix) -> np.ndarray:
    """Intercept plus weighted feature sum, in kW."""
    if m.feature_names != model.feature_names:
        raise FeatureMismatch(
            f"model was fit on {model.feature_names}, matrix has {m.feature_names}"
        )
    return model.intercept + m.rows @ np.asarray(model.coefficients)


def fit_polynomial(m: DesignMatrix, degree: int, *, factor: LeastSquaresFactor | None = None) -> PolynomialModel:
    """Equivalent to fit_ols after expand_polynomial, read from ``factor_design(m)``.

    Pass ``factor`` to share one factorization across degrees; the model is
    the same bits either way. Ill-conditioning is not a failure: the
    condition estimate is stored on the model, and ``ill_conditioned`` reads
    it against ``CONDITION_LIMIT``.
    """
    terms = [(0,) * m.k, *_polynomial_terms(m.k, degree)]
    if factor is None:
        factor = factor_design(m)
    elif (factor.degree, factor.feature_names, factor.n) != (MAX_DEGREE, m.feature_names, m.n):
        raise FeatureMismatch(f"factor is of degree {factor.degree} on {factor.n} rows of {factor.feature_names}")
    beta, cond = factor.solve(len(terms))
    return PolynomialModel(degree, tuple(terms), tuple(beta), m.feature_names, cond)


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


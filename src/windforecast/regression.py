"""Parametric models: OLS multiple linear regression and polynomial regression.

Monomial order contract
-----------------------
``expand_polynomial`` emits every monomial of the base features with total
degree 1..d in graded lexicographic order: ascending total degree, and within
one degree descending lexicographic exponent tuples. For features (x1, x2)
and degree 2 the columns are x1, x2, x1^2, x1*x2, x2^2. This order is stable
across releases; serialized models store their exponent tuples explicitly.

Nested column prefixes: under this order every degree's intercept-augmented design
is a column prefix of the ``MAX_DEGREE`` design, and one R factor of the
equilibrated ``[1 | expand(m, MAX_DEGREE) | y]`` answers every degree: p
columns read R's leading p x p block and the first p entries of its last
column (Q^T y). ``factor_design`` never holds that design whole: it runs one
sequential chain over the rows, ``R <- qr([R; design(block)])`` for each block
of ``BLOCK_ROWS`` rows (sized for the cache), and reads the equilibrating column
norms from R (Q is orthogonal). Every fold factors whole columns left to right,
so the column-prefix contract holds, and a degree fits to the same bits alone
or in a sweep; ``fit_ols`` factors its own ``[1 | x | y]``.

Nested row prefixes: ``factor_prefixes`` reads the factor of several leading
row counts off one chain, in any row order. The factor of s rows folds the
whole blocks below s and then its own partial block once, so it is the same
bits as ``factor_design`` of those s rows alone. The sweep's train sets are
prefixes of one shuffled order, so one chain per feature set serves every
train fraction: ``LeastSquaresFactor.polynomial`` reads each degree off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np
from numpy.linalg import lapack_lite  # not documented API, but in every numpy release since 1.0

from .dataset import DesignMatrix, _is_int, _real, _shown, _text, _tuple
from .errors import DegreeOutOfRange, FeatureMismatch, RankDeficient, TooFewRows

MIN_DEGREE, MAX_DEGREE = 2, 5

# Condition estimate above which a polynomial fit is ill-conditioned: its coefficients may be unstable
CONDITION_LIMIT = 1e10

_RANK_TOL = 1e-10

# Rows of the design built and factored at a time: a 4,096-row block of the 57-column
# degree-5 design is 1.9 MB and stays in cache; 1,024 to 4,096 rows ran alike, 16,384 slower
BLOCK_ROWS = 4096


def _names(values) -> tuple[str, ...]:
    names = _tuple("feature_names", values, FeatureMismatch)
    if not all(isinstance(name, str) for name in names):
        raise FeatureMismatch("feature names must be strings")
    return names


def _coefficients(values) -> tuple[float, ...]:
    values = _tuple("coefficients", values, FeatureMismatch)
    return tuple(_real("coefficient", c, error=FeatureMismatch) for c in values)


@dataclass(frozen=True)
class LinearModel:
    """OLS fit: intercept plus one coefficient per feature, in kW units."""

    intercept: float
    coefficients: tuple[float, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "intercept", _real("intercept", self.intercept, error=FeatureMismatch))
        object.__setattr__(self, "coefficients", _coefficients(self.coefficients))
        object.__setattr__(self, "feature_names", _names(self.feature_names))
        if len(self.coefficients) != len(self.feature_names):
            raise FeatureMismatch("coefficient count does not match feature names")


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
        terms = [_tuple("term", t, FeatureMismatch) for t in _tuple("terms", self.terms, FeatureMismatch)]
        if not all(_is_int(e) for t in terms for e in t):
            raise FeatureMismatch("each exponent must be an integer")
        object.__setattr__(self, "terms", tuple(tuple(int(e) for e in t) for t in terms))
        object.__setattr__(self, "coefficients", _coefficients(self.coefficients))
        object.__setattr__(self, "feature_names", _names(self.feature_names))
        if not (_is_int(self.degree) and MIN_DEGREE <= self.degree <= MAX_DEGREE):
            raise FeatureMismatch(f"degree {_shown(self.degree)} is not an integer in [{MIN_DEGREE}, {MAX_DEGREE}]")
        cond = _real("condition_estimate", self.condition_estimate, error=FeatureMismatch)
        if cond < 1:
            raise FeatureMismatch(f"condition_estimate must be >= 1, got {cond!r}")
        object.__setattr__(self, "condition_estimate", cond)
        if any(len(t) != len(self.feature_names) or min(t, default=0) < 0 for t in self.terms):
            raise FeatureMismatch("each term needs one non-negative exponent per feature")
        if len(self.terms) != len(set(self.terms)):
            raise FeatureMismatch("duplicate terms")
        if len(self.terms) != len(self.coefficients):
            raise FeatureMismatch("coefficient count does not match terms")
        if any(sum(t) > self.degree for t in self.terms):
            raise FeatureMismatch("term exceeds the model degree")

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


def _powers(rows: np.ndarray, terms) -> dict[tuple[int, int], np.ndarray]:
    """``rows[:, feat] ** exp`` for each (feat, exp) of a monomial in ``terms``, each computed once."""
    pairs = {(feat, exp) for term in terms for feat, exp in enumerate(term) if exp}
    return {(feat, exp): rows[:, feat] ** exp for feat, exp in pairs}


def _monomial(powers: dict, exponents: tuple[int, ...], out: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """``scale`` times the monomial ``exponents`` (not the intercept), factor by factor in feature
    order, read from ``_powers`` and written into ``out``."""
    factors = [powers[feat, exp] for feat, exp in enumerate(exponents) if exp]
    np.multiply(factors[0], scale, out=out)  # 1.0 times a factor is that factor exactly
    for factor in factors[1:]:
        out *= factor
    return out


def _polynomial_terms(k: int, degree: int) -> list[tuple[int, ...]]:
    if not MIN_DEGREE <= degree <= MAX_DEGREE:
        raise DegreeOutOfRange(f"degree must lie in [{MIN_DEGREE}, {MAX_DEGREE}], got {_text(degree)}")
    return monomial_exponents(k, degree)


def _design(rows: np.ndarray, target: np.ndarray, terms: list[tuple[int, ...]], head=None) -> np.ndarray:
    """Columns 1, the monomials ``terms`` of ``rows`` and ``target``, in one Fortran-ordered buffer
    below the rows of ``head``, if given."""
    n = len(rows)
    top = 0 if head is None else len(head)
    a = np.empty((top + n, len(terms) + 2), order="F")
    if head is not None:
        a[:top] = head
    powers = _powers(rows, terms)
    a[top:, 0] = 1.0
    for j, e in enumerate(terms, 1):
        _monomial(powers, e, a[top:, j])
    a[top:, -1] = target
    return a


def expand_polynomial(m: DesignMatrix, degree: int) -> DesignMatrix:
    """All monomials of the base features up to ``degree``, cross terms included.

    Column count is C(k + degree, degree) - 1; the target passes through.
    """
    exponents = _polynomial_terms(m.k, degree)
    names = tuple(_term_name(e, m.feature_names) for e in exponents)
    return DesignMatrix(rows=_design(m.rows, m.target, exponents)[:, 1:-1], target=m.target, feature_names=names)


def _back_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with ``r @ x = b`` for upper-triangular ``r``, row by row from the last up; this
    row-oriented order gives the bits of ``scipy.linalg.solve_triangular``."""
    x = np.empty(len(b))
    for j in range(len(b) - 1, -1, -1):
        x[j] = (b[j] - r[j, j + 1:] @ x[j + 1:]) / r[j, j]
    return x


def _qr_r(a: np.ndarray) -> np.ndarray:
    """R of the Fortran-ordered ``a`` by LAPACK's Householder QR (``dgeqrf``, as ``np.linalg.qr``
    runs it), factored in place: ``np.linalg.qr`` would copy ``a`` twice."""
    m, n = a.shape
    # a.T is a C-ordered view of a's buffer, so LAPACK reads it as a column-major m x n matrix
    tau, work = np.empty(min(m, n)), np.empty(1)
    lapack_lite.dgeqrf(m, n, a.T, max(1, m), tau, work, -1, 0)  # workspace query
    work = np.empty(max(1, n, int(work[0])))
    lapack_lite.dgeqrf(m, n, a.T, max(1, m), tau, work, len(work), 0)
    return np.triu(a[: min(m, n)])


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
        beta = _back_substitute(r, self.r[:p, -1]) / norms
        # singular values of the raw matrix equal those of R * diag(norms)
        return beta, float(np.linalg.cond(r * norms[np.newaxis, :]))

    def polynomial(self, degree: int) -> PolynomialModel:
        """The least-squares polynomial of ``degree``, at most the factor's own, over the factor's rows;
        an ill-conditioned fit is no failure (see ``PolynomialModel.ill_conditioned``)."""
        k = len(self.feature_names)
        terms = [(0,) * k, *_polynomial_terms(k, degree)]
        if degree > self.degree:
            raise DegreeOutOfRange(f"degree {degree} exceeds the factor's degree {self.degree}")
        beta, cond = self.solve(len(terms))
        return PolynomialModel(degree, tuple(terms), tuple(beta), self.feature_names, cond)


def factor_prefixes(
    columns, target: np.ndarray, feature_names: tuple[str, ...], stops,
    degree: int = MAX_DEGREE, order: np.ndarray | None = None,
) -> dict[int, LeastSquaresFactor]:
    """The factor of the first s rows of the matrix of ``columns`` and ``target``, taken in
    ``order`` (default: their own), for each row count s in ``stops``.

    One chain serves every stop: the factor of s rows folds each whole block that
    ends at or before s, then its own partial block once, so it is the same bits
    whatever the other stops and equals ``factor_design`` of those s rows alone.
    Each block's rows are indexed out of the columns, so no other matrix is built.
    """
    n, counts = len(target), _tuple("stops", stops, TooFewRows)
    if not all(_is_int(s) and 0 <= s <= n for s in counts):
        raise TooFewRows(f"each stop must be a row count in [0, {n}], got {_shown(stops)}")
    terms = monomial_exponents(len(columns), degree)
    names = ("intercept", *(_term_name(e, feature_names) for e in terms))

    def fold(r: np.ndarray, start: int, stop: int) -> np.ndarray:
        """R of ``r`` stacked on the design of rows start..stop."""
        index = slice(start, stop) if order is None else order[start:stop]
        block = np.column_stack([col[index] for col in (*columns, target)])
        return _qr_r(_design(block[:, :-1], block[:, -1], terms, head=r))

    # the R of no rows: a 0-row prefix keeps it, and ``solve`` refuses it for too few rows
    r, folded = np.zeros((0, len(terms) + 2)), 0
    factors = {}
    for stop in sorted(set(counts)):
        while folded + BLOCK_ROWS <= stop:
            r, folded = fold(r, folded, folded + BLOCK_ROWS), folded + BLOCK_ROWS
        prefix = r if folded == stop else fold(r, folded, stop)
        # equilibration, an exact reparameterization, keeps the rank test and the solve well
        # scaled when monomial columns span many orders of magnitude; A's column norms are R's,
        # so R with its columns divided by them is the R of the equilibrated design
        norms = np.linalg.norm(prefix[:, :-1], axis=0)
        scaled = prefix / np.append(np.where(norms == 0, 1.0, norms), 1.0)
        factors[stop] = LeastSquaresFactor(scaled, norms, names, degree, tuple(feature_names), stop)
    return factors


def factor_design(m: DesignMatrix, degree: int = MAX_DEGREE) -> LeastSquaresFactor:
    """The factor of ``m``'s monomials up to ``degree``: 1 is the linear design,
    and every ``fit_polynomial`` of ``m`` reads the ``MAX_DEGREE`` factor."""
    return factor_prefixes(m.rows.T, m.target, m.feature_names, (m.n,), degree)[m.n]


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


def fit_polynomial(m: DesignMatrix, degree: int) -> PolynomialModel:
    """Equivalent to fit_ols after expand_polynomial; to fit several degrees of ``m``,
    factor it once and call ``polynomial`` on that factor for each."""
    return factor_design(m).polynomial(degree)


def predict_polynomial(model: PolynomialModel, m: DesignMatrix) -> np.ndarray:
    """Evaluate the stored monomials on base features, in kW."""
    if m.feature_names != model.feature_names:
        raise FeatureMismatch(
            f"model was fit on {model.feature_names}, matrix has {m.feature_names}"
        )
    out, scratch, powers = np.zeros(m.n), np.empty(m.n), _powers(m.rows, model.terms)
    for coef, term in zip(model.coefficients, model.terms):
        out += _monomial(powers, term, scratch, coef) if any(term) else coef
    return out


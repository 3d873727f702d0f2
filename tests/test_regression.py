import itertools
import json
import tracemalloc
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from windforecast import ann, regression
from windforecast.dataset import DesignMatrix, FeatureSet, SplitSpec, select_features
from windforecast.errors import (
    DegreeOutOfRange,
    FeatureMismatch,
    InvalidArchitecture,
    MalformedModel,
    RankDeficient,
    TooFewRows,
)
from windforecast.harness import from_json, to_json
from windforecast.metrics import r_squared
from windforecast.regression import (
    BLOCK_ROWS,
    CONDITION_LIMIT,
    MAX_DEGREE,
    MIN_DEGREE,
    LinearModel,
    PolynomialModel,
    expand_polynomial,
    factor_design,
    factor_prefixes,
    fit_ols,
    fit_polynomial,
    monomial_exponents,
    predict_linear,
    predict_polynomial,
)


def dm(rows, target, names=None):
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[0] == 1 and rows.shape[1] > 1 and len(np.ravel(target)) > 1:
        rows = rows.T
    if names is None:
        names = tuple(f"x{i+1}" for i in range(rows.shape[1]))
    return DesignMatrix(rows=rows, target=np.asarray(target, dtype=np.float64), feature_names=names)


def normal_equations_oracle(a, y, dps=50):
    """Extended-precision normal equations; test-only brute-force oracle."""
    with mp.workdps(dps):
        am = mp.matrix(a.tolist())
        ym = mp.matrix([float(v) for v in y])
        at = am.T
        beta = mp.lu_solve(at * am, at * ym)
        return np.array([float(b) for b in beta])


# -- fit_ols ------------------------------------------------------------------

def test_exact_line_recovered():
    x = np.arange(10, dtype=float)
    m = dm(x, 3.0 + 2.0 * x)
    model = fit_ols(m)
    assert model.intercept == pytest.approx(3.0, abs=1e-10)
    assert model.coefficients[0] == pytest.approx(2.0, abs=1e-10)
    residuals = m.target - predict_linear(model, m)
    assert np.max(np.abs(residuals)) < 1e-10


def test_constant_target():
    rng = np.random.default_rng(0)
    m = dm(rng.normal(0, 1, (20, 2)), np.full(20, 5.0))
    model = fit_ols(m)
    assert model.intercept == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(model.coefficients, 0.0, atol=1e-12)


def test_matches_extended_precision_oracle():
    rng = np.random.default_rng(42)
    x = rng.normal(0.0, 1.0, (50, 2))
    y = 1.5 - 2.0 * x[:, 0] + 0.7 * x[:, 1] + rng.normal(0.0, 0.1, 50)
    model = fit_ols(dm(x, y))
    fitted = np.array([model.intercept, *model.coefficients])
    oracle = normal_equations_oracle(np.column_stack([np.ones(50), x]), y)
    assert np.all(np.abs(fitted - oracle) <= 1e-8 * np.maximum(1.0, np.abs(oracle)))


def test_residuals_orthogonal_to_design():
    rng = np.random.default_rng(1)
    x = rng.normal(0.0, 2.0, (200, 3))
    y = x @ np.array([1.0, -3.0, 0.5]) + rng.normal(0.0, 1.0, 200)
    m = dm(x, y)
    model = fit_ols(m)
    resid = m.target - predict_linear(model, m)
    augmented = np.column_stack([np.ones(m.n), m.rows])
    scale = np.abs(augmented).max() * np.abs(resid).max()
    assert np.max(np.abs(augmented.T @ resid)) < 1e-6 * m.n * max(scale, 1.0)


def test_fit_is_local_sse_minimum():
    rng = np.random.default_rng(9)
    x = rng.normal(0.0, 1.0, (60, 2))
    y = 2.0 + x @ np.array([1.0, -1.0]) + rng.normal(0.0, 0.5, 60)
    m = dm(x, y)
    model = fit_ols(m)
    best = float(np.sum((m.target - predict_linear(model, m)) ** 2))
    beta = np.array([model.intercept, *model.coefficients])
    augmented = np.column_stack([np.ones(m.n), m.rows])
    for _ in range(100):
        perturbed = beta + rng.normal(0.0, 1e-3, beta.shape)
        sse = float(np.sum((m.target - augmented @ perturbed) ** 2))
        assert sse >= best


def test_rank_deficient_names_columns():
    x = np.arange(12, dtype=float)
    rows = np.column_stack([x, 2.0 * x])  # second column dependent on first
    with pytest.raises(RankDeficient) as exc:
        fit_ols(dm(rows, x, names=("a", "b")))
    assert "b" in exc.value.columns
    # across several row blocks: a column that is zero in every block is named,
    # and one that is nonzero only in the last, short block still fits
    rng = np.random.default_rng(12)
    n = 2 * BLOCK_ROWS + 10
    x = rng.uniform(-1.0, 1.0, n)
    y = 1.0 + x + rng.normal(0.0, 0.1, n)
    for fit in (fit_ols, lambda m: fit_polynomial(m, 2)):
        with pytest.raises(RankDeficient) as exc:
            fit(dm(np.column_stack([x, np.zeros(n)]), y, names=("x", "zero")))
        assert "zero" in exc.value.columns
    late = np.zeros(n)
    late[-10:] = rng.uniform(1.0, 2.0, 10)
    m = dm(np.column_stack([x, late]), y, names=("x", "late"))
    model = fit_ols(m)
    reference = np.linalg.lstsq(np.column_stack([np.ones(n), x, late]), y, rcond=None)[0]
    np.testing.assert_allclose([model.intercept, *model.coefficients], reference, rtol=1e-10, atol=0)
    assert fit_polynomial(m, 2).degree == 2


def test_constant_feature_conflicts_with_intercept():
    rows = np.column_stack([np.full(10, 3.0)])
    with pytest.raises(RankDeficient):
        fit_ols(dm(rows, np.arange(10, dtype=float), names=("const",)))


def test_too_few_rows():
    with pytest.raises(TooFewRows):
        fit_ols(dm(np.ones((2, 2)) + np.eye(2), [1.0, 2.0]))


# -- predict_linear -----------------------------------------------------------

def test_predict_zero_features_gives_intercept():
    model = LinearModel(intercept=7.0, coefficients=(1.0, 2.0), feature_names=("a", "b"))
    m = dm(np.zeros((4, 2)), np.zeros(4), names=("a", "b"))
    assert predict_linear(model, m).tolist() == [7.0] * 4


def test_predict_hand_arithmetic():
    model = LinearModel(intercept=3.0, coefficients=(2.0,), feature_names=("x1",))
    m = dm([1.0, 2.0], [0.0, 0.0])
    assert predict_linear(model, m).tolist() == [5.0, 7.0]


def test_predict_feature_mismatch():
    model = LinearModel(intercept=0.0, coefficients=(1.0,), feature_names=("a",))
    m = dm(np.ones((3, 1)), np.zeros(3), names=("b",))
    with pytest.raises(FeatureMismatch):
        predict_linear(model, m)


# -- expand_polynomial --------------------------------------------------------

def brute_force_monomial_count(k, degree):
    """Enumerate every exponent tuple and count total degree 1..degree."""
    count = 0
    for exps in itertools.product(range(degree + 1), repeat=k):
        if 1 <= sum(exps) <= degree:
            count += 1
    return count


def test_expand_powers_of_two():
    m = dm([[2.0]], [0.0])
    expanded = expand_polynomial(m, 3)
    assert expanded.rows[0].tolist() == [2.0, 4.0, 8.0]
    assert expanded.feature_names == ("x1", "x1^2", "x1^3")


def test_expand_two_features_degree_two():
    m = dm(np.array([[2.0, 3.0]]), [0.0], names=("x1", "x2"))
    expanded = expand_polynomial(m, 2)
    assert expanded.feature_names == ("x1", "x2", "x1^2", "x1*x2", "x2^2")
    assert expanded.rows[0].tolist() == [2.0, 3.0, 4.0, 6.0, 9.0]


def test_expand_column_counts_match_enumeration_oracle():
    for k in (1, 2, 3):
        for degree in (2, 3, 4, 5):
            m = dm(np.ones((1, k)), [0.0])
            expanded = expand_polynomial(m, degree)
            assert expanded.k == brute_force_monomial_count(k, degree)
    # C(3+5, 5) - 1 = 55
    assert brute_force_monomial_count(3, 5) == 55


def test_expand_order_is_graded_lexicographic():
    assert monomial_exponents(2, 3) == [
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
        (3, 0),
        (2, 1),
        (1, 2),
        (0, 3),
    ]


def test_expand_degree_out_of_range():
    m = dm([[1.0]], [0.0])
    for degree in (0, 1, 6):
        with pytest.raises(DegreeOutOfRange):
            expand_polynomial(m, degree)


# -- fit_polynomial -----------------------------------------------------------

def test_cubic_data_fit_exactly_at_degree_three():
    x = np.linspace(-2.0, 2.0, 40)
    y = 1.0 + x - 0.1 * x**3
    m = dm(x, y)
    model = fit_polynomial(m, 3)
    r2 = r_squared(y, predict_polynomial(model, m))
    assert r2 == pytest.approx(1.0, abs=1e-9)
    # degree 2 cannot represent the cubic: strictly lower training score
    low = fit_polynomial(m, 2)
    assert r_squared(y, predict_polynomial(low, m)) < r2 - 1e-3


def test_training_r2_nondecreasing_in_degree():
    rng = np.random.default_rng(8)
    x = rng.uniform(0.0, 3.0, (80, 2))
    y = np.sin(x[:, 0]) + 0.2 * x[:, 1] ** 2 + rng.normal(0.0, 0.1, 80)
    m = dm(x, y)
    scores = []
    for degree in (2, 3, 4, 5):
        model = fit_polynomial(m, degree)
        scores.append(r_squared(y, predict_polynomial(model, m)))
    for lower, higher in zip(scores, scores[1:]):
        assert higher >= lower - 1e-9


def test_polynomial_intercept_term_included():
    x = np.linspace(0.0, 1.0, 30)
    model = fit_polynomial(dm(x, 2.0 + x), 2)
    assert model.terms[0] == (0,)
    assert len(model.terms) == len(model.coefficients) == 3
    assert model.degree == 2


def test_polynomial_matches_expansion_plus_ols():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.5, 1.5, (60, 2))
    y = rng.normal(0.0, 1.0, 60)
    m = dm(x, y)
    poly = fit_polynomial(m, 3)
    expanded = expand_polynomial(m, 3)
    lin = fit_ols(expanded)
    assert poly.coefficients[0] == pytest.approx(lin.intercept, rel=1e-12, abs=1e-12)
    assert np.allclose(poly.coefficients[1:], lin.coefficients, rtol=1e-12, atol=1e-12)
    assert np.allclose(
        predict_polynomial(poly, m), predict_linear(lin, expanded), rtol=1e-12, atol=1e-12
    )


def test_fits_agree_with_lstsq_on_the_equilibrated_design(synthetic_5k, monkeypatch):
    train_rows, _ = SplitSpec(train_fraction=0.85, seed=42).sides(len(synthetic_5k))
    cases = [(BLOCK_ROWS, select_features(synthetic_5k, fs, train_rows), (2, 3)) for fs in FeatureSet]
    # row counts at the block edges: a last block shorter than the 56 columns of
    # the degree-5 design, and four blocks folded into one chain
    rng = np.random.default_rng(11)
    for n in (BLOCK_ROWS + 10, 3 * BLOCK_ROWS + 1):
        x = rng.uniform(-1.0, 1.0, (n, 3))
        y = 1.5 + expand_polynomial(dm(x, x[:, 0]), 5).rows @ rng.uniform(1.0, 2.0, 55) + rng.normal(0.0, 0.1, n)
        cases.append((BLOCK_ROWS, dm(x, y), (2, 3, 4, 5)))
    # 120-row blocks: a long chain of blocks scarcely taller than the design is wide
    cases.append((120, cases[-1][1], (2, 3, 4, 5)))
    for block_rows, m, degrees in cases:
        monkeypatch.setattr(regression, "BLOCK_ROWS", block_rows)
        linear = fit_ols(m)
        fits = [(np.column_stack([np.ones(m.n), m.rows]), [linear.intercept, *linear.coefficients])]
        for degree in degrees:
            expanded = expand_polynomial(m, degree).rows
            fits.append((np.column_stack([np.ones(m.n), expanded]), fit_polynomial(m, degree).coefficients))
        for a, beta in fits:
            norms = np.linalg.norm(a, axis=0)
            reference = np.linalg.lstsq(a / norms, m.target, rcond=None)[0] / norms
            np.testing.assert_allclose(beta, reference, rtol=1e-10, atol=0)


def test_factor_design_never_holds_the_whole_design():
    rng = np.random.default_rng(13)
    n = 100_000
    m = dm(rng.uniform(0.0, 1.0, (n, 3)), rng.normal(0.0, 1.0, n))
    tracemalloc.start()
    try:
        factor_design(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole degree-5 design [1 | 55 monomials | y] is n x 57 float64s
    assert peak < n * 57 * 8 / 4


def test_each_prefix_of_a_chain_equals_that_prefix_factored_alone():
    rng = np.random.default_rng(15)
    n = 3 * BLOCK_ROWS + 50
    m = dm(rng.uniform(0.0, 1.0, (n, 2)), rng.normal(0.0, 1.0, n))
    # below one block, on a block boundary, just past one, and the whole matrix
    stops = [0, 1, 40, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS, 3 * BLOCK_ROWS + 7, n]
    for order in (None, rng.permutation(n)):
        index = np.arange(n) if order is None else order
        chained = factor_prefixes(m.rows.T, m.target, m.feature_names, stops, order=order)
        assert sorted(chained) == stops
        for s in stops:
            alone = factor_design(dm(m.rows[index[:s]], m.target[index[:s]]))
            one_stop = factor_prefixes(m.rows.T, m.target, m.feature_names, [s], order=order)[s]
            for factor in (chained[s], one_stop):
                assert np.array_equal(factor.r, alone.r)
                assert np.array_equal(factor.norms, alone.norms)
                assert (factor.names, factor.degree, factor.feature_names, factor.n) == (
                    alone.names, alone.degree, alone.feature_names, s)
    for bad in ([n + 1], [-1], [2.0], [True]):
        with pytest.raises(TooFewRows):
            factor_prefixes(m.rows.T, m.target, m.feature_names, bad)


def test_factor_polynomial_equals_fit_polynomial_and_refuses_a_higher_degree():
    rng = np.random.default_rng(9)
    m = dm(rng.uniform(0.0, 1.0, (30, 2)), rng.normal(0.0, 1.0, 30))
    factor = factor_design(m)
    for degree in range(MIN_DEGREE, MAX_DEGREE + 1):
        shared, alone = factor.polynomial(degree), fit_polynomial(m, degree)
        assert (shared.terms, shared.coefficients, shared.condition_estimate) == (
            alone.terms, alone.coefficients, alone.condition_estimate)
    with pytest.raises(DegreeOutOfRange, match="^degree 3 exceeds the factor's degree 2$"):
        factor_design(m, 2).polynomial(3)


def test_back_substitution_equals_scipy_solve_triangular(synthetic_5k):
    # scipy is the reference only; the package solves with numpy alone
    from scipy.linalg import solve_triangular

    n = len(synthetic_5k)
    m = select_features(synthetic_5k, FeatureSet.SPEED_DIRECTION_TEMPERATURE)
    stop = SplitSpec(train_fraction=0.85, seed=42).n_train(n)
    order = SplitSpec(train_fraction=0.85, seed=42).order(n)
    chain = factor_prefixes(m.rows.T, m.target, m.feature_names, [stop], order=order)[stop]
    systems = [(chain, len(monomial_exponents(m.k, d)) + 1) for d in range(1, MAX_DEGREE + 1)]
    systems.append((factor_design(m, 1), m.k + 1))
    for factor, p in systems:
        r, b = factor.r[:p, :p], factor.r[:p, -1]
        assert regression._back_substitute(r, b).tobytes() == solve_triangular(r, b).tobytes()


def test_in_place_fold_equals_numpy_qr():
    rng = np.random.default_rng(21)
    rows, target = rng.uniform(0.0, 25.0, (2 * BLOCK_ROWS, 3)), rng.normal(0.0, 500.0, 2 * BLOCK_ROWS)
    terms = monomial_exponents(3, MAX_DEGREE)
    # np.linalg.qr copies its argument, which _qr_r then factors in place
    first = regression._design(rows[:BLOCK_ROWS], target[:BLOCK_ROWS], terms)
    expected = np.linalg.qr(first, mode="r")
    r = regression._qr_r(first)
    assert r.tobytes() == expected.tobytes()
    # a full block stacked below that R, as the chain folds it
    a = regression._design(rows[BLOCK_ROWS:], target[BLOCK_ROWS:], terms, head=r)
    expected = np.linalg.qr(a, mode="r")
    assert regression._qr_r(a).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: LinearModel(1.0, 5, ("x",)), FeatureMismatch, "coefficients must be a sequence, got int"),
        (lambda: LinearModel(1.0, (1.0,), 5), FeatureMismatch, "feature_names must be a sequence, got int"),
        (lambda: PolynomialModel(2, 5, (1.0,), ("x",), 1.0), FeatureMismatch, "terms must be a sequence, got int"),
        (lambda: replace(ann.init_network(1), weights=5), InvalidArchitecture,
         "weights must be a sequence, got int"),
        (lambda: replace(ann.init_network(1), input_scaler=1.0), InvalidArchitecture,
         "input_scaler must be a MinMaxScaler or None, got float"),
        (lambda: PolynomialModel(10**5000, ((0,),), (1.0,), ("x",), 1.0), FeatureMismatch,
         r"degree an integer of 16610 bits is not an integer in \[2, 5\]"),
    ],
    ids=["linear-coefficients", "linear-names", "polynomial-terms", "mlp-weights", "mlp-scaler", "huge-degree"],
)
def test_model_constructors_name_a_field_of_the_wrong_kind(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("degree", [2.5, 2.0, "2", True, np.float64(3.0), 6])
def test_polynomial_model_refuses_a_degree_that_is_no_integer_in_range(degree):
    with pytest.raises(FeatureMismatch, match=r"is not an integer in \[2, 5\]$"):
        PolynomialModel(degree, ((0,), (1,)), (1.0, 2.0), ("a",), 10.0)


def test_ill_conditioned_fit_on_wild_scales_is_marked_without_a_warning():
    rng = np.random.default_rng(6)
    # direction-like feature spanning hundreds: degree-5 monomials reach 1e12
    x = np.column_stack([rng.uniform(0.0, 25.0, 300), rng.uniform(0.0, 360.0, 300)])
    y = rng.normal(0.0, 1.0, 300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # ill-conditioning is not reported as a Python warning
        wild, tame = fit_polynomial(dm(x, y), 5), fit_polynomial(dm(x / x.max(axis=0), y), 2)
    assert wild.ill_conditioned and wild.condition_estimate > CONDITION_LIMIT
    assert not tame.ill_conditioned and 1 <= tame.condition_estimate <= CONDITION_LIMIT


def test_polynomial_predict_feature_mismatch():
    model = fit_polynomial(dm(np.linspace(0, 1, 20), np.linspace(0, 1, 20)), 2)
    other = dm(np.ones((3, 1)), np.zeros(3), names=("other",))
    with pytest.raises(FeatureMismatch):
        predict_polynomial(model, other)


# -- serialization ------------------------------------------------------------

def test_linear_roundtrip_bit_for_bit():
    rng = np.random.default_rng(13)
    x = rng.normal(0.0, 1.0, (30, 2))
    y = rng.normal(0.0, 1.0, 30)
    m = dm(x, y)
    model = fit_ols(m)
    clone = from_json(to_json(model))
    assert clone == model
    assert np.array_equal(predict_linear(clone, m), predict_linear(model, m))


def test_polynomial_roundtrip_bit_for_bit():
    rng = np.random.default_rng(14)
    x = rng.uniform(0.5, 2.0, (40, 2))
    y = rng.normal(0.0, 1.0, 40)
    m = dm(x, y)
    model = fit_polynomial(m, 4)
    clone = from_json(to_json(model))
    assert clone == model
    assert np.array_equal(predict_polynomial(clone, m), predict_polynomial(model, m))


def test_json_schema_versioned():
    model = LinearModel(intercept=1.0, coefficients=(2.0,), feature_names=("x",))
    doc = json.loads(to_json(model))
    assert doc["schema"] == "windforecast.model.linear.v1"
    with pytest.raises(ValueError):
        from_json(json.dumps({"schema": "bogus.v9"}))


def _mlp_document(target_scale, **fields):
    """A valid 1-input MLP document except for its target_scale and ``fields``
    (json writes NaN/Infinity)."""
    doc = json.loads(to_json(ann.init_network(1, seed=0)))
    return json.dumps({**doc, "target_scale": target_scale, **fields})


def _mlp_weight_document(layer, field, value):
    """A valid 1-input MLP document whose first entry of ``field`` ("weights" or "biases") in ``layer`` is ``value``."""
    doc = json.loads(_mlp_document(1.0))
    doc[field][layer][0] = value
    return json.dumps(doc)


def _linear_document(**fields):
    """A valid one-feature linear document except for ``fields``."""
    doc = {"schema": "windforecast.model.linear.v1", "intercept": 1.0, "coefficients": [2.0], "feature_names": ["x"]}
    return json.dumps({**doc, **fields})


def _polynomial_document(**fields):
    """A valid degree-2 document over features (a, b) except for ``fields``."""
    doc = {
        "schema": "windforecast.model.polynomial.v1",
        "degree": 2,
        "terms": [[0, 0], [1, 0], [0, 1]],
        "coefficients": [1.0, 2.0, 3.0],
        "feature_names": ["a", "b"],
        "condition_estimate": 10.0,
    }
    return json.dumps({**doc, **fields})


def test_polynomial_document_template_loads():
    model = from_json(_polynomial_document())
    assert isinstance(model, PolynomialModel) and model.terms == ((0, 0), (1, 0), (0, 1))


@pytest.mark.parametrize(
    "text",
    [
        "[1]",
        '{"schema": "windforecast.model.linear.v1", "intercept": 1.0, "feature_names": ["x"]}',
        '{"schema": "windforecast.model.polynomial.v1", "degree": 2}',
        "[1]",
        '{"schema": "windforecast.model.mlp.v1", "weights": []}',
        "not json",
        '{"schema": "windforecast.model.linear.v1", "intercept": 1.0, "coefficients": 5, "feature_names": ["x"]}',
        "{",
        '{"schema": "windforecast.model.mlp.v1", "layer_sizes": 5}',
        '{"schema": "windforecast.model.mlp.v1", "layer_sizes": [1], "weights": [[1.0]]}',
        _mlp_document(float("nan")),
        _mlp_document(float("inf")),
        _mlp_document(0.0),
        _mlp_document(-1.0),
        _mlp_document(True),
        '{"schema": ["windforecast.model.mlp.v1"]}',
        '{"schema": "windforecast.model.linear.v1", "intercept": 1.0, "coefficients": [1.0, 2.0], "feature_names": ["x"]}',
        json.dumps({**json.loads(_mlp_document(1.0)), "input_scaler": {"mins": [0.0]}}),
        _mlp_document(1.0, input_scaler={"mins": [float("nan")], "maxs": [25.0]}),
        _mlp_document(1.0, input_scaler={"mins": [0.0], "maxs": [float("inf")]}),
        _mlp_document(1.0, input_scaler={"mins": [[0.0]], "maxs": [[25.0]]}),
        _mlp_document(1.0, input_scaler={"mins": [0.0, 0.0], "maxs": [25.0, 360.0]}),
        _polynomial_document(terms=[[0], [1]], coefficients=[1.0, 2.0]),
        _polynomial_document(terms=[[0, 0, 0], [1, 0, 1]], coefficients=[1.0, 2.0]),
        _polynomial_document(terms=[[0, 0], [-1, 0]], coefficients=[1.0, 2.0]),
        _polynomial_document(degree=6),
        _polynomial_document(degree=2.5),
        _polynomial_document(degree=2.0),
        _polynomial_document(terms=[[0, 0], [1.9, 0], [0, 1]]),
        _polynomial_document(terms=[[0, 0], ["1", 0], [0, 1]]),
        _polynomial_document(terms=[[0, 0], [True, 0], [0, 1]]),
        _polynomial_document(condition_estimate="x"),
        _polynomial_document(condition_estimate=float("nan")),
        _polynomial_document(condition_estimate=float("inf")),
        _polynomial_document(condition_estimate=-3.0),
        _polynomial_document(condition_estimate=0.5),
        _polynomial_document(condition_estimate=True),
        '{"schema": "windforecast.model.linear.v1", "intercept": true, "coefficients": [1.0], "feature_names": ["x"]}',
        '{"schema": "windforecast.model.linear.v1", "intercept": "1.0", "coefficients": [1.0], "feature_names": ["x"]}',
        '{"schema": "windforecast.model.linear.v1", "intercept": NaN, "coefficients": [1.0], "feature_names": ["x"]}',
        '{"schema": "windforecast.model.linear.v1", "intercept": 1.0, "coefficients": [true], "feature_names": ["x"]}',
        '{"schema": "windforecast.model.linear.v1", "intercept": 1.0, "coefficients": [1.0], "feature_names": [3]}',
        _polynomial_document(coefficients=[1.0, True, 3.0]),
        _polynomial_document(feature_names=["a", 2]),
        # a bool is no number, and an integer beyond the float range no finite one
        _mlp_weight_document(0, "weights", True),
        _mlp_weight_document(2, "biases", True),
        _mlp_document(1.0, input_scaler={"mins": [True], "maxs": [25.0]}),
        _mlp_document(1.0, input_scaler={"mins": [0.0], "maxs": [True]}),
        _linear_document(intercept=10**400),
        _linear_document(coefficients=[-(10**400)]),
        _polynomial_document(coefficients=[1.0, 10**400, 3.0]),
        _polynomial_document(condition_estimate=10**400),
        _mlp_weight_document(1, "weights", -(10**400)),
        _mlp_weight_document(4, "biases", 10**400),
        _mlp_document(1.0, input_scaler={"mins": [0.0], "maxs": [10**400]}),
        _mlp_document(10**400),
        # an integer literal past the digit limit of int parsing
        '{"intercept": ' + "9" * 5000 + "}",
    ],
)
def test_malformed_model_document_raises_data_error(text):
    with pytest.raises(MalformedModel):
        from_json(text)


def test_linear_document_integer_parameters_load_as_floats():
    doc = '{"schema": "windforecast.model.linear.v1", "intercept": 1, "coefficients": [2], "feature_names": ["x"]}'
    model = from_json(doc)
    assert type(model.intercept) is float and model.coefficients == (2.0,)
    assert '"intercept": 1.0' in to_json(model)


def test_polynomial_document_integer_condition_estimate_loads_as_a_float():
    model = from_json(_polynomial_document(condition_estimate=10))
    assert type(model.condition_estimate) is float
    assert '"condition_estimate": 10.0' in to_json(model)

"""Baseline/delta rows and their moments under a fitted model."""

import itertools
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import labels
from effect_engine.data import Dataset
from effect_engine.model import (
    FittedModel,
    ModelSpec,
    build_design,
    build_schema,
    covariate_matrix,
    fit_model,
)
from effect_engine.predicates import resolve_mask
from effect_engine.vectors import (
    CovariateProfile,
    baseline_vector,
    delta_vector,
    moments,
    profile_from_subset,
)


def two_arm_model():
    data = Dataset(outcome=[1.0, 3.0, 4.0, 6.0], arm=["0", "0", "1", "1"])
    return fit_model(data, ModelSpec(reference_arm="0", covariance_kind="classical"))


def covariate_data():
    return Dataset(
        outcome=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        arm=["a", "b", "a", "b", "a", "b"],
        covariates={"x": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                    "grade": ["4", "9", "4", "9", "9", "9"]},
    )


def test_apply_frozen_two_arm_values():
    # With beta = (2, 3) and cov = [[1,-1],[-1,2]]:
    #   delta (0,1):    value 3, variance 2
    #   baseline (1,0): value 2, variance 1
    #   baseline (1,1): value 5, variance 1 + 2 - 2 = 1
    model = two_arm_model()
    profile = CovariateProfile(np.array([]))
    d = delta_vector(model.schema, profile, arm_to="1", arm_from="0")
    assert_array_equal(d, [0.0, 1.0])
    value, variance = moments(model, d)
    assert type(value) is float and type(variance) is float
    assert_allclose([value, variance], [3.0, 2.0], rtol=0, atol=1e-12)

    b0 = baseline_vector(model.schema, profile, arm="0")
    assert_array_equal(b0, [1.0, 0.0])
    assert_allclose(moments(model, b0), [2.0, 1.0], rtol=0, atol=1e-12)

    b1 = baseline_vector(model.schema, profile, arm="1")
    assert_array_equal(b1, [1.0, 1.0])
    assert_allclose(moments(model, b1), [5.0, 1.0], rtol=0, atol=1e-12)

    # Stacked, the same numbers come back with the covariances between rows:
    # cov(d, b0) = -1, cov(d, b1) = -1 + 2 = 1, cov(b0, b1) = 1 - 1 = 0.
    mean, cov = moments(model, np.vstack([d, b0, b1]))
    assert_allclose(mean, [3.0, 2.0, 5.0], rtol=0, atol=1e-12)
    assert_allclose(cov, [[2.0, -1.0, 1.0], [-1.0, 1.0, 0.0], [1.0, 0.0, 1.0]],
                    rtol=0, atol=1e-12)
    assert_array_equal(cov, cov.T)


def test_apply_accepts_raw_arrays():
    # moments takes any (p,) row or (k, p) stack, lists included.
    model = two_arm_model()
    assert_allclose(moments(model, [0.0, 1.0]), [3.0, 2.0], rtol=0, atol=1e-12)
    mean, cov = moments(model, [[0.0, 1.0]])
    assert mean.shape == (1,) and cov.shape == (1, 1)
    assert_allclose([mean[0], cov[0, 0]], [3.0, 2.0], rtol=0, atol=1e-12)
    for bad in (np.array([0.0, 1.0, 0.0]), np.zeros((2, 3)), np.zeros((1, 1, 2)), 1.0):
        with pytest.raises(ValueError, match="model expects 2 columns"):
            moments(model, bad)


def test_stacked_moments_are_symmetric_and_match_single_rows():
    data = mixed_data()
    model = fit_model(data, ModelSpec(reference_arm="a", encodings={"k": "categorical"}))
    rows = np.random.default_rng(7).normal(size=(6, model.p))
    mean, cov = moments(model, rows)
    assert_array_equal(cov, cov.T)  # cov[i, j] and cov[j, i] are the same number
    for i, row in enumerate(rows):
        value, variance = moments(model, row)
        assert_allclose([mean[i], cov[i, i]], [value, variance], rtol=1e-12, atol=0)


def test_variance_clamp_and_failure():
    model = two_arm_model()
    # v = (1, -1) against [[1, 1+e], [1+e, 1]] gives exactly -2e.
    def with_offdiag(eps):
        cov = np.array([[1.0, 1.0 + eps], [1.0 + eps, 1.0]])
        return FittedModel(schema=model.schema, beta=np.zeros(2), cov_beta=cov,
                           n=4, covariance_kind="classical")

    row = np.array([1.0, -1.0])
    _, variance = moments(with_offdiag(2.5e-13), row)
    assert variance == 0.0
    with pytest.raises(ValueError, match="variance quadratic form is negative"):
        moments(with_offdiag(5e-12), row)
    # In a stack the clamp applies to the diagonal only.
    _, cov = moments(with_offdiag(2.5e-13), np.vstack([row, [1.0, 0.0]]))
    assert cov[0, 0] == 0.0 and cov[1, 1] == 1.0
    assert_allclose(cov[0, 1], -2.5e-13, rtol=1e-3, atol=0)
    with pytest.raises(ValueError, match="variance quadratic form is negative"):
        moments(with_offdiag(5e-12), np.vstack([[1.0, 0.0], row]))


def test_profile_from_subset_means():
    data = covariate_data()
    _, _, schema = build_design(data, ModelSpec(reference_arm="a"))
    # Covariate block is [x, grade=9].
    full = profile_from_subset(data, schema)
    assert_allclose(full.values, [2.5, 4 / 6], rtol=0, atol=1e-15)

    sub = profile_from_subset(data, schema, "x >= 3")
    assert_allclose(sub.values, [4.0, 1.0], rtol=0, atol=1e-15)

    comp = profile_from_subset(data, schema, ~resolve_mask(data, "x >= 3"))
    assert_allclose(comp.values, [1.0, 1 / 3], rtol=0, atol=1e-15)


def _restringified_block(data, schema):
    """Covariate block built without the dataset's cached codes: every
    categorical column is turned into strings and compared per level."""
    cols = []
    for name, level in schema.covariates:
        values = data.covariates[name]
        if not data.is_numeric(name):
            values = labels(values)
        if level is None:
            cols.append(np.asarray(values, dtype=np.float64))
        else:
            strings = np.asarray([str(v) for v in values.tolist()], dtype=object)
            cols.append((strings == level).astype(np.float64))
    return np.column_stack(cols)


def mixed_data(names=("x", "g", "k", "s"), n=1000):
    rng = np.random.default_rng(31)
    covariates = {
        "x": rng.normal(size=n),
        "g": rng.choice(["10", "9", "B", "a"], size=n),
        "k": rng.choice([0.5, 2.0, 10.0], size=n),  # numeric, encoded as categorical
        "s": rng.choice(["no", "yes"], size=n),
    }
    return Dataset(outcome=rng.normal(size=n), arm=rng.choice(["a", "b", "c"], size=n),
                   covariates={name: covariates[name] for name in names})


@pytest.mark.parametrize("names, interactions, n_arms", itertools.product(
    [("x", "g", "k"), ("x",), ("g",), ("k",), ()], [True, False], [2, 3, 4, 5]))
def test_design_rows_are_baseline_rows(names, interactions, n_arms):
    # One layout: every design row is, bit for bit, the baseline row at that
    # row's own covariate values and arm. Negative x times a zero indicator
    # gives -0.0, so the bytes compare the signs of zeros too.
    rng = np.random.default_rng(700 + 10 * len(names) + n_arms)
    n = 30
    arms = [f"w{i}" for i in range(n_arms)]
    covariates = {
        "x": rng.normal(size=n),
        "g": rng.choice(["10", "9", "B", "a"], size=n),
        "k": rng.choice([0.5, 2.0, 10.0], size=n),  # numeric, encoded as categorical
    }
    data = Dataset(outcome=rng.normal(size=n),
                   arm=list(rng.choice(arms, size=n - n_arms)) + arms,
                   covariates={name: covariates[name] for name in names})
    spec = ModelSpec(reference_arm=str(rng.choice(arms)), interactions=interactions,
                     encodings={"k": "categorical"} if "k" in names else None)
    design, _, schema = build_design(data, spec)
    values = _restringified_block(data, schema) if names else np.empty((n, 0))
    arm = labels(data.arm)
    for i in range(n):
        row = baseline_vector(schema, CovariateProfile(values[i]), arm[i])
        assert row.tobytes() == design[i].tobytes(), i


def test_covariate_matrix_row_selection_is_exact():
    data = mixed_data()
    schema = build_schema(data, ModelSpec(reference_arm="a", encodings={"k": "categorical"}))
    full = covariate_matrix(data, schema)
    assert_array_equal(full, _restringified_block(data, schema))
    assert_array_equal(covariate_matrix(data, schema, rows=slice(100, 357)), full[100:357])


def drifting_data(n=100_000):
    # The numeric column's mean is 1e6: summed row by row, as the mean of an
    # n x q block sums it, 1e5 such values drift by 7e-15 relative.
    rng = np.random.default_rng(33)
    return Dataset(outcome=rng.normal(size=n), arm=rng.choice(["a", "b"], size=n),
                   covariates={"big": 1e6 + rng.normal(size=n),
                               "s": rng.choice(["no", "yes"], size=n)})


@pytest.mark.parametrize("make", [partial(mixed_data, ("x",)), partial(mixed_data, ("s",)),
                                  mixed_data, drifting_data],
                         ids=["x", "s", "x-g-k-s", "drifting"])
def test_profile_from_subset_matches_an_exact_mean(make):
    # Over every row, a mask and the mask's complement, a numeric value is
    # within 1e-15 relative of the correctly rounded sum's mean and a level
    # frequency is exactly count / size.
    data = make()
    schema = build_schema(data, ModelSpec(reference_arm="a", encodings={"k": "categorical"}))
    mask = np.random.default_rng(32).random(data.n) < 0.7
    for predicate, rows in ((None, np.ones(data.n, dtype=bool)), (mask, mask), (~mask, ~mask)):
        values = profile_from_subset(data, schema, predicate).values
        size = np.count_nonzero(rows)
        for value, (name, level) in zip(values, schema.covariates):
            column = data.covariates[name]
            column = (column if data.is_numeric(name) else labels(column))[rows]
            if level is None:
                exact = math.fsum(column) / size
                assert abs(value - exact) <= 1e-15 * abs(exact), (name, value, exact)
            else:
                count = sum(str(v) == level for v in column.tolist())
                assert value == count / size, (name, level)


def test_profile_from_subset_holds_no_expanded_block():
    # n = 1e5 rows, q = 9 covariate columns (five numeric, two categoricals
    # of three levels): the profile's peak allocation stays O(n), below
    # 3 n float64s, where the expanded block alone is n q of them.
    n = 100_000
    rng = np.random.default_rng(34)
    covariates = {f"x{i}": rng.normal(size=n) for i in range(5)}
    covariates.update(g=rng.choice(["p", "q", "r"], size=n), h=rng.choice(["u", "v", "w"], size=n))
    data = Dataset(outcome=rng.normal(size=n), arm=rng.choice(["a", "b"], size=n),
                   covariates=covariates)
    schema = build_schema(data, ModelSpec(reference_arm="a"))
    assert len(schema.covariates) == 9
    mask = rng.random(n) < 0.7
    for predicate in (None, mask):
        tracemalloc.start()
        try:
            profile_from_subset(data, schema, predicate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * 8, (predicate is None, peak)


def test_categorical_levels_keep_string_order_and_encode_once():
    data = mixed_data(("g",))
    schema = build_schema(data, ModelSpec(reference_arm="a", interactions=False))
    # "10" < "9" < "B" < "a" as strings; the first is the dropped reference.
    assert schema.labels == ("intercept", "g=9", "g=B", "g=a", "arm=b", "arm=c")
    levels, codes = data.categorical_codes("g")
    assert levels == ("10", "9", "B", "a")
    profile_from_subset(data, schema, "g == 'a'")
    covariate_matrix(data, schema)
    assert data.categorical_codes("g")[1] is codes


def test_profile_from_subset_empty_rejected():
    data = covariate_data()
    _, _, schema = build_design(data, ModelSpec(reference_arm="a"))
    with pytest.raises(ValueError, match="empty conditioning subset"):
        profile_from_subset(data, schema, "x > 100")


def blocks(schema, row):
    """The covariate, arm and interaction blocks of a (p,) row, sliced by
    the layout ``[1 | covariates | arms | covariates x arms]``."""
    q, k = len(schema.covariates), len(schema.arm_labels)
    return row[1:1 + q], row[1 + q:1 + q + k], row[1 + q + k:]


def test_reference_arm_baseline_has_zero_arm_block():
    data = covariate_data()
    _, _, schema = build_design(data, ModelSpec(reference_arm="a"))
    profile = profile_from_subset(data, schema)
    row = baseline_vector(schema, profile, arm="a")
    assert row.shape == (schema.p,)
    assert row[0] == 1.0
    covariates, arms, interactions = blocks(schema, row)
    assert_array_equal(arms, [0.0])
    assert_array_equal(interactions, [0.0, 0.0])
    assert_allclose(covariates, profile.values)
    for read_only in (row, delta_vector(schema, profile, "b", "a")):
        with pytest.raises(ValueError):
            read_only[0] = 2.0


def test_delta_needs_distinct_arms():
    model = two_arm_model()
    with pytest.raises(ValueError, match="two distinct arms"):
        delta_vector(model.schema, CovariateProfile(np.array([])), "1", "1")


def test_profile_length_checked():
    model = two_arm_model()
    with pytest.raises(ValueError, match="profile has 2 values"):
        baseline_vector(model.schema, CovariateProfile(np.array([1.0, 2.0])), "1")


def test_profile_validation():
    with pytest.raises(ValueError, match="one-dimensional"):
        CovariateProfile(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        CovariateProfile(np.array([1.0, np.nan]))
    profile = CovariateProfile(np.array([1.0]))
    with pytest.raises(ValueError):
        profile.values[0] = 2.0


def test_three_arm_block_placement():
    data = Dataset(
        outcome=np.arange(6, dtype=float),
        arm=["1", "2", "3"] * 2,
        covariates={"x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]},
    )
    _, _, schema = build_design(data, ModelSpec(reference_arm="1"))
    profile = CovariateProfile(np.array([3.5]))

    base = baseline_vector(schema, profile, arm="2")
    assert_array_equal(blocks(schema, base)[1], [1.0, 0.0])
    assert_array_equal(blocks(schema, base)[2], [3.5, 0.0])

    d = delta_vector(schema, profile, arm_to="2", arm_from="3")
    assert_array_equal(blocks(schema, d)[1], [1.0, -1.0])
    assert_array_equal(blocks(schema, d)[2], [3.5, -3.5])
    assert_array_equal(delta_vector(schema, profile, "3", "2"), -d)


def test_apply_is_linear_in_the_vector():
    model = two_arm_model()
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    assert moments(model, np.zeros(2)) == (0.0, 0.0)
    combo, _ = moments(model, 2.0 * u - 3.0 * v)
    assert_allclose(combo, 2.0 * moments(model, u)[0] - 3.0 * moments(model, v)[0],
                    rtol=0, atol=1e-12)


@st.composite
def schema_and_profile(draw):
    n_arms = draw(st.integers(min_value=2, max_value=4))
    n_cov = draw(st.integers(min_value=0, max_value=3))
    arms = [str(i) for i in range(n_arms)]
    n = 2 * n_arms
    data = Dataset(
        outcome=np.arange(n, dtype=float),
        arm=arms * 2,
        covariates={f"c{j}": np.linspace(j, j + 1, n) for j in range(n_cov)},
    )
    _, _, schema = build_design(data, ModelSpec(reference_arm="0"))
    values = draw(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=n_cov, max_size=n_cov,
        )
    )
    to_idx = draw(st.integers(min_value=0, max_value=n_arms - 1))
    from_idx = draw(
        st.integers(min_value=0, max_value=n_arms - 1).filter(lambda i: i != to_idx)
    )
    return schema, CovariateProfile(np.asarray(values)), arms[to_idx], arms[from_idx]


@settings(max_examples=200, deadline=None)
@given(schema_and_profile())
def test_delta_is_exact_baseline_difference(case):
    # 0/1 indicators make the closed-form delta bit-identical to the
    # subtraction of the two baseline vectors, for any profile values.
    schema, profile, arm_to, arm_from = case
    direct = delta_vector(schema, profile, arm_to, arm_from)
    diff = (baseline_vector(schema, profile, arm_to)
            - baseline_vector(schema, profile, arm_from))
    assert np.array_equal(direct, diff)

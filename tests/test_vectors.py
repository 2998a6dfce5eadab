"""Baseline/delta effect vectors and their evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from effect_engine.data import Dataset
from effect_engine.model import (
    FittedModel,
    ModelSpec,
    build_design,
    build_schema,
    covariate_matrix,
    fit_model,
)
from effect_engine.vectors import (
    CovariateProfile,
    EffectVector,
    apply,
    baseline_vector,
    delta_vector,
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
    assert_array_equal(d.entries, [0.0, 1.0])
    value, variance = apply(d, model)
    assert_allclose([value, variance], [3.0, 2.0], rtol=0, atol=1e-12)

    b0 = baseline_vector(model.schema, profile, arm="0")
    assert_array_equal(b0.entries, [1.0, 0.0])
    assert_allclose(apply(b0, model), [2.0, 1.0], rtol=0, atol=1e-12)

    b1 = baseline_vector(model.schema, profile, arm="1")
    assert_array_equal(b1.entries, [1.0, 1.0])
    assert_allclose(apply(b1, model), [5.0, 1.0], rtol=0, atol=1e-12)


def test_apply_accepts_raw_arrays():
    model = two_arm_model()
    assert_allclose(apply(np.array([0.0, 1.0]), model), [3.0, 2.0], rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="model expects 2"):
        apply(np.array([0.0, 1.0, 0.0]), model)


def test_variance_clamp_and_failure():
    model = two_arm_model()
    # v = (1, -1) against [[1, 1+e], [1+e, 1]] gives exactly -2e.
    def with_offdiag(eps):
        cov = np.array([[1.0, 1.0 + eps], [1.0 + eps, 1.0]])
        return FittedModel(schema=model.schema, beta=np.zeros(2), cov_beta=cov,
                           n=4, dof=2, covariance_kind="classical")

    _, variance = apply(np.array([1.0, -1.0]), with_offdiag(2.5e-13))
    assert variance == 0.0
    with pytest.raises(ValueError, match="variance quadratic form is negative"):
        apply(np.array([1.0, -1.0]), with_offdiag(5e-12))


def test_profile_from_subset_means():
    data = covariate_data()
    _, _, schema = build_design(data, ModelSpec(reference_arm="a"))
    # Covariate block is [x, grade=9].
    full = profile_from_subset(data, schema)
    assert_allclose(full.values, [2.5, 4 / 6], rtol=0, atol=1e-15)

    sub = profile_from_subset(data, schema, "x >= 3")
    assert_allclose(sub.values, [4.0, 1.0], rtol=0, atol=1e-15)

    comp = profile_from_subset(data, schema, "x >= 3", complement=True)
    assert_allclose(comp.values, [1.0, 1 / 3], rtol=0, atol=1e-15)


def _restringified_block(data, schema):
    """Covariate block built without the dataset's cached codes: every
    categorical column is turned into strings and compared per level."""
    cols = []
    for c in schema.covariate_columns:
        values = data.covariates[c.covariate]
        if c.level is None:
            cols.append(np.asarray(values, dtype=np.float64))
        else:
            strings = np.asarray([str(v) for v in values.tolist()], dtype=object)
            cols.append((strings == c.level).astype(np.float64))
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


def test_covariate_matrix_row_selection_is_exact():
    data = mixed_data()
    schema = build_schema(data, ModelSpec(reference_arm="a", encodings={"k": "categorical"}))
    full = covariate_matrix(data, schema)
    assert_array_equal(full, _restringified_block(data, schema))
    mask = (data.covariates["x"] > 0.3) & (data.covariates["s"] == "yes")
    assert_array_equal(covariate_matrix(data, schema, rows=mask), full[mask])
    rows = np.flatnonzero(mask)
    assert_array_equal(covariate_matrix(data, schema, rows=rows), full[rows])
    with pytest.raises(ValueError, match="row mask has shape"):
        covariate_matrix(data, schema, rows=mask[:-1])


@pytest.mark.parametrize("names", [("x",), ("s",), ("x", "g", "k", "s")])
def test_profile_from_subset_matches_masked_mean_bit_for_bit(names):
    # q = 1 sums pairwise, q >= 2 row by row; both must match the mean of
    # the masked full block exactly.
    data = mixed_data(names)
    schema = build_schema(data, ModelSpec(reference_arm="a", encodings={"k": "categorical"}))
    full = _restringified_block(data, schema)
    mask = np.random.default_rng(32).random(data.n) < 0.7
    for predicate, rows in ((None, slice(None)), (mask, mask)):
        expected = full[rows].mean(axis=0)
        assert_array_equal(profile_from_subset(data, schema, predicate).values, expected)
    assert_array_equal(profile_from_subset(data, schema, mask, complement=True).values,
                       full[~mask].mean(axis=0))


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


def test_reference_arm_baseline_has_zero_arm_block():
    data = covariate_data()
    _, _, schema = build_design(data, ModelSpec(reference_arm="a"))
    profile = profile_from_subset(data, schema)
    vec = baseline_vector(schema, profile, arm="a")
    assert vec.entries[0] == 1.0
    assert_array_equal(vec.entries[list(schema.arm_indices)], [0.0])
    assert_array_equal(vec.entries[list(schema.interaction_indices)], [0.0, 0.0])
    assert_allclose(vec.entries[list(schema.covariate_indices)], profile.values)


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


def test_unknown_vector_kind_rejected():
    with pytest.raises(ValueError, match="unknown effect-vector kind"):
        EffectVector(entries=np.zeros(2), kind="ratio", arm_to="1", arm_from="0",
                     profile=CovariateProfile(np.array([])))


def test_three_arm_block_placement():
    data = Dataset(
        outcome=np.arange(6, dtype=float),
        arm=["1", "2", "3"] * 2,
        covariates={"x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]},
    )
    _, _, schema = build_design(data, ModelSpec(reference_arm="1"))
    profile = CovariateProfile(np.array([3.5]))

    base = baseline_vector(schema, profile, arm="2")
    assert_array_equal(base.entries[list(schema.arm_indices)], [1.0, 0.0])
    assert_array_equal(base.entries[list(schema.interaction_indices)], [3.5, 0.0])

    d = delta_vector(schema, profile, arm_to="2", arm_from="3")
    assert_array_equal(d.entries[list(schema.arm_indices)], [1.0, -1.0])
    assert_array_equal(d.entries[list(schema.interaction_indices)], [3.5, -3.5])
    assert_array_equal(
        delta_vector(schema, profile, "3", "2").entries, -d.entries
    )


def test_apply_is_linear_in_the_vector():
    model = two_arm_model()
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    assert apply(np.zeros(2), model) == (0.0, 0.0)
    combo, _ = apply(2.0 * u - 3.0 * v, model)
    assert_allclose(combo, 2.0 * apply(u, model)[0] - 3.0 * apply(v, model)[0],
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
    diff = (baseline_vector(schema, profile, arm_to).entries
            - baseline_vector(schema, profile, arm_from).entries)
    assert np.array_equal(direct.entries, diff)

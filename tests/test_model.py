"""Design construction and model fitting."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.linalg import lapack_lite
from numpy.testing import assert_allclose, assert_array_equal

from conftest import columns_in_earlier_span, labels
from effect_engine import model as model_module
from effect_engine.data import Dataset
from effect_engine.model import (
    BayesPrior,
    DesignRows,
    FittedModel,
    ModelSpec,
    as_flat_prior_posterior,
    build_design,
    build_schema,
    fit_bayes,
    fit_model,
    fit_ols,
)
from effect_engine.vectors import CovariateProfile


def two_arm_data():
    # Arm "0" outcomes 1, 3 (mean 2); arm "1" outcomes 4, 6 (mean 5).
    return Dataset(outcome=[1.0, 3.0, 4.0, 6.0], arm=["0", "0", "1", "1"])


def test_two_arm_fit_matches_hand_computation():
    # Saturated two-arm fit: beta = (mean_0, mean_1 - mean_0) = (2, 3).
    # Residuals are (-1, 1, -1, 1), so RSS = 4, sigma^2 = 4 / (4 - 2) = 2,
    # X'X = [[4, 2], [2, 2]], and classical cov = 2 (X'X)^-1 = [[1,-1],[-1,2]].
    model = fit_model(two_arm_data(), ModelSpec(reference_arm="0", covariance_kind="classical"))
    assert model.schema.labels == ("intercept", "arm=1")
    assert_allclose(model.beta, [2.0, 3.0], rtol=0, atol=1e-12)
    assert_allclose(model.cov_beta, [[1.0, -1.0], [-1.0, 2.0]], rtol=0, atol=1e-12)
    assert_allclose(model.std_errors, [1.0, np.sqrt(2.0)], rtol=0, atol=1e-12)
    assert model.n == 4
    assert not model.posterior


def test_hc1_equals_classical_when_residuals_have_equal_magnitude():
    # All four residuals are +-1, so the HC1 meat X'diag(e^2)X collapses to
    # X'X and the sandwich reduces to the classical estimator exactly.
    classical = fit_model(two_arm_data(), ModelSpec(reference_arm="0", covariance_kind="classical"))
    hc1 = fit_model(two_arm_data(), ModelSpec(reference_arm="0", covariance_kind="hc1"))
    assert_allclose(hc1.cov_beta, classical.cov_beta, rtol=0, atol=1e-12)
    assert_allclose(hc1.cov_beta, [[1.0, -1.0], [-1.0, 2.0]], rtol=0, atol=1e-12)


def test_design_layout_covariate_major():
    data = Dataset(
        outcome=np.arange(6, dtype=float),
        arm=["0", "1", "2", "0", "1", "2"],
        covariates={"x": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
                    "grade": ["4", "9", "4", "9", "4", "9"]},
    )
    design, y, schema = build_design(data, ModelSpec(reference_arm="0"))
    assert schema.labels == (
        "intercept", "x", "grade=9", "arm=1", "arm=2",
        "x:arm=1", "x:arm=2", "grade=9:arm=1", "grade=9:arm=2",
    )
    assert design.shape == (6, 9)
    assert_allclose(design[:, 0], 1.0)
    assert_allclose(design[:, 1], data.covariates["x"])
    assert_allclose(design[:, 2], [0, 1, 0, 1, 0, 1])
    assert_allclose(design[:, 3], [0, 1, 0, 0, 1, 0])  # arm=1
    assert_allclose(design[:, 4], [0, 0, 1, 0, 0, 1])  # arm=2
    # Interactions are elementwise products, covariate-major.
    assert_allclose(design[:, 5], design[:, 1] * design[:, 3])
    assert_allclose(design[:, 6], design[:, 1] * design[:, 4])
    assert_allclose(design[:, 7], design[:, 2] * design[:, 3])
    assert_allclose(design[:, 8], design[:, 2] * design[:, 4])
    assert_allclose(y, data.outcome)
    assert schema.all_arms == ("0", "1", "2")
    assert schema.arm_labels == ("1", "2")


def test_categorical_drops_string_sorted_first_level():
    # Levels sort as strings, so "10" < "4" < "9" and "10" is the reference.
    data = Dataset(
        outcome=[1.0, 2.0, 3.0, 4.0],
        arm=["a", "b", "a", "b"],
        covariates={"grade": ["4", "10", "9", "10"]},
    )
    _, _, schema = build_design(data, ModelSpec(reference_arm="a", interactions=False))
    assert schema.labels == ("intercept", "grade=4", "grade=9", "arm=b")


def test_numeric_column_can_be_forced_categorical():
    data = Dataset(
        outcome=[1.0, 2.0, 3.0, 4.0],
        arm=["a", "b", "a", "b"],
        covariates={"dose": [1.0, 2.0, 1.0, 2.0]},
    )
    spec = ModelSpec(reference_arm="a", encodings={"dose": "categorical"}, interactions=False)
    _, _, schema = build_design(data, spec)
    assert schema.labels == ("intercept", "dose=2.0", "arm=b")


def test_categorical_column_cannot_be_forced_numeric():
    data = Dataset(
        outcome=[1.0, 2.0],
        arm=["a", "b"],
        covariates={"site": ["north", "south"]},
    )
    spec = ModelSpec(reference_arm="a", encodings={"site": "numeric"})
    with pytest.raises(ValueError, match="cannot be encoded as numeric"):
        build_design(data, spec)


def test_single_level_categorical_rejected():
    data = Dataset(
        outcome=[1.0, 2.0],
        arm=["a", "b"],
        covariates={"site": ["north", "north"]},
    )
    with pytest.raises(ValueError, match="single level 'north'"):
        build_design(data, ModelSpec(reference_arm="a"))


def test_constant_numeric_covariate_warns():
    data = Dataset(
        outcome=[1.0, 2.0],
        arm=["a", "b"],
        covariates={"x": [3.0, 3.0]},
    )
    with pytest.warns(UserWarning, match="constant across all rows"):
        build_design(data, ModelSpec(reference_arm="a"))


def test_unknown_encoding_rejected():
    with pytest.raises(ValueError, match="unknown encoding 'onehot'"):
        ModelSpec(reference_arm="a", encodings={"x": "onehot"})


def test_unknown_covariance_kind_rejected():
    with pytest.raises(ValueError, match="unknown covariance_kind 'hc3'"):
        ModelSpec(reference_arm="a", covariance_kind="hc3")


def test_reference_arm_must_exist():
    with pytest.raises(ValueError, match="reference arm 'z' not present"):
        fit_model(two_arm_data(), ModelSpec(reference_arm="z"))


def test_interactions_off_drops_block():
    data = Dataset(
        outcome=[1.0, 2.0, 3.0, 4.0],
        arm=["a", "b", "a", "b"],
        covariates={"x": [0.0, 1.0, 2.0, 3.0]},
    )
    _, _, schema = build_design(data, ModelSpec(reference_arm="a", interactions=False))
    assert schema.labels == ("intercept", "x", "arm=b")
    assert schema.interactions is False


@st.composite
def datasets_and_specs(draw):
    """A dataset of 2 to 5 arms, numeric covariates anywhere in +-1e308 and
    categorical ones, with interactions on or off, and perhaps one numeric
    column read as categorical; and a block of its rows."""
    k = draw(st.integers(2, 5))
    arms = [f"t{i}" for i in range(k)]
    n = k + draw(st.integers(0, 20))
    column = st.lists(st.floats(-1e308, 1e308), min_size=n, max_size=n)
    covariates = {f"x{j}": draw(column) for j in range(draw(st.integers(0, 3)))}
    for j in range(draw(st.integers(0, 2))):
        levels = st.lists(st.sampled_from("abc"), min_size=n - 2, max_size=n - 2)
        covariates[f"c{j}"] = ["a", "b", *draw(levels)]
    encodings = {}
    if "x0" in covariates and draw(st.booleans()):
        assume(len(set(covariates["x0"])) > 1)
        encodings["x0"] = "categorical"
    data = Dataset(outcome=np.zeros(n), covariates=covariates,
                   arm=arms + draw(st.lists(st.sampled_from(arms), min_size=n - k,
                                            max_size=n - k)))
    spec = ModelSpec(reference_arm=draw(st.sampled_from(arms)), encodings=encodings,
                     interactions=draw(st.booleans()))
    lo = draw(st.integers(0, n - 1))
    return data, spec, lo, draw(st.integers(lo + 1, n))


@pytest.mark.filterwarnings("ignore:covariate .* is constant")
@settings(max_examples=200, deadline=None)
@given(datasets_and_specs())
def test_design_rows_are_finite(case):
    # fit_model checks no DesignRows block for a NaN or infinity: a Dataset
    # holds finite numeric covariates, and every other design entry is 1, 0
    # or such a covariate times 0 or 1.
    data, spec, lo, hi = case
    rows = DesignRows(data, build_schema(data, spec))
    for order in "CF":
        out = np.full((hi - lo, rows.shape[1]), np.nan, order=order)
        assert np.isfinite(rows.write(lo, hi, out)).all()


def test_rank_deficient_design_names_columns():
    rng = np.random.default_rng(5)
    x = rng.normal(size=12)
    data = Dataset(
        outcome=rng.normal(size=12),
        arm=np.where(np.arange(12) % 2 == 0, "a", "b"),
        covariates={"x": x, "z": 2.0 * x},
        unit_id=None,
    )
    spec = ModelSpec(reference_arm="a", covariance_kind="classical", interactions=False)
    with pytest.raises(ValueError, match=r"rank deficient; dependent columns: .*[xz]"):
        fit_model(data, spec)


def _duplicated_column(rng):
    x = rng.normal(size=(30, 3))
    return np.column_stack([np.ones(30), x, x[:, 1]])


def _sum_of_two_columns(rng):
    x = rng.normal(size=(30, 3))
    return np.column_stack([np.ones(30), x[:, 0], x[:, 0] + x[:, 2], x[:, 1], x[:, 2]])


@pytest.mark.parametrize("make_design", [_duplicated_column, _sum_of_two_columns])
def test_rank_deficient_message_names_pivoted_qr_columns(make_design):
    # The message names the columns in the span of the columns before them,
    # here the last one: the later copy, the last term of the sum.
    X = make_design(np.random.default_rng(8))
    p = X.shape[1]
    assert np.linalg.matrix_rank(X) == p - 1
    assert columns_in_earlier_span(X) == [p - 1]
    with pytest.raises(ValueError) as info:
        fit_ols(X, np.arange(30.0), "hc1")
    assert str(info.value) == f"design matrix is rank deficient; dependent columns: column {p - 1}"


@pytest.mark.filterwarnings("ignore:covariate 'c' is constant")
@pytest.mark.parametrize("covariates, named", [
    (lambda x: {"c": np.full(x.size, 2.0)}, "c, c:arm=b"),
    (lambda x: {"x": x, "x2": 3.0 * x}, "x2, x2:arm=b"),
], ids=["constant", "scaled-copy"])
def test_rank_deficient_fit_names_the_later_column(covariates, named):
    # A constant lies in the span of the intercept, and 3x in that of x:
    # the covariate and the copy are named, not the columns before them.
    rng = np.random.default_rng(9)
    x = rng.normal(size=20)
    data = Dataset(outcome=rng.normal(size=20), arm=np.where(np.arange(20) % 2, "b", "a"),
                   covariates=covariates(x))
    with pytest.raises(ValueError) as info:
        fit_model(data, ModelSpec(reference_arm="a"))
    assert str(info.value) == f"design matrix is rank deficient; dependent columns: {named}"


def test_one_cluster_is_refused_before_the_design_is_factored(monkeypatch):
    # The design is also rank deficient (its last column repeats
    # column 2), but the cluster ids are checked first.
    calls = []
    monkeypatch.setattr(model_module, "_qr_r", lambda *args: calls.append(args))
    X = _duplicated_column(np.random.default_rng(3))
    with pytest.raises(ValueError, match="^cluster covariance requires at least 2 clusters$"):
        fit_ols(X, np.arange(30.0), "cluster", cluster_ids=np.zeros(30))
    assert calls == []


def test_full_rank_fit_factorizes_the_design_once(monkeypatch):
    calls = []

    def spy(name, original):
        def call(a, *args, **kwargs):
            calls.append((name, np.shape(a), kwargs.get("mode")))
            return original(a, *args, **kwargs)
        return call

    def dgeqrf_spy(m, n, a, lda, tau, work, lwork, info):
        calls.append(("dgeqrf", a.shape, "query" if lwork == -1 else "factor"))
        return dgeqrf(m, n, a, lda, tau, work, lwork, info)

    dgeqrf = lapack_lite.dgeqrf
    monkeypatch.setattr(lapack_lite, "dgeqrf", dgeqrf_spy)
    monkeypatch.setattr(np.linalg, "svd", spy("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "qr", spy("np.linalg.qr", np.linalg.qr))
    rng = np.random.default_rng(2)
    X = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
    fit_ols(X, rng.normal(size=40), "hc1")
    # One R-only QR of [X | y], in place (LAPACK sees the transpose of the
    # Fortran-ordered 40 x 4 buffer); the rank check reads the p x p factor R.
    assert calls == [("dgeqrf", (4, 40), "query"), ("dgeqrf", (4, 40), "factor"),
                     ("svd", (3, 3), None)]


def test_more_columns_than_rows_rejected():
    X = np.ones((2, 3))
    with pytest.raises(ValueError, match=r"n=2, p=3"):
        fit_ols(X, np.zeros(2), covariance_kind="classical")


def test_noiseless_fit_recovers_coefficients():
    rng = np.random.default_rng(11)
    X = np.column_stack([np.ones(20), rng.normal(size=(20, 2))])
    beta = np.array([1.0, -2.0, 0.5])
    for kind in ("classical", "hc1"):
        model = fit_ols(X, X @ beta, covariance_kind=kind)
        assert_allclose(model.beta, beta, rtol=0, atol=1e-12)
        # Zero residuals force a zero covariance under both estimators.
        assert_allclose(model.cov_beta, np.zeros((3, 3)), rtol=0, atol=1e-20)


def test_classical_covariance_matches_direct_inverse():
    rng = np.random.default_rng(12)
    X = np.column_stack([np.ones(50), rng.normal(size=(50, 3))])
    y = rng.normal(size=50)
    model = fit_ols(X, y, covariance_kind="classical")
    resid = y - X @ model.beta
    sigma2 = resid @ resid / (50 - 4)
    assert_allclose(model.cov_beta, sigma2 * np.linalg.inv(X.T @ X), rtol=1e-10)


def test_hc1_covariance_matches_direct_sandwich():
    rng = np.random.default_rng(13)
    X = np.column_stack([np.ones(50), rng.normal(size=(50, 3))])
    y = rng.normal(size=50)
    model = fit_ols(X, y, covariance_kind="hc1")
    resid = y - X @ model.beta
    bread = np.linalg.inv(X.T @ X)
    xe = X * resid[:, None]
    expected = bread @ (xe.T @ xe) @ bread * (50 / 46)
    assert_allclose(model.cov_beta, expected, rtol=1e-10)


def test_singleton_clusters_match_hc1():
    # One row per cluster: the Liang-Zeger meat equals the HC1 meat, and the
    # corrections agree, (G/(G-1)) ((n-1)/(n-p)) = n/(n-p) when G = n.
    rng = np.random.default_rng(14)
    X = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
    y = rng.normal(size=30)
    hc1 = fit_ols(X, y, covariance_kind="hc1")
    clustered = fit_ols(X, y, covariance_kind="cluster",
                        cluster_ids=[f"u{i}" for i in range(30)])
    assert_allclose(clustered.cov_beta, hc1.cov_beta, rtol=1e-12)


def test_cluster_covariance_matches_direct_formula():
    rng = np.random.default_rng(15)
    n = 40
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    y = rng.normal(size=n)
    ids = [f"g{i % 8}" for i in range(n)]
    model = fit_ols(X, y, covariance_kind="cluster", cluster_ids=ids)
    resid = y - X @ model.beta
    bread = np.linalg.inv(X.T @ X)
    meat = np.zeros((3, 3))
    for g in set(ids):
        mask = np.asarray([i == g for i in ids])
        s = (X[mask] * resid[mask, None]).sum(axis=0)
        meat += np.outer(s, s)
    expected = bread @ meat @ bread * (8 / 7) * ((n - 1) / (n - 3))
    assert_allclose(model.cov_beta, expected, rtol=1e-10)


def _cluster_cov_by_label_loop(X, y, labels):
    """Reference cluster covariance: one ``ids == label`` mask per cluster,
    clusters in ``sorted(set(labels))`` order, same factorization and
    operation order as ``fit_ols`` (``np.linalg.qr``'s R equals the in-place
    one bit for bit; see tests/test_least_squares.py)."""
    n, p = X.shape
    Rxy = np.linalg.qr(np.column_stack([X, y]), mode="r")
    R = Rxy[:p, :p]
    beta = np.linalg.solve(R, Rxy[:p, p])
    resid = y - X @ beta
    r_inv = np.linalg.solve(R, np.eye(p))
    ids = np.asarray([str(c) for c in labels], dtype=object)
    groups = sorted(set(ids.tolist()))
    xe = X @ r_inv
    xe *= resid[:, None]
    scores = np.zeros((len(groups), p))
    for g, label in enumerate(groups):
        scores[g] = xe[ids == label].sum(axis=0)
    G = len(groups)
    cov = r_inv @ (scores.T @ scores) @ r_inv.T * ((G / (G - 1)) * ((n - 1) / (n - p)))
    return (cov + cov.T) / 2.0


def test_grouped_cluster_meat_is_bit_exact():
    # Interleaved rows, unequal cluster sizes (1 to 40 rows), one singleton,
    # and numeric labels whose string order differs from their numeric
    # order ("10" sorts before "9").
    rng = np.random.default_rng(21)
    sizes = {1: 1, 2: 40, 9: 7, 10: 23, 11: 2, 100: 15, 3: 12}
    numbers = np.repeat(list(sizes), list(sizes.values()))
    rng.shuffle(numbers)
    n = numbers.shape[0]
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 3)), rng.integers(0, 2, n)])
    y = X @ rng.normal(size=5) + rng.standard_t(3, size=n)
    labels = [f"u{k}" for k in numbers]
    model = fit_ols(X, y, covariance_kind="cluster", cluster_ids=labels)
    assert_array_equal(model.cov_beta, _cluster_cov_by_label_loop(X, y, labels))
    # Integer ids cluster exactly like their string forms.
    by_int = fit_ols(X, y, covariance_kind="cluster", cluster_ids=numbers)
    by_str = fit_ols(X, y, covariance_kind="cluster", cluster_ids=[str(k) for k in numbers])
    assert_array_equal(by_int.beta, by_str.beta)
    assert_array_equal(by_int.cov_beta, by_str.cov_beta)
    assert_array_equal(by_int.cov_beta, _cluster_cov_by_label_loop(X, y, numbers))


def test_cluster_requires_ids_and_two_clusters():
    X = np.column_stack([np.ones(6), np.arange(6.0)])
    y = np.arange(6.0)
    with pytest.raises(ValueError, match="requires cluster_ids"):
        fit_ols(X, y, covariance_kind="cluster")
    with pytest.raises(ValueError, match="at least 2 clusters"):
        fit_ols(X, y, covariance_kind="cluster", cluster_ids=["g"] * 6)


def test_fit_model_cluster_requires_unit_id():
    with pytest.raises(ValueError, match="requires a unit_id column"):
        fit_model(two_arm_data(), ModelSpec(reference_arm="0", covariance_kind="cluster"))


def test_row_permutation_invariance():
    rng = np.random.default_rng(16)
    data = Dataset(
        outcome=rng.normal(size=24),
        arm=[str(i % 3) for i in range(24)],
        covariates={"x": rng.normal(size=24)},
        unit_id=[f"u{i % 6}" for i in range(24)],
    )
    perm = rng.permutation(24)
    shuffled = Dataset(
        outcome=data.outcome[perm],
        arm=labels(data.arm)[perm],
        covariates={"x": data.covariates["x"][perm]},
        unit_id=labels(data.unit_id)[perm],
    )
    for kind in ("classical", "hc1", "cluster"):
        spec = ModelSpec(reference_arm="0", covariance_kind=kind)
        a, b = fit_model(data, spec), fit_model(shuffled, spec)
        assert_allclose(a.beta, b.beta, rtol=0, atol=1e-10)
        assert_allclose(a.cov_beta, b.cov_beta, rtol=0, atol=1e-10)


def test_posterior_matches_hand_formula():
    rng = np.random.default_rng(17)
    n, p = 40, 3
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    y = rng.normal(size=n)
    m0 = rng.normal(size=p)
    A = rng.normal(size=(p, p))
    S0 = A @ A.T + np.eye(p)
    s2 = 1.3
    model = fit_bayes(X, y, m0, S0, s2)
    precision = np.linalg.inv(S0) + X.T @ X / s2
    cov = np.linalg.inv(precision)
    assert_allclose(model.cov_beta, cov, rtol=1e-10)
    assert_allclose(model.beta, cov @ (np.linalg.inv(S0) @ m0 + X.T @ y / s2), rtol=1e-10)
    assert model.posterior
    assert model.covariance_kind == "bayes"


def test_wide_prior_approaches_least_squares():
    rng = np.random.default_rng(18)
    X = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
    y = rng.normal(size=30)
    ols = fit_ols(X, y, covariance_kind="classical")
    post = fit_bayes(X, y, np.zeros(3), 1e8 * np.eye(3), 1.0)
    assert_allclose(post.beta, ols.beta, rtol=1e-5)


def test_huge_noise_variance_returns_the_prior():
    # With the likelihood washed out the posterior collapses to the prior.
    rng = np.random.default_rng(19)
    X = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
    y = rng.normal(size=30)
    m0 = np.array([2.0, -1.0, 0.5])
    post = fit_bayes(X, y, m0, np.eye(3), 1e8)
    assert_allclose(post.beta, m0, rtol=1e-4)
    assert_allclose(post.cov_beta, np.eye(3), rtol=1e-4, atol=1e-6)


def test_fit_bayes_rejects_empty_data():
    with pytest.raises(ValueError, match="empty dataset"):
        fit_bayes(np.empty((0, 2)), np.empty(0), np.zeros(2), np.eye(2), 1.0)


def test_posterior_covariance_stays_spd():
    rng = np.random.default_rng(23)
    X = np.column_stack([np.ones(25), rng.normal(size=(25, 3))])
    y = rng.normal(size=25)
    for _ in range(10):
        A = rng.normal(size=(4, 4))
        S0 = A @ A.T + 0.1 * np.eye(4)
        post = fit_bayes(X, y, rng.normal(size=4), S0, float(rng.uniform(0.2, 5.0)))
        np.linalg.cholesky(post.cov_beta)  # raises if not SPD


def test_bad_priors_rejected():
    X = np.column_stack([np.ones(5), np.arange(5.0)])
    y = np.arange(5.0)
    with pytest.raises(ValueError, match="not symmetric positive definite"):
        fit_bayes(X, y, np.zeros(2), np.array([[1.0, 2.0], [0.0, 1.0]]), 1.0)
    with pytest.raises(ValueError, match="not symmetric positive definite"):
        fit_bayes(X, y, np.zeros(2), -np.eye(2), 1.0)
    with pytest.raises(ValueError, match="noise_variance must be positive"):
        fit_bayes(X, y, np.zeros(2), np.eye(2), 0.0)
    with pytest.raises(ValueError, match="prior dimensions"):
        fit_bayes(X, y, np.zeros(3), np.eye(3), 1.0)
    with pytest.raises(ValueError, match="noise_variance must be positive"):
        BayesPrior(mean=np.zeros(2), covariance=np.eye(2), noise_variance=-1.0)


def test_fit_model_expands_prior_forms():
    data = two_arm_data()
    design, y, schema = build_design(data, ModelSpec(reference_arm="0"))
    full = fit_bayes(design, y, np.full(2, 0.5), np.eye(2) * 4.0, 1.5, schema=schema)
    for mean, cov in [(0.5, 4.0), ([0.5, 0.5], [4.0, 4.0]), (np.full(2, 0.5), np.eye(2) * 4.0)]:
        prior = BayesPrior(mean=mean, covariance=cov, noise_variance=1.5)
        model = fit_model(data, ModelSpec(reference_arm="0", bayes=prior))
        assert model.posterior
        assert_array_equal(model.beta, full.beta)
        assert_array_equal(model.cov_beta, full.cov_beta)
    for mean, cov, message in [
        (np.zeros(3), 1.0, "model.bayes.prior_mean has shape (3,)"),
        (0.0, np.ones(3), "model.bayes.prior_covariance has shape (3,)"),
        (0.0, np.eye(3), "model.bayes.prior_covariance has shape (3, 3)"),
    ]:
        with pytest.raises(ValueError) as info:
            fit_model(data, ModelSpec(reference_arm="0", bayes=BayesPrior(
                mean=mean, covariance=cov, noise_variance=1.0)))
        assert str(info.value) == f"{message} but the design has p = 2 columns"


@pytest.mark.parametrize("make", [
    two_arm_data,
    lambda: BayesPrior(mean=np.zeros(2), covariance=np.eye(2), noise_variance=1.0),
    lambda: CovariateProfile(values=[1.0, 2.0]),
    lambda: fit_model(two_arm_data(), ModelSpec(reference_arm="0")),
])
def test_array_holding_dataclasses_compare_by_identity(make):
    obj = make()
    assert obj == obj
    # Copied arrays: a generated __eq__ would compare them elementwise and raise.
    arrays = {f.name: getattr(obj, f.name).copy() for f in dataclasses.fields(obj)
              if isinstance(getattr(obj, f.name), np.ndarray)}
    assert arrays
    assert (dataclasses.replace(obj, **arrays) == obj) is False


def test_flat_prior_opt_in():
    model = fit_model(two_arm_data(), ModelSpec(reference_arm="0"))
    assert not model.posterior
    flat = as_flat_prior_posterior(model)
    assert flat.posterior
    assert_allclose(flat.beta, model.beta, rtol=0, atol=0)
    assert as_flat_prior_posterior(flat) is flat


def test_fitted_model_validation():
    model = fit_model(two_arm_data(), ModelSpec(reference_arm="0"))
    with pytest.raises(ValueError, match="beta has length"):
        FittedModel(schema=model.schema, beta=np.zeros(3), cov_beta=np.eye(2),
                    n=4, covariance_kind="classical")
    with pytest.raises(ValueError, match="not symmetric"):
        FittedModel(schema=model.schema, beta=np.zeros(2),
                    cov_beta=np.array([[1.0, 0.5], [0.0, 1.0]]),
                    n=4, covariance_kind="classical")
    with pytest.raises(ValueError, match="negative diagonal"):
        FittedModel(schema=model.schema, beta=np.zeros(2),
                    cov_beta=np.array([[-1.0, 0.0], [0.0, 1.0]]),
                    n=4, covariance_kind="classical")


def test_arm_onehot_and_require_arm():
    _, _, schema = build_design(
        Dataset(outcome=[1.0, 2.0, 3.0], arm=["a", "b", "c"]),
        ModelSpec(reference_arm="b"),
    )
    assert schema.all_arms == ("b", "a", "c")
    assert_allclose(schema.arm_onehot("b"), [0.0, 0.0])
    assert_allclose(schema.arm_onehot("a"), [1.0, 0.0])
    assert_allclose(schema.arm_onehot("c"), [0.0, 1.0])
    with pytest.raises(ValueError, match="unknown arm label 'd'"):
        schema.require_arm("d")

"""Average, conditional, heterogeneous, and per-period effect queries."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import labels
from effect_engine.data import Dataset, add_period_covariate
from effect_engine.effects import ate, cate, dte, hte
from effect_engine.model import ModelSpec, fit_model
from effect_engine.predicates import parse_predicate, resolve_mask
from effect_engine.vectors import delta_vector, moments, profile_from_subset

# Standard normal quantiles, Phi^-1(0.975) and Phi^-1(0.9).
Z_95 = 1.959963984540054
Z_80 = 1.2815515655446004


def saturated_model():
    # Four arm-by-grade cells with means m(0,l)=2, m(0,h)=5, m(1,l)=4,
    # m(1,h)=10; the interacted fit reproduces the cell means exactly.
    data = Dataset(
        outcome=[1.0, 3.0, 5.0, 4.0, 9.0, 11.0],
        arm=["0", "0", "0", "1", "1", "1"],
        covariates={"grade": ["l", "l", "h", "l", "h", "h"]},
    )
    model = fit_model(data, ModelSpec(reference_arm="0", covariance_kind="classical"))
    return model, data


def test_ate_two_arm_frozen():
    data = Dataset(outcome=[1.0, 3.0, 4.0, 6.0], arm=["0", "0", "1", "1"])
    model = fit_model(data, ModelSpec(reference_arm="0", covariance_kind="classical"))
    est = ate(model, data, arm_to="1", arm_from="0")
    assert_allclose(est.estimate, 3.0, rtol=0, atol=1e-12)
    assert_allclose(est.std_error, np.sqrt(2.0), rtol=0, atol=1e-12)
    assert est.ci_level == 0.95
    assert_allclose(est.ci_low, 3.0 - Z_95 * np.sqrt(2.0), rtol=0, atol=1e-10)
    assert_allclose(est.ci_high, 3.0 + Z_95 * np.sqrt(2.0), rtol=0, atol=1e-10)
    assert est.query == {"type": "ate", "arm_to": "1", "arm_from": "0"}
    assert est.to_dict()["kind"] == "effect"


def test_ci_level_is_configurable():
    data = Dataset(outcome=[1.0, 3.0, 4.0, 6.0], arm=["0", "0", "1", "1"])
    model = fit_model(data, ModelSpec(reference_arm="0", covariance_kind="classical"))
    est = ate(model, data, "1", "0", ci_level=0.8)
    assert_allclose(est.ci_high - est.estimate, Z_80 * est.std_error, rtol=1e-10)
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError, match="ci_level must be strictly between"):
            ate(model, data, "1", "0", ci_level=bad)


def test_ate_antisymmetric_and_same_arm_rejected():
    model, data = saturated_model()
    fwd = ate(model, data, "1", "0")
    rev = ate(model, data, "0", "1")
    assert_allclose(rev.estimate, -fwd.estimate, rtol=0, atol=1e-12)
    assert_allclose(rev.std_error, fwd.std_error, rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="two distinct arms"):
        ate(model, data, "1", "1")


def test_cate_true_everywhere_equals_ate():
    model, data = saturated_model()
    base = ate(model, data, "1", "0")
    everywhere = cate(model, data, "1", "0", np.ones(data.n, dtype=bool))
    assert_allclose(everywhere.estimate, base.estimate, rtol=0, atol=1e-12)
    assert_allclose(everywhere.std_error, base.std_error, rtol=0, atol=1e-12)


def test_cate_on_a_no_covariate_model_is_the_ate():
    # Without covariates the interaction block is empty, so conditioning has
    # nothing to move: the subset delta vector is the global one.
    data = Dataset(outcome=[1.0, 3.0, 4.0, 6.0], arm=["0", "0", "1", "1"])
    model = fit_model(data, ModelSpec(reference_arm="0"))
    sub = cate(model, data, "1", "0", np.array([True, False, True, False]))
    base = ate(model, data, "1", "0")
    assert sub.estimate == base.estimate
    assert sub.std_error == base.std_error


def test_ate_is_share_weighted_cell_contrast():
    # Half the rows are grade l, so the average effect mixes the two
    # per-level contrasts equally: 0.5 (4-2) + 0.5 (10-5) = 3.5.
    model, data = saturated_model()
    est = ate(model, data, "1", "0")
    assert_allclose(est.estimate, 3.5, rtol=0, atol=1e-12)


def test_cate_recovers_cell_contrasts():
    model, data = saturated_model()
    low = cate(model, data, "1", "0", "grade == l")
    high = cate(model, data, "1", "0", "grade == h")
    assert_allclose(low.estimate, 4.0 - 2.0, rtol=0, atol=1e-12)
    assert_allclose(high.estimate, 10.0 - 5.0, rtol=0, atol=1e-12)
    assert low.query["predicate"] == "grade == l"
    assert low.query["type"] == "cate"


def test_cate_accepts_parsed_and_custom_predicates():
    model, data = saturated_model()
    parsed = cate(model, data, "1", "0", parse_predicate("grade == 'l'"))
    assert parsed.query["predicate"] == "grade == l"
    masked = cate(model, data, "1", "0", labels(data.covariates["grade"]) == "l")
    assert masked.query["predicate"] == "<custom>"
    assert_allclose(masked.estimate, parsed.estimate, rtol=0, atol=0)


def test_hte_is_subset_minus_complement():
    model, data = saturated_model()
    est = hte(model, data, "1", "0", "grade == l")
    assert_allclose(est.estimate, 2.0 - 5.0, rtol=0, atol=1e-12)
    assert est.query["type"] == "hte"


def test_hte_variance_is_full_contrast_quadratic_form():
    # The two conditional effects share coefficients, so the right variance
    # comes from the joint contrast vector, not from adding the two
    # standalone variances.
    model, data = saturated_model()
    est = hte(model, data, "1", "0", "grade == l")
    profile_in = profile_from_subset(data, model.schema, "grade == l")
    profile_out = profile_from_subset(data, model.schema, ~resolve_mask(data, "grade == l"))
    contrast = (delta_vector(model.schema, profile_in, "1", "0")
                - delta_vector(model.schema, profile_out, "1", "0"))
    value, variance = moments(model, contrast)
    assert_allclose(est.estimate, value, rtol=0, atol=0)
    assert_allclose(est.std_error, np.sqrt(variance), rtol=0, atol=0)


def test_arm_relabeling_leaves_estimates_invariant():
    # Renaming arms reshuffles the design columns (they are label-sorted)
    # but cannot move any estimate.
    rng = np.random.default_rng(29)
    n = 60
    x = rng.normal(size=n)
    arm = np.asarray([str(i % 3) for i in range(n)], dtype=object)
    y = 1.0 + 0.5 * x + np.array([0.0, 1.0, 2.5])[[int(a) for a in arm]] + rng.normal(size=n)
    relabel = {"0": "zz", "1": "y", "2": "x"}  # reverses the sort order

    base_data = Dataset(outcome=y, arm=arm, covariates={"x": x})
    base = fit_model(base_data, ModelSpec(reference_arm="0"))
    new_data = Dataset(outcome=y, arm=[relabel[a] for a in arm], covariates={"x": x})
    new = fit_model(new_data, ModelSpec(reference_arm="zz"))
    assert base.schema.labels != new.schema.labels

    for to, frm in (("1", "0"), ("2", "0"), ("2", "1")):
        want = ate(base, base_data, to, frm)
        got = ate(new, new_data, relabel[to], relabel[frm])
        assert_allclose(got.estimate, want.estimate, rtol=0, atol=1e-12)
        assert_allclose(got.std_error, want.std_error, rtol=0, atol=1e-12)
    want = cate(base, base_data, "1", "0", "x >= 0")
    got = cate(new, new_data, "y", "zz", "x >= 0")
    assert_allclose(got.estimate, want.estimate, rtol=0, atol=1e-12)
    assert_allclose(got.std_error, want.std_error, rtol=0, atol=1e-12)


def test_hte_variance_differs_from_summing_subgroup_variances():
    # With a numeric covariate both subgroup deltas load on the same arm and
    # interaction coefficients, so their estimators are correlated and adding
    # the two subgroup variances is wrong.  (The saturated fixture would hide
    # this: there the subgroup deltas read disjoint cell means and really are
    # independent.)
    rng = np.random.default_rng(7)
    n = 40
    x = rng.normal(size=n)
    arm = np.repeat(["0", "1"], n // 2)
    y = 1.0 + 0.5 * x + 2.0 * (arm == "1") + rng.normal(size=n)
    data = Dataset(outcome=y, arm=arm, covariates={"x": x})
    model = fit_model(data, ModelSpec(reference_arm="0"))
    est = hte(model, data, "1", "0", "x >= 0")
    naive = (cate(model, data, "1", "0", "x >= 0").std_error ** 2
             + cate(model, data, "1", "0", "x < 0").std_error ** 2)
    assert abs(est.std_error**2 - naive) > 1e-3


def test_hte_vanishes_when_subset_means_match():
    # The mask splits the rows so both sides see covariate mean 1.5; the
    # contrast vector is then exactly zero and so is the estimate.
    data = Dataset(
        outcome=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        arm=["0", "1"] * 4,
        covariates={"x": [1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0]},
    )
    mask = np.array([True] * 4 + [False] * 4)
    model = fit_model(data, ModelSpec(reference_arm="0"))
    est = hte(model, data, "1", "0", mask)
    assert est.estimate == 0.0
    assert est.std_error == 0.0


def test_hte_antisymmetric_under_complement():
    model, data = saturated_model()
    fwd = hte(model, data, "1", "0", "grade == l")
    rev = hte(model, data, "1", "0", "grade == h")
    assert_allclose(rev.estimate, -fwd.estimate, rtol=0, atol=1e-12)
    assert_allclose(rev.std_error, fwd.std_error, rtol=0, atol=1e-12)


def test_noise_covariate_barely_moves_the_ate():
    rng = np.random.default_rng(101)
    n = 200
    arm = np.asarray(["0", "1"], dtype=object)[np.arange(n) % 2]
    y = 1.0 + 2.0 * (arm == "1") + rng.normal(size=n)
    bare = Dataset(outcome=y, arm=arm)
    noisy = Dataset(outcome=y, arm=arm, covariates={"z": rng.normal(size=n)})
    est0 = ate(fit_model(bare, ModelSpec(reference_arm="0")), bare, "1", "0")
    noisy_model = fit_model(noisy, ModelSpec(reference_arm="0"))
    est1 = ate(noisy_model, noisy, "1", "0")
    assert abs(est1.estimate - est0.estimate) < 2.0 * est0.std_error
    # The global-means identity keeps holding with the extra column around.
    every = cate(noisy_model, noisy, "1", "0", np.ones(n, dtype=bool))
    assert_allclose(every.estimate, est1.estimate, rtol=0, atol=1e-12)
    assert_allclose(every.std_error, est1.std_error, rtol=0, atol=1e-12)


def test_hte_rejects_empty_complement():
    model, data = saturated_model()
    with pytest.raises(ValueError, match="^hte predicate '<custom>' selects every row, so its "
                                         "complement is empty$"):
        hte(model, data, "1", "0", np.ones(6, dtype=bool))


def test_hte_whose_predicate_selects_every_row_names_the_predicate():
    model, data = saturated_model()
    with pytest.raises(ValueError) as info:
        hte(model, data, "1", "0", "grade != 'm'")
    assert str(info.value) == ("hte predicate \"grade != 'm'\" selects every row, so its "
                               "complement is empty")
    # A predicate that selects no row leaves the subset itself empty.
    with pytest.raises(ValueError, match="^empty conditioning subset$"):
        hte(model, data, "1", "0", "grade == 'm'")


def panel_data():
    # Eight units, two periods each; arm fixed within unit. Cell means:
    # period 0: control 2.5, treated 5.5; period 1: control 3.5, treated 9.5.
    outcome = [1, 2, 3, 4, 4, 5, 6, 7, 2, 3, 4, 5, 8, 9, 10, 11]
    period = [0] * 8 + [1] * 8
    arm = (["c"] * 4 + ["t"] * 4) * 2
    unit = [f"u{i % 8}" for i in range(16)]
    return Dataset(outcome=np.asarray(outcome, dtype=float), arm=arm,
                   unit_id=unit, period=period)


def test_dte_recovers_per_period_contrasts():
    data = add_period_covariate(panel_data())
    model = fit_model(data, ModelSpec(reference_arm="c", covariance_kind="cluster"))
    at0 = dte(model, data, "t", "c", period=0)
    at1 = dte(model, data, "t", "c", period=1)
    assert_allclose(at0.estimate, 5.5 - 2.5, rtol=0, atol=1e-12)
    assert_allclose(at1.estimate, 9.5 - 3.5, rtol=0, atol=1e-12)
    assert at0.query == {"type": "dte", "arm_to": "t", "arm_from": "c", "period": 0}
    assert at0.std_error > 0


def test_dte_requires_cluster_covariance():
    data = add_period_covariate(panel_data())
    model = fit_model(data, ModelSpec(reference_arm="c", covariance_kind="hc1"))
    with pytest.raises(ValueError, match="time-dynamic effects require cluster-robust covariance"):
        dte(model, data, "t", "c", period=0)


def test_dte_requires_period_column():
    data = Dataset(
        outcome=[1.0, 2.0, 3.0, 4.0],
        arm=["c", "t", "c", "t"],
        unit_id=["u1", "u2", "u3", "u4"],
    )
    model = fit_model(data, ModelSpec(reference_arm="c", covariance_kind="cluster"))
    with pytest.raises(ValueError, match="no period column"):
        dte(model, data, "t", "c", period=0)


def test_dte_unknown_period_lists_known_ones():
    data = add_period_covariate(panel_data())
    model = fit_model(data, ModelSpec(reference_arm="c", covariance_kind="cluster"))
    with pytest.raises(ValueError, match=r"unknown period 5; data has periods \[0, 1\]"):
        dte(model, data, "t", "c", period=5)


def test_dte_requires_period_covariate_in_schema():
    data = panel_data()  # period column present but never encoded
    model = fit_model(data, ModelSpec(reference_arm="c", covariance_kind="cluster"))
    with pytest.raises(ValueError, match="lacks the 'period' covariate"):
        dte(model, data, "t", "c", period=0)


def test_dte_on_singleton_units_matches_hc1_conditional_effect():
    # One row per unit makes every cluster a singleton, where the clustered
    # covariance collapses to hc1 exactly; the per-period effect must then
    # agree with a plain conditional effect at that period under hc1.
    data = add_period_covariate(Dataset(
        outcome=[1.0, 2.0, 4.0, 7.0, 2.0, 3.0, 9.0, 12.0],
        arm=["c", "c", "t", "t"] * 2,
        unit_id=[f"u{i}" for i in range(8)],
        period=[0] * 4 + [1] * 4,
    ))
    clustered = fit_model(data, ModelSpec(reference_arm="c", covariance_kind="cluster"))
    hc1_fit = fit_model(data, ModelSpec(reference_arm="c", covariance_kind="hc1"))
    for t in (0, 1):
        slow = dte(clustered, data, "t", "c", period=t)
        fast = cate(hc1_fit, data, "t", "c", f"period == {t}")
        assert_allclose(slow.estimate, fast.estimate, rtol=0, atol=1e-12)
        assert_allclose(slow.std_error, fast.std_error, rtol=1e-12, atol=1e-12)


def test_dte_single_period_falls_back_to_average_effect():
    # With one period the time axis is degenerate: the per-period estimate
    # is the plain average effect and no period covariate is needed.
    data = Dataset(
        outcome=[1.0, 3.0, 4.0, 6.0],
        arm=["c", "c", "t", "t"],
        unit_id=["u1", "u2", "u3", "u4"],
        period=[2, 2, 2, 2],
    )
    data = add_period_covariate(data)
    model = fit_model(data, ModelSpec(reference_arm="c", covariance_kind="cluster"))
    est = dte(model, data, "t", "c", period=2)
    avg = ate(model, data, "t", "c")
    assert_allclose(est.estimate, avg.estimate, rtol=0, atol=0)
    assert_allclose(est.std_error, avg.std_error, rtol=0, atol=0)

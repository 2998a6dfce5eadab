"""Delta-method relative effects."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from effect_engine.data import Dataset
from effect_engine.model import ModelSpec, fit_model
from effect_engine.relative import ratio_moments, relative_effect
from effect_engine.vectors import baseline_vector, delta_vector, profile_from_subset
from effect_engine import relative as relative_mod


def two_arm_fit():
    data = Dataset(outcome=[1.0, 3.0, 4.0, 6.0], arm=["0", "0", "1", "1"])
    model = fit_model(data, ModelSpec(reference_arm="0", covariance_kind="classical"))
    return model, data


def test_ratio_moments_frozen_example():
    # Er=3, Es=2, Vr=2, Vs=1, Crs=-1:
    #   mean = 3/2 - (-1)/4 + 1*3/8          = 2.125
    #   var  = 2/4 - 2*3*(-1)/8 + 9*1/16     = 1.8125
    mean, var = ratio_moments(3.0, 2.0, 2.0, 1.0, -1.0)
    assert_allclose(mean, 2.125, rtol=0, atol=1e-12)
    assert_allclose(var, 1.8125, rtol=0, atol=1e-12)


def test_ratio_moments_zero_denominator():
    with pytest.raises(ZeroDivisionError, match="zero denominator mean"):
        ratio_moments(1.0, 0.0, 1.0, 1.0, 0.0)


@settings(max_examples=300, deadline=None)
@given(
    er=st.floats(min_value=-50, max_value=50, allow_nan=False),
    es=st.floats(min_value=0.5, max_value=50, allow_nan=False),
    vr=st.floats(min_value=0, max_value=100, allow_nan=False),
    vs=st.floats(min_value=0, max_value=100, allow_nan=False),
    crs=st.floats(min_value=-100, max_value=100, allow_nan=False),
)
def test_variance_matches_factored_textbook_form(er, es, vr, vs, crs):
    # Away from Er = 0 the implemented expansion must agree with the
    # factored form (Er/Es)^2 (Vr/Er^2 - 2 Crs/(Er Es) + Vs/Es^2); the
    # implementation just avoids the division by Er.
    if abs(er) < 1e-3:
        er += 1.0
    _, var = ratio_moments(er, es, vr, vs, crs)
    factored = (er / es) ** 2 * (vr / er**2 - 2 * crs / (er * es) + vs / es**2)
    # atol absorbs cancellation noise; term magnitudes reach ~4e6 here.
    assert_allclose(var, factored, rtol=1e-9, atol=1e-7)


def test_ratio_moments_defined_at_null_numerator():
    # The whole point of the rearranged variance: Er = 0 is fine.
    mean, var = ratio_moments(0.0, 2.0, 2.0, 1.0, -1.0)
    assert_allclose(mean, 0.25, rtol=0, atol=1e-15)  # -Crs/Es^2 survives
    assert_allclose(var, 0.5, rtol=0, atol=1e-15)    # Vr/Es^2


def test_relative_effect_end_to_end():
    # Delta moments (3, 2), baseline moments (2, 1), covariance -1: the
    # frozen ratio example, reached through an actual fit.
    model, data = two_arm_fit()
    est = relative_effect(model, data, "1", "0", guard=1.5)
    assert_allclose(est.estimate, 2.125, rtol=0, atol=1e-12)
    assert_allclose(est.first_order, 1.5, rtol=0, atol=1e-12)
    assert est.to_dict()["first_order"] == est.first_order
    assert_allclose(est.std_error, np.sqrt(1.8125), rtol=0, atol=1e-12)
    assert est.components == pytest.approx(
        {"delta_mean": 3.0, "delta_variance": 2.0, "baseline_mean": 2.0,
         "baseline_variance": 1.0, "covariance": -1.0}, abs=1e-12)
    assert est.query == {"type": "relative_effect", "arm_to": "1", "arm_from": "0"}
    assert est.to_dict()["kind"] == "relative_effect"
    assert_allclose(est.ci_high - est.ci_low,
                    2 * 1.959963984540054 * est.std_error, rtol=1e-10)


def test_default_guard_refuses_noisy_baseline():
    # |baseline| = 2 is only two of its standard errors from zero, under
    # the default guard of five.
    model, data = two_arm_fit()
    with pytest.raises(ValueError, match="baseline too close to zero"):
        relative_effect(model, data, "1", "0")


def test_guard_validation():
    model, data = two_arm_fit()
    with pytest.raises(ValueError, match="guard must be non-negative"):
        relative_effect(model, data, "1", "0", guard=-1.0)


def test_negative_variance_clamps_with_warning(monkeypatch):
    model, data = two_arm_fit()
    monkeypatch.setattr(relative_mod, "ratio_moments", lambda *a: (1.0, -1e-9))
    with pytest.warns(UserWarning, match="ratio variance came out negative"):
        est = relative_effect(model, data, "1", "0", guard=0.0)
    assert est.std_error == 0.0


def test_genuine_covariance_never_goes_negative():
    # With a PSD coefficient covariance the rearranged variance is a
    # quadratic form plus a Schur-complement term and cannot be negative;
    # hammer it over random two-arm datasets.
    import warnings

    rng = np.random.default_rng(42)
    for _ in range(50):
        n = 20
        y = rng.normal(loc=10.0, scale=1.0, size=n)
        arm = rng.permutation([str(i % 2) for i in range(n)])
        data = Dataset(outcome=y, arm=arm,
                       covariates={"x": rng.normal(size=n)})
        model = fit_model(data, ModelSpec(reference_arm="0", covariance_kind="hc1"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a clamp warning is a failure
            est = relative_effect(model, data, "1", "0", guard=0.0)
        assert est.std_error >= 0.0


def test_ci_level_validated():
    model, data = two_arm_fit()
    with pytest.raises(ValueError, match="ci_level must be strictly between"):
        relative_effect(model, data, "1", "0", ci_level=1.2, guard=0.0)


def _interacted_fit(scale=1.0, seed=33):
    rng = np.random.default_rng(seed)
    n = 120
    x = rng.normal(size=n)
    arm = np.array(["0", "1"])[np.arange(n) % 2]
    y = 10.0 + 0.5 * x + (1.5 + 0.8 * x) * (arm == "1") + rng.normal(size=n)
    data = Dataset(outcome=scale * y, arm=arm, covariates={"x": x})
    return fit_model(data, ModelSpec(reference_arm="0")), data


def test_scale_equivariance():
    # A ratio of two outcome-scale quantities is scale-free: y -> c*y moves
    # every moment consistently and must leave the result alone.
    plain = relative_effect(*_interacted_fit(scale=1.0), "1", "0")
    scaled = relative_effect(*_interacted_fit(scale=3.7), "1", "0")
    assert_allclose(scaled.estimate, plain.estimate, rtol=1e-9)
    assert_allclose(scaled.first_order, plain.first_order, rtol=1e-9)
    assert_allclose(scaled.std_error, plain.std_error, rtol=1e-9)


def test_predicate_conditions_both_numerator_and_denominator():
    model, data = _interacted_fit()
    est = relative_effect(model, data, "1", "0", predicate="x >= 0")
    assert est.query["predicate"] == "x >= 0"

    # Stacked reference: both rows at the subset's profile, one L Σ Lᵀ.
    profile = profile_from_subset(data, model.schema, "x >= 0")
    rows = np.vstack([delta_vector(model.schema, profile, "1", "0"),
                      baseline_vector(model.schema, profile, "0")])
    mu = rows @ model.beta
    sigma = rows @ model.cov_beta @ rows.T
    sigma = (sigma + sigma.T) / 2.0
    mean, var = ratio_moments(mu[0], mu[1], sigma[0, 0], sigma[1, 1], sigma[0, 1])
    assert_allclose(est.estimate, mean, rtol=0, atol=0)
    assert_allclose(est.std_error, np.sqrt(var), rtol=0, atol=0)

    # The interaction makes the subset ratio genuinely different.
    unconditioned = relative_effect(model, data, "1", "0")
    assert abs(est.estimate - unconditioned.estimate) > 1e-3
    assert "predicate" not in unconditioned.query

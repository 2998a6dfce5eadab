"""Differential gate: every query through ``moments`` against the per-row
formulas it replaced.

The reference below evaluates one row at a time, ``e @ beta`` and
``e @ cov @ e``, plus ``d @ cov @ b`` for a ratio's covariance, exactly as
the queries did before they shared one path. A one-row ``moments`` call and
a stacked call for ``prob_best`` run the same floating-point operations, so
those queries must match bit for bit; ``relative_effect`` stacks two rows
into one product and may move in the last bits only.
"""

import numpy as np
import pytest

from conftest import labels
from effect_engine.data import Dataset, add_period_covariate
from effect_engine.effects import ate, cate, dte, hte
from effect_engine.model import BayesPrior, ModelSpec, as_flat_prior_posterior, fit_model
from effect_engine.mvnorm import mvn_orthant
from effect_engine.normal import ndtri
from effect_engine.predicates import parse_predicate, resolve_mask
from effect_engine.ranking import prob_best, prob_positive
from effect_engine.relative import ratio_moments, relative_effect
from effect_engine.vectors import baseline_vector, delta_vector, profile_from_subset


def _value_variance(e, model):
    value = float(e @ model.beta)
    variance = float(e @ model.cov_beta @ e)
    if variance < 0.0:
        assert variance >= -1e-12
        variance = 0.0
    return value, variance


def _interval(value, variance, ci_level):
    se = float(np.sqrt(variance))
    z = float(ndtri(0.5 + ci_level / 2.0))
    return {"estimate": value, "std_error": se, "ci_low": value - z * se,
            "ci_high": value + z * se, "ci_level": ci_level}


def ref_effect(model, data, arm_to, arm_from, predicate=None, complement=None, ci=0.95):
    """ate/cate/dte (one delta row) or hte (in-subset minus complement row)."""
    profile = profile_from_subset(data, model.schema, predicate)
    e = delta_vector(model.schema, profile, arm_to, arm_from)
    if complement:
        out = profile_from_subset(data, model.schema, ~resolve_mask(data, predicate))
        e = e - delta_vector(model.schema, out, arm_to, arm_from)
    return _interval(*_value_variance(e, model), ci)


def ref_relative(model, data, arm_to, arm_from, predicate=None, ci=0.95):
    profile = profile_from_subset(data, model.schema, predicate)
    d = delta_vector(model.schema, profile, arm_to, arm_from)
    b = baseline_vector(model.schema, profile, arm_from)
    er, vr = _value_variance(d, model)
    es, vs = _value_variance(b, model)
    crs = float(d @ model.cov_beta @ b)
    mean, var = ratio_moments(er, es, vr, vs, crs)
    out = _interval(mean, max(var, 0.0), ci)
    out.update(first_order=er / es, components=[er, vr, es, vs, crs])
    return out


def ref_prob_positive(model, data, arm_to, arm_from, predicate, seed):
    profile = profile_from_subset(data, model.schema, predicate)
    value, variance = _value_variance(delta_vector(model.schema, profile, arm_to, arm_from),
                                      model)
    res = mvn_orthant([value], [[variance]], seed=seed)
    return res.probability, res.error, res.method


def ref_prob_best(model, data, predicate, seed):
    profile = profile_from_subset(data, model.schema, predicate)
    arms = model.schema.all_arms
    children = np.random.SeedSequence(seed).spawn(len(arms))
    out = {}
    for i, arm in enumerate(arms):
        stack = np.vstack([delta_vector(model.schema, profile, arm, other)
                           for other in sorted(a for a in arms if a != arm)])
        cov = stack @ model.cov_beta @ stack.T
        res = mvn_orthant(stack @ model.beta, (cov + cov.T) / 2.0, seed=children[i])
        out[arm] = (res.probability, res.error, res.method)
    return out


def panel(n_arms, seed):
    """Units with a fixed arm over 3 periods: numeric, categorical and a
    numeric-looking categorical covariate."""
    rng = np.random.default_rng(seed)
    units, periods = 40 * n_arms, 3
    unit = np.repeat(np.arange(units), periods)
    period = np.tile(np.arange(periods), units)
    arms = np.array([f"arm{k}" for k in range(n_arms)], dtype=object)
    arm = arms[unit % n_arms]
    x = rng.normal(size=unit.size)
    g = rng.choice(["lo", "mid", "hi"], size=unit.size)
    k = rng.choice(["1", "2"], size=unit.size)
    effect = np.array([0.3 * j for j in range(n_arms)])[unit % n_arms]
    y = 2.0 + x + (g == "hi") + effect * (1.0 + 0.5 * x) + rng.normal(size=unit.size)
    return Dataset(outcome=y, arm=arm, covariates={"x": x, "g": g, "k": k},
                   unit_id=[str(u) for u in unit], period=period)


def to_ref(result):
    d = result.to_dict()
    return {key: d[key] for key in ("estimate", "std_error", "ci_low", "ci_high", "ci_level")}


@pytest.mark.parametrize("bayes", [False, True])
@pytest.mark.parametrize("n_arms,seed", [(2, 0), (3, 1), (4, 2), (5, 3)])
def test_queries_match_per_row_reference(n_arms, seed, bayes):
    data = panel(n_arms, seed)
    prior = BayesPrior(mean=0.0, covariance=4.0, noise_variance=1.0) if bayes else None
    spec = ModelSpec(reference_arm="arm0", covariance_kind="hc1",
                     encodings={"k": "categorical"}, bayes=prior)
    model = fit_model(data, spec)
    posterior = as_flat_prior_posterior(model)
    arm_to, arm_from = f"arm{n_arms - 1}", "arm0" if n_arms == 2 else "arm1"
    predicates = [None, "x >= 0", parse_predicate("g == hi and k == 2"),
                  np.asarray(labels(data.covariates["g"]) == "lo")]

    for ci in (0.95, 0.8):
        got = to_ref(ate(model, data, arm_to, arm_from, ci_level=ci))
        assert repr(got) == repr(ref_effect(model, data, arm_to, arm_from, ci=ci))
    for predicate in predicates[1:]:
        got = to_ref(cate(model, data, arm_to, arm_from, predicate))
        assert repr(got) == repr(ref_effect(model, data, arm_to, arm_from, predicate))
        got = to_ref(hte(model, data, arm_to, arm_from, predicate))
        assert repr(got) == repr(ref_effect(model, data, arm_to, arm_from, predicate,
                                            complement=True))

    if not bayes:
        pdata = add_period_covariate(data)
        cluster = fit_model(pdata, ModelSpec(reference_arm="arm0", covariance_kind="cluster",
                                             encodings={"k": "categorical"}))
        for period in (0, 1, 2):
            mask = np.asarray(pdata.period) == period
            got = to_ref(dte(cluster, pdata, arm_to, arm_from, period))
            assert repr(got) == repr(ref_effect(cluster, pdata, arm_to, arm_from, mask))

    for i, predicate in enumerate(predicates):
        res = prob_positive(posterior, data, arm_to, arm_from, predicate, seed=i)
        assert repr((res.probability, res.error, res.method)) == repr(
            ref_prob_positive(posterior, data, arm_to, arm_from, predicate, i))
        ranking = prob_best(posterior, data, predicate=predicate, seed=i)
        got = {e.arm: (e.probability, e.error, e.method) for e in ranking.entries}
        assert repr(got) == repr(ref_prob_best(posterior, data, predicate, i))

    for predicate in predicates:
        res = relative_effect(model, data, arm_to, arm_from, predicate, guard=0.0)
        want = ref_relative(model, data, arm_to, arm_from, predicate)
        comp = res.components
        got = [res.estimate, res.first_order, res.std_error, res.ci_low, res.ci_high,
               comp["delta_mean"], comp["delta_variance"], comp["baseline_mean"],
               comp["baseline_variance"], comp["covariance"]]
        ref = [want["estimate"], want["first_order"], want["std_error"], want["ci_low"],
               want["ci_high"], *want["components"]]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

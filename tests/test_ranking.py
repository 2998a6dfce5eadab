"""Posterior arm-ranking queries."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtr

from effect_engine.data import Dataset
from effect_engine.model import ModelSpec, as_flat_prior_posterior, fit_model
from effect_engine.ranking import prob_best, prob_positive
from effect_engine.vectors import delta_vector, moments, profile_from_subset


def flat_posterior_model():
    data = Dataset(outcome=[1.0, 3.0, 4.0, 6.0], arm=["0", "0", "1", "1"])
    model = fit_model(data, ModelSpec(reference_arm="0", covariance_kind="classical"))
    return as_flat_prior_posterior(model), data


def arms_model(seed=21, shift=(0.0, 0.5, 1.0)):
    """A flat-prior posterior of one arm per entry of ``shift`` (labels "0",
    "1", ...), 20 rows each, whose outcomes are shifted by it."""
    rng = np.random.default_rng(seed)
    n = 20 * len(shift)
    arm = np.asarray([str(i % len(shift)) for i in range(n)], dtype=object)
    outcome = rng.normal(size=n)
    for a, extra in enumerate(shift):
        outcome[arm == str(a)] += extra
    data = Dataset(outcome=outcome, arm=arm)
    model = fit_model(data, ModelSpec(reference_arm="0", covariance_kind="classical"))
    return as_flat_prior_posterior(model), data


def test_plain_fit_is_refused():
    data = Dataset(outcome=[1.0, 3.0, 4.0, 6.0], arm=["0", "0", "1", "1"])
    model = fit_model(data, ModelSpec(reference_arm="0"))
    with pytest.raises(ValueError, match="as_flat_prior_posterior"):
        prob_positive(model, data, "1", "0")
    with pytest.raises(ValueError, match="as_flat_prior_posterior"):
        prob_best(model, data)


def test_prob_positive_is_exact_normal_cdf():
    # Effect posterior is N(3, 2), so P(effect > 0) = Phi(3 / sqrt(2)).
    model, data = flat_posterior_model()
    est = prob_positive(model, data, "1", "0")
    assert est.method == "closed_form_1d"
    assert est.error == 0.0
    assert_allclose(est.probability, ndtr(3.0 / np.sqrt(2.0)), rtol=0, atol=1e-15)
    assert_allclose(est.probability, 0.9830525732376554, rtol=0, atol=1e-15)
    assert est.query == {"type": "prob_positive", "arm_to": "1", "arm_from": "0"}
    assert est.to_dict()["kind"] == "prob_positive"


def test_prob_positive_direction_flip():
    model, data = flat_posterior_model()
    up = prob_positive(model, data, "1", "0")
    down = prob_positive(model, data, "0", "1")
    assert_allclose(up.probability + down.probability, 1.0, rtol=0, atol=1e-12)


def test_two_arm_prob_best_reduces_to_prob_positive():
    model, data = flat_posterior_model()
    ranking = prob_best(model, data, seed=0)
    positive = prob_positive(model, data, "1", "0", seed=0)
    by_arm = {e.arm: e for e in ranking.entries}
    assert_allclose(by_arm["1"].probability, positive.probability, rtol=0, atol=1e-15)
    assert by_arm["1"].method == "closed_form_1d"
    assert_allclose(by_arm["0"].probability, 1.0 - positive.probability,
                    rtol=0, atol=1e-15)


def test_probabilities_sum_to_one_within_error():
    model, data = arms_model()
    ranking = prob_best(model, data, seed=5)
    assert abs(ranking.total - 1.0) <= max(3.0 * ranking.total_error, 1e-6)
    assert ranking.to_dict()["kind"] == "prob_best"
    assert set(ranking.to_dict()["arms"]) == {"0", "1", "2"}


# Three arms rank by bivariate closed forms; four by QMC, one seed per arm.
ARM_SHIFTS = {"3 arms": ((0.0, 0.5, 1.0), "closed_form_2d"),
              "4 arms": ((0.0, 0.5, 1.0, 0.8), "qmc")}


@pytest.mark.parametrize("shift, method", ARM_SHIFTS.values(), ids=ARM_SHIFTS)
def test_candidate_order_does_not_change_estimates(shift, method):
    model, data = arms_model(shift=shift)
    labels = [str(a) for a in range(len(shift))]
    forward = prob_best(model, data, arms=labels, seed=9)
    backward = prob_best(model, data, arms=labels[1:][::-1] + labels[:1], seed=9)
    fw = {e.arm: (e.probability, e.error, e.method) for e in forward.entries}
    bw = {e.arm: (e.probability, e.error, e.method) for e in backward.entries}
    assert fw == bw
    assert {e.method for e in forward.entries} == {method}


def test_best_points_at_highest_mean():
    model, data = arms_model(shift=(0.0, 0.2, 3.0))
    ranking = prob_best(model, data, seed=6)
    best = max(ranking.entries, key=lambda e: e.probability)
    assert best.arm == "2"
    assert best.probability > 0.9


def test_arm_subset_and_validation():
    model, data = arms_model()
    pair = prob_best(model, data, arms=["0", "2"], seed=7)
    assert sorted(e.arm for e in pair.entries) == ["0", "2"]
    assert pair.query == {"type": "prob_best", "arms": ["0", "2"]}
    with pytest.raises(ValueError, match="duplicate arm labels"):
        prob_best(model, data, arms=["0", "0"])
    with pytest.raises(ValueError, match="at least 2 arms"):
        prob_best(model, data, arms=["0"])
    with pytest.raises(ValueError, match="unknown arm label '9'"):
        prob_best(model, data, arms=["0", "9"])


@pytest.mark.parametrize("shift, method", ARM_SHIFTS.values(), ids=ARM_SHIFTS)
def test_seed_determinism(shift, method):
    model, data = arms_model(shift=shift)
    a = prob_best(model, data, seed=31)
    b = prob_best(model, data, seed=31)
    assert [e.probability for e in a.entries] == [e.probability for e in b.entries]
    # A closed form reads no seed; QMC gives each arm its own.
    c = prob_best(model, data, seed=32)
    same = [e.probability == f.probability for e, f in zip(a.entries, c.entries)]
    assert same == [method == "closed_form_2d"] * len(shift)
    d = prob_best(model, data, seed=np.random.SeedSequence(31))
    assert [e.probability for e in d.entries] == [e.probability for e in a.entries]


def test_prob_positive_with_predicate():
    # A strong interaction makes the subset effect much larger than the
    # global one, and the subset probability is still an exact normal CDF
    # at the subset-profile delta.
    rng = np.random.default_rng(44)
    n = 80
    x = rng.normal(size=n)
    arm = np.array(["0", "1"])[np.arange(n) % 2]
    y = 1.0 + 0.4 * x + (0.1 + 0.9 * x) * (arm == "1") + rng.normal(size=n) * 2.0
    data = Dataset(outcome=y, arm=arm, covariates={"x": x})
    model = as_flat_prior_posterior(fit_model(data, ModelSpec(reference_arm="0")))

    est = prob_positive(model, data, "1", "0", predicate="x >= 0")
    assert est.query["predicate"] == "x >= 0"
    profile = profile_from_subset(data, model.schema, "x >= 0")
    mu, var = moments(model, delta_vector(model.schema, profile, "1", "0"))
    assert_allclose(est.probability, ndtr(mu / np.sqrt(var)), rtol=0, atol=1e-14)

    plain = prob_positive(model, data, "1", "0")
    assert "predicate" not in plain.query
    assert abs(est.probability - plain.probability) > 1e-3


def test_prob_best_ignores_rival_labels():
    # The candidate's probability may not depend on how its rivals are
    # labeled: swapping rival labels permutes the stacked contrast rows,
    # and the integrator's preordering makes the evaluation identical.
    rng = np.random.default_rng(52)
    n = 96
    arms = np.asarray([str(i % 4) for i in range(n)], dtype=object)
    y = rng.normal(size=n) + np.array([0.0, 0.3, 0.6, 0.9])[[int(a) for a in arms]]
    swap = {"1": "3", "3": "1"}

    def ranked(labels):
        data = Dataset(outcome=y, arm=labels)
        model = as_flat_prior_posterior(
            fit_model(data, ModelSpec(reference_arm="0", covariance_kind="classical"))
        )
        return {e.arm: e.probability for e in prob_best(model, data, seed=9).entries}

    base = ranked(arms)
    relabeled = ranked(np.asarray([swap.get(a, a) for a in arms], dtype=object))
    assert_allclose(relabeled["2"], base["2"], rtol=0, atol=1e-12)
    assert_allclose(relabeled["0"], base["0"], rtol=0, atol=1e-12)
    # The swapped arms keep their content but inherit each other's QMC
    # seeds, so those two only agree up to integration error.
    assert_allclose(relabeled["1"], base["3"], rtol=0, atol=3e-3)
    assert_allclose(relabeled["3"], base["1"], rtol=0, atol=3e-3)

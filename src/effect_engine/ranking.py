"""Probability-of-superiority and probability-of-best-arm queries.

These read the coefficient distribution N(beta, cov_beta) as a posterior, so
they demand a model that was actually fitted as one (or explicitly
reinterpreted via ``as_flat_prior_posterior``); a frequentist sampling
distribution does not license "the probability that arm A is best" without
that opt-in. Both pass the mean and covariance of their delta rows, from
:func:`~effect_engine.vectors.moments`, to the orthant integrator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset
from .model import FittedModel
from .mvnorm import mvn_orthant
from .vectors import Record, delta_vector, moments, profile_from_subset, query_echo

__all__ = ["ProbEstimate", "ArmProbability", "RankingResult", "prob_positive", "prob_best"]


@dataclass(frozen=True)
class ProbEstimate(Record):
    """Posterior probability with the quadrature error bound."""

    kind = "prob_positive"

    probability: float
    error: float
    method: str
    query: Mapping[str, object]


@dataclass(frozen=True)
class ArmProbability:
    arm: str
    probability: float
    error: float
    method: str


@dataclass(frozen=True)
class RankingResult:
    """Per-arm probabilities of being the best arm.

    The entries are estimated independently, so their sum is 1 only up to
    the individual quadrature errors; ``total`` exposes it for checking.
    """

    entries: tuple[ArmProbability, ...]
    query: Mapping[str, object]

    @property
    def total(self) -> float:
        return float(sum(e.probability for e in self.entries))

    @property
    def total_error(self) -> float:
        return float(sum(e.error for e in self.entries))

    def to_dict(self) -> dict:
        return {
            "kind": "prob_best",
            "arms": {
                e.arm: {"probability": e.probability, "error": e.error, "method": e.method}
                for e in self.entries
            },
            "total": self.total,
            "query": dict(self.query),
        }


def _require_posterior(model: FittedModel) -> None:
    if not model.posterior:
        raise ValueError(
            "ranking queries read the coefficient distribution as a posterior; "
            "fit with a prior, or opt in with as_flat_prior_posterior()"
        )


def prob_positive(model: FittedModel, data: Dataset, arm_to: str, arm_from: str,
                  predicate=None, tol: float = 5e-4, seed=None) -> ProbEstimate:
    """Posterior probability that the effect of ``arm_to`` over ``arm_from``
    is positive at the global (or ``predicate``-subset) covariate means.
    One-dimensional, so this is an exact normal CDF: ``seed`` is never
    read, and ``tol`` is only checked to be positive."""
    _require_posterior(model)
    profile = profile_from_subset(data, model.schema, predicate)
    row = delta_vector(model.schema, profile, arm_to, arm_from)
    res = mvn_orthant(*moments(model, row), tol=tol, seed=seed)
    return ProbEstimate(
        probability=res.probability, error=res.error, method=res.method,
        query=query_echo("prob_positive", arm_to, arm_from, predicate=predicate),
    )


def prob_best(model: FittedModel, data: Dataset, arms: Sequence[str] | None = None,
              predicate=None, tol: float = 5e-4, seed=None) -> RankingResult:
    """Posterior probability, for each arm, that it has the highest average
    outcome at the global (or ``predicate``-subset) covariate means.

    Each arm's probability is a separate orthant evaluation over its stacked
    delta rows against the other arms (rivals in sorted order, so results do
    not depend on input ordering). With two arms this reduces exactly to
    ``prob_positive``, and with three each orthant is bivariate, in closed
    form (``"closed_form_2d"``); neither reads ``tol`` or ``seed``. From
    four arms on each orthant runs QMC on the child of ``seed`` (a
    ``SeedSequence`` or its entropy) spawned for the arm's schema position.
    Raises for an arm label the schema lacks, a repeated label, or fewer
    than 2 arms.
    """
    _require_posterior(model)
    candidates = model.schema.all_arms
    if arms is not None:
        candidates = tuple(model.schema.require_arm(a) for a in arms)
        if len(set(candidates)) != len(candidates):
            raise ValueError("duplicate arm labels in ranking request")
        if len(candidates) < 2:
            raise ValueError("ranking needs at least 2 arms")
    profile = profile_from_subset(data, model.schema, predicate)
    # One child seed per schema position, so an arm's estimate does not
    # depend on the order the candidates were requested in. They are spawned
    # only for orthants that run QMC: mvn_orthant answers one and two
    # dimensions in closed form, so a ranking of three arms or fewer loads
    # no random number generator.
    children = None
    if len(candidates) > 3:
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        children = ss.spawn(len(model.schema.all_arms))
    entries = []
    for arm in candidates:
        child = children[model.schema.all_arms.index(arm)] if children else None
        rows = [delta_vector(model.schema, profile, arm, other)
                for other in sorted(a for a in candidates if a != arm)]
        res = mvn_orthant(*moments(model, np.vstack(rows)), tol=tol, seed=child)
        entries.append(ArmProbability(arm=arm, probability=res.probability,
                                      error=res.error, method=res.method))
    return RankingResult(entries=tuple(entries),
                         query=query_echo("prob_best", arms=list(candidates),
                                          predicate=predicate))

"""Relative (percentage) effects via a second-order delta-method expansion
of the ratio R/S, where R is the arm-to-arm delta and S is the baseline
outcome level under the comparison arm. The joint moments of R and S come
from one :func:`~effect_engine.vectors.moments` call on the stacked
``[delta; baseline]`` rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import Dataset
from .effects import normal_interval
from .model import FittedModel
from .vectors import (Record, baseline_vector, delta_vector, moments, profile_from_subset,
                      query_echo)

__all__ = ["RatioEstimate", "ratio_moments", "relative_effect"]


@dataclass(frozen=True)
class RatioEstimate(Record):
    """Delta-method estimate of a ratio of two jointly normal quantities.

    ``estimate`` carries the second-order mean correction; ``first_order``
    is the plain ratio of the two means, kept alongside because readers
    expect to see it even though the corrected value is the canonical one.
    """

    kind = "relative_effect"

    estimate: float
    first_order: float
    std_error: float
    ci_low: float
    ci_high: float
    ci_level: float
    components: Mapping[str, float]
    query: Mapping[str, object]


def ratio_moments(mean_num: float, mean_den: float, var_num: float, var_den: float,
                  cov: float) -> tuple[float, float]:
    """Second-order mean and variance of ``num / den`` given the joint first
    and second moments of the two arguments.

    The mean carries the usual curvature correction.  The variance is the
    standard first-order expression, but written so that the numerator's
    mean only ever multiplies covariance and denominator-variance terms:

        Var ~= Vr/Es^2 - 2 Er Crs/Es^3 + Er^2 Vs/Es^4

    The textbook factored form (Er/Es)^2 * (Vr/Er^2 + ...) is the same
    quantity but divides by Er, which blows up exactly at the null Er = 0
    where a relative effect is most often evaluated.  Do not "simplify"
    back to the factored form.
    """
    er, es = float(mean_num), float(mean_den)
    vr, vs, crs = float(var_num), float(var_den), float(cov)
    if es == 0.0:
        raise ZeroDivisionError("ratio moments undefined at zero denominator mean")
    mean = er / es - crs / es**2 + vs * er / es**3
    var = vr / es**2 - 2.0 * er * crs / es**3 + er**2 * vs / es**4
    return mean, var


def relative_effect(model: FittedModel, data: Dataset, arm_to: str, arm_from: str,
                    predicate=None, ci_level: float = 0.95,
                    guard: float = 5.0) -> RatioEstimate:
    """Relative effect of ``arm_to`` versus ``arm_from``: the arm delta
    divided by the expected outcome level under ``arm_from``, both at the
    global covariate means (or at the means of the ``predicate`` subset).

    The expansion is only trustworthy when the baseline level is far from
    zero on the scale of its own uncertainty; by default the estimate is
    refused unless |E(S)| exceeds ``guard`` baseline standard errors.  Pass
    a smaller ``guard`` only if you have an outside reason to trust the
    baseline's sign.
    """
    profile = profile_from_subset(data, model.schema, predicate)
    rows = np.vstack([delta_vector(model.schema, profile, arm_to, arm_from),
                      baseline_vector(model.schema, profile, arm_from)])
    mu, sigma = moments(model, rows)
    mean_num, mean_den = mu.tolist()
    (var_num, cov), (_, var_den) = sigma.tolist()

    if guard < 0:
        raise ValueError("guard must be non-negative")
    if abs(mean_den) <= guard * np.sqrt(var_den):
        raise ValueError("baseline too close to zero for delta-method ratio")

    mean, var = ratio_moments(mean_num, mean_den, var_num, var_den, cov)
    if var < 0.0:
        warnings.warn(
            "second-order ratio variance came out negative; clamping to zero",
            UserWarning, stacklevel=2,
        )
        var = 0.0
    se, low, high = normal_interval(mean, var, ci_level)
    components = {
        "delta_mean": mean_num,
        "delta_variance": var_num,
        "baseline_mean": mean_den,
        "baseline_variance": var_den,
        "covariance": cov,
    }
    return RatioEstimate(
        estimate=mean, first_order=mean_num / mean_den, std_error=se,
        ci_low=low, ci_high=high, ci_level=ci_level, components=components,
        query=query_echo("relative_effect", arm_to, arm_from, predicate=predicate),
    )

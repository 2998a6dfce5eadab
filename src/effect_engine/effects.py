"""Absolute treatment effects: average, conditional, heterogeneous, and
per-period estimates with standard errors and confidence intervals.

Every query is one delta row (or a contrast of two) passed to
:func:`~effect_engine.vectors.moments` with the same fitted model; only the
covariate profile changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import PERIOD_COVARIATE, Dataset
from .model import FittedModel
from .normal import ndtri
from .predicates import describe_predicate, resolve_mask
from .vectors import Record, delta_vector, moments, profile_from_subset, query_echo

__all__ = ["EffectEstimate", "ate", "cate", "hte", "dte", "period_mask"]


@dataclass(frozen=True)
class EffectEstimate(Record):
    """Point estimate with normal-quantile confidence interval."""

    kind = "effect"

    estimate: float
    std_error: float
    ci_low: float
    ci_high: float
    ci_level: float
    query: Mapping[str, object]


def normal_interval(value: float, variance: float,
                    ci_level: float) -> tuple[float, float, float]:
    """Standard error and the normal-quantile interval ``(se, low, high)``."""
    if not 0.0 < ci_level < 1.0:
        raise ValueError("ci_level must be strictly between 0 and 1")
    se = float(np.sqrt(variance))
    z = float(ndtri(0.5 + ci_level / 2.0))
    return se, value - z * se, value + z * se


def _estimate(model: FittedModel, row: np.ndarray, ci_level: float,
              query: dict) -> EffectEstimate:
    value, variance = moments(model, row)
    se, low, high = normal_interval(value, variance, ci_level)
    return EffectEstimate(estimate=value, std_error=se, ci_low=low, ci_high=high,
                          ci_level=ci_level, query=query)


def ate(model: FittedModel, data: Dataset, arm_to: str, arm_from: str,
        ci_level: float = 0.95) -> EffectEstimate:
    """Average treatment effect of ``arm_to`` relative to ``arm_from`` at
    the global covariate means."""
    profile = profile_from_subset(data, model.schema)
    row = delta_vector(model.schema, profile, arm_to, arm_from)
    return _estimate(model, row, ci_level, query_echo("ate", arm_to, arm_from))


def cate(model: FittedModel, data: Dataset, arm_to: str, arm_from: str, predicate,
         ci_level: float = 0.95) -> EffectEstimate:
    """Treatment effect conditional on the predicate's subset: the delta
    row is evaluated at that subset's covariate means."""
    profile = profile_from_subset(data, model.schema, predicate)
    row = delta_vector(model.schema, profile, arm_to, arm_from)
    return _estimate(model, row, ci_level,
                     query_echo("cate", arm_to, arm_from, predicate=predicate))


def hte(model: FittedModel, data: Dataset, arm_to: str, arm_from: str, predicate,
        ci_level: float = 0.95) -> EffectEstimate:
    """Heterogeneity contrast: the conditional effect on the predicate's
    subset minus the conditional effect on its complement.

    The variance is the quadratic form on the full contrast row, which
    accounts for the covariance between the two conditional effects; it is
    not a difference of the two standalone standard errors.
    """
    mask = resolve_mask(data, predicate)
    if mask.all():
        raise ValueError(f"hte predicate {describe_predicate(predicate)!r} selects every row, "
                         "so its complement is empty")
    profile_in = profile_from_subset(data, model.schema, mask)
    profile_out = profile_from_subset(data, model.schema, ~mask)
    contrast = (delta_vector(model.schema, profile_in, arm_to, arm_from)
                - delta_vector(model.schema, profile_out, arm_to, arm_from))
    return _estimate(model, contrast, ci_level,
                     query_echo("hte", arm_to, arm_from, predicate=predicate))


def dte(model: FittedModel, data: Dataset, arm_to: str, arm_from: str, period: int,
        ci_level: float = 0.95) -> EffectEstimate:
    """Treatment effect within one time period.

    Repeated measures correlate within a unit, so the model must have been
    fitted with cluster-robust covariance; anything else silently
    understates the standard error and is refused. The period column must
    also have been encoded as the categorical covariate ``PERIOD_COVARIATE``
    (see ``add_period_covariate``) unless the data has a single period, in
    which case the time axis is degenerate and the estimate equals the
    average effect.
    """
    if model.covariance_kind != "cluster":
        raise ValueError("time-dynamic effects require cluster-robust covariance")
    mask = period_mask(data, period)
    # rows outside the period mean the data has more than one
    if not mask.all() and all(name != PERIOD_COVARIATE for name, _ in model.schema.covariates):
        raise ValueError(
            f"model schema lacks the {PERIOD_COVARIATE!r} covariate; encode the "
            "period column as a categorical covariate before fitting"
        )
    profile = profile_from_subset(data, model.schema, mask)
    row = delta_vector(model.schema, profile, arm_to, arm_from)
    return _estimate(model, row, ci_level, query_echo("dte", arm_to, arm_from, period=int(period)))


def period_mask(data: Dataset, period: int) -> np.ndarray:
    """Rows of ``data`` in ``period``; raises for data without a period
    column or a period the data lacks."""
    if data.period is None:
        raise ValueError("dataset has no period column")
    mask = data.period == int(period)
    if mask.any():
        return mask
    raise ValueError(f"unknown period {int(period)}; data has periods "
                     f"{np.unique(data.period).tolist()}")

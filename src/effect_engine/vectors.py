"""Baseline and delta vectors: the two primitives every query reduces to.

A baseline vector, multiplied against the fitted coefficients, yields the
model-implied average outcome under one arm at a covariate profile. A delta
vector is the difference of two baseline vectors and yields a treatment
effect. Variances are plain quadratic forms against the coefficient
covariance, so arbitrary interaction structure needs no manual bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .model import ColumnSchema, FittedModel, covariate_matrix
from .predicates import resolve_mask

__all__ = [
    "CovariateProfile",
    "EffectVector",
    "profile_from_subset",
    "baseline_vector",
    "delta_vector",
    "apply",
]

# Quadratic forms can round slightly negative; anything worse is a real bug.
_VARIANCE_CLAMP = -1e-12


@dataclass(frozen=True, eq=False)
class CovariateProfile:
    """Values for the expanded covariate block, one per covariate column.

    Indicator columns of a categorical covariate carry level frequencies
    when the profile comes from subset means, which is what makes
    conditioning on categorical levels well-defined. Equality is identity.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("profile must be one-dimensional")
        if not np.all(np.isfinite(values)):
            raise ValueError("profile values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class EffectVector:
    """Row vector aligned to a column schema.

    ``kind`` is ``"baseline"`` (average outcome under ``arm_to``) or
    ``"delta"`` (effect of ``arm_to`` relative to ``arm_from``).
    Equality is identity.
    """

    entries: np.ndarray
    kind: str
    arm_to: str
    arm_from: str | None
    profile: CovariateProfile

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if self.kind not in ("baseline", "delta"):
            raise ValueError(f"unknown effect-vector kind {self.kind!r}")


def _check_profile(schema: ColumnSchema, profile: CovariateProfile) -> CovariateProfile:
    q = len(schema.covariate_indices)
    if len(profile) != q:
        raise ValueError(
            f"profile has {len(profile)} values but the schema's covariate "
            f"block has {q} columns"
        )
    return profile


def profile_from_subset(data: Dataset, schema: ColumnSchema, predicate=None,
                        complement: bool = False) -> CovariateProfile:
    """Column means of the expanded covariate block over the selected rows.

    With no predicate this returns the global covariate means. With
    ``complement=True`` the means are taken over the rows the predicate
    rejects.
    """
    mask = resolve_mask(data, predicate)
    if complement:
        mask = ~mask
    if not mask.any():
        raise ValueError("empty conditioning subset")
    return CovariateProfile(covariate_matrix(data, schema, rows=mask).mean(axis=0))


def baseline_vector(schema: ColumnSchema, profile: CovariateProfile, arm: str) -> EffectVector:
    """Vector whose product with the coefficients is the average outcome
    under ``arm`` at ``profile``. The reference arm is allowed; its arm
    block is all zeros."""
    arm = schema.require_arm(arm)
    profile = _check_profile(schema, profile)
    entries = np.zeros(schema.p)
    entries[0] = 1.0
    cov_idx = schema.covariate_indices
    if cov_idx:
        entries[list(cov_idx)] = profile.values
    onehot = schema.arm_onehot(arm)
    arm_idx = schema.arm_indices
    if arm_idx:
        entries[list(arm_idx)] = onehot
    inter_idx = schema.interaction_indices
    if inter_idx:
        entries[list(inter_idx)] = np.outer(profile.values, onehot).ravel()
    return EffectVector(entries=entries, kind="baseline", arm_to=arm, arm_from=None,
                        profile=profile)


def delta_vector(schema: ColumnSchema, profile: CovariateProfile, arm_to: str,
                 arm_from: str) -> EffectVector:
    """Difference of two baseline vectors, computed in closed form: zero
    intercept and covariate blocks, indicator difference in the arm block,
    profile times that difference in the interaction block."""
    arm_to = schema.require_arm(arm_to)
    arm_from = schema.require_arm(arm_from)
    if arm_to == arm_from:
        raise ValueError(f"delta vector needs two distinct arms, got {arm_to!r} twice")
    profile = _check_profile(schema, profile)
    entries = np.zeros(schema.p)
    diff = schema.arm_onehot(arm_to) - schema.arm_onehot(arm_from)
    arm_idx = schema.arm_indices
    if arm_idx:
        entries[list(arm_idx)] = diff
    inter_idx = schema.interaction_indices
    if inter_idx:
        entries[list(inter_idx)] = np.outer(profile.values, diff).ravel()
    return EffectVector(entries=entries, kind="delta", arm_to=arm_to, arm_from=arm_from,
                        profile=profile)


def apply(vec, model: FittedModel) -> tuple[float, float]:
    """Evaluate an effect vector against a fitted model.

    Returns ``(value, variance)`` where value is the vector times the
    coefficients and variance the quadratic form against the coefficient
    covariance. Tiny negative variances from rounding clamp to zero.
    """
    entries = vec.entries if isinstance(vec, EffectVector) else np.asarray(vec, dtype=np.float64)
    if entries.shape != (model.p,):
        raise ValueError(
            f"effect vector has length {entries.shape}, model expects {model.p}"
        )
    value = float(entries @ model.beta)
    variance = float(entries @ model.cov_beta @ entries)
    if variance < 0.0:
        if variance < _VARIANCE_CLAMP:
            raise ValueError(f"variance quadratic form is negative: {variance}")
        variance = 0.0
    return value, variance

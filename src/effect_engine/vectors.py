"""Baseline and delta rows, and the one primitive every query reduces to.

A baseline row, multiplied against the fitted coefficients, yields the
model-implied average outcome under one arm at a covariate profile. A delta
row is the difference of two baseline rows and yields a treatment effect.
Every query stacks such rows into a matrix L and reads the mean ``L @ beta``
and covariance ``L @ cov_beta @ L.T`` from :func:`moments`, so arbitrary
interaction structure needs no manual bookkeeping.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from .data import Dataset
# Not called here: perfbench's tracer patches covariate_matrix under this
# module's name, and a test checks that every name it patches exists.
from .model import ColumnSchema, FittedModel, covariate_matrix  # noqa: F401
from .predicates import describe_predicate, resolve_mask

__all__ = [
    "CovariateProfile",
    "profile_from_subset",
    "baseline_vector",
    "delta_vector",
    "moments",
    "query_echo",
    "Record",
]

# Quadratic forms can round slightly negative; anything worse is a real bug.
_VARIANCE_CLAMP = -1e-12


@dataclass(frozen=True, eq=False)
class CovariateProfile:
    """Values for the expanded covariate block, one per covariate column.

    From :func:`profile_from_subset`, a numeric column carries its mean and
    an indicator column of a categorical covariate its level's frequency,
    which is what makes conditioning on categorical levels well-defined.
    Equality is identity.
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


def profile_from_subset(data: Dataset, schema: ColumnSchema,
                        predicate=None) -> CovariateProfile:
    """Column means of the expanded covariate block over the rows the
    predicate selects, or over every row when it is None.

    They are read from the k raw columns in O(n·k), and no expanded block
    is built: each numeric column's mean, summed pairwise, and from one
    ``bincount`` of each categorical's cached codes its level frequencies.
    """
    # An index array gathers each column several times faster than the mask.
    rows = slice(None) if predicate is None else np.flatnonzero(resolve_mask(data, predicate))
    count = data.n if predicate is None else rows.size
    if not count:
        raise ValueError("empty conditioning subset")
    values, frequencies = np.empty(len(schema.covariates)), {}
    for k, (name, level) in enumerate(schema.covariates):
        if level is None:
            values[k] = data.covariates[name][rows].mean()
            continue
        levels, codes = data.categorical_codes(name)
        if name not in frequencies:
            frequencies[name] = np.bincount(codes[rows], minlength=len(levels)) / count
        values[k] = frequencies[name][levels.index(level)]
    return CovariateProfile(values)


def baseline_vector(schema: ColumnSchema, profile: CovariateProfile, arm: str) -> np.ndarray:
    """Read-only (p,) row whose product with the coefficients is the average
    outcome under ``arm`` at ``profile``: the design row that
    :meth:`ColumnSchema.fill` writes for those covariate values and that
    arm. The reference arm is allowed; its arm block is all zeros."""
    onehot = schema.arm_onehot(arm)
    if len(profile) != len(schema.covariates):
        raise ValueError(f"profile has {len(profile)} values but the schema's covariate "
                         f"block has {len(schema.covariates)} columns")
    entries = schema.fill(np.empty(schema.p), profile.values, onehot)
    entries.setflags(write=False)
    return entries


def delta_vector(schema: ColumnSchema, profile: CovariateProfile, arm_to: str,
                 arm_from: str) -> np.ndarray:
    """Read-only (p,) row: the baseline row of ``arm_to`` minus that of
    ``arm_from`` at the same profile. Raises for a label the schema lacks or
    for the same arm twice."""
    arm_to, arm_from = schema.require_arm(arm_to), schema.require_arm(arm_from)
    if arm_to == arm_from:
        raise ValueError(f"delta vector needs two distinct arms, got {arm_to!r} twice")
    entries = (baseline_vector(schema, profile, arm_to)
               - baseline_vector(schema, profile, arm_from))
    entries.setflags(write=False)
    return entries


def moments(model: FittedModel, rows):
    """Mean and covariance of linear functionals of the coefficients.

    ``rows`` is one (p,) row, giving the floats ``(row @ beta, row @ cov_beta
    @ row)``, or a (k, p) stack L, giving the (k,) array ``L @ beta`` and the
    symmetrised (k, k) array ``L @ cov_beta @ L.T``. Variances that round
    slightly negative clamp to zero; anything below -1e-12 raises.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim not in (1, 2) or rows.shape[-1] != model.p:
        raise ValueError(f"rows have shape {rows.shape}, model expects {model.p} columns")
    mean = rows @ model.beta
    cov = rows @ model.cov_beta @ rows.T
    cov = np.atleast_2d((cov + cov.T) / 2.0)
    variances = cov.diagonal()
    if np.any(variances < _VARIANCE_CLAMP):
        raise ValueError(f"variance quadratic form is negative: {variances.min()}")
    np.fill_diagonal(cov, np.where(variances < 0.0, 0.0, variances))
    if rows.ndim == 1:
        return float(mean), float(cov[0, 0])
    return mean, cov


def query_echo(kind: str, arm_to=None, arm_from=None, predicate=None, **fields) -> dict:
    """The ``query`` block a result echoes: its type, its arm labels as
    strings, any further ``fields``, and the predicate when one is given."""
    query = {"type": kind}
    if arm_to is not None:
        query.update(arm_to=str(arm_to), arm_from=str(arm_from))
    query.update(fields)
    if predicate is not None:
        query["predicate"] = describe_predicate(predicate)
    return query


class Record:
    """A query result; its report entry is its ``kind`` and its fields."""

    kind: ClassVar[str]

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}

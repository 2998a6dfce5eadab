"""Experiment dataset container and CSV ingestion.

A :class:`Dataset` holds one experiment's rows in columnar form: an outcome
value, a treatment-arm label, zero or more covariates (numeric or
categorical), and optional unit and period columns for repeated-measures
designs. Arm labels and categorical levels are always strings so that runs
are reproducible regardless of how the input was typed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["Dataset", "load_csv", "add_period_covariate", "factorize"]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def factorize(labels: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Distinct labels in ``sorted(set(labels))`` order, and each label's
    index into them, in one pass over the labels."""
    levels = sorted(set(labels))
    lookup = {level: i for i, level in enumerate(levels)}
    codes = np.fromiter(map(lookup.__getitem__, labels), dtype=np.intp, count=len(labels))
    return tuple(levels), codes


def _as_covariate_array(name: str, values: Sequence) -> np.ndarray:
    """Coerce one covariate column: all-numeric values stay numeric,
    anything else becomes categorical string levels."""
    numeric = all(
        isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
        for v in values
    )
    if numeric:
        out = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(out)):
            raise ValueError(f"covariate {name!r} contains non-finite values")
        return out
    return np.asarray([str(v) for v in values], dtype=object)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Columnar experiment data.

    Attributes
    ----------
    outcome : (n,) float array
    arm : (n,) object array of string arm labels
    covariates : mapping of name -> (n,) array; float64 columns are numeric,
        object columns hold categorical string levels
    unit_id : optional (n,) object array of string unit identifiers
    period : optional (n,) int array of ordinal time indices

    Categorical encodings (see :meth:`categorical_codes`) are computed on
    first use and cached per dataset; copies start with an empty cache.
    Equality is identity.
    """

    outcome: np.ndarray
    arm: np.ndarray
    covariates: Mapping[str, np.ndarray] = field(default_factory=dict)
    unit_id: np.ndarray | None = None
    period: np.ndarray | None = None
    _codes: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        outcome = _freeze(np.asarray(self.outcome, dtype=np.float64))
        arm = _freeze(np.asarray([str(a) for a in self.arm], dtype=object))
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "arm", arm)
        n = outcome.shape[0]
        if outcome.ndim != 1:
            raise ValueError("outcome must be one-dimensional")
        if arm.shape != (n,):
            raise ValueError("arm column length does not match outcome")
        if not np.all(np.isfinite(outcome)):
            bad = int(np.flatnonzero(~np.isfinite(outcome))[0])
            raise ValueError(f"outcome is not finite at row {bad}")
        if len(set(arm.tolist())) < 2:
            raise ValueError("need at least 2 distinct arm labels")
        covs = {}
        for name, values in self.covariates.items():
            col = np.asarray(values)
            if col.dtype.kind in "if":
                col = np.asarray(col, dtype=np.float64)
                if not np.all(np.isfinite(col)):
                    raise ValueError(f"covariate {name!r} contains non-finite values")
            else:
                col = np.asarray([str(v) for v in col.tolist()], dtype=object)
            if col.shape != (n,):
                raise ValueError(f"covariate {name!r} length does not match outcome")
            covs[name] = _freeze(col)
        object.__setattr__(self, "covariates", covs)
        if self.unit_id is not None:
            uid = _freeze(np.asarray([str(u) for u in self.unit_id], dtype=object))
            if uid.shape != (n,):
                raise ValueError("unit_id length does not match outcome")
            object.__setattr__(self, "unit_id", uid)
        if self.period is not None:
            per = _freeze(np.asarray(self.period, dtype=np.int64))
            if per.shape != (n,):
                raise ValueError("period length does not match outcome")
            object.__setattr__(self, "period", per)

    @property
    def n(self) -> int:
        return self.outcome.shape[0]

    @property
    def arms(self) -> tuple[str, ...]:
        """Distinct arm labels in sorted order."""
        return tuple(sorted(set(self.arm.tolist())))

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return tuple(self.covariates)

    def is_numeric(self, name: str) -> bool:
        return self.covariates[name].dtype.kind == "f"

    def arm_mask(self, arm: str) -> np.ndarray:
        return self.arm == str(arm)

    def categorical_codes(self, name: str) -> tuple[tuple[str, ...], np.ndarray]:
        """Sorted distinct string levels of covariate ``name`` and each
        row's index into them. Numeric columns are read as the strings of
        their values. Computed once per dataset and cached."""
        cached = self._codes.get(name)
        if cached is None:
            labels = self.covariates[name].tolist()
            if self.is_numeric(name):
                labels = [str(v) for v in labels]
            levels, codes = factorize(labels)
            # setdefault: concurrent first calls all return the one stored entry
            cached = self._codes.setdefault(name, (levels, _freeze(codes)))
        return cached

    @classmethod
    def from_records(cls, records: Iterable[Mapping]) -> "Dataset":
        """Build a dataset from per-row mappings.

        Each record needs ``outcome`` and ``arm`` keys, an optional
        ``covariates`` sub-mapping, and optional ``unit_id`` / ``period``
        keys. Every record must carry the same covariate-name set.
        """
        rows = list(records)
        if not rows:
            raise ValueError("no records")
        names = list(rows[0].get("covariates", {}) or {})
        name_set = set(names)
        per_cov: dict[str, list] = {name: [] for name in names}
        outcome, arm, unit_id, period = [], [], [], []
        for i, row in enumerate(rows):
            covs = row.get("covariates", {}) or {}
            if set(covs) != name_set:
                raise ValueError(f"row {i} covariate names differ from row 0")
            outcome.append(row["outcome"])
            arm.append(row["arm"])
            unit_id.append(row.get("unit_id"))
            period.append(row.get("period"))
            for name in names:
                per_cov[name].append(covs[name])
        has_unit = any(u is not None for u in unit_id)
        has_period = any(p is not None for p in period)
        if has_unit and any(u is None for u in unit_id):
            raise ValueError("unit_id present in some rows but not all")
        if has_period and any(p is None for p in period):
            raise ValueError("period present in some rows but not all")
        return cls(
            outcome=np.asarray(outcome, dtype=np.float64),
            arm=np.asarray(arm, dtype=object),
            covariates={n: _as_covariate_array(n, v) for n, v in per_cov.items()},
            unit_id=np.asarray(unit_id, dtype=object) if has_unit else None,
            period=np.asarray(period, dtype=np.int64) if has_period else None,
        )


def _parse_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def load_csv(path, column_map: Mapping[str, object]) -> Dataset:
    """Load experiment data from an RFC 4180 CSV file with a header row.

    ``column_map`` names the special columns: ``outcome`` and ``arm`` are
    required; ``covariates`` is an optional list of column names (default:
    every remaining column); ``unit_id`` and ``period`` are optional.
    Columns whose cells all parse as numbers become numeric covariates,
    anything else becomes categorical.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"empty CSV file: {path}") from None
        rows = [row for row in reader if row]

    if not rows:
        raise ValueError(f"CSV file has a header but no data rows: {path}")
    positions: dict[str, list[int]] = {}
    for i, name in enumerate(header):
        positions.setdefault(name, []).append(i)
    for name, cols in positions.items():
        if len(cols) > 1:
            raise ValueError(f"duplicate CSV header {name!r} at columns {cols}")
    index = {name: cols[0] for name, cols in positions.items()}

    def col_idx(role: str, name: str) -> int:
        if name not in index:
            raise ValueError(f"{role} column {name!r} not found in CSV header {header}")
        return index[name]

    outcome_name = column_map["outcome"]
    arm_name = column_map["arm"]
    unit_name = column_map.get("unit_id")
    period_name = column_map.get("period")
    reserved = {outcome_name, arm_name, unit_name, period_name}
    cov_names = column_map.get("covariates")
    if cov_names is None:
        cov_names = [c for c in header if c not in reserved]

    y_i = col_idx("outcome", outcome_name)
    arm_i = col_idx("arm", arm_name)
    width = len(header)
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {r} has {len(row)} cells, expected {width}")

    outcome = np.empty(len(rows), dtype=np.float64)
    for r, row in enumerate(rows):
        val = _parse_float(row[y_i])
        if val is None or not np.isfinite(val):
            raise ValueError(
                f"unparseable outcome cell at row {r}, column {outcome_name!r}: {row[y_i]!r}"
            )
        outcome[r] = val
    arm = np.asarray([row[arm_i] for row in rows], dtype=object)

    covariates: dict[str, np.ndarray] = {}
    for name in cov_names:
        i = col_idx("covariate", name)
        cells = [row[i] for row in rows]
        parsed = [_parse_float(c) for c in cells]
        if all(p is not None for p in parsed):
            covariates[name] = np.asarray(parsed, dtype=np.float64)
        else:
            covariates[name] = np.asarray(cells, dtype=object)

    unit_id = None
    if unit_name is not None:
        i = col_idx("unit_id", unit_name)
        unit_id = np.asarray([row[i] for row in rows], dtype=object)
    period = None
    if period_name is not None:
        i = col_idx("period", period_name)
        period = np.empty(len(rows), dtype=np.int64)
        for r, row in enumerate(rows):
            cell = row[i]
            try:
                period[r] = int(cell)
            except ValueError:
                raise ValueError(
                    f"unparseable period cell at row {r}, column {period_name!r}: {cell!r}"
                ) from None

    return Dataset(outcome=outcome, arm=arm, covariates=covariates,
                   unit_id=unit_id, period=period)


def add_period_covariate(data: Dataset, name: str = "period") -> Dataset:
    """Return a copy of ``data`` with the period column added as a
    categorical covariate, so per-period effects can be expressed through
    period-by-arm interactions.

    With fewer than two distinct periods the time axis is degenerate and the
    data is returned unchanged (a single-level categorical cannot be encoded).
    """
    if data.period is None:
        raise ValueError("dataset has no period column")
    if name in data.covariates:
        raise ValueError(f"covariate {name!r} already exists")
    if len(np.unique(data.period)) < 2:
        return data
    covs = dict(data.covariates)
    covs[name] = np.asarray([str(p) for p in data.period.tolist()], dtype=object)
    return Dataset(outcome=data.outcome, arm=data.arm, covariates=covs,
                   unit_id=data.unit_id, period=data.period)

"""Experiment dataset container and CSV ingestion.

A :class:`Dataset` holds one experiment's rows in columnar form: an outcome
value, a treatment-arm label, zero or more covariates (numeric or
categorical), and optional unit and period columns for repeated-measures
designs. Arm labels and categorical levels are always strings so that runs
are reproducible regardless of how the input was typed, and each label
column holds one shared ``str`` object per distinct label.
"""

from __future__ import annotations

import copy
import csv
import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = ["Dataset", "load_csv", "add_period_covariate", "check_column_roles", "factorize",
           "PERIOD_COVARIATE"]

# The name of the categorical covariate add_period_covariate adds, which
# effects.dte looks for in the model's schema.
PERIOD_COVARIATE = "period"

# Data rows that load_csv reads, converts and drops at a time. 1,024 to
# 4,096 read a 200k-row file equally fast; 1,024 gave the lowest peak RSS
# on every benchmark workload, as larger chunks fragment the heap.
CHUNK_ROWS = 1024


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _labels(values, role: str) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """Frozen object array of ``str(v)`` for each ``v`` in ``values``, with
    its sorted distinct levels and each row's index into them, from one
    :func:`factorize`. The array is gathered from the levels, so it holds one
    shared ``str`` per distinct label however many rows carry it, and the
    input's own per-row objects can be freed. This is the one place a label
    column is factorized, so it is also where two levels that differ only in
    whitespace (``t1`` and `` t1``) are rejected; ``role`` names the column
    in that error."""
    levels, codes = factorize(values)
    seen: dict[str, int] = {}
    for i, level in enumerate(levels):
        j = seen.setdefault("".join(level.split()), i)
        if j != i:
            rows = [int(np.argmax(codes == k)) for k in (j, i)]
            raise ValueError(f"{role} labels {levels[j]!r} (row {rows[0]}) and {level!r} "
                             f"(row {rows[1]}) differ only in whitespace")
    return _freeze(np.asarray(levels, dtype=object)[codes]), levels, _freeze(codes)


def factorize(labels: Sequence) -> tuple[tuple[str, ...], np.ndarray]:
    """Distinct labels in ``sorted(set(labels))`` order, and each label's
    index into them, as unsigned ints as narrow as the number of levels
    allows (``np.min_scalar_type(len(levels))``). Labels are read as
    ``str(label)``; that pass over the labels is skipped when every distinct
    label already is a ``str``."""
    try:
        distinct = set(labels)
        plain = all(type(v) is str for v in distinct)
    except TypeError:  # unhashable labels, such as lists
        plain = False
    if not plain:
        labels = list(map(str, labels))
        distinct = set(labels)
    levels = sorted(distinct)
    lookup = {level: i for i, level in enumerate(levels)}
    codes = np.fromiter(map(lookup.__getitem__, labels), dtype=np.min_scalar_type(len(levels)),
                        count=len(labels))
    return tuple(levels), codes


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
    period : optional (n,) int array of ordinal time indices; float input
        must hold whole numbers
    arms : distinct arm labels in sorted order (derived, not an argument)
    arm_codes : (n,) unsigned int array, each row's index into ``arms``
        (derived; an attribute, not a dataclass field)

    Every label column (``arm``, ``unit_id`` and the object covariates) is
    factorized once, here, and holds one shared ``str`` object per distinct
    label, so a column costs a pointer per row plus its levels. Categorical
    encodings (see :meth:`categorical_codes`) are cached per dataset: those
    of object covariates come from that construction, numeric ones are
    computed on first use. Every code array, ``arm_codes`` and each cached
    encoding, comes from :func:`factorize`, so it is unsigned and as narrow
    as its number of levels allows. :func:`add_period_covariate` shares the
    arrays and cached encodings of the dataset it extends. Equality is
    identity.
    """

    outcome: np.ndarray
    arm: np.ndarray
    covariates: Mapping[str, np.ndarray] = field(default_factory=dict)
    unit_id: np.ndarray | None = None
    period: np.ndarray | None = None
    arms: tuple[str, ...] = field(default=(), init=False, repr=False)
    _codes: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        outcome = _freeze(np.asarray(self.outcome, dtype=np.float64))
        if outcome.ndim != 1:
            raise ValueError("outcome must be one-dimensional")
        arm, arm_levels, arm_codes = _labels(self.arm, "arm")
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "arm", arm)
        object.__setattr__(self, "arms", arm_levels)
        object.__setattr__(self, "arm_codes", arm_codes)
        n = outcome.shape[0]
        if arm.shape != (n,):
            raise ValueError("arm column length does not match outcome")
        if not np.all(np.isfinite(outcome)):
            bad = int(np.flatnonzero(~np.isfinite(outcome))[0])
            raise ValueError(f"outcome is not finite at row {bad}")
        if len(arm_levels) < 2:
            found = ", ".join(map(repr, arm_levels)) or "none"
            raise ValueError(f"need at least 2 distinct arm labels, found {found}")
        covs = {}
        for name, values in self.covariates.items():
            col = np.asarray(values)
            if col.dtype.kind in "if":
                col = np.asarray(col, dtype=np.float64)
                if not np.all(np.isfinite(col)):
                    bad = int(np.flatnonzero(~np.isfinite(col))[0])
                    raise ValueError(f"covariate {name!r} has a non-finite value at row "
                                     f"{bad}: {float(col[bad])!r}")
            else:
                col, levels, codes = _labels(
                    col if col.dtype == object and col.ndim == 1 else col.tolist(),
                    f"covariate {name!r}")
                self._codes[name] = (levels, codes)
            if col.shape != (n,):
                raise ValueError(f"covariate {name!r} length does not match outcome")
            covs[name] = _freeze(col)
        object.__setattr__(self, "covariates", covs)
        if self.unit_id is not None:
            uid = _labels(self.unit_id, "unit_id")[0]
            if uid.shape != (n,):
                raise ValueError("unit_id length does not match outcome")
            object.__setattr__(self, "unit_id", uid)
        if self.period is not None:
            per = np.asarray(self.period)
            if per.dtype.kind == "f":
                # A cast to int64 truncates 1.5, and wraps NaN, inf and 1e30 in a
                # float array.
                whole = (per == np.trunc(per)) & (np.abs(per) < 2.0**63)
                if not whole.all():
                    bad = int(np.flatnonzero(~whole)[0])
                    raise ValueError(f"period must hold whole numbers; row {bad} has "
                                     f"{float(per[bad])!r}")
            per = _freeze(np.asarray(per, dtype=np.int64))
            if per.shape != (n,):
                raise ValueError("period length does not match outcome")
            object.__setattr__(self, "period", per)

    @property
    def n(self) -> int:
        return self.outcome.shape[0]

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return tuple(self.covariates)

    def is_numeric(self, name: str) -> bool:
        return self.covariates[name].dtype.kind == "f"

    def categorical_codes(self, name: str) -> tuple[tuple[str, ...], np.ndarray]:
        """Sorted distinct string levels of covariate ``name`` and each
        row's index into them. Numeric columns are read as the strings of
        their values. Computed once per dataset and cached."""
        cached = self._codes.get(name)
        if cached is None:
            levels, codes = factorize(self.covariates[name].tolist())
            cached = self._codes[name] = (levels, _freeze(codes))
        return cached


def _finite_float(cell: str) -> float:
    val = float(cell)
    if not math.isfinite(val):
        raise ValueError(f"non-finite value {cell!r}")
    return val


def _cell_error(role: str, name: str, cells: Sequence[str], convert, start: int) -> ValueError:
    """The error naming the first cell of column ``name`` that ``convert``
    rejects, ``cells`` being that column's cells from data row ``start`` on.
    Only called once a conversion of those cells has failed."""
    for r, cell in enumerate(cells, start):
        try:
            convert(cell)
        except (ValueError, OverflowError):
            return ValueError(f"unparseable {role} cell at row {r}, column {name!r}: {cell!r}")
    raise RuntimeError(f"{role} column {name!r} failed to convert but no cell is bad")


def check_column_roles(column_map: Mapping[str, object]) -> None:
    """Raise ``ValueError`` if a column is named in more than one of outcome,
    arm, unit_id, period and covariates, or is listed twice as a covariate."""
    roles: dict[str, list[str]] = {}
    for key in ("outcome", "arm", "unit_id", "period"):
        if column_map.get(key) is not None:
            roles.setdefault(column_map[key], []).append(key)
    for i, name in enumerate(column_map.get("covariates") or ()):
        roles.setdefault(name, []).append(f"covariates[{i}]")
    for name, named in roles.items():
        if len(named) > 1:
            raise ValueError(f"column {name!r} is named as {' and '.join(named)}; "
                             "each column may have one role")


def _not_utf8(path) -> ValueError:
    """The error naming the line and byte offset of the first byte of
    ``path`` that is not UTF-8. A decoder's own position counts from the
    start of its buffer, so the file is scanned again in binary, a line at a
    time (no UTF-8 sequence spans a newline byte)."""
    offset = 0
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ValueError(f"{path} is not UTF-8: byte {line[exc.start]:#04x} at line "
                                  f"{line_no}, byte offset {offset + exc.start} ({exc.reason})")
            offset += len(line)
    return ValueError(f"{path} is not UTF-8")


def _row_chunks(fh, path) -> Iterator[list[list[str]]]:
    """The rows of the CSV text ``fh`` in lists: the header row alone, then
    the non-blank data rows, up to :data:`CHUNK_ROWS` at a time. Quoting is
    strict, so a quote left open cannot swallow the rest of the file: a
    malformed record raises ``ValueError`` naming the data row where it
    starts, as a byte that is not UTF-8 does naming its line and offset."""
    reader = csv.reader(fh, strict=True)
    rows = filter(None, reader)
    start, chunk = -1, []
    try:
        chunk.extend(islice(reader, 1))
        while chunk:
            yield chunk
            start += len(chunk)
            chunk = []
            # extend keeps the rows read before a malformed one: they number it.
            chunk.extend(islice(rows, CHUNK_ROWS))
    except csv.Error as exc:
        where = f"at data row {start + len(chunk)}" if start >= 0 else "in the header"
        raise ValueError(f"malformed CSV record {where} of {path}: {exc}") from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector. The row lists of a chunk are
    short-lived and acyclic; collecting while they are made only traverses
    the heap again and again."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _add_labels(labels: dict[int, tuple[dict, list]], columns: Sequence[Sequence[str]]) -> None:
    """Append each labelled column's cells to its list, each through the
    column's dict, so every distinct label is one shared ``str``."""
    for i, (seen, out) in labels.items():
        out.extend(map(seen.setdefault, columns[i], columns[i]))


# The ranks of the errors load_csv holds while it reads on, in the order its
# docstring lists them; the lowest wins.
_DUPLICATE, _MISSING_ROLE, _RAGGED, _BAD_OUTCOME, _MISSING_COLUMN, _BAD_PERIOD, _NONE = range(7)


def load_csv(path, column_map: Mapping[str, object]) -> Dataset:
    """Load experiment data from an RFC 4180 CSV file with a header row.

    ``column_map`` names the special columns: ``outcome`` and ``arm`` are
    required; ``covariates`` is an optional list of column names (default:
    every remaining column); ``unit_id`` and ``period`` are optional. Each
    column may have one role (see :func:`check_column_roles`).
    Columns whose cells all parse as numbers become numeric covariates,
    anything else becomes categorical. A leading UTF-8 byte-order mark is
    ignored and blank lines are skipped; rows in error messages are counted
    from 0 among the data rows.

    The rows are read, converted and dropped :data:`CHUNK_ROWS` at a time,
    so no list of every row and no per-row cell string outlives its chunk.
    Errors win in the order of a loader that reads the whole file first: a
    malformed record or a byte that is not UTF-8; no data rows; a duplicate
    header; a missing outcome or arm column; the first ragged row; the first
    bad outcome cell; a missing covariate, unit or period column; the first
    bad period cell.
    """
    for role in ("outcome", "arm"):
        if column_map.get(role) is None:
            raise ValueError(f"column_map names no {role} column; outcome and arm are required")
    check_column_roles(column_map)
    outcome_name = column_map["outcome"]
    arm_name = column_map["arm"]
    unit_name = column_map.get("unit_id")
    period_name = column_map.get("period")
    with _gc_paused(), open(path, newline="", encoding="utf-8-sig") as fh:
        chunks = _row_chunks(fh, path)
        try:
            header = next(chunks)[0]
        except StopIteration:
            raise ValueError(f"empty CSV file: {path}") from None
        try:
            chunks = chain([next(chunks)], chunks)
        except StopIteration:
            raise ValueError(f"CSV file has a header but no data rows: {path}") from None
        positions: dict[str, list[int]] = {}
        for i, name in enumerate(header):
            positions.setdefault(name, []).append(i)
        index = {name: cols[0] for name, cols in positions.items()}
        cov_names = column_map.get("covariates")
        if cov_names is None:
            reserved = {outcome_name, arm_name, unit_name, period_name}
            cov_names = [c for c in header if c not in reserved]

        def missing(role: str, name: str) -> ValueError:
            return ValueError(f"{role} column {name!r} not found in CSV header {header}")

        # The error that wins so far, with its rank, held while the rest of
        # the file is read: a malformed record still wins over it.
        held = next(chain(
            ((_DUPLICATE, ValueError(f"duplicate CSV header {name!r} at columns {cols}"))
             for name, cols in positions.items() if len(cols) > 1),
            ((_MISSING_ROLE, missing(role, name))
             for role, name in (("outcome", outcome_name), ("arm", arm_name))
             if name not in index),
            ((_MISSING_COLUMN, missing(role, name))
             for role, name in [*(("covariate", name) for name in cov_names),
                                ("unit_id", unit_name), ("period", period_name)]
             if name is not None and name not in index)), (_NONE, None))

        width = len(header)
        outcome: list[np.ndarray] = []
        period: list[np.ndarray] = []
        # Columns of label cells: arm and unit id, and each covariate from
        # the first chunk that does not parse as numbers. A covariate that
        # fails first in a later chunk is read again from the file, whole.
        labels: dict[int, tuple[dict, list]] = {
            index[name]: ({}, []) for name in (arm_name, unit_name) if name in index}
        numeric = {name: [] for name in cov_names if name in index}
        reread: list[str] = []
        start = 0
        for chunk in chunks:
            m = len(chunk)
            if held[0] > _RAGGED and set(map(len, chunk)) != {width}:
                r, row = next((r, row) for r, row in enumerate(chunk, start) if len(row) != width)
                held = _RAGGED, ValueError(f"row {r} has {len(row)} cells, expected {width}")
            if held[0] > _BAD_OUTCOME:
                columns = list(zip(*chunk))
                cells = columns[index[outcome_name]]
                try:
                    y = np.fromiter(map(float, cells), np.float64, m)
                except ValueError:
                    y = None
                if y is None or not np.isfinite(y).all():
                    held = _BAD_OUTCOME, _cell_error("outcome", outcome_name, cells,
                                                     _finite_float, start)
                elif held[1] is None:
                    outcome.append(y)
                    for name in list(numeric):
                        try:
                            numeric[name].append(
                                np.fromiter(map(float, columns[index[name]]), np.float64, m))
                        except ValueError:
                            del numeric[name]
                            if start:
                                reread.append(name)
                            else:
                                labels[index[name]] = ({}, [])
                    _add_labels(labels, columns)
                    if period_name is not None:
                        cells = columns[index[period_name]]
                        try:
                            period.append(np.fromiter(map(int, cells), np.int64, m))
                        except (ValueError, OverflowError):
                            held = _BAD_PERIOD, _cell_error(
                                "period", period_name, cells, lambda cell: np.int64(int(cell)),
                                start)
                del columns, cells
            del chunk  # before the next one is read
            start += m
        if held[1] is not None:
            raise held[1]

    if reread:
        again = {index[name]: ({}, []) for name in reread}
        with _gc_paused(), open(path, newline="", encoding="utf-8-sig") as fh:
            chunks = _row_chunks(fh, path)
            next(chunks)
            for chunk in chunks:
                _add_labels(again, list(zip(*chunk)))
        labels.update(again)
    covariates: dict[str, np.ndarray] = {}
    for name in cov_names:
        if name in numeric:
            covariates[name] = np.concatenate(numeric.pop(name))
        else:
            covariates[name] = np.asarray(labels.pop(index[name])[1], dtype=object)
    return Dataset(outcome=np.concatenate(outcome), arm=labels[index[arm_name]][1],
                   covariates=covariates,
                   unit_id=labels[index[unit_name]][1] if unit_name is not None else None,
                   period=np.concatenate(period) if period_name is not None else None)


def add_period_covariate(data: Dataset) -> Dataset:
    """Return ``data`` with the period column added as the categorical
    covariate :data:`PERIOD_COVARIATE`, so per-period effects can be
    expressed through period-by-arm interactions.

    Only the period column is factorized: the result shares ``data``'s
    frozen arrays and cached encodings, and ``data`` itself is unchanged.
    With fewer than two distinct periods the time axis is degenerate and the
    data is returned unchanged (a single-level categorical cannot be encoded).
    """
    if data.period is None:
        raise ValueError("dataset has no period column")
    if PERIOD_COVARIATE in data.covariates:
        raise ValueError(f"covariate {PERIOD_COVARIATE!r} already exists")
    if (data.period == data.period[0]).all():
        return data
    col, levels, codes = _labels(data.period.tolist(), f"covariate {PERIOD_COVARIATE!r}")
    out = copy.copy(data)
    object.__setattr__(out, "covariates", {**data.covariates, PERIOD_COVARIATE: col})
    object.__setattr__(out, "_codes", {**data._codes, PERIOD_COVARIATE: (levels, codes)})
    return out

"""Experiment dataset container and CSV ingestion.

A :class:`Dataset` holds one experiment's rows in columnar form: an outcome
value, a treatment-arm label, zero or more covariates (numeric or
categorical), and optional unit and period columns for repeated-measures
designs. Arm labels and categorical levels are always strings so that runs
are reproducible regardless of how the input was typed. Each label column is
a :class:`LabelColumn`, its sorted levels and a narrow code per row, so no
object is held per row.
"""

from __future__ import annotations

import codecs
import copy
import csv
import gc
import hashlib
import io
import math
import os
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = ["Dataset", "LabelColumn", "load_csv", "add_period_covariate", "check_column_roles",
           "factorize", "PERIOD_COVARIATE"]

# The name of the categorical covariate add_period_covariate adds, which
# effects.dte looks for in the model's schema.
PERIOD_COVARIATE = "period"

# Lines that load_csv reads, parses, converts and drops at a time. With
# numpy's reader parsing the chunks after the first, a run of the 200k-row
# xsec_hc1 benchmark took as long with chunks of 256 to 8,192 rows and
# peaked lowest at 1,024 (52.2 MB of resident memory, against 53.0 MB at
# 256, 52.7 MB at 2,048 and 58.2 MB at 8,192; measured reading from the file).
CHUNK_ROWS = 1024


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class LabelColumn:
    """A column of string labels: its distinct ``levels`` in sorted order,
    and ``codes``, each row's index into them, a frozen array of unsigned
    ints as narrow as the number of levels allows
    (``np.min_scalar_type(len(levels))``). Iterating yields each row's
    label, so a column serves where a sequence of labels is read, such as
    the ``cluster_ids`` of :func:`~effect_engine.model.fit_ols`."""

    levels: tuple[str, ...]
    codes: np.ndarray

    def __post_init__(self):
        _freeze(self.codes)

    def __len__(self) -> int:
        return self.codes.shape[0]

    def __iter__(self) -> Iterator[str]:
        return map(self.levels.__getitem__, self.codes)


class _Growing:
    """One column's values in one array that grows in place, to twice its
    size when full, as chunks are appended, and is trimmed to its rows at
    the end. No chunk's array outlives its append."""

    def __init__(self, dtype):
        self.values, self.n = np.empty(CHUNK_ROWS, dtype), 0

    def append(self, values: np.ndarray) -> None:
        end = self.n + len(values)
        if end > len(self.values):
            self.values.resize(max(end, 2 * len(self.values)), refcheck=False)
        self.values[self.n:end] = values
        self.n = end

    def trimmed(self) -> np.ndarray:
        self.values.resize(self.n, refcheck=False)
        return self.values


class _FirstSeen(dict):
    """Label -> code, a label seen for the first time taking the next code."""

    def __missing__(self, label) -> int:
        code = self[label] = len(self)
        return code


class _Coder:
    """Codes a label column as its cells arrive, one dict lookup a cell
    (:class:`_FirstSeen`). The codes are kept in one :class:`_Growing`
    array as narrow as the labels seen so far allow, and :meth:`column`
    permutes them to the sorted order of the levels, so no cell's label is
    kept."""

    def __init__(self):
        self.seen = _FirstSeen()
        self.codes = _Growing(np.uint8)

    def add(self, cells: Iterable, m: int) -> None:
        """Code the next ``m`` cells."""
        codes = np.fromiter(map(self.seen.__getitem__, cells), np.intp, m)
        width = np.min_scalar_type(len(self.seen))
        if width != self.codes.values.dtype:
            self.codes.values = self.codes.values.astype(width)
        self.codes.append(codes)

    def column(self, name: Callable[[object], str] | None = None) -> LabelColumn:
        """The column coded so far. Its levels are the labels seen, or
        ``name`` of each, in sorted order."""
        first = list(self.seen) if name is None else list(map(name, self.seen))
        order = sorted(range(len(first)), key=first.__getitem__)
        rank = np.empty(len(first), np.min_scalar_type(len(first)))
        rank[order] = np.arange(len(first))
        return LabelColumn(tuple(first[i] for i in order), rank[self.codes.trimmed()])


def _factorize_by_value(values: np.ndarray) -> LabelColumn:
    """``values`` coded by value, each level named ``str`` of it after: the
    column :func:`factorize` gives the strings of ``values`` wherever equal
    values have equal strings, as integers do, and finite floats other than
    ``-0.0``."""
    coder = _Coder()
    coder.add(values.tolist(), len(values))
    return coder.column(str)


def factorize(labels: Sequence) -> LabelColumn:
    """``labels`` as a :class:`LabelColumn`: the coder of :func:`load_csv`,
    run over a column in memory. Labels are read as ``str(label)``; that
    pass over the labels is skipped when every distinct label already is a
    ``str``, and an integer array is coded by value
    (:func:`_factorize_by_value`). A :class:`LabelColumn` is returned as it
    is."""
    if isinstance(labels, LabelColumn):
        return labels
    if isinstance(labels, np.ndarray) and labels.dtype.kind in "iu":
        return _factorize_by_value(labels)
    coder = _Coder()
    try:
        coder.add(labels, len(labels))
        plain = all(type(v) is str for v in coder.seen)
    except TypeError:  # unhashable labels, such as lists
        plain = False
    if not plain:
        coder = _Coder()
        coder.add(map(str, labels), len(labels))
    return coder.column()


def _label_column(values, role: str) -> LabelColumn:
    """``factorize(values)``. Every label column of a :class:`Dataset`
    passes through here, so this is where two levels that differ only in
    whitespace (``t1`` and `` t1``) are rejected; ``role`` names the column
    in that error."""
    column = factorize(values)
    seen: dict[str, int] = {}
    for i, level in enumerate(column.levels):
        j = seen.setdefault("".join(level.split()), i)
        if j != i:
            rows = [int(np.argmax(column.codes == k)) for k in (j, i)]
            raise ValueError(f"{role} labels {column.levels[j]!r} (row {rows[0]}) and "
                             f"{level!r} (row {rows[1]}) differ only in whitespace")
    return column


@dataclass(frozen=True, eq=False)
class Dataset:
    """Columnar experiment data.

    Attributes
    ----------
    outcome : (n,) float array
    arm : :class:`LabelColumn` of string arm labels; ``arm.levels`` are the
        distinct arms in sorted order
    covariates : mapping of name -> column; a numeric column is a (n,)
        float64 array, a categorical one a :class:`LabelColumn`
    unit_id : optional :class:`LabelColumn` of string unit identifiers
    period : optional (n,) int array of ordinal time indices; float input
        must hold whole numbers
    digest : ``sha256:<hex>`` of the bytes :func:`load_csv` read the data
        from; None for data built in memory

    Each label column (``arm``, ``unit_id`` and the categorical covariates)
    may be given as any sequence of labels, and is factorized once, here
    (:func:`factorize`), to its levels and its codes: a column costs one to
    four bytes a row plus its levels, and a :class:`LabelColumn` given is
    kept as it is. Categorical encodings (see :meth:`categorical_codes`) are
    those columns' levels and codes; those of numeric columns are computed
    on first use and cached per dataset. :func:`add_period_covariate` shares
    the columns and cached encodings of the dataset it extends. Equality is
    identity.
    """

    outcome: np.ndarray
    arm: LabelColumn
    covariates: Mapping[str, np.ndarray | LabelColumn] = field(default_factory=dict)
    unit_id: LabelColumn | None = None
    period: np.ndarray | None = None
    digest: str | None = None
    _codes: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        outcome = _freeze(np.asarray(self.outcome, dtype=np.float64))
        if outcome.ndim != 1:
            raise ValueError("outcome must be one-dimensional")
        arm = _label_column(self.arm, "arm")
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "arm", arm)
        n = outcome.shape[0]
        if len(arm) != n:
            raise ValueError("arm column length does not match outcome")
        if not np.all(np.isfinite(outcome)):
            bad = int(np.flatnonzero(~np.isfinite(outcome))[0])
            raise ValueError(f"outcome is not finite at row {bad}")
        if len(arm.levels) < 2:
            found = ", ".join(map(repr, arm.levels)) or "none"
            raise ValueError(f"need at least 2 distinct arm labels, found {found}")
        covs = {}
        for name, values in self.covariates.items():
            col = values if isinstance(values, LabelColumn) else np.asarray(values)
            if isinstance(col, np.ndarray) and col.dtype.kind in "if":
                col = _freeze(np.asarray(col, dtype=np.float64))
                if not np.all(np.isfinite(col)):
                    bad = int(np.flatnonzero(~np.isfinite(col))[0])
                    raise ValueError(f"covariate {name!r} has a non-finite value at row "
                                     f"{bad}: {float(col[bad])!r}")
                shape = col.shape
            else:
                col = _label_column(values, f"covariate {name!r}")
                shape = (len(col),)
            if shape != (n,):
                raise ValueError(f"covariate {name!r} length does not match outcome")
            covs[name] = col
        object.__setattr__(self, "covariates", covs)
        if self.unit_id is not None:
            uid = _label_column(self.unit_id, "unit_id")
            if len(uid) != n:
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
        return not isinstance(self.covariates[name], LabelColumn)

    def categorical_codes(self, name: str) -> tuple[tuple[str, ...], np.ndarray]:
        """Sorted distinct string levels of covariate ``name`` and each
        row's index into them: a categorical column's own levels and codes.
        A numeric column is read as the strings of its values, once per
        dataset, and cached; ``-0.0`` is read as ``0.0``, the value it equals."""
        col = self.covariates[name]
        if not isinstance(col, LabelColumn):
            col = self._codes.get(name)
            if col is None:
                col = self._codes[name] = _factorize_by_value(self.covariates[name] + 0.0)
        return col.levels, col.codes


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


class _Digesting(io.RawIOBase):
    """The binary file ``raw``, read through and handed on unchanged: each
    byte read goes to ``digest``, so the file is hashed in the pass that
    reads it, and ``quoted`` is set once a ``"`` has been read. Until the
    first byte that is not UTF-8, a decoder checks each read that is not
    ASCII, or follows a sequence left open; at that byte ``bad`` is set to
    the decoder's error and ``bad_offset`` to the byte's offset in the file.
    A ``"`` or a byte that is not UTF-8 hands the rest of the file to the
    csv reader (:func:`_row_chunks`)."""

    quoted = False
    bad = bad_offset = None

    def __init__(self, raw, digest):
        self._raw, self._digest, self._read = raw, digest, 0
        self._utf8 = codecs.getincrementaldecoder("utf-8")()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = self._raw.readinto(buffer)
        data = memoryview(buffer)[:size].tobytes()
        self._digest.update(data)
        self.quoted = self.quoted or b'"' in data
        held = self._utf8.getstate()[0]  # a sequence the last read left open
        if self.bad is None and (held or not data.isascii()):
            try:
                self._utf8.decode(data, final=not size)
            except UnicodeDecodeError as exc:
                self.bad, self.bad_offset = exc, self._read - len(held) + exc.start
        self._read += size
        return size


def _numpy_rows(lines: list[str], dtype: np.dtype) -> np.ndarray | None:
    """``lines`` of CSV text that hold no ``"``, parsed by numpy's C reader
    into an array of the structured ``dtype``: one field a column, its
    numbers parsed in C. Blank lines are skipped. None where the csv reader
    must parse them instead: numpy refuses them (a ragged row, a cell its
    field cannot parse) or reads a non-finite float, whose cell an error
    names as written."""
    with warnings.catch_warnings():
        # numpy warns of lines that hold no row.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            rows = np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1)
        except ValueError:
            return None
    finite = all(np.isfinite(rows[name]).all() for name in dtype.names if dtype[name].kind == "f")
    return rows if finite else None


def _good_lines(blocks: Iterable[Sequence[str]], source: _Digesting) -> Iterator[str]:
    """The lines of ``blocks``, up to the first that holds a byte that is not
    UTF-8, where ``source.bad`` is raised: that line is never parsed, so a
    malformed record before it wins, and on one line the byte wins. A block
    is searched only once ``source`` has read such a byte, as it has by the
    time its line is decoded."""
    # Once a block: the csv reader takes the lines from each list in C.
    def checked():
        for block in blocks:
            if source.bad is not None:  # surrogateescape decodes such a byte to U+DC80-U+DCFF
                cut = next((i for i, line in enumerate(block)
                            if re.search("[\udc80-\udcff]", line)), None)
                if cut is not None:
                    yield block[:cut]
                    raise source.bad
            yield block
            del block  # so that no two blocks of lines are held at once
    return chain.from_iterable(checked())


def _row_chunks(path, digest, fields: Callable[[], np.dtype]) -> Iterator:
    """The CSV file ``path``, read once and hashed into ``digest``: its
    header row (None if it has none), then its non-blank data rows, read
    :data:`CHUNK_ROWS` lines at a time. numpy's reader parses each chunk
    into the structured dtype ``fields()`` returns then
    (:func:`_numpy_rows`), and the csv reader any chunk numpy does not read
    as it would. A ``"`` or a byte that is not UTF-8 hands the rest of the
    file to the csv reader, from the chunk in which it has been read (up to
    one read of the file ahead of its line), as does a line longer than the
    csv field limit: a quoted cell may span lines. Quoting is strict: a
    malformed record raises ``ValueError`` naming the data row where it
    starts. So does a byte that is not UTF-8, naming also its offset in the
    file, after the lines before its line (:func:`_good_lines`)."""
    with open(path, "rb", buffering=0) as raw:
        source = _Digesting(raw, digest)
        lines = io.TextIOWrapper(io.BufferedReader(source), encoding="utf-8-sig",
                                 errors="surrogateescape", newline="")
        start, chunk = -1, []
        try:
            # zip makes each line a block, so the header takes no line the
            # chunks after it should.
            yield next(filter(None, csv.reader(_good_lines(zip(lines), source), strict=True)),
                       None)
            start = 0
            blocks = iter(lambda: list(islice(lines, CHUNK_ROWS)), [])
            for block in blocks:
                if (source.quoted or source.bad is not None
                        or max(map(len, block)) > csv.field_size_limit()):
                    break
                chunk = _numpy_rows(block, fields())
                if chunk is None:
                    chunk = list(filter(None, csv.reader(block)))
                if len(chunk):
                    yield chunk
                    start += len(chunk)
                del block  # so that no two blocks of lines are held at once
            else:
                return
            rows = filter(None, csv.reader(_good_lines(chain([block], blocks), source),
                                           strict=True))
            while True:
                chunk = []
                # extend keeps the rows read before a malformed one: they number it.
                chunk.extend(islice(rows, CHUNK_ROWS))
                if not chunk:
                    return
                yield chunk
                start += len(chunk)
        except (csv.Error, UnicodeDecodeError) as exc:
            where = f"at data row {start + len(chunk)}" if start >= 0 else "in the header"
            if isinstance(exc, csv.Error):
                raise ValueError(f"malformed CSV record {where} of {path}: {exc}") from None
            raise ValueError(f"{path} is not UTF-8: byte {exc.object[exc.start]:#04x} {where}, "
                             f"byte offset {source.bad_offset} ({exc.reason})") from None


def _columns(chunk) -> list:
    # The columns of a chunk: the fields of numpy's array, or the csv rows'.
    parsed = isinstance(chunk, np.ndarray)
    return [chunk[name] for name in chunk.dtype.names] if parsed else list(zip(*chunk))


def _parsed(cells, parse, dtype, m: int) -> np.ndarray:
    """The ``m`` cells parsed by ``parse`` into an array of ``dtype``; a
    column that numpy's reader has parsed already is that array."""
    if isinstance(cells, np.ndarray):
        return cells
    return np.fromiter(map(parse, cells), dtype, m)


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

    The file is read once (:func:`_row_chunks`), :data:`CHUNK_ROWS` lines
    at a time, each chunk converted and dropped before the next, so no list
    of every row and no per-row cell string outlives its chunk. Each column
    is written once, into one array that grows in place: the values of a
    numeric column, or the codes of a label column, which each cell gets in
    one dict lookup (see :class:`LabelColumn`). numpy's C reader parses a
    chunk, its numbers in C with no ``str`` a cell, where it reads it as the
    csv reader would, and the csv reader parses it where not. A covariate
    is numeric until a cell ``float()`` refuses; one that turns to text
    after the first chunk is read again, for its labels, from a regular
    file only. The bytes read are hashed in the same pass, into the
    dataset's ``digest``, so data from a pipe is read once and gets its own
    digest. A ``"`` or a byte that is not UTF-8 hands the rest of the file
    to the csv reader. Errors win in the order of a loader that reads the
    whole file first: a malformed record or a byte that is not UTF-8, the
    one on the earlier line, and on one line the byte; no data rows; a
    duplicate header; a missing outcome or arm column; the first ragged row; the first bad outcome cell; a missing
    covariate, unit or period column; the first bad period cell.
    """
    for role in ("outcome", "arm"):
        if column_map.get(role) is None:
            raise ValueError(f"column_map names no {role} column; outcome and arm are required")
    check_column_roles(column_map)
    outcome_name = column_map["outcome"]
    arm_name = column_map["arm"]
    unit_name = column_map.get("unit_id")
    period_name = column_map.get("period")
    digest = hashlib.sha256()

    def fields() -> np.dtype:
        # The column types as they stand, for each chunk numpy parses: a
        # number for the outcome, each covariate still numeric and the
        # period, a str for any other.
        types = {index.get(outcome_name): np.float64, index.get(period_name): np.int64,
                 **{index[name]: np.float64 for name in numeric}}
        return np.dtype([("", types.get(i, object)) for i in range(len(header))])

    with _gc_paused():
        chunks = _row_chunks(path, digest, fields)
        header = next(chunks, None)
        if header is None:
            raise ValueError(f"empty CSV file: {path}")
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
        outcome = _Growing(np.float64)
        period = _Growing(np.int64)
        # The label columns, each coded as it is read: arm and unit id, and
        # each covariate from the first chunk that does not parse as numbers.
        # A covariate that fails first in a later chunk is read again from
        # the file, whole; ``reread`` holds the error naming its first text cell.
        labels = {index[name]: _Coder() for name in (arm_name, unit_name) if name in index}
        numeric = {name: _Growing(np.float64) for name in cov_names if name in index}
        reread: dict[str, ValueError] = {}

        start = 0
        for chunk in chunks:
            m = len(chunk)
            parsed = isinstance(chunk, np.ndarray)  # by numpy: no ragged row
            if held[0] > _RAGGED and not parsed and set(map(len, chunk)) != {width}:
                r, row = next((r, row) for r, row in enumerate(chunk, start) if len(row) != width)
                held = _RAGGED, ValueError(f"row {r} has {len(row)} cells, expected {width}")
            if held[0] > _BAD_OUTCOME:
                columns = _columns(chunk)
                cells = columns[index[outcome_name]]
                try:
                    y = _parsed(cells, float, np.float64, m)
                except ValueError:
                    y = None
                if y is None or not np.isfinite(y).all():
                    held = _BAD_OUTCOME, _cell_error("outcome", outcome_name, cells,
                                                     _finite_float, start)
                elif held[1] is None:
                    outcome.append(y)
                    for name in list(numeric):
                        cells = columns[index[name]]
                        try:
                            numeric[name].append(_parsed(cells, float, np.float64, m))
                        except ValueError:
                            del numeric[name]
                            if start:
                                reread[name] = _cell_error("covariate", name, cells, float,
                                                           start)
                            else:
                                labels[index[name]] = _Coder()
                    for i, coder in labels.items():
                        coder.add(columns[i], m)
                    if period_name is not None:
                        cells = columns[index[period_name]]
                        try:
                            period.append(_parsed(cells, int, np.int64, m))
                        except (ValueError, OverflowError):
                            held = _BAD_PERIOD, _cell_error(
                                "period", period_name, cells, lambda cell: np.int64(int(cell)),
                                start)
                del columns, cells
            del chunk  # before the next one is read
            start += m
        if not start:
            raise ValueError(f"CSV file has a header but no data rows: {path}")
        if held[1] is not None:
            raise held[1]
        if reread:
            if not os.path.isfile(path):
                raise ValueError(f"{next(iter(reread.values()))}, after rows that read as "
                                 f"numbers: {path} is not a regular file, so it cannot be read "
                                 "again to code the column as labels")
            again = {index[name]: _Coder() for name in reread}
            for chunk in islice(_row_chunks(path, hashlib.sha256(), fields), 1, None):
                columns = _columns(chunk)
                for i, coder in again.items():
                    coder.add(columns[i], len(chunk))
            labels.update(again)
    covariates = {name: numeric[name].trimmed() if name in numeric
                  else labels[index[name]].column() for name in cov_names}
    return Dataset(outcome=outcome.trimmed(), arm=labels[index[arm_name]].column(),
                   covariates=covariates,
                   unit_id=labels[index[unit_name]].column() if unit_name is not None else None,
                   period=period.trimmed() if period_name is not None else None,
                   digest="sha256:" + digest.hexdigest())


def add_period_covariate(data: Dataset) -> Dataset:
    """Return ``data`` with the period column added as the categorical
    covariate :data:`PERIOD_COVARIATE`, so per-period effects can be
    expressed through period-by-arm interactions.

    Only the period column is factorized, by value, its levels named after:
    they sort as strings, so periods 1, 2, 10 and 11 give the levels
    ``('1', '10', '11', '2')`` and ``'1'`` is the reference. The result
    shares ``data``'s columns and cached encodings, and ``data`` itself is
    unchanged.
    With fewer than two distinct periods the time axis is degenerate and the
    data is returned unchanged (a single-level categorical cannot be encoded).
    """
    if data.period is None:
        raise ValueError("dataset has no period column")
    if PERIOD_COVARIATE in data.covariates:
        raise ValueError(f"covariate {PERIOD_COVARIATE!r} already exists")
    if (data.period == data.period[0]).all():
        return data
    out = copy.copy(data)
    object.__setattr__(out, "covariates",
                       {**data.covariates, PERIOD_COVARIATE: factorize(data.period)})
    object.__setattr__(out, "_codes", dict(data._codes))
    return out

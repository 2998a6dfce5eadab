"""Dataset container and CSV ingestion."""

import csv
import dataclasses
import gc
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import threading
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from itertools import chain, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from conftest import cli_env, labels
from effect_engine import data as data_module
from effect_engine.data import (PERIOD_COVARIATE, Dataset, LabelColumn, add_period_covariate,
                                factorize, load_csv)
from effect_engine.model import ModelSpec, build_schema


def test_arm_labels_coerced_to_strings():
    data = Dataset(outcome=[1.0, 2.0, 3.0], arm=[0, 1, 1])
    assert labels(data.arm).tolist() == ["0", "1", "1"]
    assert data.arm.levels == ("0", "1")


def test_label_columns_become_frozen_codes_of_str_levels():
    # Label columns are their levels and fresh frozen codes; cells that are
    # not str are str()-ed.
    arm = np.asarray(["b", "a", "b"], dtype=object)
    site = np.asarray(["n", "s", "n"], dtype=object)
    units = np.asarray(["u1", 2, 2.5], dtype=object)
    data = Dataset(outcome=[1.0, 2.0, 3.0], arm=arm, covariates={"site": site, "g": [1, "x", 2]},
                   unit_id=units)
    assert labels(data.arm).tolist() == ["b", "a", "b"]
    assert labels(data.covariates["site"]).tolist() == ["n", "s", "n"]
    assert labels(data.covariates["g"]).tolist() == ["1", "x", "2"]
    assert labels(data.unit_id).tolist() == ["u1", "2", "2.5"]
    for col in (data.arm, data.covariates["site"], data.covariates["g"], data.unit_id):
        assert isinstance(col, LabelColumn) and not col.codes.flags.writeable
    assert arm.flags.writeable and site.flags.writeable
    data = Dataset(outcome=[1.0, 2.0], arm=[1, 2.5], unit_id=[7, 8])
    assert data.arm.levels == ("1", "2.5")
    assert data.unit_id.levels == ("7", "8")
    assert all(type(v) is str for v in data.arm.levels + data.unit_id.levels)


def _arrays(data):
    """Every array ``data`` holds: its numeric columns and period, and the
    codes of its label columns."""
    columns = [data.outcome, data.period, data.arm, data.unit_id, *data.covariates.values()]
    return [col.codes if isinstance(col, LabelColumn) else col
            for col in columns if col is not None]


def test_a_dataset_holds_no_object_column(tmp_path):
    # Built, loaded or given a period covariate, a dataset holds its label
    # columns as codes only.
    n = 120
    arm, site, unit = (["ctl", "trt"] * 60, ["north", "south", "east"] * 40,
                       ["u1", "u2", "u2"] * 40)
    data = Dataset(outcome=np.arange(n, dtype=float), arm=arm, covariates={"site": site},
                   unit_id=unit, period=np.arange(n) % 3)
    path = _write(tmp_path, "y,arm,site,u,t\n" + "".join(
        f"{i},{a},{s},{u},{i % 3}\n" for i, (a, s, u) in enumerate(zip(arm, site, unit))))
    loaded = load_csv(path, {"outcome": "y", "arm": "arm", "unit_id": "u", "period": "t"})
    for ds in (data, loaded, add_period_covariate(loaded)):
        assert len(_arrays(ds)) == 5 + ("period" in ds.covariates)
        held = [*vars(ds).values(), *ds.covariates.values(), *ds._codes.values()]
        assert not any(isinstance(v, np.ndarray) and v.dtype == object for v in held)
        for col in _arrays(ds):
            assert col.dtype.kind in "fiu" and col.shape == (n,)
    assert labels(loaded.arm).tolist() == arm
    assert labels(loaded.covariates["site"]).tolist() == site


def _experiment_csv(tmp_path, n):
    """An n-row experiment file: six arms, a ten-level region, two reals."""
    rng = np.random.default_rng(3)
    arm = rng.choice(["control", "v1", "v2", "v3", "v4", "v5"], size=n)
    region = rng.choice([f"r{k}" for k in range(10)], size=n)
    x1, x2 = rng.normal(size=n), rng.uniform(0.0, 4.0, size=n)
    lines = [f"{y:.4f},{a},{r},{u:.4f},{v:.4f}\n"
             for y, a, r, u, v in zip(rng.normal(size=n), arm, region, x1, x2)]
    return _write(tmp_path, "y,arm,region,x1,x2\n" + "".join(lines))


def _array_bytes(data):
    """Bytes of a loaded experiment's arrays and label codes."""
    return sum(a.nbytes for a in _arrays(data))


def test_loaded_dataset_keeps_little_more_than_its_arrays(tmp_path):
    # What a loaded dataset keeps alive is its arrays and the codes of its
    # label columns, not a str per cell.
    path = _experiment_csv(tmp_path, 20000)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = load_csv(path, {"outcome": "y", "arm": "arm"})
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 1.1 * _array_bytes(data)


def test_load_csv_high_water_stays_near_its_arrays(tmp_path):
    # Rows are read and dropped in chunks, so the ingest never holds every
    # row's cells, which here would take about 9x the arrays it returns.
    path = _experiment_csv(tmp_path, 100_000)
    gc.collect()
    tracemalloc.start()
    try:
        data = load_csv(path, {"outcome": "y", "arm": "arm"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * _array_bytes(data)


# Resident memory a child process gains across one load_csv, after a
# collection, and the bytes of the arrays the dataset holds.
RSS_ACROSS_LOAD = textwrap.dedent("""
    import gc, sys
    from effect_engine.data import LabelColumn, load_csv

    def rss():
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmRSS"))

    gc.collect()
    before = rss()
    data = load_csv(sys.argv[1], {"outcome": "y", "arm": "arm", "unit_id": "u"})
    gc.collect()
    columns = [data.outcome, data.arm, data.unit_id, *data.covariates.values()]
    arrays = sum((c.codes if isinstance(c, LabelColumn) else c).nbytes for c in columns)
    print(rss() - before, arrays)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_load_csv_resident_growth_stays_near_its_arrays(tmp_path):
    # What tracemalloc cannot see: heap left fragmented by the ingest's
    # short-lived objects stays resident. 400k rows, three label columns
    # (arm, a covariate and 3,000 unit ids) and three numeric ones. Each
    # column is written once, in place, so the process grows by its arrays
    # (11.2 MB) and about 2 MB that does not grow with the rows: 1.96 MB,
    # 1.18x the arrays, with numpy's reader reading the chunks after the
    # first, and 2.14 MB with the csv reader reading them all. That figure
    # moves by 0.2 MB with the heap's layout alone (a longer docstring in the
    # loader moved it). A loader that kept each column's chunks until a
    # concatenate, and a str per row until its object column, grew by 1.63x
    # its arrays.
    n = 400_000
    rng = np.random.default_rng(41)
    arm = rng.choice(["control", "v1", "v2", "v3"], size=n)
    region = rng.choice([f"r{k}" for k in range(10)], size=n)
    unit = rng.integers(0, 3000, size=n)
    x1, x2, y = rng.normal(size=n), rng.uniform(0.0, 4.0, size=n), rng.normal(size=n)
    path = _write(tmp_path, "y,arm,region,u,x1,x2\n" + "".join(
        f"{a:.4f},{b},{r},u{k},{c:.4f},{d:.4f}\n"
        for a, b, r, k, c, d in zip(y, arm, region, unit, x1, x2)))
    proc = subprocess.run([sys.executable, "-c", RSS_ACROSS_LOAD, str(path)], env=cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    grown, arrays = map(int, proc.stdout.split())
    assert grown <= 1.4 * arrays, (grown, arrays)


def test_arm_codes_index_the_arms_and_are_frozen():
    data = Dataset(outcome=[1.0, 2.0, 3.0, 4.0], arm=["t", "c", "t", "u"], period=[0, 1, 0, 1])
    assert data.arm.codes.tolist() == [1, 0, 1, 2]
    assert [data.arm.levels[c] for c in data.arm.codes] == ["t", "c", "t", "u"]
    assert list(data.arm) == ["t", "c", "t", "u"] and len(data.arm) == 4
    assert not data.arm.codes.flags.writeable
    assert add_period_covariate(data).arm is data.arm


def test_zero_dimensional_outcome_rejected():
    with pytest.raises(ValueError, match="outcome must be one-dimensional"):
        Dataset(outcome=1.0, arm=["a"])


@pytest.mark.parametrize("bad", [1.5, np.nan, np.inf, -np.inf, 1e30])
def test_period_that_is_not_a_whole_number_names_its_row(bad):
    with pytest.raises(ValueError, match=r"period must hold whole numbers; row 2 has"):
        Dataset(outcome=[1.0, 2.0, 3.0], arm=["a", "b", "a"], period=[0.0, 2.0, bad])


def test_whole_float_periods_are_kept():
    data = Dataset(outcome=[1.0, 2.0, 3.0], arm=["a", "b", "a"], period=[0.0, 2.0, -3.0])
    assert data.period.dtype == np.int64
    assert data.period.tolist() == [0, 2, -3]


def test_requires_two_distinct_arms():
    with pytest.raises(ValueError, match="at least 2 distinct arm"):
        Dataset(outcome=[1.0, 2.0], arm=["a", "a"])


def test_non_finite_outcome_names_row():
    with pytest.raises(ValueError, match="row 2"):
        Dataset(outcome=[1.0, 2.0, np.nan, 4.0], arm=["a", "b", "a", "b"])


def test_covariate_length_mismatch():
    with pytest.raises(ValueError, match="'x' length"):
        Dataset(outcome=[1.0, 2.0], arm=["a", "b"], covariates={"x": [1.0]})


def test_arm_length_mismatch():
    with pytest.raises(ValueError, match="arm column length"):
        Dataset(outcome=[1.0, 2.0, 3.0], arm=["a", "b"])


def test_numeric_and_categorical_covariates():
    data = Dataset(
        outcome=[1.0, 2.0],
        arm=["a", "b"],
        covariates={"x": [1.5, 2.5], "grade": ["4", "9"]},
    )
    assert data.is_numeric("x")
    assert not data.is_numeric("grade")
    assert data.covariates["x"].dtype == np.float64
    assert isinstance(data.covariates["grade"], LabelColumn)
    assert data.covariate_names == ("x", "grade")


def test_non_finite_covariate_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(outcome=[1.0, 2.0], arm=["a", "b"], covariates={"x": [1.0, np.inf]})


def test_arrays_are_frozen():
    data = Dataset(outcome=[1.0, 2.0], arm=["a", "b"], covariates={"x": [0.0, 1.0]})
    with pytest.raises(ValueError):
        data.outcome[0] = 9.0
    with pytest.raises(ValueError):
        data.covariates["x"][0] = 9.0


def _write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_type_inference(tmp_path):
    path = _write(
        tmp_path,
        "y,arm,x,grade,uid,t\n"
        "1.0,0,0.5,4,u1,0\n"
        "2.0,1,1.5,9,u2,1\n",
    )
    data = load_csv(
        path,
        {"outcome": "y", "arm": "arm", "unit_id": "uid", "period": "t"},
    )
    # Covariates default to every non-reserved column; every cell in both
    # columns parses as a number, so both come back numeric.
    assert data.covariate_names == ("x", "grade")
    assert data.is_numeric("x")
    assert data.is_numeric("grade")
    assert labels(data.unit_id).tolist() == ["u1", "u2"]
    assert data.period.tolist() == [0, 1]


def test_load_csv_categorical_column(tmp_path):
    path = _write(tmp_path, "y,arm,site\n1.0,0,north\n2.0,1,south\n")
    data = load_csv(path, {"outcome": "y", "arm": "arm"})
    assert not data.is_numeric("site")
    assert labels(data.covariates["site"]).tolist() == ["north", "south"]


def test_load_csv_explicit_covariates(tmp_path):
    path = _write(tmp_path, "y,arm,x,junk\n1.0,0,0.5,a\n2.0,1,1.5,b\n")
    data = load_csv(path, {"outcome": "y", "arm": "arm", "covariates": ["x"]})
    assert data.covariate_names == ("x",)


def test_load_csv_bad_outcome_names_row_and_column(tmp_path):
    path = _write(tmp_path, "y,arm\n1.0,0\noops,1\n")
    with pytest.raises(ValueError, match=r"row 1, column 'y'"):
        load_csv(path, {"outcome": "y", "arm": "arm"})


def test_load_csv_bad_period_cell(tmp_path):
    path = _write(tmp_path, "y,arm,t\n1.0,0,0\n2.0,1,first\n")
    with pytest.raises(ValueError, match=r"period cell at row 1"):
        load_csv(path, {"outcome": "y", "arm": "arm", "period": "t"})


def test_load_csv_nonfinite_outcome_before_garbage_is_reported(tmp_path):
    path = _write(tmp_path, "y,arm\n1,0\nnan,1\nx,0\n")
    with pytest.raises(ValueError, match=r"outcome cell at row 1, column 'y': 'nan'$"):
        load_csv(path, {"outcome": "y", "arm": "arm"})


def test_load_csv_out_of_range_period_cell(tmp_path):
    path = _write(tmp_path, "y,arm,t\n1.0,0,99999999999999999999\n2.0,1,0\n")
    with pytest.raises(ValueError) as info:
        load_csv(path, {"outcome": "y", "arm": "arm", "period": "t"})
    assert str(info.value) == (
        "unparseable period cell at row 0, column 't': '99999999999999999999'")


def test_load_csv_non_finite_covariate_names_row_and_value(tmp_path):
    path = _write(tmp_path, "y,arm,c0,c1\n1,0,1,2\n2,1,3,-inf\n3,0,4,nan\n")
    with pytest.raises(ValueError) as info:
        load_csv(path, {"outcome": "y", "arm": "arm"})
    assert str(info.value) == "covariate 'c1' has a non-finite value at row 1: -inf"


def test_load_csv_single_arm_names_the_label(tmp_path):
    path = _write(tmp_path, "y,arm\n1,ctrl\n2,ctrl\n")
    with pytest.raises(ValueError) as info:
        load_csv(path, {"outcome": "y", "arm": "arm"})
    assert str(info.value) == "need at least 2 distinct arm labels, found 'ctrl'"


def test_load_csv_ignores_byte_order_mark(tmp_path):
    path = _write(tmp_path, "\ufeffy,arm\n1.0,0\n2.0,1\n")
    data = load_csv(path, {"outcome": "y", "arm": "arm"})
    assert data.outcome.tolist() == [1.0, 2.0]


def test_load_csv_missing_column(tmp_path):
    path = _write(tmp_path, "y,arm\n1.0,0\n2.0,1\n")
    with pytest.raises(ValueError, match="outcome column 'score' not found"):
        load_csv(path, {"outcome": "score", "arm": "arm"})


@pytest.mark.parametrize("role", ["outcome", "arm"])
def test_load_csv_names_a_missing_role(tmp_path, role):
    path = _write(tmp_path, "y,arm\n1.0,0\n2.0,1\n")
    column_map = {"outcome": "y", "arm": "arm"}
    del column_map[role]
    with pytest.raises(ValueError) as info:
        load_csv(path, column_map)
    assert str(info.value) == (f"column_map names no {role} column; "
                               "outcome and arm are required")
    with pytest.raises(ValueError, match=f"names no {role} column"):
        load_csv(path, {**column_map, role: None})


def test_load_csv_ragged_row(tmp_path):
    path = _write(tmp_path, "y,arm\n1.0,0\n2.0\n")
    with pytest.raises(ValueError, match="row 1 has 1 cells, expected 2"):
        load_csv(path, {"outcome": "y", "arm": "arm"})


def test_load_csv_duplicate_header_rejected(tmp_path):
    # A dict keyed by header name would read the outcome from the last "y".
    path = _write(tmp_path, "y,arm,y\n1.0,0,10.0\n2.0,1,20.0\n")
    with pytest.raises(ValueError, match=r"duplicate CSV header 'y' at columns \[0, 2\]"):
        load_csv(path, {"outcome": "y", "arm": "arm"})


def test_load_csv_no_data_rows(tmp_path):
    path = _write(tmp_path, "y,arm\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(path, {"outcome": "y", "arm": "arm"})


@pytest.mark.parametrize("chunk_rows", [1, 4, data_module.CHUNK_ROWS])
def test_load_csv_unterminated_quote_names_its_row(tmp_path, chunk_rows):
    # Lenient quoting would fold every later line into one cell of row 5. A
    # ragged row before it does not win: a malformed record is reported first.
    lines = [f"{i},{'ab'[i % 2]},{i % 3}\n" for i in range(12)]
    lines[1] = "1,b\n"
    lines[5] = '5,b,"2\n'
    path = _write(tmp_path, "y,arm,x\n" + "".join(lines))
    with mock.patch.object(data_module, "CHUNK_ROWS", chunk_rows):
        with pytest.raises(ValueError) as info:
            load_csv(path, {"outcome": "y", "arm": "arm"})
    assert str(info.value) == (
        f"malformed CSV record at data row 5 of {path}: unexpected end of data")
    with pytest.raises(csv.Error):
        reference_load_csv(path, {"outcome": "y", "arm": "arm"})
    path = _write(tmp_path, 'y,arm,x\n1,a,"2"3\n2,b,4\n')
    with pytest.raises(ValueError, match=r"at data row 0 of .*: ',' expected after '\"'$"):
        load_csv(path, {"outcome": "y", "arm": "arm"})
    path = _write(tmp_path, '"y,arm\n1,a\n2,b\n')
    with pytest.raises(ValueError, match=r"^malformed CSV record in the header of "):
        load_csv(path, {"outcome": "y", "arm": "arm"})


def test_load_csv_names_the_line_and_offset_of_a_byte_that_is_not_utf8(tmp_path):
    # The decoder's own position counts from the start of its buffer, which
    # here is far from the start of the file.
    head = ("\ufeffy,arm,site\n" + "".join(
        f"{i}.5,{'ab'[i % 2]},caf\u00e9{i % 3}\n" for i in range(2500))).encode("utf-8")
    path = tmp_path / "data.csv"
    path.write_bytes(head + b"1.5,a,x\xffz\n2.5,b,y\n")
    with pytest.raises(ValueError) as info:
        load_csv(path, {"outcome": "y", "arm": "arm"})
    assert str(info.value) == (f"{path} is not UTF-8: byte 0xff at data row 2500, byte offset "
                               f"{len(head) + 7} (invalid start byte)")


@pytest.fixture
def two_row_chunks():
    with mock.patch.object(data_module, "CHUNK_ROWS", 2):
        yield


def test_covariate_that_turns_to_text_in_a_later_chunk_is_categorical(tmp_path,
                                                                       two_row_chunks):
    # Numeric through the first two chunks, text in the third: the column is
    # its raw cells ("1.0" and "1e0" stay apart), as if read whole.
    path = _write(tmp_path, "y,arm,x,z\n1,a,1.0,0\n2,b,2,1\n3,a,1e0,0\n"
                            "4,b,2.0,1\n5,a,n/a,0\n6,b,2,1\n")
    data = load_csv(path, {"outcome": "y", "arm": "arm"})
    assert labels(data.covariates["x"]).tolist() == ["1.0", "2", "1e0", "2.0", "n/a", "2"]
    assert data.covariates["z"].tolist() == [0.0, 1.0] * 3
    _assert_loads_like_reference(path, {"outcome": "y", "arm": "arm"})


def test_ragged_row_in_a_later_chunk_wins_over_a_bad_outcome(tmp_path, two_row_chunks):
    path = _write(tmp_path, "y,arm\n1,a\noops,b\n3,a\n4,b\n5\n6,b\n")
    with pytest.raises(ValueError) as info:
        load_csv(path, {"outcome": "y", "arm": "arm"})
    assert str(info.value) == "row 4 has 1 cells, expected 2"
    _assert_loads_like_reference(path, {"outcome": "y", "arm": "arm"})


# Each fault sits in the header or the first chunk: a header cell replaced,
# a data row's cell replaced or dropped (None), or a covariate list that
# names a missing column.
@pytest.mark.parametrize("row, col, cell, covariates, message", [
    (None, 2, "t", None, r"^duplicate CSV header 't' at columns \[2, 3\]$"),
    (None, 1, "group", None, r"^arm column 'arm' not found in CSV header "),
    (1, 3, None, None, r"^row 1 has 3 cells, expected 4$"),
    (1, 0, "oops", None, r"^unparseable outcome cell at row 1, column 'y': 'oops'$"),
    (None, None, None, ["x", "z"], r"^covariate column 'z' not found in CSV header "),
    (1, 3, "1.5", None, r"^unparseable period cell at row 1, column 't': '1.5'$"),
], ids=["duplicate_header", "missing_arm", "ragged_row", "bad_outcome", "missing_covariate",
        "bad_period"])
def test_malformed_record_in_the_last_chunk_wins(tmp_path, two_row_chunks, row, col, cell,
                                                  covariates, message):
    lines = [["y", "arm", "x", "t"]] + [[str(i), "ab"[i % 2], str(i % 3), str(i % 2)]
                                        for i in range(8)]
    if col is not None:
        target = lines[0 if row is None else row + 1]
        if cell is None:
            del target[col]
        else:
            target[col] = cell
    column_map = {"outcome": "y", "arm": "arm", "period": "t"}
    if covariates is not None:
        column_map["covariates"] = covariates
    text = "".join(",".join(line) + "\n" for line in lines)
    with pytest.raises(ValueError, match=message):
        load_csv(_write(tmp_path, text), column_map)
    path = _write(tmp_path, text + '8,a,"2,0\n')
    with pytest.raises(ValueError) as info:
        load_csv(path, column_map)
    assert str(info.value) == (
        f"malformed CSV record at data row 8 of {path}: unexpected end of data")


def test_add_period_covariate():
    data = Dataset(
        outcome=[1.0, 2.0, 3.0, 4.0],
        arm=["a", "b", "a", "b"],
        period=[0, 0, 1, 1],
    )
    with_period = add_period_covariate(data)
    assert "period" in with_period.covariates
    assert not with_period.is_numeric("period")
    assert labels(with_period.covariates["period"]).tolist() == ["0", "0", "1", "1"]


def test_add_period_covariate_shares_the_parent():
    periods = np.arange(24) % 12
    data = Dataset(outcome=np.arange(24.0), arm=["a", "b"] * 12,
                   covariates={"site": ["n", "s", "e"] * 8, "x": np.arange(24.0) % 5},
                   unit_id=[f"u{i % 6}" for i in range(24)], period=periods)
    cached = {name: data.categorical_codes(name) for name in ("site", "x")}
    with_period = add_period_covariate(data)
    for field in ("outcome", "arm", "unit_id", "period"):
        assert getattr(with_period, field) is getattr(data, field)
    for name in ("site", "x"):
        assert with_period.covariates[name] is data.covariates[name]
        assert with_period.categorical_codes(name)[1] is cached[name][1]
    # Only the period column is new; its levels sort as strings.
    levels, codes = with_period.categorical_codes("period")
    assert levels == tuple(sorted(map(str, range(12))))
    assert [levels[c] for c in codes] == [str(p) for p in periods]
    assert with_period.covariate_names == ("site", "x", "period")
    assert "period" not in data.covariates and "period" not in data._codes


def test_add_period_covariate_single_period_is_noop():
    data = Dataset(outcome=[1.0, 2.0], arm=["a", "b"], period=[3, 3])
    assert add_period_covariate(data) is data


def test_add_period_covariate_requires_period():
    data = Dataset(outcome=[1.0, 2.0], arm=["a", "b"])
    with pytest.raises(ValueError, match="no period column"):
        add_period_covariate(data)


def test_add_period_covariate_name_clash():
    data = Dataset(
        outcome=[1.0, 2.0],
        arm=["a", "b"],
        covariates={"period": [0.0, 1.0]},
        period=[0, 1],
    )
    with pytest.raises(ValueError, match="already exists"):
        add_period_covariate(data)


SEVEN_ROWS = [("1.0", "ctrl", "north", "u1"), ("2.0", "t1", "south", "u2"),
              ("1.5", "ctrl", "north", "u3"), ("2.5", "t1", "south", "u4"),
              ("1.2", "ctrl", "north", "u1"), ("2.2", "t1", "south", "u2"),
              ("1.1", "ctrl", "north", "u3")]


@pytest.mark.parametrize("column, role", [(1, "arm"), (2, "covariate 'site'"), (3, "unit_id")])
def test_labels_differing_only_in_whitespace_rejected(tmp_path, column, role):
    def load(rows):
        text = "y,arm,site,u\n" + "".join(",".join(row) + "\n" for row in rows)
        return load_csv(_write(tmp_path, text), {"outcome": "y", "arm": "arm", "unit_id": "u"})

    rows = [list(row) for row in SEVEN_ROWS]
    assert load(rows).arm.levels == ("ctrl", "t1")
    clean = rows[1][column]
    rows[3][column] = " " + clean
    with pytest.raises(ValueError) as info:
        load(rows)
    assert str(info.value) == (f"{role} labels ' {clean}' (row 3) and '{clean}' (row 1) "
                               "differ only in whitespace")


def test_labels_differing_in_inner_whitespace_rejected():
    with pytest.raises(ValueError, match=r"^arm labels 'a\\tb' \(row 1\) and 'a b' \(row 0\)"):
        Dataset(outcome=[1.0, 2.0, 3.0], arm=["a b", "a\tb", "c"])
    data = Dataset(outcome=[1.0, 2.0], arm=["a b", "a c"])
    assert data.arm.levels == ("a b", "a c")


def test_categorical_codes_sorted_and_cached():
    data = Dataset(
        outcome=[1.0, 2.0, 3.0, 4.0, 5.0],
        arm=["a", "b", "a", "b", "a"],
        covariates={"g": ["9", "a", "10", "B", "9"], "x": [2.0, 10.0, 2.0, 1.5, 1.5]},
    )
    levels, codes = data.categorical_codes("g")
    assert levels == ("10", "9", "B", "a")  # sorted(set(...)) order
    assert codes.tolist() == [1, 3, 0, 2, 1]
    assert not codes.flags.writeable
    assert data.categorical_codes("g")[1] is codes
    # Numeric columns are read as the strings of their values.
    assert data.categorical_codes("x")[0] == ("1.5", "10.0", "2.0")
    # Copies share their label columns and encode their own numeric ones.
    copy = dataclasses.replace(data)
    assert copy.categorical_codes("g")[1] is codes
    numeric = data.categorical_codes("x")[1]
    assert copy.categorical_codes("x")[1] is not numeric
    assert_array_equal(copy.categorical_codes("x")[1], numeric)


def test_a_numeric_column_read_as_categories_gives_minus_zero_and_zero_one_level():
    data = Dataset(outcome=[1.0, 2.0, 3.0, 4.0], arm=["a", "b", "a", "b"],
                   covariates={"x": [-0.0, 0.0, 1.0, -0.0]})
    levels, codes = data.categorical_codes("x")
    assert levels == ("0.0", "1.0")
    assert codes.tolist() == [0, 0, 1, 0]
    assert np.signbit(data.covariates["x"][0])  # the column itself is kept as given


def test_every_code_array_is_as_narrow_as_its_levels():
    n = 300
    data = Dataset(outcome=np.arange(n, dtype=float), arm=["abc"[i % 3] for i in range(n)],
                   covariates={"g": [f"g{i % 5}" for i in range(n)],
                               "x": np.arange(n) % 7 * 0.5},
                   period=np.arange(n) % 4)
    build_schema(data, ModelSpec(reference_arm="a", encodings={"x": "categorical"}))
    units = factorize([f"u{i}" for i in range(n)])
    for levels, codes in [(data.arm.levels, data.arm.codes), data.categorical_codes("g"),
                          data.categorical_codes("x"),
                          add_period_covariate(data).categorical_codes(PERIOD_COVARIATE),
                          (units.levels, units.codes)]:
        assert codes.dtype == np.min_scalar_type(len(levels))
    assert data.categorical_codes("g")[1].dtype == np.uint8
    assert units.codes.dtype == np.uint16


def test_period_levels_keep_their_string_order(tmp_path):
    # Periods 1, 2, 10 and 11 are coded by value but named and sorted as
    # strings, as before codes: "1" stays the reference period and the fit's
    # period columns keep their order. Sorting by number would change report
    # bits, so it is a change of its own.
    periods = [1, 2, 10, 11] * 6
    path = _write(tmp_path, "y,arm,u,t\n" + "".join(
        f"{i % 7}.5,{'ab'[i % 2]},u{i % 6},{t}\n" for i, t in enumerate(periods)))
    loaded = load_csv(path, {"outcome": "y", "arm": "arm", "unit_id": "u", "period": "t"})
    built = Dataset(outcome=loaded.outcome, arm=loaded.arm, unit_id=loaded.unit_id,
                    period=np.asarray(periods, dtype=np.uint8))
    for data in (loaded, built):
        with_period = add_period_covariate(data)
        levels, codes = with_period.categorical_codes(PERIOD_COVARIATE)
        assert levels == ("1", "10", "11", "2")
        assert [levels[c] for c in codes] == [str(t) for t in periods]
        schema = build_schema(with_period, ModelSpec(reference_arm="a"))
        assert schema.labels == ("intercept", "period=10", "period=11", "period=2", "arm=b",
                                 "period=10:arm=b", "period=11:arm=b", "period=2:arm=b")


def _coding_case(n=1500):
    """Rows whose label columns cross chunk boundaries: an arm first seen
    at row 1400; 300 unit ids, each first seen 5 rows after the last, so
    the codes widen from uint8 to uint16 at row 1280, in the second chunk of
    1,024 rows; 400 levels of ``g``, seen by row 1200 in an order that is
    not theirs; and a column ``x`` that turns to text at row 1300."""
    rows = []
    for i in range(n):
        arm = "late" if i >= 1400 and i % 5 == 0 else "ab"[i % 2]
        unit = f"u{299 - i // 5}"
        g = f"g{(7 * (i // 3)) % 400 if i < 1200 else (13 * i) % 400}"
        x = "n/a" if i == 1300 else f"{i % 9}.25"
        rows.append([f"{i % 13}.5", arm, unit, g, x])
    return rows


@pytest.mark.parametrize("chunk_rows", [1, 3, 1024])
def test_ingest_codes_equal_factorize_of_the_whole_column(tmp_path, chunk_rows):
    rows = _coding_case()
    column_map = {"outcome": "y", "arm": "arm", "unit_id": "u"}
    path = _write(tmp_path, "y,arm,u,g,x\n" + "".join(",".join(row) + "\n" for row in rows))
    with mock.patch.object(data_module, "CHUNK_ROWS", chunk_rows):
        data = load_csv(path, column_map)
        _assert_loads_like_reference(path, column_map)
    columns = {"arm": data.arm, "u": data.unit_id, "g": data.covariates["g"],
               "x": data.covariates["x"]}
    for k, (name, col) in enumerate(columns.items(), 1):
        want = factorize([row[k] for row in rows])
        assert col.levels == want.levels, name
        assert col.codes.dtype == want.codes.dtype and col.codes.tobytes() == want.codes.tobytes()
    assert [col.codes.dtype for col in columns.values()] == [np.uint8, np.uint16, np.uint16,
                                                             np.uint8]
    # A level that differs only in whitespace from one seen chunks earlier.
    rows[1450][2] = " u290"
    path = _write(tmp_path, "y,arm,u,g,x\n" + "".join(",".join(row) + "\n" for row in rows))
    with mock.patch.object(data_module, "CHUNK_ROWS", chunk_rows):
        with pytest.raises(ValueError) as info:
            load_csv(path, column_map)
    assert str(info.value) == ("unit_id labels ' u290' (row 1450) and 'u290' (row 45) "
                               "differ only in whitespace")


def _raising(exc):
    raise exc
    yield


def reference_load_csv(path, column_map):
    """The row-wise loader that the column-wise ``load_csv`` replaced: every
    cell goes through ``float()`` or ``int()`` on its own, in row order.
    Kept as the reference the streaming loader must match exactly. At a
    byte that is not UTF-8 it raises the ``UnicodeDecodeError`` of decoding
    the whole file after parsing the lines before that byte's line."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")  # its offsets count a byte-order mark
        lines = io.StringIO(raw.decode("utf-8-sig"), newline="")
    except UnicodeDecodeError as exc:
        head = io.StringIO(raw[:exc.start].decode("utf-8-sig"), newline="")
        lines = chain((line for line in head if line.endswith(("\n", "\r"))), _raising(exc))
    reader = filter(None, csv.reader(lines, strict=True))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"empty CSV file: {path}") from None
    rows = list(reader)

    if not rows:
        raise ValueError(f"CSV file has a header but no data rows: {path}")
    positions = {}
    for i, name in enumerate(header):
        positions.setdefault(name, []).append(i)
    for name, cols in positions.items():
        if len(cols) > 1:
            raise ValueError(f"duplicate CSV header {name!r} at columns {cols}")
    index = {name: cols[0] for name, cols in positions.items()}

    def col_idx(role, name):
        if name not in index:
            raise ValueError(f"{role} column {name!r} not found in CSV header {header}")
        return index[name]

    def parse_float(cell):
        try:
            return float(cell)
        except ValueError:
            return None

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
        val = parse_float(row[y_i])
        if val is None or not np.isfinite(val):
            raise ValueError(
                f"unparseable outcome cell at row {r}, column {outcome_name!r}: {row[y_i]!r}"
            )
        outcome[r] = val
    arm = np.asarray([row[arm_i] for row in rows], dtype=object)

    covariates = {}
    for name in cov_names:
        i = col_idx("covariate", name)
        cells = [row[i] for row in rows]
        parsed = [parse_float(c) for c in cells]
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
            except (ValueError, OverflowError):
                raise ValueError(
                    f"unparseable period cell at row {r}, column {period_name!r}: {cell!r}"
                ) from None

    return Dataset(outcome=outcome, arm=arm, covariates=covariates,
                   unit_id=unit_id, period=period)


FINITE = ["0", "1", "-2.5", "1e3", "1_000", " 7 ", "\t3.5", "+4"]
NONFINITE = ["nan", "inf", "-Infinity", "1e999"]
GARBAGE = ["x", "", "a,b", "two\nlines", 'say "hi"', "1.2.3", "1__0"]
INTEGERS = ["0", "1", "-3", " 4 ", "1_0", "9223372036854775807"]
BAD_INTEGERS = ["2.0", "t", "", "99999999999999999999", "-9223372036854775809"]
CELL_POOLS = {
    "numeric": FINITE,
    "nonfinite": FINITE * 2 + NONFINITE,
    "mixed": FINITE * 2 + NONFINITE + GARBAGE,
    "text": ["north", "south", "a,b", "two\nlines", " west "],
    "arm": ["a", "b"] * 3 + ["0", " a"],
    "unit": ["u1", "u2", "u3", "7"],
    "period": INTEGERS,
    "bad_period": INTEGERS * 2 + BAD_INTEGERS,
}


@st.composite
def csv_files(draw):
    """CSV text and a column map, covering the cases ingest must agree on:
    numeric, categorical and mixed columns, non-finite cells ahead of
    garbage, ``1_000`` and padded numbers, blank lines (before the header
    too), CRLF, quoted commas and newlines, a byte-order mark, a duplicate
    header, ragged rows and bad period cells."""
    pools = {"y": draw(st.sampled_from(["numeric"] * 3 + ["nonfinite", "mixed"])),
             "arm": "arm"}
    for i in range(draw(st.integers(0, 3))):
        pools[f"c{i}"] = draw(st.sampled_from(["numeric", "nonfinite", "mixed", "text"]))
    column_map = {"outcome": "y", "arm": "arm"}
    if draw(st.booleans()):
        pools["u"] = "unit"
        column_map["unit_id"] = "u"
    if draw(st.booleans()):
        pools["t"] = draw(st.sampled_from(["period", "bad_period"]))
        column_map["period"] = "t"
    covs = [name for name in pools if name.startswith("c")]
    if covs and draw(st.booleans()):
        column_map["covariates"] = draw(st.permutations(covs + ["missing"]))[:len(covs)]
    header = draw(st.permutations(list(pools)))
    if draw(st.integers(0, 7)) == 0:
        header.insert(draw(st.integers(0, len(header))), draw(st.sampled_from(header)))

    newline = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=newline)
    if draw(st.integers(0, 4)) == 0:
        buf.write(newline)
    writer.writerow(header)
    for r in range(draw(st.integers(2, 8))):
        # Odd rows draw from the pool rotated by one, so the simplest draw
        # still alternates arms "a" and "b".
        row = [draw(st.sampled_from(CELL_POOLS[pools[name]][r % 2:]
                                    + CELL_POOLS[pools[name]][:r % 2])) for name in header]
        ragged = draw(st.sampled_from([0] * 40 + [-1, 1]))
        if ragged < 0:
            row.pop()
        elif ragged > 0:
            row.append("1")
        writer.writerow(row)
        if draw(st.integers(0, 4)) == 0:
            buf.write(newline)
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + buf.getvalue(), column_map


def _load_or_error(load, path, column_map):
    try:
        return load(path, column_map)
    except Exception as exc:  # the two loaders must fail alike
        return exc


def _assert_same_array(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    if isinstance(a, LabelColumn) or isinstance(b, LabelColumn):
        assert a.levels == b.levels
        a, b = a.codes, b.codes
    assert a.dtype == b.dtype and a.shape == b.shape
    if a.dtype == object:
        assert a.tolist() == b.tolist()
    else:
        assert a.tobytes() == b.tobytes()


def _assert_loads_like_reference(path, column_map):
    _assert_same_load(_load_or_error(load_csv, path, column_map),
                      _load_or_error(reference_load_csv, path, column_map))


def _assert_same_load(got, want):
    """``got`` and ``want``, each a dataset or an error, are alike: the same
    columns, or an error of the same type and message."""
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
        return
    assert isinstance(got, Dataset), got
    for field in ("outcome", "arm", "unit_id", "period"):
        _assert_same_array(getattr(got, field), getattr(want, field))
    assert got.covariate_names == want.covariate_names
    for name in want.covariate_names:
        _assert_same_array(got.covariates[name], want.covariates[name])


def _check_case(case):
    text, column_map = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        _assert_loads_like_reference(path, column_map)


@settings(max_examples=400, deadline=None)
@given(csv_files())
def test_load_csv_matches_row_wise_reference(case):
    _check_case(case)


@pytest.mark.parametrize("chunk_rows", [1, 3])
@settings(max_examples=400, deadline=None)
@given(csv_files())
def test_load_csv_matches_row_wise_reference_across_chunks(chunk_rows, case):
    # The 2-8 data rows span up to eight chunks, so conversions, errors and
    # columns that turn categorical late all cross chunk boundaries.
    with mock.patch.object(data_module, "CHUNK_ROWS", chunk_rows):
        _check_case(case)


def _numpy_cell(cell, dtype):
    """What load_csv's numpy reader reads from ``cell`` in a field of
    ``dtype``, or None if it leaves the cell to the csv reader."""
    rows = data_module._numpy_rows([f"{cell},0\n"], np.dtype([("", dtype), ("", np.int64)]))
    return None if rows is None else rows[0][0]


def _halfway(x, above):
    """The exact decimal halfway between the double ``x`` and the next one
    up, or a digit above it: the cells a parse rounds wrongly if any."""
    with localcontext() as ctx:
        ctx.prec = 1100
        text = format((Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2, "f")
    if above:
        text += ("" if "." in text else ".") + "0001"
    return text


NUMBER_PARTS = [*"0123456789", "+", "-", ".", "e", "E", "_", " ", "\t", "\x0b", "\xa0",
                "\u2003", "١٢", "１", "nan", "NaN", "-nan", "inf", "-Inf",
                "Infinity", "iNfInItY", "1e999", "0x1", "1j"]
EDGE_NUMBERS = ["9007199254740993", "9007199254740993.000000000000000000001",
                "2.2250738585072011e-308", "2.4703282292062327e-324",
                "2.4703282292062328e-324", "1.7976931348623158e308", "1.7976931348623159e308",
                "1e23", "0.1", "-0", "00", "+0.0e0", "9223372036854775807",
                "9223372036854775808", "-9223372036854775808", "-9223372036854775809"]
number_cells = st.one_of(
    st.lists(st.sampled_from(NUMBER_PARTS), max_size=8).map("".join),
    # 17 to 25 significant digits: more than a double holds.
    st.builds(lambda sign, digits, point, exp: f"{sign}{digits[:point]}.{digits[point:]}{exp}",
              st.sampled_from(["", "-", "+"]), st.text("0123456789", min_size=17, max_size=25),
              st.integers(0, 25), st.sampled_from(["", "e5", "e-300", "E+22", "e-320"])),
    st.builds(_halfway, st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300,
                                  max_value=1e300), st.booleans()),
    st.sampled_from(EDGE_NUMBERS))


@settings(max_examples=600, deadline=None)
@given(number_cells)
def test_numpy_reads_a_number_as_float_and_int_do(cell):
    # Whatever number numpy's reader takes, float() or int() takes too, to
    # the same bits; what numpy refuses, the csv reader parses, in the one
    # pass over the file.
    as_float = _numpy_cell(cell, np.float64)
    if as_float is not None:
        assert np.float64(float(cell)).tobytes() == as_float.tobytes(), cell
    as_int = _numpy_cell(cell, np.int64)
    if as_int is not None:
        assert int(cell) == as_int, cell
    column_map = {"outcome": "y", "arm": "arm", "period": "t"}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(f"y,arm,x,t\n1,a,1,1\n2,b,{cell},{cell}\n", encoding="utf-8")
        with mock.patch.object(data_module, "CHUNK_ROWS", 1):
            with mock.patch.object(data_module, "open", create=True, wraps=open) as opened:
                got = _load_or_error(load_csv, path, column_map)
            _assert_loads_like_the_csv_reader(path, column_map)
    # Opened again only to code x as labels, where the cell is text.
    assert opened.call_count == 1 + (isinstance(got, Dataset) and not got.is_numeric("x"))


def _assert_loads_like_the_csv_reader(path, column_map):
    """load_csv reads ``path`` as it does with numpy's reader refusing every
    chunk, and so the csv reader parsing them all, and as the row-wise
    reference does: the same columns, or the same error. A csv or decoding
    error of the reference is load_csv's malformed record or byte that is
    not UTF-8."""
    got = _load_or_error(load_csv, path, column_map)
    with mock.patch.object(np, "loadtxt", side_effect=ValueError):
        _assert_same_load(got, _load_or_error(load_csv, path, column_map))
    want = _load_or_error(reference_load_csv, path, column_map)
    if isinstance(want, csv.Error):
        assert str(got).startswith("malformed CSV record at data row "), got
    elif isinstance(want, UnicodeDecodeError):
        byte = want.object[want.start]
        assert str(got).startswith(f"{path} is not UTF-8: byte {byte:#04x} "), got
        assert str(got).endswith(f", byte offset {want.start} ({want.reason})"), got
    else:
        _assert_same_load(got, want)


def _clean_row(i, period):
    return [f"{i % 7}.5", "ab"[i % 2], f"{i % 5}.25", f"g{i % 3}"] + [str(i % 4)] * period


# Cells that numpy's reader would read otherwise than the csv reader and
# float() or int() do, or that it refuses. "\udce9" is written as the byte
# 0xe9, which is not UTF-8.
RAW_CELLS = ['"a"b', 'a"b', '"a" ', '"a', '""', '"1"', '"two\nlines"', '"x\r\ny"', "1_000",
             "n/a", "caf\udce9", "nan", "-inf", "1e999", "", " ", "7 "]


@st.composite
def raw_csv_tails(draw):
    """Rows written as raw text, not through ``csv.writer``, to follow the
    clean rows of a file's first chunk: quotes anywhere, a quoted newline,
    ``1_000``, text in a numeric column, ragged rows, blank and
    whitespace-only lines and a byte that is not UTF-8. Returns the number
    of clean rows to add to the first chunk's, the line break, the raw text
    and the column map."""
    period = draw(st.booleans())
    column_map = {"outcome": "y", "arm": "arm", **({"period": "t"} if period else {})}
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for r in range(draw(st.integers(1, 6))):
        row = _clean_row(r, period)
        fault = draw(st.sampled_from(["none"] * 3 + ["cell", "ragged", "line"]))
        if fault == "cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(RAW_CELLS))
        elif fault == "ragged":
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        elif fault == "line":
            lines.append(draw(st.sampled_from(["", " ", "\t", "  ,  "])))
        lines.append(",".join(row))
    tail = newline.join(lines) + (newline if draw(st.booleans()) else "")
    return draw(st.integers(0, 2)), newline, tail, column_map


@pytest.mark.parametrize("chunk_rows", [1, 3, data_module.CHUNK_ROWS])
@settings(max_examples=150, deadline=None)
@given(raw_csv_tails())
def test_raw_text_after_the_first_chunk_loads_as_the_csv_reader_reads_it(chunk_rows, case):
    lead, newline, tail, column_map = case
    header = "y,arm,x,g" + (",t" if "period" in column_map else "")
    head = "".join(",".join(_clean_row(i, "period" in column_map)) + newline
                   for i in range(chunk_rows + lead))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes((header + newline + head + tail).encode("utf-8", "surrogateescape"))
        with mock.patch.object(data_module, "CHUNK_ROWS", chunk_rows):
            _assert_loads_like_the_csv_reader(path, column_map)


def test_later_chunks_of_a_quote_free_file_are_read_by_numpy(tmp_path):
    column_map = {"outcome": "y", "arm": "arm"}
    chunk_rows = data_module.CHUNK_ROWS
    path = _experiment_csv(tmp_path, 8 * chunk_rows + 5)
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
        data = load_csv(path, column_map)
    assert spy.call_count == 9  # eight whole chunks and the five rows left
    _assert_loads_like_reference(path, column_map)
    # One quoted cell in the last row, read as the same cell. The quote is
    # seen with the read that holds it (io.TextIOWrapper reads 8 KB at a
    # time): numpy parses the chunks that end before that read, the first
    # too, and the csv reader the rest.
    text = path.read_text(encoding="utf-8")
    cut = text.rindex("\n", 0, -1) + 1
    last = text[cut:].split(",")
    path.write_text(text[:cut] + ",".join([last[0], f'"{last[1]}"', *last[2:]]),
                    encoding="utf-8")
    raw = path.read_bytes()
    ends = np.cumsum([len(line) for line in raw.splitlines(keepends=True)])
    read_start = raw.index(b'"') // 8192 * 8192
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
        quoted = load_csv(path, column_map)
    assert spy.call_count == np.sum(ends[chunk_rows::chunk_rows] <= read_start) > 1
    _assert_same_load(quoted, data)


def test_rows_that_fill_the_last_chunk_leave_no_warning(tmp_path):
    # numpy's reader warns where a chunk finds no row left, and at each
    # blank line it skips; neither is the caller's to see.
    n = 2 * data_module.CHUNK_ROWS
    lines = [f"{i % 7}.5,{'ab'[i % 2]},{i % 5}\n" for i in range(n)]
    lines.insert(n - 3, "\n")
    path = _write(tmp_path, "y,arm,x\n" + "".join(lines))
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data = load_csv(path, {"outcome": "y", "arm": "arm"})
    assert [str(w.message) for w in caught] == []
    assert spy.call_count == 3 and data.n == n


def test_load_csv_skips_blank_lines_before_the_header(tmp_path):
    path = _write(tmp_path, "\n\r\ny,arm,x\n1,a,0.5\n\n2,b,1.5\n")
    data = load_csv(path, {"outcome": "y", "arm": "arm"})
    assert data.outcome.tolist() == [1.0, 2.0]
    assert data.covariates["x"].tolist() == [0.5, 1.5]
    _assert_loads_like_reference(path, {"outcome": "y", "arm": "arm"})
    path = _write(tmp_path, "\n\n")
    with pytest.raises(ValueError, match="^empty CSV file: "):
        load_csv(path, {"outcome": "y", "arm": "arm"})


def test_a_chunk_numpy_refuses_leaves_the_chunks_after_it_to_numpy(tmp_path):
    # A 1_000 outcome, which numpy refuses, in the second of four chunks: the
    # csv reader parses that chunk, numpy the one before it and the two after
    # it, in one pass over the file.
    chunk_rows = data_module.CHUNK_ROWS
    path = _experiment_csv(tmp_path, 3 * chunk_rows + 5)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = chunk_rows + 9
    lines[row + 1] = "1_000," + lines[row + 1].split(",", 1)[1]
    path.write_text("".join(lines), encoding="utf-8")
    column_map = {"outcome": "y", "arm": "arm"}
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy, \
            mock.patch.object(data_module, "open", create=True, wraps=open) as opened:
        data = load_csv(path, column_map)
    assert opened.call_count == 1
    assert [len(call.args[0]) for call in spy.call_args_list] == [chunk_rows] * 3 + [5]
    assert data.outcome[row] == 1000.0
    _assert_loads_like_reference(path, column_map)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="makes a FIFO")
def test_a_fifo_is_read_by_numpy(tmp_path):
    column_map = {"outcome": "y", "arm": "arm"}
    path = _experiment_csv(tmp_path, 3 * data_module.CHUNK_ROWS + 5)
    data = load_csv(path, column_map)
    fifo = tmp_path / "data.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
    writer.start()
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
        piped = load_csv(fifo, column_map)
    writer.join(timeout=60)
    assert spy.call_count == 4
    _assert_same_load(piped, data)
    assert piped.digest == data.digest


def _fixed_width_lines(n):
    """A 32-byte header line and ``n`` 32-byte data lines: data line 2047
    starts at byte 65,536."""
    header = "g,y,arm," + "x" * 23 + "\n"
    return [header] + [f"g{i % 3},{i % 7}.5,{'ab'[i % 2]},{i % 5}.25".ljust(31, "0") + "\n"
                       for i in range(n)]


def test_a_quoted_cell_across_a_chunk_boundary_after_chunks_numpy_read(tmp_path):
    # In chunks of 64 lines, data line 2047 ends the 32nd chunk. Its cell
    # opens a quote, at byte 65,536, which no read of the lines before it
    # reaches: numpy parses the 31 chunks before the one it ends, and the csv
    # reader reads on from the 32nd, across its end.
    column_map = {"outcome": "y", "arm": "arm"}
    lines = _fixed_width_lines(2100)
    lines[2048] = '"g\nq"' + lines[2048][2:]
    path = _write(tmp_path, "".join(lines))
    with mock.patch.object(data_module, "CHUNK_ROWS", 64):
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
            data = load_csv(path, column_map)
        assert spy.call_count == 31
        assert labels(data.covariates["g"])[2046:2049].tolist() == ["g0", "g\nq", "g2"]
        _assert_loads_like_the_csv_reader(path, column_map)
        # Left open, the quote is named at the data row where its record starts.
        lines[2048] = lines[2048].replace('"g\nq"', '"g')
        path = _write(tmp_path, "".join(lines))
        with pytest.raises(ValueError) as info:
            load_csv(path, column_map)
    assert str(info.value) == (
        f"malformed CSV record at data row 2047 of {path}: unexpected end of data")


@pytest.mark.parametrize("chunk_rows", [data_module.CHUNK_ROWS, 4096])
def test_a_malformed_record_wins_over_a_later_byte_that_is_not_utf8(tmp_path, chunk_rows):
    # A malformed cell after byte 65,536, and a byte that is not UTF-8 some
    # 28 KB on: in chunks of 4,096 lines, both in the first chunk, whose
    # reading that byte stops. The csv reader still parses the lines before
    # it first, as a reader of the whole file does.
    lines = _fixed_width_lines(3000)
    lines[2101] = '"g"' + lines[2101][1:-3] + "\n"  # "g"1, still 32 bytes
    raw = "".join(lines).encode()
    path = tmp_path / "data.csv"
    path.write_bytes(raw[:32 * 3000] + b"\xff" + raw[32 * 3000 + 1:])
    column_map = {"outcome": "y", "arm": "arm"}
    with mock.patch.object(data_module, "CHUNK_ROWS", chunk_rows):
        with pytest.raises(ValueError) as info:
            load_csv(path, column_map)
        _assert_loads_like_the_csv_reader(path, column_map)
    assert str(info.value) == (
        f"malformed CSV record at data row 2100 of {path}: ',' expected after '\"'")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /dev/stdin")
def test_a_pipe_is_read_whole(tmp_path):
    path = _experiment_csv(tmp_path, 3 * data_module.CHUNK_ROWS + 5)
    data = load_csv(path, {"outcome": "y", "arm": "arm"})
    assert _load_from_a_pipe(path.read_bytes()).split() == [str(data.n), data.digest]
    assert data.n == 3 * data_module.CHUNK_ROWS + 5


def _load_from_a_pipe(raw: bytes) -> str:
    """What ``load_csv('/dev/stdin')`` prints in a child whose stdin is a
    pipe that carries ``raw``: the dataset's row count and digest, or the
    message of the ``ValueError`` the load raised."""
    code = textwrap.dedent("""\
        from effect_engine.data import load_csv
        try:
            data = load_csv("/dev/stdin", {"outcome": "y", "arm": "arm"})
        except ValueError as exc:
            print(exc)
        else:
            print(data.n, data.digest)
        """)
    proc = subprocess.run([sys.executable, "-c", code], input=raw, env=cli_env(),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.decode()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /dev/stdin")
def test_a_covariate_that_turns_to_text_from_a_pipe_is_refused_naming_its_cell(tmp_path):
    # Coding such a column as labels reads the file again, which a pipe
    # cannot give; from disk the same rows load.
    n = data_module.CHUNK_ROWS + 77
    lines = [f"{i % 7}.5,{'ab'[i % 2]},{i % 5}\n" for i in range(n)]
    lines[n - 7] = f"{n - 7}.5,a,n/a\n"
    path = _write(tmp_path, "y,arm,x\n" + "".join(lines))
    data = load_csv(path, {"outcome": "y", "arm": "arm"})
    assert data.covariates["x"].levels == ("0", "1", "2", "3", "4", "n/a")
    assert _load_from_a_pipe(path.read_bytes()) == (
        f"unparseable covariate cell at row {n - 7}, column 'x': 'n/a', after rows that "
        "read as numbers: /dev/stdin is not a regular file, so it cannot be read again to "
        "code the column as labels\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /dev/stdin")
def test_a_byte_that_is_not_utf8_from_a_pipe_is_named_as_from_the_file(tmp_path):
    # The first bad byte is named, at its data row and its offset in the
    # stream, as it is from the file: the second is never read.
    raw = ("y,arm\n" + "".join(f"{i}.5,{'ab'[i % 2]}\n" for i in range(3000))).encode()
    piped = raw + b"1.5,\xff\n" + raw[6:] + b"2.5,\xfe\n" + raw[6:]
    path = tmp_path / "data.csv"
    path.write_bytes(piped)
    message = (f"is not UTF-8: byte 0xff at data row 3000, byte offset {len(raw) + 4} "
               "(invalid start byte)")
    with pytest.raises(ValueError) as info:
        load_csv(path, {"outcome": "y", "arm": "arm"})
    assert str(info.value) == f"{path} {message}"
    assert _load_from_a_pipe(piped) == f"/dev/stdin {message}\n"
    # A malformed record in the same read before the bad byte wins.
    assert _load_from_a_pipe(b'y,arm\n1,"a"b\n2,b\n3,\xff\n') == (
        "malformed CSV record at data row 0 of /dev/stdin: ',' expected after '\"'\n")


class _ShortReads(io.RawIOBase):
    """The binary file ``raw``, read at most ``size`` bytes at a time, as a
    pipe may give it."""

    def __init__(self, raw, size):
        self._raw, self._size = raw, size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        return self._raw.readinto(memoryview(buffer)[:self._size])

    def close(self):
        self._raw.close()
        super().close()


# Bytes that are not UTF-8, and what load_csv says of them: a record left
# open across the bad byte's line; a sequence cut off by the end of the
# file; a lead byte whose continuation is a newline or an ASCII byte, which
# short reads bring in the read after it; offsets that count a byte-order
# mark; a bad byte in the header; lines that end in a bare carriage return,
# also right before the bad byte or a cut-off sequence; and, before a bad
# byte, a malformed record, whose data row an int names; and a malformed
# record on the bad byte's own line, which is never parsed, so the byte wins.
NOT_UTF8 = [
    (b'y,arm\n1,a\n2,"b\n\xc3"\n3,a\n',
     "byte 0xc3 at data row 1, byte offset 15 (invalid continuation byte)"),
    (b"y,arm\n1,a\n\n2,b\n3,a\xe2\x82",
     "byte 0xe2 at data row 2, byte offset 18 (unexpected end of data)"),
    (b'y,arm\n1,a\n2,"b\n\n"\n3,a\n4,\xf0\x9f\x98\n',
     "byte 0xf0 at data row 3, byte offset 24 (invalid continuation byte)"),
    (b"y,arm\r\n1,a\r\n2,b\xe2\x82(\r\n",
     "byte 0xe2 at data row 1, byte offset 15 (invalid continuation byte)"),
    (b"\xef\xbb\xbfy,arm\n1,a\n2,\xffb\n",
     "byte 0xff at data row 1, byte offset 15 (invalid start byte)"),
    (b"\xef\xbb\xbfy,\xe9arm\n1,a\n2,b\n",
     "byte 0xe9 in the header, byte offset 5 (invalid continuation byte)"),
    (b"y,arm\r1,a\r2,b\r3,\xff\r",
     "byte 0xff at data row 2, byte offset 16 (invalid start byte)"),
    (b"y,arm\r1,a\r2,b\r\xff,a\r",
     "byte 0xff at data row 2, byte offset 14 (invalid start byte)"),
    (b"y,arm\r1,a\r2,b\r\xe2\x82",
     "byte 0xe2 at data row 2, byte offset 14 (unexpected end of data)"),
    (b'y,arm\n1,"a"b\n2,b\n3,\xff\n', 0),
    (b'y,arm\r1,"a"b\r2,b\r3,\xff\r', 0),
    (b'y,arm\r1,a\r2,"b"c\r\xff,a\r', 1),
    (b'y,arm\n1,"a"b\xff\n2,b\n',
     "byte 0xff at data row 0, byte offset 12 (invalid start byte)"),
]


@pytest.mark.parametrize("raw, message", NOT_UTF8, ids=[
    "open-record", "cut-off", "quoted-blank-line", "crlf", "bom", "header", "bare-cr",
    "bare-cr-before", "bare-cr-cut-off", "malformed-first", "malformed-first-bare-cr",
    "malformed-bare-cr-before", "malformed-same-line"])
def test_a_byte_that_is_not_utf8_is_named_in_the_one_read_whatever_the_read_sizes(
        tmp_path, raw, message):
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    column_map = {"outcome": "y", "arm": "arm"}
    want = (f"{path} is not UTF-8: {message}" if isinstance(message, str) else
            f"malformed CSV record at data row {message} of {path}: ',' expected after '\"'")
    for chunk_rows, size in [(1, 1), (1, 2), (2, 3), (1, 5), (2, 8), (1024, 1 << 16)]:
        with mock.patch.object(data_module, "CHUNK_ROWS", chunk_rows), \
                mock.patch.object(data_module, "open", create=True,
                                  side_effect=lambda *args, **kw: _ShortReads(open(*args, **kw),
                                                                              size)) as opened:
            with pytest.raises(ValueError) as info:
                load_csv(path, column_map)
            assert str(info.value) == want, (chunk_rows, size)
            assert opened.call_count == 1
            _assert_loads_like_the_csv_reader(path, column_map)


# Bytes that are not UTF-8, with the decoder's reason; none is part of a
# character the drawn tables hold, so ``raw.index`` finds the one put in.
BAD_BYTES = [(b"\xff", "invalid start byte"), (b"\x80", "invalid start byte"),
             (b"\xf0\x9f", "invalid continuation byte")]


@st.composite
def tables_with_a_fault(draw):
    """A small table of a numeric outcome, a label arm, a numeric covariate
    and a label covariate, as lines of cells, None for a blank line; and
    one fault to put in: None, ``("bad", line, column, bytes, reason)`` or
    ``("malformed", line, cell)``, ``line`` counting the header as 0 and
    skipping blank lines."""
    numbers = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    words = st.text("abé€ß", min_size=1, max_size=3)
    rows = draw(st.lists(st.tuples(numbers, words, numbers, words), min_size=2, max_size=6))
    # Arm labels start a or b by turns, so there are two arms.
    records = [("y", "arm", "x", "g"), *((y, "ab"[i % 2] + arm, x, g)
                                         for i, (y, arm, x, g) in enumerate(rows))]
    lines = list(records)
    for at in draw(st.lists(st.integers(0, len(lines)), max_size=2)):
        lines.insert(at, None)
    kind = draw(st.sampled_from(["bad", "malformed", None]))
    line = draw(st.integers(0, len(records) - 1))
    if kind == "bad":
        return lines, ("bad", line, draw(st.integers(0, 40)), *draw(st.sampled_from(BAD_BYTES)))
    if kind == "malformed":
        return lines, ("malformed", line, draw(st.integers(0, 3)))
    return lines, None


def _variant_bytes(lines, fault, newline, bom, quoted):
    """``lines`` written with ``newline`` line ends, behind a byte-order mark
    if ``bom``, every cell quoted if ``quoted``, and ``fault`` put in."""
    out, record = [b"\xef\xbb\xbf" if bom else b""], -1
    for cells in lines:
        if cells is None:
            out.append(newline)
            continue
        record += 1
        cells = [f'"{cell}"' if quoted else cell for cell in cells]
        if fault and fault[0] == "malformed" and fault[1] == record:
            cells[fault[2]] = '"a"b'
        text = ",".join(cells)
        if fault and fault[0] == "bad" and fault[1] == record:
            column = fault[2] % (len(text) + 1)
            out.append(text[:column].encode() + fault[3] + text[column:].encode() + newline)
        else:
            out.append(text.encode() + newline)
    return b"".join(out)


def _pipe_carrying(raw: bytes):
    """The read end of an in-process pipe that a thread fills with ``raw``
    and closes, and that thread."""
    read_fd, write_fd = os.pipe()

    def write():
        with open(write_fd, "wb", buffering=0) as end:
            try:
                end.write(raw)
            except BrokenPipeError:  # the load stopped reading at an error
                pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return open(read_fd, "rb", buffering=0), writer


@settings(max_examples=60, deadline=None)
@given(tables_with_a_fault(), st.sampled_from([1, 2, 3, 5, 8, 1 << 16]))
def test_a_table_loads_the_same_in_every_line_end_quoting_bom_source_and_chunking(case, size):
    # Every variant of one table loads the same columns, bit for bit; with a
    # fault put in, every variant gives the same message, whose byte offset
    # is that of the bad byte in the variant's own bytes.
    lines, fault = case
    column_map = {"outcome": "y", "arm": "arm"}
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        for newline, bom, quoted in product([b"\n", b"\r\n", b"\r"], [False, True],
                                            [False, True]):
            raw = _variant_bytes(lines, fault, newline, bom, quoted)
            path.write_bytes(raw)
            for piped, chunk_rows in product([False, True], [1, 2, 1024]):
                writers = []

                def opened(*args, **kw):
                    if not piped:
                        return _ShortReads(open(*args, **kw), size)
                    end, writer = _pipe_carrying(raw)
                    writers.append(writer)
                    return _ShortReads(end, size)

                with mock.patch.object(data_module, "CHUNK_ROWS", chunk_rows), \
                        mock.patch.object(data_module, "open", create=True, side_effect=opened):
                    loaded = _load_or_error(load_csv, path, column_map)
                for writer in writers:
                    writer.join(timeout=60)
                    assert not writer.is_alive()
                variant = (newline, bom, quoted, piped, chunk_rows)
                if isinstance(loaded, Dataset):
                    assert fault is None, variant
                    assert loaded.digest == "sha256:" + hashlib.sha256(raw).hexdigest()
                elif fault and fault[0] == "bad":
                    message = str(loaded)
                    offset = f"byte offset {raw.index(fault[3])} ("
                    assert offset in message, (variant, message)
                    loaded = ValueError(message.replace(offset, "byte offset ? ("))
                got[variant] = loaded
        want = got[b"\n", False, False, False, 1024]
        if fault is None:
            assert isinstance(want, Dataset), want
            outcome = [float(cells[0]) for cells in [*filter(None, lines)][1:]]
            assert want.outcome.tobytes() == np.array(outcome).tobytes()
        else:
            where = f"at data row {fault[1] - 1}" if fault[1] else "in the header"
            assert str(want) == (
                f"{path} is not UTF-8: byte {fault[3][0]:#04x} {where}, byte offset ? "
                f"({fault[4]})" if fault[0] == "bad" else
                f"malformed CSV record {where} of {path}: ',' expected after '\"'")
        for variant, loaded in got.items():
            try:
                _assert_same_load(loaded, want)
            except AssertionError as exc:
                raise AssertionError(f"variant {variant}: {loaded!r}") from exc


# Each variant is read on another path of load_csv: numpy's reader, the csv
# reader (a quote), a chunk numpy refuses and the csv reader parses (1_000),
# a covariate read again for its labels, rows that fill the last chunk.
@pytest.mark.parametrize("variant", ["numpy", "quoted", "bom", "refused", "reread", "filled"])
def test_the_digest_is_the_sha256_of_the_bytes_of_the_file(tmp_path, variant):
    n = 2 * data_module.CHUNK_ROWS + (0 if variant == "filled" else 7)
    lines = [f"{i % 7}.5,{'ab'[i % 2]},{i % 5}\n" for i in range(n)]
    lines[n - 3] = {"quoted": '"1.5",a,1\n', "refused": "1_000,a,1\n",
                    "reread": "1.5,a,n/a\n"}.get(variant, lines[n - 3])
    raw = (("\ufeff" if variant == "bom" else "") + "y,arm,x\n" + "".join(lines)).encode()
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    data = load_csv(path, {"outcome": "y", "arm": "arm"})
    assert data.n == n
    assert data.digest == "sha256:" + hashlib.sha256(raw).hexdigest()


def test_a_cell_over_the_csv_field_limit_in_a_later_chunk_is_malformed(tmp_path):
    # numpy's reader has no field limit, so a line long enough to hold a
    # cell over it leaves the rest of the file to the csv reader.
    lines = [f"{i}.5,{'ab'[i % 2]}\n" for i in range(8)]
    lines[6] = "6.5," + "b" * 40 + "\n"
    path = _write(tmp_path, "y,arm\n" + "".join(lines))
    limit = csv.field_size_limit(32)
    try:
        with mock.patch.object(data_module, "CHUNK_ROWS", 2), pytest.raises(ValueError) as info:
            load_csv(path, {"outcome": "y", "arm": "arm"})
    finally:
        csv.field_size_limit(limit)
    assert str(info.value) == (f"malformed CSV record at data row 6 of {path}: "
                               "field larger than field limit (32)")


def test_load_csv_column_in_two_roles_rejected(tmp_path):
    # Called directly, as a library function, it must not regress y on y.
    path = _write(tmp_path, "y,arm,x\n1,0,1\n3,0,2\n4,1,1\n6,1,2\n")
    with pytest.raises(ValueError) as info:
        load_csv(path, {"outcome": "y", "arm": "arm", "covariates": ["x", "y"]})
    assert str(info.value) == ("column 'y' is named as outcome and covariates[1]; "
                               "each column may have one role")
    with pytest.raises(ValueError, match="'arm' is named as arm and period"):
        load_csv(path, {"outcome": "y", "arm": "arm", "period": "arm"})

"""Dataset container and CSV ingestion."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from effect_engine.data import Dataset, add_period_covariate, load_csv


def test_arm_labels_coerced_to_strings():
    data = Dataset(outcome=[1.0, 2.0, 3.0], arm=[0, 1, 1])
    assert data.arm.tolist() == ["0", "1", "1"]
    assert data.arms == ("0", "1")
    assert_array_equal(data.arm_mask(1), [False, True, True])


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
    assert data.covariates["grade"].dtype == object
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


def test_from_records_roundtrip():
    records = [
        {"outcome": 1.0, "arm": "a", "covariates": {"x": 0.5}, "unit_id": "u1", "period": 0},
        {"outcome": 2.0, "arm": "b", "covariates": {"x": 1.5}, "unit_id": "u2", "period": 1},
    ]
    data = Dataset.from_records(records)
    assert_array_equal(data.outcome, [1.0, 2.0])
    assert data.arm.tolist() == ["a", "b"]
    assert_array_equal(data.covariates["x"], [0.5, 1.5])
    assert data.unit_id.tolist() == ["u1", "u2"]
    assert data.period.tolist() == [0, 1]


def test_from_records_covariate_sets_must_match():
    records = [
        {"outcome": 1.0, "arm": "a", "covariates": {"x": 0.5}},
        {"outcome": 2.0, "arm": "b", "covariates": {"z": 1.5}},
    ]
    with pytest.raises(ValueError, match="row 1 covariate names"):
        Dataset.from_records(records)


def test_from_records_partial_unit_id_rejected():
    records = [
        {"outcome": 1.0, "arm": "a", "unit_id": "u1"},
        {"outcome": 2.0, "arm": "b"},
    ]
    with pytest.raises(ValueError, match="unit_id present in some rows"):
        Dataset.from_records(records)


def test_from_records_empty():
    with pytest.raises(ValueError, match="no records"):
        Dataset.from_records([])


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
    assert data.unit_id.tolist() == ["u1", "u2"]
    assert data.period.tolist() == [0, 1]


def test_load_csv_categorical_column(tmp_path):
    path = _write(tmp_path, "y,arm,site\n1.0,0,north\n2.0,1,south\n")
    data = load_csv(path, {"outcome": "y", "arm": "arm"})
    assert not data.is_numeric("site")
    assert data.covariates["site"].tolist() == ["north", "south"]


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


def test_load_csv_missing_column(tmp_path):
    path = _write(tmp_path, "y,arm\n1.0,0\n2.0,1\n")
    with pytest.raises(ValueError, match="outcome column 'score' not found"):
        load_csv(path, {"outcome": "score", "arm": "arm"})


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


def test_add_period_covariate():
    data = Dataset(
        outcome=[1.0, 2.0, 3.0, 4.0],
        arm=["a", "b", "a", "b"],
        period=[0, 0, 1, 1],
    )
    with_period = add_period_covariate(data)
    assert "period" in with_period.covariates
    assert not with_period.is_numeric("period")
    assert with_period.covariates["period"].tolist() == ["0", "0", "1", "1"]


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
    # Copies start with an empty cache and encode their own columns.
    copy = dataclasses.replace(data)
    assert copy.categorical_codes("g")[1] is not codes
    assert_array_equal(copy.categorical_codes("g")[1], codes)

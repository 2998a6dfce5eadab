"""Predicate parsing and row-mask resolution."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from effect_engine.data import Dataset
from effect_engine.predicates import Clause, Predicate, parse_predicate, resolve_mask


def sample_data():
    return Dataset(
        outcome=[1.0, 2.0, 3.0, 4.0],
        arm=["a", "b", "a", "b"],
        covariates={"x": [0.5, 1.5, 2.5, 3.5], "grade": ["4", "9", "4", "10"]},
        period=[0, 0, 1, 1],
    )


def test_parse_single_clause():
    pred = parse_predicate("x >= 2")
    assert pred.clauses == (Clause(column="x", op=">=", literal="2"),)
    assert_array_equal(pred.mask(sample_data()), [False, False, True, True])


def test_parse_conjunction():
    pred = parse_predicate("x >= 1 and grade == 4")
    assert len(pred.clauses) == 2
    assert pred.describe() == "x >= 1 and grade == 4"
    assert_array_equal(pred.mask(sample_data()), [False, False, True, False])


def test_bare_numeric_literal_matches_categorical_level():
    # "grade == 4" must select the level "4", not the rendering of float 4.0.
    pred = parse_predicate("grade == 4")
    assert_array_equal(pred.mask(sample_data()), [True, False, True, False])


def test_quoted_literal_stays_string():
    pred = parse_predicate("grade == '10'")
    assert pred.clauses[0].literal == "10"
    assert_array_equal(pred.mask(sample_data()), [False, False, False, True])
    double = parse_predicate('grade != "4"')
    assert_array_equal(double.mask(sample_data()), [False, True, False, True])


def test_float_literal_on_numeric_column():
    pred = parse_predicate("x < 1.5")
    assert_array_equal(pred.mask(sample_data()), [True, False, False, False])


def test_period_is_queryable():
    pred = parse_predicate("period == 1")
    assert_array_equal(pred.mask(sample_data()), [False, False, True, True])


def test_ordering_operator_on_categorical_rejected():
    pred = parse_predicate("grade < 9")
    with pytest.raises(ValueError, match="ordering operator '<' requires a numeric"):
        pred.mask(sample_data())


def test_non_numeric_literal_on_numeric_column_rejected():
    pred = parse_predicate("x == low")
    with pytest.raises(ValueError, match="literal 'low' is not numeric"):
        pred.mask(sample_data())


def test_unknown_column_rejected():
    with pytest.raises(ValueError, match="unknown predicate column 'bogus'"):
        parse_predicate("bogus == 1").mask(sample_data())


def test_parse_errors():
    with pytest.raises(ValueError, match="empty predicate"):
        parse_predicate("   ")
    with pytest.raises(ValueError, match="cannot parse predicate clause"):
        parse_predicate("x ~ 3")
    with pytest.raises(ValueError, match="cannot parse predicate clause"):
        parse_predicate("x >=")


def test_unknown_operator_rejected():
    with pytest.raises(ValueError, match="unknown operator '~'"):
        Clause(column="x", op="~", literal=1.0)


def test_empty_predicate_selects_everything():
    pred = Predicate()
    assert pred.describe() == "true"
    assert_array_equal(pred.mask(sample_data()), [True, True, True, True])


def test_resolve_mask_forms():
    data = sample_data()
    assert_array_equal(resolve_mask(data, None), [True, True, True, True])
    assert_array_equal(resolve_mask(data, "x > 2"), [False, False, True, True])
    assert_array_equal(
        resolve_mask(data, parse_predicate("x > 2")), [False, False, True, True]
    )
    assert_array_equal(
        resolve_mask(data, np.array([True, False, True, False])),
        [True, False, True, False],
    )
    assert_array_equal(
        resolve_mask(data, [True, False, True, False]), [True, False, True, False]
    )
    with pytest.raises(TypeError, match="unsupported predicate type function"):
        resolve_mask(data, lambda row: row["x"] > 2)


def test_resolve_mask_validates_arrays():
    data = sample_data()
    with pytest.raises(ValueError, match="length-n boolean array"):
        resolve_mask(data, np.array([True, False]))
    with pytest.raises(ValueError, match="length-n boolean array"):
        resolve_mask(data, np.array([1, 0, 1, 0]))
    with pytest.raises(TypeError, match="unsupported predicate type"):
        resolve_mask(data, 3.5)

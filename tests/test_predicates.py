"""Predicate parsing and row-mask resolution."""

import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import labels
from effect_engine.data import Dataset, load_csv
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


def test_quotes_keep_and_inside_a_literal():
    data = Dataset(outcome=[1.0, 2.0, 3.0], arm=["a", "b", "a"],
                   covariates={"seg": ["a and b", "a", "b"], "x": [0.0, 1.0, 2.0]})
    pred = parse_predicate("seg == 'a and b' and x < 1")
    assert pred.clauses == (Clause("seg", "==", "a and b"), Clause("x", "<", "1"))
    assert_array_equal(pred.mask(data), [True, False, False])
    # The echo quotes the literal, so it parses back to the same predicate.
    assert pred.describe() == "seg == 'a and b' and x < 1"
    assert parse_predicate(pred.describe()) == pred


@pytest.mark.parametrize("literal, echo", [
    ("4", "x == 4"), (4.0, "x == 4.0"), ("O'Brien", "x == O'Brien"), ("", "x == ''"),
    (" a", "x == ' a'"), ("a>b", "x == 'a>b'"), ("1 and", "x == '1 and'"),
    ("'a'", "x == \"'a'\""),
])
def test_describe_quotes_only_what_needs_it(literal, echo):
    clause = Clause("x", "==", literal)
    assert clause.describe() == echo
    assert parse_predicate(f"{echo} and y > 1").clauses == (
        Clause("x", "==", str(literal)), Clause("y", ">", "1"))


@pytest.mark.parametrize("op", ["==", "!="])
@pytest.mark.parametrize("literal", ["4", "10", "north", 4, "4.0", ""])
def test_categorical_mask_equals_object_comparison(op, literal):
    # Present levels, an absent one, and the numeric-looking "4" whose float
    # rendering "4.0" is absent: the code comparison selects what comparing
    # the label objects would.
    data = sample_data()
    col = labels(data.covariates["grade"])
    want = col == str(literal) if op == "==" else col != str(literal)
    got = Clause(column="grade", op=op, literal=literal).mask(data)
    assert got.dtype == bool
    assert_array_equal(got, want)


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


@pytest.mark.parametrize("text, literal", [("x > 1 and", "1 and"), ("seg != a and", "a and")])
def test_trailing_and_is_refused_naming_the_clause(text, literal):
    # Read as a literal, "a and" would be a level no row has, so "!=" would
    # select every row.
    with pytest.raises(ValueError, match=re.escape(
            f"cannot parse predicate clause {text!r}: the unquoted literal {literal!r} ends in "
            "'and' with no clause after it")):
        parse_predicate(text)
    quoted = parse_predicate(f"{text[:-len(literal)]}'{literal}'")
    assert quoted.clauses[0].literal == literal


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


def test_unknown_column_error_names_the_usable_columns(tmp_path):
    # The period column is referred to as "period", not by its CSV header.
    path = tmp_path / "data.csv"
    path.write_text("y,arm,week,x,grade\n1,a,1,0.5,4\n2,b,2,1.5,9\n3,a,2,2.5,4\n")
    data = load_csv(path, {"outcome": "y", "arm": "arm", "period": "week"})
    assert parse_predicate("period >= 2").mask(data).tolist() == [False, True, True]
    with pytest.raises(ValueError) as info:
        parse_predicate("week >= 2").mask(data)
    assert str(info.value) == ("unknown predicate column 'week'; the data's predicate "
                               "columns are 'x', 'grade', 'period'")
    bare = Dataset(outcome=[1.0, 2.0], arm=["a", "b"])
    with pytest.raises(ValueError, match=r"'x'; the data's predicate columns are none$"):
        parse_predicate("x == 1").mask(bare)

"""Strict run-config validation."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from effect_engine.config import ConfigError, load_config, parse_config
from effect_engine.predicates import parse_predicate


def full_config():
    return {
        "data": {
            "path": "data.csv",
            "columns": {"outcome": "y", "arm": "arm", "covariates": ["x"],
                        "unit_id": "uid", "period": "t"},
        },
        "model": {"reference_arm": "0", "covariance": "cluster",
                  "interactions": True, "encodings": {"x": "numeric"}},
        "queries": [
            {"type": "ate", "arm_to": "1", "arm_from": "0"},
            {"type": "cate", "arm_to": "1", "arm_from": "0",
             "predicate": "x >= 2", "ci_level": 0.9},
            {"type": "hte", "arm_to": "1", "arm_from": "0", "predicate": "x < 2"},
            {"type": "dte", "arm_to": "1", "arm_from": "0", "period": 1},
            {"type": "relative_effect", "arm_to": "1", "arm_from": "0", "guard": 2.0},
            {"type": "prob_positive", "arm_to": "1", "arm_from": "0"},
            {"type": "prob_best", "arms": ["0", "1"], "name": "ranking"},
        ],
        "seed": 11,
        "mvn_tol": 1e-3,
        "output": "out/report.json",
    }


def test_full_config_parses():
    cfg = parse_config(full_config(), base_dir="/tmp/runs")
    assert cfg.data_path == "/tmp/runs/data.csv"
    assert cfg.output == "/tmp/runs/out/report.json"
    assert cfg.model.reference_arm == "0"
    assert cfg.model.covariance_kind == "cluster"
    assert cfg.seed == 11
    assert cfg.mvn_tol == 1e-3
    assert [q.type for q in cfg.queries] == [
        "ate", "cate", "hte", "dte", "relative_effect", "prob_positive", "prob_best",
    ]
    assert cfg.queries[0].name == "q0"
    assert cfg.queries[6].name == "ranking"
    assert cfg.queries[1].params == {"arm_to": "1", "arm_from": "0",
                                     "predicate": parse_predicate("x >= 2"), "ci_level": 0.9}
    assert cfg.queries[3].params["period"] == 1
    assert cfg.queries[6].params["arms"] == ["0", "1"]
    assert cfg.config_digest.startswith("sha256:")
    assert len(cfg.config_digest) == len("sha256:") + 64


def test_defaults():
    cfg = parse_config({
        "data": {"path": "/d.csv", "columns": {"outcome": "y", "arm": "a"}},
        "model": {"reference_arm": 0},
        "queries": [{"type": "ate", "arm_to": 1, "arm_from": 0}],
    })
    assert cfg.model.covariance_kind == "hc1"
    assert cfg.model.interactions is True
    assert cfg.seed == 0
    assert cfg.mvn_tol == 5e-4
    assert cfg.output is None
    assert cfg.model.bayes is None
    # Numeric arm labels are coerced to strings everywhere.
    assert cfg.model.reference_arm == "0"
    assert cfg.queries[0].params == {"arm_to": "1", "arm_from": "0"}


def test_absolute_paths_left_alone():
    cfg = parse_config({
        "data": {"path": "/abs/d.csv", "columns": {"outcome": "y", "arm": "a"}},
        "model": {"reference_arm": "0"},
        "queries": [{"type": "ate", "arm_to": "1", "arm_from": "0"}],
    }, base_dir="/elsewhere")
    assert cfg.data_path == "/abs/d.csv"


def reject(obj, pattern):
    with pytest.raises(ConfigError, match=pattern):
        parse_config(obj)


def test_unknown_keys_rejected_at_every_level():
    cfg = full_config()
    cfg["extra"] = 1
    reject(cfg, r"unknown key\(s\) \['extra'\] in config")

    cfg = full_config()
    cfg["data"]["fmt"] = "csv"
    reject(cfg, r"unknown key\(s\) \['fmt'\] in data")

    cfg = full_config()
    cfg["data"]["columns"]["weight"] = "w"
    reject(cfg, r"unknown key\(s\) \['weight'\] in data.columns")

    cfg = full_config()
    cfg["model"]["robust"] = True
    reject(cfg, r"unknown key\(s\) \['robust'\] in model")

    cfg = full_config()
    cfg["queries"][0]["predicate"] = "x > 1"  # ate takes no predicate
    reject(cfg, r"unknown key\(s\) \['predicate'\] in queries\[0\]")


def test_missing_required_keys():
    reject({"model": {"reference_arm": "0"}, "queries": [{}]},
           "missing required key 'data'")
    cfg = full_config()
    del cfg["model"]["reference_arm"]
    reject(cfg, "missing required key 'reference_arm' in model")
    cfg = full_config()
    del cfg["queries"][0]["arm_to"]
    reject(cfg, r"missing required key 'arm_to' in queries\[0\]")
    cfg = full_config()
    del cfg["queries"][3]["period"]
    reject(cfg, r"missing required key 'period' in queries\[3\]")


@pytest.mark.parametrize("columns, roles", [
    ({"covariates": ["x", "y"]}, "'y' is named as outcome and covariates[1]"),
    ({"arm": "y"}, "'y' is named as outcome and arm"),
    ({"period": "uid"}, "'uid' is named as unit_id and period"),
    ({"covariates": ["t"]}, "'t' is named as period and covariates[0]"),
    ({"covariates": ["x", "z", "x"]}, "'x' is named as covariates[0] and covariates[2]"),
    ({"arm": "y", "covariates": ["y"]}, "'y' is named as outcome and arm and covariates[0]"),
])
def test_column_in_two_roles_rejected(columns, roles):
    cfg = full_config()
    cfg["data"]["columns"].update(columns)
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert str(info.value) == f"data.columns: column {roles}; each column may have one role"


def with_bayes():
    cfg = full_config()
    cfg["model"]["covariance"] = "hc1"
    cfg["model"]["bayes"] = {"prior_mean": [0.0, 0.5],
                             "prior_covariance": [[4.0, 0.0], [0.0, 4.0]],
                             "noise_variance": 1.0}
    return cfg


HUGE = 10**400  # a valid JSON integer that float() cannot hold
LONG = 10**5000  # past Python's digit limit for str() and json


# Where a number goes, as the message names it and as a path into with_bayes().
NUMBER_FIELDS = {
    "queries[1].ci_level": ("queries", 1, "ci_level"),
    "queries[4].guard": ("queries", 4, "guard"),
    "mvn_tol": ("mvn_tol",),
    "model.bayes.prior_mean[1]": ("model", "bayes", "prior_mean", 1),
    "model.bayes.prior_covariance[0][1]": ("model", "bayes", "prior_covariance", 0, 1),
    "model.bayes.noise_variance": ("model", "bayes", "noise_variance"),
}


@pytest.mark.parametrize("where", list(NUMBER_FIELDS))
def test_huge_integer_is_a_config_error(where):
    cfg = with_bayes()
    *parents, last = NUMBER_FIELDS[where]
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = -HUGE if where == "mvn_tol" else HUGE
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert str(info.value) == f"{where} must be finite"


def test_huge_prior_variance_is_a_config_error():
    cfg = with_bayes()
    cfg["model"]["bayes"] = {"prior_variance": HUGE, "noise_variance": 1.0}
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert str(info.value) == "model.bayes.prior_variance must be finite"


def _paths(node, prefix=()):
    """Every key or index path in a JSON document, the root included."""
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([HUGE, -HUGE, 2**1024, 0, -1, 1, 2]),
    st.integers(4400, 4500).map(lambda digits: 10**digits),  # no repr past the limit
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 1e-300, 1e308]),
    st.text(st.characters(exclude_categories=()), max_size=8),  # lone surrogates too
    st.sampled_from(["x >= 2", "x", "y", "0", "1", "cluster", "categorical", "ate", "prob_best",
                     "and", "x == 'a", "==", "", "\ud800"]),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=12), children, max_size=4),
    max_leaves=10,
)


@st.composite
def mangled_config(draw):
    """A valid config with a few values, anywhere in it, replaced by
    arbitrary JSON: nested lists and objects, NaN/inf, oversized integers,
    booleans and strings."""
    cfg = with_bayes()
    paths = list(_paths(cfg))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(paths))
        value = draw(JSON_VALUES)
        if not path:
            return value
        node = cfg
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue  # an earlier replacement removed this path
    return cfg


@settings(max_examples=400, deadline=None)
@given(mangled_config())
def test_parse_config_fuzz_parses_or_raises_config_error(doc):
    try:
        parse_config(doc)
    except ConfigError:
        pass


def test_unknown_query_type():
    cfg = full_config()
    cfg["queries"][0] = {"type": "att", "arm_to": "1", "arm_from": "0"}
    reject(cfg, r"queries\[0\].type 'att' is not one of")


def test_bad_predicate_fails_at_parse_time():
    cfg = full_config()
    cfg["queries"][1]["predicate"] = "x >>> 3"
    reject(cfg, r"queries\[1\].predicate: cannot parse")


def test_unquoted_literal_cannot_swallow_the_next_clause():
    # Read as one literal, "a AND x > 1" would be a level no row has, so
    # the clause would select every row.
    cfg = full_config()
    cfg["queries"][1]["predicate"] = "seg != a AND x > 1"
    reject(cfg, r"queries\[1\].predicate: cannot parse predicate clause 'seg != a AND x > 1': "
                r"the unquoted literal 'a AND x > 1' holds a comparison operator")


@pytest.mark.parametrize("names, message", [
    ({2: "ranking"}, r"queries\[6\].name: duplicate of queries\[2\]$"),
    # q1 is the name an unnamed query at index 1 gets.
    ({0: "q1"}, r"queries\[1\].name: duplicate of queries\[0\]$"),
], ids=["explicit", "default"])
def test_query_names_are_unique(names, message):
    cfg = full_config()
    for index, name in names.items():
        cfg["queries"][index]["name"] = name
    reject(cfg, message)


def test_optional_predicates_on_ratio_and_probability_queries():
    cfg = full_config()
    cfg["queries"][4]["predicate"] = "x >= 2"
    cfg["queries"][5]["predicate"] = "x < 2"
    cfg["queries"][6]["predicate"] = "x < 2"
    parsed = parse_config(cfg, base_dir="/tmp/runs")
    assert parsed.queries[4].params["predicate"] == parse_predicate("x >= 2")
    assert parsed.queries[5].params["predicate"] == parse_predicate("x < 2")
    assert parsed.queries[6].params["predicate"] == parse_predicate("x < 2")

    cfg = full_config()
    cfg["queries"][6]["predicate"] = "x >>> 2"
    reject(cfg, r"queries\[6\].predicate: cannot parse")

    cfg = full_config()
    cfg["queries"][3]["predicate"] = "x >= 2"
    reject(cfg, r"unknown key\(s\) \['predicate'\] in queries\[3\]")


def test_scalar_validations():
    cfg = full_config()
    cfg["seed"] = -1
    reject(cfg, "seed must be a non-negative integer")
    cfg = full_config()
    cfg["seed"] = True
    reject(cfg, "seed must be a non-negative integer")
    cfg = full_config()
    cfg["mvn_tol"] = 0
    reject(cfg, "mvn_tol must be positive")
    cfg = full_config()
    cfg["mvn_tol"] = float("nan")  # json.load admits NaN; the report must not
    reject(cfg, "mvn_tol must be finite")
    cfg = full_config()
    cfg["queries"][1]["ci_level"] = 1.0
    reject(cfg, r"ci_level must be strictly between 0 and 1")
    cfg = full_config()
    cfg["queries"][4]["guard"] = -0.5
    reject(cfg, "guard must be non-negative")
    cfg = full_config()
    cfg["queries"][3]["period"] = "first"
    reject(cfg, "period must be an integer")
    cfg = full_config()
    cfg["queries"][6]["arms"] = ["0"]
    reject(cfg, "at least 2 arm labels")
    cfg = full_config()
    cfg["model"]["covariance"] = "hc3"
    reject(cfg, "model.covariance 'hc3' is not one of")
    cfg["model"]["covariance"] = LONG  # no repr past the digit limit
    reject(cfg, "^model.covariance must be a non-empty string$")
    cfg = full_config()
    cfg["model"]["interactions"] = "yes"
    reject(cfg, "interactions must be a boolean")
    cfg = full_config()
    cfg["model"]["encodings"] = {"x": "onehot"}
    reject(cfg, "must be 'numeric' or 'categorical'")
    cfg = full_config()
    cfg["queries"] = []
    reject(cfg, "queries must be a non-empty list")


def _prior(cfg) -> tuple:
    """The parsed prior's mean, covariance and noise variance as plain values."""
    prior = parse_config(cfg).model.bayes
    assert prior.mean.dtype == prior.covariance.dtype == float
    return prior.mean.tolist(), prior.covariance.tolist(), prior.noise_variance


def test_bayes_block():
    cfg = full_config()
    cfg["model"]["covariance"] = "hc1"
    cfg["model"]["bayes"] = {"noise_variance": 1.5}
    assert _prior(cfg) == (0.0, 100.0, 1.5)

    cfg["model"]["bayes"] = {"prior_variance": 4.0, "prior_covariance": [[1.0]],
                             "noise_variance": 1.0}
    reject(cfg, "not both")

    cfg["model"]["bayes"] = {"prior_variance": 4.0}
    reject(cfg, "missing required key 'noise_variance'")

    cfg["model"]["bayes"] = {"noise_variance": 0.0}
    reject(cfg, "noise_variance must be positive")

    cfg["model"]["bayes"] = {"prior_variance": -1.0, "noise_variance": 1.0}
    reject(cfg, "prior_variance must be positive")


def test_bayes_prior_forms():
    cfg = full_config()
    cfg["model"]["covariance"] = "hc1"
    cfg["model"]["bayes"] = {"prior_mean": [1, 2.5], "prior_covariance": [3, 4],
                             "noise_variance": 1}
    assert _prior(cfg) == ([1.0, 2.5], [3.0, 4.0], 1.0)
    cfg["model"]["bayes"] = {"prior_mean": 2, "prior_covariance": [[2, 1], [1, 2]],
                             "noise_variance": 1}
    assert _prior(cfg) == (2.0, [[2.0, 1.0], [1.0, 2.0]], 1.0)


@pytest.mark.parametrize("key, value", [
    ("prior_mean", True),
    ("prior_mean", None),
    ("prior_mean", "0"),
    ("prior_mean", float("nan")),
    ("prior_mean", []),
    ("prior_mean", [0.0, float("inf")]),
    ("prior_mean", [[0.0]]),
    ("prior_covariance", "big"),
    ("prior_covariance", 4.0),
    ("prior_covariance", []),
    ("prior_covariance", [1.0, 0.0]),
    ("prior_covariance", [1.0, True]),
    ("prior_covariance", [1.0, float("nan")]),
    ("prior_covariance", [[1.0, 0.0], [0.0]]),
    ("prior_covariance", [[1.0, 0.0], [0.0, None]]),
    ("prior_covariance", [[1.0], 2.0]),
    ("prior_covariance", [[]]),
])
def test_bad_bayes_prior_rejected(key, value):
    cfg = full_config()
    cfg["model"]["bayes"] = {key: value, "noise_variance": 1.0}
    reject(cfg, rf"model\.bayes\.{key}")


def test_spec_from_config():
    cfg = full_config()
    spec = parse_config(cfg).model
    assert spec.reference_arm == "0"
    assert spec.covariance_kind == "cluster"
    assert spec.interactions is True
    assert spec.encodings == {"x": "numeric"}
    assert spec.bayes is None

    cfg["model"]["bayes"] = {"noise_variance": 2}
    prior = parse_config(cfg).model.bayes
    assert (prior.mean.shape, float(prior.mean)) == ((), 0.0)
    assert (prior.covariance.shape, float(prior.covariance)) == ((), 100.0)
    assert prior.noise_variance == 2.0

    cfg["model"]["bayes"] = {"prior_mean": [1, 2], "prior_covariance": [3, 4],
                             "noise_variance": 2}
    prior = parse_config(cfg).model.bayes
    assert_array_equal(prior.mean, [1.0, 2.0])
    assert_array_equal(prior.covariance, [3.0, 4.0])


def test_config_digest_tracks_content_not_formatting():
    a = parse_config(full_config())
    b = parse_config(full_config())
    assert a.config_digest == b.config_digest
    changed = full_config()
    changed["seed"] = 12
    assert parse_config(changed).config_digest != a.config_digest


def test_load_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(full_config()), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.data_path == str(tmp_path / "data.csv")

    with pytest.raises(ConfigError, match="config file not found"):
        load_config(tmp_path / "absent.json")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)

    bad.write_bytes(b'{"output": "caf\xe9"}')  # Latin-1
    with pytest.raises(ConfigError, match="config file cannot be read: 'utf-8' codec"):
        load_config(bad)
    bad.write_text('{"seed": 1%s}' % ("0" * 5000), encoding="utf-8")
    with pytest.raises(ConfigError, match="config file cannot be read: Exceeds the limit"):
        load_config(bad)
    bad.write_text('{"seed": %s%s}' % ("[" * 100_000, "]" * 100_000), encoding="utf-8")
    with pytest.raises(ConfigError, match="config file cannot be read: maximum recursion"):
        load_config(bad)


def test_values_that_cannot_be_labels_or_digested():
    cfg = full_config()
    cfg["model"]["reference_arm"] = LONG
    reject(cfg, r"^model.reference_arm must be an arm label$")
    cfg = full_config()
    cfg["queries"][6]["arms"] = ["0", None]
    reject(cfg, r"^queries\[6\].arms\[1\] must be an arm label$")
    cfg = full_config()
    cfg["queries"][0]["name"] = "\ud800"  # a lone surrogate, as json.loads gives for "\ud800"
    reject(cfg, "^config cannot be digested as UTF-8 JSON: 'utf-8' codec can't encode")
    cfg = full_config()
    cfg["seed"] = LONG
    reject(cfg, "^config cannot be digested as UTF-8 JSON: Exceeds the limit")

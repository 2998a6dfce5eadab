"""Strict run-config validation."""

import json

import pytest
from numpy.testing import assert_array_equal

from effect_engine.config import ConfigError, load_config, parse_config, spec_from_config


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
    assert cfg.reference_arm == "0"
    assert cfg.covariance == "cluster"
    assert cfg.seed == 11
    assert cfg.mvn_tol == 1e-3
    assert [q.type for q in cfg.queries] == [
        "ate", "cate", "hte", "dte", "relative_effect", "prob_positive", "prob_best",
    ]
    assert cfg.queries[0].name == "q0"
    assert cfg.queries[6].name == "ranking"
    assert cfg.queries[1].params == {"arm_to": "1", "arm_from": "0",
                                     "predicate": "x >= 2", "ci_level": 0.9}
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
    assert cfg.covariance == "hc1"
    assert cfg.interactions is True
    assert cfg.seed == 0
    assert cfg.mvn_tol == 5e-4
    assert cfg.output is None
    assert cfg.bayes is None
    # Numeric arm labels are coerced to strings everywhere.
    assert cfg.reference_arm == "0"
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


def test_unknown_query_type():
    cfg = full_config()
    cfg["queries"][0] = {"type": "att", "arm_to": "1", "arm_from": "0"}
    reject(cfg, r"queries\[0\].type 'att' is not one of")


def test_bad_predicate_fails_at_parse_time():
    cfg = full_config()
    cfg["queries"][1]["predicate"] = "x >>> 3"
    reject(cfg, r"queries\[1\].predicate: cannot parse")


def test_optional_predicates_on_ratio_and_probability_queries():
    cfg = full_config()
    cfg["queries"][4]["predicate"] = "x >= 2"
    cfg["queries"][5]["predicate"] = "x < 2"
    cfg["queries"][6]["predicate"] = "x < 2"
    parsed = parse_config(cfg, base_dir="/tmp/runs")
    assert parsed.queries[4].params["predicate"] == "x >= 2"
    assert parsed.queries[5].params["predicate"] == "x < 2"
    assert parsed.queries[6].params["predicate"] == "x < 2"

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
    cfg = full_config()
    cfg["model"]["interactions"] = "yes"
    reject(cfg, "interactions must be a boolean")
    cfg = full_config()
    cfg["model"]["encodings"] = {"x": "onehot"}
    reject(cfg, "must be 'numeric' or 'categorical'")
    cfg = full_config()
    cfg["queries"] = []
    reject(cfg, "queries must be a non-empty list")


def test_bayes_block():
    cfg = full_config()
    cfg["model"]["covariance"] = "hc1"
    cfg["model"]["bayes"] = {"noise_variance": 1.5}
    parsed = parse_config(cfg)
    assert parsed.bayes == {"prior_mean": 0.0, "prior_variance": 100.0,
                            "noise_variance": 1.5}

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
    assert parse_config(cfg).bayes == {"prior_mean": [1.0, 2.5], "prior_covariance": [3.0, 4.0],
                                       "noise_variance": 1.0}
    cfg["model"]["bayes"] = {"prior_mean": 2, "prior_covariance": [[2, 1], [1, 2]],
                             "noise_variance": 1}
    assert parse_config(cfg).bayes == {"prior_mean": 2.0,
                                       "prior_covariance": [[2.0, 1.0], [1.0, 2.0]],
                                       "noise_variance": 1.0}


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
    spec = spec_from_config(parse_config(cfg))
    assert spec.reference_arm == "0"
    assert spec.covariance_kind == "cluster"
    assert spec.interactions is True
    assert spec.encodings == {"x": "numeric"}
    assert spec.bayes is None

    cfg["model"]["bayes"] = {"noise_variance": 2}
    prior = spec_from_config(parse_config(cfg)).bayes
    assert (prior.mean.shape, float(prior.mean)) == ((), 0.0)
    assert (prior.covariance.shape, float(prior.covariance)) == ((), 100.0)
    assert prior.noise_variance == 2.0

    cfg["model"]["bayes"] = {"prior_mean": [1, 2], "prior_covariance": [3, 4],
                             "noise_variance": 2}
    prior = spec_from_config(parse_config(cfg)).bayes
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

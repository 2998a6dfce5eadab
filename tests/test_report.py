"""Report serialization: digests, sanitization, determinism, atomic writes."""

import json
import os
import subprocess
import sys
import textwrap

import pytest
from conftest import cli_env

from effect_engine.report import (
    REPORT_VERSION,
    build_report,
    render_report,
    sha256_config,
    write_report,
)

jsonschema = pytest.importorskip("jsonschema")

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "docs", "report.schema.json")


def minimal_report(**overrides):
    kwargs = dict(
        config_digest="sha256:" + "0" * 64,
        data_digest="sha256:" + "1" * 64,
        seed=3,
        model_info={"n": 4, "p": 2, "arms": ["0", "1"], "reference_arm": "0",
                    "covariance_kind": "hc1", "posterior": False,
                    "columns": ["intercept", "arm=1"],
                    "beta": [2.0, 3.0], "std_errors": [1.0, 1.4]},
        results=[{"kind": "effect", "index": 0, "name": "q0", "estimate": 3.0,
                  "std_error": 1.4, "ci_low": 0.2, "ci_high": 5.8,
                  "ci_level": 0.95, "query": {"type": "ate"}}],
        errors=[],
        warnings=[],
        created_at="2020-01-01T00:00:00+00:00",
    )
    kwargs.update(overrides)
    return build_report(**kwargs)


def test_sha256_config_ignores_key_order_and_whitespace():
    a = {"b": 1, "a": [1, 2], "c": {"y": 2, "x": 1}}
    b = json.loads('{ "c": {"x": 1, "y": 2},  "a": [1, 2], "b": 1 }')
    assert sha256_config(a) == sha256_config(b)
    assert sha256_config(a) != sha256_config({"b": 2, "a": [1, 2], "c": {"y": 2, "x": 1}})


def test_report_shape_and_version():
    report = minimal_report()
    assert report["version"] == REPORT_VERSION
    assert report["created_at"] == "2020-01-01T00:00:00+00:00"
    assert set(report) == {"version", "created_at", "seed", "config_digest",
                           "data_digest", "model", "results", "errors", "warnings"}


def test_created_at_defaults_to_utc_now():
    report = minimal_report(created_at=None)
    assert report["created_at"].endswith("+00:00")


def test_non_finite_values_become_null_with_warning():
    report = minimal_report(results=[{"kind": "effect", "estimate": float("nan"),
                                      "ci_low": float("-inf")}])
    assert report["results"][0]["estimate"] is None
    assert report["results"][0]["ci_low"] is None
    assert any("results[0].estimate" in w for w in report["warnings"])
    assert any("results[0].ci_low" in w for w in report["warnings"])


def test_render_is_deterministic_and_round_trips():
    report = minimal_report()
    text = render_report(report)
    assert text == render_report(minimal_report())
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == report
    # Floats render in shortest round-trip form.
    assert '"estimate": 3.0' in text


def test_write_report_is_atomic(tmp_path):
    path = tmp_path / "report.json"
    write_report(minimal_report(), path)
    assert json.loads(path.read_text(encoding="utf-8"))["seed"] == 3
    leftovers = [p for p in os.listdir(tmp_path) if p != "report.json"]
    assert leftovers == []
    # Overwrite goes through the same rename.
    write_report(minimal_report(seed=9), path)
    assert json.loads(path.read_text(encoding="utf-8"))["seed"] == 9
    assert [p for p in os.listdir(tmp_path) if p != "report.json"] == []


def test_write_report_cleans_up_on_failure(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(TypeError):
        write_report({"bad": {1, 2}}, path)  # sets are not JSON-serializable
    assert os.listdir(tmp_path) == []


def test_write_report_mode_follows_the_umask_or_the_replaced_file(tmp_path):
    # The umask is process-wide, so the writes run in a child that sets it.
    code = textwrap.dedent("""
        import os, sys
        from effect_engine.report import write_report
        os.umask(int(sys.argv[1], 8))
        for path in sys.argv[2:]:
            write_report({"seed": 1}, path)
            print(oct(os.stat(path).st_mode & 0o777))
    """)

    def modes(umask, *paths):
        proc = subprocess.run([sys.executable, "-c", code, umask, *map(str, paths)],
                              env=cli_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    shared, private = tmp_path / "shared.json", tmp_path / "private.json"
    for path, mode in ((shared, 0o644), (private, 0o640)):
        path.write_text("{}")
        path.chmod(mode)
    assert modes("022", tmp_path / "new.json") == ["0o644"]
    assert modes("077", tmp_path / "new2.json", shared, private) == ["0o600", "0o644", "0o640"]
    assert modes("002", shared, private) == ["0o644", "0o640"]
    assert sorted(os.listdir(tmp_path)) == ["new.json", "new2.json", "private.json", "shared.json"]


def test_report_validates_against_schema():
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        schema = json.load(fh)
    report = minimal_report()
    jsonschema.validate(report, schema)

    # The schema actually rejects malformed documents.
    broken = minimal_report()
    broken["data_digest"] = "md5:abc"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(broken, schema)


def test_full_engine_report_validates_against_schema(tmp_path):
    # Every query kind, predicates included, through the real pipeline.
    from effect_engine.cli import execute
    from effect_engine.config import load_config

    rows = ["y,arm,uid,t,x"]
    x_vals = [-2.0, -1.0, 1.0, 2.0]
    for i in range(32):
        arm = "t" if i % 2 else "c"
        period = 0 if i < 16 else 1
        x = x_vals[i % 4]
        y = 10.0 + 0.5 * x + (2.0 + 0.3 * x + period) * (arm == "t") + 0.1 * (i % 5)
        rows.append(f"{y},{arm},u{i % 8},{period},{x}")
    (tmp_path / "data.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    config = {
        "data": {"path": "data.csv",
                 "columns": {"outcome": "y", "arm": "arm", "covariates": ["x"],
                             "unit_id": "uid", "period": "t"}},
        "model": {"reference_arm": "c", "covariance": "hc1"},
        "queries": [
            {"type": "ate", "arm_to": "t", "arm_from": "c"},
            {"type": "cate", "arm_to": "t", "arm_from": "c", "predicate": "x >= 0"},
            {"type": "hte", "arm_to": "t", "arm_from": "c", "predicate": "x >= 0"},
            {"type": "dte", "arm_to": "t", "arm_from": "c", "period": 1},
            {"type": "relative_effect", "arm_to": "t", "arm_from": "c",
             "predicate": "x >= 0"},
            {"type": "prob_positive", "arm_to": "t", "arm_from": "c",
             "predicate": "x < 0"},
            {"type": "prob_best", "arms": ["c", "t"]},
        ],
        "seed": 5,
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")

    report = execute(load_config(tmp_path / "config.json"), flat_prior_ok=True)
    assert report["errors"] == []
    assert len(report["results"]) == 7
    rel = report["results"][4]
    assert rel["query"]["predicate"] == "x >= 0"
    assert set(rel["components"]) == {"delta_mean", "delta_variance",
                                      "baseline_mean", "baseline_variance",
                                      "covariance"}
    assert rel["first_order"] != rel["estimate"]

    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        jsonschema.validate(report, json.load(fh))

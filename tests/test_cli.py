"""End-to-end command-line behavior, exercised through subprocesses."""

import dataclasses
import hashlib
import importlib
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import DEPENDENT_Z, RANK_DEFICIENT_CSV, cli_env
from effect_engine import cli, verify
from effect_engine import data as data_module
from effect_engine import model as model_module
from effect_engine.cli import execute
from effect_engine.config import QUERY_TYPES, ConfigError, load_config, parse_config
from effect_engine.data import add_period_covariate, load_csv
from effect_engine.effects import ate, cate, dte, hte
from effect_engine.model import as_flat_prior_posterior, fit_model
from effect_engine.predicates import parse_predicate
from effect_engine.ranking import prob_best, prob_positive
from effect_engine.relative import relative_effect
from effect_engine.report import render_report

FOUR_ROW_CSV = "y,arm\n1,0\n3,0\n4,1\n6,1\n"

PANEL_CSV = "y,arm,uid,t\n" + "".join(
    f"{y},{a},{u},{t}\n"
    for y, a, u, t in zip(
        [1, 2, 3, 4, 4, 5, 6, 7, 2, 3, 4, 5, 8, 9, 10, 11],
        (["c"] * 4 + ["t"] * 4) * 2,
        [f"u{i % 8}" for i in range(16)],
        [0] * 8 + [1] * 8,
    )
)


def run_cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "effect_engine", *args],
        cwd=cwd, env=cli_env(),
        capture_output=True, text=True, timeout=300,
    )


def write_workspace(tmp_path, queries, csv=FOUR_ROW_CSV, columns=None, **extra):
    (tmp_path / "data.csv").write_text(csv, encoding="utf-8")
    config = {
        "data": {
            "path": "data.csv",
            "columns": columns or {"outcome": "y", "arm": "arm"},
        },
        "model": {"reference_arm": extra.pop("reference_arm", "0"),
                  "covariance": extra.pop("covariance", "classical")},
        "queries": queries,
        "seed": extra.pop("seed", 7),
    }
    config.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return path


def strip_timestamp(report_text):
    return [line for line in report_text.splitlines() if '"created_at"' not in line]


def test_validate_ok(tmp_path):
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}])
    proc = run_cli("validate", "--config", "config.json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "config OK: 4 rows, 2 design columns, arms ['0', '1'], 1 queries" in proc.stdout


def test_run_writes_report(tmp_path):
    write_workspace(tmp_path, [
        {"type": "ate", "arm_to": "1", "arm_from": "0"},
        {"type": "relative_effect", "arm_to": "1", "arm_from": "0", "guard": 1.5},
    ])
    proc = run_cli("run", "--config", "config.json", "--out", "report.json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "report written to report.json" in proc.stderr
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["seed"] == 7
    assert report["config_digest"].startswith("sha256:")
    assert report["data_digest"].startswith("sha256:")
    assert_allclose(report["model"]["beta"], [2.0, 3.0], rtol=0, atol=1e-12)
    assert report["model"]["columns"] == ["intercept", "arm=1"]
    ate, rel = report["results"]
    assert ate["kind"] == "effect" and ate["name"] == "q0"
    assert_allclose(ate["estimate"], 3.0, rtol=0, atol=1e-12)
    assert rel["kind"] == "relative_effect"
    assert_allclose(rel["estimate"], 2.125, rtol=0, atol=1e-12)
    assert_allclose(rel["components"]["covariance"], -1.0, rtol=0, atol=1e-12)
    assert report["errors"] == []


def test_rows_that_fill_the_last_chunk_leave_no_warning_in_the_report(tmp_path):
    # The ingest reads a third chunk that finds no row left; numpy's warning
    # of that must reach neither the report nor the terminal.
    n = 2 * data_module.CHUNK_ROWS
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}],
                    csv="y,arm\n" + "".join(f"{i % 7 + 3 * (i % 2)},{i % 2}\n" for i in range(n)))
    proc = run_cli("run", "--config", "config.json", "--out", "report.json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "report written to report.json\n"
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["warnings"] == [] and report["model"]["n"] == n


def test_run_to_stdout_when_no_output_configured(tmp_path):
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}])
    proc = run_cli("run", "--config", "config.json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert_allclose(report["results"][0]["estimate"], 3.0, rtol=0, atol=1e-12)


def test_config_output_path_is_honored(tmp_path):
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}],
                    output="from_config.json")
    proc = run_cli("run", "--config", "config.json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "from_config.json").exists()


def test_runs_are_deterministic(tmp_path):
    write_workspace(tmp_path, [
        {"type": "ate", "arm_to": "1", "arm_from": "0"},
        {"type": "prob_best"},
    ])
    for name in ("a.json", "b.json"):
        proc = run_cli("run", "--config", "config.json", "--flat-prior-ok", "--out", name,
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    a = (tmp_path / "a.json").read_text(encoding="utf-8")
    b = (tmp_path / "b.json").read_text(encoding="utf-8")
    assert strip_timestamp(a) == strip_timestamp(b)


def test_seed_override(tmp_path):
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}])
    proc = run_cli("run", "--config", "config.json", "--seed", "99", cwd=tmp_path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["seed"] == 99


def test_bad_config_exits_1(tmp_path):
    path = write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}])
    config = json.loads(path.read_text(encoding="utf-8"))
    config["typo"] = 1
    path.write_text(json.dumps(config), encoding="utf-8")
    proc = run_cli("run", "--config", "config.json", cwd=tmp_path)
    assert proc.returncode == 1
    assert "config error" in proc.stderr
    assert "typo" in proc.stderr


def test_config_path_that_is_a_directory_exits_1(tmp_path):
    (tmp_path / "cfgdir").mkdir()
    for command in ("run", "validate"):
        proc = run_cli(command, "--config", "cfgdir", cwd=tmp_path)
        assert proc.returncode == 1, (command, proc.stderr)
        assert proc.stderr == ("config error: config file cannot be read: "
                               "[Errno 21] Is a directory: 'cfgdir'\n"), command


def test_run_names_the_query_that_failed(tmp_path):
    csv, columns, reference = PANEL
    write_workspace(tmp_path, [
        {"type": "ate", "arm_to": "t", "arm_from": "c"},
        {"type": "cate", "arm_to": "t", "arm_from": "c", "predicate": "period > 5"},
    ], csv=csv, columns=columns, reference_arm=reference)
    proc = run_cli("run", "--config", "config.json", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: queries[1]: empty conditioning subset\n"


def test_missing_data_file_exits_1(tmp_path):
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}])
    (tmp_path / "data.csv").unlink()
    proc = run_cli("run", "--config", "config.json", cwd=tmp_path)
    assert proc.returncode == 1
    assert "failed to load data" in proc.stderr


def test_duplicate_csv_header_exits_1(tmp_path):
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}],
                    csv="y,arm,y\n1,0,1\n3,0,3\n4,1,4\n6,1,6\n")
    for command in ("run", "validate"):
        proc = run_cli(command, "--config", "config.json", cwd=tmp_path)
        assert proc.returncode == 1
        assert "duplicate CSV header 'y' at columns [0, 2]" in proc.stderr


def test_out_of_range_period_cell_exits_1(tmp_path):
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}],
                    csv="y,arm,t\n1,0,0\n3,0,99999999999999999999\n4,1,0\n6,1,1\n",
                    columns={"outcome": "y", "arm": "arm", "period": "t"})
    proc = run_cli("run", "--config", "config.json", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert ("unparseable period cell at row 1, column 't': '99999999999999999999'"
            in proc.stderr)


def test_column_in_two_roles_exits_1(tmp_path):
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}],
                    csv="y,arm,x\n1,0,1\n3,0,2\n4,1,1\n6,1,2\n",
                    columns={"outcome": "y", "arm": "arm", "covariates": ["x", "y"]})
    for command in ("run", "validate"):
        proc = run_cli(command, "--config", "config.json", cwd=tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert "column 'y' is named as outcome and covariates[1]" in proc.stderr


@pytest.mark.parametrize("csv, message", [
    ("y,arm,x\n1,0,1\n3,0,inf\n4,1,1\n6,1,2\n",
     "covariate 'x' has a non-finite value at row 1: inf"),
    ("y,arm\n1,0\n3,0\n", "need at least 2 distinct arm labels, found '0'"),
])
def test_dataset_rejection_names_its_place_and_exits_1(tmp_path, csv, message):
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}], csv=csv)
    for command in ("run", "validate"):
        proc = run_cli(command, "--config", "config.json", cwd=tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert message in proc.stderr


def test_data_flag_overrides_config_path(tmp_path):
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}])
    (tmp_path / "data.csv").rename(tmp_path / "fresh.csv")
    proc = run_cli("run", "--config", "config.json", "--data", "fresh.csv", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert_allclose(report["results"][0]["estimate"], 3.0, rtol=0, atol=1e-12)


def test_rank_deficient_fit_exits_2(tmp_path):
    csv = "y,arm,x,z\n" + "".join(
        f"{i},{i % 2},{i * 0.5},{i * 1.0}\n" for i in range(12)
    )
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}],
                    csv=csv)
    proc = run_cli("run", "--config", "config.json", cwd=tmp_path)
    assert proc.returncode == 2
    assert "rank deficient" in proc.stderr


def test_probability_query_requires_opt_in(tmp_path):
    write_workspace(tmp_path, [
        {"type": "ate", "arm_to": "1", "arm_from": "0"},
        {"type": "prob_positive", "arm_to": "1", "arm_from": "0"},
    ])
    refused = run_cli("run", "--config", "config.json", cwd=tmp_path)
    assert refused.returncode == 1
    assert "config error" in refused.stderr
    assert "--flat-prior-ok" in refused.stderr

    allowed = run_cli("run", "--config", "config.json", "--flat-prior-ok", cwd=tmp_path)
    assert allowed.returncode == 0
    report = json.loads(allowed.stdout)
    assert_allclose(report["results"][1]["probability"], 0.9830525732376554,
                    rtol=0, atol=1e-12)


def test_partial_records_failures_and_exits_0(tmp_path):
    # The 4-row fit's baseline mean sits within the default guard of zero,
    # so the ratio query fails while the plain effect query succeeds.
    write_workspace(tmp_path, [
        {"type": "relative_effect", "arm_to": "1", "arm_from": "0", "name": "guarded"},
        {"type": "ate", "arm_to": "1", "arm_from": "0", "name": "still_runs"},
    ])
    aborted = run_cli("run", "--config", "config.json", cwd=tmp_path)
    assert aborted.returncode == 2
    assert "baseline too close to zero" in aborted.stderr

    proc = run_cli("run", "--config", "config.json", "--partial", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [r["name"] for r in report["results"]] == ["still_runs"]
    assert len(report["errors"]) == 1
    assert report["errors"][0]["index"] == 0
    assert report["errors"][0]["name"] == "guarded"
    assert "baseline too close to zero" in report["errors"][0]["error"]


def test_dte_end_to_end(tmp_path):
    write_workspace(
        tmp_path,
        [{"type": "dte", "arm_to": "t", "arm_from": "c", "period": 0},
         {"type": "dte", "arm_to": "t", "arm_from": "c", "period": 1}],
        csv=PANEL_CSV,
        columns={"outcome": "y", "arm": "arm", "unit_id": "uid", "period": "t"},
        reference_arm="c",
        covariance="cluster",
    )
    proc = run_cli("run", "--config", "config.json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    at0, at1 = report["results"]
    assert at0["model_variant"] == "period_cluster"
    assert_allclose(at0["estimate"], 3.0, rtol=0, atol=1e-12)
    assert_allclose(at1["estimate"], 6.0, rtol=0, atol=1e-12)


def test_dte_without_unit_id_fails_clearly(tmp_path):
    write_workspace(
        tmp_path,
        [{"type": "dte", "arm_to": "t", "arm_from": "c", "period": 0}],
        csv=PANEL_CSV,
        columns={"outcome": "y", "arm": "arm", "period": "t",
                 "covariates": []},
        reference_arm="c",
    )
    proc = run_cli("run", "--config", "config.json", cwd=tmp_path)
    assert proc.returncode == 2
    assert "unit_id" in proc.stderr


def test_verify_subcommand(tmp_path):
    proc = run_cli("verify", "--seed", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    assert len(lines) >= 5
    assert all(l.startswith("ok") for l in lines)
    assert "FAIL" not in proc.stdout


def test_verify_full_suite(capsys, monkeypatch):
    # The checks are stubbed: each one runs, with the seed verify gives it,
    # in tests/test_acceptance.py.
    calls = []

    def stub(name):
        def check(**kwargs):
            calls.append(name)
            return verify.VerifyResult(name=name, passed=True, detail="stubbed")
        return check

    checks = [name for name in dir(verify) if name.endswith("_check")]
    for name in checks:
        monkeypatch.setattr(verify, name, stub(name))
    assert cli.main(["verify", "--suite", "full"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"ok   - {name}: stubbed" for name in calls]
    assert sorted(calls) == sorted(checks) and len(calls) == 11


@pytest.mark.parametrize("argv", [
    ["run", "--config", "config.json", "--seed", "-1"],
    ["verify", "--seed", "-1000"],
], ids=["run", "verify"])
def test_negative_seed_flag_is_refused_before_any_work(tmp_path, monkeypatch, capsys, argv):
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}])
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "load_config", None)
    monkeypatch.setattr(cli, "run_suite", None)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seed: must be a non-negative integer, got '{argv[-1]}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flags, config_output", [
    ("run", ["--out", "missing/r.json"], None),
    ("run", [], "missing/r.json"),
    ("validate", [], "missing/r.json"),
], ids=["run-out-flag", "run-config-output", "validate-config-output"])
def test_report_path_in_a_missing_directory_exits_1_before_the_data_is_read(
        tmp_path, command, flags, config_output):
    extra = {} if config_output is None else {"output": config_output}
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}], **extra)
    (tmp_path / "data.csv").unlink()
    proc = run_cli(command, "--config", "config.json", *flags, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    where = "--out 'missing/r.json'" if flags else f"output '{tmp_path / 'missing' / 'r.json'}'"
    assert proc.stderr == (f"config error: {where}: directory "
                           f"'{tmp_path / 'missing'}' does not exist\n")


def test_report_write_failure_exits_1_naming_the_path(tmp_path):
    # The directory exists, so the run goes ahead; the report path is a
    # directory itself, so the final rename fails.
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}])
    (tmp_path / "taken").mkdir()
    proc = run_cli("run", "--config", "config.json", "--out", "taken", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: cannot write the report to 'taken': Is a directory\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "data.csv",
                                                                 "taken"]
    assert list((tmp_path / "taken").iterdir()) == []


def test_bad_bayes_prior_exits_1(tmp_path):
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}],
                    model={"reference_arm": "0",
                           "bayes": {"prior_covariance": "big", "noise_variance": 1.0}})
    for command in ("validate", "run"):
        proc = run_cli(command, "--config", "config.json", cwd=tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert "config error: model.bayes.prior_covariance" in proc.stderr


@pytest.mark.parametrize("field, literal, message", [
    # A JSON integer beyond the float range where a number goes.
    ("ci_level", "1" + "0" * 400, "queries[0].ci_level must be finite"),
    # A literal past Python's digit limit for integers.
    ("ci_level", "1" + "0" * 5000, "config file cannot be read: Exceeds the limit"),
    # Nesting past the interpreter's recursion limit.
    ("ci_level", "[" * 100_000 + "]" * 100_000, "config file cannot be read: maximum recursion"),
    # A lone surrogate, valid JSON but not encodable as UTF-8.
    ("name", '"\\ud800"', "config cannot be digested as UTF-8 JSON"),
], ids=["float-overflow", "digit-limit", "deep-nesting", "lone-surrogate"])
def test_unusable_json_values_exit_1(tmp_path, field, literal, message):
    path = write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0",
                                       field: "PLACEHOLDER"}])
    text = path.read_text(encoding="utf-8").replace('"PLACEHOLDER"', literal)
    path.write_text(text, encoding="utf-8")
    for command in ("validate", "run"):
        proc = run_cli(command, "--config", "config.json", cwd=tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("config error: " + message), proc.stderr


def test_every_traced_site_exists(monkeypatch):
    # The benchmark's tracer (perfbench/tracer.py) patches these module
    # attributes by name, so a refactor that drops one breaks only the trace.
    # Import it without writing bytecode next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    sites = [site for sites in tracer.SPANS.values() for site in sites]
    assert "cli.add_period_covariate" in sites
    for site in sites:
        module, attr = site.split(".")
        assert callable(getattr(importlib.import_module(f"effect_engine.{module}"), attr, None)), site


def test_trace_attributes_every_workload_fit(tmp_path, monkeypatch):
    # The benchmark's tracer and generator, imported without writing
    # bytecode next to them: a traced run of each workload at a few thousand
    # rows records its fit span and the design rows it writes.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    for name in ("tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    for name in workloads.WORKLOADS:
        inputs = workloads.generate(name, seed=0, rows=3000)
        paths = workloads.write_inputs(inputs, str(tmp_path / name))
        model = inputs.config["model"]
        fit = ("model.fit_bayes" if "bayes" in model
               else f"model.fit_ols.{model['covariance']}")
        args = ["run", "--config", paths["config"], "--out", str(tmp_path / f"{name}.json")]
        with tracer.Tracer() as tr:
            assert cli.main(args + (["--flat-prior-ok"] if inputs.flat_prior_ok else [])) == 0
        metrics = tracer.layer_metrics(tr)
        assert metrics[f"{fit}.calls"] >= 1, name
        assert metrics["model.covariate_matrix.calls"] >= 1, name
        fit_spans = {s.id for s in tr.spans if s.name == fit}
        assert any(s.name == "model.covariate_matrix" and s.parent in fit_spans
                   for s in tr.spans), name


SIX_ROW = ("y,arm,x\n1,0,0.5\n3,0,1.5\n2,0,1.0\n4,1,2.0\n6,1,3.0\n5,1,2.5\n",
           {"outcome": "y", "arm": "arm", "covariates": ["x"]}, "0")
PANEL = (PANEL_CSV, {"outcome": "y", "arm": "arm", "unit_id": "uid", "period": "t"}, "c")
NO_UNIT = (PANEL_CSV, {"outcome": "y", "arm": "arm", "period": "t", "covariates": []}, "c")
DTE = {"type": "dte", "arm_to": "t", "arm_from": "c", "period": 0}
NO_DTE_UNIT = ("dte queries need data.columns.unit_id in the config "
               "(cluster-robust covariance clusters on it)")
RANK_DEFICIENT = (RANK_DEFICIENT_CSV, {"outcome": "y", "arm": "arm"}, "a")
# Every value of the covariate c is 2.
CONSTANT_C = ("y,arm,c\n1,0,2\n3,0,2\n2,0,2\n4,1,2\n6,1,2\n5,1,2\n",
              {"outcome": "y", "arm": "arm", "covariates": ["c"]}, "0")
DEPENDENT_C = "design matrix is rank deficient; dependent columns: c, c:arm=1"
# Every row in unit u0.
ONE_UNIT = (re.sub(r",u\d,", ",u0,", PANEL_CSV), PANEL[1], "c")
NOT_PD = "prior covariance is not symmetric positive definite"
ONE_CLUSTER = "cluster covariance requires at least 2 clusters"
DTE_BAYES = ("dte queries are incompatible with a bayes prior; the per-period "
             "contract requires cluster-robust covariance")


FOUR_ROW = (FOUR_ROW_CSV, {"outcome": "y", "arm": "arm"}, "0")


# Each row gives run's message and, for a base fit that fails, validate's
# exact line; a failing query's validate line is run's located line.
@pytest.mark.parametrize("data, model, query, run_message, model_line", [
    (SIX_ROW, {"bayes": {"prior_mean": [0, 0, 0], "noise_variance": 1.0}},
     {"type": "ate", "arm_to": "1", "arm_from": "0"},
     "model.bayes.prior_mean has shape (3,) but the design has p = 4 columns",
     "model.bayes.prior_mean has shape (3,) but the design has p = 4 columns"),
    (SIX_ROW, {}, {"type": "ate", "arm_to": "2", "arm_from": "0"},
     "unknown arm label '2'; model has arms ('0', '1')", None),
    (SIX_ROW, {"bayes": {"noise_variance": 1.0}}, {"type": "prob_best", "arms": ["0", "7"]},
     "unknown arm label '7'; model has arms ('0', '1')", None),
    (SIX_ROW, {}, {"type": "cate", "arm_to": "1", "arm_from": "0", "predicate": "z > 1"},
     "unknown predicate column 'z'; the data's predicate columns are 'x'", None),
    (PANEL, {"covariance": "cluster"}, {**DTE, "period": 7},
     "unknown period 7; data has periods [0, 1]", None),
    (PANEL, {}, {"type": "cate", "arm_to": "t", "arm_from": "c", "predicate": "period > 5"},
     "empty conditioning subset", None),
    (PANEL, {}, {"type": "hte", "arm_to": "t", "arm_from": "c", "predicate": "period >= 0"},
     "hte predicate 'period >= 0' selects every row, so its complement is empty", None),
    (NO_UNIT, {}, DTE, NO_DTE_UNIT, None),
    (PANEL, {"bayes": {"noise_variance": 1.0}}, DTE, DTE_BAYES, None),
    (NO_UNIT, {"covariance": "cluster"}, {"type": "ate", "arm_to": "t", "arm_from": "c"},
     "cluster covariance requires a unit_id column",
     "model: cluster covariance requires a unit_id column"),
    (SIX_ROW, {}, {"type": "ate", "arm_to": "1", "arm_from": "1"},
     "delta vector needs two distinct arms, got '1' twice", None),
    (SIX_ROW, {"bayes": {"noise_variance": 1.0}}, {"type": "prob_best", "arms": ["0", "1", "0"]},
     "duplicate arm labels in ranking request", None),
    # Without unit_id in the column map, the unit column is taken in as a
    # covariate: 8 levels, their interactions, and 16 rows for 16 columns.
    ((PANEL_CSV, {"outcome": "y", "arm": "arm", "period": "t"}, "c"), {},
     {"type": "ate", "arm_to": "t", "arm_from": "c"},
     "need more rows than design columns (n=16, p=16)",
     "model: need more rows than design columns (n=16, p=16)"),
    # z is exactly twice x, so only the fit's QR shows the design is singular.
    (RANK_DEFICIENT, {}, {"type": "ate", "arm_to": "b", "arm_from": "a"},
     DEPENDENT_Z, f"model: {DEPENDENT_Z}"),
    # c lies in the span of the intercept: c is named, not the intercept.
    (CONSTANT_C, {}, {"type": "ate", "arm_to": "1", "arm_from": "0"},
     DEPENDENT_C, f"model: {DEPENDENT_C}"),
    # Symmetric with eigenvalues 3 and -1 in its first block: only the
    # posterior's Cholesky factor finds it.
    (SIX_ROW, {"bayes": {"noise_variance": 1.0, "prior_covariance": [
        [1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}},
     {"type": "ate", "arm_to": "1", "arm_from": "0"},
     NOT_PD, f"model: {NOT_PD}"),
    (ONE_UNIT, {"covariance": "cluster"}, {"type": "ate", "arm_to": "t", "arm_from": "c"},
     ONE_CLUSTER, f"model: {ONE_CLUSTER}"),
    # The base fit is classical, so only the period fit clusters on unit_id.
    (ONE_UNIT, {}, DTE, ONE_CLUSTER, None),
    # The fitted baseline mean, 2, is within the default guard of 5
    # standard errors (1) of zero: only the answer shows it.
    (FOUR_ROW, {}, {"type": "relative_effect", "arm_to": "1", "arm_from": "0"},
     "baseline too close to zero for delta-method ratio", None),
], ids=["prior-length", "unknown-arm", "unknown-ranked-arm", "unknown-column",
        "unknown-period", "empty-subset", "empty-complement", "dte-without-unit-id",
        "dte-with-bayes", "cluster-without-unit-id", "same-arm-twice", "repeated-ranked-arm",
        "rows-not-above-columns", "rank-deficient", "constant-covariate",
        "prior-not-positive-definite",
        "one-cluster", "dte-one-cluster", "relative-guard"])
def test_validate_rejects_what_run_rejects(tmp_path, data, model, query, run_message,
                                           model_line):
    csv, columns, reference = data
    write_workspace(tmp_path, [query], csv=csv, columns=columns,
                    model={"reference_arm": reference, **model})
    # run names a failing query, but not a failing base fit
    run_line = f"error: {run_message}\n" if model_line else f"error: queries[0]: {run_message}\n"
    proc = run_cli("run", "--config", "config.json", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == run_line
    proc = run_cli("validate", "--config", "config.json", cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout
    if model_line:
        assert proc.stderr == f"config error: {model_line}\n"
    else:
        assert proc.stderr == "config error: " + run_line.removeprefix("error: ")
    proc = run_cli("run", "--config", "config.json", "--partial", cwd=tmp_path)
    if model_line:
        # a model block that cannot fit is fatal regardless of --partial
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == run_line
    else:
        # --partial still records a query's failure and runs on.
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["errors"] == [
            {"index": 0, "name": "q0", "error": run_message}]


ATE = {"type": "ate", "arm_to": "1", "arm_from": "0"}
DANGLING_AND = ("queries[0].predicate: cannot parse predicate clause {!r}: the unquoted "
                "literal {!r} ends in 'and' with no clause after it")


@pytest.mark.parametrize("queries, message", [
    ([{**ATE, "type": "cate", "predicate": "x > 1 and"}], DANGLING_AND.format("x > 1 and", "1 and")),
    ([{**ATE, "type": "cate", "predicate": "seg != a and"}],
     DANGLING_AND.format("seg != a and", "a and")),
    ([{**ATE, "name": "a"}, {**ATE, "name": "a"}], "queries[1].name: duplicate of queries[0]"),
    ([{**ATE, "name": "q1"}, ATE], "queries[1].name: duplicate of queries[0]"),
], ids=["numeric-trailing-and", "categorical-trailing-and", "duplicate-name",
        "name-of-a-default"])
def test_query_refused_before_the_data_is_read(tmp_path, queries, message):
    write_workspace(tmp_path, queries)
    (tmp_path / "data.csv").unlink()
    for command in ("run", "validate"):
        proc = run_cli(command, "--config", "config.json", cwd=tmp_path)
        assert proc.returncode == 1, (command, proc.stderr)
        assert proc.stderr.startswith(f"config error: {message}"), (command, proc.stderr)


def test_a_failed_period_fit_is_made_once(tmp_path, monkeypatch):
    # x is 1.5 times the period, so the period fit's design is singular while
    # the base fit's is not. Under --partial each dte query records the one
    # failure: one base fit and one period fit in all.
    csv = "y,arm,uid,t,x\n" + "".join(
        f"{(u * 7 + t * 3) % 5},{'ct'[u % 2]},u{u},{t},{1.5 * t}\n"
        for u in range(20) for t in range(4))
    dtes = [{"type": "dte", "arm_to": "t", "arm_from": "c", "period": t} for t in range(4)]
    path = write_workspace(tmp_path, dtes + [{"type": "ate", "arm_to": "t", "arm_from": "c"}],
                           csv=csv, reference_arm="c", columns={
                               "outcome": "y", "arm": "arm", "unit_id": "uid", "period": "t"})
    calls = []
    fit_ols = model_module.fit_ols
    monkeypatch.setattr(model_module, "fit_ols",
                        lambda *args, **kwargs: calls.append(1) or fit_ols(*args, **kwargs))
    report = execute(load_config(path), partial=True)
    assert len(calls) == 2
    assert [e["index"] for e in report["errors"]] == [0, 1, 2, 3]
    assert len({e["error"] for e in report["errors"]}) == 1
    assert report["errors"][0]["error"].startswith("design matrix is rank deficient")
    assert [r["name"] for r in report["results"]] == ["q4"]


def test_validate_accepts_a_singular_design_under_a_prior(tmp_path):
    # The prior rows make the posterior proper, so run and validate fit it.
    csv, columns, reference = RANK_DEFICIENT
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "b", "arm_from": "a"}], csv=csv,
                    columns=columns, model={"reference_arm": reference,
                                            "bayes": {"noise_variance": 1.0}})
    proc = run_cli("validate", "--config", "config.json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "config OK: 30 rows, 9 design columns" in proc.stdout
    assert run_cli("run", "--config", "config.json", cwd=tmp_path).returncode == 0


@pytest.mark.parametrize("qtype", sorted(QUERY_TYPES))
def test_query_fields_are_parameters_of_the_answering_function(qtype):
    kind = QUERY_TYPES[qtype]
    function = getattr(kind.module, qtype)
    assert kind.required | kind.optional <= set(inspect.signature(function).parameters)
    assert kind.fit in ("base", "posterior", "period_cluster")


DISPATCH_QUERIES = [
    {"type": "ate", "arm_to": "b", "arm_from": "a", "ci_level": 0.8},
    {"type": "cate", "arm_to": "b", "arm_from": "a", "predicate": "x>=0", "ci_level": 0.8},
    {"type": "hte", "arm_to": "c", "arm_from": "a", "predicate": "g == 'h'",
     "ci_level": 0.8, "name": "het"},
    {"type": "dte", "arm_to": "c", "arm_from": "b", "period": 1, "ci_level": 0.8},
    {"type": "relative_effect", "arm_to": "b", "arm_from": "a", "predicate": "x>=0",
     "ci_level": 0.8, "guard": 1.0},
    {"type": "prob_positive", "arm_to": "c", "arm_from": "a", "predicate": "g == 'h'"},
    {"type": "prob_best", "arms": ["c", "b"], "predicate": "x>=0"},
]


def test_execute_answers_each_type_with_its_library_call(tmp_path):
    rng = np.random.default_rng(5)
    rows = [(10 + rng.normal() + 0.5 * (i % 3), "abc"[i % 3], f"u{i % 24}", i // 24,
             f"{rng.normal():.3f}", "hl"[i % 5 % 2]) for i in range(96)]
    (tmp_path / "data.csv").write_text(
        "y,arm,uid,t,x,g\n" + "".join(",".join(map(str, r)) + "\n" for r in rows),
        encoding="utf-8")
    cfg = parse_config({
        "data": {"path": "data.csv", "columns": {"outcome": "y", "arm": "arm", "unit_id": "uid",
                                                 "period": "t", "covariates": ["x", "g"]}},
        "model": {"reference_arm": "a", "covariance": "cluster"},
        "queries": DISPATCH_QUERIES, "seed": 3, "mvn_tol": 1e-3,
    }, base_dir=str(tmp_path))
    report = execute(cfg, flat_prior_ok=True)

    data = load_csv(cfg.data_path, cfg.column_map)
    base = fit_model(data, cfg.model)
    posterior = as_flat_prior_posterior(base)
    pdata = add_period_covariate(data)
    period_fit = fit_model(pdata, cfg.model)
    x_pos, g_h = parse_predicate("x >= 0"), parse_predicate("g == h")

    def qmc(index):
        return {"tol": 1e-3, "seed": np.random.SeedSequence([3, index])}

    expected = [
        ate(base, data, "b", "a", ci_level=0.8),
        cate(base, data, "b", "a", x_pos, ci_level=0.8),
        hte(base, data, "c", "a", g_h, ci_level=0.8),
        dte(period_fit, pdata, "c", "b", 1, ci_level=0.8),
        relative_effect(base, data, "b", "a", x_pos, ci_level=0.8, guard=1.0),
        prob_positive(posterior, data, "c", "a", g_h, **qmc(5)),
        prob_best(posterior, data, ["c", "b"], x_pos, **qmc(6)),
    ]
    assert report["errors"] == []
    assert len(report["results"]) == len(expected)
    for index, (got, res) in enumerate(zip(report["results"], expected)):
        want = {**res.to_dict(), "index": index, "name": "het" if index == 2 else f"q{index}"}
        if res.query["type"] == "dte":
            want["model_variant"] = "period_cluster"
        assert got == want


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's own generator (perfbench/workloads.py), imported
    without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    return importlib.import_module("workloads")


def test_validate_accepts_every_benchmark_workload(tmp_path, workloads):
    for name in workloads.WORKLOADS:
        paths = workloads.write_inputs(workloads.generate(name, seed=0, rows=3000),
                                       str(tmp_path / name))
        proc = run_cli("validate", "--config", paths["config"], cwd=tmp_path)
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stdout.startswith("config OK: 3000 rows"), (name, proc.stdout)


# sha256 of each benchmark workload's rendered report at seed 0 and 3,000
# rows, without its created_at field. The same bytes came out under
# OPENBLAS_NUM_THREADS = 1, 2 and 4. A change that moves a bit of a report
# updates these and says so.
REPORT_DIGESTS = {
    "xsec_hc1": "f27de707a160c3b5e4ca60ba445032ea74a0e67b705d35c64dcaf71153165a0a",
    "panel_cluster": "88e7b108be0d87f48029557e1976270418a1de382943ddb5004017e3aa56c63a",
    "segments_bayes": "2f2503ed2b798ee4ebb0b8fece06fe0f9ab100c63b97224011fd597ae965fd61",
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_workload_report_bytes_are_pinned(name, tmp_path, workloads):
    inputs = workloads.generate(name, seed=0, rows=3000)
    cfg = load_config(workloads.write_inputs(inputs, str(tmp_path))["config"])
    report = execute(cfg, flat_prior_ok=inputs.flat_prior_ok)
    del report["created_at"]
    digest = hashlib.sha256(render_report(report).encode("utf-8")).hexdigest()
    assert digest == REPORT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_bytes_do_not_depend_on_the_blas_thread_count(name, tmp_path, workloads):
    # Each workload's shape at 9,000 rows: the design spans five blocks, the
    # first four full (2,048 rows), and segments_bayes is p = 72 wide, where
    # LAPACK's QR of a block changes bits with OpenBLAS's thread count. Two
    # of its 24 prob_best queries keep the run short.
    inputs = workloads.generate(name, seed=0, rows=9000)
    queries = inputs.config["queries"]
    best = [q for q in queries if q["type"] == "prob_best"]
    queries[:] = [q for q in queries if q["type"] != "prob_best"] + best[:2]
    config = workloads.write_inputs(inputs, str(tmp_path))["config"]
    flags = ["--flat-prior-ok"] if inputs.flat_prior_ok else []
    reports = set()
    for threads in ("1", "2", "4"):
        proc = subprocess.run(
            [sys.executable, "-m", "effect_engine", "run", "--config", config, *flags],
            cwd=tmp_path, env={**cli_env(), "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports.add("\n".join(strip_timestamp(proc.stdout)))
    assert len(reports) == 1


def test_execute_runs_on_one_blas_thread_and_gives_the_caller_its_count_back(
        tmp_path, monkeypatch):
    threads = cli._openblas_threads()
    if threads is None:
        pytest.skip("numpy is not built on its bundled OpenBLAS")
    get, put = threads
    inside = []
    fit_model = cli.fit_model
    monkeypatch.setattr(cli, "fit_model", lambda *args: inside.append(get()) or fit_model(*args))
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}])
    cfg = load_config(str(tmp_path / "config.json"))
    caller = get()
    put(3)
    try:
        execute(cfg)
        after_run = get()
        with pytest.raises(ConfigError):
            execute(dataclasses.replace(cfg, data_path=str(tmp_path / "missing.csv")))
        after_error = get()
    finally:
        put(caller)
    assert inside == [1]
    assert after_run == after_error == 3


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /dev/stdin")
def test_piped_data_gets_the_digest_of_its_bytes(tmp_path):
    n = 2 * data_module.CHUNK_ROWS + 5
    csv = "y,arm\n" + "".join(f"{i % 7 + 3 * (i % 2)},{i % 2}\n" for i in range(n))
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}], csv=csv)
    named = run_cli("run", "--config", "config.json", cwd=tmp_path)
    piped = subprocess.run(
        [sys.executable, "-m", "effect_engine", "run", "--config", "config.json",
         "--data", "/dev/stdin"],
        cwd=tmp_path, env=cli_env(), input=csv, capture_output=True, text=True, timeout=300)
    assert named.returncode == 0, named.stderr
    assert piped.returncode == 0, piped.stderr
    digest = "sha256:" + hashlib.sha256(csv.encode()).hexdigest()
    assert json.loads(named.stdout)["data_digest"] == digest
    assert json.loads(piped.stdout)["data_digest"] == digest

"""End-to-end command-line behavior, exercised through subprocesses."""

import json
import subprocess
import sys

import pytest
from numpy.testing import assert_allclose

from conftest import cli_env

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


def test_verify_full_suite(tmp_path):
    proc = run_cli("verify", "--suite", "full", cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    assert len(lines) == 10
    assert all(l.startswith("ok") for l in lines)


def test_bad_bayes_prior_exits_1(tmp_path):
    write_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}],
                    model={"reference_arm": "0",
                           "bayes": {"prior_covariance": "big", "noise_variance": 1.0}})
    for command in ("validate", "run"):
        proc = run_cli(command, "--config", "config.json", cwd=tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert "config error: model.bayes.prior_covariance" in proc.stderr

"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re

import pytest

import checks
import run
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_bytes(name):
    first = workloads.generate(name, 7, rows=600)
    again = workloads.generate(name, 7, rows=600)
    other = workloads.generate(name, 8, rows=600)
    assert workloads.csv_bytes(first.columns) == workloads.csv_bytes(again.columns)
    assert json.dumps(first.config) == json.dumps(again.config)
    assert first.truth == again.truth
    assert workloads.csv_bytes(first.columns) != workloads.csv_bytes(other.columns)


def test_truth_check_rejects_shift_of_ten_se(tmp_path):
    with run.Bench("xsec_hc1", 3, rows=3000, work=str(tmp_path)) as bench:
        bench.run_child("0")
    assert bench.tally.problems == []
    with open(os.path.join(bench.dir, "report-0.json"), "rb") as fh:
        report = fh.read()

    doc = json.loads(report)
    for result in doc["results"]:
        if result["name"] in bench.inputs.truth:
            shifted = json.loads(report)
            target = next(r for r in shifted["results"] if r["name"] == result["name"])
            target["estimate"] += 10.0 * target["std_error"]
            problems = checks.check_report(json.dumps(shifted).encode(), bench.schema,
                                           bench.inputs.config, bench.inputs.truth)
            assert len(problems) == 1 and result["name"] in problems[0]


def test_child_peak_rss_is_its_own(tmp_path):
    ballast = b"x" * (300 << 20)  # the benchmark process holding far more than a child
    with run.Bench("xsec_hc1", 6, rows=500, work=str(tmp_path)) as bench:
        child = bench.launcher.spawn(["--help"], os.path.join(bench.dir, "help"))
    assert child.exit_code == 0
    assert child.peak_rss_mb < 200 < len(ballast) >> 20


def test_digest_ignores_created_at_only():
    report = b'{\n  "created_at": "2020-01-01T00:00:00+00:00",\n  "seed": 1\n}\n'
    later = report.replace(b"2020", b"2021")
    assert checks.stable_digest(report) == checks.stable_digest(later)
    assert checks.stable_digest(report) != checks.stable_digest(report.replace(b"1\n}", b"2\n}"))


def test_failed_frac_counts_nonzero_exit(tmp_path):
    with run.Bench("xsec_hc1", 4, rows=500, work=str(tmp_path)) as bench:
        bench.run_child("ok")
        assert (bench.tally.attempted, bench.tally.failed) == (1, 0)

        with open(bench.paths["config"], encoding="utf-8") as fh:
            config = json.load(fh)
        config["model"]["reference_arm"] = "no-such-arm"
        with open(bench.paths["config"], "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        bench.run_child("broken")
    assert (bench.tally.attempted, bench.tally.failed) == (2, 1)
    assert bench.tally.failed_frac == 0.5
    assert bench.tally.problems[0].startswith("exit code 2:")


def test_benchmark_json_matches_emitted_metrics():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.match(m["name"])
        units = run.END_TO_END if m in BENCHMARK["end_to_end"] else run.PER_LAYER
        assert m["unit"] == units[m["name"]]
    assert len(BENCHMARK["end_to_end"]) <= 16 and len(BENCHMARK["per_layer"]) <= 128


@pytest.mark.parametrize("name", ["panel_cluster", "segments_bayes"])
def test_traced_run_emits_every_layer_metric(tmp_path, name):
    with run.Bench(name, 5, rows=3000, work=str(tmp_path)) as bench:
        metrics, samples = run.traced(bench, seconds=0)
    assert bench.tally.problems == []
    assert set(metrics) == set(run.PER_LAYER)
    assert all(NAME.match(k) for k in metrics)
    assert samples["traced_reps"] == run.MIN_TRACED
    assert metrics["cli.execute.calls"] == 1
    if name == "panel_cluster":
        assert metrics["model.fit_ols.cluster.calls"] == 2
        assert metrics["model.fit_ols.cluster.groups"] == 2 * 250
        assert metrics["effects.dte.calls"] == 12
    else:
        assert metrics["model.fit_bayes.calls"] == 1
        assert metrics["mvnorm.mvn_orthant.calls"] == 24 * 6
        assert metrics["mvnorm.mvn_orthant.points"] > 0
    assert os.path.getsize(os.path.join(bench.dir, "spans.jsonl")) > 0

"""Acceptance gate: one test per acceptance criterion, each printing its own
pass/fail line (the prints bypass capture so the lines always show).

The numeric checks live in ``effect_engine.verify`` so the shipped package
can re-run them via ``effect-engine verify``; this module pins the gate
thresholds and adds the two end-to-end CLI criteria.
"""

import json
import subprocess
import sys
import time

from conftest import cli_env
from effect_engine import verify

FOUR_ROW_CSV = "y,arm\n1,0\n3,0\n4,1\n6,1\n"


def announce(capsys, number, description, passed, detail, elapsed):
    tag = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"\n[{tag}] criterion {number}: {description} -- {detail} ({elapsed:.1f}s)")


def run_check(capsys, number, description, check, budget=None, **kwargs):
    start = time.perf_counter()
    results = [fn(**kw) for fn, kw in check] if isinstance(check, list) else [check(**kwargs)]
    elapsed = time.perf_counter() - start
    passed = all(r.passed for r in results)
    detail = "; ".join(f"{r.name}: {r.detail}" for r in results)
    if budget is not None and elapsed > budget:
        passed = False
        detail += f"; exceeded {budget}s budget"
    announce(capsys, number, description, passed, detail, elapsed)
    assert passed, detail
    return elapsed


def test_criterion_1_delta_identity(capsys):
    run_check(
        capsys, 1,
        "delta row equals the row built from its column labels (200 schemas, tol 0)",
        verify.delta_identity_check, budget=1.0, n_schemas=200,
    )


def test_criterion_2_group_means(capsys):
    run_check(
        capsys, 2,
        "no-covariate effects match fsum group-mean deltas (100 datasets, tol 1e-10)",
        verify.group_means_check, n_datasets=100,
    )


def test_criterion_3_saturated_subgroups(capsys):
    run_check(
        capsys, 3,
        "saturated cate/hte match cell-mean oracles (50 datasets, tol 1e-10)",
        verify.saturated_subgroup_check, n_datasets=50,
    )


def test_criterion_4_ci_coverage(capsys):
    run_check(
        capsys, 4,
        "95% CI coverage under heteroskedastic interactions "
        "(2000 sims, gate [0.93, 0.97])",
        verify.ci_coverage_check, budget=120.0, n_sims=2000,
    )


def test_criterion_5_ratio_against_oracles(capsys):
    run_check(
        capsys, 5,
        "ratio worked example exact to 1e-12 and delta-method vs MC "
        "(20 models, 3 MC sigma)",
        [(verify.ratio_example_check, {}),
         (verify.ratio_mc_battery_check, {"n_models": 20})],
        budget=120.0,
    )


def test_criterion_6_orthant_and_ranking(capsys):
    run_check(
        capsys, 6,
        "orthant vs closed form/MC and at tol 1e-5 vs a full-budget reference "
        "(40 matrices), rankings sum to 1, exchangeable arms uniform (tol 2e-3)",
        [(verify.bivariate_orthant_check, {}),
         (verify.orthant_mc_battery_check, {"n_matrices": 20}),
         (verify.orthant_tol_check, {"n_matrices": 40}),
         (verify.prob_best_sum_check, {"arm_counts": (3, 4, 5)}),
         (verify.exchangeable_ranking_check, {})],
        budget=300.0,
    )


def _cli_workspace(tmp_path, queries):
    (tmp_path / "data.csv").write_text(FOUR_ROW_CSV, encoding="utf-8")
    config = {
        "data": {"path": "data.csv", "columns": {"outcome": "y", "arm": "arm"}},
        "model": {"reference_arm": "0", "covariance": "classical"},
        "queries": queries,
        "seed": 7,
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")


def _run_cli(tmp_path, *args):
    return subprocess.run(
        [sys.executable, "-m", "effect_engine", *args],
        cwd=tmp_path, env=cli_env(), capture_output=True, text=True, timeout=300,
    )


def test_criterion_7_run_determinism(capsys, tmp_path):
    start = time.perf_counter()
    _cli_workspace(tmp_path, [
        {"type": "ate", "arm_to": "1", "arm_from": "0"},
        {"type": "relative_effect", "arm_to": "1", "arm_from": "0", "guard": 1.5},
        {"type": "prob_positive", "arm_to": "1", "arm_from": "0"},
        {"type": "prob_best"},
    ])
    texts = []
    for name in ("a.json", "b.json"):
        proc = _run_cli(tmp_path, "run", "--config", "config.json", "--flat-prior-ok",
                        "--out", name)
        assert proc.returncode == 0, proc.stderr
        texts.append((tmp_path / name).read_text(encoding="utf-8"))
    lines = [
        [l for l in text.splitlines() if '"created_at"' not in l] for text in texts
    ]
    passed = lines[0] == lines[1]
    elapsed = time.perf_counter() - start
    announce(capsys, 7, "repeated runs byte-identical apart from created_at",
             passed, f"{len(lines[0])} compared lines", elapsed)
    assert passed


def test_criterion_8_cli_reference_numbers(capsys, tmp_path):
    start = time.perf_counter()
    _cli_workspace(tmp_path, [{"type": "ate", "arm_to": "1", "arm_from": "0"}])
    proc = _run_cli(tmp_path, "run", "--config", "config.json")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["results"][0]
    est_err = abs(result["estimate"] - 3.0)
    se_err = abs(result["std_error"] - 1.41421356)
    passed = est_err < 1e-8 and se_err < 1e-8
    elapsed = time.perf_counter() - start
    announce(capsys, 8,
             "two-arm example: estimate 3, std error 1.41421356 (8 digits)",
             passed,
             f"estimate off by {est_err:.1e}, std error off by {se_err:.1e}",
             elapsed)
    assert passed

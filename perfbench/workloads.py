"""Seeded synthetic workloads with known truth.

Each workload draws its rows from the interacted linear model itself,

    y = alpha + gamma.z + tau[arm] + delta[arm].z (+ unit effect) + noise,

where ``z`` is the fully expanded covariate row (numeric values as written
to the CSV, one indicator per level of every categorical, and for the panel
one indicator per period). Because the engine fits the same linear space,
the true value of every effect query on the realized rows is the mean
function evaluated at the subset's covariate means. That truth goes to a
side file; the engine only ever sees the CSV and the config.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

__all__ = ["WORKLOADS", "Inputs", "generate", "write_inputs"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: int
    build: object  # (rng, n) -> Inputs


@dataclass(frozen=True)
class Inputs:
    """Generated CSV columns (as strings), engine config and truth."""

    columns: dict  # column name -> list of cell strings, in CSV order
    config: dict
    truth: dict  # query name -> true value of the estimand
    flat_prior_ok: bool


class _Truth:
    """True mean function of the generator, evaluated at subset means of z."""

    def __init__(self, z: np.ndarray, arms: np.ndarray, alpha: float,
                 gamma: np.ndarray, tau: dict, delta: dict):
        self.z, self.arms = z, arms
        self.alpha, self.gamma, self.tau, self.delta = alpha, gamma, tau, delta

    def expected(self) -> np.ndarray:
        mean = self.alpha + self.z @ self.gamma
        for arm, t in self.tau.items():
            sel = self.arms == arm
            mean[sel] += t + self.z[sel] @ self.delta[arm]
        return mean

    def level(self, arm: str, mask: np.ndarray) -> float:
        zbar = self.z[mask].mean(axis=0)
        return float(self.alpha + self.gamma @ zbar + self.tau[arm] + self.delta[arm] @ zbar)

    def effect(self, arm_to: str, arm_from: str, mask: np.ndarray) -> float:
        return self.level(arm_to, mask) - self.level(arm_from, mask)


def _numeric(values: np.ndarray, decimals: int = 4) -> tuple[list[str], np.ndarray]:
    """Format a numeric column and parse it back, so the truth uses exactly
    the doubles the engine reads from the CSV."""
    cells = [f"{v:.{decimals}f}" for v in values.tolist()]
    return cells, np.asarray(cells, dtype=np.float64)


def _indicators(labels: np.ndarray, levels: list[str]) -> np.ndarray:
    return np.column_stack([(labels == lv).astype(np.float64) for lv in levels])


def _arm_params(rng, arms: list[str], q: int, tau_scale: float, delta_scale: float):
    """Reference arm (first) has zero offsets; the others are drawn."""
    tau = {arms[0]: 0.0}
    delta = {arms[0]: np.zeros(q)}
    for arm in arms[1:]:
        tau[arm] = float(rng.normal(0.0, tau_scale))
        delta[arm] = rng.normal(0.0, delta_scale, size=q)
    return tau, delta


def _outcome(mean: np.ndarray, noise: np.ndarray) -> list[str]:
    return [f"{v:.6f}" for v in (mean + noise).tolist()]


def _xsec_hc1(rng, n: int) -> Inputs:
    arms = ["control", "t1", "t2"]
    arm = rng.choice(np.asarray(arms, dtype=object), size=n)
    x_cells, x_vals = {}, []
    for j, (loc, scale) in enumerate([(0.0, 1.0), (1.0, 2.0), (-0.5, 0.5), (3.0, 1.5)], start=1):
        cells, vals = _numeric(rng.normal(loc, scale, size=n))
        x_cells[f"x{j}"] = cells
        x_vals.append(vals)
    c1_levels = ["a", "b", "c"]
    c2_levels = [f"l{k}" for k in range(5)]
    c1 = rng.choice(np.asarray(c1_levels, dtype=object), size=n, p=[0.5, 0.3, 0.2])
    c2 = rng.choice(np.asarray(c2_levels, dtype=object), size=n)
    z = np.column_stack(x_vals + [_indicators(c1, c1_levels), _indicators(c2, c2_levels)])
    q = z.shape[1]
    tau, delta = _arm_params(rng, arms, q, tau_scale=0.5, delta_scale=0.1)
    truth = _Truth(z, arm, 10.0, rng.normal(0.0, 0.5, size=q), tau, delta)
    noise = rng.normal(size=n) * (0.5 + 0.5 * np.abs(x_vals[0]))

    all_rows = np.ones(n, dtype=bool)
    cate_mask = (c2 == "l3") & (x_vals[0] >= 0.0)
    hte_mask = c1 == "b"
    queries = [
        {"name": "ate_t1", "type": "ate", "arm_to": "t1", "arm_from": "control"},
        {"name": "cate_t2", "type": "cate", "arm_to": "t2", "arm_from": "control",
         "predicate": "c2 == l3 and x1 >= 0"},
        {"name": "hte_t1", "type": "hte", "arm_to": "t1", "arm_from": "control",
         "predicate": "c1 == b"},
        {"name": "rel_t2", "type": "relative_effect", "arm_to": "t2", "arm_from": "control"},
        {"name": "pos_t1", "type": "prob_positive", "arm_to": "t1", "arm_from": "control"},
        {"name": "best", "type": "prob_best"},
    ]
    answers = {
        "ate_t1": truth.effect("t1", "control", all_rows),
        "cate_t2": truth.effect("t2", "control", cate_mask),
        "hte_t1": truth.effect("t1", "control", hte_mask)
        - truth.effect("t1", "control", ~hte_mask),
        "rel_t2": truth.effect("t2", "control", all_rows) / truth.level("control", all_rows),
    }
    columns = {"y": _outcome(truth.expected(), noise), "arm": arm.tolist(), **x_cells,
               "c1": c1.tolist(), "c2": c2.tolist()}
    config = _config(queries, model={"reference_arm": "control", "covariance": "hc1"},
                     covariates=["x1", "x2", "x3", "x4", "c1", "c2"])
    return Inputs(columns, config, answers, flat_prior_ok=True)


_PERIODS = 12


def _panel_cluster(rng, n: int) -> Inputs:
    units = max(n // _PERIODS, 8)
    arms = ["control", "treat"]
    unit_arm = rng.choice(np.asarray(arms, dtype=object), size=units)
    unit_c1 = rng.choice(np.asarray(["a", "b", "c"], dtype=object), size=units)
    unit_x2 = rng.normal(0.0, 1.0, size=units)
    unit_effect = rng.normal(0.0, 1.0, size=units)

    unit_idx = np.repeat(np.arange(units), _PERIODS)
    period = np.tile(np.arange(1, _PERIODS + 1), units)
    arm = unit_arm[unit_idx]
    c1 = unit_c1[unit_idx]
    x1_cells, x1 = _numeric(rng.normal(0.0, 1.0, size=units * _PERIODS))
    x2_unit_cells, x2_unit = _numeric(unit_x2)
    x2_cells = [x2_unit_cells[u] for u in unit_idx.tolist()]
    x2 = x2_unit[unit_idx]
    period_ind = _indicators(period, list(range(1, _PERIODS + 1)))
    z = np.column_stack([x1, x2, _indicators(c1, ["a", "b", "c"]), period_ind])
    q = z.shape[1]

    # Period main effects and an effect that grows over time (the dte signal).
    gamma = np.concatenate([rng.normal(0.0, 0.5, size=5), 0.05 * np.arange(1, _PERIODS + 1)])
    tau, delta = _arm_params(rng, arms, q, tau_scale=0.5, delta_scale=0.1)
    delta["treat"][5:] = 0.03 * np.arange(1, _PERIODS + 1)
    truth = _Truth(z, arm, 5.0, gamma, tau, delta)
    noise = unit_effect[unit_idx] + rng.normal(size=units * _PERIODS)

    queries = [{"name": "ate", "type": "ate", "arm_to": "treat", "arm_from": "control"}]
    answers = {"ate": truth.effect("treat", "control", np.ones(units * _PERIODS, dtype=bool))}
    for t in range(1, _PERIODS + 1):
        name = f"dte_{t}"
        queries.append({"name": name, "type": "dte", "arm_to": "treat", "arm_from": "control",
                        "period": t})
        answers[name] = truth.effect("treat", "control", period == t)
    columns = {"y": _outcome(truth.expected(), noise), "arm": arm.tolist(),
               "unit": [f"u{u:05d}" for u in unit_idx.tolist()],
               "period": [str(t) for t in period.tolist()],
               "x1": x1_cells, "x2": x2_cells, "c1": c1.tolist()}
    config = _config(queries, model={"reference_arm": "control", "covariance": "cluster"},
                     covariates=["x1", "x2", "c1"], unit_id="unit", period="period")
    return Inputs(columns, config, answers, flat_prior_ok=False)


_SEGMENT_QUERIES = 24
_THRESHOLDS = (-0.5, 0.0, 0.5)
_NOISE_VARIANCE = 1.0


def _segments_bayes(rng, n: int) -> Inputs:
    arms = ["control"] + [f"v{k}" for k in range(1, 6)]
    arm = rng.choice(np.asarray(arms, dtype=object), size=n)
    regions = [f"r{k}" for k in range(10)]
    region = rng.choice(np.asarray(regions, dtype=object), size=n)
    x1_cells, x1 = _numeric(rng.normal(0.0, 1.0, size=n))
    x2_cells, x2 = _numeric(rng.uniform(0.0, 4.0, size=n))
    z = np.column_stack([x1, x2, _indicators(region, regions)])
    q = z.shape[1]
    # Nearly equal arms, so prob_best lands mid-range and the QMC does real work.
    tau, delta = _arm_params(rng, arms, q, tau_scale=0.02, delta_scale=0.01)
    truth = _Truth(z, arm, 10.0, rng.normal(0.0, 0.5, size=q), tau, delta)
    noise = rng.normal(0.0, np.sqrt(_NOISE_VARIANCE), size=n)

    queries, answers = [], {}
    for i in range(_SEGMENT_QUERIES):
        level, threshold = regions[i % len(regions)], _THRESHOLDS[i % len(_THRESHOLDS)]
        predicate = f"region == {level} and x1 >= {threshold}"
        mask = (region == level) & (x1 >= threshold)
        arm_to = arms[1 + i % 5]
        pair = {"arm_to": arm_to, "arm_from": "control", "predicate": predicate}
        queries += [
            {"name": f"cate_{i}", "type": "cate", **pair},
            {"name": f"hte_{i}", "type": "hte", **pair},
            {"name": f"rel_{i}", "type": "relative_effect", **pair},
            {"name": f"best_{i}", "type": "prob_best", "predicate": predicate},
        ]
        answers[f"cate_{i}"] = truth.effect(arm_to, "control", mask)
        answers[f"hte_{i}"] = (truth.effect(arm_to, "control", mask)
                               - truth.effect(arm_to, "control", ~mask))
        answers[f"rel_{i}"] = truth.effect(arm_to, "control", mask) / truth.level("control", mask)
    # Order queries by type, so each type's calls run back to back.
    queries.sort(key=lambda qry: ["cate", "hte", "relative_effect", "prob_best"].index(qry["type"]))
    columns = {"y": _outcome(truth.expected(), noise), "arm": arm.tolist(),
               "region": region.tolist(), "x1": x1_cells, "x2": x2_cells}
    model = {"reference_arm": "control", "covariance": "hc1",
             "bayes": {"noise_variance": _NOISE_VARIANCE}}
    config = _config(queries, model=model, covariates=["region", "x1", "x2"],
                     mvn_tol=1e-5)
    return Inputs(columns, config, answers, flat_prior_ok=False)


def _config(queries: list, *, model: dict, covariates: list,
            mvn_tol: float | None = None, **panel) -> dict:
    cols = {"outcome": "y", "arm": "arm", "covariates": covariates, **panel}
    config = {"data": {"path": "data.csv", "columns": cols}, "model": model,
              "queries": queries, "seed": 0}
    if mvn_tol is not None:
        config["mvn_tol"] = mvn_tol
    return config


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "xsec_hc1",
            "200k rows, 3 arms, hc1: large-n ingest, design build and fit dominate; "
            "an ingest, design or factorization change shows here",
            200_000, _xsec_hc1),
        Workload(
            "panel_cluster",
            "2,500 units x 12 periods, cluster covariance and dte: the O(n*G) cluster "
            "fits dominate; the only workload with period covariate, dte and cluster",
            30_000, _panel_cluster),
        Workload(
            "segments_bayes",
            "20k rows, 6 near-equal arms, conjugate prior, 96 segment queries: per-query "
            "covariate profiles and the QMC orthant dominate; fit and ingest are trivial",
            20_000, _segments_bayes),
    )
}


def generate(name: str, seed: int, rows: int | None = None) -> Inputs:
    """Draw a workload's inputs; the same (name, seed, rows) gives the same bytes."""
    workload = WORKLOADS[name]
    index = list(WORKLOADS).index(name)
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    inputs = workload.build(rng, rows or workload.rows)
    inputs.config["seed"] = seed
    return inputs


def csv_bytes(columns: dict) -> bytes:
    header = ",".join(columns)
    body = "\n".join(",".join(cells) for cells in zip(*columns.values()))
    return (header + "\n" + body + "\n").encode("utf-8")


def write_inputs(inputs: Inputs, directory: str) -> dict:
    """Write ``data.csv`` and ``config.json`` for the engine, and the truth
    side file one level up, out of the engine's input directory."""
    input_dir = os.path.join(directory, "input")
    os.makedirs(input_dir, exist_ok=True)
    paths = {
        "data": os.path.join(input_dir, "data.csv"),
        "config": os.path.join(input_dir, "config.json"),
        "truth": os.path.join(directory, "truth.json"),
    }
    with open(paths["data"], "wb") as fh:
        fh.write(csv_bytes(inputs.columns))
    with open(paths["config"], "w", encoding="utf-8") as fh:
        json.dump(inputs.config, fh, indent=1, sort_keys=True)
    with open(paths["truth"], "w", encoding="utf-8") as fh:
        json.dump(inputs.truth, fh, indent=1, sort_keys=True)
    return paths

"""Command-line entry point.

``run`` executes the queries in a JSON config against a CSV dataset and
writes a deterministic report; ``validate`` checks a config (and its data)
without running anything; ``verify`` runs the built-in self-checks.

Exit codes: 0 success, 1 config/input validation failure, 2 numeric or
query failure. ``EFFECT_ENGINE_THREADS`` (default 1) caps how many queries
run concurrently; the report content does not depend on it.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import threading
import warnings as _warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import effects, ranking, relative
from .config import ConfigError, QuerySpec, RunConfig, load_config
from .data import Dataset, add_period_covariate, load_csv
from .model import (
    BayesPrior,
    FittedModel,
    ModelSpec,
    as_flat_prior_posterior,
    build_design,
    build_schema,
    fit_bayes,
    fit_model,
)
from .predicates import parse_predicate
from .report import build_report, render_report, sha256_file, write_report
from .verify import SUITES, run_suite

__all__ = ["main", "execute"]


def _materialize_prior(bayes, p: int) -> BayesPrior:
    """Expand the config's scalar-or-vector prior to full (p,)/(p,p) form."""
    mean = bayes["prior_mean"]
    if isinstance(mean, (int, float)) and not isinstance(mean, bool):
        mean_vec = np.full(p, float(mean))
    else:
        mean_vec = np.asarray(mean, dtype=np.float64)
    if "prior_covariance" in bayes:
        raw = np.asarray(bayes["prior_covariance"], dtype=np.float64)
        cov = np.diag(raw) if raw.ndim == 1 else raw
    else:
        cov = np.eye(p) * float(bayes["prior_variance"])
    return BayesPrior(mean=mean_vec, covariance=cov, noise_variance=float(bayes["noise_variance"]))


class _FitCache:
    """Lazily fits the model variants queries need, at most once each.

    Variants: the base fit from the config's model block; a cluster-robust
    fit on period-augmented data for per-period queries; and the posterior
    reading of the base fit for probability queries.
    """

    def __init__(self, data: Dataset, cfg: RunConfig, flat_prior_ok: bool):
        self._data = data
        self._cfg = cfg
        self._flat_prior_ok = flat_prior_ok
        self._lock = threading.Lock()
        self._store: dict = {}

    def base(self) -> FittedModel:
        with self._lock:
            if "base" not in self._store:
                cfg = self._cfg
                spec = ModelSpec(
                    reference_arm=cfg.reference_arm,
                    covariance_kind=cfg.covariance,
                    encodings=cfg.encodings,
                    interactions=cfg.interactions,
                )
                if cfg.bayes is None:
                    self._store["base"] = fit_model(self._data, spec)
                else:
                    design, y, schema = build_design(self._data, spec)
                    prior = _materialize_prior(cfg.bayes, schema.p)
                    self._store["base"] = fit_bayes(
                        design, y, prior.mean, prior.covariance,
                        prior.noise_variance, schema=schema,
                    )
            return self._store["base"]

    def period_cluster(self) -> tuple[Dataset, FittedModel]:
        with self._lock:
            if "period_cluster" not in self._store:
                cfg = self._cfg
                if cfg.bayes is not None:
                    raise ValueError(
                        "dte queries are incompatible with a bayes prior; the "
                        "per-period contract requires cluster-robust covariance"
                    )
                if self._data.period is None:
                    raise ValueError("dte queries need data.columns.period in the config")
                if self._data.unit_id is None:
                    raise ValueError(
                        "dte queries need data.columns.unit_id in the config "
                        "(cluster-robust covariance clusters on it)"
                    )
                pdata = add_period_covariate(self._data)
                spec = ModelSpec(
                    reference_arm=cfg.reference_arm,
                    covariance_kind="cluster",
                    encodings=cfg.encodings,
                    interactions=cfg.interactions,
                )
                self._store["period_cluster"] = (pdata, fit_model(pdata, spec))
            return self._store["period_cluster"]

    def posterior(self) -> FittedModel:
        base = self.base()
        if base.posterior:
            return base
        if not self._flat_prior_ok:
            raise ValueError(
                "probability queries read the fitted coefficients as a posterior; "
                "add a model.bayes block or pass --flat-prior-ok to use the "
                "least-squares fit as a flat-prior posterior"
            )
        with self._lock:
            if "posterior" not in self._store:
                self._store["posterior"] = as_flat_prior_posterior(base)
            return self._store["posterior"]


def _maybe_predicate(params: dict):
    text = params.get("predicate")
    return None if text is None else parse_predicate(text)


def _run_query(query: QuerySpec, cache: _FitCache, data: Dataset, cfg: RunConfig) -> dict:
    p = dict(query.params)
    ci = p.get("ci_level", 0.95)
    seed = np.random.SeedSequence([cfg.seed, query.index])
    if query.type == "ate":
        res = effects.ate(cache.base(), data, p["arm_to"], p["arm_from"], ci_level=ci)
    elif query.type == "cate":
        res = effects.cate(cache.base(), data, p["arm_to"], p["arm_from"],
                           parse_predicate(p["predicate"]), ci_level=ci)
    elif query.type == "hte":
        res = effects.hte(cache.base(), data, p["arm_to"], p["arm_from"],
                          parse_predicate(p["predicate"]), ci_level=ci)
    elif query.type == "dte":
        pdata, model = cache.period_cluster()
        res = effects.dte(model, pdata, p["arm_to"], p["arm_from"], p["period"], ci_level=ci)
    elif query.type == "relative_effect":
        res = relative.relative_effect(cache.base(), data, p["arm_to"], p["arm_from"],
                                       predicate=_maybe_predicate(p), ci_level=ci,
                                       guard=p.get("guard", 5.0))
    elif query.type == "prob_positive":
        res = ranking.prob_positive(cache.posterior(), data, p["arm_to"], p["arm_from"],
                                    predicate=_maybe_predicate(p),
                                    tol=cfg.mvn_tol, seed=seed)
    elif query.type == "prob_best":
        res = ranking.prob_best(cache.posterior(), data, arms=p.get("arms"),
                                predicate=_maybe_predicate(p),
                                tol=cfg.mvn_tol, seed=seed)
    else:  # pragma: no cover - config validation rejects unknown types
        raise ValueError(f"unknown query type {query.type!r}")
    out = res.to_dict()
    out["index"] = query.index
    out["name"] = query.name
    if query.type == "dte":
        out["model_variant"] = "period_cluster"
    return out


def _model_info(model: FittedModel) -> dict:
    schema = model.schema
    return {
        "n": model.n,
        "p": model.p,
        "arms": list(schema.all_arms),
        "reference_arm": schema.reference_arm,
        "covariance_kind": model.covariance_kind,
        "posterior": model.posterior,
        "columns": list(schema.labels),
        "beta": [float(b) for b in model.beta],
        "std_errors": [float(s) for s in model.std_errors],
    }


def _thread_count() -> int:
    raw = os.environ.get("EFFECT_ENGINE_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"EFFECT_ENGINE_THREADS must be an integer, got {raw!r}") from None
    return max(1, threads)


def execute(cfg: RunConfig, *, flat_prior_ok: bool = False, partial: bool = False) -> dict:
    """Run every query in the config and assemble the report document.

    Without ``partial`` the first query failure propagates; with it, each
    failure becomes an ``errors`` entry and the remaining queries still run.
    """
    threads = _thread_count()
    needs_posterior = [q for q in cfg.queries if q.type in ("prob_positive", "prob_best")]
    if needs_posterior and cfg.bayes is None and not flat_prior_ok:
        q = needs_posterior[0]
        raise ConfigError(
            f"queries[{q.index}] ({q.type}) reads the fitted coefficients as a "
            "posterior; add a model.bayes block or pass --flat-prior-ok to use "
            "the least-squares fit as a flat-prior posterior"
        )
    try:
        data = load_csv(cfg.data_path, cfg.column_map)
    except ConfigError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(f"failed to load data: {exc}") from None

    captured: list[str] = []
    results: list[dict | None] = [None] * len(cfg.queries)
    errors: list[dict] = []

    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        cache = _FitCache(data, cfg, flat_prior_ok)
        cache.base()  # a model that cannot fit is fatal regardless of --partial

        def work(query: QuerySpec) -> None:
            try:
                results[query.index] = _run_query(query, cache, data, cfg)
            except Exception as exc:
                if not partial:
                    raise
                errors.append({"index": query.index, "name": query.name, "error": str(exc)})

        if threads == 1 or len(cfg.queries) == 1:
            for query in cfg.queries:
                work(query)
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for future in [pool.submit(work, q) for q in cfg.queries]:
                    future.result()
        model_info = _model_info(cache.base())
        captured = [str(w.message) for w in caught]

    errors.sort(key=lambda e: e["index"])
    return build_report(
        config_digest=cfg.config_digest,
        data_digest=sha256_file(cfg.data_path),
        seed=cfg.seed,
        model_info=model_info,
        results=[r for r in results if r is not None],
        errors=errors,
        warnings=captured,
    )


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.data is not None:
            cfg = dataclasses.replace(cfg, data_path=os.path.abspath(args.data))
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        report = execute(cfg, flat_prior_ok=args.flat_prior_ok, partial=args.partial)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_path = args.out or cfg.output
    if out_path:
        write_report(report, out_path)
        print(f"report written to {out_path}", file=sys.stderr)
    else:
        sys.stdout.write(render_report(report))
    return 0


def _cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
        data = load_csv(cfg.data_path, cfg.column_map)
        spec = ModelSpec(
            reference_arm=cfg.reference_arm,
            covariance_kind=cfg.covariance,
            encodings=cfg.encodings,
            interactions=cfg.interactions,
        )
        schema = build_schema(data, spec)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    print(
        f"config OK: {data.n} rows, {schema.p} design columns, "
        f"arms {list(schema.all_arms)}, {len(cfg.queries)} queries"
    )
    return 0


def _cmd_verify(args) -> int:
    failed = 0
    for result in run_suite(args.suite, seed=args.seed):
        status = "ok" if result.passed else "FAIL"
        print(f"{status:4s} - {result.name}: {result.detail}")
        failed += 0 if result.passed else 1
    if failed:
        print(f"{failed} self-check(s) failed", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="effect-engine",
        description="Estimate treatment effects and arm-ranking probabilities "
        "from randomized-experiment data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the queries in a config and write a report")
    run_p.add_argument("--config", required=True, help="path to the JSON run config")
    run_p.add_argument("--data", help="CSV path; overrides the config's data.path")
    run_p.add_argument("--out", help="report path (default: config 'output' or stdout)")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument(
        "--flat-prior-ok", action="store_true",
        help="let probability queries treat a least-squares fit as a flat-prior posterior",
    )
    run_p.add_argument(
        "--partial", action="store_true",
        help="record per-query failures in the report instead of aborting",
    )
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="validate a config and its data without running")
    val_p.add_argument("--config", required=True, help="path to the JSON run config")
    val_p.set_defaults(func=_cmd_validate)

    ver_p = sub.add_parser("verify", help="run the built-in self-checks")
    ver_p.add_argument("--suite", choices=SUITES, default="default",
                       help="which checks to run (default: the fast ones)")
    ver_p.add_argument("--seed", type=int, default=0)
    ver_p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

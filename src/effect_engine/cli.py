"""Command-line entry point.

``run`` executes the queries in a JSON config against a CSV dataset and
writes a deterministic report; ``validate`` checks a config (and its data)
without running anything; ``verify`` runs the built-in self-checks.

Exit codes: 0 success, 1 config/input validation failure, 2 numeric or
query failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings as _warnings

import numpy as np

from . import effects, ranking, relative
from .config import ConfigError, QuerySpec, RunConfig, load_config
from .data import Dataset, add_period_covariate, load_csv
# build_design and fit_bayes are not called here: every fit goes through
# fit_model. They stay module attributes because the benchmark's tracer
# (perfbench/tracer.py) patches them at these names.
from .model import (  # noqa: F401
    ColumnSchema,
    FittedModel,
    ModelSpec,
    as_flat_prior_posterior,
    build_design,
    build_schema,
    fit_bayes,
    fit_model,
)
from .predicates import parse_predicate, resolve_mask
from .report import build_report, render_report, sha256_file, write_report
from .verify import SUITES, run_suite

__all__ = ["main", "execute"]


class _FitCache:
    """The fits queries read, each fitted at most once.

    ``base`` is the fit of the config's model block, made on construction;
    ``posterior`` reads it as a posterior for probability queries (a
    flat-prior reading unless the model is Bayes). The cluster-robust fit on
    period-augmented data for per-period queries is made on first use, so
    its errors stay per-query.
    """

    def __init__(self, data: Dataset, spec: ModelSpec):
        self._data = data
        self._spec = spec
        self.base = fit_model(data, spec)
        self.posterior = as_flat_prior_posterior(self.base)
        self._period_cluster: tuple[Dataset, FittedModel] | None = None

    def period_cluster(self) -> tuple[Dataset, FittedModel]:
        if self._period_cluster is None:
            if self._spec.bayes is not None:
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
            spec = dataclasses.replace(self._spec, covariance_kind="cluster")
            self._period_cluster = (pdata, fit_model(pdata, spec))
        return self._period_cluster


def _maybe_predicate(params: dict):
    text = params.get("predicate")
    return None if text is None else parse_predicate(text)


def _run_query(query: QuerySpec, fits: _FitCache, data: Dataset, cfg: RunConfig) -> dict:
    p = dict(query.params)
    ci = p.get("ci_level", 0.95)
    seed = np.random.SeedSequence([cfg.seed, query.index])
    if query.type == "ate":
        res = effects.ate(fits.base, data, p["arm_to"], p["arm_from"], ci_level=ci)
    elif query.type == "cate":
        res = effects.cate(fits.base, data, p["arm_to"], p["arm_from"],
                           parse_predicate(p["predicate"]), ci_level=ci)
    elif query.type == "hte":
        res = effects.hte(fits.base, data, p["arm_to"], p["arm_from"],
                          parse_predicate(p["predicate"]), ci_level=ci)
    elif query.type == "dte":
        pdata, model = fits.period_cluster()
        res = effects.dte(model, pdata, p["arm_to"], p["arm_from"], p["period"], ci_level=ci)
    elif query.type == "relative_effect":
        res = relative.relative_effect(fits.base, data, p["arm_to"], p["arm_from"],
                                       predicate=_maybe_predicate(p), ci_level=ci,
                                       guard=p.get("guard", 5.0))
    elif query.type == "prob_positive":
        res = ranking.prob_positive(fits.posterior, data, p["arm_to"], p["arm_from"],
                                    predicate=_maybe_predicate(p),
                                    tol=cfg.mvn_tol, seed=seed)
    elif query.type == "prob_best":
        res = ranking.prob_best(fits.posterior, data, arms=p.get("arms"),
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


def execute(cfg: RunConfig, *, flat_prior_ok: bool = False, partial: bool = False) -> dict:
    """Run every query in the config and assemble the report document.

    Without ``partial`` the first query failure propagates; with it, each
    failure becomes an ``errors`` entry and the remaining queries still run.
    """
    needs_posterior = [q for q in cfg.queries if q.type in ("prob_positive", "prob_best")]
    if needs_posterior and cfg.model.bayes is None and not flat_prior_ok:
        q = needs_posterior[0]
        raise ConfigError(
            f"queries[{q.index}] ({q.type}) reads the fitted coefficients as a "
            "posterior; add a model.bayes block or pass --flat-prior-ok to use "
            "the least-squares fit as a flat-prior posterior"
        )
    try:
        data = load_csv(cfg.data_path, cfg.column_map)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"failed to load data: {exc}") from None

    results: list[dict] = []
    errors: list[dict] = []
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        # a model that cannot fit is fatal regardless of --partial
        fits = _FitCache(data, cfg.model)
        for query in cfg.queries:
            try:
                results.append(_run_query(query, fits, data, cfg))
            except Exception as exc:
                if not partial:
                    raise
                errors.append({"index": query.index, "name": query.name, "error": str(exc)})
        model_info = _model_info(fits.base)
        captured = [str(w.message) for w in caught]

    return build_report(
        config_digest=cfg.config_digest,
        data_digest=sha256_file(cfg.data_path),
        seed=cfg.seed,
        model_info=model_info,
        results=results,
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


def _check_queries(cfg: RunConfig, data: Dataset, schema: ColumnSchema) -> None:
    """Raise ``ConfigError`` naming ``queries[i].<field>`` for an arm label
    the data lacks or a predicate that cannot be resolved on the data."""
    for query in cfg.queries:
        where, params = f"queries[{query.index}]", query.params
        arms = [(key, params[key]) for key in ("arm_to", "arm_from") if key in params]
        arms += [(f"arms[{j}]", arm) for j, arm in enumerate(params.get("arms", ()))]
        for field, arm in arms:
            if arm not in schema.all_arms:
                raise ConfigError(f"{where}.{field} {arm!r} is not an arm of the data; "
                                  f"arms are {list(schema.all_arms)}")
        if "predicate" in params:
            try:
                resolve_mask(data, params["predicate"])
            except ValueError as exc:
                raise ConfigError(f"{where}.predicate: {exc}") from None


def _cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
        data = load_csv(cfg.data_path, cfg.column_map)
        schema = build_schema(data, cfg.model)
        if cfg.model.bayes is not None:
            cfg.model.bayes.expand(schema.p)
        _check_queries(cfg, data, schema)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
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

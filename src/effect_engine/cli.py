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
from functools import cached_property

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
    require_full_rank,
    require_more_rows,
)
from .predicates import parse_predicate, resolve_mask
from .report import build_report, render_report, sha256_file, write_report
from .vectors import distinct_arms, profile_from_subset
from .verify import SUITES, run_suite

__all__ = ["main", "execute"]


def _period_inputs(data: Dataset, spec: ModelSpec) -> tuple[Dataset, ModelSpec]:
    """The data and model block of the per-period fit: the period encoded as
    a covariate, and cluster-robust covariance. Raises for a Bayes prior or
    for data without a period or unit_id column."""
    if spec.bayes is not None:
        raise ValueError(
            "dte queries are incompatible with a bayes prior; the "
            "per-period contract requires cluster-robust covariance"
        )
    if data.period is None:
        raise ValueError("dte queries need data.columns.period in the config")
    if data.unit_id is None:
        raise ValueError(
            "dte queries need data.columns.unit_id in the config "
            "(cluster-robust covariance clusters on it)"
        )
    return add_period_covariate(data), dataclasses.replace(spec, covariance_kind="cluster")


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

    @cached_property
    def period_cluster(self) -> tuple[Dataset, FittedModel]:
        pdata, spec = _period_inputs(self._data, self._spec)
        return pdata, fit_model(pdata, spec)


# The module whose function of the same name answers each query type. The
# function is looked up at each call, so a patched module attribute sees it.
_ANSWERED_BY = {"ate": effects, "cate": effects, "hte": effects, "dte": effects,
                "relative_effect": relative, "prob_positive": ranking, "prob_best": ranking}
_POSTERIOR_TYPES = ("prob_positive", "prob_best")


def _run_query(query: QuerySpec, fits: _FitCache, data: Dataset, cfg: RunConfig) -> dict:
    kwargs = dict(query.params)
    if "predicate" in kwargs:
        kwargs["predicate"] = parse_predicate(kwargs["predicate"])
    model = fits.base
    if query.type in _POSTERIOR_TYPES:
        model = fits.posterior
        kwargs.update(tol=cfg.mvn_tol, seed=np.random.SeedSequence([cfg.seed, query.index]))
    elif query.type == "dte":
        data, model = fits.period_cluster
    result = getattr(_ANSWERED_BY[query.type], query.type)(model, data, **kwargs)
    out = {**result.to_dict(), "index": query.index, "name": query.name}
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
    needs_posterior = [q for q in cfg.queries if q.type in _POSTERIOR_TYPES]
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


def _at(where: str, check, *args):
    """``check(*args)``, one of ``run``'s checks, with a failure raised as
    ``ConfigError`` behind ``where``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _check_queries(cfg: RunConfig, data: Dataset, schema: ColumnSchema) -> None:
    """Run, on the data and without a fit, the checks ``run`` makes of each
    query's arm labels, subsets and period; raise ``ConfigError`` naming
    ``queries[i]`` and the field at fault."""
    for query in cfg.queries:
        where, params = f"queries[{query.index}]", query.params
        arms = [(key, params[key]) for key in ("arm_to", "arm_from") if key in params]
        arms += [(f"arms[{j}]", arm) for j, arm in enumerate(params.get("arms", ()))]
        for field, arm in arms:
            if arm not in schema.all_arms:
                raise ConfigError(f"{where}.{field} {arm!r} is not an arm of the data; "
                                  f"arms are {list(schema.all_arms)}")
        if "arm_to" in params:
            _at(f"{where}.arm_from", distinct_arms, schema, params["arm_to"], params["arm_from"])
        if query.type == "prob_best":
            _at(f"{where}.arms", ranking.ranked_arms, schema, params.get("arms"))
        if "predicate" in params:
            mask = _at(f"{where}.predicate", resolve_mask, data, params["predicate"])
            for rows in (mask, ~mask) if query.type == "hte" else (mask,):
                _at(f"{where}.predicate", profile_from_subset, data, schema, rows)
        if query.type == "dte":
            _at(where, _period_inputs, data, cfg.model)
            _at(where, effects.period_mask, data, params["period"])


def _cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
        data = load_csv(cfg.data_path, cfg.column_map)
        schema = _at("model", build_schema, data, cfg.model)
        if cfg.model.bayes is not None:
            cfg.model.bayes.expand(schema.p)
        else:
            _at("model", require_more_rows, data.n, schema.p)
            _at("model", require_full_rank, data, schema)
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

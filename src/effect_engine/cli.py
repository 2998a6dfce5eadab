"""Command-line entry point.

``run`` executes the queries in a JSON config against a CSV dataset and
writes a deterministic report; ``validate`` is ``run`` without the report:
it answers every query and reports the first failure as a config error;
``verify`` runs the built-in self-checks.

Exit codes: 0 success, 1 config/input validation failure (under
``validate``, every failure), 2 numeric or query failure under ``run``. A
malformed flag exits 2 with argparse's usage message.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings as _warnings
from functools import cached_property

import numpy as np

from .config import QUERY_TYPES, ConfigError, QuerySpec, RunConfig, load_config
from .data import Dataset, add_period_covariate, load_csv
# build_design and fit_bayes are not called here: every fit goes through
# fit_model. They stay module attributes because the benchmark's tracer
# (perfbench/tracer.py) patches them at these names.
from .model import (  # noqa: F401
    FittedModel,
    ModelSpec,
    as_flat_prior_posterior,
    build_design,
    fit_bayes,
    fit_model,
)
from .report import build_report, render_report, sha256_file, write_report
from .verify import SUITES, run_suite

__all__ = ["main", "execute"]


class _FitCache:
    """The fits a run answers queries from, each fitted at most once.

    ``base`` is the fit of the config's model block, made on construction;
    ``posterior`` reads it as a posterior for probability queries (a
    flat-prior reading unless the model is Bayes). The cluster-robust fit on
    period-augmented data for per-period queries is made on first use, so
    its errors stay per-query. :meth:`read` gives each query its fit.
    """

    def __init__(self, data: Dataset, spec: ModelSpec):
        self._data = data
        self._spec = spec
        self.base = fit_model(data, spec)
        self.posterior = as_flat_prior_posterior(self.base)

    @cached_property
    def period_cluster(self) -> tuple[Dataset, FittedModel] | Exception:
        """The data with its period encoded as a covariate, and that data's
        cluster-robust fit; or the error that refused them (a Bayes prior,
        data without a period or unit_id column, a fit that fails), kept so
        that each per-period query raises it again without a refit."""
        data = self._data
        try:
            if self._spec.bayes is not None:
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
            pdata = add_period_covariate(data)
            spec = dataclasses.replace(self._spec, covariance_kind="cluster")
            return pdata, fit_model(pdata, spec)
        except Exception as exc:
            return exc

    def read(self, query: QuerySpec) -> tuple[Dataset, FittedModel]:
        """The data and the fit ``query`` is answered from, as its type's
        ``fit`` in ``QUERY_TYPES`` names it."""
        fit = QUERY_TYPES[query.type].fit
        found = self.period_cluster if fit == "period_cluster" else (self._data, getattr(self, fit))
        if isinstance(found, Exception):
            raise found
        return found


def _run_query(query: QuerySpec, fits: _FitCache, cfg: RunConfig) -> dict:
    kind, kwargs = QUERY_TYPES[query.type], dict(query.params)
    if kind.fit == "posterior":
        kwargs.update(tol=cfg.mvn_tol, seed=np.random.SeedSequence([cfg.seed, query.index]))
    data, model = fits.read(query)
    result = getattr(kind.module, query.type)(model, data, **kwargs)
    out = {**result.to_dict(), "index": query.index, "name": query.name}
    if kind.fit == "period_cluster":
        out["model_variant"] = kind.fit
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


def _load_data(cfg: RunConfig) -> Dataset:
    """The config's dataset; a CSV that cannot be read raises ``ConfigError``."""
    try:
        return load_csv(cfg.data_path, cfg.column_map)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"failed to load data: {exc}") from None


def execute(cfg: RunConfig, *, flat_prior_ok: bool = False, partial: bool = False) -> dict:
    """Run every query in the config and assemble the report document.

    Without ``partial`` the first query failure is raised again as a
    ``RuntimeError`` whose message starts ``queries[i]: ``; with it, each
    failure becomes an ``errors`` entry and the remaining queries still run.
    """
    needs_posterior = [q for q in cfg.queries if QUERY_TYPES[q.type].fit == "posterior"]
    if needs_posterior and cfg.model.bayes is None and not flat_prior_ok:
        q = needs_posterior[0]
        raise ConfigError(
            f"queries[{q.index}] ({q.type}) reads the fitted coefficients as a "
            "posterior; add a model.bayes block or pass --flat-prior-ok to use "
            "the least-squares fit as a flat-prior posterior"
        )
    data = _load_data(cfg)

    results: list[dict] = []
    errors: list[dict] = []
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        # a model that cannot fit is fatal regardless of --partial
        fits = _FitCache(data, cfg.model)
        for query in cfg.queries:
            try:
                results.append(_run_query(query, fits, cfg))
            except Exception as exc:
                if not partial:
                    raise RuntimeError(f"queries[{query.index}]: {exc}") from exc
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


def _require_report_dir(path: str, where: str) -> None:
    """Raise ``ConfigError`` behind ``where`` unless the directory the report
    at ``path`` is written into exists."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ConfigError(f"{where} {path!r}: directory {directory!r} does not exist")


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.data is not None:
            cfg = dataclasses.replace(cfg, data_path=os.path.abspath(args.data))
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        out_path, where = (args.out, "--out") if args.out else (cfg.output, "output")
        if out_path:
            _require_report_dir(out_path, where)
        report = execute(cfg, flat_prior_ok=args.flat_prior_ok, partial=args.partial)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if out_path:
        try:
            write_report(report, out_path)
        except OSError as exc:
            print(f"error: cannot write the report to {out_path!r}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 1
        print(f"report written to {out_path}", file=sys.stderr)
    else:
        sys.stdout.write(render_report(report))
    return 0


def _cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
        if cfg.output:
            _require_report_dir(cfg.output, "output")
        model = execute(cfg, flat_prior_ok=True)["model"]
    except (ConfigError, RuntimeError) as exc:  # RuntimeError: a query, located by execute
        message = str(exc)
    except ValueError as exc:  # the base fit
        message = str(exc) if str(exc).startswith("model.") else f"model: {exc}"
    else:
        print(f"config OK: {model['n']} rows, {model['p']} design columns, "
              f"arms {model['arms']}, {len(cfg.queries)} queries")
        return 0
    print(f"config error: {message}", file=sys.stderr)
    return 1


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


def _seed(text: str) -> int:
    """A ``--seed`` value, held to the config seed's rule."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


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
    run_p.add_argument("--seed", type=_seed, help="override the config seed")
    run_p.add_argument(
        "--flat-prior-ok", action="store_true",
        help="let probability queries treat a least-squares fit as a flat-prior posterior",
    )
    run_p.add_argument(
        "--partial", action="store_true",
        help="record per-query failures in the report instead of aborting",
    )
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="run a config's queries without writing a report")
    val_p.add_argument("--config", required=True, help="path to the JSON run config")
    val_p.set_defaults(func=_cmd_validate)

    ver_p = sub.add_parser("verify", help="run the built-in self-checks")
    ver_p.add_argument("--suite", choices=SUITES, default="default",
                       help="which checks to run (default: the fast ones)")
    ver_p.add_argument("--seed", type=_seed, default=0)
    ver_p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

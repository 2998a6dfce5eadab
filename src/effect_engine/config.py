"""Run-configuration parsing and validation.

A run config is a JSON document naming the input CSV, the column roles, the
model, and a list of queries. Validation is strict — unknown keys and
unknown query types are errors, so typos surface before any fitting starts —
and every failure raises :class:`ConfigError` with the offending location.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import effects, ranking, relative
from .data import check_column_roles
from .model import COVARIANCE_KINDS, BayesPrior, ModelSpec
from .predicates import parse_predicate
from .report import sha256_config

__all__ = ["ConfigError", "QUERY_TYPES", "QuerySpec", "RunConfig", "parse_config", "load_config"]

# The query types. Each gives its required and optional keys besides "type"
# and "name" (keyword arguments of the function that answers it); the module
# whose function of the type's name that is, looked up at each call so that
# a patched module attribute sees every call; and the fit the query reads.
QueryType = namedtuple("QueryType", "required optional module fit")
QUERY_TYPES = {
    "ate": QueryType({"arm_to", "arm_from"}, {"ci_level"}, effects, "base"),
    "cate": QueryType({"arm_to", "arm_from", "predicate"}, {"ci_level"}, effects, "base"),
    "hte": QueryType({"arm_to", "arm_from", "predicate"}, {"ci_level"}, effects, "base"),
    "dte": QueryType({"arm_to", "arm_from", "period"}, {"ci_level"}, effects, "period_cluster"),
    "relative_effect": QueryType({"arm_to", "arm_from"}, {"ci_level", "guard", "predicate"},
                                 relative, "base"),
    "prob_positive": QueryType({"arm_to", "arm_from"}, {"predicate"}, ranking, "posterior"),
    "prob_best": QueryType(set(), {"arms", "predicate"}, ranking, "posterior"),
}


class ConfigError(ValueError):
    """A run config failed validation; the message names the bad field."""


@dataclass(frozen=True)
class QuerySpec:
    """One validated query: its type and its parameters, a predicate parsed."""

    index: int
    type: str
    name: str
    params: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration, paths resolved relative to the file;
    ``model`` is the config's model block, prior included."""

    data_path: str
    column_map: Mapping[str, object]
    model: ModelSpec
    queries: tuple[QuerySpec, ...]
    seed: int
    mvn_tol: float
    output: str | None
    config_digest: str


def _require(obj: Mapping, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return obj[key]


def _check_keys(obj: Mapping, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )


def _as_mapping(value, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where} must be an object")
    return value


def _as_str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where} must be a non-empty string")
    return value


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{where} must be finite") from None
    if not math.isfinite(out):
        raise ConfigError(f"{where} must be finite")
    return out


def _as_label(value, where: str) -> str:
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"{where} must be an arm label")
    try:
        return str(value)
    except ValueError:  # an integer past Python's digit limit for str()
        raise ConfigError(f"{where} must be an arm label") from None


def _parse_columns(obj, where: str) -> dict:
    obj = _as_mapping(obj, where)
    _check_keys(obj, {"outcome", "arm", "covariates", "unit_id", "period"}, where)
    out = {
        "outcome": _as_str(_require(obj, "outcome", where), f"{where}.outcome"),
        "arm": _as_str(_require(obj, "arm", where), f"{where}.arm"),
    }
    if "covariates" in obj:
        covs = obj["covariates"]
        if not isinstance(covs, Sequence) or isinstance(covs, str):
            raise ConfigError(f"{where}.covariates must be a list of column names")
        out["covariates"] = [_as_str(c, f"{where}.covariates[{i}]") for i, c in enumerate(covs)]
    for key in ("unit_id", "period"):
        if key in obj:
            out[key] = _as_str(obj[key], f"{where}.{key}")
    try:
        check_column_roles(out)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return out


def _is_list(value) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, str)


def _as_number_list(value, where: str) -> list[float]:
    if not _is_list(value) or not value:
        raise ConfigError(f"{where} must be a non-empty list of numbers")
    return [_as_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _parse_bayes(obj, where: str) -> BayesPrior:
    obj = _as_mapping(obj, where)
    _check_keys(obj, {"prior_mean", "prior_variance", "prior_covariance", "noise_variance"}, where)
    mean = obj.get("prior_mean", 0.0)
    parse_mean = _as_number_list if _is_list(mean) else _as_number
    mean = parse_mean(mean, f"{where}.prior_mean")
    if "prior_variance" in obj and "prior_covariance" in obj:
        raise ConfigError(f"{where}: give prior_variance or prior_covariance, not both")
    if "prior_covariance" in obj:
        cov_where = f"{where}.prior_covariance"
        cov = obj["prior_covariance"]
        if _is_list(cov) and cov and all(_is_list(row) for row in cov):
            cov = [_as_number_list(row, f"{cov_where}[{i}]") for i, row in enumerate(cov)]
            if any(len(row) != len(cov) for row in cov):
                raise ConfigError(f"{cov_where} must be a square matrix")
        else:
            cov = _as_number_list(cov, cov_where)
            if min(cov) <= 0:
                raise ConfigError(f"{cov_where} must hold positive variances")
    else:
        cov = _as_number(obj.get("prior_variance", 100.0), f"{where}.prior_variance")
        if cov <= 0:
            raise ConfigError(f"{where}.prior_variance must be positive")
    noise = _as_number(_require(obj, "noise_variance", where), f"{where}.noise_variance")
    if noise <= 0:
        raise ConfigError(f"{where}.noise_variance must be positive")
    return BayesPrior(mean=mean, covariance=cov, noise_variance=noise)


def _parse_query(obj, index: int) -> QuerySpec:
    where = f"queries[{index}]"
    obj = _as_mapping(obj, where)
    qtype = _as_str(_require(obj, "type", where), f"{where}.type")
    if qtype not in QUERY_TYPES:
        raise ConfigError(f"{where}.type {qtype!r} is not one of {list(QUERY_TYPES)}")
    kind = QUERY_TYPES[qtype]
    _check_keys(obj, kind.required | kind.optional | {"type", "name"}, where)
    for key in kind.required:
        _require(obj, key, where)

    params: dict = {}
    for key in ("arm_to", "arm_from"):
        if key in obj:
            params[key] = _as_label(obj[key], f"{where}.{key}")
    if "predicate" in obj:
        text = _as_str(obj["predicate"], f"{where}.predicate")
        try:
            params["predicate"] = parse_predicate(text)
        except ValueError as exc:
            raise ConfigError(f"{where}.predicate: {exc}") from None
    if "period" in obj:
        period = obj["period"]
        if isinstance(period, bool) or not isinstance(period, int):
            raise ConfigError(f"{where}.period must be an integer")
        params["period"] = period
    if "ci_level" in obj:
        level = _as_number(obj["ci_level"], f"{where}.ci_level")
        if not 0.0 < level < 1.0:
            raise ConfigError(f"{where}.ci_level must be strictly between 0 and 1")
        params["ci_level"] = level
    if "guard" in obj:
        guard = _as_number(obj["guard"], f"{where}.guard")
        if guard < 0:
            raise ConfigError(f"{where}.guard must be non-negative")
        params["guard"] = guard
    if "arms" in obj:
        arms = obj["arms"]
        if not isinstance(arms, Sequence) or isinstance(arms, str) or len(arms) < 2:
            raise ConfigError(f"{where}.arms must be a list of at least 2 arm labels")
        params["arms"] = [_as_label(a, f"{where}.arms[{i}]") for i, a in enumerate(arms)]

    name = obj.get("name")
    if name is not None:
        name = _as_str(name, f"{where}.name")
    return QuerySpec(index=index, type=qtype, name=name or f"q{index}", params=params)


def parse_config(obj, base_dir: str = ".") -> RunConfig:
    """Validate a parsed JSON document and resolve its paths."""
    obj = _as_mapping(obj, "config")
    _check_keys(obj, {"data", "model", "queries", "seed", "mvn_tol", "output"}, "config")

    data = _as_mapping(_require(obj, "data", "config"), "data")
    _check_keys(data, {"path", "columns"}, "data")
    path = _as_str(_require(data, "path", "data"), "data.path")
    if not os.path.isabs(path):
        path = os.path.normpath(os.path.join(base_dir, path))
    columns = _parse_columns(_require(data, "columns", "data"), "data.columns")

    model = _as_mapping(_require(obj, "model", "config"), "model")
    _check_keys(model, {"reference_arm", "covariance", "interactions", "encodings", "bayes"}, "model")
    reference = model.get("reference_arm")
    if reference is None:
        raise ConfigError("missing required key 'reference_arm' in model")
    reference = _as_label(reference, "model.reference_arm")
    covariance = _as_str(model.get("covariance", "hc1"), "model.covariance")
    if covariance not in COVARIANCE_KINDS:
        raise ConfigError(
            f"model.covariance {covariance!r} is not one of {list(COVARIANCE_KINDS)}"
        )
    interactions = model.get("interactions", True)
    if not isinstance(interactions, bool):
        raise ConfigError("model.interactions must be a boolean")
    encodings = model.get("encodings")
    if encodings is not None:
        encodings = _as_mapping(encodings, "model.encodings")
        for name, enc in encodings.items():
            if enc not in ("numeric", "categorical"):
                raise ConfigError(
                    f"model.encodings[{name!r}] must be 'numeric' or 'categorical'"
                )
        encodings = dict(encodings)
    bayes = model.get("bayes")
    if bayes is not None:
        bayes = _parse_bayes(bayes, "model.bayes")

    raw_queries = _require(obj, "queries", "config")
    if not isinstance(raw_queries, Sequence) or isinstance(raw_queries, str) or not raw_queries:
        raise ConfigError("queries must be a non-empty list")
    queries = tuple(_parse_query(q, i) for i, q in enumerate(raw_queries))
    first: dict = {}
    for q in queries:
        if first.setdefault(q.name, q.index) != q.index:
            raise ConfigError(f"queries[{q.index}].name: duplicate of queries[{first[q.name]}]")

    seed = obj.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    mvn_tol = _as_number(obj.get("mvn_tol", 5e-4), "mvn_tol")
    if mvn_tol <= 0:
        raise ConfigError("mvn_tol must be positive")
    output = obj.get("output")
    if output is not None:
        output = _as_str(output, "output")
        if not os.path.isabs(output):
            output = os.path.normpath(os.path.join(base_dir, output))
    try:
        digest = sha256_config(obj)
    except ValueError as exc:  # a lone surrogate, or an integer past the digit limit
        raise ConfigError(f"config cannot be digested as UTF-8 JSON: {exc}") from None

    return RunConfig(
        data_path=path,
        column_map=columns,
        model=ModelSpec(reference_arm=reference, covariance_kind=covariance,
                        encodings=encodings, interactions=interactions, bayes=bayes),
        queries=queries,
        seed=seed,
        mvn_tol=mvn_tol,
        output=output,
        config_digest=digest,
    )


def load_config(path) -> RunConfig:
    """Read and validate a JSON run config from disk."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    except (OSError, ValueError, RecursionError) as exc:
        # a directory or an unreadable file, not UTF-8, an integer literal
        # past the digit limit, or nesting deeper than the recursion limit
        raise ConfigError(f"config file cannot be read: {exc}") from None
    return parse_config(obj, base_dir=os.path.dirname(os.path.abspath(path)))

"""In-process span tracer for one ``effect-engine run``.

Each traced function is replaced, for the duration of the trace, at the
module attribute its caller looks it up through; ``src/`` is never edited.
A span records its name, start, end and parent. Spans stay in memory and
are written once the run ends. Counters that need extra work (distinct
clusters) keep a reference to the argument and are resolved after the run,
so they add nothing to the timed spans.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field

__all__ = ["SPANS", "SPAN_NAMES", "Span", "Tracer", "layer_metrics", "write_spans"]


def _fit_ols_name(args, kwargs) -> str:
    kind = kwargs.get("covariance_kind", args[2] if len(args) > 2 else "hc1")
    return f"model.fit_ols.{kind}"


# span name (or name function) -> the "module.attribute" sites it is looked up through
SPANS = {
    "config.load_config": ["cli.load_config"],
    "data.load_csv": ["cli.load_csv"],
    "data.add_period_covariate": ["cli.add_period_covariate"],
    "model.build_design": ["cli.build_design", "model.build_design"],
    "model.covariate_matrix": ["model.covariate_matrix", "vectors.covariate_matrix"],
    _fit_ols_name: ["model.fit_ols"],
    "model.fit_bayes": ["cli.fit_bayes", "model.fit_bayes"],
    "predicates.resolve_mask": ["vectors.resolve_mask"],
    "vectors.profile_from_subset": ["effects.profile_from_subset",
                                    "relative.profile_from_subset",
                                    "ranking.profile_from_subset"],
    "effects.ate": ["effects.ate"],
    "effects.cate": ["effects.cate"],
    "effects.hte": ["effects.hte"],
    "effects.dte": ["effects.dte"],
    "relative.relative_effect": ["relative.relative_effect"],
    "ranking.prob_positive": ["ranking.prob_positive"],
    "ranking.prob_best": ["ranking.prob_best"],
    "mvnorm.mvn_orthant": ["ranking.mvn_orthant"],
    "report.build_report": ["cli.build_report"],
    "report.render_report": ["cli.render_report", "report.render_report"],
    "report.write_report": ["cli.write_report"],
    "cli.execute": ["cli.execute"],
}

# Every span name the per-layer metrics cover, in report order.
SPAN_NAMES = [
    "config.load_config", "data.load_csv", "data.add_period_covariate",
    "model.build_design", "model.covariate_matrix", "model.fit_ols.hc1",
    "model.fit_ols.cluster", "model.fit_bayes", "predicates.resolve_mask",
    "vectors.profile_from_subset", "effects.ate", "effects.cate", "effects.hte",
    "effects.dte", "relative.relative_effect", "ranking.prob_positive",
    "ranking.prob_best", "mvnorm.mvn_orthant", "report.build_report",
    "report.render_report", "report.write_report", "cli.execute",
]

@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """Collects spans and layer counters while installed (a context manager)."""

    spans: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    cluster_ids: list = field(default_factory=list)
    orthants: list = field(default_factory=list)  # (points, error, tol)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            span = Span(len(tracer.spans), span_name,
                        tracer._stack[-1].id if tracer._stack else None, 0.0)
            tracer.spans.append(span)
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            tracer._count(span_name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, args, kwargs, result) -> None:
        if name == "data.load_csv":
            self.rows.append(result.n)
        elif name == "model.fit_ols.cluster":
            self.cluster_ids.append(kwargs.get("cluster_ids", args[3] if len(args) > 3 else None))
        elif name == "mvnorm.mvn_orthant":
            tol = kwargs.get("tol", args[2] if len(args) > 2 else 5e-4)
            self.orthants.append((result.points, result.error, tol))

    def __enter__(self):
        for name, sites in SPANS.items():
            for site in sites:
                module_name, attr = site.split(".")
                module = importlib.import_module(f"effect_engine.{module_name}")
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def write_spans(tracers: list, path: str) -> None:
    """Write the spans of each traced repetition as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for rep, tr in enumerate(tracers):
            for s in tr.spans:
                fh.write(json.dumps({"rep": rep, "id": s.id, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end}) + "\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-span calls, total and self seconds, plus the layer counters.

    Self time is a span's duration minus its direct children's; the engine
    runs queries on one thread here, so children never overlap.
    """
    total = {name: 0.0 for name in SPAN_NAMES}
    self_s = dict(total)
    calls = {name: 0 for name in SPAN_NAMES}
    child_time = [0.0] * len(tracer.spans)
    for s in tracer.spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    for s in tracer.spans:
        if s.name in calls:
            calls[s.name] += 1
            total[s.name] += s.end - s.start
            self_s[s.name] += s.end - s.start - child_time[s.id]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.total_s"] = total[name]
        out[f"{name}.self_s"] = self_s[name]
    out["data.load_csv.rows"] = sum(tracer.rows)
    out["model.fit_ols.cluster.groups"] = sum(
        len(set(map(str, ids))) for ids in tracer.cluster_ids)
    out["mvnorm.mvn_orthant.points"] = sum(p for p, _, _ in tracer.orthants)
    out["mvnorm.mvn_orthant.tol_met_frac"] = (
        sum(err <= tol for _, err, tol in tracer.orthants) / len(tracer.orthants)
        if tracer.orthants else 0.0)
    return out

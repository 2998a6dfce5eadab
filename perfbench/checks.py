"""Correctness checks on one engine report.

A report passes when it validates against the report schema, carries a
result for every query and no errors, every effect estimate lies within
``TRUTH_SE`` standard errors of the generator's truth, and every prob_best
``total`` is within 1 plus or minus its summed error.
"""

from __future__ import annotations

import hashlib
import json
import re

import jsonschema

__all__ = ["TRUTH_SE", "check_report", "stable_digest"]

# Estimates are unbiased for the truth and their errors are normal, so
# |z| > 5 has probability 6e-7 per estimate; a 10 SE shift is always caught.
TRUTH_SE = 5.0

# Float slack for prob_best totals whose entries are all closed form.
_TOTAL_SLACK = 1e-9

_CREATED_AT = re.compile(rb'\n  "created_at": "[^"\n]*",')


def stable_digest(report: bytes) -> str:
    """SHA-256 of the report bytes with the ``created_at`` line removed."""
    stripped, count = _CREATED_AT.subn(b"", report, count=1)
    if count != 1:
        raise ValueError("report has no created_at line")
    return "sha256:" + hashlib.sha256(stripped).hexdigest()


def check_report(report: bytes, schema: dict, config: dict, truth: dict) -> list[str]:
    """Return the problems found in one rendered report (empty when correct)."""
    try:
        doc = json.loads(report)
        jsonschema.validate(doc, schema)
    except (ValueError, jsonschema.ValidationError) as exc:
        return [f"report is invalid: {str(exc).splitlines()[0]}"]
    problems = [f"query {e['name']} failed: {e['error']}" for e in doc["errors"]]
    names = [r["name"] for r in doc["results"]]
    if names != [q["name"] for q in config["queries"]]:
        problems.append("report results do not match the config's queries")
    for r in doc["results"]:
        if r["name"] in truth:
            est, se = r["estimate"], r["std_error"]
            if est is None or se is None or not abs(est - truth[r["name"]]) <= TRUTH_SE * se:
                problems.append(
                    f"{r['name']}: estimate {est} is more than {TRUTH_SE} SE ({se}) "
                    f"from the truth {truth[r['name']]}")
        elif r["kind"] == "prob_best":
            error = sum(a["error"] for a in r["arms"].values())
            if not abs(r["total"] - 1.0) <= error + _TOTAL_SLACK:
                problems.append(f"{r['name']}: prob_best total {r['total']} is not within "
                                f"1 +/- {error}")
    missing = set(truth) - set(names)
    if missing:
        problems.append(f"no result for {sorted(missing)}")
    return problems

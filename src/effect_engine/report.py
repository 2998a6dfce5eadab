"""Report assembly and serialization.

Reports are plain JSON with sorted keys and shortest round-trip float
formatting, so two runs with the same config, data, and seed produce
byte-identical files apart from the ``created_at`` timestamp. Input
provenance is recorded as SHA-256 digests of the data file and of the
canonicalized config. Non-finite numbers cannot survive JSON, so they are
replaced with null and flagged in ``warnings`` instead of crashing the run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import stat
import tempfile
from datetime import datetime, timezone

__all__ = [
    "REPORT_VERSION",
    "sha256_config",
    "build_report",
    "render_report",
    "write_report",
]

REPORT_VERSION = "1"


def sha256_config(obj) -> str:
    """Digest of the canonical JSON form (sorted keys, compact separators),
    so formatting and key order in the source file do not matter."""
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return "sha256:" + hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _sanitize(value, where: str, warnings: list):
    """Replace non-finite floats with None, recording where they were."""
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        warnings.append(f"non-finite value at {where} replaced with null")
        return None
    if isinstance(value, dict):
        return {k: _sanitize(v, f"{where}.{k}", warnings) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v, f"{where}[{i}]", warnings) for i, v in enumerate(value)]
    return value


def build_report(*, config_digest: str, data_digest: str, seed: int, model_info: dict,
                 results: list, errors: list, warnings: list,
                 created_at: str | None = None) -> dict:
    """Assemble the report document. ``results`` entries are the queries'
    ``to_dict`` payloads in query order; ``errors`` hold per-query failures
    from partial runs."""
    merged_warnings = list(warnings)
    body = {
        "version": REPORT_VERSION,
        "created_at": created_at or datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "config_digest": config_digest,
        "data_digest": data_digest,
        "model": _sanitize(model_info, "model", merged_warnings),
        "results": _sanitize(results, "results", merged_warnings),
        "errors": errors,
    }
    body["warnings"] = merged_warnings
    return body


def render_report(report: dict) -> str:
    # allow_nan=False: _sanitize has already nulled non-finite values, so a
    # NaN here is a bug, and emitting it would make the file unparseable.
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False,
                      allow_nan=False) + "\n"


def _report_mode(path) -> int:
    """The permission bits a report at ``path`` gets: those of the file it
    replaces, else what ``open`` would give a new file, 0o666 less the
    umask (which can only be read by setting it)."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0o022)
        os.umask(umask)
        return 0o666 & ~umask


def write_report(report: dict, path) -> None:
    """Write atomically: temp file in the target directory, then rename, so
    a crash never leaves a half-written report behind. The temp file, which
    ``mkstemp`` makes private, takes the mode of :func:`_report_mode` first."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".report-", suffix=".json", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(render_report(report))
            os.fchmod(fh.fileno(), _report_mode(path))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise

"""Report serialization: versioned JSON (machine) and aligned text (human).

Reports embed the resolved configuration (the config file merged with the
command-line options) and the seed; verification results carry their own
tolerances.  No search budget is recorded: the CLI always runs the default
:class:`ineqlab.search.SearchBudget`.  Two runs with the same configuration
and seed produce byte-identical JSON apart from the timestamp field.  Files
are written atomically (temp file + rename).
"""

from __future__ import annotations

import datetime
import json
import math
import os
import tempfile

import numpy as np

SCHEMA_VERSION = 1

__all__ = ["SCHEMA_VERSION", "build_report", "write_json", "write_csv", "render_text"]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    return obj


def build_report(command: str, config: dict, payload: dict,
                 seed: int | None) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "seed": seed,
        "config": _jsonable(config),
        "result": _jsonable(payload),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        # mkstemp makes the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(report: dict, path: str) -> None:
    _atomic_write(path, json.dumps(report, indent=2, sort_keys=True) + "\n")


def write_csv(rows: list[dict], path: str) -> None:
    if not rows:
        _atomic_write(path, "")
        return
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(c)) for c in cols))
    _atomic_write(path, "\n".join(lines) + "\n")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def render_text(report: dict) -> str:
    """Aligned key/value rendering of the result block."""
    out = [f"command: {report['command']}   schema: {report['schema']}   "
           f"seed: {report['seed']}"]
    flat = _flatten(report["result"])
    width = max((len(k) for k, _ in flat), default=0)
    for key, val in flat:
        out.append(f"  {key.ljust(width)}  {val}")
    return "\n".join(out)


def _flatten(obj, prefix="") -> list[tuple[str, str]]:
    rows = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            rows.extend(_flatten(v, f"{prefix}{k}." if prefix else f"{k}."))
        return [(k.rstrip("."), v) for k, v in rows] if prefix == "" else rows
    if isinstance(obj, list) and len(obj) > 8:
        return [(prefix.rstrip("."), f"[{len(obj)} values]")]
    return [(prefix.rstrip("."), repr(obj))]

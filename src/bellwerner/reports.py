"""Structured run reports and their renderings.

A report is the JSON object it prints: a dict with the keys command,
package version, seed, UTC timestamp, inputs (an echo of the options),
results and warnings (a list of {"name", "message"} mappings), in that
order.  Everything stored is JSON-plain (str, int, float, bool, None, list,
dict), so a structured report round-trips through JSON exactly.

Floats are rounded to 12 significant digits when the report is built, not at
render time, so every output format and the machine-readable form agree.
Infinities become the strings "inf"/"-inf" (JSON has no literal for them).

Results may carry a "tables" entry: a list of {"title", "columns", "rows"}
mappings that the markdown and csv renderers lay out as actual tables.
Tables are built by `table`, which prints a missing (None) cell as "-".
"""

from __future__ import annotations

import csv
import io
import json
import math
from datetime import datetime, timezone
from typing import Optional

from . import __version__


def clean_value(value):
    """Normalize a value tree to JSON-plain data with 12-significant-digit floats."""
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return float(format(value, ".12g"))
    if isinstance(value, dict):
        return {str(k): clean_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [clean_value(v) for v in value]
    if hasattr(value, "tolist"):  # numpy scalars and arrays
        return clean_value(value.tolist())
    raise TypeError(f"cannot put {type(value).__name__} into a report")


def table(title: str, columns, rows) -> dict:
    """A results table: its title, column names and rows, a None cell as "-"."""
    rows = [["-" if v is None else v for v in row] for row in rows]
    return {"title": title, "columns": list(columns), "rows": rows}


def new_report(
    command: str,
    *,
    seed: Optional[int] = None,
    inputs: Optional[dict] = None,
    results: Optional[dict] = None,
    warnings=(),
) -> dict:
    return {
        "command": command,
        "version": __version__,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "inputs": clean_value(inputs or {}),
        "results": clean_value(results or {}),
        "warnings": [{"name": str(n), "message": str(m)} for n, m in warnings],
    }


def serialize_report(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _split_tables(results: dict):
    """The results but tables as (key, value) pairs, a mapping's as (key.sub, value); tables."""
    scalars = []
    for key, value in results.items():
        if isinstance(value, dict):
            scalars += [(f"{key}.{k}", v) for k, v in value.items()]
        elif key != "tables":
            scalars.append((key, value))
    return scalars, results.get("tables", [])


def render_markdown(report: dict) -> str:
    out = [f"# {report['command']}", ""]
    out.append(f"- version: {report['version']}")
    if report["seed"] is not None:
        out.append(f"- seed: {report['seed']}")
    out.append(f"- timestamp: {report['timestamp']}")
    for key, value in report["inputs"].items():
        out.append(f"- {key}: {_fmt(value)}")
    out.append("")
    scalars, tables = _split_tables(report["results"])
    if scalars:
        out.append("## Results")
        out.append("")
        for key, value in scalars:
            out.append(f"- {key}: {_fmt(value)}")
        out.append("")
    for table in tables:
        out.append(f"## {table['title']}")
        out.append("")
        cols = [str(c) for c in table["columns"]]
        out.append("| " + " | ".join(cols) + " |")
        out.append("|" + "|".join(" --- " for _ in cols) + "|")
        for row in table["rows"]:
            out.append("| " + " | ".join(_fmt(v) for v in row) + " |")
        out.append("")
    if report["warnings"]:
        out.append("## Warnings")
        out.append("")
        for w in report["warnings"]:
            out.append(f"- **{w['name']}**: {w['message']}")
        out.append("")
    return "\n".join(out)


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["command", report["command"]])
    writer.writerow(["version", report["version"]])
    writer.writerow(["seed", "" if report["seed"] is None else report["seed"]])
    writer.writerow(["timestamp", report["timestamp"]])
    for key, value in report["inputs"].items():
        writer.writerow([key, _fmt(value)])
    scalars, tables = _split_tables(report["results"])
    for key, value in scalars:
        writer.writerow([key, _fmt(value)])
    for table in tables:
        writer.writerow([])
        writer.writerow(["table", table["title"]])
        writer.writerow([str(c) for c in table["columns"]])
        for row in table["rows"]:
            writer.writerow([_fmt(v) for v in row])
    for w in report["warnings"]:
        writer.writerow(["warning", w["name"], w["message"]])
    return buf.getvalue()


def render(report: dict, fmt: str) -> str:
    if fmt == "structured":
        return serialize_report(report)
    if fmt == "markdown":
        return render_markdown(report)
    if fmt == "csv":
        return render_csv(report)
    raise ValueError(f"unknown report format {fmt!r}")

"""Machine-readable report documents with byte-stable serialization.

Reports are plain dicts with a fixed top-level shape (tool_version, command,
config, results, witnesses).  Numbers are emitted with 17 significant
digits, keys are sorted and the layout is pinned, so re-running a command
with identical flags reproduces the document byte for byte.
"""

from __future__ import annotations

import json
import math

from .axioms import AuditConfig

__all__ = ["build_report", "dumps_canonical", "report_schema"]


def build_report(command: dict, cfg: AuditConfig, results: dict, witnesses: list[dict]) -> dict:
    from . import __version__

    return {
        "tool_version": __version__,
        "command": command,
        "config": cfg.as_dict(),
        "results": results,
        "witnesses": witnesses,
    }


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {value!r} cannot appear in a report")
    return format(value, ".17g")


def dumps_canonical(value, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, 2-space indent, floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            f'{inner}{json.dumps(str(key))}: {dumps_canonical(value[key], indent + 1)}'
            for key in sorted(value, key=str)
        )
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = (f"{inner}{dumps_canonical(v, indent + 1)}" for v in value)
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"unsupported type {type(value).__name__} in report document")


def report_schema() -> dict:
    """The JSON schema that every emitted report validates against."""
    import importlib.resources  # here, not at the top: no command reads the schema
    text = importlib.resources.files("triadaudit.schemas").joinpath("report.schema.json").read_text("utf-8")
    return json.loads(text)

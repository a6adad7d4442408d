"""Machine-readable report documents with byte-stable serialization.

Reports are plain dicts with a fixed top-level shape (tool_version, command,
config, results, witnesses).  Floats print in their shortest round-trip
form, keys are sorted and the layout is pinned, so re-running a command
with identical flags reproduces the document byte for byte; NaN and
infinities are refused, so every report is valid JSON.
"""

from __future__ import annotations

import json

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


def dumps_canonical(value) -> str:
    """Deterministic JSON: sorted keys, 2-space indent, shortest round-trip floats."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


def report_schema() -> dict:
    """The JSON schema that every emitted report validates against."""
    import importlib.resources  # here, not at the top: no command reads the schema
    text = importlib.resources.files("triadaudit.schemas").joinpath("report.schema.json").read_text("utf-8")
    return json.loads(text)

"""The experiment scripts run end to end at small budgets."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_audit_catalog():
    out = run_script("audit_catalog.py", "--samples", "30")
    assert "\n0 mismatching profiles" in out


def test_reproduce_results():
    out = run_script("reproduce_results.py", "--samples", "60", "--pair-samples", "300")
    assert "matches expected diagonal: True" in out
    assert "counterexamples: 0" in out
    for index_id in ("koczkodaj", "saaty_ci"):
        assert re.search(rf"^{index_id} +order-equivalent$", out, re.M), index_id

"""The experiment scripts run end to end at small budgets."""

import dataclasses
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import package_env

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=package_env(),
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reproduce_results():
    out = run_script("reproduce_results.py", "--samples", "60", "--pair-samples", "300")
    assert "\n0 mismatching profiles" in out
    assert "matches expected diagonal: True" in out
    assert "counterexamples: 0" in out
    for index_id in ("koczkodaj", "saaty_ci"):
        assert re.search(rf"^{index_id} +order-equivalent$", out, re.M), index_id


def load_script(name: str):
    """The script as a module, its main() not yet run."""
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _flipped_verdict(verdict_matrix):
    """verdict_matrix with the first verdict of its last row flipped."""

    def matrix(indices, axioms, cfg):
        real = verdict_matrix(indices, axioms, cfg)
        *rows, (descriptor, report) = real.rows
        first, *verdicts = report.verdicts
        flipped = dataclasses.replace(first, status="pass" if first.status == "fail" else "fail")
        row = (descriptor, dataclasses.replace(report, verdicts=(flipped, *verdicts)))
        return dataclasses.replace(real, rows=(*rows, row))

    return matrix


def _off_diagonal(independence_table):
    """independence_table with the first cell's status flipped."""

    def table(matrix):
        real = independence_table(matrix)
        row, *rows = real.rows
        cell, *cells = row.cells
        flipped = dataclasses.replace(cell, status="pass" if cell.status == "fail" else "fail")
        return dataclasses.replace(real, rows=(dataclasses.replace(row, cells=(flipped, *cells)), *rows))

    return table


def _with_counterexample(audit_implications):
    """audit_implications with the first verdict turned into a counterexample."""

    def verdicts(matrix):
        first, *rest = audit_implications(matrix)
        return (dataclasses.replace(first, status="counterexample-to-lemma"), *rest)

    return verdicts


@pytest.mark.parametrize(
    "name, substitute, line",
    [
        ("independence_table", _off_diagonal, "matches expected diagonal: False"),
        ("audit_implications", _with_counterexample, "counterexamples: 1"),
        ("verdict_matrix", _flipped_verdict, "1 mismatching profiles"),
    ],
)
def test_reproduce_results_exits_1_when_a_result_departs_from_the_paper(monkeypatch, capsys, name, substitute, line):
    script = load_script("reproduce_results.py")
    monkeypatch.setattr(sys, "argv", ["reproduce_results.py", "--samples", "30", "--pair-samples", "50"])
    assert script.main() == 0
    assert line not in capsys.readouterr().out
    monkeypatch.setattr(script, name, substitute(getattr(script, name)))
    assert script.main() == 1
    assert line in capsys.readouterr().out

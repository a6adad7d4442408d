"""The package surface: each public name is listed once, by the module that defines it, and the README's
example runs as written."""

import re
from pathlib import Path

import triadaudit
from triadaudit import analysis, axioms, core, indices

MODULES = (core, indices, axioms, analysis)


def test_no_name_is_listed_by_two_modules():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)), sorted({n for n in names if names.count(n) > 1})


def test_the_package_lists_version_then_each_modules_names():
    assert triadaudit.__all__ == ["__version__", *(name for module in MODULES for name in module.__all__)]


def test_every_listed_name_resolves_to_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(triadaudit, name) is getattr(module, name), (module.__name__, name)
    assert isinstance(triadaudit.__version__, str)


def test_the_verdict_matrix_is_still_read_through_analysis():
    assert analysis.verdict_matrix is axioms.verdict_matrix
    assert analysis.VerdictMatrix is axioms.VerdictMatrix


def test_the_readme_example_runs_and_reproduces_the_papers_results():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    scope = {}
    exec(example, scope)
    assert scope["table"].matches_expected
    assert [v.index_id for v in scope["rules"] if v.status == "counterexample-to-lemma"] == []
    assert scope["verdict"].status == "order-equivalent"

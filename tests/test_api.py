"""The package surface: each public name is listed once, by the module that defines it."""

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

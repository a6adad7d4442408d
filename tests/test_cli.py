"""End-to-end command line behaviour: exit codes, file formats, reports."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triadaudit
from triadaudit import AXIOMS, INDEX_IDS, Triad
from triadaudit.cli import main, parse_matrix_file
from triadaudit.reporting import report_schema


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


S_MATRIX = json.dumps({"matrix": [[1, 1, 3], [1, 1, 2], [0.3333333333, 0.5, 1]]})


@pytest.fixture
def matrix_s(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(S_MATRIX)
    return str(path)


@pytest.fixture(scope="module")
def matrix_s_module(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "s.json"
    path.write_text(S_MATRIX)
    return str(path)


class TestMatrixFiles:
    def test_json_matrix(self, matrix_s):
        matrix, labels = parse_matrix_file(matrix_s)
        assert matrix.triad() == Triad(1, 3, 2)
        assert labels is None

    def test_json_labels(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"matrix": [[1, 2], [0.5, 1]], "labels": ["a", "b"]}))
        matrix, labels = parse_matrix_file(path)
        assert labels == ["a", "b"]
        assert matrix.n == 2

    def test_csv_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,1,3\n1,1,2\n0.3333333333,0.5,1\n")
        matrix, _ = parse_matrix_file(path)
        assert matrix.triad() == Triad(1, 3, 2)

    def test_csv_triad_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,3,2\n")
        matrix, _ = parse_matrix_file(path)
        assert matrix.triad() == Triad(1, 3, 2)

    def test_complete_lower_fills_reciprocals(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("1,4,8\n0,1,2\n0,0,1\n")
        matrix, _ = parse_matrix_file(path, complete_lower=True)
        assert matrix.entries[1][0] == 0.25
        assert matrix.entries[2][0] == 0.125


class TestCompute:
    def test_scale_dependent_on_example_matrix(self, matrix_s):
        code, out, _ = run_cli("compute", "--matrix", matrix_s, "--index", "scale_dependent")
        assert code == 0
        assert out.split()[-1].startswith("3.16666666")

    def test_consistent_matrix_natural_is_one(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("2,6,3\n")
        code, out, _ = run_cli("compute", "--matrix", str(path), "--index", "natural")
        assert code == 0
        assert out.split()[-1] == "1"

    def test_four_by_four_rejected(self, tmp_path):
        path = tmp_path / "big.json"
        rows = [[1.0] * 4 for _ in range(4)]
        path.write_text(json.dumps({"matrix": rows}))
        code, _, err = run_cli("compute", "--matrix", str(path))
        assert code == 2
        assert "triads only" in err

    def test_unknown_index_rejected(self, matrix_s):
        code, _, err = run_cli("compute", "--matrix", matrix_s, "--index", "bogus")
        assert code == 2
        assert "valid ids" in err

    def test_unreadable_file(self, tmp_path):
        code, _, err = run_cli("compute", "--matrix", str(tmp_path / "missing.json"))
        assert code == 2
        assert "cannot read" in err

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli("compute", "--matrix", str(path))
        assert code == 2

    def test_non_reciprocal_rejected_without_completion(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,4,8\n0.5,1,2\n0.125,0.5,1\n")
        code, _, err = run_cli("compute", "--matrix", str(path))
        assert code == 2
        assert "reciprocal" in err

    def test_complete_lower_flag(self, tmp_path):
        path = tmp_path / "upper.csv"
        path.write_text("1,4,8\n0,1,2\n0,0,1\n")
        code, out, _ = run_cli("compute", "--matrix", str(path), "--complete-lower", "--index", "natural")
        assert code == 0
        assert out.split()[-1] == "1"

    def test_json_report_validates(self, matrix_s):
        code, out, _ = run_cli("compute", "--matrix", matrix_s, "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, report_schema())
        assert doc["results"]["indices"]["natural"] == 1.5


class TestAudit:
    def test_all_axioms_pass_for_koczkodaj(self):
        code, out, _ = run_cli("audit", "koczkodaj", "--axioms", "all", "--samples", "60", "--seed", "42")
        assert code == 0
        assert "fail" not in out

    def test_strict_exit_code_on_violation(self):
        code, out, _ = run_cli("audit", "scale_dependent", "--axioms", "SI", "--samples", "30", "--strict")
        assert code == 1
        assert "witness" in out

    def test_strict_passes_cleanly(self):
        code, _, _ = run_cli("audit", "natural", "--axioms", "URS,IIP", "--samples", "30", "--strict")
        assert code == 0

    def test_unknown_axiom(self):
        code, _, err = run_cli("audit", "natural", "--axioms", "FOO", "--samples", "10")
        assert code == 2
        assert "unknown axiom" in err

    def test_unknown_index(self):
        code, _, err = run_cli("audit", "bogus", "--samples", "10")
        assert code == 2
        assert "valid ids" in err

    def test_json_report_schema_and_witnesses(self):
        code, out, _ = run_cli(
            "audit", "cx6", "--axioms", "SI", "--samples", "20", "--seed", "7", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, report_schema())
        assert doc["results"]["verdicts"][0]["status"] == "fail"
        assert doc["witnesses"][0]["params"]["k"] == 2
        assert doc["config"]["master_seed"] == 7

    def test_byte_determinism(self):
        args = ("audit", "natural", "--axioms", "all", "--samples", "50", "--seed", "42", "--json")
        _, first, _ = run_cli(*args)
        _, second, _ = run_cli(*args)
        assert first == second


class TestIndependence:
    def test_matches_expected_pattern(self):
        code, out, _ = run_cli("independence", "--samples", "60", "--seed", "42")
        assert code == 0
        assert "matches expected diagonal: yes" in out

    def test_json_report(self):
        code, out, _ = run_cli("independence", "--samples", "40", "--seed", "42", "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, report_schema())
        assert doc["results"]["matches_expected"] is True
        assert len(doc["results"]["rows"]) == 6

    def test_byte_determinism(self):
        args = ("independence", "--samples", "30", "--seed", "1", "--json")
        _, first, _ = run_cli(*args)
        _, second, _ = run_cli(*args)
        assert first == second


class TestConcordance:
    def test_monotone_pair(self):
        code, out, _ = run_cli("concordance", "natural", "koczkodaj", "--samples", "400")
        assert code == 0
        assert "discordant   0" in out
        assert "kendall tau-b 1" in out

    def test_json_report(self):
        code, out, _ = run_cli("concordance", "natural", "discretised_natural", "--samples", "400", "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, report_schema())
        assert doc["results"]["discordant"] == 0
        assert doc["results"]["ties_b_only"] > 0

    def test_unknown_id(self):
        code, _, err = run_cli("concordance", "natural", "bogus", "--samples", "10")
        assert code == 2

    def test_byte_determinism(self):
        args = ("concordance", "natural", "scale_dependent", "--samples", "200", "--json")
        _, first, _ = run_cli(*args)
        _, second, _ = run_cli(*args)
        assert first == second


class TestSeedResolution:
    def test_env_seed_used(self, monkeypatch):
        monkeypatch.setenv("PCM_SEED", "123")
        _, out, _ = run_cli("audit", "natural", "--axioms", "URS", "--samples", "10", "--json")
        assert json.loads(out)["config"]["master_seed"] == 123

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("PCM_SEED", "123")
        _, out, _ = run_cli("audit", "natural", "--axioms", "URS", "--samples", "10", "--seed", "9", "--json")
        assert json.loads(out)["config"]["master_seed"] == 9

    def test_invalid_env_seed(self, monkeypatch):
        monkeypatch.setenv("PCM_SEED", "not-a-number")
        code, _, err = run_cli("audit", "natural", "--axioms", "URS", "--samples", "10")
        assert code == 2
        assert "PCM_SEED" in err

    def test_default_seed(self, monkeypatch):
        monkeypatch.delenv("PCM_SEED", raising=False)
        _, out, _ = run_cli("audit", "natural", "--axioms", "URS", "--samples", "10", "--json")
        assert json.loads(out)["config"]["master_seed"] == 42


def test_usage_error_exits_two():
    code, _, _ = run_cli("audit")  # missing index argument
    assert code == 2


def test_unknown_command_exits_two():
    code, _, _ = run_cli("frobnicate")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("audit", "natural", "--samples", "0"),
        ("independence", "--samples", "0"),
        ("concordance", "natural", "koczkodaj", "--samples", "-1"),
    ],
)
def test_bad_config_value_exits_two(argv):
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: samples must be >= 1") and err.count("\n") == 1


def assert_one_line_error(code, out, err, name):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    assert name in err


# Bad matrix files that reach past the JSON and CSV checks: each gets one error line, not a traceback.
MALFORMED_FILES = {
    "cells.json": b'{"matrix": [["a", 1, 2], [1, 1, 2], [0.5, 0.5, 1]]}',
    # Cells that Python's float() would accept: JSON booleans and numeric strings.
    "bools.json": b'{"matrix": [[true, 2, 4], [0.5, true, 2], [0.25, 0.5, true]]}',
    "numeric_strings.json": b'{"matrix": [["1", "2", "4"], ["0.5", "1", "2"], ["0.25", "0.5", "1"]]}',
    "string.json": b'{"matrix": "abc"}',
    "scalar.json": b'{"matrix": 5, "labels": ["a"]}',
    "latin1.csv": b"1,3,\xff2\n",
    "big_int.json": b'{"matrix": [[1, 1' + b"0" * 400 + b"], [1, 1]]}",
    "deep.json": b"[" * 100_000,
    # Valid entries whose ratios leave float64: a division by zero, then an infinite index value.
    "overflow.csv": b"1e300,1,1e300\n",
    "infinite.csv": b"1e150,1e-10,1e150\n",
}


@pytest.mark.parametrize("name", MALFORMED_FILES)
def test_malformed_matrix_file_exits_two_with_one_line(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(MALFORMED_FILES[name])
    for json_flag in ((), ("--json",)):
        assert_one_line_error(*run_cli("compute", "--matrix", str(path), *json_flag), name)


def test_compute_takes_no_sampling_flags(matrix_s):
    code, out, _ = run_cli("compute", "--matrix", matrix_s, "--seed", "7")
    assert (code, out) == (2, "")


# Fuzz: no input makes the CLI raise or print a traceback.  Every reply is an
# exit code in {0, 1, 2}, and an "error:" reply is a single line.
FUZZ = settings(derandomize=True, deadline=None, max_examples=150)
cells = st.one_of(st.floats(), st.integers(), st.text(max_size=3), st.none(), st.booleans())
json_text = st.one_of(
    st.fixed_dictionaries(
        {"matrix": st.lists(st.lists(cells, max_size=4), max_size=4)},
        optional={"labels": st.one_of(cells, st.lists(st.text(max_size=2), max_size=4))},
    ),
    st.recursive(
        cells, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["matrix", "labels"]), inner)
    ),
).map(json.dumps)
csv_cell = st.one_of(st.floats().map(repr), st.integers().map(str), st.text(max_size=3))
csv_text = st.one_of(
    st.tuples(*[st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)] * 3).map(
        lambda t: ",".join(map(repr, t))
    ),
    st.lists(st.lists(csv_cell, min_size=1, max_size=4).map(",".join), max_size=4).map("\n".join),
)
file_bytes = st.one_of(st.binary(max_size=48), json_text.map(str.encode), csv_text.map(str.encode))


def assert_clean_reply(argv):
    code, _, err = run_cli(*argv)
    assert code in (0, 1, 2)
    if err.startswith("error:"):
        assert err.endswith("\n") and err.count("\n") == 1
    return code


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(
    content=file_bytes,
    suffix=st.sampled_from([".json", ".csv"]),
    flags=st.sets(st.sampled_from(["--json", "--complete-lower"])),
)
def test_fuzzed_matrix_files_get_a_clean_reply(fuzz_dir, content, suffix, flags):
    path = fuzz_dir / f"matrix{suffix}"
    path.write_bytes(content)
    assert assert_clean_reply(("compute", "--matrix", str(path), *sorted(flags))) in (0, 2)


junk = st.text(max_size=4)
name = st.sampled_from(INDEX_IDS) | junk
POSITIONALS = {"compute": 0, "audit": 1, "independence": 0, "concordance": 2}
FLAGS = {
    "compute": ("--index", "--json", "--complete-lower"),
    "audit": ("--axioms", "--seed", "--strict", "--json"),
    "independence": ("--seed", "--json"),
    "concordance": ("--seed", "--json"),
}
VALUES = {
    "--index": name,
    "--axioms": st.just("all") | st.lists(st.sampled_from(AXIOMS) | junk, max_size=3).map(",".join),
    "--seed": st.integers(-(2**70), 2**70).map(str) | junk,
}


@st.composite
def argvs(draw, matrix):
    """Mostly well-formed argv for each command, with junk names, flags and values mixed in."""
    command = draw(st.sampled_from([*POSITIONALS, "frobnicate"]))
    positionals = POSITIONALS.get(command, 0)
    argv = [command, *draw(st.lists(name, min_size=positionals, max_size=positionals))]
    for flag in draw(st.lists(st.sampled_from(FLAGS.get(command, ()) + ("--bogus",)), max_size=3)):
        argv += [flag, draw(VALUES[flag])] if flag in VALUES else [flag]
    argv += draw(st.lists(junk, max_size=1))
    if command == "compute":
        return argv + ["--matrix", matrix]
    # --samples comes last, so argparse keeps its small value and no audit runs long.
    return argv + ["--samples", draw(st.sampled_from(["2", "1", "0", "-1", "x"]))]


@FUZZ
@given(data=st.data())
def test_fuzzed_argv_gets_a_clean_reply(matrix_s_module, data):
    assert_clean_reply(data.draw(argvs(matrix_s_module)))


def test_cli_import_does_not_load_numpy():
    # numpy is a test-only dependency; importing it would add its start-up
    # time and memory to every CLI call.
    src = str(Path(triadaudit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, triadaudit.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

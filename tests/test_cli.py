"""End-to-end command line behaviour: exit codes, file formats, reports."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triadaudit
from conftest import triads
from eigen_oracle import matrix_rows
from triadaudit import AXIOMS, INDEX_IDS, Triad
from triadaudit.cli import CliError, main, parse_matrix_file
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
        triad, labels = parse_matrix_file(matrix_s)
        assert triad == Triad(1, 3, 2)
        assert labels is None

    def test_json_labels(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"matrix": [[1, 2, 4], [0.5, 1, 2], [0.25, 0.5, 1]], "labels": ["a", "b", "c"]}))
        triad, labels = parse_matrix_file(path)
        assert labels == ["a", "b", "c"]
        assert triad == Triad(2, 4, 2)

    def test_csv_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,1,3\n1,1,2\n0.3333333333,0.5,1\n")
        triad, _ = parse_matrix_file(path)
        assert triad == Triad(1, 3, 2)

    def test_csv_triad_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,3,2\n")
        triad, labels = parse_matrix_file(path)
        assert triad == Triad(1, 3, 2)
        assert labels is None

    def test_complete_lower_fills_reciprocals(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("1,4,8\n0,1,2\n0,0,1\n")
        triad, _ = parse_matrix_file(path, complete_lower=True)
        assert triad == Triad(4, 8, 2)
        with pytest.raises(CliError, match=r"entry \(2,1\) must be a finite positive real, got 0\.0"):
            parse_matrix_file(path)

    def test_rounding_in_lower_triangle_tolerated(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"matrix": [[1, 1, 3], [1, 1, 2], [0.3333333, 0.5, 1]]}))
        triad, _ = parse_matrix_file(path)
        assert triad == Triad(1, 3, 2)

    def test_reciprocity_violation_rejected(self, tmp_path):
        path = tmp_path / "n.json"
        path.write_text(json.dumps({"matrix": [[1, 2, 4], [2, 1, 2], [0.25, 0.5, 1]]}))
        with pytest.raises(CliError, match="reciprocal"):
            parse_matrix_file(path)

    def test_complete_lower_ignores_sub_diagonal(self, tmp_path):
        # The diagonal and the cells below it may be anything, even non-numbers.
        path = tmp_path / "g.csv"
        path.write_text("7,4,8\nnan,-1,2\ninf,0,5\n")
        triad, _ = parse_matrix_file(path, complete_lower=True)
        assert triad == Triad(4, 8, 2)

    @pytest.mark.parametrize(
        "name, doc",
        [
            # Its labels do not make the 2x2 file readable: parse_matrix_file itself rejects it.
            pytest.param("two.json", {"matrix": [[1, 2], [0.5, 1]], "labels": ["a", "b"]}, id="2x2"),
            pytest.param("four.json", {"matrix": [[1.0] * 4] * 4}, id="4x4"),
            pytest.param("ragged.json", {"matrix": [[1, 2, 4], [0.5, 1], [0.25, 0.5, 1]]}, id="ragged"),
        ],
    )
    def test_triad_requires_order_three(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        with pytest.raises(CliError, match="^triads only: "):
            parse_matrix_file(path)
        for flags in ((), ("--json",), ("--complete-lower",)):
            code, out, err = run_cli("compute", "--matrix", str(path), *flags)
            assert_one_line_error(code, out, err, str(path))
            assert "triads only" in err

    @given(triads())
    def test_triad_matrix_round_trip(self, fuzz_dir, t):
        path = fuzz_dir / "round_trip.json"
        path.write_text(json.dumps({"matrix": matrix_rows(t)}))
        assert parse_matrix_file(path) == (t, None)


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


# sha256 of three --json documents at the default seed.  A change that moves
# one byte of a report changes its digest; only a release may re-pin them.
JSON_DIGESTS = {
    ("compute", "--matrix", "row.csv", "--json"): "1722267536b6582872351cdb3773b3a5cf09c8e19223f8e50df87c28eff33a2f",
    # cx3 fails CON on probe 1, so this document carries a CON witness.
    ("audit", "cx3", "--axioms", "CON,MRP", "--samples", "300", "--json"): (
        "fcc4c37e2f33cbbf746ecf3cc9185d414e7996191146614cd49e49c768b5731d"
    ),
    ("independence", "--samples", "200", "--json"): "643f43e67fc33decb016c9e1d6cec516bca85e4b7574c9c6410f75f7b93778e4",
    # natural and cx5 disagree on pair 1, so this document carries a concordance witness.
    ("concordance", "natural", "cx5", "--samples", "1000", "--json"): (
        "255521897701a871e9ddca3e03e8ff8336acb5ee95bdd24e0cb385f4ce14577f"
    ),
}


@pytest.mark.parametrize("argv", JSON_DIGESTS, ids=lambda argv: argv[0])
def test_json_documents_are_pinned(tmp_path, monkeypatch, argv):
    # The compute document echoes the matrix path, so the file is read by a relative name.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PCM_SEED", raising=False)
    (tmp_path / "row.csv").write_text("2,7,0.5\n")
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == JSON_DIGESTS[argv]


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
    "argv, message",
    [
        (("audit", "natural", "--samples", "abc"), "error: argument --samples: invalid int value: 'abc'"),
        (("audit",), "error: the following arguments are required: index"),
        ((), "error: the following arguments are required: command"),
        (("frobnicate",), "error: argument command: invalid choice: 'frobnicate'"),
        (("independence", "--bogus"), "error: unrecognized arguments: --bogus"),
    ],
)
def test_usage_errors_are_one_line_without_the_usage_block(argv, message):
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith(message) and err.count("\n") == 1, err


def test_help_still_exits_zero():
    code, out, err = run_cli("audit", "--help")
    assert (code, err) == (0, "") and out.startswith("usage: triadaudit audit")


def test_a_sample_count_beyond_the_probe_streams_exits_two():
    # Rejected when the config is built.  The unknown axiom makes an accepted
    # config fail at once instead of auditing a cell that would never finish.
    code, out, err = run_cli("audit", "natural", "--axioms", "NOPE", "--samples", "99999999999999999999999")
    assert (code, out) == (2, "")
    assert err.startswith("error: samples must be <= 2**64") and err.count("\n") == 1


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
    "null_row.json": b'{"matrix": [[1, 2, 4], null, [0.25, 0.5, 1]]}',
    "latin1.csv": b"1,3,\xff2\n",
    "big_int.json": b'{"matrix": [[1, 1' + b"0" * 400 + b"], [1, 1]]}",
    "deep.json": b"[" * 100_000,
    # Valid entries whose ratios leave float64: a division by zero, then an infinite index value.
    "overflow.csv": b"1e300,1,1e300\n",
    "infinite.csv": b"1e150,1e-10,1e150\n",
    # A subnormal upper entry whose reciprocal overflows: the error names the entry the file holds.
    "subnormal.csv": b"5e-320,5e-320,1\n",
}


# JSON "matrix" values that are not a list of rows.
NOT_A_LIST_OF_ROWS = ("string.json", "scalar.json", "null_row.json")


@pytest.mark.parametrize("name", MALFORMED_FILES)
def test_malformed_matrix_file_exits_two_with_one_line(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(MALFORMED_FILES[name])
    for json_flag in ((), ("--json",)):
        code, out, err = run_cli("compute", "--matrix", str(path), *json_flag)
        assert_one_line_error(code, out, err, name)
        if name in NOT_A_LIST_OF_ROWS:
            assert err == f"error: {path}: matrix must be a list of rows\n"
        if name == "subnormal.csv":
            assert err == f"error: {path}: entry (1,2) must have a finite reciprocal, got 5e-320\n"


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
    if code == 2:
        assert err.startswith("error:") and err.endswith("\n") and err.count("\n") == 1, err
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


def run_fresh(code, *args, flags=()):
    """Run ``code`` in a fresh interpreter that imports triadaudit from this
    checkout, with ``args`` as its sys.argv[1:]; its stdout."""
    src = str(Path(triadaudit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, *flags, "-c", code, *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Runs each JSON-encoded argv of sys.argv[1:] through cli.main in turn and
# prints, per command, its exit code, its stdout and the modules loaded so far.
COMMANDS_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from triadaudit import cli
for argv in map(json.loads, sys.argv[1:]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    loaded = [m for m in ("numpy", "triadaudit.analysis", "hashlib") if m in sys.modules]
    print(json.dumps([code, out.getvalue(), loaded]))
"""


def test_cli_commands_load_only_what_they_run(matrix_s, monkeypatch):
    # numpy is a test-only dependency, and only concordance and independence
    # use analysis; only a command that draws a probe hashes.  Loading any of
    # them would add its start-up time to every CLI call.
    monkeypatch.delenv("PCM_SEED", raising=False)
    concordance = ["concordance", "natural", "cx5", "--samples", "50", "--json"]
    argvs = [
        ["compute", "--matrix", matrix_s, "--json"],
        ["audit", "no_such_index", "--json"],
        ["audit", "natural", "--samples", "0"],
        concordance,
    ]
    replies = [json.loads(line) for line in run_fresh(COMMANDS_IN_ONE_PROCESS, *map(json.dumps, argvs)).splitlines()]
    assert [code for code, _, _ in replies] == [0, 2, 2, 0]
    assert [loaded for _, _, loaded in replies[:3]] == [[], [], []]
    assert replies[0][1] == run_cli(*argvs[0])[1]
    _, doc, loaded = replies[3]
    assert loaded == ["triadaudit.analysis", "hashlib"]
    assert doc == run_cli(*concordance)[1]


def test_cli_import_without_site_loads_neither_resources_nor_analysis():
    # Without site, no .pth file imports importlib.resources first; only
    # report_schema, which no command calls, reads the package data.
    code = "import sys, triadaudit.cli; print(sorted({'importlib.resources', 'triadaudit.analysis'} & {*sys.modules}))"
    assert run_fresh(code, flags=("-S",)) == "[]\n"


def test_star_import_binds_every_listed_name():
    # import triadaudit leaves analysis unloaded; the package's module
    # __getattr__ loads it for the star import, which must bind every name.
    code = """
import sys
import triadaudit
print('triadaudit.analysis' in sys.modules)
from triadaudit import *
print(sorted(n for n in triadaudit.__all__ if n not in globals()))
"""
    assert run_fresh(code) == "False\n[]\n"


def test_package_version_is_the_reports_tool_version():
    # pyproject.toml is read with a regex: tomllib is not in Python 3.10.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text("utf-8")
    versions = re.findall(r'^version = "([^"]+)"$', pyproject, re.M)
    assert versions == [triadaudit.__version__]
    code, out, _ = run_cli("audit", "natural", "--axioms", "URS", "--samples", "5", "--json")
    assert code == 0 and json.loads(out)["tool_version"] == triadaudit.__version__

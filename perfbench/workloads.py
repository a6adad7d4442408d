"""The four benchmark workloads: inputs from a seed, one timed pass, and a
verification gate that checks only invariants a correct engine must keep.

Every workload is a closed loop run from one process with a single thread:
the next call is issued only after the previous one has returned.  A pass is
the workload's fixed task; it makes every timed call through a ``Recorder``,
and its time is the sum of its calls' times.  A command, the unit of the
latency metrics, is what a user waits on: one CLI process on
``cli_oneshot``, which the pass records with ``Recorder.command``, and one
whole pass on the library workloads.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

from hostspeed import Clock

# Full and smoke input sizes.  catalog_sweep and deep_audit: probes per
# check; rank_concordance: sampled pairs per concordance; cli_oneshot: copies
# of each command kind in the mix (every command is issued twice).
SIZES = {
    "catalog_sweep": (1000, 100),
    "deep_audit": (5000, 50),
    "rank_concordance": (20000, 500),
    "cli_oneshot": (5, 1),
}

CHARACTERIZED = ("koczkodaj", "saaty_ci", "discretised_natural", "cx4", "flat", "scale_dependent")
ORDER_EQUIVALENT = ("koczkodaj", "saaty_ci")
DEEP_INDICES = ("natural", "koczkodaj", "saaty_ci")

CLI_AUDIT_SAMPLES = 100
CLI_CONCORDANCE_SAMPLES = 1000


@dataclass
class Checks:
    """Outputs checked, and those that failed.

    ``errors`` counts bad inputs whose command died with an uncaught
    exception instead of rejecting the input; ``wrong`` counts every other
    failure: an output that broke an invariant, or a good command that
    crashed.  Both are failures; only ``wrong`` makes a run incorrect.
    """

    attempted: int = 0
    errors: int = 0
    wrong: int = 0
    messages: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.wrong += 1
            self.messages.append(message)

    def error(self, message: str) -> None:
        self.attempted += 1
        self.errors += 1
        self.messages.append(message)


class Recorder:
    """Times the calls of one pass, raw and normalised to the reference host
    speed (``hostspeed.py``), and keeps the commands' normalised latencies."""

    def __init__(self):
        self.clock = Clock()
        self.raw: list[float] = []
        self.normalised: list[float] = []
        self.latencies: list[float] = []

    def call(self, fn, *args):
        t0 = perf_counter()
        result = fn(*args)
        self.raw.append(perf_counter() - t0)
        self.normalised.append(self.clock.normalise(self.raw[-1]))
        return result

    def command(self, fn, *args):
        result = self.call(fn, *args)
        self.latencies.append(self.normalised[-1])
        return result


# -- catalog_sweep ----------------------------------------------------------


def catalog_prepare(ta, seed, smoke, workdir):
    samples = SIZES["catalog_sweep"][smoke]
    for index_id in ta.indices.INDEX_IDS:
        ta.indices.get_index(index_id)
    return {"cfg": ta.axioms.AuditConfig(samples=samples, master_seed=seed)}


def catalog_pass(ta, state, rec):
    cfg = state["cfg"]
    get = ta.indices.get_index
    matrix = [rec.call(ta.axioms.audit, get(i), ta.indices.AXIOMS, cfg) for i in ta.indices.INDEX_IDS]
    independence = rec.call(ta.analysis.independence_table, cfg)
    implications = rec.call(ta.analysis.audit_implications, cfg)
    characterization = [rec.call(ta.analysis.characterization_check, get(i), cfg) for i in CHARACTERIZED]
    return matrix, independence, implications, characterization


def catalog_verify(ta, state, output, checks):
    matrix, independence, implications, characterization = output
    tol = state["cfg"].tolerance
    get = ta.indices.get_index
    replayable = []
    for report in matrix:
        observed = {v.axiom: v.status for v in report.verdicts}
        profile = dict(get(report.index_id).expected_profile)
        checks.expect(observed == profile, f"{report.index_id}: verdicts {observed} != expected {profile}")
        replayable += [(report.index_id, w) for w in report.witnesses()]
    checks.expect(independence.matches_expected, "independence table does not match the expected diagonal")
    for row in independence.rows:
        replayable += [(row.index_id, c.witness) for c in row.cells if c.witness is not None]
    for verdict in implications:
        checks.expect(
            verdict.status != "counterexample-to-lemma",
            f"{verdict.index_id}: {verdict.rule.name} gave a counterexample-to-lemma",
        )
    for verdict in characterization:
        want = "order-equivalent" if verdict.index_id in ORDER_EQUIVALENT else "premises-not-met"
        checks.expect(verdict.status == want, f"{verdict.index_id}: characterization {verdict.status} != {want}")
        replayable += [(verdict.index_id, w) for w in verdict.audit_report.witnesses()]
    for index_id, witness in replayable:
        checks.expect(
            ta.axioms.replay_witness(witness, get(index_id).evaluate, tol),
            f"{index_id}: {witness.axiom} witness does not replay",
        )


# -- deep_audit -------------------------------------------------------------


def deep_prepare(ta, seed, smoke, workdir):
    samples = SIZES["deep_audit"][smoke]
    for index_id in DEEP_INDICES:
        ta.indices.get_index(index_id)
    return {"cfg": ta.axioms.AuditConfig(samples=samples, master_seed=seed)}


def deep_pass(ta, state, rec):
    cfg = state["cfg"]
    return [rec.call(ta.axioms.audit, ta.indices.get_index(i), ta.indices.AXIOMS, cfg) for i in DEEP_INDICES]


def deep_verify(ta, state, output, checks):
    for report in output:
        for v in report.verdicts:
            checks.expect(v.status == "pass", f"{report.index_id}: {v.axiom} is {v.status}, expected pass")


# -- rank_concordance -------------------------------------------------------


def rank_prepare(ta, seed, smoke, workdir):
    pairs = SIZES["rank_concordance"][smoke]
    others = tuple(i for i in ta.indices.INDEX_IDS if i != "natural")
    for index_id in others:
        ta.indices.get_index(index_id)
    return {"cfg": ta.axioms.AuditConfig(samples=pairs, master_seed=seed), "others": others}


def rank_pass(ta, state, rec):
    cfg = state["cfg"]
    get = ta.indices.get_index
    return [rec.call(ta.analysis.ranking_concordance, get("natural"), get(i), cfg) for i in state["others"]]


def rank_verify(ta, state, output, checks):
    for stats in output:
        other = stats.index_b
        parts = stats.concordant + stats.discordant + stats.ties_a_only + stats.ties_b_only + stats.ties_both
        checks.expect(parts == stats.pairs, f"{other}: pair classes sum to {parts}, not {stats.pairs}")
        checks.expect(-1.0 <= stats.kendall_tau_b <= 1.0, f"{other}: tau_b {stats.kendall_tau_b} out of [-1, 1]")
        if other in ("koczkodaj", "saaty_ci", "cx3"):
            checks.expect(math.isclose(stats.kendall_tau_b, 1.0, abs_tol=1e-12), f"{other}: tau_b != 1")
        elif other == "cx2":
            checks.expect(math.isclose(stats.kendall_tau_b, -1.0, abs_tol=1e-12), f"{other}: tau_b != -1")
        elif other in ("cx1", "flat"):
            tied = stats.ties_b_only + stats.ties_both
            checks.expect(tied == stats.pairs, f"{other}: {stats.pairs - tied} pairs are not tied")
        elif other == "discretised_natural":
            checks.expect(stats.discordant == 0, f"{other}: {stats.discordant} discordant pairs")


# -- cli_oneshot ------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    bad: bool  # an input error: the README contract demands exit 2


def _triad(rng):
    return tuple(math.exp(rng.uniform(math.log(1 / 9), math.log(9))) for _ in range(3))


def cli_prepare(ta, seed, smoke, workdir):
    """Write the seeded matrix files and build the command mix.

    Per copy the mix holds two compute commands on JSON and two on CSV
    files, three single-axiom audits, one concordance and one each of the
    three bad inputs: an unknown index, a malformed file and
    ``audit natural --samples 0``.  Each command is issued twice, in a
    seeded order, so every ``--json`` document can be compared with its
    repeat.
    """
    copies = SIZES["cli_oneshot"][smoke]
    rng = random.Random(seed)
    ids = ta.indices.INDEX_IDS
    axioms = ta.indices.AXIOMS
    os.makedirs(workdir, exist_ok=True)
    commands = []
    for c in range(copies):
        for k in range(2):
            t12, t13, t23 = _triad(rng)
            path = os.path.join(workdir, f"triad-{c}-{k}.json")
            rows = [[1.0, t12, t13], [1.0 / t12, 1.0, t23], [1.0 / t13, 1.0 / t23, 1.0]]
            doc = {"matrix": rows, "labels": ["a", "b", "c"]} if k else {"matrix": rows}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            commands.append(Command(("compute", "--matrix", path, "--json"), False))
            path = os.path.join(workdir, f"triad-{c}-{k}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(",".join(repr(v) for v in _triad(rng)) + "\n")
            picked = ("--index", rng.choice(ids), "--index", rng.choice(ids)) if k else ()
            commands.append(Command(("compute", "--matrix", path, *picked, "--json"), False))
        for _ in range(3):
            argv = ("audit", rng.choice(ids), "--axioms", rng.choice(axioms), "--samples", str(CLI_AUDIT_SAMPLES))
            commands.append(Command((*argv, "--seed", str(seed), "--json"), False))
        a, b = rng.sample(ids, 2)
        argv = ("concordance", a, b, "--samples", str(CLI_CONCORDANCE_SAMPLES), "--seed", str(seed), "--json")
        commands.append(Command(argv, False))
        commands.append(Command(("audit", f"unknown_index_{rng.randrange(10**6)}", "--json"), True))
        path = os.path.join(workdir, f"malformed-{c}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"matrix": [[1.0, 2.0, ')
        commands.append(Command(("compute", "--matrix", path, "--json"), True))
        commands.append(Command(("audit", "natural", "--samples", "0"), True))
    stream = commands * 2
    rng.shuffle(stream)
    env = clean_env() | {"PYTHONPATH": ta.src}
    return {"stream": stream, "env": env, "cwd": os.path.dirname(ta.src)}


def clean_env() -> dict:
    """The environment without Python settings or PCM_SEED, which would
    change what is imported or which seed the CLI uses."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "PCM_SEED"}


def cli_pass(ta, state, rec):
    """Run the mix as one ``python -m triadaudit.cli`` subprocess per command."""
    env, cwd = state["env"], state["cwd"]

    def run(argv):
        return subprocess.run(
            [sys.executable, "-m", "triadaudit.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
            timeout=60,
        )

    return [(cmd, rec.command(run, cmd.argv)) for cmd in state["stream"]]


def cli_inprocess_pass(ta, state, rec):
    """Run the mix in process through ``cli.main``; used by the traced run."""

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = ta.cli.main(list(argv))
            except Exception as exc:  # the benchmark records a crash and goes on
                return subprocess.CompletedProcess(argv, None, out.getvalue(), f"Traceback: {exc!r}\n")
        return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())

    return [(cmd, rec.command(run, cmd.argv)) for cmd in state["stream"]]


def cli_verify(ta, state, output, checks):
    import jsonschema

    validator = jsonschema.Draft7Validator(ta.reporting.report_schema())
    first: dict[tuple[str, ...], str] = {}
    for cmd, proc in output:
        line = " ".join(cmd.argv)
        if "Traceback" in proc.stderr or proc.returncode is None:
            message = f"{line}: crashed with exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}"
            if cmd.bad:
                checks.error(message)
            else:
                checks.expect(False, message)
            continue
        if cmd.bad:
            one_line = proc.stderr.endswith("\n") and proc.stderr.count("\n") == 1
            checks.expect(
                proc.returncode == 2 and one_line and not proc.stdout,
                f"{line}: bad input gave exit {proc.returncode}, stderr {proc.stderr!r}",
            )
            continue
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit {proc.returncode}")
        if proc.stderr:
            problems.append(f"stderr {proc.stderr!r}")
        try:
            doc = json.loads(proc.stdout)
        except json.JSONDecodeError:
            problems.append("stdout is not one JSON document")
        else:
            problems += [f"schema: {e.message}" for e in validator.iter_errors(doc)]
            if not problems and doc["command"]["name"] != cmd.argv[0]:
                problems.append(f"command name {doc['command']['name']!r}")
        previous = first.setdefault(cmd.argv, proc.stdout)
        if previous != proc.stdout:
            problems.append("document differs from the repeat call")
        checks.expect(not problems, f"{line}: {'; '.join(problems)}")


WORKLOADS = {
    "catalog_sweep": (catalog_prepare, catalog_pass, catalog_verify),
    "deep_audit": (deep_prepare, deep_pass, deep_verify),
    "rank_concordance": (rank_prepare, rank_pass, rank_verify),
    "cli_oneshot": (cli_prepare, cli_pass, cli_verify),
}

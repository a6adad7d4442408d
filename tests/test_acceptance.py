"""Acceptance suite: the nine headline results, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance is pinned here; nothing is calibrated at run
time.
"""

import io
import json
from contextlib import redirect_stdout

import jsonschema

import reference_engine
from eigen_oracle import saaty_ci_oracle
from triadaudit import (
    AXIOMS,
    AuditConfig,
    Triad,
    audit_implications,
    characterization_check,
    get_index,
    independence_table,
    koczkodaj_index,
    natural_index,
    probe_key,
    probe_rng,
    ranking_concordance,
    replay_witness,
    saaty_ci,
    sample_triad,
    scale_dependent_index,
    scale_transform,
    transpose_triad,
)
from triadaudit.cli import main
from triadaudit.reporting import report_schema

DEFAULT = AuditConfig()  # samples=1000, master_seed=42


def _ok(line: str) -> None:
    print(f"PASS {line}")


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_criterion_1_exact_values():
    assert rel_close(scale_dependent_index(Triad(1, 3, 2)), 19.0 / 6.0)
    assert rel_close(scale_dependent_index(Triad(1, 6, 4)), 5.0)
    assert rel_close(get_index("cx5").evaluate(Triad(1, 8, 4)), 17.0 / 4.0)
    assert rel_close(get_index("cx6").evaluate(Triad(1, 8, 4)), 3.0 / 2.0)
    assert rel_close(get_index("cx6").evaluate(Triad(2, 32, 8)), 9.0 / 4.0)
    _ok("criterion 1: pinned index values (19/6, 5, 17/4, 3/2, 9/4) within 1e-12 relative")


def test_criterion_2_independence_table(default_matrix):
    table = independence_table(default_matrix)
    assert table.matches_expected
    designated = {"cx1": "URS", "cx2": "MSC", "cx3": "CON", "cx4": "IIP", "cx5": "HTA", "cx6": "SI"}
    for row in table.rows:
        statuses = {c.axiom: c.status for c in row.cells}
        assert statuses[designated[row.index_id]] == "fail"
        assert sum(v == "fail" for v in statuses.values()) == 1

    # The textbook counterexamples, checked by direct evaluation, independently of any sampling.
    t, collapsed = Triad(1, 8, 4), Triad(1, 2, 1)
    cx5 = get_index("cx5").evaluate
    assert abs(cx5(t) - 17.0 / 4.0) <= 1e-12 and abs(cx5(t) - cx5(collapsed)) > 1e-9
    cx6 = get_index("cx6").evaluate
    scaled = scale_transform(t, 2.0)
    assert scaled == Triad(2, 32, 8)
    assert abs(cx6(t) - 3.0 / 2.0) <= 1e-12 and abs(cx6(scaled) - 9.0 / 4.0) <= 1e-12
    _ok("criterion 2: independence table diagonal at samples=1000 seed=42, textbook counterexamples verified")


def test_criterion_3_scale_dependent_profile(default_matrix):
    descriptor = get_index("scale_dependent")
    report = default_matrix.report(descriptor, ("URS", "IPA", "MRP", "MSC", "CON", "IIP", "SI"))
    for axiom in ("URS", "IPA", "MRP", "MSC", "CON", "IIP"):
        assert report.verdict(axiom).status == "pass"
    si = report.verdict("SI")
    assert si.status == "fail"
    assert replay_witness(si.witness, descriptor.evaluate, DEFAULT.tolerance)
    _ok("criterion 3: scale_dependent passes URS,IPA,MRP,MSC,CON,IIP and fails SI with replayable witness")


def test_criterion_4_full_pass_profiles(default_matrix):
    for index_id in ("koczkodaj", "natural"):
        report = default_matrix.report(get_index(index_id), AXIOMS)
        assert report.all_pass, [v.axiom for v in report.verdicts if v.status == "fail"]
    _ok("criterion 4: koczkodaj and natural pass all nine axiom checks at default config")


def test_criterion_5_closed_form_identities():
    for i in range(10_000):
        t = sample_triad(probe_rng(probe_key(DEFAULT.master_seed, "identity"), i))
        assert rel_close(koczkodaj_index(t), 1.0 - 1.0 / natural_index(t), 1e-12)
    for i in range(1000):
        t = sample_triad(probe_rng(probe_key(DEFAULT.master_seed, "eigen"), i))
        assert abs(saaty_ci(t) - saaty_ci_oracle(t)) <= 1e-9
    _ok("criterion 5: koczkodaj = 1 - 1/natural (1e-12, 10^4 triads); saaty_ci matches eigen oracle (1e-9, 10^3)")


def test_criterion_6_characterization():
    cfg = AuditConfig(samples=10_000, master_seed=42)
    for other in ("koczkodaj", "saaty_ci"):
        stats = ranking_concordance(get_index("natural"), get_index(other), cfg)
        assert stats.discordant == 0
        assert stats.kendall_tau_b == 1.0
    verdict = characterization_check(get_index("koczkodaj"), cfg)
    assert verdict.status == "order-equivalent"
    assert verdict.concordance.ties_a_only == 0 and verdict.concordance.ties_b_only == 0
    _ok("criterion 6: natural~koczkodaj and natural~saaty_ci discordant=0 tau-b=1 on 10^4 pairs; "
        "koczkodaj characterization is order-equivalent")


def test_criterion_7_discretised_boundary(default_matrix):
    descriptor = get_index("discretised_natural")
    assert default_matrix.report(descriptor, ("SMSC",)).verdict("SMSC").status == "fail"
    assert default_matrix.report(descriptor, ("MSC",)).verdict("MSC").status == "pass"
    cfg = AuditConfig(samples=10_000, master_seed=42)
    stats = ranking_concordance(get_index("natural"), descriptor, cfg)
    assert stats.ties_b_only > 0 and stats.discordant == 0
    # Every one-sided tie comes from pairs clipped on both sides (natural > 2).
    clipped_pairs = 0
    for s, t in reference_engine.pairs(cfg):
        if natural_index(s) > 2.0 and natural_index(t) > 2.0:
            clipped_pairs += 1
            assert descriptor.evaluate(s) == descriptor.evaluate(t) == 2.0
    assert clipped_pairs > 0
    _ok("criterion 7: discretised_natural fails SMSC, passes MSC, ties against natural exactly on clipped pairs")


def test_criterion_8_implication_rules(default_matrix):
    verdicts = audit_implications(default_matrix)
    counterexamples = [v for v in verdicts if v.status == "counterexample-to-lemma"]
    assert counterexamples == []
    assert len(verdicts) == 3 * 12  # three rules over the whole catalog
    _ok("criterion 8: zero counterexamples to the three implication rules over the catalog at default config")


def test_criterion_9_byte_identical_reports():
    commands = (
        ["audit", "scale_dependent", "--axioms", "all", "--samples", "200", "--seed", "42", "--json"],
        ["independence", "--samples", "120", "--seed", "42", "--json"],
        ["concordance", "natural", "discretised_natural", "--samples", "500", "--seed", "42", "--json"],
    )
    schema = report_schema()
    for argv in commands:
        first, second = io.StringIO(), io.StringIO()
        with redirect_stdout(first):
            assert main(list(argv)) in (0, 1)
        with redirect_stdout(second):
            main(list(argv))
        assert first.getvalue().encode() == second.getvalue().encode()
        jsonschema.validate(json.loads(first.getvalue()), schema)
    _ok("criterion 9: audit/independence/concordance JSON reports are byte-identical across re-runs")

"""Independence table, implication rules, concordance, characterization."""

import dataclasses
import hashlib
import json
import math
import random
from collections import Counter

import pytest

import reference_engine
import triadaudit.axioms
from conftest import band_edge_values
from triadaudit import (
    AXIOMS,
    CATALOG,
    AuditConfig,
    IMPLICATION_RULES,
    ImplicationRule,
    IndexDescriptor,
    VerdictMatrix,
    audit,
    audit_implications,
    characterization_check,
    check_axiom,
    consistency_ratio,
    get_index,
    independence_table,
    natural_index,
    probe_key,
    ranking_concordance,
    replay_witness,
    verdict_matrix,
)
from triadaudit.analysis import INDEPENDENCE_AXIOMS, INDEPENDENCE_ROWS, _implication_verdict
from triadaudit.axioms import _sig_digits

FAST = AuditConfig(samples=200, master_seed=42)


@pytest.fixture(scope="module")
def fast_matrix(catalog_matrix):
    """The 12x9 verdict matrix at FAST, shared by this module's tests."""
    return catalog_matrix(FAST)


def _implication(matrix, rule_name, index_id):
    return next(
        v for v in audit_implications(matrix) if v.rule.name == rule_name and v.index_id == index_id
    )


class TestIndependenceTable:
    def test_diagonal_pattern(self, fast_matrix):
        table = independence_table(fast_matrix)
        assert table.matches_expected
        for row, designated in zip(table.rows, INDEPENDENCE_AXIOMS):
            statuses = {c.axiom: c.status for c in row.cells}
            assert statuses[designated] == "fail"
            assert all(statuses[a] == "pass" for a in INDEPENDENCE_AXIOMS if a != designated)

    def test_each_row_expects_exactly_one_fail(self, fast_matrix):
        table = independence_table(fast_matrix)
        for row in table.rows:
            assert sum(c.expected == "fail" for c in row.cells) == 1

    def test_catalog_profiles_state_the_positional_diagonal(self):
        # independence_table expects cx_i to fail INDEPENDENCE_AXIOMS[i] by position;
        # the catalog's expected profiles state the same claim per index.
        assert len(INDEPENDENCE_ROWS) == len(INDEPENDENCE_AXIOMS)
        for row_id, designated in zip(INDEPENDENCE_ROWS, INDEPENDENCE_AXIOMS):
            profile = get_index(row_id).expected_profile
            assert [a for a in INDEPENDENCE_AXIOMS if profile[a] == "fail"] == [designated], row_id

    def test_row_order(self, fast_matrix):
        table = independence_table(fast_matrix)
        assert tuple(r.index_id for r in table.rows) == INDEPENDENCE_ROWS

    def test_cx5_witness_carries_known_values(self, fast_matrix):
        table = independence_table(fast_matrix)
        row = next(r for r in table.rows if r.index_id == "cx5")
        cell = next(c for c in row.cells if c.axiom == "HTA")
        # Probe 1, shrunk: (1, 1, 2) vs its collapsed form (1, 1/2, 1): (1/2 + 2) * (2 - 1) vs (1 + 1) * (2 - 1).
        assert dataclasses.astuple(cell.witness.triads["input"]) == (1.0, 1.0, 2.0)
        assert dataclasses.astuple(cell.witness.triads["collapsed"]) == (1.0, 0.5, 1.0)
        assert abs(cell.witness.observed["input"] - 2.5) <= 1e-12
        assert abs(cell.witness.observed["collapsed"] - 2.0) <= 1e-12

    def test_cx6_witness_is_the_pinned_scaling_pair(self, fast_matrix):
        table = independence_table(fast_matrix)
        row = next(r for r in table.rows if r.index_id == "cx6")
        cell = next(c for c in row.cells if c.axiom == "SI")
        # Probe 1, shrunk: (8, 1/5, 1/2) scaled by k = 1/10.
        assert dataclasses.astuple(cell.witness.triads["input"]) == (8.0, 0.2, 0.5)
        assert cell.witness.params["k"] == 0.1
        # |8 - 0.4| + |1/8 - 2.5| vs |0.8 - 0.04| + |1.25 - 25|.
        assert abs(cell.witness.observed["input"] - 9.975) <= 1e-12 * 9.975
        assert abs(cell.witness.observed["scaled"] - 24.51) <= 1e-12 * 24.51

    def test_pattern_survives_single_sample_runs(self):
        # The seeded probes alone keep these cells red with one probe at every
        # seed tried: probe 1 fails, and its witness replays with short entries.
        table = independence_table(AuditConfig(samples=1, master_seed=42))
        by_id = {r.index_id: {c.axiom: c.status for c in r.cells} for r in table.rows}
        assert by_id["cx5"]["HTA"] == "fail"
        assert by_id["cx6"]["SI"] == "fail"
        cells = [(get_index(i), a) for i, a in (("cx4", "IIP"), ("cx5", "HTA"), ("cx6", "SI"))]
        cells.append((get_index("scale_dependent"), "SI"))
        for seed in range(200):
            for descriptor, axiom in cells:
                verdict = check_axiom(descriptor, axiom, AuditConfig(samples=1, master_seed=seed))
                where = (seed, descriptor.id, axiom)
                assert (verdict.status, verdict.samples_used) == ("fail", 1), where
                assert replay_witness(verdict.witness, descriptor.evaluate), where
                assert all(_sig_digits(e) <= 2 for e in dataclasses.astuple(verdict.witness.triads["input"])), where


class TestImplications:
    def test_rule_names(self):
        assert [r.name for r in IMPLICATION_RULES] == [
            "IIP+HTA+SI=>IPA",
            "URS+MSC+IIP+HTA+SI=>MRP",
            "SMSC+CON+HTA+SI=>URS",
        ]

    def test_no_counterexamples_over_catalog(self, fast_matrix):
        verdicts = audit_implications(fast_matrix)
        assert all(v.status == "consistent-with-lemma" for v in verdicts)

    def test_a_matrix_is_audited_row_by_row(self):
        # Any rows, not only the catalog's: each row's reports, in row order.
        natural, cx4 = get_index("natural"), get_index("cx4")
        verdicts = audit_implications(verdict_matrix([natural, cx4], AXIOMS, AuditConfig(samples=20)))
        expected = [(i, r) for i in ("natural", "cx4") for r in IMPLICATION_RULES]
        assert [(v.index_id, v.rule) for v in verdicts] == expected

    def test_flat_is_vacuous_for_strict_monotonicity_rule(self, fast_matrix):
        verdict = _implication(fast_matrix, "SMSC+CON+HTA+SI=>URS", "flat")
        assert verdict.status == "consistent-with-lemma"
        assert verdict.vacuous
        assert verdict.premise_status["SMSC"] == "fail"
        assert verdict.conclusion_status == "fail"

    def test_koczkodaj_satisfies_permutation_rule_non_vacuously(self, fast_matrix):
        verdict = _implication(fast_matrix, "IIP+HTA+SI=>IPA", "koczkodaj")
        assert verdict.status == "consistent-with-lemma"
        assert not verdict.vacuous
        assert verdict.conclusion_status == "pass"

    def test_natural_satisfies_power_map_rule(self, fast_matrix):
        verdict = _implication(fast_matrix, "URS+MSC+IIP+HTA+SI=>MRP", "natural")
        assert verdict.status == "consistent-with-lemma"
        assert not verdict.vacuous

    def test_fabricated_counterexample_is_reported(self):
        # An index that passes IIP, HTA and SI but not IPA cannot exist; feed
        # the auditor a dishonest surrogate to prove the verdict can fire.
        profile = {a: "pass" for a in AXIOMS}
        cheat = IndexDescriptor(
            id="cheat",
            label="permutation-sensitive but transpose-blind",
            evaluate=lambda t: max(t.t12, 1.0 / t.t12),
            expected_profile=profile,
        )
        rule = ImplicationRule(premises=("IIP",), conclusion="IPA")
        verdict = _implication_verdict(rule, audit(cheat, ("IIP", "IPA"), FAST))
        assert verdict.status == "counterexample-to-lemma"
        assert verdict.witness is not None


class TestConcordance:
    @pytest.mark.parametrize("tol", [AuditConfig.tolerance])
    def test_ties_follow_the_engine_equality_rule(self, tol):
        # ranking_concordance spells the tie rule inline; on the one pair drawn
        # at samples=1, each side's tie must be axioms._close of its two values,
        # closeness within the band ``tol``.
        cfg = AuditConfig(samples=1)
        ((s, t),) = reference_engine.pairs(cfg)

        def scripted(at_s, at_t):
            return IndexDescriptor(
                id="scripted",
                label="scripted values on the drawn pair",
                evaluate=lambda triad: at_s if triad == s else at_t,
                expected_profile={a: "pass" for a in AXIOMS},
            )

        untied = scripted(1.0, 2.0)
        values = band_edge_values()
        for x in values:
            for y in values:
                tie = triadaudit.axioms._close(x, y)
                assert tie == math.isclose(x, y, rel_tol=tol, abs_tol=tol), (x, y)
                a_side = ranking_concordance(scripted(x, y), untied, cfg)
                b_side = ranking_concordance(untied, scripted(x, y), cfg)
                assert (a_side.ties_a_only, b_side.ties_b_only) == (tie, tie), (x, y)

    def test_monotone_transform_gives_perfect_agreement(self):
        stats = ranking_concordance(get_index("natural"), get_index("koczkodaj"), AuditConfig(samples=2000))
        assert stats.discordant == 0
        assert stats.ties_a_only == 0 and stats.ties_b_only == 0
        assert stats.kendall_tau_b == 1.0

    def test_strictly_increasing_function_of_natural(self):
        profile = {a: "pass" for a in AXIOMS}
        cubed = IndexDescriptor(
            id="cubed",
            label="cubed natural index",
            evaluate=lambda t: natural_index(t) ** 3,
            expected_profile=profile,
        )
        stats = ranking_concordance(get_index("natural"), cubed, AuditConfig(samples=2000))
        assert stats.discordant == 0
        assert stats.kendall_tau_b == 1.0

    @pytest.mark.parametrize("other", [d.id for d in CATALOG])
    def test_swap_symmetry(self, other):
        cfg = AuditConfig(samples=1500)
        ab = ranking_concordance(get_index("natural"), get_index(other), cfg)
        ba = ranking_concordance(get_index(other), get_index("natural"), cfg)
        assert (ab.concordant, ab.discordant) == (ba.concordant, ba.discordant)
        assert ab.ties_a_only == ba.ties_b_only
        assert ab.ties_b_only == ba.ties_a_only
        assert ab.ties_both == ba.ties_both
        assert ab.kendall_tau_b == ba.kendall_tau_b

    def test_catalog_concordances_are_pinned(self):
        # Counts, tau-b and the first discordant witness of natural against
        # every other catalog index, as one digest.
        natural = get_index("natural")
        docs = []
        for d in CATALOG:
            if d.id != "natural":
                stats = ranking_concordance(natural, d, AuditConfig(samples=2000))
                witness = stats.discordant_witness
                docs.append([stats.to_dict(), witness.to_dict() if witness else None])
        digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
        assert digest == "9dfb16d1bb1f64636ced729a38d6349d858fdaee2912d5193c4c10f21d6e818e"

    def test_discretised_ties_only_on_the_clipped_side(self):
        cfg = AuditConfig(samples=3000)
        stats = ranking_concordance(get_index("natural"), get_index("discretised_natural"), cfg)
        assert stats.discordant == 0
        assert stats.ties_a_only == 0
        assert stats.ties_b_only > 0

    def test_flat_index_is_all_ties(self):
        stats = ranking_concordance(get_index("natural"), get_index("flat"), AuditConfig(samples=500))
        assert stats.concordant == 0 and stats.discordant == 0
        assert stats.ties_b_only + stats.ties_both == stats.pairs
        assert stats.kendall_tau_b == 0.0  # undefined tau pinned to 0

    def test_scale_dependent_disagrees_with_witness(self):
        stats = ranking_concordance(get_index("natural"), get_index("scale_dependent"), AuditConfig(samples=3000))
        assert stats.discordant > 0
        w = stats.discordant_witness
        assert w is not None
        # Replay the stored pair: strict opposite orders.
        s, t = w.triads["s"], w.triads["t"]
        da = natural_index(s) - natural_index(t)
        db = get_index("scale_dependent").evaluate(s) - get_index("scale_dependent").evaluate(t)
        assert da * db < 0

    def test_counts_sum_to_pairs(self):
        stats = ranking_concordance(get_index("natural"), get_index("saaty_ci"), AuditConfig(samples=700))
        total = stats.concordant + stats.discordant + stats.ties_a_only + stats.ties_b_only + stats.ties_both
        assert total == stats.pairs == 700

    def test_counts_match_manual_recount_of_the_pair_stream(self):
        # The reference engine recounts the pair stream of natural against every catalog index.
        natural = get_index("natural")
        for cfg in (AuditConfig(samples=200), AuditConfig(samples=200, master_seed=7)):
            for d in CATALOG:
                stats = ranking_concordance(natural, d, cfg)
                counts = (stats.concordant, stats.discordant, stats.ties_a_only, stats.ties_b_only, stats.ties_both)
                assert counts == reference_engine.concordance(natural.evaluate, d.evaluate, cfg), (cfg, d.id)
                assert stats == ranking_concordance(natural, d, cfg)


class TestCharacterization:
    def test_koczkodaj_is_order_equivalent(self):
        verdict = characterization_check(get_index("koczkodaj"), AuditConfig(samples=2000))
        assert verdict.premises_met
        assert verdict.status == "order-equivalent"
        assert verdict.concordance.discordant == 0

    def test_discretised_fails_premises(self, fast_matrix):
        verdict = characterization_check(get_index("discretised_natural"), fast_matrix)
        assert not verdict.premises_met
        assert verdict.status == "premises-not-met"
        assert verdict.concordance is None
        assert verdict.audit_report.verdict("SMSC").status == "fail"

    def test_cx4_fails_premises_on_transpose(self, fast_matrix):
        verdict = characterization_check(get_index("cx4"), fast_matrix)
        assert verdict.status == "premises-not-met"
        assert verdict.audit_report.verdict("IIP").status == "fail"

    def test_dishonest_rescaling_of_ranking_is_detected(self):
        # Passing the four axioms but ranking differently is impossible for a
        # genuine index; a clipped surrogate that fakes its audit would still
        # be caught by the concordance stage via one-sided ties.
        profile = {a: "pass" for a in AXIOMS}
        clipped = IndexDescriptor(
            id="clipped",
            label="natural clipped at 4",
            evaluate=lambda t: min(natural_index(t), 4.0),
            expected_profile=profile,
        )
        stats = ranking_concordance(clipped, get_index("natural"), AuditConfig(samples=3000))
        assert stats.ties_a_only > 0


def test_tau_b_counts_match_scipy_convention():
    # Cross-check the tie-adjusted correlation against an independent
    # implementation on the same classified counts.
    stats = ranking_concordance(get_index("natural"), get_index("discretised_natural"), AuditConfig(samples=2000))
    n0 = stats.pairs
    n1 = stats.ties_a_only + stats.ties_both
    n2 = stats.ties_b_only + stats.ties_both
    expected = (stats.concordant - stats.discordant) / math.sqrt((n0 - n1) * (n0 - n2))
    assert math.isclose(stats.kendall_tau_b, expected, rel_tol=1e-15)


class TestVerdictMatrix:
    # The matrices whose digests test_axioms.py pins; the config path sweeps
    # the same cells again, drawing each axiom's probes once per sweep: 707
    # draws over its 23 axiom columns, where drawing them again for every cell
    # makes 1601.  A probe is drawn when the block-0 loop yields it, and the
    # draws are counted per family key: the view draws no axiom probe, only
    # the 37 concordance pairs of cx3's characterization, which both paths
    # draw.  An MSC or SMSC probe whose first base try is rejected replays
    # that probe through probe_rng, so each replay must be of a probe the
    # loop drew.
    @pytest.mark.parametrize("seed", [3, 7])
    def test_matrix_view_equals_config_path(self, catalog_matrix, monkeypatch, seed):
        cfg = AuditConfig(samples=37, master_seed=seed)
        matrix = catalog_matrix(cfg)
        families = {probe_key(seed, tag): tag for tag in (*AXIOMS, "pair")}
        draws, replays = [], []
        block0, probe_rng = triadaudit.axioms._block0, triadaudit.axioms.probe_rng

        def counting_block0(key, probes, width):
            for i, first in zip(probes, block0(key, probes, width)):
                draws.append((key, i))
                yield first

        monkeypatch.setattr(triadaudit.axioms, "_block0", counting_block0)
        monkeypatch.setattr(triadaudit.axioms, "probe_rng", lambda *args: replays.append(args) or probe_rng(*args))

        def cx4_rows(source):
            """The cx4 row of a verdict matrix, or cx4 audited at a config."""
            cx4 = get_index("cx4")
            if isinstance(source, VerdictMatrix):
                return VerdictMatrix(source.config, ((cx4, source.report(cx4, AXIOMS)),))
            return verdict_matrix([cx4], AXIOMS, source)

        def results(source):
            return (
                independence_table(source),
                audit_implications(cx4_rows(source)),
                tuple(characterization_check(get_index(i), source) for i in ("cx3", "cx4")),
            )

        viewed = results(matrix)
        assert Counter(families[key] for key, _ in draws) == {"pair": 37} and replays == []
        draws.clear()
        audited = results(cfg)
        counts = Counter(families[key] for key, _ in draws)
        assert counts.pop("pair") == 37 and sum(counts.values()) == 707
        assert set(replays) <= set(draws)
        table, _, characterizations = viewed
        assert table.to_dict() == audited[0].to_dict()
        assert characterizations[0].status == "order-equivalent"
        # Dataclass equality compares every witness too.
        assert viewed == audited

    @pytest.mark.parametrize("seed", [1, 5, 11])
    def test_rows_equal_per_index_audits(self, seed):
        cfg = AuditConfig(samples=25, master_seed=seed)
        rng = random.Random(seed)
        subset = rng.sample(CATALOG, 6)
        natural, cx4 = get_index("natural"), get_index("cx4")
        impostor = IndexDescriptor("natural", "consistency ratio", consistency_ratio, natural.expected_profile)
        cases = [
            (subset, AXIOMS),
            ((cx4, natural, cx4), AXIOMS),
            ((natural, impostor, cx4), AXIOMS),
            (CATALOG, tuple(rng.sample(AXIOMS, 4))),
        ]
        for descriptors, axioms in cases:
            expected = tuple((d, audit(d, axioms, cfg)) for d in descriptors)
            # Dataclass equality compares every witness too.
            assert verdict_matrix(descriptors, axioms, cfg).rows == expected
            assert verdict_matrix((d for d in descriptors), axioms, cfg).rows == expected

    def test_user_descriptor_with_a_catalog_id_gets_its_own_row(self):
        natural = get_index("natural")
        impostor = IndexDescriptor(
            id="natural",
            label="unsymmetrised consistency ratio",
            evaluate=consistency_ratio,
            expected_profile=natural.expected_profile,
        )
        matrix = verdict_matrix([natural, impostor], ("IIP",), FAST)
        assert matrix.report(natural, ("IIP",)).verdict("IIP").status == "pass"
        assert matrix.report(impostor, ("IIP",)).verdict("IIP").status == "fail"

    def test_missing_cell_raises_lookup_error(self, fast_matrix):
        natural = get_index("natural")
        impostor = IndexDescriptor("natural", "copy", lambda t: natural_index(t), natural.expected_profile)
        with pytest.raises(LookupError, match="not a row"):
            characterization_check(impostor, fast_matrix)
        with pytest.raises(LookupError, match="not a row"):
            independence_table(VerdictMatrix(FAST, ()))
        only_iip = VerdictMatrix(FAST, ((natural, fast_matrix.report(natural, ("IIP",))),))
        with pytest.raises(LookupError, match="HTA. was not part of the audit of .natural"):
            characterization_check(natural, only_iip)
        with pytest.raises(LookupError):
            audit_implications(only_iip)

    @pytest.mark.parametrize("axioms", [("NOPE",), (), ("urs",)])
    def test_a_bad_axiom_set_raises_as_audit_does(self, axioms):
        # The matrix's report is audit's, so it must not pass vacuously on
        # axioms that audit rejects.
        cx1, cfg = get_index("cx1"), AuditConfig(samples=20)
        matrix = verdict_matrix((cx1,), AXIOMS, cfg)
        with pytest.raises(Exception) as by_audit:
            audit(cx1, axioms, cfg)
        with pytest.raises(Exception) as by_matrix:
            matrix.report(cx1, axioms)
        assert by_audit.type in (ValueError, triadaudit.axioms.UnknownAxiomError)
        assert by_matrix.type is by_audit.type

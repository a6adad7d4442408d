"""Falsification engine: samplers, checkers, witnesses, determinism."""

import hashlib
import json
import math
import random

import numpy as np
import pytest

from triadaudit import (
    AXIOMS,
    CATALOG,
    INDEX_IDS,
    AuditConfig,
    IndexDescriptor,
    Triad,
    UnknownAxiomError,
    audit,
    check_axiom,
    consistency_ratio,
    get_index,
    natural_index,
    probe_rng,
    replay_witness,
    sample_consistent_triad,
    sample_triad,
    verdict_matrix,
)
from triadaudit.axioms import _derive_seed

FAST = AuditConfig(samples=150, master_seed=42)
RANGE = (1.0 / 9.0, 9.0)


class TestSamplers:
    def test_sample_triad_deterministic(self):
        a = sample_triad(probe_rng(42, "t", 0), RANGE)
        b = sample_triad(probe_rng(42, "t", 0), RANGE)
        assert a == b

    def test_sample_triad_range_containment(self):
        lo, hi = RANGE
        for i in range(10_000):
            t = sample_triad(probe_rng(5, "range", i), RANGE)
            assert all(lo * (1 - 1e-12) <= e <= hi * (1 + 1e-12) for e in t.entries())

    def test_ratio_above_one_roughly_half_the_time(self):
        above = sum(
            consistency_ratio(sample_triad(probe_rng(11, "sym", i), RANGE)) > 1.0 for i in range(10_000)
        )
        assert abs(above / 10_000 - 0.5) < 0.05

    def test_consistent_sampler(self):
        for i in range(200):
            t = sample_consistent_triad(probe_rng(42, "c", i), RANGE)
            assert abs(natural_index(t) - 1.0) <= 1e-12
        a = sample_consistent_triad(probe_rng(9, "c", 3), RANGE)
        b = sample_consistent_triad(probe_rng(9, "c", 3), RANGE)
        assert a == b

    def test_distinct_probes_differ(self):
        assert sample_triad(probe_rng(42, "t", 0), RANGE) != sample_triad(probe_rng(42, "t", 1), RANGE)


class TestConfig:
    def test_defaults(self):
        cfg = AuditConfig()
        assert cfg.samples == 1000
        assert cfg.entry_range == (1.0 / 9.0, 9.0)
        assert 1.0 in cfg.b_grid and 1.0 in cfg.delta_grid

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"samples": 0},
            {"entry_range": (0.0, 9.0)},
            {"entry_range": (9.0, 1.0)},
            {"tolerance": 0.0},
            {"k_grid": ()},
            {"entry_range": (0.999, 1.001)},
            {"samples": 2.5},
            {"samples": "3"},
            {"samples": True},
            {"master_seed": 1.5},
            {"master_seed": True},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            AuditConfig(**kwargs)

    def test_integral_fields_are_stored_as_int(self):
        cfg = AuditConfig(samples=np.int64(5), master_seed=np.int32(-7))
        assert type(cfg.samples) is int and type(cfg.master_seed) is int
        assert cfg == AuditConfig(samples=5, master_seed=-7)

    # MRP raises a sampled triad to max(b_grid) = 3, so at entry_range (1/R, R)
    # its consistency ratio reaches R^-9: float64 holds it up to R = 10^34.25.
    @pytest.mark.parametrize("entry_range", [(1e-35, 1e35), (1e-50, 1e50), (1e-100, 1e100)])
    def test_ranges_beyond_float64_are_rejected(self, entry_range):
        with pytest.raises(ValueError, match="entry_range"):
            AuditConfig(entry_range=entry_range)

    def test_range_just_inside_the_float64_bound_runs(self):
        matrix = verdict_matrix(CATALOG, AXIOMS, AuditConfig(samples=20, entry_range=(1e-34, 1e34)))
        assert [len(report.verdicts) for _, report in matrix.rows] == [9] * 12


class TestCheckAxiom:
    def test_unknown_axiom(self):
        with pytest.raises(UnknownAxiomError, match="URS"):
            check_axiom(get_index("natural"), "XYZ", FAST)

    def test_koczkodaj_scale_invariance_passes(self):
        verdict = check_axiom(get_index("koczkodaj"), "SI", FAST)
        assert verdict.status == "pass"
        assert verdict.witness is None
        assert verdict.samples_used == FAST.samples

    def test_scale_dependent_fails_si_with_pinned_witness(self):
        verdict = check_axiom(get_index("scale_dependent"), "SI", FAST)
        assert verdict.status == "fail"
        w = verdict.witness
        assert w.triads["input"] == Triad(1, 3, 2)
        assert w.params["k"] == 2.0
        assert abs(w.observed["input"] - 19.0 / 6.0) <= 1e-12
        assert abs(w.observed["scaled"] - 175.0 / 24.0) <= 1e-12
        assert verdict.samples_used == 0  # found before sampling

    def test_cx4_fails_iip_with_pinned_witness(self):
        verdict = check_axiom(get_index("cx4"), "IIP", FAST)
        assert verdict.status == "fail"
        w = verdict.witness
        assert w.triads["input"] == Triad(1, 3, 2)
        assert abs(w.observed["input"] - 1.5) <= 1e-12
        assert abs(w.observed["transposed"] - 2.0 / 3.0) <= 1e-12

    def test_flat_fails_urs_via_inconsistent_match(self):
        verdict = check_axiom(get_index("flat"), "URS", FAST)
        assert verdict.status == "fail"
        assert verdict.witness.params["kind"] == "inconsistent_match"
        assert verdict.witness.observed["reference"] == 0.0

    def test_cx3_fails_continuity(self):
        verdict = check_axiom(get_index("cx3"), "CON", FAST)
        assert verdict.status == "fail"
        # The jump has order 1: the change never decays along the ladder.
        assert verdict.witness.observed["change_last"] > 1.0

    def test_cx2_fails_msc_below_consistent(self):
        verdict = check_axiom(get_index("cx2"), "MSC", FAST)
        assert verdict.status == "fail"
        assert verdict.witness.params["violation"] == "below_consistent"

    def test_discretised_fails_smsc_with_tie(self):
        verdict = check_axiom(get_index("discretised_natural"), "SMSC", FAST)
        assert verdict.status == "fail"
        assert verdict.witness.params["violation"] == "tie"

    def test_discretised_passes_msc(self):
        assert check_axiom(get_index("discretised_natural"), "MSC", FAST).status == "pass"

    def test_canonical_ratio_functions_pass_ipa(self):
        # Any function of the canonical ratio is permutation-blind by construction.
        profile = {a: "pass" for a in AXIOMS}
        squared = IndexDescriptor(
            id="canonical_square",
            label="squared canonical ratio",
            evaluate=lambda t: natural_index(t) ** 2,
            expected_profile=profile,
        )
        assert check_axiom(squared, "IPA", FAST).status == "pass"


class TestWitnessReplay:
    def test_all_catalog_failures_replay(self, default_matrix):
        for descriptor, report in default_matrix.rows:
            for verdict in report.verdicts:
                if verdict.status == "fail":
                    assert replay_witness(verdict.witness, descriptor.evaluate, default_matrix.config.tolerance), (
                        descriptor.id,
                        verdict.axiom,
                    )

    def test_replay_discriminates(self):
        # A witness against scale_dependent does not incriminate natural.
        verdict = check_axiom(get_index("scale_dependent"), "SI", FAST)
        assert replay_witness(verdict.witness, get_index("scale_dependent").evaluate)
        assert not replay_witness(verdict.witness, get_index("natural").evaluate)

    def test_witness_to_dict_is_self_contained(self):
        verdict = check_axiom(get_index("cx6"), "SI", FAST)
        payload = verdict.witness.to_dict()
        assert payload["triads"]["input"] == {"t12": 1.0, "t13": 8.0, "t23": 4.0}
        assert payload["params"]["k"] == 2.0
        assert payload["relation"]


class TestAudit:
    def test_empty_axiom_set_rejected(self):
        with pytest.raises(ValueError):
            audit(get_index("natural"), (), FAST)

    def test_unknown_axiom_listed(self):
        with pytest.raises(UnknownAxiomError, match="SMSC"):
            audit(get_index("natural"), ("URS", "NOPE"), FAST)

    def test_verdicts_in_canonical_order(self):
        report = audit(get_index("natural"), ("SI", "URS", "MSC"), FAST)
        assert [v.axiom for v in report.verdicts] == ["URS", "MSC", "SI"]

    def test_natural_passes_everything(self, default_matrix):
        report = default_matrix.report(get_index("natural"), AXIOMS)
        assert report.all_pass and report.matches_expected

    def test_scale_dependent_profile(self, default_matrix):
        report = default_matrix.report(get_index("scale_dependent"), AXIOMS)
        statuses = {v.axiom: v.status for v in report.verdicts}
        assert statuses == {
            "URS": "pass",
            "IPA": "pass",
            "MRP": "pass",
            "MSC": "pass",
            "CON": "pass",
            "IIP": "pass",
            "HTA": "fail",
            "SI": "fail",
            "SMSC": "pass",
        }

    def test_determinism_of_reports(self):
        a = audit(get_index("cx5"), AXIOMS, FAST)
        b = audit(get_index("cx5"), AXIOMS, FAST)
        assert a == b

    def test_failures_persist_as_samples_grow(self):
        # Per-probe seeding makes (pass -> fail) the only possible flip.
        small = audit(get_index("scale_dependent"), ("SI", "HTA"), AuditConfig(samples=1, master_seed=42))
        large = audit(get_index("scale_dependent"), ("SI", "HTA"), AuditConfig(samples=400, master_seed=42))
        assert small.verdict("SI").status == "fail"
        assert large.verdict("SI").status == "fail"
        assert small.verdict("SI").witness == large.verdict("SI").witness

    def test_pass_stable_across_sample_growth(self):
        for n in (50, 200):
            assert audit(get_index("natural"), ("URS",), AuditConfig(samples=n, master_seed=42)).all_pass


def test_probe_rng_is_order_free():
    # Probe i's stream is independent of how many probes ran before it.
    values = [sample_triad(probe_rng(3, "x", i), RANGE) for i in range(5)]
    assert values[3] == sample_triad(probe_rng(3, "x", 3), RANGE)
    assert len({tuple(v.entries()) for v in values}) == 5


@pytest.mark.parametrize("seed", [0, 42, -7, 2**70])
@pytest.mark.parametrize("index", [0, 1, 10**6])
def test_probe_rng_matches_a_seeded_random(seed, index):
    # probe_rng seeds through the C-level Random.seed; it must build exactly
    # the generator that random.Random(seed) builds.
    rng = probe_rng(seed, "MSC", index)
    reference = random.Random(_derive_seed(seed, "MSC", index))
    assert rng.getstate() == reference.getstate()
    assert [rng.random() for _ in range(5)] == [reference.random() for _ in range(5)]
    assert rng.gauss(0.0, 1.0) == reference.gauss(0.0, 1.0)
    assert probe_rng(seed, "MSC", index) is not probe_rng(seed, "MSC", index)


def test_each_probe_evaluates_each_triad_once():
    # One engine row per probe: a grid probe evaluates its input once plus one
    # transform per grid value, a ladder its base once plus one triad per rung.
    calls = []

    def evaluate(t):
        calls.append(t)
        return natural_index(t)

    counting = IndexDescriptor(
        id="counting_natural",
        label="natural, counting its evaluations",
        evaluate=evaluate,
        expected_profile={a: "pass" for a in AXIOMS},
    )
    cfg = AuditConfig(samples=50)
    counts = {}
    for axiom in AXIOMS:
        calls.clear()
        assert check_axiom(counting, axiom, cfg).status == "pass"
        counts[axiom] = len(calls)
    assert counts == {
        "URS": 200,
        "IPA": 350,
        "MRP": 400,
        "MSC": 200,
        "CON": 900,
        "IIP": 100,
        "HTA": 100,
        "SI": 350,
        "SMSC": 200,
    }


def test_band_is_relative():
    # Two large, relatively-close values are equal under the band.
    big = IndexDescriptor(
        id="big_tie",
        label="natural scaled by 1e9",
        evaluate=lambda t: 1e9 * natural_index(t),
        expected_profile={a: "pass" for a in AXIOMS},
    )
    assert check_axiom(big, "SI", FAST).status == "pass"


def test_checkers_cover_all_nine_axioms(default_matrix):
    report = default_matrix.report(get_index("koczkodaj"), AXIOMS)
    assert [v.axiom for v in report.verdicts] == list(AXIOMS)
    assert math.isclose(sum(v.samples_used for v in report.verdicts), 9 * default_matrix.config.samples)


def test_saaty_ci_urs_is_not_failed_by_rounding():
    # At this seed a triad with x - 1 = -1e-4 scores 5.5e-10: inside the
    # equality band of the consistent value 0, but not equal to it.
    verdict = check_axiom(get_index("saaty_ci"), "URS", AuditConfig(samples=5000, master_seed=3))
    assert verdict.status == "pass"


# The fail cells of the 12x9 verdict matrix at the default config, with their
# samples_used (0 = pinned probe); every other cell passes after 1000 probes.
DEFAULT_FAILS = {
    "natural": {},
    "scale_dependent": {"HTA": 1, "SI": 0},
    "koczkodaj": {},
    "saaty_ci": {},
    "cx1": {"URS": 1, "SMSC": 1},
    "cx2": {"MRP": 1, "MSC": 1, "SMSC": 1},
    "cx3": {"CON": 1},
    "cx4": {"IPA": 1, "MRP": 2, "IIP": 0},
    "cx5": {"IPA": 1, "HTA": 0},
    "cx6": {"IPA": 1, "SI": 0},
    "flat": {"URS": 1, "SMSC": 1},
    "discretised_natural": {"SMSC": 2},
}


# sha256 of the canonical JSON of every verdict of the 12 indices, witness
# included, per (samples, master_seed).  A change that moves one witness float
# changes the digest; diff the documents against the previous release to see which.
VERDICT_DIGESTS = {
    (1000, 42): "bc02a3128b36de5f714c6b11c8e2b5eb7ce8c6a4850c15ee4c008dc2d66faf5b",
    (37, 3): "133ae16f42c4c8f0128e5e6bf5543d1ac2d68185b330d36335cc1bfa12d55482",
    (37, 7): "02b91bd24ae87e9e9ce67684a919ae26ebbcc93b8ef73b6ca2ceb6fc07686825",
}


def _verdict_digest(reports) -> str:
    doc = {
        r.index_id: [{**v.to_dict(), "witness": v.witness and v.witness.to_dict()} for v in r.verdicts]
        for r in reports
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def test_default_verdict_matrix_is_pinned(default_matrix):
    cfg = default_matrix.config
    assert cfg == AuditConfig()
    assert tuple(DEFAULT_FAILS) == INDEX_IDS
    reports = [report for _, report in default_matrix.rows]
    for report, fails in zip(reports, DEFAULT_FAILS.values()):
        observed = {v.axiom: (v.status, v.samples_used) for v in report.verdicts}
        pinned = {a: ("fail", fails[a]) if a in fails else ("pass", cfg.samples) for a in AXIOMS}
        assert observed == pinned, report.index_id
        assert report.matches_expected, report.index_id
    assert _verdict_digest(reports) == VERDICT_DIGESTS[(cfg.samples, cfg.master_seed)]


@pytest.mark.parametrize("seed", [3, 7])
def test_small_budget_witnesses_are_pinned(catalog_matrix, seed):
    cfg = AuditConfig(samples=37, master_seed=seed)
    reports = [report for _, report in catalog_matrix(cfg).rows]
    assert _verdict_digest(reports) == VERDICT_DIGESTS[(cfg.samples, cfg.master_seed)]

"""Falsification engine: samplers, checkers, witnesses, determinism."""

import copy
import dataclasses
import hashlib
import json
import math
import pickle
import struct
from itertools import permutations

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
    probe_key,
    probe_rng,
    replay_witness,
    sample_consistent_triad,
    sample_triad,
    verdict_matrix,
)
from triadaudit import analysis, axioms, cli
from triadaudit.axioms import (
    B_GRID,
    CONTINUITY_LADDER,
    DELTA_GRID,
    K_GRID,
    _CON_JUMP_FRACTION,
    _DECODE,
    _MIN_LOG_ENTRY,
    _SPECS,
    AxiomVerdict,
    Witness,
    _band,
    _block0,
    _shrink,
)
from triadaudit.core import (
    _with_entry,
    permute_triad,
    power_transform,
    scale_transform,
    single_entry_perturb,
    transpose_triad,
)

FAST = AuditConfig(samples=150, master_seed=42)
RANGE = (1.0 / 9.0, 9.0)


class TestSamplers:
    def test_sample_triad_deterministic(self):
        a = sample_triad(probe_rng(probe_key(42, "t"), 0), RANGE)
        b = sample_triad(probe_rng(probe_key(42, "t"), 0), RANGE)
        assert a == b

    def test_sample_triad_range_containment(self):
        lo, hi = RANGE
        key = probe_key(5, "range")
        for i in range(10_000):
            t = sample_triad(probe_rng(key, i), RANGE)
            assert all(lo * (1 - 1e-12) <= e <= hi * (1 + 1e-12) for e in t.entries())

    def test_ratio_above_one_roughly_half_the_time(self):
        key = probe_key(11, "sym")
        above = sum(consistency_ratio(sample_triad(probe_rng(key, i), RANGE)) > 1.0 for i in range(10_000))
        assert abs(above / 10_000 - 0.5) < 0.05

    def test_consistent_sampler(self):
        key = probe_key(42, "c")
        for i in range(200):
            t = sample_consistent_triad(probe_rng(key, i), RANGE)
            assert abs(natural_index(t) - 1.0) <= 1e-12
        a = sample_consistent_triad(probe_rng(probe_key(9, "c"), 3), RANGE)
        b = sample_consistent_triad(probe_rng(probe_key(9, "c"), 3), RANGE)
        assert a == b

    def test_distinct_probes_differ(self):
        key = probe_key(42, "t")
        assert sample_triad(probe_rng(key, 0), RANGE) != sample_triad(probe_rng(key, 1), RANGE)


class TestConfig:
    def test_defaults(self):
        cfg = AuditConfig()
        assert cfg.samples == 1000
        assert cfg.entry_range == (1.0 / 9.0, 9.0)
        assert 1.0 in B_GRID and 1.0 in DELTA_GRID

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"samples": 0},
            {"entry_range": (0.0, 9.0)},
            {"entry_range": (9.0, 1.0)},
            {"tolerance": 0.0},
            {"entry_range": (0.999, 1.001)},
            {"samples": 2.5},
            {"samples": "3"},
            {"samples": True},
            {"master_seed": 1.5},
            {"master_seed": True},
            {"entry_range": (0.5, 2.0, 3.0)},
            {"entry_range": (0.5,)},
            {"entry_range": 9.0},
            {"entry_range": "ab"},
            {"entry_range": (True, 9.0)},
            {"entry_range": ("0.5", 2.0)},
            {"entry_range": (0.5, math.inf)},
            {"entry_range": (math.nan, 2.0)},
            {"tolerance": True},
            {"tolerance": "1e-9"},
            {"tolerance": None},
            {"tolerance": math.inf},
            {"tolerance": math.nan},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            AuditConfig(**kwargs)

    def test_real_fields_are_stored_as_floats(self):
        cfg = AuditConfig(entry_range=[1, np.float32(9.0)], tolerance=np.float64(1e-9))
        assert cfg.entry_range == (1.0, 9.0) and all(type(v) is float for v in cfg.entry_range)
        assert type(cfg.tolerance) is float
        assert cfg.as_dict()["entry_range"] == [1.0, 9.0]
        # A list range is stored as a tuple, so the frozen config stays hashable.
        assert hash(AuditConfig(entry_range=[0.5, 2.0])) == hash(AuditConfig(entry_range=(0.5, 2.0)))

    def test_probe_design_is_not_configurable(self):
        # The grids are constants of the engine; reports still echo them under "config".
        for name in ("b_grid", "delta_grid", "k_grid", "continuity_ladder"):
            with pytest.raises(TypeError, match=name):
                AuditConfig(**{name: (2.0,)})
        assert AuditConfig().as_dict() == {
            "samples": 1000,
            "master_seed": 42,
            "entry_range": [1.0 / 9.0, 9.0],
            "tolerance": 1e-9,
            "b_grid": [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0],
            "delta_grid": [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0],
            "k_grid": [0.1, 1.0 / 3.0, 0.5, 2.0, 3.0, 10.0],
            "continuity_ladder": [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8],
        }

    def test_integral_fields_are_stored_as_int(self):
        cfg = AuditConfig(samples=np.int64(5), master_seed=np.int32(-7))
        assert type(cfg.samples) is int and type(cfg.master_seed) is int
        assert cfg == AuditConfig(samples=5, master_seed=-7)

    def test_samples_are_capped_at_the_probe_streams(self):
        # A family has 2**64 probe streams, one per probe index.  The configs are
        # only built: a passing cell at samples = 2**64 would never finish.
        assert AuditConfig(samples=2**64).samples == 2**64
        for samples in (2**64 + 1, 10**23):
            with pytest.raises(ValueError, match=r"samples must be <= 2\*\*64"):
                AuditConfig(samples=samples)

    # MRP raises a sampled triad to max(B_GRID) = 3, so at entry_range (1/R, R)
    # its consistency ratio reaches R^-9: float64 holds it up to R = 10^34.25.
    @pytest.mark.parametrize("entry_range", [(1e-35, 1e35), (1e-50, 1e50), (1e-100, 1e100)])
    def test_ranges_beyond_float64_are_rejected(self, entry_range):
        with pytest.raises(ValueError, match="entry_range"):
            AuditConfig(entry_range=entry_range)

    def test_range_just_inside_the_float64_bound_runs(self):
        matrix = verdict_matrix(CATALOG, AXIOMS, AuditConfig(samples=20, entry_range=(1e-34, 1e34)))
        assert [len(report.verdicts) for _, report in matrix.rows] == [9] * 12


class TestProbeDomains:
    """Each axiom's probe domain, read off the constants and a few hundred probes, without an audit."""

    CFG = AuditConfig(samples=300, master_seed=5)

    def rows(self, axiom):
        return [row for _, row in _SPECS[axiom].probes(self.CFG)]

    @pytest.mark.parametrize("axiom, grid", [("MRP", B_GRID), ("SI", K_GRID)])
    def test_power_and_scale_grids_are_positive_on_both_sides_of_one(self, axiom, grid):
        assert all(v > 0.0 for v in grid)
        assert min(grid) < 1.0 < max(grid)
        assert {row[1:] for row in self.rows(axiom)} == {grid}

    def test_continuity_ladder_is_positive_and_strictly_decreasing(self):
        assert all(eps > 0.0 for eps in CONTINUITY_LADDER)
        assert all(a > b for a, b in zip(CONTINUITY_LADDER, CONTINUITY_LADDER[1:]))
        assert {row[2] for row in self.rows("CON")} == {CONTINUITY_LADDER}

    def test_hta_probes_have_unit_t12(self):
        rows = self.rows("HTA")
        assert len(rows) == self.CFG.samples
        assert all(t.t12 == 1.0 for (t,) in rows)

    def test_ipa_rows_carry_the_five_non_identity_bijections(self):
        # The identity is skipped: its permuted triad is the input itself.
        for _, *perms in self.rows("IPA"):
            assert sorted(perms) == [p for p in permutations(range(3)) if p != (0, 1, 2)]

    @pytest.mark.parametrize("axiom", ["MSC", "SMSC"])
    def test_every_rung_lifts_the_consistency_ratio_further(self, axiom):
        rows = self.rows(axiom)
        assert len(rows) == self.CFG.samples
        for base, position, delta_prev, *deltas in rows:
            assert delta_prev == 1.0 and consistency_ratio(base) == pytest.approx(1.0)
            ratios = [consistency_ratio(single_entry_perturb(base, position, d)) for d in deltas]
            assert 1.0 < ratios[0] and all(a < b for a, b in zip(ratios, ratios[1:])), (base, position, deltas)


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
        # Probe i draws from stream i of its axiom's key alone, so a larger
        # budget repeats the smaller one's probes first: (pass -> fail) is the
        # only possible flip, and the first failing probe (and its shrunk witness) stays.
        small = audit(get_index("scale_dependent"), ("SI", "HTA"), AuditConfig(samples=1, master_seed=42))
        large = audit(get_index("scale_dependent"), ("SI", "HTA"), AuditConfig(samples=400, master_seed=42))
        assert small.verdict("SI").status == "fail"
        assert large.verdict("SI").status == "fail"
        assert small.verdict("SI").witness == large.verdict("SI").witness

    def test_pass_stable_across_sample_growth(self):
        for n in (50, 200):
            assert audit(get_index("natural"), ("URS",), AuditConfig(samples=n, master_seed=42)).all_pass


def _untouchable():
    def evaluate(t):
        raise AssertionError("evaluated before the axiom set was checked")

    return IndexDescriptor("untouchable", "raises on evaluation", evaluate, {a: "pass" for a in AXIOMS})


_AUDIT_ENTRY_POINTS = {
    "audit": audit,
    "verdict_matrix": lambda index, axioms, cfg: verdict_matrix([index], axioms, cfg),
}


class TestAxiomSetContract:
    # audit and verdict_matrix check the axiom set alike, before any evaluation.
    @pytest.mark.parametrize("entry", _AUDIT_ENTRY_POINTS)
    @pytest.mark.parametrize("axioms", [(), [], set(), iter(())])
    def test_empty_axiom_set_raises_value_error(self, entry, axioms):
        with pytest.raises(ValueError, match="non-empty set of axioms"):
            _AUDIT_ENTRY_POINTS[entry](_untouchable(), axioms, FAST)

    @pytest.mark.parametrize("entry", _AUDIT_ENTRY_POINTS)
    def test_unknown_axiom_raises_unknown_axiom_error(self, entry):
        message = "unknown axioms ['NOPE', 'urs']; valid axioms: URS, IPA, MRP, MSC, CON, IIP, HTA, SI, SMSC"
        with pytest.raises(UnknownAxiomError) as info:
            _AUDIT_ENTRY_POINTS[entry](_untouchable(), ("SI", "urs", "NOPE"), FAST)
        assert str(info.value) == message

    def test_check_axiom_names_its_unknown_axiom(self):
        with pytest.raises(UnknownAxiomError) as info:
            check_axiom(_untouchable(), "NOPE", FAST)
        assert str(info.value) == "unknown axiom 'NOPE'; valid axioms: URS, IPA, MRP, MSC, CON, IIP, HTA, SI, SMSC"

    def test_no_indices_make_no_rows(self):
        assert verdict_matrix([], AXIOMS, FAST).rows == ()
        assert verdict_matrix(iter(()), ("SI",), FAST).rows == ()
        with pytest.raises(ValueError):
            verdict_matrix([], (), FAST)
        with pytest.raises(UnknownAxiomError):
            verdict_matrix([], ("NOPE",), FAST)


# The probe stream: probe i of a family draws from the keyed blake2b blocks of
# (i, 0), (i, 1), ... alone.  The known-answer vector pins it on every Python
# version; its ten draws cross from block 0 into block 1.
KNOWN_ANSWERS = {
    (42, "MSC", 0): (
        "d88571e6f46a6fe2",
        [
            0.8526905312425287,
            0.4996003165997279,
            0.6039845003714273,
            0.5872322252340257,
            0.28344764422037394,
            0.10723610955063101,
            0.8215248080568097,
            0.5167009381006664,
            0.728045374976785,
            0.3595942406137075,
        ],
        "13",
    ),
    (-7, "pair", 10**6): (
        "07b3f5af76327fad",
        [
            0.44577787947865943,
            0.5151987562804787,
            0.908375395313905,
            0.7549228406274238,
            0.21181421739978068,
            0.6238075794720542,
            0.7886846741121761,
            0.2709572567923655,
            0.42062491599162355,
            0.11832497944009945,
        ],
        "12",
    ),
}


@pytest.mark.parametrize("seed, tag, i", KNOWN_ANSWERS)
def test_probe_stream_known_answer(seed, tag, i):
    key_hex, draws, choice = KNOWN_ANSWERS[seed, tag, i]
    key = probe_key(seed, tag)
    assert key.hex() == key_hex
    draw = probe_rng(key, i)
    assert [draw() for _ in range(10)] == draws
    positions = ("12", "13", "23")
    assert positions[int(len(positions) * draw())] == choice


@pytest.mark.parametrize("seed", [0, 42, -7, 2**70])
@pytest.mark.parametrize("index", [0, 1, 10**6])
def test_probe_rng_matches_a_seeded_random(seed, index):
    # The reference seeded stream is built here from hashlib and struct: the
    # key is 8 bytes of the sha256 of (seed, tag); draw m of probe i is word
    # m % 8 of the keyed blake2b of (i, m // 8), as (word >> 11) / 2**53.
    key = probe_key(seed, "MSC")
    assert key == hashlib.sha256(f"triadaudit:{seed}:MSC".encode("utf-8")).digest()[:8]
    blocks = [hashlib.blake2b(struct.pack("<2Q", index, j), key=key, digest_size=64).digest() for j in range(3)]
    floats = [(w >> 11) / 2**53 for block in blocks for w in struct.unpack("<8Q", block)]
    draw = probe_rng(key, index)
    assert [draw() for _ in range(20)] == floats[:20]
    assert "abc"[int(len("abc") * draw())] == "abc"[int(3 * floats[20])]
    assert probe_rng(key, index) is not probe_rng(key, index)


def test_probe_rng_is_order_free():
    # Probe i's stream does not depend on the probes drawn before it.
    key = probe_key(3, "x")
    values = [sample_triad(probe_rng(key, i), RANGE) for i in range(5)]
    assert values[3] == sample_triad(probe_rng(key, 3), RANGE)
    assert [sample_triad(probe_rng(key, i), RANGE) for i in (4, 2, 0, 3, 1)] == [values[i] for i in (4, 2, 0, 3, 1)]
    assert len({tuple(v.entries()) for v in values}) == 5
    assert probe_rng(key, 3) is not probe_rng(key, 3)


@pytest.mark.parametrize("axiom", AXIOMS)
def test_a_larger_budget_replays_the_smaller_one_first(axiom):
    small = list(_SPECS[axiom].probes(AuditConfig(samples=40, master_seed=9)))
    large = list(_SPECS[axiom].probes(AuditConfig(samples=100, master_seed=9)))
    assert large[: len(small)] == small and len(large) > len(small)


def test_probe_stream_draws_are_uniform_on_the_unit_interval():
    key = probe_key(2026, "uniform")
    positions = ("12", "13", "23")
    hits = dict.fromkeys(positions, 0)
    for i in range(30_000):
        draw = probe_rng(key, i)
        draws = [draw() for _ in range(9)]
        assert all(0.0 <= u < 1.0 for u in draws)
        hits[positions[int(len(positions) * draw())]] += 1
    assert all(abs(n / 30_000 - 1 / 3) <= 0.02 for n in hits.values()), hits


@pytest.mark.parametrize("seed", [0, 42, -7, 2**70])
@pytest.mark.parametrize("tag", ["URS", "MSC", "pair"])
def test_block_zero_loop_reads_the_probe_streams(seed, tag):
    # The probe families read block 0 through the keyed loop; its draws are
    # the first calls of the draw function, which KNOWN_ANSWERS pins, at
    # every width the loop decodes.
    key = probe_key(seed, tag)
    probes = [0, 1, 10**6, 2**64 - 1]
    for width in _DECODE:
        expected = []
        for i in probes:
            draw = probe_rng(key, i)
            expected.append(tuple(draw() for _ in range(width)))
        assert list(_block0(key, probes, width)) == expected


def test_probe_rng_checks_the_index_at_the_call():
    # The draw function hashes nothing until its first call, so a bad index
    # is rejected when the function is made.
    key = probe_key(42, "MSC")
    for i in (-1, 2**64):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            probe_rng(key, i)
    with pytest.raises(TypeError):
        probe_rng(key, 1.5)
    digest = hashlib.blake2b(struct.pack("<2Q", 2**64 - 1, 0), key=key, digest_size=64).digest()
    assert probe_rng(key, 2**64 - 1)() == (struct.unpack_from("<Q", digest)[0] >> 11) / 2**53


def test_results_survive_pickle_and_copy():
    # Triad stores its entries in slots and has no __dict__; it, a fail
    # witness holding triads and the verdict around it round-trip unchanged.
    t = Triad(1.0, 3.0, 2.0)
    assert not hasattr(t, "__dict__")
    verdict = check_axiom(get_index("cx4"), "IIP", AuditConfig(samples=20))
    assert verdict.status == "fail" and isinstance(verdict, AxiomVerdict)
    witness = verdict.witness
    assert isinstance(witness, Witness) and all(isinstance(v, Triad) for v in witness.triads.values())
    for value in (t, witness, verdict):
        copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(value), copy.deepcopy(value)]
        for other in copies:
            assert other == value and type(other) is type(value)
            assert repr(other) == repr(value)


def test_tracer_patch_points_are_module_attributes():
    # perfbench's traced run wraps these names; each must stay a module
    # attribute.  The engine calls probe_rng only to make the draw function
    # that redraws an MSC/SMSC base whose first try is rejected; the other
    # probe families and the pairs read block 0 through the keyed block-0
    # loop, and the engine calls the sample_* functions not at all.
    for module, name in [
        (axioms, "probe_rng"),
        (analysis, "probe_rng"),
        (axioms, "sample_triad"),
        (analysis, "sample_triad"),
        (axioms, "sample_consistent_triad"),
        (axioms, "check_axiom"),
        (axioms, "audit"),
        (analysis, "audit"),
        (cli, "main"),
        (cli, "dumps_canonical"),
        (cli, "build_report"),
        (cli, "audit"),
        (cli, "get_index"),
        (cli, "independence_table"),
        (cli, "ranking_concordance"),
    ]:
        assert callable(getattr(module, name)), (module.__name__, name)
    assert analysis.probe_rng is axioms.probe_rng and analysis.sample_triad is axioms.sample_triad
    # cli imports analysis only in the commands that run it, and reads these
    # two names from it on demand; the tracer makes one wrapper per distinct
    # function, so they must be analysis's own objects.
    assert cli.independence_table is analysis.independence_table
    assert cli.ranking_concordance is analysis.ranking_concordance


# Evaluations of natural's passing cells at samples=50, one entry per axiom.
EVALS_PER_PASSING_CELL = {
    "URS": 198,
    "IPA": 300,
    "MRP": 350,
    "MSC": 200,
    "CON": 300,
    "IIP": 100,
    "HTA": 100,
    "SI": 350,
    "SMSC": 200,
}


def _counting_natural(calls):
    def evaluate(t):
        calls.append(t)
        return natural_index(t)

    return IndexDescriptor(
        id="counting_natural",
        label="natural, counting its evaluations",
        evaluate=evaluate,
        expected_profile={a: "pass" for a in AXIOMS},
    )


def test_each_probe_evaluates_each_triad_once():
    # One engine row per probe: a grid probe evaluates its input once plus one
    # transform per grid value (MRP skips b = 1, IPA the identity), a ladder its base once plus
    # one triad per rung.  A passing CON row settles on its first and last
    # rungs.  URS's probe 0 has one row: its consistent triad is the reference.
    calls = []
    counting = _counting_natural(calls)
    cfg = AuditConfig(samples=50)
    counts = {}
    for axiom in AXIOMS:
        calls.clear()
        assert check_axiom(counting, axiom, cfg).status == "pass"
        counts[axiom] = len(calls)
    assert counts == EVALS_PER_PASSING_CELL


def test_a_matrix_row_evaluates_like_its_own_check():
    # Among 11 catalog indices that close early or late, the counting row sees
    # each probe's row once, as it does alone.
    calls = []
    counting = _counting_natural(calls)
    indices = (*CATALOG[1:7], counting, *CATALOG[7:])
    assert len(indices) == 12
    cfg = AuditConfig(samples=50)
    counts = {}
    for axiom in AXIOMS:
        calls.clear()
        matrix = verdict_matrix(indices, (axiom,), cfg)
        assert matrix.report(counting, (axiom,)).all_pass
        counts[axiom] = len(calls)
    assert counts == EVALS_PER_PASSING_CELL


def test_a_nan_valued_index_still_fails_ipa():
    # Skipping the identity permutation cannot hide a NaN value: NaN equals no
    # value, so the first non-identity permutation of the first probe fails.
    nan_valued = IndexDescriptor(
        id="nan_valued",
        label="NaN on every triad",
        evaluate=lambda t: math.nan,
        expected_profile={a: "fail" for a in AXIOMS},
    )
    verdict = check_axiom(nan_valued, "IPA", FAST)
    assert (verdict.status, verdict.samples_used) == ("fail", 1)
    assert verdict.witness.params == {"perm": (0, 2, 1)}
    assert replay_witness(verdict.witness, nan_valued.evaluate)


def _recording(evaluate, seen):
    return IndexDescriptor(
        id="recording",
        label="records every triad it evaluates",
        evaluate=lambda t: seen.append(t) or evaluate(t),
        expected_profile={a: "pass" for a in AXIOMS},
    )


def test_a_patched_triad_init_sees_every_build(monkeypatch):
    # perfbench counts triads by wrapping Triad.__init__: every triad that a
    # sweep or a concordance hands to an index must have passed through it.
    built = []
    init = Triad.__init__
    monkeypatch.setattr(Triad, "__init__", lambda self, *a, **kw: init(self, *a, **kw) or built.append(self))
    seen = []
    recording = _recording(natural_index, seen)
    cfg = AuditConfig(samples=20)
    for axiom in ("IPA", "MRP", "IIP", "HTA", "SI"):
        built.clear()
        seen.clear()
        assert check_axiom(recording, axiom, cfg).status == "pass"
        # A passing grid sweep builds exactly the triads it evaluates.
        assert [id(t) for t in built] == [id(t) for t in seen], axiom
    built.clear()
    seen.clear()
    verdict_matrix((recording, get_index("cx2")), AXIOMS, cfg)
    analysis.ranking_concordance(recording, get_index("koczkodaj"), cfg)
    ids = {id(t) for t in built}
    assert seen and all(id(t) in ids for t in seen)


# Engine rows rebuilt from the public samplers, reading each probe's draws
# in order through its draw function, a choice over n items taking item
# int(n * draw()): the reference for the probe families, which read block 0
# by position.
REFERENCE_CONFIGS = [AuditConfig(samples=200, entry_range=r) for r in [(1.0 / 9.0, 9.0), (0.5, 2.0), (1e-6, 1e6)]]
_GRIDS = {
    "IPA": tuple(p for p in permutations(range(3)) if p != (0, 1, 2)),
    "MRP": B_GRID,
    "IIP": (),
    "SI": K_GRID,
}


def _reference_base(draw, entry_range):
    """MSC/SMSC's base: consistent triads three draws at a time until every entry is off 1; and its tries."""
    tries = 1
    while True:
        base = sample_consistent_triad(draw, entry_range)
        if all(abs(math.log(e)) >= _MIN_LOG_ENTRY for e in base.entries()):
            return base, tries
        tries += 1


def _reference_rows(axiom, cfg):
    key, er, rows = probe_key(cfg.master_seed, axiom), cfg.entry_range, []
    positions = ("12", "13", "23")
    for i in range(cfg.samples):
        draw = probe_rng(key, i)
        if axiom in _GRIDS:
            rows.append((sample_triad(draw, er), *_GRIDS[axiom]))
        elif axiom == "HTA":
            # (1; a; b) takes a and b from the first two of three draws.
            t = sample_triad(draw, er)
            rows.append((Triad(1.0, t.t12, t.t13),))
        elif axiom == "URS":
            consistent, offender = sample_consistent_triad(draw, er), sample_triad(draw, er)
            if i == 0:
                reference = consistent
            else:
                rows.append((reference, consistent, "consistent_mismatch"))
            rows.append((reference, offender, "inconsistent_match"))
        elif axiom == "CON":
            bases = (sample_triad(draw, er), sample_consistent_triad(draw, er))
            position = positions[int(len(positions) * draw())]
            rows.extend((base, position, CONTINUITY_LADDER) for base in bases)
        else:
            base, _ = _reference_base(draw, er)
            position = positions[int(len(positions) * draw())]
            lifts = (base.entry(position) > 1.0) == (position == "13")
            side = [d for d in DELTA_GRID if d > 1.0] if lifts else [d for d in reversed(DELTA_GRID) if d < 1.0]
            rows.append((base, position, 1.0, *side))
    return rows


@pytest.mark.parametrize("cfg", REFERENCE_CONFIGS, ids=["ninths", "halves", "range_1e6"])
@pytest.mark.parametrize("axiom", AXIOMS)
def test_engine_rows_equal_the_public_sampler_rows(axiom, cfg):
    assert [row for _, row in _SPECS[axiom].probes(cfg)] == _reference_rows(axiom, cfg)


@pytest.mark.parametrize("cfg", REFERENCE_CONFIGS, ids=["ninths", "halves", "range_1e6"])
def test_concordance_pairs_equal_the_public_sampler_pairs(cfg):
    seen = []
    analysis.ranking_concordance(_recording(natural_index, seen), get_index("natural"), cfg)
    key, expected = probe_key(cfg.master_seed, "pair"), []
    for i in range(cfg.samples):
        draw = probe_rng(key, i)
        expected += [sample_triad(draw, cfg.entry_range), sample_triad(draw, cfg.entry_range)]
    assert seen == expected


def _entry_times(t, position, factor):
    """``t`` with the entry at ``position`` times ``factor``, other entries as they are."""
    return Triad(*(e * factor if p == position else e for p, e in zip(("12", "13", "23"), t.entries())))


def _reference_expansion(axiom, row):
    """The triads that one row compares, from the public transforms and the axioms' statements."""
    if axiom == "URS":
        # URS compares drawn triads only.
        return row
    if axiom in ("IPA", "SI"):
        t, *values = row
        transform = permute_triad if axiom == "IPA" else scale_transform
        return (t, [(v, transform(t, v)) for v in values])
    if axiom == "MRP":
        t, *bs = row
        return (t, [(b, power_transform(t, b)) for b in bs if b != 1.0])
    if axiom == "IIP":
        return (row[0], [(None, transpose_triad(row[0]))])
    if axiom == "HTA":
        # (1; a; b) against (1; a/b; 1).
        t = row[0]
        return (t, [(None, Triad(1.0, t.t13 / t.t23, 1.0))])
    if axiom == "CON":
        t, position, ladder = row
        first, last = (_entry_times(t, position, 1.0 + eps) for eps in (ladder[0], ladder[-1]))
        return (t, position, ladder, first, last)
    base, position, delta_prev, *deltas = row
    assert delta_prev == 1.0
    return (base, position, delta_prev, None, [(d, single_entry_perturb(base, position, d)) for d in deltas])


@pytest.mark.parametrize("cfg", REFERENCE_CONFIGS, ids=["ninths", "halves", "range_1e6"])
@pytest.mark.parametrize("axiom", AXIOMS)
def test_row_expansion_equals_the_public_transforms(axiom, cfg):
    rows = _reference_rows(axiom, cfg)[:50]
    assert [_SPECS[axiom].expand(*row) for row in rows] == [_reference_expansion(axiom, row) for row in rows]


@pytest.mark.parametrize("axiom", AXIOMS)
def test_a_matrix_sweep_builds_each_row_once(monkeypatch, axiom):
    # Each drawn row is expanded once for all the indices still open, so 12
    # passing copies of one index build the triads that one copy builds alone.
    built = []
    init = Triad.__init__
    monkeypatch.setattr(Triad, "__init__", lambda self, *a, **kw: init(self, *a, **kw) or built.append(1))
    calls = []
    counting = _counting_natural(calls)
    cfg = AuditConfig(samples=50)
    assert check_axiom(counting, axiom, cfg).status == "pass"
    alone = len(built)
    built.clear()
    calls.clear()
    matrix = verdict_matrix((counting,) * 12, (axiom,), cfg)
    assert all(report.all_pass for _, report in matrix.rows)
    assert len(built) == alone
    assert len(calls) == 12 * EVALS_PER_PASSING_CELL[axiom]


def test_a_pinned_msc_probe_reads_past_block_zero():
    # MSC probe 26 at seed 42 on (0.5, 2) rejects five bases with an entry
    # near 1: its position is draw 18, in block 2.
    cfg = REFERENCE_CONFIGS[1]
    _, tries = _reference_base(probe_rng(probe_key(cfg.master_seed, "MSC"), 26), cfg.entry_range)
    assert tries == 6
    assert [row for _, row in _SPECS["MSC"].probes(cfg)][26] == _reference_rows("MSC", cfg)[26]


def test_a_pinned_fail_is_never_evaluated_on_a_sampled_row():
    # cx4 fails IIP on its pinned row (1, 3, 2), whose entries do not shrink;
    # the IIP probes drawn for the other 11 indices never reach it.
    seen = []
    cx4 = get_index("cx4")
    recording = dataclasses.replace(cx4, evaluate=lambda t: seen.append(t) or cx4.evaluate(t))
    indices = tuple(recording if d.id == "cx4" else d for d in CATALOG)
    verdict = verdict_matrix(indices, ("IIP",), AuditConfig(samples=50)).report(recording, ("IIP",)).verdict("IIP")
    assert (verdict.status, verdict.samples_used) == ("fail", 0)
    pinned = Triad(1.0, 3.0, 2.0)
    assert seen == [pinned, transpose_triad(pinned)]


def _con_row_violation(evaluate, tol, *row):
    """CON's relation on one row, expanded as a sweep expands it."""
    return _SPECS["CON"].violation(evaluate, tol, *_SPECS["CON"].expand(*row))


def test_a_failing_con_row_evaluates_each_rung_once():
    # cx3's first failing CON row: the base, the first and last rungs, then the six middle rungs.
    cx3, cfg = get_index("cx3"), AuditConfig()
    row = next(row for _, row in _SPECS["CON"].probes(cfg) if _con_row_violation(cx3.evaluate, cfg.tolerance, *row))
    calls = []

    def evaluate(t):
        calls.append(t)
        return cx3.evaluate(t)

    assert _con_row_violation(evaluate, cfg.tolerance, *row) is not None
    assert len(calls) == len(set(calls)) == 9


def _full_ladder_con(evaluate, tol, input, position, ladder):
    """The CON relation with every rung evaluated before the row is decided."""
    base_value = evaluate(input)
    entry = input.entry(position)
    changes = [abs(evaluate(_with_entry(input, position, entry * (1.0 + eps))) - base_value) for eps in ladder]
    if changes[-1] <= max(_band(tol, base_value), _CON_JUMP_FRACTION * max(changes)):
        return None
    return Witness(
        axiom="CON",
        relation="index change does not vanish as the perturbation shrinks",
        triads={"input": input},
        params={"position": position, "ladder": tuple(ladder)},
        observed={
            "base": base_value,
            "change_first": changes[0],
            "change_last": changes[-1],
            "change_max": max(changes),
        },
    )


def _witness_doc(witness):
    # json text, so that NaN observations compare equal.
    return witness and json.dumps(witness.to_dict(), sort_keys=True)


CON_CONFIGS = [
    AuditConfig(),
    AuditConfig(tolerance=1e-3),
    AuditConfig(entry_range=(1e-6, 1e6)),
    AuditConfig(samples=300, master_seed=7),
]


@pytest.mark.parametrize("cfg", CON_CONFIGS, ids=["default", "tol_1e-3", "range_1e6", "seed_7"])
def test_con_pass_test_agrees_with_the_full_ladder(cfg):
    rows = [row for _, row in _SPECS["CON"].probes(cfg)]
    for descriptor in CATALOG:
        for row in rows:
            expected = _full_ladder_con(descriptor.evaluate, cfg.tolerance, *row)
            got = _con_row_violation(descriptor.evaluate, cfg.tolerance, *row)
            assert _witness_doc(got) == _witness_doc(expected), (descriptor.id, row)


NAN = float("nan")
# Index values on the eight CON rungs, finest last, and whether the row
# passes; the base is worth 0, so the band is the tolerance, 1e-9.
RUNG_VALUES = {
    "continuous": ([10.0**-k for k in range(1, 9)], True),
    # A NaN first change leaves only the band: the row passes iff the last change is within it.
    "nan_first_within_band": ([NAN, *(10.0**-k for k in range(4, 11))], True),
    "nan_first_above_band": ([NAN, *(10.0**-k for k in range(2, 9))], False),
    "nan_middle_then_vanishing": ([0.1, 0.01, NAN, *(10.0**-k for k in range(4, 9))], True),
    "nan_middle_step": ([1.0, 1.0, NAN, *[1.0] * 5], False),
    "nan_last": ([*(10.0**-k for k in range(1, 8)), NAN], False),
    "step_at_the_base": ([1.0] * 8, False),
    "step_between_rungs": ([1.0] * 4 + [0.0] * 4, True),
    # The first and last rungs do not prove the pass; the peak in the middle does.
    "middle_peak": ([1e-3, *[1.0] * 6, 5e-4], True),
}


@pytest.mark.parametrize("name", RUNG_VALUES)
def test_con_pass_test_agrees_with_the_full_ladder_on_nan_and_steps(name):
    values, passes = RUNG_VALUES[name]
    base, position = Triad(2.0, 3.0, 5.0), "13"
    rungs = {_with_entry(base, position, base.t13 * (1.0 + eps)): v for eps, v in zip(CONTINUITY_LADDER, values)}

    def evaluate(t):
        return rungs.get(t, 0.0)

    expected = _full_ladder_con(evaluate, 1e-9, base, position, CONTINUITY_LADDER)
    got = _con_row_violation(evaluate, 1e-9, base, position, CONTINUITY_LADDER)
    assert _witness_doc(got) == _witness_doc(expected)
    assert (got is None) == passes


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
    "discretised_natural": {"SMSC": 1},
}


# sha256 of the canonical JSON of every verdict of the 12 indices, witness
# included, per config.  A change that moves one witness float
# changes the digest; diff the documents against the previous release to see which.
VERDICT_DIGESTS = {
    AuditConfig(): "70f7481fbb62d7b45e940c334c527cb6f2f4facf68c29354d5a084c40b9bebb9",
    AuditConfig(samples=37, master_seed=3): "eb36ee49506c8dd00a0929c76be2814453ac7b97089d153c9d4da64b82160f85",
    AuditConfig(samples=37, master_seed=7): "73fa75250c33dc86ae346c4789c4187b733b5497852ad9f81b54ac0abecf9481",
    # A wide band: CON's pass test then holds by its band arm, not its jump arm.
    AuditConfig(samples=300, tolerance=1e-3): "316fb6926cca970a80be72d6bcb556166acb9309c3b3fa618e225b670e0384f3",
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
    assert _verdict_digest(reports) == VERDICT_DIGESTS[cfg]


@pytest.mark.parametrize("seed", [3, 7])
def test_small_budget_witnesses_are_pinned(catalog_matrix, seed):
    cfg = AuditConfig(samples=37, master_seed=seed)
    reports = [report for _, report in catalog_matrix(cfg).rows]
    assert _verdict_digest(reports) == VERDICT_DIGESTS[cfg]


def test_wide_band_verdicts_are_pinned(catalog_matrix):
    cfg = AuditConfig(samples=300, tolerance=1e-3)
    reports = [report for _, report in catalog_matrix(cfg).rows]
    assert _verdict_digest(reports) == VERDICT_DIGESTS[cfg]


@pytest.mark.parametrize(
    "cfg",
    [AuditConfig(samples=37, master_seed=3), AuditConfig(samples=37, master_seed=7), AuditConfig(samples=300, tolerance=1e-3)],
    ids=["37-3", "37-7", "300-wide-band"],
)
def test_per_index_audits_reproduce_the_pinned_digests(cfg):
    # catalog_matrix sweeps each axiom once for all 12 indices; audit checks one cell at a time.
    reports = [audit(descriptor, AXIOMS, cfg) for descriptor in CATALOG]
    assert _verdict_digest(reports) == VERDICT_DIGESTS[cfg]


def _sampled(t, lo, hi):
    return all(lo * (1 - 1e-12) <= e <= hi * (1 + 1e-12) for e in t.entries())


def _consistent(t, lo, hi):
    # Consistent triads come from three weights on (lo, hi): (w1/w2, w1/w3, w2/w3).
    spread = max(1.0, t.t12, t.t13) / min(1.0, t.t12, t.t13)
    return consistency_ratio(t) == pytest.approx(1.0, abs=1e-12) and spread <= hi / lo * (1 + 1e-12)


def _in_probe_domain(witness, lo, hi) -> bool:
    """The probe domain that each _SPECS row documents, for a witness's one-value row."""
    t, p = witness.triads, witness.params
    axiom = witness.axiom
    if axiom == "URS":
        offender = _consistent if p["kind"] == "consistent_mismatch" else _sampled
        return _consistent(t["reference"], lo, hi) and offender(t["offender"], lo, hi)
    if axiom in ("MSC", "SMSC"):
        base, position = t["consistent"], p["position"]
        lifts = (base.entry(position) > 1.0) == (position == "13")
        off_unit = all(abs(math.log(e)) >= _MIN_LOG_ENTRY for e in base.entries())
        return _consistent(base, lo, hi) and off_unit and lifts == (p["delta"] > 1.0)
    if axiom == "CON":
        return _sampled(t["input"], lo, hi) or _consistent(t["input"], lo, hi)
    if axiom == "HTA":
        return t["input"].t12 == 1.0 and _sampled(t["input"], lo, hi)
    return _sampled(t["input"], lo, hi)


def _significant_digits(x: float) -> int:
    """Significant digits of x written at %.15g: 0.042 has 2, 120 has 2, 1e+34 has 1."""
    return len(("%.15g" % x).split("e")[0].replace(".", "").strip("0"))


def _row_triads(witness):
    """The triads of the witness's row (spec.row), not the ones derived from them."""
    return [witness.triads[name] for name in _SPECS[witness.axiom].row if name in witness.triads]


def test_shrunk_default_witnesses_replay_inside_their_probe_domain(default_matrix):
    cfg = default_matrix.config
    witnesses = [(d, v.witness) for d, report in default_matrix.rows for v in report.verdicts if v.witness]
    assert len(witnesses) == sum(len(fails) for fails in DEFAULT_FAILS.values())
    for descriptor, witness in witnesses:
        where = (descriptor.id, witness.axiom)
        assert replay_witness(witness, descriptor.evaluate, cfg.tolerance), where
        assert _in_probe_domain(witness, *cfg.entry_range), where
        # Shrinking leaves every entry of a row triad with at most 2 significant digits.
        for t in _row_triads(witness):
            assert all(_significant_digits(e) <= 2 for e in t.entries()), (where, t)


@pytest.mark.parametrize("seed", [3, 7])
def test_shrunk_small_budget_witnesses_replay_inside_their_probe_domain(catalog_matrix, seed):
    cfg = AuditConfig(samples=37, master_seed=seed)
    for descriptor, report in catalog_matrix(cfg).rows:
        for witness in report.witnesses():
            assert replay_witness(witness, descriptor.evaluate, cfg.tolerance), (descriptor.id, witness.axiom)
            assert _in_probe_domain(witness, *cfg.entry_range), (descriptor.id, witness.axiom)


def test_shrinking_spends_at_most_its_replay_budget(monkeypatch):
    # A violation that never reproduces makes the shrinker try every candidate:
    # a consistent reference and a sampled offender whose entries have 17 digits.
    replays = []
    spec = dataclasses.replace(_SPECS["URS"], violation=lambda *row: replays.append(row))
    reference = Triad(0.7123456789012345, 0.7123456789012345 * 3.123456789012345, 3.123456789012345)
    offender = Triad(0.4123456789012345, 2.123456789012345, 5.123456789012345)
    witness = Witness(
        axiom="URS",
        relation="an inconsistent triad attains the consistent reference value",
        triads={"reference": reference, "offender": offender},
        params={"kind": "inconsistent_match"},
    )
    assert _shrink(spec, witness, natural_index, AuditConfig()) is witness
    assert 10 < len(replays) <= 64
    replays.clear()
    monkeypatch.setattr(axioms, "_SHRINK_REPLAYS", 5)
    assert _shrink(spec, witness, natural_index, AuditConfig()) is witness
    assert len(replays) == 5

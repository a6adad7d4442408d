"""Falsification engine: samplers, checkers, witnesses, determinism."""

import copy
import dataclasses
import fractions
import hashlib
import inspect
import json
import math
import pickle
import struct
import sys
from itertools import count, permutations, product

import numpy as np
import pytest

import reference_engine
from conftest import band_edge_values
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
    is_consistent,
    natural_index,
    probe_key,
    probe_rng,
    replay_witness,
    sample_consistent_triad,
    sample_triad,
    scale_transform,
    single_entry_perturb,
    transpose_triad,
    verdict_matrix,
)
from triadaudit import analysis, axioms, cli
from triadaudit.axioms import (
    B_GRID,
    CONTINUITY_LADDER,
    DELTA_GRID,
    K_GRID,
    _DECODE,
    _SPECS,
    AxiomVerdict,
    VerdictMatrix,
    Witness,
    _block0,
    _shrink,
)
from triadaudit.core import _close

FAST = AuditConfig(samples=150, master_seed=42)


class TestSamplers:
    def test_sample_triad_deterministic(self):
        a = sample_triad(probe_rng(probe_key(42, "t"), 0))
        b = sample_triad(probe_rng(probe_key(42, "t"), 0))
        assert a == b

    def test_sample_triad_range_containment(self):
        lo, hi = AuditConfig.entry_range
        key = probe_key(5, "range")
        for i in range(10_000):
            t = sample_triad(probe_rng(key, i))
            assert all(lo * (1 - 1e-12) <= e <= hi * (1 + 1e-12) for e in dataclasses.astuple(t))

    def test_ratio_above_one_roughly_half_the_time(self):
        key = probe_key(11, "sym")
        above = sum(consistency_ratio(sample_triad(probe_rng(key, i))) > 1.0 for i in range(10_000))
        assert abs(above / 10_000 - 0.5) < 0.05

    def test_consistent_sampler(self):
        key = probe_key(42, "c")
        for i in range(200):
            t = sample_consistent_triad(probe_rng(key, i))
            assert abs(natural_index(t) - 1.0) <= 1e-12
        a = sample_consistent_triad(probe_rng(probe_key(9, "c"), 3))
        b = sample_consistent_triad(probe_rng(probe_key(9, "c"), 3))
        assert a == b

    def test_distinct_probes_differ(self):
        key = probe_key(42, "t")
        assert sample_triad(probe_rng(key, 0)) != sample_triad(probe_rng(key, 1))

    @pytest.mark.parametrize("sampler", [sample_triad, sample_consistent_triad])
    def test_samplers_take_a_draw_function_alone(self, sampler):
        # The entry range is the probe design's, AuditConfig.entry_range: no caller passes one.
        assert list(inspect.signature(sampler).parameters) == ["draw"]
        with pytest.raises(TypeError):
            sampler(probe_rng(probe_key(42, "t"), 0), (0.0, 9.0))


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
        # The entry range and the equality band are constants of the probe
        # design: any value for them is an unexpected argument.
        name = next(iter(kwargs))
        with pytest.raises(TypeError if name in ("entry_range", "tolerance") else ValueError, match=name):
            AuditConfig(**kwargs)

    def test_real_fields_are_stored_as_floats(self):
        assert all(type(v) is float for v in AuditConfig.entry_range)
        assert type(AuditConfig.tolerance) is float
        assert AuditConfig().as_dict()["entry_range"] == [1.0 / 9.0, 9.0]
        # The range is a tuple, so the frozen config stays hashable.
        assert type(AuditConfig.entry_range) is tuple
        assert hash(AuditConfig(samples=5)) == hash(AuditConfig(samples=5))

    def test_probe_design_is_not_configurable(self):
        # The entry range, the equality band and the grids are constants of the
        # engine; reports still echo them under "config".
        assert [f.name for f in dataclasses.fields(AuditConfig)] == ["samples", "master_seed"]
        values = {"b_grid": (2.0,), "delta_grid": (2.0,), "k_grid": (2.0,), "continuity_ladder": (2.0,)}
        for name, value in {**values, "entry_range": (0.5, 2.0), "tolerance": 1e-3}.items():
            with pytest.raises(TypeError, match=name):
                AuditConfig(**{name: value})
        assert AuditConfig.entry_range == (1.0 / 9.0, 9.0) and AuditConfig.tolerance == 1e-9
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

    def test_entry_range_feeds_the_msc_redraw_and_keeps_every_probe_in_float64(self):
        lo, hi = (math.log(v) for v in AuditConfig.entry_range)
        # MSC/SMSC redraw consistent triads until every entry is at least
        # OFF_UNIT (0.05) from 1 in log space.  At log(hi/lo) = 4 * OFF_UNIT
        # about 1/8 of the draws qualify; a narrower range starves that redraw.
        assert hi - lo >= 4 * reference_engine.OFF_UNIT
        # The largest |log| of an entry, a product of two entries or a consistency
        # ratio that a probe hands to an index: sampled and consistent triads,
        # MRP's powers b, MSC/SMSC's powers delta of one consistent entry, SI's
        # factors k and CON's 1 + eps.  Below log(float max), each such value and
        # its reciprocal are finite floats.
        sampled = max(2 * abs(lo), 2 * abs(hi), hi - 2 * lo, 2 * hi - lo)
        extent = max(
            max(B_GRID) * sampled,
            max(DELTA_GRID) * (hi - lo),
            sampled + 2 * max(abs(math.log(k)) for k in K_GRID),
            sampled + math.log1p(max(CONTINUITY_LADDER)),
        )
        assert extent < math.log(sys.float_info.max)


class TestProbeDomains:
    """Each axiom's probe domain, read off the constants and a few hundred probes, without an audit."""

    CFG = AuditConfig(samples=300, master_seed=5)

    @pytest.mark.parametrize("axiom, grid", [("MRP", tuple(b for b in B_GRID if b != 1.0)), ("SI", K_GRID)])
    def test_power_and_scale_grids_are_positive_on_both_sides_of_one(self, axiom, grid):
        assert all(v > 0.0 for v in grid)
        assert min(grid) < 1.0 < max(grid)
        assert {row[1:] for row in _reference_rows(axiom, self.CFG)} == {grid}

    def test_continuity_ladder_is_positive_and_strictly_decreasing(self):
        assert all(eps > 0.0 for eps in CONTINUITY_LADDER)
        assert all(a > b for a, b in zip(CONTINUITY_LADDER, CONTINUITY_LADDER[1:]))
        assert {row[2] for row in _reference_rows("CON", self.CFG)} == {CONTINUITY_LADDER}

    def test_hta_probes_have_unit_t12(self):
        rows = _reference_rows("HTA", self.CFG)
        assert len(rows) == self.CFG.samples
        assert all(t.t12 == 1.0 for (t,) in rows)

    def test_ipa_rows_carry_the_five_non_identity_bijections(self):
        # The identity is skipped: its permuted triad is the input itself.
        for _, *perms in _reference_rows("IPA", self.CFG):
            assert sorted(perms) == [p for p in permutations(range(3)) if p != (0, 1, 2)]

    @pytest.mark.parametrize("axiom", ["MSC", "SMSC"])
    def test_every_rung_lifts_the_consistency_ratio_further(self, axiom):
        rows = _reference_rows(axiom, self.CFG)
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
        # Probe 1 fails, shrunk to one significant digit per entry.
        verdict = check_axiom(get_index("scale_dependent"), "SI", FAST)
        assert verdict.status == "fail"
        w = verdict.witness
        assert w.triads["input"] == Triad(8.0, 0.2, 0.5)
        assert w.params["k"] == 0.1
        # |0.2 - 4| + |5 - 1/4| + |8 - 0.4| + |1/8 - 2.5| + |0.5 - 0.025| + |2 - 40| = 57
        assert abs(w.observed["input"] - 57.0) <= 1e-12 * 57.0
        assert w.observed["scaled"] == get_index("scale_dependent").evaluate(scale_transform(w.triads["input"], 0.1))
        assert verdict.samples_used == 1

    def test_cx4_fails_iip_with_pinned_witness(self):
        verdict = check_axiom(get_index("cx4"), "IIP", FAST)
        assert verdict.status == "fail"
        w = verdict.witness
        assert w.triads["input"] == Triad(0.2, 3.0, 0.2)
        # cx4 is the consistency ratio t13 / (t12 * t23), which the transpose inverts.
        assert abs(w.observed["input"] - 75.0) <= 1e-12 * 75.0
        assert abs(w.observed["transposed"] - 1.0 / 75.0) <= 1e-12
        assert verdict.samples_used == 1

    def test_flat_fails_urs_via_inconsistent_match(self):
        verdict = check_axiom(get_index("flat"), "URS", FAST)
        assert verdict.status == "fail"
        assert verdict.witness.params["kind"] == "inconsistent_match"
        assert verdict.witness.observed["reference"] == 0.0

    def test_one_probe_compares_two_consistent_triads_for_urs(self):
        # Probe 1's consistent triad against (1, 1, 1): an index that reads t12 alone fails on it.
        t12 = IndexDescriptor("t12", "the entry t12", lambda t: t.t12, {a: "pass" for a in AXIOMS})
        verdict = check_axiom(t12, "URS", AuditConfig(samples=1))
        assert (verdict.status, verdict.samples_used) == ("fail", 1)
        assert verdict.witness.params["kind"] == "consistent_mismatch"
        assert verdict.witness.triads["reference"] == Triad(1.0, 1.0, 1.0)
        assert replay_witness(verdict.witness, t12.evaluate)

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
    def test_replay_takes_the_band_positionally_and_no_other(self):
        # A replay restates the equality band as its third argument, or raises.
        verdict = check_axiom(get_index("scale_dependent"), "SI", FAST)
        evaluate = get_index("scale_dependent").evaluate
        assert replay_witness(verdict.witness, evaluate, AuditConfig.tolerance)
        with pytest.raises(ValueError, match="equality band"):
            replay_witness(verdict.witness, evaluate, tolerance=1e-3)

    def test_replay_discriminates(self):
        # A witness against scale_dependent does not incriminate natural.
        verdict = check_axiom(get_index("scale_dependent"), "SI", FAST)
        assert replay_witness(verdict.witness, get_index("scale_dependent").evaluate)
        assert not replay_witness(verdict.witness, get_index("natural").evaluate)

    @pytest.mark.parametrize("position", ["12", "13"])
    def test_an_int_position_replays_like_its_string(self, position):
        # Triad.entry reads str(position), and so does every rung of a CON or
        # MSC/SMSC row: the index drops as soon as the entry at ``position`` moves.
        t = Triad(2.0, 4.0, 2.0)

        def drop(u):
            return -float(u.entry(position) != t.entry(position))

        rungs = {"delta_prev": 1.0, "delta": 1.5}
        rows = {"CON": ("input", {"ladder": CONTINUITY_LADDER}), "MSC": ("consistent", rungs)}
        rows["SMSC"] = rows["MSC"]
        for key in (position, int(position)):
            for axiom, (name, params) in rows.items():
                assert replay_witness(Witness(axiom, "", {name: t}, {"position": key, **params}), drop), (axiom, key)

    def test_witness_to_dict_is_self_contained(self):
        verdict = check_axiom(get_index("cx6"), "SI", FAST)
        payload = verdict.witness.to_dict()
        assert payload["triads"]["input"] == {"t12": 8.0, "t13": 0.2, "t23": 0.5}
        assert payload["params"]["k"] == 0.1
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
    # The axiom set is checked before the row is looked up, so an empty matrix serves.
    "VerdictMatrix.report": lambda index, axioms, cfg: VerdictMatrix(cfg, ()).report(index, axioms),
}


class TestAxiomSetContract:
    # audit, verdict_matrix and VerdictMatrix.report check the axiom set alike, before any evaluation.
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

    @pytest.mark.parametrize("entry", _AUDIT_ENTRY_POINTS)
    @pytest.mark.parametrize("axioms", ["URS", "SI", ""])
    def test_bare_string_is_not_an_axiom_set(self, entry, axioms):
        # A string is iterable, but its letters are no axiom names.
        with pytest.raises(TypeError) as info:
            _AUDIT_ENTRY_POINTS[entry](_untouchable(), axioms, FAST)
        assert repr(axioms) in str(info.value) and f"({axioms!r},)" in str(info.value)

    def test_the_table_lists_the_nine_axioms_in_canonical_order(self):
        assert tuple(_SPECS) == AXIOMS

    def test_replay_names_an_unknown_axiom_like_check_axiom(self):
        witness = Witness(axiom="NOPE", relation="", triads={})
        with pytest.raises(UnknownAxiomError) as info:
            replay_witness(witness, natural_index)
        assert str(info.value) == "unknown axiom 'NOPE'; valid axioms: URS, IPA, MRP, MSC, CON, IIP, HTA, SI, SMSC"

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
    values = [sample_triad(probe_rng(key, i)) for i in range(5)]
    assert values[3] == sample_triad(probe_rng(key, 3))
    assert [sample_triad(probe_rng(key, i)) for i in (4, 2, 0, 3, 1)] == [values[i] for i in (4, 2, 0, 3, 1)]
    assert len({dataclasses.astuple(v) for v in values}) == 5
    assert probe_rng(key, 3) is not probe_rng(key, 3)


@pytest.mark.parametrize("axiom", AXIOMS)
def test_a_larger_budget_replays_the_smaller_one_first(axiom):
    small = _engine_rows(axiom, AuditConfig(samples=40, master_seed=9))
    large = _engine_rows(axiom, AuditConfig(samples=100, master_seed=9))
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
    # Triad stores its entries in slots and has no __dict__.  Every result
    # type (a fail witness holding triads and the verdict around it among
    # them) round-trips unchanged, hashes, and hashes equal after the trip;
    # the mapping fields take no part in the hash, only in equality.
    t = Triad(1.0, 3.0, 2.0)
    assert not hasattr(t, "__dict__")
    cfg = AuditConfig(samples=20)
    verdict = check_axiom(get_index("cx4"), "IIP", cfg)
    assert verdict.status == "fail" and isinstance(verdict, AxiomVerdict)
    witness = verdict.witness
    assert isinstance(witness, Witness) and all(isinstance(v, Triad) for v in witness.triads.values())
    matrix = verdict_matrix(CATALOG, AXIOMS, cfg)
    table = analysis.independence_table(matrix)
    implication = analysis.audit_implications(matrix)[0]
    concordance = analysis.ranking_concordance(get_index("natural"), get_index("cx5"), cfg)
    assert concordance.discordant_witness is not None
    characterization = analysis.characterization_check(get_index("koczkodaj"), matrix)
    values = (
        t, cfg, get_index("cx4"), witness, verdict, audit(get_index("cx4"), AXIOMS, cfg), matrix,
        table, table.rows[0], table.rows[0].cells[0], implication.rule, implication, concordance, characterization,
    )
    for value in values:
        copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(value), copy.deepcopy(value)]
        for other in copies:
            assert other == value and type(other) is type(value)
            assert repr(other) == repr(value)
            assert hash(other) == hash(value), type(value)
    reports = {descriptor: audit(descriptor, AXIOMS, cfg) for descriptor in CATALOG}
    assert [reports[descriptor] for descriptor in CATALOG] == [report for _, report in matrix.rows]


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
    "URS": 200,
    "IPA": 300,
    "MRP": 350,
    "MSC": 200,
    "CON": 300,
    "IIP": 100,
    "HTA": 100,
    "SI": 350,
    "SMSC": 200,
}


def _recording(evaluate, seen):
    """A descriptor of ``evaluate`` that records every triad it evaluates in ``seen``."""
    return IndexDescriptor(
        id="recording",
        label="records every triad it evaluates",
        evaluate=lambda t: seen.append(t) or evaluate(t),
        expected_profile={a: "pass" for a in AXIOMS},
    )


def test_each_probe_evaluates_each_triad_once():
    # One engine row per probe: a grid probe evaluates its input once plus one
    # transform per grid value (MRP skips b = 1, IPA the identity), a ladder its base once plus
    # one triad per rung.  A passing CON row settles on its first and last
    # rungs.  URS evaluates (1, 1, 1) and the drawn triad on each of its two rows per probe.
    calls = []
    counting = _recording(natural_index, calls)
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
    counting = _recording(natural_index, calls)
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


# The adapter from a reference row to the engine's relation: apart from the
# pins of layout and cost, the one place here that knows how the engine
# evaluates a row.  The engine's _SPECS rows list their fields as the reference's do.
def _engine_params(axiom, evaluate, row):
    """The params of the engine's witness on a reference row, or None if the row passes."""
    spec = _SPECS[axiom]
    witness = spec.violation(evaluate, *spec.expand(*row))
    return None if witness is None else witness.params


def _engine_rows(axiom, cfg):
    """The engine's rows of ``axiom`` at ``cfg``, in draw order."""
    return [row for _, row in _SPECS[axiom].probes(cfg)]


def _reference_rows(axiom, cfg):
    """The reference's rows of ``axiom`` at ``cfg``, in draw order."""
    return [row for probe in reference_engine.rows(axiom, cfg) for row in probe]


@pytest.mark.parametrize("axiom", AXIOMS)
def test_engine_rows_equal_the_public_sampler_rows(axiom):
    cfg = AuditConfig()
    assert _engine_rows(axiom, cfg) == _reference_rows(axiom, cfg)


def test_concordance_pairs_equal_the_public_sampler_pairs():
    cfg, seen = AuditConfig(), []
    analysis.ranking_concordance(_recording(natural_index, seen), get_index("natural"), cfg)
    assert seen == [t for pair in reference_engine.pairs(cfg) for t in pair]


def _triads(axiom, row):
    """The distinct triads that the reference evaluates on ``row``, in the order it first meets them."""
    seen = []
    reference_engine.relation(axiom, lambda t: seen.append(t) or 0.0, *row)
    return list(dict.fromkeys(seen))


def _scripted(triads, values):
    """An evaluator that gives ``triads`` their ``values``.  Any other triad raises KeyError, so an
    engine row that builds a triad other than the reference's public transforms fails the lookup."""
    return dict(zip(triads, values, strict=True)).__getitem__


@pytest.mark.parametrize("axiom", AXIOMS)
def test_row_expansion_equals_the_public_transforms(axiom):
    # A passing check evaluates only triads that the reference builds from the same probes.
    cfg = AuditConfig(samples=50)
    rows = _reference_rows(axiom, cfg)
    triads = list(dict.fromkeys(t for row in rows for t in _triads(axiom, row)))
    evaluate = _scripted(triads, map(natural_index, triads))
    table = IndexDescriptor("table", "natural on the reference's triads", evaluate, {a: "pass" for a in AXIOMS})
    assert check_axiom(table, axiom, cfg).status == "pass"


@pytest.mark.parametrize("axiom", AXIOMS)
def test_a_matrix_sweep_builds_each_row_once(monkeypatch, axiom):
    # Each drawn row is expanded once for all the indices still open, so 12
    # passing copies of one index build the triads that one copy builds alone.
    built = []
    init = Triad.__init__
    monkeypatch.setattr(Triad, "__init__", lambda self, *a, **kw: init(self, *a, **kw) or built.append(1))
    calls = []
    counting = _recording(natural_index, calls)
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
    # At seed 42, MSC probe 275 rejects two bases with an entry near 1 and
    # SMSC probe 811 three: their positions are draws 9 and 12, in block 1.
    # test_engine_rows_equal_the_public_sampler_rows compares their rows.
    for axiom, i, tries in (("MSC", 275, 3), ("SMSC", 811, 4)):
        ((base, *_),) = reference_engine.rows(axiom, AuditConfig())[i]
        draw = probe_rng(probe_key(42, axiom), i)
        assert next(n for n in count(1) if sample_consistent_triad(draw) == base) == tries, axiom


def test_an_msc_sweep_derives_its_key_once(monkeypatch):
    # At samples=300, MSC redraws the base of 22 probes (275 among them) from
    # draw 0; every redraw reads the key that the sweep derived once.
    calls = []
    key = axioms.probe_key
    monkeypatch.setattr(axioms, "probe_key", lambda *args: calls.append(args) or key(*args))
    assert check_axiom(get_index("natural"), "MSC", AuditConfig(samples=300)).status == "pass"
    assert calls == [(42, "MSC")]


# The first row of each probe family at the default config, the first
# concordance pair, and MSC probe 275, whose base is redrawn past block 0:
# each triad as the float.hex of its entries, so that a change to the stream,
# the decoding or the triad builders shows in the last bit.
_HEX_ROWS = {
    "URS": (
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.2f76c80000000p-4", "0x1.6fce3dc598a00p-5", "0x1.3647340000000p-1"),
        "consistent_mismatch",
    ),
    "IPA": (
        ("0x1.b6c59cee5f820p-2", "0x1.22df46182e0dap+1", "0x1.bf5119c0e8974p-3"),
        (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    ),
    "MRP": (
        ("0x1.0596850d50be0p+0", "0x1.9b82b5d058c43p-3", "0x1.fd67ffc4b49acp-4"),
        0.25, 0.5, 0.75, 1.5, 2.0, 3.0,
    ),
    "MSC": (("0x1.2e07320000000p+2", "0x1.7dd29a1a0ecc0p+1", "0x1.43a2560000000p-1"), "13", 1.0, 1.5, 2.0, 3.0),
    "CON": (("0x1.d06f18ee67a66p-3", "0x1.0f06e754995cap+2", "0x1.b903b3719dcb2p-3"), "12", CONTINUITY_LADDER),
    "IIP": (("0x1.c9e0d2a7cac5dp-3", "0x1.bfc00b492194ap+1", "0x1.bc3a0bfa78638p-3"),),
    "HTA": (("0x1.0000000000000p+0", "0x1.5806332579583p+0", "0x1.02f34fe11bf10p+0"),),
    "SI": (
        ("0x1.f77df8bb62fafp+2", "0x1.7da16e6ce2a44p-3", "0x1.ea41c1b3453d3p-2"),
        0.1, 1.0 / 3.0, 0.5, 2.0, 3.0, 10.0,
    ),
    "SMSC": (("0x1.23c0278000000p-6", "0x1.cfdd45eacaeacp-3", "0x1.9705f28000000p+3"), "12", 1.0, 1.5, 2.0, 3.0),
}
_HEX_PAIR = (
    ("0x1.d1e8ac5b0ade4p+2", "0x1.7fe56de24cc16p-1", "0x1.a856683ef4864p-1"),
    ("0x1.0ba1fd624fef8p-1", "0x1.f52506334be21p-2", "0x1.79b79bde25906p-1"),
)
_HEX_REDRAWN_MSC = (("0x1.f9255f8000000p-2", "0x1.72ad03abc32c4p-3", "0x1.77b48f0000000p-2"), "23", 1.0, 1.5, 2.0, 3.0)


def _hex(row):
    """``row`` with each triad as the float.hex of its three entries."""
    return tuple(tuple(e.hex() for e in dataclasses.astuple(v)) if isinstance(v, Triad) else v for v in row)


@pytest.mark.parametrize("axiom", AXIOMS)
def test_first_row_of_each_family_at_full_precision(axiom):
    # Probe 0 draws the same row at every sample count.
    assert _hex(_engine_rows(axiom, AuditConfig(samples=1))[0]) == _HEX_ROWS[axiom]


def _exact_product(t):
    """Whether t13 is t12 * t23 in exact arithmetic, not only after rounding."""
    return fractions.Fraction(t.t13) == fractions.Fraction(t.t12) * fractions.Fraction(t.t23)


def test_every_consistent_probe_is_exactly_consistent():
    # URS's consistent offenders, every MSC/SMSC base (redraws past block 0
    # included) and CON's consistent bases, at the default config.
    cfg = AuditConfig()
    urs = _reference_rows("URS", cfg)
    consistent = [offender for _, offender, kind in urs if kind == "consistent_mismatch"]
    for axiom in ("MSC", "SMSC"):
        consistent += [row[0] for row in _reference_rows(axiom, cfg)]
    # CON draws a sampled and then a consistent base per probe.
    consistent += [probe[1][0] for probe in reference_engine.rows("CON", cfg)]
    assert len(consistent) == 4 * cfg.samples
    assert [t for t in consistent if not _exact_product(t)] == []
    key = probe_key(cfg.master_seed, "c")
    assert all(_exact_product(sample_consistent_triad(probe_rng(key, i))) for i in range(200))


@pytest.mark.parametrize("c", [1e-3, 1e3, 1e6, 1e9])
def test_a_rescaled_index_keeps_its_urs_status(c):
    # c * I ranks triads like I, so it reads consistency where I does: every
    # consistent probe must give c * I one value, whatever c magnifies.
    scaled = tuple(dataclasses.replace(d, evaluate=lambda t, f=d.evaluate: c * f(t)) for d in CATALOG)
    matrix = verdict_matrix(scaled, ("URS",))
    got = {d.id: matrix.report(d, ("URS",)).verdict("URS").status for d in scaled}
    assert got == {d.id: d.expected_profile["URS"] for d in CATALOG}


def test_first_concordance_pair_and_a_redrawn_msc_base_at_full_precision():
    seen = []
    analysis.ranking_concordance(_recording(natural_index, seen), get_index("natural"), AuditConfig(samples=1))
    assert _hex(seen) == _HEX_PAIR
    assert _hex(_engine_rows("MSC", AuditConfig(samples=276))[275]) == _HEX_REDRAWN_MSC


def test_a_closed_cell_is_never_evaluated_on_a_later_row():
    # cx4 closes IIP on probe 1; its shrinking replays rounded copies of that
    # row, and the IIP probes drawn for the other 11 indices never reach it.
    seen = []
    cx4 = get_index("cx4")
    recording = dataclasses.replace(cx4, evaluate=lambda t: seen.append(t) or cx4.evaluate(t))
    indices = tuple(recording if d.id == "cx4" else d for d in CATALOG)
    cfg = AuditConfig(samples=50)
    verdict = verdict_matrix(indices, ("IIP",), cfg).report(recording, ("IIP",)).verdict("IIP")
    assert (verdict.status, verdict.samples_used) == ("fail", 1)
    rows = [row[0] for row in _reference_rows("IIP", cfg)]
    assert seen[:2] == [rows[0], transpose_triad(rows[0])]
    assert not {t for row in rows[1:] for t in (row, transpose_triad(row))} & set(seen)


def test_a_failing_con_row_evaluates_each_rung_once():
    # cx3's first failing CON row: the base, the first and last rungs, then the six middle rungs.
    cx3, cfg = get_index("cx3"), AuditConfig()
    row = next(row for row in _reference_rows("CON", cfg) if reference_engine.relation("CON", cx3.evaluate, *row))
    calls = []

    def evaluate(t):
        calls.append(t)
        return cx3.evaluate(t)

    assert _engine_params("CON", evaluate, row) is not None
    assert len(calls) == len(set(calls)) == 9


def _catalog_rows_agree(axiom, cfg):
    """The engine's relation and the reference's name the same violation, or none, on every row at
    ``cfg`` for every catalog index.  Observed values are left to the pinned digests."""
    for row in _reference_rows(axiom, cfg):
        for descriptor in CATALOG:
            expected = reference_engine.relation(axiom, descriptor.evaluate, *row)
            assert _engine_params(axiom, descriptor.evaluate, row) == expected, (descriptor.id, row)


CON_CONFIGS = [AuditConfig(), AuditConfig(samples=300, master_seed=7)]


@pytest.mark.parametrize("cfg", CON_CONFIGS, ids=["default", "seed_7"])
def test_con_pass_test_agrees_with_the_full_ladder(cfg):
    _catalog_rows_agree("CON", cfg)


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
    # The last change is within 1e-2 of the largest, but not within 1e-3.
    "last_change_above_the_fraction": ([1.0] * 7 + [2e-3], False),
}
CON_ROW = (Triad(2.0, 3.0, 5.0), "13", CONTINUITY_LADDER)


@pytest.mark.parametrize("name", RUNG_VALUES)
def test_con_pass_test_agrees_with_the_full_ladder_on_nan_and_steps(name):
    values, passes = RUNG_VALUES[name]
    evaluate = _scripted(_triads("CON", CON_ROW), [0.0, *values])
    expected = reference_engine.relation("CON", evaluate, *CON_ROW)
    assert _engine_params("CON", evaluate, CON_ROW) == expected
    assert (expected is None) == passes


def _scripted_rows_agree(axiom, row, values, width):
    """On ``row``, the engine's relation and the reference's name the same violation, or none, for
    each choice of ``width`` of ``values`` for the first ``width`` triads; any others are worth 0."""
    triads = _triads(axiom, row)
    for chosen in product(values, repeat=width):
        evaluate = _scripted(triads, (*chosen[:-1], *[0.0] * (len(triads) - width), chosen[-1]))
        assert _engine_params(axiom, evaluate, row) == reference_engine.relation(axiom, evaluate, *row), (row, chosen)


def test_mrp_agrees_with_the_eager_band_on_scripted_values():
    # Two powers per row, below and above 1 in both orders, each value of the
    # table at the input and at each power.
    for bs in ((0.5, 2.0), (2.0, 0.5)):
        _scripted_rows_agree("MRP", (Triad(2.0, 3.0, 5.0), *bs), band_edge_values(), 3)


@pytest.mark.parametrize("axiom", ["MSC", "SMSC"])
def test_monotone_agrees_with_the_eager_band_on_scripted_values(axiom):
    # From delta = 1 over two rungs (the base, the first and the second rung
    # scripted) and from delta = 1.5 over one (the base, the previous rung
    # and the rung).
    for deltas in ((1.0, 2.0, 3.0), (1.5, 2.0)):
        _scripted_rows_agree(axiom, (Triad(2.0, 6.0, 3.0), "13", *deltas), band_edge_values(), 3)


def test_con_agrees_with_the_full_ladder_on_scripted_values():
    # The base and the first and last rungs take every value of the table;
    # the middle rungs are worth 0.
    _scripted_rows_agree("CON", CON_ROW, band_edge_values(), 3)


def test_equality_relations_follow_the_close_rule_on_scripted_values():
    # The equality relation of IPA, IIP, HTA and SI, each on a one-value row,
    # and URS's consistent_mismatch row fail iff the two values are not close
    # within the band ``tol``, the one the relations read.  URS's
    # inconsistent_match row, its offender 1e-7 off consistency, fails iff they are equal.
    tol = AuditConfig.tolerance
    input, reference = Triad(2.0, 3.0, 5.0), Triad(2.0, 6.0, 3.0)
    rows = [
        ("IPA", (input, (0, 2, 1))),
        ("IIP", (input,)),
        ("HTA", (input,)),
        ("SI", (input, 2.0)),
        ("URS", (reference, Triad(4.0, 12.0, 3.0), "consistent_mismatch")),
        ("URS", (reference, Triad(2.0, 6.0 * (1.0 + 1e-7), 3.0), "inconsistent_match")),
    ]
    values = band_edge_values()
    for x, y in product(values, repeat=2):
        assert _close(x, y) == math.isclose(x, y, rel_tol=tol, abs_tol=tol), (x, y)
    for axiom, row in rows:
        _scripted_rows_agree(axiom, row, values, 2)


@pytest.mark.parametrize("cfg", CON_CONFIGS, ids=["default", "seed_7"])
@pytest.mark.parametrize("axiom", ["MRP", "MSC", "SMSC"])
def test_ordered_relations_agree_with_the_eager_band_on_the_catalog(axiom, cfg):
    _catalog_rows_agree(axiom, cfg)


def test_a_passing_cell_computes_a_band_only_where_a_sign_points_at_a_violation(monkeypatch):
    # natural rises on every MRP power above 1, every MSC/SMSC rung and
    # shrinks by the ladder on CON, so the signs settle those comparisons.
    # SMSC's tie test still reads one band per rung: 50 probes x 3 rungs.
    calls = {"_band": 0, "_close": 0}
    for name in calls:
        rule = getattr(axioms, name)

        def counted(*args, _rule=rule, _name=name):
            calls[_name] += 1
            return _rule(*args)

        monkeypatch.setattr(axioms, name, counted)
    natural, cfg = get_index("natural"), AuditConfig(samples=50)
    counts = {}
    for axiom in ("MRP", "MSC", "CON", "SMSC"):
        calls.update(_band=0, _close=0)
        assert check_axiom(natural, axiom, cfg).status == "pass"
        counts[axiom] = calls["_band"], calls["_close"]
    assert counts == {"MRP": (0, 0), "MSC": (0, 0), "CON": (0, 0), "SMSC": (150, 0)}


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
# samples_used (the probe that found the violation); every other cell passes after 1000 probes.
DEFAULT_FAILS = {
    "natural": {},
    "scale_dependent": {"HTA": 1, "SI": 1},
    "koczkodaj": {},
    "saaty_ci": {},
    "cx1": {"URS": 1, "SMSC": 1},
    "cx2": {"MRP": 1, "MSC": 1, "SMSC": 1},
    "cx3": {"CON": 1},
    "cx4": {"IPA": 1, "MRP": 2, "IIP": 1},
    "cx5": {"IPA": 1, "HTA": 1},
    "cx6": {"IPA": 1, "SI": 1},
    "flat": {"URS": 1, "SMSC": 1},
    "discretised_natural": {"SMSC": 1},
}


# sha256 of the canonical JSON of every verdict of the 12 indices, witness
# included, per config.  A change that moves one witness float
# changes the digest; diff the documents against the previous release to see which.
VERDICT_DIGESTS = {
    AuditConfig(): "9fdf5197c155464d6ef53804085e69d3f1b655182efe09f050e2928f89527569",
    AuditConfig(samples=37, master_seed=3): "5721625971d06b59297694ceb0566d4ed80a70d6002bc1a9a612666306a48160",
    AuditConfig(samples=37, master_seed=7): "c3e502ad4ead92daff3cefce48c0bda73fe5e7f2b98499269a62c501b6e198b7",
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


# The six characterization verdicts that scripts/reproduce_results.py prints.
CHARACTERIZATIONS = {
    "koczkodaj": "order-equivalent",
    "saaty_ci": "order-equivalent",
    "discretised_natural": "premises-not-met",
    "cx4": "premises-not-met",
    "flat": "premises-not-met",
    "scale_dependent": "premises-not-met",
}


@pytest.mark.parametrize("seed", [42, 7])
def test_the_papers_results_hold_at_the_default_budget(catalog_matrix, seed):
    # The profiles, the diagonal, the rules and the characterization at
    # samples=1000, so that they do not rest on one seed's probes.
    matrix = catalog_matrix(AuditConfig(master_seed=seed))
    assert [descriptor.id for descriptor, report in matrix.rows if not report.matches_expected] == []
    assert analysis.independence_table(matrix).matches_expected
    verdicts = analysis.audit_implications(matrix)
    assert [v.index_id for v in verdicts if v.status == "counterexample-to-lemma"] == []
    statuses = {i: analysis.characterization_check(get_index(i), matrix).status for i in CHARACTERIZATIONS}
    assert statuses == CHARACTERIZATIONS


@pytest.mark.parametrize("seed", [3, 7])
def test_small_budget_witnesses_are_pinned(catalog_matrix, seed):
    cfg = AuditConfig(samples=37, master_seed=seed)
    reports = [report for _, report in catalog_matrix(cfg).rows]
    assert _verdict_digest(reports) == VERDICT_DIGESTS[cfg]


@pytest.mark.parametrize(
    "cfg", [AuditConfig(samples=37, master_seed=3), AuditConfig(samples=37, master_seed=7)], ids=["37-3", "37-7"]
)
def test_per_index_audits_reproduce_the_pinned_digests(cfg):
    # catalog_matrix sweeps each axiom once for all 12 indices; audit checks one cell at a time.
    reports = [audit(descriptor, AXIOMS, cfg) for descriptor in CATALOG]
    assert _verdict_digest(reports) == VERDICT_DIGESTS[cfg]


@pytest.mark.parametrize("direction", [math.inf, -math.inf], ids=["up", "down"])
def test_verdicts_do_not_depend_on_the_last_bit_of_exp(monkeypatch, direction):
    # Another libm may round exp differently in the last place.  Every sampled
    # entry goes through math.exp, and shrinking absorbs a one-ulp change, so
    # the pinned verdicts and witnesses hold with every exp nudged by one ulp.
    exp = math.exp
    monkeypatch.setattr(math, "exp", lambda x: math.nextafter(exp(x), direction))
    for cfg, digest in VERDICT_DIGESTS.items():
        reports = [report for _, report in verdict_matrix(CATALOG, AXIOMS, cfg).rows]
        assert _verdict_digest(reports) == digest, cfg


def _sampled(t, lo, hi):
    return all(lo * (1 - 1e-12) <= e <= hi * (1 + 1e-12) for e in dataclasses.astuple(t))


def _consistent(t, lo, hi):
    # Consistent triads come from three weights on (lo, hi): (a, a * b, b), a and b about w1/w2 and w2/w3.
    spread = max(1.0, t.t12, t.t13) / min(1.0, t.t12, t.t13)
    return consistency_ratio(t) == pytest.approx(1.0, abs=1e-12) and spread <= hi / lo * (1 + 1e-12)


def _in_probe_domain(witness, lo, hi) -> bool:
    """Each axiom's probe domain, for a witness's one-value row."""
    t, p = witness.triads, witness.params
    axiom = witness.axiom
    if axiom == "URS":
        offender = _consistent if p["kind"] == "consistent_mismatch" else _sampled
        return t["reference"] == Triad(1.0, 1.0, 1.0) and offender(t["offender"], lo, hi)
    if axiom in ("MSC", "SMSC"):
        base, position = t["consistent"], p["position"]
        off_unit = all(abs(math.log(e)) >= reference_engine.OFF_UNIT for e in dataclasses.astuple(base))
        # The ladder walks the side of delta = 1 that lifts the consistency ratio above 1.
        lifts = off_unit and consistency_ratio(single_entry_perturb(base, position, p["delta"])) > 1.0
        return _consistent(base, lo, hi) and lifts
    if axiom == "CON":
        return _sampled(t["input"], lo, hi) or _consistent(t["input"], lo, hi)
    if axiom == "HTA":
        return t["input"].t12 == 1.0 and _sampled(t["input"], lo, hi)
    return _sampled(t["input"], lo, hi)


def _significant_digits(x: float) -> int:
    """Significant digits of x written at %.15g: 0.042 has 2, 120 has 2, 1e+34 has 1."""
    return len(("%.15g" % x).split("e")[0].replace(".", "").strip("0"))


def _breaks_the_reference(evaluate, witness) -> bool:
    """Whether the reference's relation on the row that ``witness`` stores names the witness's violation."""
    row = reference_engine.witness_row(witness)
    return reference_engine.relation(witness.axiom, evaluate, *row) == witness.params


def test_shrunk_default_witnesses_replay_inside_their_probe_domain(default_matrix):
    cfg = default_matrix.config
    witnesses = [(d, v.witness) for d, report in default_matrix.rows for v in report.verdicts if v.witness]
    assert len(witnesses) == sum(len(fails) for fails in DEFAULT_FAILS.values())
    for descriptor, witness in witnesses:
        where = (descriptor.id, witness.axiom)
        assert replay_witness(witness, descriptor.evaluate, cfg.tolerance), where
        assert _breaks_the_reference(descriptor.evaluate, witness), where
        assert _in_probe_domain(witness, *cfg.entry_range), where
        # Shrinking leaves every entry of a row triad with at most 2 significant digits.
        for t in reference_engine.witness_row(witness):
            if isinstance(t, Triad):
                assert all(_significant_digits(e) <= 2 for e in dataclasses.astuple(t)), (where, t)


@pytest.mark.parametrize("seed", [3, 7])
def test_shrunk_small_budget_witnesses_replay_inside_their_probe_domain(catalog_matrix, seed):
    cfg = AuditConfig(samples=37, master_seed=seed)
    for descriptor, report in catalog_matrix(cfg).rows:
        for witness in report.witnesses():
            assert replay_witness(witness, descriptor.evaluate, cfg.tolerance), (descriptor.id, witness.axiom)
            assert _in_probe_domain(witness, *cfg.entry_range), (descriptor.id, witness.axiom)


def _assert_agrees_with_the_reference(evaluate, verdict, cfg):
    """The reference's (status, samples_used) at ``cfg``, and a fail witness that breaks the reference's relation."""
    where = (cfg, verdict.axiom)
    assert (verdict.status, verdict.samples_used) == reference_engine.check(evaluate, verdict.axiom, cfg), where
    assert verdict.witness is None or _breaks_the_reference(evaluate, verdict.witness), where


@pytest.mark.parametrize("seed", [3, 7])
def test_every_catalog_cell_agrees_with_the_reference(catalog_matrix, seed):
    cfg = AuditConfig(samples=37, master_seed=seed)
    for descriptor, report in catalog_matrix(cfg).rows:
        for verdict in report.verdicts:
            _assert_agrees_with_the_reference(descriptor.evaluate, verdict, cfg)


# Indices whose fails come late in the probe order, with a seed at which they do and
# those fails' samples_used: every catalog fail comes on probe 1 or 2, so agreeing
# with the reference on the catalog pins little more.
LATE_FAILS = {
    "t12_step": (lambda t: natural_index(t) + 1e-3 * (t.t12 > 8.0), 42, {"URS": 14, "IIP": 15}),
    "flat_band": (lambda t: 1.5 if 7.0 < natural_index(t) < 7.5 else natural_index(t), 42, {"MRP": 28, "SMSC": 84}),
    "jump_off_consistency": (lambda t: natural_index(t) + float(t.t12 > 8.0 and not is_consistent(t)), 42, {"CON": 8}),
    "t13_step": (lambda t: natural_index(t) + 1e-3 * (t.t13 > 8.5), 7, {"HTA": 12, "IIP": 142}),
}


@pytest.mark.parametrize("name", LATE_FAILS)
def test_late_fails_agree_with_the_reference(name):
    evaluate, late_seed, late = LATE_FAILS[name]
    index = IndexDescriptor(name, "fails late", evaluate, {a: "pass" for a in AXIOMS})
    for seed in (42, 7):
        cfg = AuditConfig(samples=150, master_seed=seed)
        verdicts = {axiom: check_axiom(index, axiom, cfg) for axiom in AXIOMS}
        fails = {a: v.samples_used for a, v in verdicts.items() if v.status == "fail"}
        assert seed != late_seed or late.items() <= fails.items(), fails
        for v in verdicts.values():
            _assert_agrees_with_the_reference(evaluate, v, cfg)


def test_shrinking_spends_at_most_its_replay_budget(monkeypatch):
    # A violation that never reproduces makes the shrinker try every candidate:
    # a consistent reference and a sampled offender whose entries have 17 digits.
    replays = []
    spec = _SPECS["URS"]._replace(violation=lambda *row: replays.append(row))
    reference = Triad(0.7123456789012345, 0.7123456789012345 * 3.123456789012345, 3.123456789012345)
    offender = Triad(0.4123456789012345, 2.123456789012345, 5.123456789012345)
    witness = Witness(
        axiom="URS",
        relation="an inconsistent triad attains the consistent reference value",
        triads={"reference": reference, "offender": offender},
        params={"kind": "inconsistent_match"},
    )
    assert _shrink(spec, witness, natural_index) is witness
    assert 10 < len(replays) <= 64
    replays.clear()
    monkeypatch.setattr(axioms, "_SHRINK_REPLAYS", 5)
    assert _shrink(spec, witness, natural_index) is witness
    assert len(replays) == 5


def _capped_natural(t: Triad) -> float:
    """natural below 2 and the consistent value 1 from 2 on, so a ladder that
    crosses 2 decreases; a consistent triad whose entries have at most 2
    significant digits, as a shrunk base's do, reads 10, above every rung."""
    if is_consistent(t) and all(_significant_digits(e) <= 2 for e in dataclasses.astuple(t)):
        return 10.0
    value = natural_index(t)
    return value if value < 2.0 else 1.0


def test_shrinking_keeps_the_violated_relation():
    # Only MSC and SMSC read their relation off index values; every other
    # axiom's relation text follows from the row's params.  Each rounded base
    # of this witness breaks MSC at the consistent value, not between rungs,
    # so the shrinker must keep the unrounded base and its "decrease".
    capped = IndexDescriptor("capped", "natural capped at 2", _capped_natural, {a: "pass" for a in AXIOMS})
    witness = check_axiom(capped, "MSC", FAST).witness
    assert witness.params["violation"] == "decrease"
    base, *rest = reference_engine.witness_row(witness)
    rounded = axioms._simpler_triads(base, None)[0]
    assert _SPECS["MSC"].in_domain(rounded, *rest)
    assert reference_engine.relation("MSC", _capped_natural, rounded, *rest)["violation"] == "below_consistent"
    assert replay_witness(witness, _capped_natural)
    assert _breaks_the_reference(_capped_natural, witness)

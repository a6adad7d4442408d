"""Seeded falsification engine for the nine inconsistency-index axioms.

One table entry per axiom gives its violated relation, its seeded probes and
a handful of pinned probes with known violations; a check searches them in
order for a counterexample.  A verdict of "pass" means "no violation found at
this configuration", never a proof; a "fail" verdict carries a
self-contained witness that replays without the RNG.  Each probe draws from
its own MT19937 ``random.Random``, seeded with 64 bits of the sha256 of
(master_seed, axiom, probe index), so results do not depend on evaluation
order and growing the sample count can only turn a pass into a fail.

Axiom identifiers:

==== =========================================================
URS  a unique value is attained exactly on consistent triads
IPA  invariance under permutation of the alternatives
MRP  monotonicity under the entrywise power map a_ij -> a_ij^b
MSC  monotonicity when one comparison of a consistent triad is
     intensified (ties allowed)
CON  continuity in the matrix entries
IIP  invariance under inversion of preferences (transpose)
HTA  (1; a; b) is exactly as inconsistent as (1; a/b; 1)
SI   invariance under (t12, t13, t23) -> (k t12, k^2 t13, k t23)
SMSC strict variant of MSC: ties count as violations
==== =========================================================
"""

from __future__ import annotations

import _random
import hashlib
import math
import operator
import random
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import chain, permutations
from typing import Callable, Iterator, Mapping

from .core import (
    Triad,
    consistency_ratio,
    permute_triad,
    power_transform,
    scale_transform,
    single_entry_perturb,
    transpose_triad,
    triad_from_weights,
)
from .indices import AXIOMS, IndexDescriptor

__all__ = [
    "AuditConfig",
    "Witness",
    "AxiomVerdict",
    "AuditReport",
    "UnknownAxiomError",
    "probe_rng",
    "sample_triad",
    "sample_consistent_triad",
    "check_axiom",
    "audit",
    "replay_witness",
]

Evaluator = Callable[[Triad], float]

# MSC/SMSC probes keep every entry of the consistent base triad at least
# this far from 1 in log space; it is the float-honest reading of the
# axioms' "entry != 1" precondition and keeps genuinely strict increases
# resolvable above the equality band.
_MIN_LOG_ENTRY = 0.05

# CON heuristic: the change at the finest rung must fall below this fraction
# of the largest observed change (or below the equality band).  A continuous
# index shrinks by ~1e-7 across the default ladder; a jump stays at ~1.
_CON_JUMP_FRACTION = 1e-3

# Largest |log v| of a float v whose reciprocal is also a finite float.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

_POSITIONS = ("12", "13", "23")


class UnknownAxiomError(LookupError):
    """Raised when an axiom identifier is not one of the nine known ones."""


@dataclass(frozen=True)
class AuditConfig:
    """Probe count, seed, entry range and equality band; the grids are the fixed probe design below.

    ``samples`` and ``master_seed`` take any integer type but ``bool`` and are stored as ``int``.
    ``tolerance`` is a relative equality band: a equals b when
    |a - b| <= tolerance * max(1, |a|, |b|).
    """

    samples: int = 1000
    master_seed: int = 42
    entry_range: tuple[float, float] = (1.0 / 9.0, 9.0)
    tolerance: float = 1e-9

    def __post_init__(self):
        for name in ("samples", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        lo, hi = self.entry_range
        if not (0.0 < lo < hi) or not math.isfinite(hi):
            raise ValueError(f"entry_range must be positive with lower < upper, got {self.entry_range}")
        # MSC/SMSC redraw consistent triads until every entry is at least
        # _MIN_LOG_ENTRY from 1 in log space.  At log(hi/lo) = 4 * _MIN_LOG_ENTRY
        # about 1/8 of the draws qualify; narrower ranges starve that sampler.
        if math.log(hi / lo) < 4 * _MIN_LOG_ENTRY:
            raise ValueError(
                f"entry_range is too narrow: log(upper/lower) must be >= {4 * _MIN_LOG_ENTRY:g}, got {self.entry_range}"
            )
        if not (self.tolerance > 0.0):
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if _log_extent(self.entry_range) > _LOG_FLOAT_MAX:
            raise ValueError(
                f"entry_range is too wide for the grids: its probes leave float64's range, got {self.entry_range}"
            )

    def as_dict(self) -> dict:
        doc = {**{f.name: getattr(self, f.name) for f in fields(self)}, **_PROBE_DESIGN}
        return {name: list(v) if isinstance(v, tuple) else v for name, v in doc.items()}


def _log_extent(entry_range: tuple[float, float]) -> float:
    """Largest |log| of an entry, a product of two entries or a consistency ratio
    that a probe hands to an index: sampled and consistent triads, MRP's powers b,
    MSC/SMSC's powers delta of one consistent entry, SI's factors k, CON's 1 + eps."""
    lo, hi = math.log(entry_range[0]), math.log(entry_range[1])
    sampled = max(2 * abs(lo), 2 * abs(hi), hi - 2 * lo, 2 * hi - lo)
    return max(
        max(B_GRID) * sampled,
        max(DELTA_GRID) * (hi - lo),
        sampled + 2 * max(abs(math.log(k)) for k in K_GRID),
        sampled + math.log1p(max(CONTINUITY_LADDER)),
    )


def _close(a: float, b: float, tol: float) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def _band(tol: float, a: float, b: float = 0.0) -> float:
    return tol * max(1.0, abs(a), abs(b))


def _derive_seed(master_seed: int, *tags) -> int:
    material = ":".join(("triadaudit", str(int(master_seed)), *map(str, tags)))
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def probe_rng(master_seed: int, *tags) -> random.Random:
    """Independent RNG for one probe, a pure function of (master_seed, tags).

    Equal to ``random.Random(_derive_seed(master_seed, *tags))``, but seeded
    by the C-level ``seed`` alone, without the Python-level wrappers.
    """
    rng = random.Random.__new__(random.Random)
    _random.Random.seed(rng, _derive_seed(master_seed, *tags))
    rng.gauss_next = None
    return rng


def sample_triad(rng: random.Random, entry_range: tuple[float, float]) -> Triad:
    """Three entries drawn independently, log-uniform on entry_range."""
    lo = math.log(entry_range[0])
    span = math.log(entry_range[1]) - lo
    # lo + span * random() is exactly what rng.uniform(lo, hi) computes.
    draw = rng.random
    return Triad(math.exp(lo + span * draw()), math.exp(lo + span * draw()), math.exp(lo + span * draw()))


def sample_consistent_triad(rng: random.Random, entry_range: tuple[float, float]) -> Triad:
    """Consistent triad from three log-uniform weights: (w1/w2, w1/w3, w2/w3)."""
    lo = math.log(entry_range[0])
    span = math.log(entry_range[1]) - lo
    draw = rng.random
    return triad_from_weights(math.exp(lo + span * draw()), math.exp(lo + span * draw()), math.exp(lo + span * draw()))


def _sample_consistent_off_unit(rng: random.Random, entry_range: tuple[float, float]) -> Triad:
    """Consistent triad with every entry at least _MIN_LOG_ENTRY away from 1."""
    for _ in range(100_000):
        t = sample_consistent_triad(rng, entry_range)
        if all(abs(math.log(e)) >= _MIN_LOG_ENTRY for e in t.entries()):
            return t
    raise RuntimeError("failed to sample a consistent triad with entries away from 1")


@dataclass(frozen=True)
class Witness:
    """A replayable counterexample to one axiom.

    Self-contained: `triads`, `params` and the axiom name are enough to
    reproduce the violated comparison without any RNG state.
    """

    axiom: str
    relation: str
    triads: Mapping[str, Triad]
    params: Mapping[str, object] = field(default_factory=dict)
    observed: Mapping[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "relation": self.relation,
            "triads": {name: t.as_dict() for name, t in self.triads.items()},
            "params": {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.params.items()},
            "observed": dict(self.observed),
        }


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    status: str  # "pass" | "fail"
    witness: Witness | None
    samples_used: int
    master_seed: int

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "witness"}


# ---------------------------------------------------------------------------
# violations: one relation per axiom, shared by the search and witness replay
# ---------------------------------------------------------------------------


def _invariance_violation(
    axiom: str,
    name: str,
    transform: Callable[..., Triad],
    param: str | None,
    evaluate: Evaluator,
    tol: float,
    input: Triad,
    *values: object,
) -> Witness | None:
    """SI, HTA, IIP and IPA: I(input) must equal I(transform(input, value)) within the band.

    ``param`` names the transform's parameter, whose ``values`` are tried in
    order; IIP and HTA take none and no values, so they transform once.
    """
    a = evaluate(input)
    for value in values or (None,):
        other = transform(input) if param is None else transform(input, value)
        b = evaluate(other)
        if not _close(a, b, tol):
            return Witness(
                axiom=axiom,
                relation=f"|I(input) - I({name})| > tolerance band",
                triads={"input": input, name: other},
                params={} if param is None else {param: value},
                observed={"input": a, name: b},
            )
    return None


def _mrp_violation(evaluate: Evaluator, tol: float, input: Triad, *bs: float) -> Witness | None:
    """I(input^b) must not fall below I(input) for b >= 1 nor rise above it for b <= 1, for each b in order."""
    base = evaluate(input)
    for b in bs:
        powered = power_transform(input, b)
        after = evaluate(powered)
        band = _band(tol, base, after)
        if b >= 1.0 and after < base - band:
            relation = "I(powered) < I(input) - tolerance band although b >= 1"
        elif b <= 1.0 and after > base + band:
            relation = "I(powered) > I(input) + tolerance band although b <= 1"
        else:
            continue
        return Witness(
            axiom="MRP",
            relation=relation,
            triads={"input": input, "powered": powered},
            params={"b": b},
            observed={"input": base, "powered": after},
        )
    return None


def _monotone_violation(
    strict: bool, evaluate: Evaluator, tol: float, consistent: Triad, position: str, delta_prev: float, *deltas: float
) -> Witness | None:
    """Walk an MSC/SMSC intensification ladder from delta_prev through deltas.

    delta_prev = 1 denotes the unperturbed consistent triad.  Returns a
    witness for the first rung at which the index drops below the consistent
    value, decreases from the previous rung, or (strict only) fails to
    increase beyond the band.
    """
    base_value = evaluate(consistent)
    prev_value = base_value if delta_prev == 1.0 else evaluate(single_entry_perturb(consistent, position, delta_prev))
    # single_entry_perturb checks the base and the position on the first
    # rung; the later rungs raise the same entry to their own power.
    perturbed, entry = single_entry_perturb(consistent, position, deltas[0]), consistent.entry(position)
    for rung, delta in enumerate(deltas):
        if rung:
            perturbed = _with_entry(consistent, position, entry**delta)
        cur_value = evaluate(perturbed)
        step_band = _band(tol, prev_value, cur_value)
        if cur_value < base_value - _band(tol, base_value, cur_value):
            violation, relation = "below_consistent", "I(perturbed) < I(consistent) - tolerance band"
        elif cur_value < prev_value - step_band:
            violation, relation = "decrease", "I at the larger intensification < I at the smaller one - tolerance band"
        elif strict and cur_value - prev_value <= step_band:
            violation, relation = "tie", "intensification step failed to increase I beyond the tolerance band"
        else:
            prev_value, delta_prev = cur_value, delta
            continue
        return Witness(
            axiom="SMSC" if strict else "MSC",
            relation=relation,
            triads={"consistent": consistent},
            params={"position": position, "delta_prev": delta_prev, "delta": delta, "violation": violation},
            observed={"consistent": base_value, "previous": prev_value, "perturbed": cur_value},
        )
    return None


def _with_entry(t: Triad, position: str, value: float) -> Triad:
    """``t`` with the entry at ``position`` replaced by ``value``."""
    if position == "12":
        return Triad(value, t.t13, t.t23)
    if position == "13":
        return Triad(t.t12, value, t.t23)
    return Triad(t.t12, t.t13, value)


def _con_violation(
    evaluate: Evaluator, tol: float, input: Triad, position: str, ladder: tuple[float, ...]
) -> Witness | None:
    base_value = evaluate(input)
    entry = input.entry(position)
    changes = [abs(evaluate(_with_entry(input, position, entry * (1.0 + eps))) - base_value) for eps in ladder]
    threshold = max(_band(tol, base_value), _CON_JUMP_FRACTION * max(changes))
    if changes[-1] <= threshold:
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


def _urs_violation(evaluate: Evaluator, tol: float, reference: Triad, offender: Triad, kind: str) -> Witness | None:
    """The band absorbs rounding between values that should be equal; a clearly
    inconsistent offender asks whether two values differ, so it must hit the same float."""
    v = evaluate(reference)
    value = evaluate(offender)
    if kind == "consistent_mismatch":
        if _close(value, v, tol):
            return None
        relation = "two consistent triads take different index values"
    else:
        if abs(consistency_ratio(offender) - 1.0) <= 10.0 * tol or value != v:
            return None
        relation = "an inconsistent triad attains the consistent reference value"
    return Witness(
        axiom="URS",
        relation=relation,
        triads={"reference": reference, "offender": offender},
        params={"kind": kind},
        observed={"reference": v, "offender": value},
    )


# ---------------------------------------------------------------------------
# probes: (samples_used, row) pairs, probe i drawing only from probe_rng(seed, axiom, i)
# ---------------------------------------------------------------------------

_Probes = Iterator[tuple[int, tuple]]


def _grid_probes(axiom: str, values: tuple, cfg: AuditConfig) -> _Probes:
    """One sampled triad per probe, followed by every parameter value in `values` (IIP has none)."""
    for i in range(cfg.samples):
        yield i + 1, (sample_triad(probe_rng(cfg.master_seed, axiom, i), cfg.entry_range), *values)


def _hta_probes(cfg: AuditConfig) -> _Probes:
    lo = math.log(cfg.entry_range[0])
    span = math.log(cfg.entry_range[1]) - lo
    for i in range(cfg.samples):
        draw = probe_rng(cfg.master_seed, "HTA", i).random
        yield i + 1, (Triad(1.0, math.exp(lo + span * draw()), math.exp(lo + span * draw())),)


def _urs_probes(cfg: AuditConfig) -> _Probes:
    reference = sample_consistent_triad(probe_rng(cfg.master_seed, "URS", 0), cfg.entry_range)
    for i in range(cfg.samples):
        rng = probe_rng(cfg.master_seed, "URS", i)
        consistent = sample_consistent_triad(rng, cfg.entry_range)
        yield i + 1, (reference, consistent, "consistent_mismatch")
        offender = sample_triad(rng, cfg.entry_range)
        yield i + 1, (reference, offender, "inconsistent_match")


def _monotone_probes(axiom: str, cfg: AuditConfig) -> _Probes:
    """MSC/SMSC: one row per probe, a whole intensification ladder from a consistent triad.

    Only the side whose perturbations land on the canonical side (consistency
    ratio >= 1) is probed: the side that the independence and characterization
    arguments exercise, and that an asymmetric index such as cx4 must satisfy.
    On a consistent base that side follows from signs alone: the ratio
    t13 / (t12 * t23) rises above 1 when t13 is raised or t12 or t23 lowered.
    """
    for i in range(cfg.samples):
        rng = probe_rng(cfg.master_seed, axiom, i)
        base = _sample_consistent_off_unit(rng, cfg.entry_range)
        position = rng.choice(_POSITIONS)
        deltas = _DELTAS_ABOVE if (base.entry(position) > 1.0) == (position == "13") else _DELTAS_BELOW
        yield i + 1, (base, position, 1.0, *deltas)


def _con_probes(cfg: AuditConfig) -> _Probes:
    for i in range(cfg.samples):
        rng = probe_rng(cfg.master_seed, "CON", i)
        bases = (sample_triad(rng, cfg.entry_range), sample_consistent_triad(rng, cfg.entry_range))
        position = rng.choice(_POSITIONS)
        for base in bases:
            yield i + 1, (base, position, CONTINUITY_LADDER)


# ---------------------------------------------------------------------------
# the axiom table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _AxiomSpec:
    """Everything the engine knows about one axiom.

    A row is a tuple of the fields ``row`` names, in that order; a grid or
    ladder row repeats its last field once per value, so one row is one probe
    (URS and CON make two rows per probe, one per triad drawn).
    ``violation(evaluate, tol, *row)`` evaluates each distinct triad of the
    row once and returns the first violating value's witness, or None.
    ``probes(cfg)`` yields ``(samples_used, row)`` pairs from the seeded
    probes.  A witness stores the fields of its one-value row by name in its
    ``triads`` or ``params``; replay reads them back in ``row`` order and
    passes that one-value row to the same ``violation``.  ``pinned`` maps an
    index id to rows with a violation known in closed form: they are tried
    before any sampling, so the fail verdict does not depend on the budget.
    """

    violation: Callable[..., Witness | None]
    probes: Callable[[AuditConfig], _Probes]
    row: tuple[str, ...]
    pinned: Mapping[str, tuple[tuple, ...]] = field(default_factory=dict)


# The probe design: fixed grids that the checks walk at every config, echoed
# under "config" by AuditConfig.as_dict.
B_GRID = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
DELTA_GRID = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
K_GRID = (0.1, 1.0 / 3.0, 0.5, 2.0, 3.0, 10.0)
CONTINUITY_LADDER = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
_PROBE_DESIGN = {"b_grid": B_GRID, "delta_grid": DELTA_GRID, "k_grid": K_GRID, "continuity_ladder": CONTINUITY_LADDER}
# The two MSC/SMSC ladder sides, each walked away from delta = 1.
_DELTAS_ABOVE = tuple(d for d in DELTA_GRID if d > 1.0)
_DELTAS_BELOW = tuple(d for d in reversed(DELTA_GRID) if d < 1.0)
_PERMUTATIONS = tuple(permutations(range(3)))

# Probe domains.  "Sampled": three entries log-uniform on entry_range.
# "Consistent": (w1/w2, w1/w3, w2/w3) from three weights log-uniform on entry_range.
_SPECS: dict[str, _AxiomSpec] = {
    # URS: one consistent and one sampled offender per probe, against probe 0's consistent reference.
    "URS": _AxiomSpec(_urs_violation, _urs_probes, ("reference", "offender", "kind")),
    # IPA: a sampled triad under each of the six permutations of the alternatives.
    "IPA": _AxiomSpec(
        partial(_invariance_violation, "IPA", "permuted", permute_triad, "perm"),
        partial(_grid_probes, "IPA", _PERMUTATIONS),
        ("input", "perm"),
    ),
    # MRP: a sampled triad raised to each power b in B_GRID, on both sides of 1.
    "MRP": _AxiomSpec(_mrp_violation, partial(_grid_probes, "MRP", B_GRID), ("input", "b")),
    # MSC: a consistent triad, |log entry| >= _MIN_LOG_ENTRY; one entry walks the DELTA_GRID side lifting the ratio.
    "MSC": _AxiomSpec(
        partial(_monotone_violation, False),
        partial(_monotone_probes, "MSC"),
        ("consistent", "position", "delta_prev", "delta"),
    ),
    # CON: a sampled and a consistent triad; one entry times 1 + eps for each eps in CONTINUITY_LADDER.
    "CON": _AxiomSpec(_con_violation, _con_probes, ("input", "position", "ladder")),
    # IIP: a sampled triad against its transpose.
    "IIP": _AxiomSpec(
        partial(_invariance_violation, "IIP", "transposed", transpose_triad, None),
        partial(_grid_probes, "IIP", ()),
        ("input",),
        pinned={"cx4": ((Triad(1.0, 3.0, 2.0),),)},
    ),
    # HTA: (1; a; b) with a and b log-uniform on entry_range, against (1; a/b; 1).
    "HTA": _AxiomSpec(
        partial(_invariance_violation, "HTA", "collapsed", lambda t: Triad(1.0, t.t13 / t.t23, 1.0), None),
        _hta_probes,
        ("input",),
        pinned={"cx5": ((Triad(1.0, 8.0, 4.0),),)},
    ),
    # SI: a sampled triad scaled by each factor k in K_GRID, on both sides of 1.
    "SI": _AxiomSpec(
        partial(_invariance_violation, "SI", "scaled", scale_transform, "k"),
        partial(_grid_probes, "SI", K_GRID),
        ("input", "k"),
        pinned={
            "cx6": ((Triad(1.0, 8.0, 4.0), 2.0),),
            "scale_dependent": ((Triad(1.0, 3.0, 2.0), 2.0),),
        },
    ),
    # SMSC: the MSC probes, with ties between rungs counted as violations.
    "SMSC": _AxiomSpec(
        partial(_monotone_violation, True),
        partial(_monotone_probes, "SMSC"),
        ("consistent", "position", "delta_prev", "delta"),
    ),
}


def check_axiom(index: IndexDescriptor, axiom: str, cfg: AuditConfig | None = None) -> AxiomVerdict:
    """Search for a violation of `axiom` by `index`; deterministic in (index.id, axiom, cfg)."""
    cfg = cfg if cfg is not None else AuditConfig()
    spec = _SPECS.get(axiom)
    if spec is None:
        raise UnknownAxiomError(f"unknown axiom {axiom!r}; valid axioms: {', '.join(AXIOMS)}")
    evaluate, violation, tol = index.evaluate, spec.violation, cfg.tolerance
    pinned = ((0, row) for row in spec.pinned.get(index.id, ()))
    for samples_used, row in chain(pinned, spec.probes(cfg)):
        witness = violation(evaluate, tol, *row)
        if witness is not None:
            return AxiomVerdict(axiom, "fail", witness, samples_used, cfg.master_seed)
    return AxiomVerdict(axiom, "pass", None, cfg.samples, cfg.master_seed)


@dataclass(frozen=True)
class AuditReport:
    """Per-axiom verdicts for one index plus the expected-profile comparison."""

    index_id: str
    config: AuditConfig
    verdicts: tuple[AxiomVerdict, ...]
    expected: Mapping[str, str]

    def verdict(self, axiom: str) -> AxiomVerdict:
        for v in self.verdicts:
            if v.axiom == axiom:
                return v
        raise UnknownAxiomError(f"axiom {axiom!r} was not part of the audit of {self.index_id!r}")

    @property
    def all_pass(self) -> bool:
        return all(v.status == "pass" for v in self.verdicts)

    @property
    def matches_expected(self) -> bool:
        return all(v.status == self.expected[v.axiom] for v in self.verdicts)

    def witnesses(self) -> tuple[Witness, ...]:
        return tuple(v.witness for v in self.verdicts if v.witness is not None)

    def to_dict(self) -> dict:
        return {
            "index": self.index_id,
            "verdicts": [
                {**v.to_dict(), "expected": self.expected[v.axiom], "match": v.status == self.expected[v.axiom]}
                for v in self.verdicts
            ],
            "all_pass": self.all_pass,
            "matches_expected": self.matches_expected,
        }


def audit(index: IndexDescriptor, axioms, cfg: AuditConfig | None = None) -> AuditReport:
    """Run check_axiom for every requested axiom, in canonical axiom order."""
    cfg = cfg if cfg is not None else AuditConfig()
    requested = set(axioms)
    if not requested:
        raise ValueError("audit requires a non-empty set of axioms")
    unknown = requested - set(AXIOMS)
    if unknown:
        raise UnknownAxiomError(f"unknown axioms {sorted(unknown)}; valid axioms: {', '.join(AXIOMS)}")
    ordered = tuple(a for a in AXIOMS if a in requested)
    verdicts = tuple(check_axiom(index, a, cfg) for a in ordered)
    expected = {a: index.expected_profile[a] for a in ordered}
    return AuditReport(index_id=index.id, config=cfg, verdicts=verdicts, expected=expected)


def replay_witness(witness: Witness, evaluate: Evaluator, tolerance: float = AuditConfig.tolerance) -> bool:
    """Re-run a witness against `evaluate`; True iff the violation reproduces."""
    spec = _SPECS.get(witness.axiom)
    if spec is None:
        raise UnknownAxiomError(f"unknown axiom {witness.axiom!r} in witness")
    fields = {**witness.triads, **witness.params}
    return spec.violation(evaluate, tolerance, *[fields[name] for name in spec.row]) is not None

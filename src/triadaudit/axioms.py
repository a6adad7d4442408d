"""Seeded falsification engine for the nine inconsistency-index axioms.

One table entry per axiom gives its violated relation, its seeded probes and
a handful of pinned probes with known violations; a check searches them in
order for a counterexample.  A verdict of "pass" means "no violation found at
this configuration", never a proof; a "fail" verdict carries a
self-contained witness that replays without the RNG, shrunk to simple entries
first.  Probe i of an axiom draws from its own counter-based stream: the
axiom's key is 8 bytes of the sha256 of (master_seed, axiom), and block j of
the stream is the keyed blake2b hash of (i, j), eight draws.  So results do
not depend on evaluation order, and growing the sample count can only turn a
pass into a fail.  Every probe family, and analysis.ranking_concordance,
reads its stream through one entry point, _stream(tag, width, cfg), which
derives the key and yields the first ``width`` draws of block 0 of each
probe; the family builds its triads from them by position, each draw u
mapped to the log-uniform entry exp(_LO + _SPAN * u).  MSC and SMSC redraw their consistent base until its entries are
off 1: a probe whose first try is rejected takes every try again from draw 0
through the draw function probe_rng(key, i), which hashes each block as it
reaches it.  The public samplers sample_triad and sample_consistent_triad
take such a draw function and build the same triads from the same draws.

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

import math
import operator
import struct
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import count, permutations
from typing import Callable, ClassVar, Iterable, Iterator, Mapping, NamedTuple

from .core import _TOLERANCE, _band, _close
from .core import (
    Triad,
    _with_entry,
    consistency_ratio,
    is_consistent,
    permute_triad,
    power_transform,
    scale_transform,
    single_entry_perturb,
    transpose_triad,
)
from .indices import IndexDescriptor

__all__ = [
    "AuditConfig",
    "Witness",
    "AxiomVerdict",
    "AuditReport",
    "UnknownAxiomError",
    "probe_key",
    "probe_rng",
    "sample_triad",
    "sample_consistent_triad",
    "check_axiom",
    "audit",
    "VerdictMatrix",
    "verdict_matrix",
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

_POSITIONS = ("12", "13", "23")


class UnknownAxiomError(LookupError):
    """Raised when an axiom identifier is not one of the nine known ones."""


@dataclass(frozen=True)
class AuditConfig:
    """Probe count and seed; the entry range, the equality band and the grids are the fixed probe design.

    ``samples`` and ``master_seed`` take any integer type but ``bool`` and are stored as ``int``.
    Entries and consistent weights are log-uniform on ``entry_range``, Saaty's scale [1/9, 9], and
    ``tolerance`` is the one equality band that core defines and every relation, is_consistent and the
    concordance ties read: a equals b when |a - b| <= tolerance * max(1, |a|, |b|).
    """

    samples: int = 1000
    master_seed: int = 42
    entry_range: ClassVar[tuple[float, float]] = (1.0 / 9.0, 9.0)
    tolerance: ClassVar[float] = _TOLERANCE

    def __post_init__(self):
        for name in ("samples", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        # Probe i draws from stream i of its family, and a family has 2**64 streams (see probe_rng).
        if self.samples > 2**64:
            raise ValueError(f"samples must be <= 2**64, the number of probe streams, got {self.samples}")

    def as_dict(self) -> dict:
        doc = {**{f.name: getattr(self, f.name) for f in fields(self)}, **_PROBE_DESIGN}
        return {name: list(v) if isinstance(v, tuple) else v for name, v in doc.items()}


def probe_key(master_seed: int, tag: str) -> bytes:
    """Key of one family of probe streams (one axiom's probes, or one concordance's
    pairs): 8 bytes of the sha256 of (master_seed, tag)."""
    import hashlib  # here, not at the top: a CLI command that draws no probe does not load it
    return hashlib.sha256(f"triadaudit:{int(master_seed)}:{tag}".encode()).digest()[:8]


# Block j of probe i: the 64-byte blake2b of the counter (i, j) as two
# little-endian 64-bit words, keyed by the family's key, read as 8 such words.
_COUNTER = struct.Struct("<2Q")
_WORDS = struct.Struct("<8Q")

# _DECODE[n] turns the first n words of a block into draws, each word w as
# (w >> 11) * 2**-53.  Spelled out per n: on CPython 3.11 a comprehension over
# the words costs 0.2-0.3 us more per probe than a call of this table.  The
# probe families read block 0 through _stream at width 3 (the grid axioms), 6
# (URS, MSC/SMSC and the concordance pairs) or 8 (CON), and _draws reads whole blocks.
_DECODE = {
    3: lambda w0, w1, w2: ((w0 >> 11) * 2.0**-53, (w1 >> 11) * 2.0**-53, (w2 >> 11) * 2.0**-53),
    6: lambda w0, w1, w2, w3, w4, w5: (
        (w0 >> 11) * 2.0**-53, (w1 >> 11) * 2.0**-53, (w2 >> 11) * 2.0**-53, (w3 >> 11) * 2.0**-53,
        (w4 >> 11) * 2.0**-53, (w5 >> 11) * 2.0**-53,
    ),
    8: lambda w0, w1, w2, w3, w4, w5, w6, w7: (
        (w0 >> 11) * 2.0**-53, (w1 >> 11) * 2.0**-53, (w2 >> 11) * 2.0**-53, (w3 >> 11) * 2.0**-53,
        (w4 >> 11) * 2.0**-53, (w5 >> 11) * 2.0**-53, (w6 >> 11) * 2.0**-53, (w7 >> 11) * 2.0**-53,
    ),
}


def _block0(key: bytes, probes: Iterable[int], width: int) -> Iterator[tuple[float, ...]]:
    """Draws 0 to width - 1 (width a key of _DECODE) of each probe i in ``probes``
    of the family keyed by ``key``, in order: the first ``width`` calls of
    ``probe_rng(key, i)`` as a tuple.

    _stream reads block 0 here for every probe family.  The keyed hash state
    is built once and copied for each probe, and only the first ``width``
    words are unpacked and decoded.
    """
    import hashlib
    state = hashlib.blake2b(key=key, digest_size=64)
    pack, unpack, decode = _COUNTER.pack, struct.Struct(f"<{width}Q").unpack_from, _DECODE[width]
    for i in probes:
        h = state.copy()
        h.update(pack(i, 0))
        yield decode(*unpack(h.digest()))


def _draws(key: bytes, i: int) -> Iterator[float]:
    """Every draw of probe i in order: blocks 0, 1, 2, ..., each hashed and decoded when reached."""
    import hashlib
    for j in count():
        digest = hashlib.blake2b(_COUNTER.pack(i, j), key=key, digest_size=64).digest()
        yield from _DECODE[8](*_WORDS.unpack(digest))


def probe_rng(key: bytes, i: int) -> Callable[[], float]:
    """Draw function of probe ``i`` (0 <= i < 2**64) of the family keyed by ``key`` (see probe_key).

    Call m returns draw m: word m % 8 of block m // 8, as the float
    ``(word >> 11) * 2**-53``.  A choice over n items takes item
    ``int(n * draw())``.  The draws are a pure function of (key, i), so no
    probe depends on the probes drawn before it.  Nothing is hashed until the
    first call, so ``i`` is checked here: TypeError if it is not an integer,
    ValueError if it is outside [0, 2**64).
    """
    i = operator.index(i)
    if not 0 <= i < 2**64:
        raise ValueError(f"probe index must be in [0, 2**64), got {i}")
    return _draws(key, i).__next__


# A draw u in [0, 1) maps to the entry exp(_LO + _SPAN * u), log-uniform on
# AuditConfig.entry_range: _LO + _SPAN * u is exactly what
# random.Random.uniform(lo, hi) computes for lo, hi the logs of the range's ends.
_LO = math.log(AuditConfig.entry_range[0])
_SPAN = math.log(AuditConfig.entry_range[1]) - _LO


def _stream(tag: str, width: int, cfg: AuditConfig) -> tuple[bytes, Iterator[tuple[float, ...]]]:
    """(key, draws) of the probe family ``tag`` at ``cfg``: ``key`` is
    probe_key(cfg.master_seed, tag), and ``draws`` yields draws 0 to width - 1
    of probes 0 to cfg.samples - 1 of the family keyed by ``key``, in order."""
    key = probe_key(cfg.master_seed, tag)
    return key, _block0(key, range(cfg.samples), width)


def _sampled(u1: float, u2: float, u3: float) -> Triad:
    """The triad of three log-uniform entries, from draws u1, u2, u3."""
    return Triad(math.exp(_LO + _SPAN * u1), math.exp(_LO + _SPAN * u2), math.exp(_LO + _SPAN * u3))


def _consistent(u1: float, u2: float, u3: float) -> Triad:
    """The consistent triad (a, a * b, b) of log-uniform weights w1, w2, w3 from draws u1, u2, u3: Dekker's split
    by 2**27 + 1 cuts w1/w2 and w2/w3 to 26-bit significands a and b, so t13 is exactly t12 * t23."""
    w1, w2, w3 = math.exp(_LO + _SPAN * u1), math.exp(_LO + _SPAN * u2), math.exp(_LO + _SPAN * u3)
    q, r = w1 / w2, w2 / w3
    c, d = 134217729.0 * q, 134217729.0 * r
    a, b = c - (c - q), d - (d - r)
    return Triad(a, a * b, b)


def sample_triad(draw: Callable[[], float]) -> Triad:
    """Three entries from the next three calls of ``draw``, each log-uniform on AuditConfig.entry_range."""
    return _sampled(draw(), draw(), draw())


def sample_consistent_triad(draw: Callable[[], float]) -> Triad:
    """The consistent triad of three log-uniform weights, the next three calls of ``draw`` (see _consistent)."""
    return _consistent(draw(), draw(), draw())


def _off_unit(t: Triad) -> bool:
    """MSC/SMSC's base condition: every entry of ``t`` at least _MIN_LOG_ENTRY away from 1 in log space."""
    return (
        abs(math.log(t.t12)) >= _MIN_LOG_ENTRY
        and abs(math.log(t.t13)) >= _MIN_LOG_ENTRY
        and abs(math.log(t.t23)) >= _MIN_LOG_ENTRY
    )


def _consistent_off_unit(draw: Callable[[], float]) -> Triad:
    """The first consistent triad, three draws at a time from draw 0, that _off_unit accepts."""
    for _ in range(100_000):
        base = _consistent(draw(), draw(), draw())
        if _off_unit(base):
            return base
    raise RuntimeError("failed to sample a consistent triad with entries away from 1")


@dataclass(frozen=True)
class Witness:
    """A replayable counterexample to one axiom.

    Self-contained: `triads`, `params` and the axiom name are enough to
    reproduce the violated comparison without any RNG state.
    """

    axiom: str
    relation: str
    triads: Mapping[str, Triad] = field(hash=False)
    params: Mapping[str, object] = field(default_factory=dict, hash=False)
    observed: Mapping[str, float] = field(default_factory=dict, hash=False)

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
# violations: one relation per axiom, shared by the search and witness replay.
# Each takes a row as its spec's ``expand`` returns it, derived triads built.
# The expand steps run once per row and append in plain loops: on CPython
# 3.11 a comprehension is a call of its own.  Each comparison is settled by
# its sign first, and _band or _close is called only where the sign already
# points at a violation: a band is never negative, so ``x < y - band`` implies
# ``x < y``, and equal values are always close.
# ---------------------------------------------------------------------------


def _invariance_expand(
    transform: Callable[..., Triad], input: Triad, *values: object
) -> tuple[Triad, list[tuple[object, Triad]]]:
    """(input, others): (value, transform of ``input`` by value) for each value in
    order; a row that carries no value (IIP, HTA) transforms once, with None as its value."""
    if not values:
        return input, [(None, transform(input))]
    others = []
    for value in values:
        others.append((value, transform(input, value)))
    return input, others


def _invariance_violation(
    axiom: str,
    name: str,
    param: str | None,
    relation: Callable[[float, float, object], str | None],
    evaluate: Evaluator,
    input: Triad,
    others: list[tuple[object, Triad]],
) -> Witness | None:
    """IPA, MRP, IIP, HTA and SI: I(input) and I(other) must keep the axiom's
    ``relation`` for each (value, other) pair in order; ``param`` names the
    value in a witness.  ``relation(I(input), I(other), value)`` returns
    the violated relation's text, or None; it is called only when the two
    values differ, as equal values break no relation of the family (and a NaN
    differs from every value)."""
    a = evaluate(input)
    for value, other in others:
        b = evaluate(other)
        if a != b:
            text = relation(a, b, value)
            if text is not None:
                return Witness(
                    axiom=axiom,
                    relation=text,
                    triads={"input": input, name: other},
                    params={} if param is None else {param: value},
                    observed={"input": a, name: b},
                )
    return None


def _equal(name: str, a: float, b: float, value: object) -> str | None:
    """IPA, IIP, HTA and SI: I(input) must equal I(``name``) within the band."""
    return None if _close(a, b) else f"|I(input) - I({name})| > tolerance band"


def _power_order(base: float, after: float, b: float) -> str | None:
    """MRP: I(input^b) must not fall below I(input) for b >= 1 nor rise above it for b <= 1."""
    if b >= 1.0 and after < base and after < base - _band(base, after):
        return "I(powered) < I(input) - tolerance band although b >= 1"
    if b <= 1.0 and after > base and after > base + _band(base, after):
        return "I(powered) > I(input) + tolerance band although b <= 1"
    return None


def _monotone_expand(
    consistent: Triad, position: str, delta_prev: float, *deltas: float
) -> tuple[Triad, str, float, Triad | None, list[tuple[float, Triad]]]:
    """(consistent, position, delta_prev, previous, rungs): the rung at delta_prev
    (None for delta_prev = 1, the unperturbed consistent triad) and (delta, rung)
    for each delta.  single_entry_perturb checks the base and the position on
    the first rung; the later rungs raise the same entry to their own power.
    ``position`` is read as str(position), as Triad.entry reads it."""
    position = str(position)
    previous = None if delta_prev == 1.0 else single_entry_perturb(consistent, position, delta_prev)
    rungs = [(deltas[0], single_entry_perturb(consistent, position, deltas[0]))]
    entry = consistent.entry(position)
    for delta in deltas[1:]:
        rungs.append((delta, _with_entry(consistent, position, entry**delta)))
    return consistent, position, delta_prev, previous, rungs


def _monotone_violation(
    axiom: str,
    strict: bool,
    evaluate: Evaluator,
    consistent: Triad,
    position: str,
    delta_prev: float,
    previous: Triad | None,
    rungs: list[tuple[float, Triad]],
) -> Witness | None:
    """Walk an MSC/SMSC intensification ladder from delta_prev through the rungs.

    Returns a witness for the first rung at which the index drops below the
    consistent value, decreases from the previous rung, or (strict only)
    fails to increase beyond the band.
    """
    base_value = evaluate(consistent)
    prev_value = base_value if previous is None else evaluate(previous)
    for delta, perturbed in rungs:
        cur_value = evaluate(perturbed)
        if cur_value < base_value and cur_value < base_value - _band(base_value, cur_value):
            violation, relation = "below_consistent", "I(perturbed) < I(consistent) - tolerance band"
        elif cur_value < prev_value and cur_value < prev_value - _band(prev_value, cur_value):
            violation, relation = "decrease", "I at the larger intensification < I at the smaller one - tolerance band"
        elif strict and cur_value - prev_value <= _band(prev_value, cur_value):
            violation, relation = "tie", "intensification step failed to increase I beyond the tolerance band"
        else:
            prev_value, delta_prev = cur_value, delta
            continue
        return Witness(
            axiom=axiom,
            relation=relation,
            triads={"consistent": consistent},
            params={"position": position, "delta_prev": delta_prev, "delta": delta, "violation": violation},
            observed={"consistent": base_value, "previous": prev_value, "perturbed": cur_value},
        )
    return None


def _con_rung(input: Triad, position: str, eps: float) -> Triad:
    """``input`` with the entry at ``position`` times 1 + eps."""
    return _with_entry(input, position, input.entry(position) * (1.0 + eps))


def _con_expand(
    input: Triad, position: str, ladder: tuple[float, ...]
) -> tuple[Triad, str, tuple[float, ...], Triad, Triad]:
    """(input, position, ladder, first, last): the rungs at the first and last eps.
    The middle rungs are built by _con_violation, only for rows that need them.
    ``position`` is read as str(position), as Triad.entry reads it."""
    position = str(position)
    return input, position, ladder, _con_rung(input, position, ladder[0]), _con_rung(input, position, ladder[-1])


def _con_violation(
    evaluate: Evaluator,
    input: Triad,
    position: str,
    ladder: tuple[float, ...],
    first_rung: Triad,
    last_rung: Triad,
) -> Witness | None:
    """I(input with the entry at ``position`` times 1 + eps) must approach I(input)
    as eps walks down ``ladder``: the row fails iff
    ``changes[-1] > max(band, _CON_JUMP_FRACTION * max(changes))``.

    Pass test: since max(changes) >= changes[0], a last change within
    ``_CON_JUMP_FRACTION * changes[0]`` or within the band proves the pass on
    the first and last rungs alone, and the band is computed only when the
    jump bound does not prove it.  ``last <= f or last <= band`` equals
    ``last <= max(band, f)`` for every value: the band is never NaN, and a NaN
    f makes ``last <= f`` False and ``max(band, f)`` band.  So a NaN last
    change fails every test; a NaN first change leaves ``last <= band`` in
    both tests, as ``max`` keeps a leading NaN; a NaN middle change leaves
    max(changes) >= changes[0].  A row the test does not settle evaluates its
    middle rungs too, so a fail witness reports the whole ladder.
    """
    base_value = evaluate(input)
    first, last = abs(evaluate(first_rung) - base_value), abs(evaluate(last_rung) - base_value)
    if last <= _CON_JUMP_FRACTION * first or last <= _band(base_value):
        return None
    middle = [abs(evaluate(_con_rung(input, position, eps)) - base_value) for eps in ladder[1:-1]]
    changes = [first, *middle, last]
    if last <= _CON_JUMP_FRACTION * max(changes):
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


def _urs_violation(evaluate: Evaluator, reference: Triad, offender: Triad, kind: str) -> Witness | None:
    """The band absorbs rounding between values that should be equal; an offender over ten bands from
    consistency, beyond rounding, asks whether two values differ, so it must hit the same float."""
    v = evaluate(reference)
    value = evaluate(offender)
    if kind == "consistent_mismatch":
        if value == v or _close(value, v):
            return None
        relation = "two consistent triads take different index values"
    else:
        if value != v or abs(consistency_ratio(offender) - 1.0) <= 10.0 * _TOLERANCE:
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
# probes: (samples_used, row) pairs, probe i drawing only from stream i of its
# family's key: block 0 from _stream, and every try of an MSC/SMSC base
# redraw from probe_rng(key, i)
# ---------------------------------------------------------------------------

_Probes = Iterator[tuple[int, tuple]]


def _grid_probes(axiom: str, build: Callable[..., Triad], values: tuple, cfg: AuditConfig) -> _Probes:
    """One triad per probe, ``build(u0, u1, u2)`` of draws 0-2, followed by
    every parameter value in `values` (IIP and HTA have none)."""
    _, draws = _stream(axiom, 3, cfg)
    for used, (u0, u1, u2) in enumerate(draws, 1):
        yield used, (build(u0, u1, u2), *values)


def _unit_t12(u1: float, u2: float, u3: float) -> Triad:
    """HTA's triad (1; a; b), a and b log-uniform from draws u1 and u2; u3 is not read."""
    return Triad(1.0, math.exp(_LO + _SPAN * u1), math.exp(_LO + _SPAN * u2))


def _urs_probes(cfg: AuditConfig) -> _Probes:
    """A consistent triad (draws 0-2) and a sampled offender (draws 3-5) per probe.
    Probe 0's consistent triad is the reference; it is not compared with itself."""
    _, draws = _stream("URS", 6, cfg)
    for used, (u0, u1, u2, u3, u4, u5) in enumerate(draws, 1):
        consistent = _consistent(u0, u1, u2)
        if used > 1:
            yield used, (reference, consistent, "consistent_mismatch")
        else:
            reference = consistent
        yield used, (reference, _sampled(u3, u4, u5), "inconsistent_match")


def _lifts_above(consistent: Triad, position: str) -> bool:
    """Whether the MSC/SMSC ladder at ``position`` walks the DELTA_GRID side above 1:
    raising that entry to a power delta lifts the consistency ratio t13 / (t12 * t23)
    above 1 for delta > 1 exactly when the entry is t13 and above 1, or t12 or t23
    and below 1; otherwise delta < 1 lifts it."""
    return (consistent.entry(position) > 1.0) == (position == "13")


def _monotone_probes(axiom: str, cfg: AuditConfig) -> _Probes:
    """MSC/SMSC: one row per probe, a whole intensification ladder from a consistent triad.

    The base takes three draws per try and the position is the draw after the
    base.  A probe whose first try is accepted reads draws 0-3 from block 0;
    one whose first try is rejected takes every try again from draw 0 through
    the draw function ``probe_rng(key, i)`` of the family's key, derived once
    per sweep, past block 0 when the base needs three or more tries.

    Only the side whose perturbations land on the canonical side (consistency
    ratio >= 1) is probed: the side that the independence and characterization
    arguments exercise, and that an asymmetric index such as cx4 must satisfy.
    On a consistent base that side follows from signs alone (see _lifts_above).
    """
    key, draws = _stream(axiom, 6, cfg)
    for i, (u0, u1, u2, u3, _, _) in enumerate(draws):
        base = _consistent(u0, u1, u2)
        if not _off_unit(base):
            draw = probe_rng(key, i)
            base = _consistent_off_unit(draw)
            u3 = draw()
        position = _POSITIONS[int(3 * u3)]
        deltas = _DELTAS_ABOVE if _lifts_above(base, position) else _DELTAS_BELOW
        yield i + 1, (base, position, 1.0, *deltas)


def _con_probes(cfg: AuditConfig) -> _Probes:
    """A sampled (draws 0-2) and a consistent (draws 3-5) base per probe, sharing the position that draw 6 chooses."""
    _, draws = _stream("CON", 8, cfg)
    for used, (u0, u1, u2, u3, u4, u5, u6, _) in enumerate(draws, 1):
        bases = (_sampled(u0, u1, u2), _consistent(u3, u4, u5))
        position = _POSITIONS[int(3 * u6)]
        for base in bases:
            yield used, (base, position, CONTINUITY_LADDER)


# ---------------------------------------------------------------------------
# witness shrinking: simpler entries for the row's triads, same violation
# ---------------------------------------------------------------------------

# Replays that one fail witness may spend on shrinking.
_SHRINK_REPLAYS = 64


def _sig_digits(x: float) -> int:
    """Significant digits of x at %.15g."""
    return len(f"{x:.14e}".split("e")[0].replace(".", "").rstrip("0"))


def _roundings(x: float) -> list[float]:
    """x cut to 1, then 2, significant digits and rounded down and up, the nearer value first."""
    mantissa, exponent = f"{x:.14e}".split("e")
    digits = mantissa.replace(".", "")
    values = []
    for n in (1, 2):
        down, scale = int(digits[:n]), int(exponent) - n + 1
        near = [float(f"{down}e{scale}")]
        if digits[n:].strip("0"):
            near = sorted((near[0], float(f"{down + 1}e{scale}")), key=lambda v: abs(v - x))
        for v in near:
            if v not in values:
                values.append(v)
    return values


def _simpler_triads(t: Triad, position: str | None) -> list[Triad]:
    """Candidates for ``t`` inside its probe domain on AuditConfig.entry_range, (lo, hi).

    A sampled triad changes the entry at ``position`` to one of its roundings
    in [lo, hi].  A consistent triad (``position`` None) stays consistent:
    roundings of t12 and t23 with t13 = t12 * t23, every entry at most 2
    significant digits and the weights (1, 1/t12, 1/t13) fitting in a ratio hi/lo.
    """
    lo, hi = AuditConfig.entry_range
    if position is not None:
        entry = t.entry(position)
        return [_with_entry(t, position, v) for v in _roundings(entry) if v != entry and lo <= v <= hi]
    pairs = sorted(
        ((a, b) for a in _roundings(t.t12) for b in _roundings(t.t23) if (a, b) != (t.t12, t.t23)),
        key=lambda pair: _sig_digits(pair[0]) + _sig_digits(pair[1]),
    )
    return [
        Triad(a, a * b, b)
        for a, b in pairs
        if _sig_digits(a * b) <= 2 and max(1.0, a, a * b) <= hi / lo * min(1.0, a, a * b)
    ]


def _monotone_domain(consistent: Triad, position: str, delta_prev: float, delta: float) -> bool:
    """MSC/SMSC: the base off 1 (see _off_unit), and the ladder side (delta
    above or below 1) still the one that lifts the consistency ratio."""
    return _off_unit(consistent) and _lifts_above(consistent, position) == (delta > 1.0)


def _shrink(spec: _AxiomSpec, witness: Witness, evaluate: Evaluator) -> Witness:
    """The witness with simpler row triads and the same violated relation.

    Greedy, in ``row`` order: a sampled triad entry by entry, a consistent
    triad (URS's reference, MSC's base, CON's consistent base) whole.  A
    candidate is kept when it stays in its probe domain and ``violation`` on
    the changed row returns a witness with the same relation; at most
    _SHRINK_REPLAYS replays are made.
    """
    fields = {**witness.triads, **witness.params}
    replays = 0
    for name in spec.row:
        if not isinstance(fields[name], Triad):
            continue
        for position in (None,) if is_consistent(fields[name]) else _POSITIONS:
            for candidate in _simpler_triads(fields[name], position):
                row = [candidate if n == name else fields[n] for n in spec.row]
                if not spec.in_domain(*row):
                    continue
                if replays == _SHRINK_REPLAYS:
                    return witness
                replays += 1
                shrunk = spec.violation(evaluate, *spec.expand(*row))
                if shrunk is not None and shrunk.relation == witness.relation:
                    fields[name], witness = candidate, shrunk
                    break
    return witness


# ---------------------------------------------------------------------------
# the axiom table
# ---------------------------------------------------------------------------


class _AxiomSpec(NamedTuple):
    """Everything the engine knows about one axiom.

    A row is a tuple of the fields ``row`` names, in that order; a grid or
    ladder row repeats its last field once per value, so one row is one probe
    (URS and CON make two rows per probe, one per triad drawn; URS's probe 0
    makes one, as its consistent triad is the reference).
    ``expand(*row)`` builds the triads that the row compares (IPA's
    permutations, MRP's powers, SI's scalings, the IIP transpose,
    the HTA collapse, the MSC/SMSC rungs, CON's first and last rungs; URS has
    none) and returns them with the row's fields.  ``violation(evaluate,
    *expanded)`` only evaluates and compares: it evaluates each distinct
    triad once and returns the first violating value's witness, or None.  A
    sweep expands each row once for all the indices it goes to, so a matrix
    sweep builds a row's derived triads once, not once per index.
    ``probes(cfg)`` yields ``(samples_used, row)`` pairs from the seeded
    probes.  A witness stores the fields of its one-value row by name in its
    ``triads`` or ``params``; replay and shrinking read them back in ``row``
    order and pass that one-value row, expanded, to the same ``violation``.  ``pinned`` maps an
    index id to rows with a violation known in closed form: they are tried
    before any sampling, so the fail verdict does not depend on the budget.
    ``in_domain(*row)`` holds on a shrunk one-value row that keeps the probe
    domain's conditions beyond its triads' entry range (see _shrink).
    A plain tuple: it holds functions, and no code compares or hashes a spec.
    """

    violation: Callable[..., Witness | None]
    probes: Callable[[AuditConfig], _Probes]
    row: tuple[str, ...]
    expand: Callable[..., tuple] = lambda *row: row
    pinned: Mapping[str, tuple[tuple, ...]] = {}
    in_domain: Callable[..., bool] = lambda *row: True


def _invariance(
    axiom: str, name: str, param: str | None, transform: Callable[..., Triad], values: tuple = (),
    build: Callable[..., Triad] = _sampled, pinned: Mapping[str, tuple[tuple, ...]] = {},
    relation: Callable[[float, float, object], str | None] | None = None,
) -> _AxiomSpec:
    """The spec of a grid axiom: I(input) and I(``name``), the input transformed
    by each value of the row's field ``param`` (or transformed once when
    ``param`` is None), must keep ``relation`` (default: _equal, equality
    within the band; see _invariance_violation).  Each probe builds one triad
    from draws 0-2 by ``build`` (default: a sampled triad) and carries ``values``."""
    return _AxiomSpec(
        partial(_invariance_violation, axiom, name, param, relation or partial(_equal, name)),
        partial(_grid_probes, axiom, build, values),
        ("input",) if param is None else ("input", param),
        partial(_invariance_expand, transform),
        pinned,
    )


def _monotone(axiom: str, strict: bool) -> _AxiomSpec:
    """The spec of MSC (ties allowed) or SMSC (``strict``: a tie between rungs is a violation)."""
    return _AxiomSpec(
        partial(_monotone_violation, axiom, strict),
        partial(_monotone_probes, axiom),
        ("consistent", "position", "delta_prev", "delta"),
        _monotone_expand,
        in_domain=_monotone_domain,
    )


# The probe design: the entry range, the equality band and the fixed grids that
# the checks walk at every config, echoed under "config" by AuditConfig.as_dict.
B_GRID = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
DELTA_GRID = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
K_GRID = (0.1, 1.0 / 3.0, 0.5, 2.0, 3.0, 10.0)
CONTINUITY_LADDER = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
_PROBE_DESIGN = {
    "entry_range": AuditConfig.entry_range, "tolerance": AuditConfig.tolerance,
    "b_grid": B_GRID, "delta_grid": DELTA_GRID, "k_grid": K_GRID, "continuity_ladder": CONTINUITY_LADDER,
}
# The two MSC/SMSC ladder sides, each walked away from delta = 1.
_DELTAS_ABOVE = tuple(d for d in DELTA_GRID if d > 1.0)
_DELTAS_BELOW = tuple(d for d in reversed(DELTA_GRID) if d < 1.0)
# IPA's and MRP's rows leave out the identity permutation and b = 1: their
# transformed triad equals the input (x ** 1.0 == x exactly), so the row
# cannot break invariance for a finite value nor, NaN included, either strict
# inequality of MRP.
_PERMUTATIONS = tuple(permutations(range(3)))[1:]
_POWERS = tuple(b for b in B_GRID if b != 1.0)

# Probe domains.  "Sampled": three entries log-uniform on entry_range.
# "Consistent": (a, a * b, b), a and b about w1/w2 and w2/w3 of three weights log-uniform on entry_range.
_SPECS: dict[str, _AxiomSpec] = {
    # URS: each probe's sampled offender and each later probe's consistent triad, against probe 0's consistent one.
    "URS": _AxiomSpec(_urs_violation, _urs_probes, ("reference", "offender", "kind")),
    # IPA: a sampled triad under each of the five permutations of the alternatives other than the identity.
    "IPA": _invariance("IPA", "permuted", "perm", permute_triad, _PERMUTATIONS),
    # MRP: a sampled triad raised to each power b in B_GRID but 1, on both sides of 1.
    "MRP": _invariance("MRP", "powered", "b", power_transform, _POWERS, relation=_power_order),
    # MSC: a consistent triad, |log entry| >= _MIN_LOG_ENTRY; one entry walks the DELTA_GRID side lifting the ratio.
    "MSC": _monotone("MSC", strict=False),
    # CON: a sampled and a consistent triad; one entry times 1 + eps for each eps in CONTINUITY_LADDER.
    "CON": _AxiomSpec(_con_violation, _con_probes, ("input", "position", "ladder"), _con_expand),
    # IIP: a sampled triad against its transpose.
    "IIP": _invariance("IIP", "transposed", None, transpose_triad, pinned={"cx4": ((Triad(1.0, 3.0, 2.0),),)}),
    # HTA: (1; a; b) with a and b log-uniform on entry_range, against (1; a/b; 1).
    "HTA": _invariance(
        "HTA", "collapsed", None, lambda t: Triad(1.0, t.t13 / t.t23, 1.0), build=_unit_t12,
        pinned={"cx5": ((Triad(1.0, 8.0, 4.0),),)},
    ),
    # SI: a sampled triad scaled by each factor k in K_GRID, on both sides of 1.
    "SI": _invariance(
        "SI", "scaled", "k", scale_transform, K_GRID,
        pinned={"cx6": ((Triad(1.0, 8.0, 4.0), 2.0),), "scale_dependent": ((Triad(1.0, 3.0, 2.0), 2.0),)},
    ),
    # SMSC: the MSC probes, with ties between rungs counted as violations.
    "SMSC": _monotone("SMSC", strict=True),
}


def _spec(axiom: str) -> _AxiomSpec:
    """The table entry of ``axiom``; UnknownAxiomError if it is not one of the nine."""
    try:
        return _SPECS[axiom]
    except KeyError:
        raise UnknownAxiomError(f"unknown axiom {axiom!r}; valid axioms: {', '.join(_SPECS)}") from None


def _sweep(indices: tuple[IndexDescriptor, ...], axiom: str, cfg: AuditConfig) -> list[AxiomVerdict]:
    """The verdict of `axiom` for each of `indices`, by position.

    Each index first tries its own pinned rows (samples_used 0).  The seeded
    probes are then drawn and expanded once for all indices: each expanded
    row, its derived triads built, goes to every index still open, and an
    index closes at its first witness, which is shrunk.  Drawing stops once
    no index is open; the indices left open pass.  So each index sees the
    triads a sweep of it alone would see, in the same order, and no row is kept.
    """
    spec = _spec(axiom)
    violation, expand = spec.violation, spec.expand
    evaluates = [index.evaluate for index in indices]
    verdicts: list[AxiomVerdict | None] = [None] * len(indices)

    def close(k: int, witness: Witness, samples_used: int) -> None:
        shrunk = _shrink(spec, witness, evaluates[k])
        verdicts[k] = AxiomVerdict(axiom, "fail", shrunk, samples_used, cfg.master_seed)

    open_ = []
    for k, index in enumerate(indices):
        for row in spec.pinned.get(index.id, ()):
            witness = violation(evaluates[k], *expand(*row))
            if witness is not None:
                close(k, witness, 0)
                break
        else:
            open_.append(k)
    if open_:
        for samples_used, row in spec.probes(cfg):
            expanded = expand(*row)
            # A close rebinds open_; the row still goes to every index it started with.
            for k in open_:
                witness = violation(evaluates[k], *expanded)
                if witness is not None:
                    close(k, witness, samples_used)
                    open_ = [j for j in open_ if j != k]
            if not open_:
                break
    passed = AxiomVerdict(axiom, "pass", None, cfg.samples, cfg.master_seed)
    return [verdict or passed for verdict in verdicts]


def check_axiom(index: IndexDescriptor, axiom: str, cfg: AuditConfig | None = None) -> AxiomVerdict:
    """Search for a violation of `axiom` by `index`; deterministic in (index.id, axiom, cfg).

    The one-cell view of _sweep.
    """
    return _sweep((index,), axiom, cfg if cfg is not None else AuditConfig())[0]


@dataclass(frozen=True)
class AuditReport:
    """Per-axiom verdicts for one index plus the expected-profile comparison."""

    index_id: str
    config: AuditConfig
    verdicts: tuple[AxiomVerdict, ...]
    expected: Mapping[str, str] = field(hash=False)

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


def _requested_axioms(axioms) -> tuple[str, ...]:
    """The requested axioms in canonical order, checked before anything is evaluated:
    TypeError for a bare string, whose letters are no axiom set, ValueError if
    there are none, UnknownAxiomError naming any that is not one of the nine."""
    if isinstance(axioms, str):
        raise TypeError(f"axioms must be a collection of axiom names, not the string {axioms!r}; write ({axioms!r},)")
    requested = set(axioms)
    if not requested:
        raise ValueError("audit requires a non-empty set of axioms")
    unknown = requested - _SPECS.keys()
    if unknown:
        raise UnknownAxiomError(f"unknown axioms {sorted(unknown)}; valid axioms: {', '.join(_SPECS)}")
    return tuple(a for a in _SPECS if a in requested)


def _report(index: IndexDescriptor, cfg: AuditConfig, verdicts: tuple[AxiomVerdict, ...]) -> AuditReport:
    """The report of ``index`` at ``cfg``: its verdicts, each with the index's expected status."""
    return AuditReport(index.id, cfg, verdicts, {v.axiom: index.expected_profile[v.axiom] for v in verdicts})


def audit(index: IndexDescriptor, axioms, cfg: AuditConfig | None = None) -> AuditReport:
    """Run check_axiom for every requested axiom, in canonical axiom order."""
    cfg = cfg if cfg is not None else AuditConfig()
    ordered = _requested_axioms(axioms)
    return _report(index, cfg, tuple(check_axiom(index, a, cfg) for a in ordered))


@dataclass(frozen=True)
class VerdictMatrix:
    """One audit report per index at one config, from which the structural
    results read their cells.  Rows are found by descriptor, not by id: a
    user's descriptor may reuse a catalog id."""

    config: AuditConfig
    rows: tuple[tuple[IndexDescriptor, AuditReport], ...]

    def report(self, index: IndexDescriptor, axioms) -> AuditReport:
        """The report that audit(index, axioms, self.config) returns, read from the matrix."""
        ordered = _requested_axioms(axioms)
        row = next((report for descriptor, report in self.rows if descriptor == index), None)
        if row is None:
            raise LookupError(f"index {index.id!r} is not a row of this verdict matrix")
        return _report(index, self.config, tuple(row.verdict(a) for a in ordered))


def verdict_matrix(indices, axioms, cfg: AuditConfig | None = None) -> VerdictMatrix:
    """Audit every index on `axioms` once, for the structural results to read.

    Axiom by axiom, each probe is drawn once for all indices (see _sweep);
    row k is the report that audit(indices[k], axioms, cfg) returns.
    """
    cfg = cfg if cfg is not None else AuditConfig()
    indices = tuple(indices)
    columns = [_sweep(indices, axiom, cfg) for axiom in _requested_axioms(axioms)]
    rows = tuple((d, _report(d, cfg, verdicts)) for d, verdicts in zip(indices, zip(*columns)))
    return VerdictMatrix(cfg, rows)


def replay_witness(witness: Witness, evaluate: Evaluator, tolerance: float = AuditConfig.tolerance) -> bool:
    """Re-run a witness against `evaluate`; True iff the violation reproduces.
    ``tolerance`` may only restate the equality band, AuditConfig.tolerance: another value raises ValueError."""
    if tolerance != AuditConfig.tolerance:
        raise ValueError(f"a witness replays at the equality band {AuditConfig.tolerance}, not {tolerance!r}")
    spec = _spec(witness.axiom)
    fields = {**witness.triads, **witness.params}
    return spec.violation(evaluate, *spec.expand(*[fields[name] for name in spec.row])) is not None

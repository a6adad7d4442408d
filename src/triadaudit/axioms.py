"""Seeded falsification engine for the nine inconsistency-index axioms.

One table entry per axiom gives its violated relation, its seeded probes and
a handful of pinned probes with known violations; a check searches them in
order for a counterexample.  A verdict of "pass" means "no violation found at
this configuration", never a proof; a "fail" verdict carries a
self-contained witness that replays without the RNG, shrunk to simple entries
first.  Probe i of an axiom draws from its own counter-based stream: the
axiom's key, 8 bytes of the sha256 of (master_seed, axiom), is derived once
per check, and block j of the stream is the keyed blake2b hash of (i, j),
eight draws.  So results do not depend on evaluation order, and growing the
sample count can only turn a pass into a fail.  probe_rng decodes block 0
once, and each probe family builds its triads from those eight draws by
position; MSC and SMSC, whose consistent base is redrawn until its entries
are off 1, read the stream in order through random().  The public samplers
sample_triad and sample_consistent_triad read random() too and build the
same triads from the same draws.

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

import hashlib
import math
import operator
import struct
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import count, permutations
from typing import Callable, Iterator, Mapping

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
from .indices import AXIOMS, IndexDescriptor

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


def probe_key(master_seed: int, tag: str) -> bytes:
    """Key of one family of probe streams (one axiom's probes, or one concordance's
    pairs): 8 bytes of the sha256 of (master_seed, tag)."""
    return hashlib.sha256(f"triadaudit:{int(master_seed)}:{tag}".encode()).digest()[:8]


# Block j of probe i: the 64-byte blake2b of the counter (i, j) as two
# little-endian 64-bit words, keyed by the family's key, read as 8 such words.
_COUNTER = struct.Struct("<2Q")
_WORDS = struct.Struct("<8Q")


def _block(key: bytes, i: int, j: int) -> list[float]:
    """Draws 8j to 8j + 7 of probe i: block j, each word as (word >> 11) * 2**-53."""
    digest = hashlib.blake2b(_COUNTER.pack(i, j), key=key, digest_size=64).digest()
    # Spelled out: on CPython 3.11 a list display is faster than a comprehension.
    w0, w1, w2, w3, w4, w5, w6, w7 = _WORDS.unpack(digest)
    return [
        (w0 >> 11) * 2.0**-53,
        (w1 >> 11) * 2.0**-53,
        (w2 >> 11) * 2.0**-53,
        (w3 >> 11) * 2.0**-53,
        (w4 >> 11) * 2.0**-53,
        (w5 >> 11) * 2.0**-53,
        (w6 >> 11) * 2.0**-53,
        (w7 >> 11) * 2.0**-53,
    ]


def _draws(key: bytes, i: int, first: list[float]) -> Iterator[float]:
    """Every draw of probe i in order: block 0 as already decoded, then blocks 1, 2, ... as reached."""
    yield from first
    for j in count(1):
        yield from _block(key, i, j)


class _ProbeStream:
    """The uniform draws of one probe.

    ``u`` is the list of draws 0-7 (block 0, decoded once), which the probe
    families read by position.  ``random()`` returns the draws in order from
    draw 0 whatever was read from ``u``, and decodes later blocks only when it
    reaches them; ``choice(seq)`` takes one draw.
    """

    __slots__ = ("u", "_key", "_i", "_next")

    def __init__(self, key: bytes, i: int):
        self.u = _block(key, i, 0)
        self._key, self._i, self._next = key, i, None

    @property
    def random(self) -> Callable[[], float]:
        # The generator starts on first use, as most probes read only ``u``.
        # It holds the list, not the stream, so reference counting frees a
        # stream as soon as its probe is built.
        if self._next is None:
            self._next = _draws(self._key, self._i, self.u).__next__
        return self._next

    def choice(self, seq):
        return seq[int(len(seq) * self.random())]


def probe_rng(key: bytes, i: int) -> _ProbeStream:
    """Stream of probe ``i`` (0 <= i < 2**64) of the family keyed by ``key`` (see probe_key).

    Draw m of the stream is word m % 8 of block m // 8, as the float
    ``(word >> 11) * 2**-53``; ``choice`` over n items takes item
    ``int(n * draw)``.  The stream is a pure function of (key, i), so no probe
    depends on the probes drawn before it.  Block 0 is decoded at once into
    the list ``u``, draws 0-7.
    """
    return _ProbeStream(key, i)


def _log_span(entry_range: tuple[float, float]) -> tuple[float, float]:
    """(lo, span) such that a draw u in [0, 1) maps to the log-uniform entry exp(lo + span * u).

    lo + span * u is exactly what random.Random.uniform(lo, hi) computes for hi = log(entry_range[1]).
    """
    lo = math.log(entry_range[0])
    return lo, math.log(entry_range[1]) - lo


def _sampled(lo: float, span: float, u1: float, u2: float, u3: float) -> Triad:
    """The triad of three log-uniform entries, from draws u1, u2, u3."""
    return Triad(math.exp(lo + span * u1), math.exp(lo + span * u2), math.exp(lo + span * u3))


def _consistent(lo: float, span: float, u1: float, u2: float, u3: float) -> Triad:
    """The consistent triad (w1/w2, w1/w3, w2/w3) of three log-uniform weights, from draws u1, u2, u3."""
    w1, w2, w3 = math.exp(lo + span * u1), math.exp(lo + span * u2), math.exp(lo + span * u3)
    return Triad(w1 / w2, w1 / w3, w2 / w3)


def sample_triad(rng: _ProbeStream, entry_range: tuple[float, float]) -> Triad:
    """Three entries from the next three draws of ``rng``, each log-uniform on entry_range."""
    draw = rng.random
    return _sampled(*_log_span(entry_range), draw(), draw(), draw())


def sample_consistent_triad(rng: _ProbeStream, entry_range: tuple[float, float]) -> Triad:
    """Consistent triad from three log-uniform weights, the next three draws of ``rng``: (w1/w2, w1/w3, w2/w3)."""
    draw = rng.random
    return _consistent(*_log_span(entry_range), draw(), draw(), draw())


def _consistent_off_unit(draw: Callable[[], float], lo: float, span: float) -> Triad:
    """The first consistent triad, three draws at a time, with every entry at least _MIN_LOG_ENTRY away from 1."""
    for _ in range(100_000):
        t = _consistent(lo, span, draw(), draw(), draw())
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
    """I(input^b) must not fall below I(input) for b >= 1 nor rise above it for b <= 1, for each b in order.

    b = 1 is skipped: x ** 1.0 == x exactly, so the powered triad is the input
    and neither strict inequality can hold against its own value, NaN included.
    """
    base = evaluate(input)
    for b in bs:
        if b == 1.0:
            continue
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


def _con_violation(
    evaluate: Evaluator, tol: float, input: Triad, position: str, ladder: tuple[float, ...]
) -> Witness | None:
    """I(input with the entry at ``position`` times 1 + eps) must approach I(input)
    as eps walks down ``ladder``: the row fails iff
    ``changes[-1] > max(band, _CON_JUMP_FRACTION * max(changes))``.

    Pass test: since max(changes) >= changes[0], ``changes[-1] <= max(band,
    _CON_JUMP_FRACTION * changes[0])`` proves the pass on the first and last
    rungs alone.  NaN keeps this exact: a NaN last change fails both tests; a
    NaN first change reduces both to ``changes[-1] <= band``, as ``max`` keeps
    a leading NaN and ``max(band, nan)`` is band; a NaN middle change leaves
    max(changes) >= changes[0].  A row the test does not settle evaluates its
    middle rungs too, so a fail witness reports the whole ladder.
    """
    base_value = evaluate(input)
    entry = input.entry(position)

    def change(eps: float) -> float:
        return abs(evaluate(_with_entry(input, position, entry * (1.0 + eps))) - base_value)

    first, last = change(ladder[0]), change(ladder[-1])
    band = _band(tol, base_value)
    if last <= max(band, _CON_JUMP_FRACTION * first):
        return None
    changes = [first, *map(change, ladder[1:-1]), last]
    if last <= max(band, _CON_JUMP_FRACTION * max(changes)):
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
# probes: (samples_used, row) pairs, probe i drawing only from probe_rng(key, i)
# ---------------------------------------------------------------------------

_Probes = Iterator[tuple[int, tuple]]


def _grid_probes(axiom: str, values: tuple, cfg: AuditConfig) -> _Probes:
    """One sampled triad per probe (draws 0-2), followed by every parameter value in `values` (IIP has none)."""
    lo, span = _log_span(cfg.entry_range)
    key = probe_key(cfg.master_seed, axiom)
    for i in range(cfg.samples):
        u = probe_rng(key, i).u
        yield i + 1, (_sampled(lo, span, u[0], u[1], u[2]), *values)


def _hta_probes(cfg: AuditConfig) -> _Probes:
    """(1; a; b) with a and b from draws 0 and 1."""
    lo, span = _log_span(cfg.entry_range)
    key = probe_key(cfg.master_seed, "HTA")
    for i in range(cfg.samples):
        u = probe_rng(key, i).u
        yield i + 1, (Triad(1.0, math.exp(lo + span * u[0]), math.exp(lo + span * u[1])),)


def _urs_probes(cfg: AuditConfig) -> _Probes:
    """A consistent triad (draws 0-2) and a sampled offender (draws 3-5) per probe.
    Probe 0's consistent triad is the reference; it is not compared with itself."""
    lo, span = _log_span(cfg.entry_range)
    key = probe_key(cfg.master_seed, "URS")
    for i in range(cfg.samples):
        u = probe_rng(key, i).u
        consistent = _consistent(lo, span, u[0], u[1], u[2])
        if i:
            yield i + 1, (reference, consistent, "consistent_mismatch")
        else:
            reference = consistent
        yield i + 1, (reference, _sampled(lo, span, u[3], u[4], u[5]), "inconsistent_match")


def _monotone_probes(axiom: str, cfg: AuditConfig) -> _Probes:
    """MSC/SMSC: one row per probe, a whole intensification ladder from a consistent triad.

    The base takes three draws per try, so a probe reads its stream in order
    through ``random()``, past block 0 when the base needs three or more tries;
    the position is the draw after the base.

    Only the side whose perturbations land on the canonical side (consistency
    ratio >= 1) is probed: the side that the independence and characterization
    arguments exercise, and that an asymmetric index such as cx4 must satisfy.
    On a consistent base that side follows from signs alone: the ratio
    t13 / (t12 * t23) rises above 1 when t13 is raised or t12 or t23 lowered.
    """
    lo, span = _log_span(cfg.entry_range)
    key = probe_key(cfg.master_seed, axiom)
    for i in range(cfg.samples):
        draw = probe_rng(key, i).random
        base = _consistent_off_unit(draw, lo, span)
        position = _POSITIONS[int(3 * draw())]
        deltas = _DELTAS_ABOVE if (base.entry(position) > 1.0) == (position == "13") else _DELTAS_BELOW
        yield i + 1, (base, position, 1.0, *deltas)


def _con_probes(cfg: AuditConfig) -> _Probes:
    """A sampled (draws 0-2) and a consistent (draws 3-5) base per probe, sharing the position that draw 6 chooses."""
    lo, span = _log_span(cfg.entry_range)
    key = probe_key(cfg.master_seed, "CON")
    for i in range(cfg.samples):
        u = probe_rng(key, i).u
        bases = (_sampled(lo, span, u[0], u[1], u[2]), _consistent(lo, span, u[3], u[4], u[5]))
        position = _POSITIONS[int(3 * u[6])]
        for base in bases:
            yield i + 1, (base, position, CONTINUITY_LADDER)


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


def _simpler_triads(t: Triad, position: str | None, lo: float, hi: float) -> list[Triad]:
    """Candidates for ``t`` inside its probe domain on entry_range (lo, hi).

    A sampled triad changes the entry at ``position`` to one of its roundings
    in [lo, hi].  A consistent triad (``position`` None) stays consistent:
    roundings of t12 and t23 with t13 = t12 * t23, every entry at most 2
    significant digits and the weights (1, 1/t12, 1/t13) fitting in a ratio hi/lo.
    """
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
    """MSC/SMSC: every entry off 1 by _MIN_LOG_ENTRY in log space, and the ladder
    side (delta above or below 1) still the one that lifts the consistency ratio."""
    if any(abs(math.log(e)) < _MIN_LOG_ENTRY for e in consistent.entries()):
        return False
    return ((consistent.entry(position) > 1.0) == (position == "13")) == (delta > 1.0)


def _shrink(spec: _AxiomSpec, witness: Witness, evaluate: Evaluator, cfg: AuditConfig) -> Witness:
    """The witness with simpler row triads and the same violated relation.

    Greedy, in ``row`` order: a sampled triad entry by entry, a consistent
    triad (URS's reference, MSC's base, CON's consistent base) whole.  A
    candidate is kept when it stays in its probe domain and ``violation`` on
    the changed row returns a witness with the same relation; at most
    _SHRINK_REPLAYS replays are made.
    """
    lo, hi = cfg.entry_range
    fields = {**witness.triads, **witness.params}
    replays = 0
    for name in spec.row:
        if not isinstance(fields[name], Triad):
            continue
        for position in (None,) if is_consistent(fields[name]) else _POSITIONS:
            for candidate in _simpler_triads(fields[name], position, lo, hi):
                row = [candidate if n == name else fields[n] for n in spec.row]
                if not spec.in_domain(*row):
                    continue
                if replays == _SHRINK_REPLAYS:
                    return witness
                replays += 1
                shrunk = spec.violation(evaluate, cfg.tolerance, *row)
                if shrunk is not None and shrunk.relation == witness.relation:
                    fields[name], witness = candidate, shrunk
                    break
    return witness


# ---------------------------------------------------------------------------
# the axiom table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _AxiomSpec:
    """Everything the engine knows about one axiom.

    A row is a tuple of the fields ``row`` names, in that order; a grid or
    ladder row repeats its last field once per value, so one row is one probe
    (URS and CON make two rows per probe, one per triad drawn; URS's probe 0
    makes one, as its consistent triad is the reference).
    ``violation(evaluate, tol, *row)`` evaluates each distinct triad of the
    row once and returns the first violating value's witness, or None.
    ``probes(cfg)`` yields ``(samples_used, row)`` pairs from the seeded
    probes.  A witness stores the fields of its one-value row by name in its
    ``triads`` or ``params``; replay reads them back in ``row`` order and
    passes that one-value row to the same ``violation``.  ``pinned`` maps an
    index id to rows with a violation known in closed form: they are tried
    before any sampling, so the fail verdict does not depend on the budget.
    ``in_domain(*row)`` holds on a shrunk one-value row that keeps the probe
    domain's conditions beyond its triads' entry range (see _shrink).
    """

    violation: Callable[..., Witness | None]
    probes: Callable[[AuditConfig], _Probes]
    row: tuple[str, ...]
    pinned: Mapping[str, tuple[tuple, ...]] = field(default_factory=dict)
    in_domain: Callable[..., bool] = lambda *row: True


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
# The identity is left out, as MRP skips b = 1: its permuted triad equals the
# input, so its row cannot break invariance for a finite value.
_PERMUTATIONS = tuple(permutations(range(3)))[1:]

# Probe domains.  "Sampled": three entries log-uniform on entry_range.
# "Consistent": (w1/w2, w1/w3, w2/w3) from three weights log-uniform on entry_range.
_SPECS: dict[str, _AxiomSpec] = {
    # URS: each probe's sampled offender and each later probe's consistent triad, against probe 0's consistent one.
    "URS": _AxiomSpec(_urs_violation, _urs_probes, ("reference", "offender", "kind")),
    # IPA: a sampled triad under each of the five permutations of the alternatives other than the identity.
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
        in_domain=_monotone_domain,
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
        in_domain=_monotone_domain,
    ),
}


def _sweep(indices: tuple[IndexDescriptor, ...], axiom: str, cfg: AuditConfig) -> list[AxiomVerdict]:
    """The verdict of `axiom` for each of `indices`, by position.

    Each index first tries its own pinned rows (samples_used 0).  The seeded
    probes are then drawn once for all indices: each row goes to every index
    still open, and an index closes at its first witness, which is shrunk.
    Drawing stops once no index is open; the indices left open pass.  So each
    index sees the rows a sweep of it alone would see, and no row is kept.
    """
    spec = _SPECS.get(axiom)
    if spec is None:
        raise UnknownAxiomError(f"unknown axiom {axiom!r}; valid axioms: {', '.join(AXIOMS)}")
    violation, tol = spec.violation, cfg.tolerance
    evaluates = [index.evaluate for index in indices]
    verdicts: list[AxiomVerdict | None] = [None] * len(indices)

    def close(k: int, witness: Witness, samples_used: int) -> None:
        shrunk = _shrink(spec, witness, evaluates[k], cfg)
        verdicts[k] = AxiomVerdict(axiom, "fail", shrunk, samples_used, cfg.master_seed)

    open_ = []
    for k, index in enumerate(indices):
        for row in spec.pinned.get(index.id, ()):
            witness = violation(evaluates[k], tol, *row)
            if witness is not None:
                close(k, witness, 0)
                break
        else:
            open_.append(k)
    if open_:
        for samples_used, row in spec.probes(cfg):
            # A close rebinds open_; the row still goes to every index it started with.
            for k in open_:
                witness = violation(evaluates[k], tol, *row)
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


def _requested_axioms(axioms) -> tuple[str, ...]:
    """The requested axioms in canonical order, checked before anything is evaluated:
    ValueError if there are none, UnknownAxiomError naming any that is not one of the nine."""
    requested = set(axioms)
    if not requested:
        raise ValueError("audit requires a non-empty set of axioms")
    unknown = requested - set(AXIOMS)
    if unknown:
        raise UnknownAxiomError(f"unknown axioms {sorted(unknown)}; valid axioms: {', '.join(AXIOMS)}")
    return tuple(a for a in AXIOMS if a in requested)


def audit(index: IndexDescriptor, axioms, cfg: AuditConfig | None = None) -> AuditReport:
    """Run check_axiom for every requested axiom, in canonical axiom order."""
    cfg = cfg if cfg is not None else AuditConfig()
    ordered = _requested_axioms(axioms)
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

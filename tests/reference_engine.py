"""A reference engine for the tests: the nine axioms and the ranking concordance, each rule stated once,
through the public API only.  Probe i of an axiom draws from probe_rng(probe_key(master_seed, axiom), i) with
the public samplers, and a row's other triads come from the public transforms.  There are no sign-first
tests, no lazy rungs, no sweep and no shrinking: a change to an axiom's rule changes its relation here."""

import math
from functools import lru_cache
from itertools import pairwise, permutations

from triadaudit import (
    AuditConfig, Triad, consistency_ratio, permute_triad, power_transform, probe_key, probe_rng,
    sample_consistent_triad, sample_triad, scale_transform, single_entry_perturb, transpose_triad,
)
from triadaudit.axioms import B_GRID, CONTINUITY_LADDER, DELTA_GRID, K_GRID

TOL = AuditConfig.tolerance
OFF_UNIT = 0.05  # an MSC/SMSC base keeps every entry this far from 1 in log space
CON_FRACTION = 1e-3  # a CON row's last change must be within the band or this fraction of its largest
URS_MARGIN = 10 * TOL  # a URS offender farther than this from consistency must not hit the consistent value
POSITIONS = ("12", "13", "23")


def close(a, b):
    """a equals b: |a - b| <= TOL * max(1, |a|, |b|)."""
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


def band(a, b=0.0):
    """The band by which one of a and b may fall short of the other."""
    return TOL * max(1.0, abs(a), abs(b))


# Each relation takes an evaluate function and a row (see relation).  A row lists the fields of a fail
# witness in order, a grid or ladder field once per value.
def _urs(evaluate, reference, offender, kind):
    v, value = evaluate(reference), evaluate(offender)
    if kind == "consistent_mismatch":
        return None if close(value, v) else {"kind": kind}
    return {"kind": kind} if value == v and abs(consistency_ratio(offender) - 1.0) > URS_MARGIN else None


def _invariant(transform, param=None):
    """I(input) equals I(transform(input, value)) for each value of the row; IIP and HTA transform once."""

    def relation(evaluate, input, *values):
        a = evaluate(input)
        for value in values or (None,):
            if not close(a, evaluate(transform(input, value))):
                return {} if param is None else {param: value}
        return None

    return relation


def _mrp(evaluate, input, *powers):
    """I(input^b) falls below I(input) for no b >= 1 and rises above it for no b <= 1, beyond the band."""
    a = evaluate(input)
    for b in powers:
        c = evaluate(power_transform(input, b))
        if (b >= 1.0 and c < a - band(a, c)) or (b <= 1.0 and c > a + band(a, c)):
            return {"b": b}
    return None


def _monotone(strict):
    """Along the deltas, I(consistent, its entry at position raised to delta) falls beyond the band below
    neither I(consistent) nor its value at the previous delta; if strict, it rises beyond the band above the latter."""

    def relation(evaluate, consistent, position, *deltas):
        base = evaluate(consistent)
        values = [base if d == 1.0 else evaluate(single_entry_perturb(consistent, position, d)) for d in deltas]
        for (delta_prev, prev), (delta, cur) in pairwise(zip(deltas, values)):
            if cur < base - band(base, cur):
                violation = "below_consistent"
            elif cur < prev - band(prev, cur):
                violation = "decrease"
            elif strict and cur - prev <= band(prev, cur):
                violation = "tie"
            else:
                continue
            return {"position": position, "delta_prev": delta_prev, "delta": delta, "violation": violation}
        return None

    return relation


def _con(evaluate, input, position, ladder):
    """|I(input, its entry at position times 1 + eps) - I(input)| vanishes as eps walks down the ladder."""
    base, entries = evaluate(input), (input.t12, input.t13, input.t23)
    rungs = [Triad(*(e * (1.0 + eps) if p == position else e for p, e in zip(POSITIONS, entries))) for eps in ladder]
    changes = [abs(evaluate(t) - base) for t in rungs]
    if changes[-1] <= max(band(base), CON_FRACTION * max(changes)):
        return None
    return {"position": position, "ladder": tuple(ladder)}


def _msc_probe(draw):
    """A consistent base, redrawn until every entry is off 1, and a position; the deltas walk away from 1
    on the side on which the perturbed entry lifts the consistency ratio above 1."""
    base = sample_consistent_triad(draw)
    while min(abs(math.log(e)) for e in (base.t12, base.t13, base.t23)) < OFF_UNIT:
        base = sample_consistent_triad(draw)
    position = POSITIONS[int(3 * draw())]
    if consistency_ratio(single_entry_perturb(base, position, 2.0)) > 1.0:
        return [(base, position, *(d for d in DELTA_GRID if d >= 1.0))]
    return [(base, position, *(d for d in reversed(DELTA_GRID) if d <= 1.0))]


def _hta_probe(draw):
    """(1; a; b), a and b the first two of three draws."""
    t = sample_triad(draw)
    return [(Triad(1.0, t.t12, t.t13),)]


def _con_probe(draw):
    """A sampled and a consistent triad, one position for both."""
    bases = sample_triad(draw), sample_consistent_triad(draw)
    position = POSITIONS[int(3 * draw())]
    return [(base, position, CONTINUITY_LADDER) for base in bases]


def _urs_probe(draw):
    """A consistent triad and a sampled offender, each against the consistent triad (1, 1, 1)."""
    unit = Triad(1.0, 1.0, 1.0)
    return [
        (unit, sample_consistent_triad(draw), "consistent_mismatch"),
        (unit, sample_triad(draw), "inconsistent_match"),
    ]


# Each axiom's relation, and the rows of one probe from its draw function.  The identity permutation and
# b = 1 compare a triad with itself, so no row walks them.
_AXIOMS = {
    "URS": (_urs, _urs_probe),
    "IPA": (_invariant(permute_triad, "perm"), lambda draw: [(sample_triad(draw), *tuple(permutations(range(3)))[1:])]),
    "MRP": (_mrp, lambda draw: [(sample_triad(draw), *(b for b in B_GRID if b != 1.0))]),
    "MSC": (_monotone(strict=False), _msc_probe),
    "CON": (_con, _con_probe),
    "IIP": (_invariant(lambda t, _: transpose_triad(t)), lambda draw: [(sample_triad(draw),)]),
    # (1; a; b) is as inconsistent as (1; a/b; 1).
    "HTA": (_invariant(lambda t, _: Triad(1.0, t.t13 / t.t23, 1.0)), _hta_probe),
    "SI": (_invariant(scale_transform, "k"), lambda draw: [(sample_triad(draw), *K_GRID)]),
    "SMSC": (_monotone(strict=True), _msc_probe),
}


def relation(axiom, evaluate, *row):
    """The witness params of the first violation of ``axiom`` on ``row``, or None."""
    return _AXIOMS[axiom][0](evaluate, *row)


@lru_cache(maxsize=None)
def rows(axiom, cfg):
    """The rows of probes 0 .. cfg.samples - 1, probe i's from its own draw function alone."""
    key = probe_key(cfg.master_seed, axiom)
    return tuple(tuple(_AXIOMS[axiom][1](probe_rng(key, i))) for i in range(cfg.samples))


def check(evaluate, axiom, cfg):
    """(status, samples_used): the first probe with a violating row fails the axiom."""
    for used, probe in enumerate(rows(axiom, cfg), 1):
        if any(relation(axiom, evaluate, *row) is not None for row in probe):
            return "fail", used
    return "pass", cfg.samples


# The names of a fail witness's triads and params, in the order of a row.
_WITNESS_FIELDS = {
    "URS": ("reference", "offender", "kind"), "IPA": ("input", "perm"), "MRP": ("input", "b"),
    "MSC": ("consistent", "position", "delta_prev", "delta"), "CON": ("input", "position", "ladder"),
    "IIP": ("input",), "HTA": ("input",), "SI": ("input", "k"),
}
_WITNESS_FIELDS["SMSC"] = _WITNESS_FIELDS["MSC"]


def witness_row(witness):
    """The one-value row that a fail witness stores."""
    fields = {**witness.triads, **witness.params}
    return tuple(fields[name] for name in _WITNESS_FIELDS[witness.axiom])


def pairs(cfg):
    """Pair i of a concordance: two sampled triads from probe_rng(probe_key(master_seed, "pair"), i)."""
    key = probe_key(cfg.master_seed, "pair")
    return [(sample_triad(draw), sample_triad(draw)) for draw in (probe_rng(key, i) for i in range(cfg.samples))]


def concordance(a, b, cfg):
    """(concordant, discordant, ties_a_only, ties_b_only, ties_both) of the evaluate functions a and b over
    the pairs: an index ties a pair whose two values are equal, and untied indices concord if they order it alike."""
    counts = [0] * 5
    for s, t in pairs(cfg):
        tie_a, tie_b = close(a(s), a(t)), close(b(s), b(t))
        concordant = (a(s) - a(t)) * (b(s) - b(t)) > 0.0
        counts[4 if tie_a and tie_b else 2 if tie_a else 3 if tie_b else 0 if concordant else 1] += 1
    return tuple(counts)

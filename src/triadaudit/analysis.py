"""Executable reproductions of the structural results about the axiom system.

Three experiments, each read off one index x axiom verdict matrix built by
the falsification engine:

* the independence table: each counterexample index cx1..cx6 violates
  exactly one of {URS, MSC, CON, IIP, HTA, SI} and passes the other five;
* the implication rules: certain axiom subsets force another axiom, so no
  index may pass all premises yet fail the conclusion;
* ranking concordance and the characterization check: any index passing
  {SMSC, IIP, HTA, SI} must rank triads exactly like the natural index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Mapping

from .axioms import _LO, _SPAN, AuditConfig, AuditReport, VerdictMatrix, Witness, _stream, verdict_matrix
from .axioms import audit, probe_rng, sample_triad  # noqa: F401  (perfbench's tracer wraps these names here)
from .core import Triad, _close
from .indices import CATALOG, IndexDescriptor, get_index

__all__ = [
    "INDEPENDENCE_AXIOMS",
    "INDEPENDENCE_ROWS",
    "IMPLICATION_RULES",
    "ImplicationRule",
    "ImplicationVerdict",
    "IndependenceCell",
    "IndependenceRow",
    "IndependenceTable",
    "ConcordanceStats",
    "CharacterizationVerdict",
    "independence_table",
    "audit_implications",
    "ranking_concordance",
    "characterization_check",
]


def _matrix(source: AuditConfig | VerdictMatrix | None, indices, axioms) -> VerdictMatrix:
    """`source` itself, or the cells `indices` x `axioms` audited at the config `source`."""
    return source if isinstance(source, VerdictMatrix) else verdict_matrix(indices, axioms, source)


# Columns and rows of the independence experiment: cx_i is expected to fail
# exactly the i-th axiom of this list.
INDEPENDENCE_AXIOMS = ("URS", "MSC", "CON", "IIP", "HTA", "SI")
INDEPENDENCE_ROWS = ("cx1", "cx2", "cx3", "cx4", "cx5", "cx6")


@dataclass(frozen=True)
class IndependenceCell:
    axiom: str
    status: str
    expected: str
    witness: Witness | None

    @property
    def match(self) -> bool:
        return self.status == self.expected


@dataclass(frozen=True)
class IndependenceRow:
    index_id: str
    cells: tuple[IndependenceCell, ...]

    @property
    def matches_expected(self) -> bool:
        return all(c.match for c in self.cells)


@dataclass(frozen=True)
class IndependenceTable:
    rows: tuple[IndependenceRow, ...]
    config: AuditConfig

    @property
    def matches_expected(self) -> bool:
        return all(r.matches_expected for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "axioms": list(INDEPENDENCE_AXIOMS),
            "rows": [
                {
                    "index": row.index_id,
                    "cells": [
                        {"axiom": c.axiom, "status": c.status, "expected": c.expected, "match": c.match}
                        for c in row.cells
                    ],
                    "matches_expected": row.matches_expected,
                }
                for row in self.rows
            ],
            "matches_expected": self.matches_expected,
        }


def independence_table(source: AuditConfig | VerdictMatrix | None = None) -> IndependenceTable:
    """cx1..cx6 against the six independence axioms, read from a verdict
    matrix or audited at a config.

    Each cell expects the status of its row's catalog profile, which is
    diagonal: cx_i fails axiom i and passes the other five.
    """
    descriptors = [get_index(row_id) for row_id in INDEPENDENCE_ROWS]
    matrix = _matrix(source, descriptors, INDEPENDENCE_AXIOMS)
    rows = []
    for descriptor in descriptors:
        report = matrix.report(descriptor, INDEPENDENCE_AXIOMS)
        cells = tuple(IndependenceCell(v.axiom, v.status, report.expected[v.axiom], v.witness) for v in report.verdicts)
        rows.append(IndependenceRow(index_id=descriptor.id, cells=cells))
    return IndependenceTable(rows=tuple(rows), config=matrix.config)


@dataclass(frozen=True)
class ImplicationRule:
    premises: tuple[str, ...]
    conclusion: str

    @property
    def name(self) -> str:
        return f"{'+'.join(self.premises)}=>{self.conclusion}"


# Axiom subsets that provably force another axiom on triads.  The engine can
# therefore never observe "all premises pass, conclusion fails" for a sound
# checker; such a verdict flags an engine defect or tolerance artifact.
IMPLICATION_RULES: tuple[ImplicationRule, ...] = (
    ImplicationRule(premises=("IIP", "HTA", "SI"), conclusion="IPA"),
    ImplicationRule(premises=("URS", "MSC", "IIP", "HTA", "SI"), conclusion="MRP"),
    ImplicationRule(premises=("SMSC", "CON", "HTA", "SI"), conclusion="URS"),
)


@dataclass(frozen=True)
class ImplicationVerdict:
    rule: ImplicationRule
    index_id: str
    premise_status: Mapping[str, str] = field(hash=False)
    conclusion_status: str
    status: str  # "consistent-with-lemma" | "counterexample-to-lemma"
    vacuous: bool
    witness: Witness | None


def _implication_verdict(rule: ImplicationRule, report: AuditReport) -> ImplicationVerdict:
    premise_status = {a: report.verdict(a).status for a in rule.premises}
    conclusion = report.verdict(rule.conclusion)
    premises_hold = all(s == "pass" for s in premise_status.values())
    broken = premises_hold and conclusion.status == "fail"
    return ImplicationVerdict(
        rule=rule,
        index_id=report.index_id,
        premise_status=premise_status,
        conclusion_status=conclusion.status,
        status="counterexample-to-lemma" if broken else "consistent-with-lemma",
        vacuous=not premises_hold,
        witness=conclusion.witness if broken else None,
    )


def audit_implications(source: AuditConfig | VerdictMatrix | None = None) -> tuple[ImplicationVerdict, ...]:
    """Evaluate every implication rule on each row of a verdict matrix, in row
    order, or on the catalog audited at a config."""
    needed = {a for rule in IMPLICATION_RULES for a in rule.premises + (rule.conclusion,)}
    matrix = _matrix(source, CATALOG, needed)
    return tuple(_implication_verdict(rule, report) for _, report in matrix.rows for rule in IMPLICATION_RULES)


@dataclass(frozen=True)
class ConcordanceStats:
    """Pairwise ranking agreement between two indices over sampled triad pairs."""

    index_a: str
    index_b: str
    pairs: int
    concordant: int
    discordant: int
    ties_a_only: int
    ties_b_only: int
    ties_both: int
    kendall_tau_b: float
    discordant_witness: Witness | None = None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "discordant_witness"}


def ranking_concordance(
    a: IndexDescriptor, b: IndexDescriptor, cfg: AuditConfig | None = None
) -> ConcordanceStats:
    """Classify cfg.samples sampled triad pairs by the sign pattern of both indices.

    Pair i draws from stream i of the family "pair" alone, so swapping the
    two indices evaluates the exact same pairs with the tie columns swapped:
    s from draws 0-2 and t from draws 3-5 of block 0, read through the probe
    families' one stream entry point, as two sample_triad calls on the draw
    function probe_rng(probe_key(master_seed, "pair"), i) would draw them.
    """
    cfg = cfg if cfg is not None else AuditConfig()
    eval_a, eval_b, close, exp, lo, span = a.evaluate, b.evaluate, _close, math.exp, _LO, _SPAN
    concordant = discordant = ties_a_only = ties_b_only = ties_both = 0
    witness = None
    _, draws = _stream("pair", 6, cfg)
    for u0, u1, u2, u3, u4, u5 in draws:
        s = Triad(exp(lo + span * u0), exp(lo + span * u1), exp(lo + span * u2))
        t = Triad(exp(lo + span * u3), exp(lo + span * u4), exp(lo + span * u5))
        a_s, a_t, b_s, b_t = eval_a(s), eval_a(t), eval_b(s), eval_b(t)
        tie_a, tie_b = close(a_s, a_t), close(b_s, b_t)
        if tie_a and tie_b:
            ties_both += 1
        elif tie_a:
            ties_a_only += 1
        elif tie_b:
            ties_b_only += 1
        elif (a_s - a_t) * (b_s - b_t) > 0.0:
            concordant += 1
        else:
            discordant += 1
            if witness is None:
                witness = Witness(
                    axiom="concordance",
                    relation="the two indices order this pair in opposite strict directions",
                    triads={"s": s, "t": t},
                    params={"index_a": a.id, "index_b": b.id},
                    observed={"a_s": a_s, "a_t": a_t, "b_s": b_s, "b_t": b_t},
                )
    # tau-b: a pair tied in both indices counts among the ties of each.
    untied_a = cfg.samples - (ties_a_only + ties_both)
    untied_b = cfg.samples - (ties_b_only + ties_both)
    denom = math.sqrt(untied_a * untied_b)
    tau = (concordant - discordant) / denom if denom else 0.0
    return ConcordanceStats(
        a.id, b.id, cfg.samples, concordant, discordant, ties_a_only, ties_b_only, ties_both, tau, witness
    )


# The four axioms that pin down the natural ranking.
CHARACTERIZATION_AXIOMS = ("SMSC", "IIP", "HTA", "SI")


@dataclass(frozen=True)
class CharacterizationVerdict:
    """Outcome of testing whether an index induces the natural ranking."""

    index_id: str
    audit_report: AuditReport
    premises_met: bool
    concordance: ConcordanceStats | None
    status: str  # "order-equivalent" | "premises-not-met" | "not-order-equivalent"


def characterization_check(
    index: IndexDescriptor, source: AuditConfig | VerdictMatrix | None = None
) -> CharacterizationVerdict:
    """Read {SMSC, IIP, HTA, SI} from a verdict matrix or audit them at a config;
    when all pass, demand full order-equivalence with the natural index (no
    discordance and no one-sided ties) at the same config."""
    matrix = _matrix(source, (index,), CHARACTERIZATION_AXIOMS)
    report = matrix.report(index, CHARACTERIZATION_AXIOMS)
    if not report.all_pass:
        return CharacterizationVerdict(index.id, report, False, None, "premises-not-met")
    stats = ranking_concordance(index, get_index("natural"), matrix.config)
    equivalent = stats.discordant == 0 and stats.ties_a_only == 0 and stats.ties_b_only == 0
    return CharacterizationVerdict(
        index.id, report, True, stats, "order-equivalent" if equivalent else "not-order-equivalent"
    )

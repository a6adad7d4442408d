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
from dataclasses import dataclass, fields
from typing import Mapping

from .axioms import AuditConfig, AuditReport, Witness, _log_span, _requested_axioms, _sampled, _sweep, probe_key, probe_rng
from .axioms import audit, sample_triad  # noqa: F401  (perfbench's tracer wraps analysis.audit and analysis.sample_triad)
from .indices import AXIOMS, CATALOG, IndexDescriptor, get_index

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
    "VerdictMatrix",
    "verdict_matrix",
    "independence_table",
    "audit_implications",
    "ranking_concordance",
    "characterization_check",
]


@dataclass(frozen=True)
class VerdictMatrix:
    """One audit report per index at one config, from which the structural
    results read their cells.  Rows are found by descriptor, not by id: a
    user's descriptor may reuse a catalog id."""

    config: AuditConfig
    rows: tuple[tuple[IndexDescriptor, AuditReport], ...]

    def report(self, index: IndexDescriptor, axioms) -> AuditReport:
        """The report that audit(index, axioms, self.config) returns, read from the matrix."""
        row = next((report for descriptor, report in self.rows if descriptor == index), None)
        if row is None:
            raise LookupError(f"index {index.id!r} is not a row of this verdict matrix")
        wanted = set(axioms)
        verdicts = tuple(row.verdict(a) for a in AXIOMS if a in wanted)
        return AuditReport(row.index_id, self.config, verdicts, {v.axiom: row.expected[v.axiom] for v in verdicts})


def verdict_matrix(indices, axioms, cfg: AuditConfig | None = None) -> VerdictMatrix:
    """Audit every index on `axioms` once, for the structural results to read.

    Axiom by axiom, each probe is drawn once for all indices (see
    axioms._sweep); row k is the report that audit(indices[k], axioms, cfg)
    returns.
    """
    cfg = cfg if cfg is not None else AuditConfig()
    indices = tuple(indices)
    ordered = _requested_axioms(axioms)
    columns = [_sweep(indices, axiom, cfg) for axiom in ordered]
    rows = tuple(
        (d, AuditReport(d.id, cfg, verdicts, {a: d.expected_profile[a] for a in ordered}))
        for d, verdicts in zip(indices, zip(*columns))
    )
    return VerdictMatrix(cfg, rows)


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

    The expected pattern is diagonal: cx_i fails axiom i and passes the
    other five.
    """
    descriptors = [get_index(row_id) for row_id in INDEPENDENCE_ROWS]
    matrix = _matrix(source, descriptors, INDEPENDENCE_AXIOMS)
    rows = []
    for descriptor, designated in zip(descriptors, INDEPENDENCE_AXIOMS):
        cells = tuple(
            IndependenceCell(v.axiom, v.status, "fail" if v.axiom == designated else "pass", v.witness)
            for v in matrix.report(descriptor, INDEPENDENCE_AXIOMS).verdicts
        )
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
    premise_status: Mapping[str, str]
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


def audit_implications(
    source: AuditConfig | VerdictMatrix | None = None, indices=None
) -> tuple[ImplicationVerdict, ...]:
    """Evaluate every implication rule over `indices` (default: the catalog),
    read from a verdict matrix or audited at a config."""
    indices = tuple(indices) if indices is not None else CATALOG
    needed = {a for rule in IMPLICATION_RULES for a in rule.premises + (rule.conclusion,)}
    matrix = _matrix(source, indices, needed)
    return tuple(
        _implication_verdict(rule, matrix.report(descriptor, needed))
        for descriptor in indices
        for rule in IMPLICATION_RULES
    )


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

    Pair i draws from probe_rng(probe_key(master_seed, "pair"), i) alone, so
    swapping the two indices evaluates the exact same pairs with the tie
    columns swapped: s from draws 0-2 and t from draws 3-5, as two
    sample_triad calls on the stream would draw them.
    """
    cfg = cfg if cfg is not None else AuditConfig()
    counts = dict.fromkeys(("concordant", "discordant", "ties_a_only", "ties_b_only", "ties_both"), 0)
    witness = None
    lo, span = _log_span(cfg.entry_range)
    key = probe_key(cfg.master_seed, "pair")
    for i in range(cfg.samples):
        u = probe_rng(key, i).u
        s = _sampled(lo, span, u[0], u[1], u[2])
        t = _sampled(lo, span, u[3], u[4], u[5])
        a_s, a_t = a.evaluate(s), a.evaluate(t)
        b_s, b_t = b.evaluate(s), b.evaluate(t)
        tie_a = math.isclose(a_s, a_t, rel_tol=cfg.tolerance, abs_tol=cfg.tolerance)
        tie_b = math.isclose(b_s, b_t, rel_tol=cfg.tolerance, abs_tol=cfg.tolerance)
        if tie_a or tie_b:
            kind = "ties_both" if tie_a and tie_b else "ties_a_only" if tie_a else "ties_b_only"
        elif (a_s - a_t) * (b_s - b_t) > 0.0:
            kind = "concordant"
        else:
            kind = "discordant"
            if witness is None:
                witness = Witness(
                    axiom="concordance",
                    relation="the two indices order this pair in opposite strict directions",
                    triads={"s": s, "t": t},
                    params={"index_a": a.id, "index_b": b.id},
                    observed={"a_s": a_s, "a_t": a_t, "b_s": b_s, "b_t": b_t},
                )
        counts[kind] += 1
    # tau-b: a pair tied in both indices counts among the ties of each.
    untied_a = cfg.samples - (counts["ties_a_only"] + counts["ties_both"])
    untied_b = cfg.samples - (counts["ties_b_only"] + counts["ties_both"])
    denom = math.sqrt(untied_a * untied_b)
    tau = (counts["concordant"] - counts["discordant"]) / denom if denom else 0.0
    return ConcordanceStats(a.id, b.id, cfg.samples, **counts, kendall_tau_b=tau, discordant_witness=witness)


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

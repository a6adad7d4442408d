#!/usr/bin/env python3
"""Run the full result sweep in one go.

Reproduces, at desk scale: the pinned index values, the observed-vs-expected
axiom profile of every catalog index, the six-axiom independence table, the
three implication rules over the catalog, the headline ranking concordances
and the characterization verdicts.  The profiles, the table, the rules and the
characterizations all read one 12x9 verdict matrix, with each axiom's probes
drawn once for all 12 indices.  Exits 1 when a catalog profile departs from
its expected one, the independence table departs from the diagonal or a rule
gets a counterexample, else 0.
"""

import argparse
import time

from triadaudit import (
    AXIOMS,
    CATALOG,
    AuditConfig,
    Triad,
    audit_implications,
    characterization_check,
    get_index,
    independence_table,
    ranking_concordance,
    scale_dependent_index,
    verdict_matrix,
)
from triadaudit.analysis import INDEPENDENCE_AXIOMS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--pair-samples", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    cfg = AuditConfig(samples=args.samples, master_seed=args.seed)
    pair_cfg = AuditConfig(samples=args.pair_samples, master_seed=args.seed)
    started = time.time()

    print("== pinned values ==")
    print(f"scale_dependent(1,3,2) = {scale_dependent_index(Triad(1, 3, 2)):.12g}   (19/6)")
    print(f"scale_dependent(1,6,4) = {scale_dependent_index(Triad(1, 6, 4)):.12g}   (5)")
    print(f"cx5(1,8,4)             = {get_index('cx5').evaluate(Triad(1, 8, 4)):.12g}   (17/4)")
    print(f"cx6(1,8,4)             = {get_index('cx6').evaluate(Triad(1, 8, 4)):.12g}   (3/2)")
    print(f"cx6(2,32,8)            = {get_index('cx6').evaluate(Triad(2, 32, 8)):.12g}   (9/4)")

    print(f"\n== catalog profiles (samples={cfg.samples}, seed={cfg.master_seed}) ==")
    matrix = verdict_matrix(CATALOG, AXIOMS, cfg)
    print(f"{'index':<20}  " + "  ".join(f"{a:<4}" for a in AXIOMS) + "  profile")
    mismatches = 0
    for descriptor, report in matrix.rows:
        cells = "  ".join(f"{report.verdict(a).status:<4}" for a in AXIOMS)
        if report.matches_expected:
            note = "as expected"
        else:
            mismatches += 1
            wrong = [v.axiom for v in report.verdicts if v.status != report.expected[v.axiom]]
            note = f"MISMATCH on {', '.join(wrong)}"
        print(f"{descriptor.id:<20}  {cells}  {note}")
    print(f"{mismatches} mismatching profiles")

    print("\n== independence table ==")
    table = independence_table(matrix)
    print("index  " + "  ".join(f"{a:<4}" for a in INDEPENDENCE_AXIOMS))
    for row in table.rows:
        print(f"{row.index_id:<5}  " + "  ".join(f"{c.status:<4}" for c in row.cells))
    print(f"matches expected diagonal: {table.matches_expected}")

    print("\n== implication rules over the catalog ==")
    verdicts = audit_implications(matrix)
    broken = [v for v in verdicts if v.status == "counterexample-to-lemma"]
    print(f"checked {len(verdicts)} (rule, index) combinations; counterexamples: {len(broken)}")
    for v in broken:
        print(f"  COUNTEREXAMPLE {v.rule.name} on {v.index_id}")

    print(f"\n== ranking concordance vs natural (pairs={pair_cfg.samples}) ==")
    for other in ("koczkodaj", "saaty_ci", "discretised_natural", "scale_dependent", "flat"):
        s = ranking_concordance(get_index("natural"), get_index(other), pair_cfg)
        print(
            f"{other:<20} concordant={s.concordant:<6} discordant={s.discordant:<5} "
            f"a_only={s.ties_a_only:<5} b_only={s.ties_b_only:<5} both={s.ties_both:<5} "
            f"tau_b={s.kendall_tau_b:.6f}"
        )

    print("\n== characterization (SMSC + IIP + HTA + SI => natural ranking) ==")
    for index_id in ("koczkodaj", "saaty_ci", "discretised_natural", "cx4", "flat", "scale_dependent"):
        verdict = characterization_check(get_index(index_id), matrix)
        print(f"{index_id:<20} {verdict.status}")

    print(f"\ndone in {time.time() - started:.1f}s")
    # The paper's results: every expected profile, the diagonal independence table and no counterexample to a rule.
    return 0 if not mismatches and table.matches_expected and not broken else 1


if __name__ == "__main__":
    raise SystemExit(main())

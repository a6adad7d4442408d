#!/usr/bin/env python3
"""Print the observed-vs-expected axiom profile of every catalog index."""

import argparse
import time

from triadaudit import AXIOMS, CATALOG, AuditConfig, verdict_matrix


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    cfg = AuditConfig(samples=args.samples, master_seed=args.seed)

    started = time.time()
    header = "  ".join(f"{a:<4}" for a in AXIOMS)
    print(f"{'index':<20}  {header}  profile")
    mismatches = 0
    for descriptor, report in verdict_matrix(CATALOG, AXIOMS, cfg).rows:
        cells = "  ".join(f"{report.verdict(a).status:<4}" for a in AXIOMS)
        if report.matches_expected:
            note = "as expected"
        else:
            mismatches += 1
            wrong = [v.axiom for v in report.verdicts if v.status != report.expected[v.axiom]]
            note = f"MISMATCH on {', '.join(wrong)}"
        print(f"{descriptor.id:<20}  {cells}  {note}")
    print(f"\n{mismatches} mismatching profiles; {time.time() - started:.1f}s at samples={cfg.samples}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())

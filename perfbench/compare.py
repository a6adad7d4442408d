#!/usr/bin/env python3
"""Compare two result sets made by ``collect.py`` (A = parent, B = change).

    python3 perfbench/compare.py A.jsonl B.jsonl

For every workload and metric it prints each side's median and quartiles,
the share of paired runs that B won (runs are paired by seed, else by
order; ties count for neither), and a status for end-to-end metrics:

* ``regression``: B's median is worse than A's by more than the bound;
* ``unresolved``: either side's spread (quartile distance over median) is
  wider than the bound, and neither side beat the other on every run;
* ``within bound``: otherwise.  ``gain`` is added when B won at least nine
  tenths of the pairs, the medians differ by more than A's quartile
  distance, and B failed no larger share of its operations than A.

Per-layer metrics have no bound and get no status.  Before the metrics, a
line per workload gives each side's failed/attempted operations and its
count of incorrect runs; ``more failures`` marks a workload where B failed a
larger share or had more incorrect runs, and counts as a regression.  Give
sets made in one sitting with alternating runs (``collect.py`` with two
``--src``); sets made at different times differ by the host's drift.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """(workload, trace, metric) -> [(seed, value), ...] in file order;
    (workload, trace) -> [failed, attempted, incorrect runs]; and the
    machine facts of the set."""
    runs: dict = {}
    failures: dict = {}
    machines = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            result = rec["result"]
            machines.add(json.dumps(rec["machine"], sort_keys=True))
            for name, metric in result["metrics"].items():
                runs.setdefault((rec["workload"], rec["trace"], name), []).append((rec["seed"], metric["value"]))
            counts = failures.setdefault((rec["workload"], rec["trace"]), [0, 0, 0])
            counts[0] += result["failed"]
            counts[1] += result["attempted"]
            counts[2] += not result["correct"]
    return runs, failures, sorted(machines)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def pairs(a, b):
    seeds_b = {}
    for seed, value in b:
        seeds_b.setdefault(seed, []).append(value)
    matched = []
    for seed, value in a:
        if seeds_b.get(seed):
            matched.append((value, seeds_b[seed].pop(0)))
    if not matched:
        matched = list(zip((v for _, v in a), (v for _, v in b)))
    return matched


def status(metric, qa, qb, va, vb, won_share, more_failures):
    lower = metric["better"] == "lower"
    sign = 1.0 if lower else -1.0
    worse_by = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
    b_always_better = all(sign * (y - x) < 0 for x in va for y in vb)
    b_always_worse = all(sign * (y - x) > 0 for x in va for y in vb)
    if spread > metric["bound"] and not (b_always_better or b_always_worse):
        return "unresolved"
    if worse_by > metric["bound"]:
        return "regression"
    gain = won_share >= 0.9 and sign * (qa[1] - qb[1]) > (qa[2] - qa[0]) and not more_failures
    return "within bound, gain" if gain else "within bound"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    metrics = {m["name"]: (m, 0) for m in spec["end_to_end"]} | {m["name"]: (m, 1) for m in spec["per_layer"]}
    (a, fails_a, machines_a), (b, fails_b, machines_b) = load(argv[0]), load(argv[1])
    print(f"A: {', '.join(machines_a)}\nB: {', '.join(machines_b)}")
    regressions = 0
    more_failures = {}
    for key in sorted(set(fails_a) & set(fails_b)):
        (af, aa, ai), (bf, ba, bi) = fails_a[key], fails_b[key]
        more_failures[key] = bf / ba > af / aa or bi > ai
        regressions += more_failures[key]
        print(
            f"{key[0]:<17} trace={key[1]}  failed A {af}/{aa}, B {bf}/{ba}; incorrect runs A {ai}, B {bi}"
            + ("  more failures" if more_failures[key] else "")
        )
    header = f"{'workload':<17} {'metric':<30} {'A q1/median/q3':>30} {'B q1/median/q3':>30} {'B won':>6}  status"
    print(header)
    for key in sorted(set(a) & set(b)):
        workload, trace, name = key
        if name not in metrics or metrics[name][1] != trace:
            continue
        metric = metrics[name][0]
        va, vb = [v for _, v in a[key]], [v for _, v in b[key]]
        qa, qb = quartiles(va), quartiles(vb)
        matched = pairs(a[key], b[key])
        sign = 1.0 if metric["better"] == "lower" else -1.0
        won = sum(1 for x, y in matched if sign * (y - x) < 0) / len(matched)
        worse_failing = more_failures.get((workload, trace), False)
        verdict = status(metric, qa, qb, va, vb, won, worse_failing) if "bound" in metric else "-"
        regressions += verdict == "regression"
        fa = "/".join(f"{q:.4g}" for q in qa)
        fb = "/".join(f"{q:.4g}" for q in qb)
        print(f"{workload:<17} {name:<30} {fa:>30} {fb:>30} {won:>6.0%}  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Make result sets: run the benchmark over several seeds and workloads.

    python3 perfbench/collect.py --out results.jsonl [--workloads a,b] [--seeds 1-10] [--trace 0|1]
    python3 perfbench/collect.py --src PARENT/src --out A.jsonl --src CHANGE/src --out B.jsonl [...]

Each run appends one JSON line ``{"workload", "seed", "trace", "machine",
"elapsed_s", "raw", "result"}`` to its ``--out``; ``raw`` holds the
untraced run's raw median pass time and reference time (``hostspeed.py``).  With one ``--out`` the checkout's
own ``src`` is measured unless ``--src`` names another.  With two, each
``--src`` is measured into the ``--out`` given in the same position, and the
two sides run back to back for every workload and seed, alternating which
runs first.  The host's speed drifts by more than any bound over tens of
minutes, so only sets made this way, in one sitting, are fit for
``compare.py A.jsonl B.jsonl``.  At the end the spread of every metric of
each set, the distance between its first and third quartile as a share of
its median, is printed next to a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), "numpy": numpy_version}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", action="append", required=True, help="result file; give two to compare")
    parser.add_argument("--src", action="append", type=Path, help="triadaudit sources, one per --out")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,2026")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    srcs = args.src or [ROOT / "src"]
    if len(args.out) > 2 or len(srcs) != len(args.out):
        parser.error("give one --out, or two --out with one --src each")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    machine = machine_facts()
    sides = list(zip(srcs, args.out))
    values: dict[tuple[str, str, str], list[float]] = {}
    for workload in args.workloads.split(","):
        for i, seed in enumerate(parse_seeds(args.seeds)):
            for src, out in sides[i % len(sides) :] + sides[: i % len(sides)]:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
                cmd += ["--trace", str(args.trace), "--src", str(src.resolve())]
                t0 = time.monotonic()
                proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
                elapsed = time.monotonic() - t0
                if proc.returncode != 0:
                    print(f"{out} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    return 1
                lines = [json.loads(line) for line in proc.stdout.strip().splitlines()[-2:]]
                result, raw = lines[-1], lines[0].get("raw") if len(lines) == 2 else None
                record = {"workload": workload, "seed": seed, "trace": args.trace, "machine": machine}
                record |= {"elapsed_s": elapsed, "raw": raw, "result": result}
                with open(out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                print(
                    f"{out} {workload} seed {seed} ({elapsed:.0f} s): correct={result['correct']} "
                    f"failed={result['failed']}/{result['attempted']} "
                    + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                    + (f" raw_wall_s={raw['wall_s']:.5g} reference_ms={raw['reference_ms']:.4g}" if raw else ""),
                    flush=True,
                )
                for name, metric in result["metrics"].items():
                    values.setdefault((out, workload, name), []).append(metric["value"])
    if args.trace:
        return 0
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n{'set':<12} {'workload':<17} {'metric':<12} {'median':>10} {'spread':>8} {'bound/3':>8}")
    for (out, workload, name), vals in values.items():
        if len(vals) >= 2:
            s = spread(vals)
            flag = "" if s < bounds[name] / 3 else "  <-- above a third of the bound"
            print(
                f"{Path(out).name:<12} {workload:<17} {name:<12} {statistics.median(vals):>10.4g} {s:>8.3f}"
                f" {bounds[name] / 3:>8.3f}{flag}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

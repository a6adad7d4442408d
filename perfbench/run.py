#!/usr/bin/env python3
"""Benchmark of triadaudit: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--src DIR]
    python3 perfbench/run.py --smoke

Run from the root of a checkout; triadaudit is imported from its ``src``
directory, or from ``--src``, never from an installed copy.  The workload
runs in a fresh worker process (``worker.py``).  With ``--trace 0`` the last
line of stdout holds every end-to-end metric of BENCHMARK.json; with
``--trace 1`` it holds every per-layer metric, taken from a traced run.
``setup_s`` is the median over 31 fresh interpreters, each timed from spawn
until triadaudit is imported and the workload's inputs are prepared; half of
them run before the workload and half after.  Every reported time is
normalised to a reference host speed (``hostspeed.py``); the line before
the result gives the raw median pass time and reference time.

``--smoke`` runs every workload at tiny sizes, untraced and traced, and
checks that every metric named in BENCHMARK.json is emitted with its unit.
Exit status is 0 on success, 2 on a usage error or a broken checkout, 1 if
a worker fails or a smoke check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import Clock
from workloads import WORKLOADS, clean_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SETUP_PROBES = 31
# A run must end within 180 s: set-up probes and the worker share this.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def spawn_worker(src, workload, seed, extra, deadline) -> str:
    """Run worker.py to completion and return its stdout.  Past `deadline`
    (a perf_counter reading) kill the worker's whole process group and reap
    it."""
    cmd = [sys.executable, str(WORKER), "--src", str(src), "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=clean_env(),
        start_new_session=True,
    )
    timeout = max(1.0, deadline - perf_counter())
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker for {workload} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return out


def setup_times(src, workload, seed, smoke, deadline, probes) -> list[float]:
    """Normalised times from spawn to ready of `probes` fresh workers."""
    clock = Clock()
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        out = spawn_worker(src, workload, seed, ["--setup-only"] + (["--smoke"] if smoke else []), deadline)
        word, _, ready_at = out.strip().partition(" ")
        if word != "ready":
            raise BenchError(f"set-up of {workload} printed {out.strip()[-200:]!r}")
        times.append(clock.normalise(float(ready_at) - t0))
    return times


def run_once(spec, workload, seed, seconds, trace, smoke=False, src=SRC) -> dict:
    deadline = perf_counter() + DEADLINE_S
    names = spec["per_layer"] if trace else spec["end_to_end"]
    before = 0 if trace else SETUP_PROBES // 2
    after = 0 if trace else SETUP_PROBES - before
    setup = setup_times(src, workload, seed, smoke, deadline, before)
    extra = ["--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    result = json.loads(spawn_worker(src, workload, seed, extra, deadline).strip().splitlines()[-1])
    setup += setup_times(src, workload, seed, smoke, deadline, after)
    values = {"setup_s": statistics.median(setup)} if setup else {}
    values.update(result["metrics"])
    for message in result["messages"]:
        print(f"check failed: {message}", file=sys.stderr)
    if "raw" in result:
        print(json.dumps({"raw": result["raw"]}))
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        raise BenchError(f"worker did not report {missing}")
    return {
        # A bad input whose command crashed instead of rejecting it counts
        # as failed only; every other failure makes the run incorrect.
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }


def smoke(spec, src) -> int:
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = perf_counter()
            result = run_once(spec, workload, 42, 0.0, trace, smoke=True, src=src)
            names = spec["per_layer"] if trace else spec["end_to_end"]
            for m in names:
                got = result["metrics"].get(m["name"])
                if not got or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{workload} trace={trace}: {m['name']} missing or without unit {m['unit']}")
            if result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: no outputs were checked")
            print(
                f"{workload:<17} trace={trace}  {len(result['metrics'])} metrics  correct={result['correct']}"
                f"  failed={result['failed']}/{result['attempted']}  {perf_counter() - t0:.1f} s"
            )
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload at tiny sizes and check the metrics")
    parser.add_argument("--src", type=Path, default=SRC, help="triadaudit sources to measure (default: %(default)s)")
    args = parser.parse_args()
    if not (args.src / "triadaudit" / "__init__.py").is_file():
        print(f"error: no triadaudit sources under {args.src}; run from the root of a checkout", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    spec = load_spec()
    try:
        if args.smoke:
            return smoke(spec, args.src.resolve())
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        result = run_once(spec, args.workload, args.seed, seconds, args.trace, src=args.src.resolve())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

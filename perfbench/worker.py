"""Worker process of the benchmark: runs one workload and prints one JSON line.

Started by ``run.py`` in a fresh interpreter, with ``--src`` as the only
place triadaudit is imported from.  Scratch files and spans go to
``.perfbench_out`` of the checkout that holds this file.

    python3 perfbench/worker.py --src SRC --workload W --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/worker.py --src SRC --workload W --seed N --setup-only

``--setup-only`` imports triadaudit, does the workload's preparation, prints
``ready <perf_counter>`` and exits.  ``perf_counter`` reads the system-wide
monotonic clock, so ``run.py`` subtracts its own reading taken at spawn.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

MODULES = ("core", "indices", "axioms", "analysis", "reporting", "cli")
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"


class Lib:
    """The triadaudit modules, looked up by attribute at call time so that
    the tracer's wrappers take effect."""

    def __init__(self, src: str):
        self.src = str(Path(src).resolve())
        sys.path.insert(0, self.src)
        import triadaudit

        origin = Path(triadaudit.__file__).resolve()
        if Path(self.src) not in origin.parents:
            raise SystemExit(f"triadaudit was imported from {origin}, not from {src}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"triadaudit.{name}"))


def p90(values):
    """90th percentile, interpolated between samples and never beyond them."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def run_passes(pass_fn, seconds):
    """Repeat pass_fn until `seconds` have elapsed, at least once.

    Returns the ``Recorder`` of every pass and the passes' outputs.
    """
    from workloads import Recorder

    recorders, outputs = [], []
    started = perf_counter()
    while not recorders or perf_counter() - started < seconds:
        recorders.append(Recorder())
        outputs.append(pass_fn(recorders[-1]))
    return recorders, outputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ta = Lib(args.src)
    import workloads

    prepare, pass_fn, verify = workloads.WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        state = prepare(ta, args.seed, int(args.smoke), str(workdir))
        if args.setup_only:
            print(f"ready {perf_counter()!r}", flush=True)
            return 0
        result = measure(ta, args, state, pass_fn, verify, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def measure(ta, args, state, pass_fn, verify, workloads):
    checks = workloads.Checks()
    result = {}
    if not args.trace:
        recorders, outputs = run_passes(lambda rec: pass_fn(ta, state, rec), args.seconds)
        times = [sum(rec.normalised) for rec in recorders]
        # A pass that records no commands is itself one command.
        latencies = [t for rec in recorders for t in rec.latencies] or times
        # The CLI workload's work happens in its child processes.
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_oneshot" else resource.RUSAGE_SELF
        result["metrics"] = {
            "wall_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "cmd_ms_p50": statistics.median(latencies) * 1e3,
            "cmd_ms_p90": p90(latencies) * 1e3,
        }
        result["raw"] = {
            "wall_s": statistics.median(sum(rec.raw) for rec in recorders),
            "reference_ms": statistics.median(r for rec in recorders for r in rec.clock.refs) * 1e3,
        }
    else:
        outputs, result["metrics"] = traced(ta, args, state, workloads)
    for output in outputs:
        verify(ta, state, output, checks)
    result.update(attempted=checks.attempted, failed=checks.failed, wrong=checks.wrong, messages=checks.messages[:20])
    if args.trace:
        result["metrics"]["error_frac"] = checks.failed / checks.attempted
    return result


def traced(ta, args, state, workloads):
    """Alternate untraced and traced passes until `seconds` have elapsed.

    Counts come from one traced pass (they repeat exactly); times are raw
    medians over the traced passes, except ``cli.main_ms_p50``, which is
    normalised like ``cmd_ms_p50`` so that their difference reads as
    start-up.  The CLI mix runs in process through ``cli.main`` here, since
    the tracer cannot reach into child processes.
    """
    from tracing import Tracer, write_spans

    pass_fn = workloads.cli_inprocess_pass if args.workload == "cli_oneshot" else workloads.WORKLOADS[args.workload][1]
    tracers, traced_recorders = [], []

    def plain_then_traced(rec):
        plain = pass_fn(ta, state, rec)
        traced_recorders.append(workloads.Recorder())
        tracers.append(Tracer(ta, f"{args.workload}-seed{args.seed}-pass{len(tracers)}"))
        with tracers[-1]:
            traced_output = pass_fn(ta, state, traced_recorders[-1])
        return plain, traced_output

    recorders, pairs = run_passes(plain_then_traced, args.seconds)
    outputs = [output for pair in pairs for output in pair]
    per_pass = [t.metrics() for t in tracers]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    main_latencies = [t for rec in recorders for t in rec.latencies]
    metrics["cli.main_ms_p50"] = statistics.median(main_latencies) * 1e3 if main_latencies else 0.0
    plain_s = statistics.median(sum(rec.raw) for rec in recorders)
    metrics["trace_overhead_frac"] = statistics.median(sum(rec.raw) for rec in traced_recorders) / plain_s - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", tracers)
    return outputs, metrics


if __name__ == "__main__":
    sys.exit(main())

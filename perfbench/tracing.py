"""Span tracer for the traced benchmark run.

The tracer wraps the module attributes through which each layer of
triadaudit calls the layer below it, so nothing under ``src/`` is edited and
an untraced run executes the library unchanged.  Coarse calls (``cli.main``,
reporting, the analysis sweeps, ``audit`` and ``check_axiom``) become spans
with a name, start, end, parent and run id.  Hot leaf calls (probe sampling,
index evaluation, ``Triad`` construction) number in the millions per pass, so
they are aggregated into a count and a busy time instead of one span each;
their time is also charged to the innermost open span, which gives the self
time of ``check_axiom``.

Wrapped attributes, by layer:

* cli: ``cli.main``;
* reporting: ``cli.dumps_canonical`` and ``cli.build_report``;
* analysis: the four sweeps in the ``analysis`` and ``cli`` namespaces;
* axioms: ``audit`` (in ``axioms``, ``analysis`` and ``cli``),
  ``axioms.check_axiom``, and the sampler (``probe_rng`` and ``sample_*`` in
  ``axioms`` and ``analysis``);
* indices: the ``evaluate`` of every descriptor handed out by ``get_index``
  (in ``indices``, ``analysis`` and ``cli``) or listed in ``analysis.CATALOG``;
* core: ``Triad.__init__``, which every layer calls to build a triad.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
from time import perf_counter

SWEEPS = {
    "analysis.independence_table": "analysis.independence_s",
    "analysis.audit_implications": "analysis.implications_s",
    "analysis.characterization_check": "analysis.characterization_s",
    "analysis.ranking_concordance": "analysis.concordance_s",
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "leaf_s", "attrs")

    def __init__(self, span_id, name, start, parent, run):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.leaf_s = 0.0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
            "attrs": self.attrs or {},
        }


class Leaf:
    """Count and busy time of one kind of leaf call."""

    __slots__ = ("calls", "seconds")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0


class Tracer:
    """Installs the wrappers for one traced pass and derives per-layer metrics.

    Use as a context manager; every patched attribute is restored on exit.
    """

    def __init__(self, ta, run_id: str):
        self.ta = ta
        self.run_id = run_id
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.leaf_depth = 0
        self.leaves = {kind: Leaf() for kind in ("probe", "sample", "eval", "triad")}
        self.cells: list[tuple] = []  # (index id, axiom, AuditConfig) per check_axiom call
        self._patches: list[tuple[object, str, object]] = []
        self._descriptors: dict[str, object] = {}

    # -- installation -------------------------------------------------------

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self):
        ta = self.ta
        cli, analysis, axioms, indices, core = ta.cli, ta.analysis, ta.axioms, ta.indices, ta.core
        self._span_patch("cli.main", [(cli, "main")])
        self._span_patch("reporting.dumps_canonical", [(cli, "dumps_canonical")], self._on_dumps)
        self._span_patch("reporting.build_report", [(cli, "build_report")])
        self._span_patch("analysis.independence_table", [(analysis, "independence_table"), (cli, "independence_table")])
        self._span_patch("analysis.audit_implications", [(analysis, "audit_implications")])
        self._span_patch("analysis.characterization_check", [(analysis, "characterization_check")])
        self._span_patch("analysis.ranking_concordance", [(analysis, "ranking_concordance"), (cli, "ranking_concordance")])
        self._span_patch("axioms.audit", [(axioms, "audit"), (analysis, "audit"), (cli, "audit")])
        self._span_patch("axioms.check_axiom", [(axioms, "check_axiom")], self._on_check)
        for ns in (axioms, analysis):
            self._leaf_patch("probe", ns, "probe_rng", charge=True)
            self._leaf_patch("sample", ns, "sample_triad", charge=True)
        self._leaf_patch("sample", axioms, "sample_consistent_triad", charge=True)
        self._leaf_patch("triad", core.Triad, "__init__", charge=False)

        original_get = indices.get_index

        def get_index(index_id):
            return self._traced_descriptor(original_get(index_id))

        for ns in (indices, analysis, cli):
            self._set(ns, "get_index", get_index)
        self._set(analysis, "CATALOG", tuple(self._traced_descriptor(d) for d in analysis.CATALOG))

    def __exit__(self, *exc):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)
        return False

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _span_patch(self, name, targets, on_exit=None):
        wrapped = {}
        for obj, attr in targets:
            original = getattr(obj, attr)
            # One wrapper per distinct function, shared by every namespace
            # that imported it, so a call is one span whichever route it takes.
            if id(original) not in wrapped:
                wrapped[id(original)] = self._span_wrapper(name, original, on_exit)
            self._set(obj, attr, wrapped[id(original)])

    def _span_wrapper(self, name, fn, on_exit):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1].id if tracer.stack else None
            span = Span(len(tracer.spans), name, perf_counter(), parent, tracer.run_id)
            tracer.spans.append(span)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer.stack.pop()
            if on_exit is not None:
                on_exit(span, args, kwargs, result)
            return result

        return wrapper

    def _leaf_patch(self, kind, obj, attr, charge):
        self._set(obj, attr, self._leaf_wrapper(kind, getattr(obj, attr), charge))

    def _leaf_wrapper(self, kind, fn, charge):
        """Count a leaf call; when ``charge`` and it is the outermost leaf,
        its time is removed from the enclosing span's self time."""
        tracer = self
        leaf = self.leaves[kind]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.leaf_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.leaf_depth -= 1
                leaf.calls += 1
                leaf.seconds += dt
                if charge and tracer.leaf_depth == 0 and tracer.stack:
                    tracer.stack[-1].leaf_s += dt

        return wrapper

    def _traced_descriptor(self, descriptor):
        traced = self._descriptors.get(descriptor.id)
        if traced is None:
            traced = dataclasses.replace(descriptor, evaluate=self._leaf_wrapper("eval", descriptor.evaluate, True))
            self._descriptors[descriptor.id] = traced
        return traced

    # -- span attributes ----------------------------------------------------

    def _on_check(self, span, args, kwargs, verdict):
        index, axiom = args[0], args[1]
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        if cfg is None:
            cfg = self.ta.axioms.AuditConfig()
        self.cells.append((index.id, axiom, cfg))
        span.attrs = {
            "index": index.id,
            "axiom": axiom,
            "samples": int(cfg.samples),
            "samples_used": int(verdict.samples_used),
            "status": verdict.status,
        }

    def _on_dumps(self, span, args, kwargs, text):
        span.attrs = {"bytes": len(text.encode("utf-8"))}

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers of the traced pass (times in s unless named _ms/_us)."""
        by_name: dict[str, list[Span]] = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)
        checks = by_name.get("axioms.check_axiom", [])
        attrs = [s.attrs for s in checks]
        calls = len(checks)
        unique = len(set(self.cells))
        budget = sum(a["samples"] for a in attrs)
        probe, sample, ev, triad = (self.leaves[k] for k in ("probe", "sample", "eval", "triad"))
        probes = probe.calls
        sampler_s = probe.seconds + sample.seconds
        dumps = by_name.get("reporting.dumps_canonical", [])
        m = {
            "analysis.check_calls": calls,
            "analysis.unique_cells": unique,
            "analysis.unique_cell_ratio": unique / calls if calls else 0.0,
        }
        for span_name, metric in SWEEPS.items():
            m[metric] = sum(s.duration for s in by_name.get(span_name, []))
        m["axioms.check_s"] = sum(s.duration for s in checks)
        m["axioms.check_self_s"] = sum(s.duration - s.leaf_s for s in checks)
        for axiom in self.ta.indices.AXIOMS:
            m[f"axioms.check_s.{axiom}"] = sum(s.duration for s in checks if s.attrs["axiom"] == axiom)
        m["axioms.probes"] = probes
        m["axioms.sampler_calls"] = probes + sample.calls
        m["axioms.sampler_s"] = sampler_s
        m["axioms.sampler_us_per_probe"] = sampler_s / probes * 1e6 if probes else 0.0
        m["axioms.budget_used_ratio"] = sum(a["samples_used"] for a in attrs) / budget if budget else 0.0
        m["axioms.pinned_fails"] = sum(1 for a in attrs if a["status"] == "fail" and a["samples_used"] == 0)
        m["axioms.fail_verdicts"] = sum(1 for a in attrs if a["status"] == "fail")
        m["axioms.pass_verdicts"] = sum(1 for a in attrs if a["status"] == "pass")
        m["indices.evals"] = ev.calls
        m["indices.eval_s"] = ev.seconds
        m["indices.evals_per_probe"] = ev.calls / probes if probes else 0.0
        m["core.triads_built"] = triad.calls
        m["core.triad_s"] = triad.seconds
        m["reporting.dumps_ms"] = statistics.fmean(s.duration for s in dumps) * 1e3 if dumps else 0.0
        m["reporting.bytes"] = statistics.fmean(s.attrs["bytes"] for s in dumps) if dumps else 0.0
        return m


def write_spans(path, tracers) -> None:
    """Write the spans of every traced pass as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            for span in tracer.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")

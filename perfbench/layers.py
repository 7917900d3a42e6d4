"""Per-layer tracing of the analysis pipeline, from outside the program.

:class:`Tracer` replaces each layer's public entry points with a wrapper
that records one span per call (name, start, end, parent span, run id)
and bumps the layer's work counters, then restores the originals.  The
program's own code paths run unchanged; nothing in ``src/`` knows it is
being traced.  Spans stay in memory until :meth:`Tracer.write`.

A layer's self time is the time its spans cover minus the time covered by
their direct child spans (the pipeline is single-threaded, so spans nest
strictly).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional

_MISSING = object()

#: Span name -> the metric its self time is reported under.
TIMED_LAYERS = [
    ("lang.lex", "lang.lex.self_s"),
    ("lang.parse", "lang.parse.self_s"),
    ("hir.table", "hir.table.self_s"),
    ("mir.lower", "mir.lower.self_s"),
    ("analysis.unwind", "analysis.unwind.self_s"),
    ("analysis.solve", "analysis.solve.self_s"),
    ("analysis.thread_escape", "analysis.thread_escape.self_s"),
    ("analysis.lock_graph", "analysis.lock_graph.self_s"),
    ("analysis.guard_regions", "analysis.guard_regions.self_s"),
    ("analysis.storage_ranges", "analysis.storage_ranges.self_s"),
    ("analysis.init_states", "analysis.init_states.self_s"),
    ("analysis.fingerprint", "analysis.fingerprint.self_s"),
    ("cache.report.get", "cache.report.get_s"),
    ("cache.report.put", "cache.report.put_s"),
    ("cache.summary.get", "cache.summary.get_s"),
    ("cache.summary.put", "cache.summary.put_s"),
    ("detectors.subsumption", "detectors.subsumption.self_s"),
    ("interp.run", "interp.run.self_s"),
]

COUNTED = [
    ("lang.lex.tokens", "count"),
    ("mir.lower.functions", "count"),
    ("mir.lower.blocks", "count"),
    ("mir.lower.statements", "count"),
    ("analysis.unwind.cleanup_blocks", "count"),
    ("analysis.solve.sccs", "count"),
    ("analysis.fingerprint.calls", "count"),
    ("cache.disk_bytes", "bytes"),
    ("interp.runs", "count"),
    ("interp.steps", "count"),
]


def detector_names() -> List[str]:
    from repro.detectors.registry import ALL_DETECTORS
    return [cls.name for cls in ALL_DETECTORS]


def per_layer_spec() -> List[Dict[str, str]]:
    """Every per-layer metric the traced run reports, in output order:
    ``{"name", "unit", "better"}``."""
    spec = [{"name": metric, "unit": "s", "better": "lower"}
            for _span, metric in TIMED_LAYERS]
    spec += [{"name": name, "unit": unit, "better": "lower"}
             for name, unit in COUNTED]
    spec += [
        {"name": "lang.lex.tokens_per_s", "unit": "1/s", "better": "higher"},
        {"name": "lang.parse.tokens_per_s", "unit": "1/s",
         "better": "higher"},
        {"name": "interp.steps_per_s", "unit": "1/s", "better": "higher"},
        {"name": "cache.report.hit_frac", "unit": "frac",
         "better": "higher"},
        {"name": "cache.summary.hit_frac", "unit": "frac",
         "better": "higher"},
    ]
    for name in detector_names():
        spec.append({"name": f"detectors.{name}.self_s", "unit": "s",
                     "better": "lower"})
        spec.append({"name": f"detectors.{name}.findings", "unit": "count",
                     "better": "lower"})
    spec += [
        {"name": "corpus.generate.self_s", "unit": "s", "better": "lower"},
        {"name": "obs.tracing_overhead_frac", "unit": "frac",
         "better": "lower"},
        {"name": "obs.covered_frac", "unit": "frac", "better": "higher"},
    ]
    return spec


class Tracer:
    """Span recorder over patched layer entry points."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, run_id]`` per span.
        self.spans: List[list] = []
        #: Work counters per run id; ``counts`` is the current run's.
        self.counts_by_run: Dict[str, Counter] = {}
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, run_id: str):
        """A root span around one phase (set-up or one round); the spans
        and counters recorded inside it carry ``run_id``."""
        self.run_id = run_id
        self.counts = self.counts_by_run.setdefault(run_id, Counter())
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             on_result: Optional[Callable] = None,
             original: Optional[Callable] = None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``;
        ``on_result(counts, args, result)`` updates counters afterwards."""
        if original is None:
            original = getattr(owner, attr)
        saved = owner.__dict__.get(attr, _MISSING) \
            if isinstance(owner, type) else original
        tracer = self

        def traced(*args, **kwargs):
            record = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(record)
            if on_result is not None:
                on_result(tracer.counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, saved))

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        original = getattr(owner, attr)
        saved = owner.__dict__.get(attr, _MISSING) \
            if isinstance(owner, type) else original
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[counter] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, saved))

    def install(self) -> None:
        _install_layer_hooks(self)

    def uninstall(self) -> None:
        for owner, attr, saved in reversed(self._patches):
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self, run_prefix: str) -> Dict[str, float]:
        """Total self time per span name over runs whose id starts with
        ``run_prefix``."""
        child_time = defaultdict(float)
        for record in self.spans:
            if record[3] >= 0:
                child_time[record[3]] += record[2] - record[1]
        out: Dict[str, float] = defaultdict(float)
        for index, record in enumerate(self.spans):
            if record[4].startswith(run_prefix):
                out[record[0]] += record[2] - record[1] - child_time[index]
        return out

    def counts_for(self, run_prefix: str) -> Counter:
        """Work counters summed over runs whose id starts with
        ``run_prefix``."""
        out: Counter = Counter()
        for run_id, counts in self.counts_by_run.items():
            if run_id.startswith(run_prefix):
                out.update(counts)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "run"],
                       "spans": self.spans}, f, separators=(",", ":"))


# ---------------------------------------------------------------------------
# The layer boundaries
# ---------------------------------------------------------------------------

def _lowered(counts, args, program) -> None:
    counts["mir.lower.functions"] += len(program.functions)
    for body in program.functions.values():
        counts["mir.lower.blocks"] += len(body.blocks)
        counts["mir.lower.statements"] += sum(
            len(block.statements) for block in body.blocks)


def _unwound(counts, args, _result) -> None:
    counts["analysis.unwind.cleanup_blocks"] += sum(
        1 for block in args[0].blocks if block.cleanup)


def _report_get(counts, _args, report) -> None:
    counts["cache.report.gets"] += 1
    counts["cache.report.hits"] += report is not None


def _summary_get(counts, args, result) -> None:
    counts["cache.summary.gets"] += len(args[1])
    counts["cache.summary.hits"] += len(result[0])


def _install_layer_hooks(tracer: Tracer) -> None:
    import repro.analysis.engine as engine
    import repro.analysis.executor as executor
    import repro.analysis.lockgraph as lockgraph
    import repro.corpus.generator as generator
    import repro.detectors.base as base
    import repro.detectors.registry as registry
    import repro.driver as driver
    from repro.lang.lexer import Lexer
    from repro.lang.parser import Parser
    from repro.mir.build import ProgramBuilder
    from repro.mir.interp import Interpreter

    wrap = tracer.wrap
    wrap(generator, "generate_corpus", "corpus.generate")
    # Front end.
    wrap(Lexer, "tokenize", "lang.lex",
         lambda c, a, tokens: c.update({"lang.lex.tokens": len(tokens)}))
    wrap(Parser, "parse_crate", "lang.parse")
    wrap(driver, "build_item_table", "hir.table")
    wrap(ProgramBuilder, "build", "mir.lower", _lowered)
    # Shared analyses.
    wrap(engine, "ensure_unwind_edges", "analysis.unwind", _unwound)
    wrap(executor.AnalysisExecutor, "solve", "analysis.solve")
    tracer.count_calls(engine.SummaryEngine, "solve_component",
                       "analysis.solve.sccs")
    wrap(engine, "compute_thread_escape", "analysis.thread_escape")
    wrap(lockgraph, "build_lock_graph", "analysis.lock_graph")
    wrap(engine, "compute_guard_regions", "analysis.guard_regions")
    wrap(base, "compute_guard_regions", "analysis.guard_regions")
    wrap(base, "compute_storage_ranges", "analysis.storage_ranges")
    wrap(base, "compute_init", "analysis.init_states")
    # Executor fingerprints and the two on-disk caches.
    wrap(executor, "body_fingerprint", "analysis.fingerprint",
         lambda c, a, r: c.update({"analysis.fingerprint.calls": 1}))
    wrap(executor.ReportCache, "get", "cache.report.get", _report_get)
    wrap(executor.ReportCache, "put", "cache.report.put")
    wrap(executor.SummaryCache, "get_wave", "cache.summary.get",
         _summary_get)
    wrap(executor.SummaryCache, "put_wave", "cache.summary.put")
    # Detectors: fetch every original first, so a subclass wrapper never
    # wraps its base class's wrapper.
    originals = [(cls, cls.run) for cls in registry.ALL_DETECTORS]
    for cls, run in originals:
        wrap(cls, "run", f"detectors.{cls.name}",
             lambda c, a, found, key=f"detectors.{cls.name}.findings":
             c.update({key: len(found)}), original=run)
    wrap(registry, "apply_subsumption", "detectors.subsumption")
    # The MIR interpreter.
    wrap(Interpreter, "run", "interp.run",
         lambda c, a, result: c.update({"interp.runs": 1,
                                        "interp.steps": result.steps}))


def layer_metrics(tracer: Tracer, rounds: int, round_walls: List[float],
                  untraced_walls: List[float]) -> Dict[str, float]:
    """Per-round per-layer figures from the traced rounds (run ids
    ``round-*``), plus ``corpus.generate`` from the traced set-up."""
    from statistics import median

    times = tracer.self_times("round-")
    counts = tracer.counts_for("round-")
    out: Dict[str, float] = {}
    for span, metric in TIMED_LAYERS:
        out[metric] = times.get(span, 0.0) / rounds
    for name, _unit in COUNTED:
        out[name] = counts.get(name, 0) / rounds

    def rate(numerator: float, seconds: float) -> float:
        return numerator / seconds if seconds > 0 else 0.0

    def frac(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out["lang.lex.tokens_per_s"] = rate(out["lang.lex.tokens"],
                                        out["lang.lex.self_s"])
    out["lang.parse.tokens_per_s"] = rate(out["lang.lex.tokens"],
                                          out["lang.parse.self_s"])
    out["interp.steps_per_s"] = rate(out["interp.steps"],
                                     out["interp.run.self_s"])
    out["cache.report.hit_frac"] = frac(counts.get("cache.report.hits", 0),
                                        counts.get("cache.report.gets", 0))
    out["cache.summary.hit_frac"] = frac(
        counts.get("cache.summary.hits", 0),
        counts.get("cache.summary.gets", 0))
    for name in detector_names():
        out[f"detectors.{name}.self_s"] = \
            times.get(f"detectors.{name}", 0.0) / rounds
        out[f"detectors.{name}.findings"] = \
            counts.get(f"detectors.{name}.findings", 0) / rounds
    out["corpus.generate.self_s"] = \
        tracer.self_times("setup").get("corpus.generate", 0.0)
    out["obs.tracing_overhead_frac"] = \
        median(round_walls) / median(untraced_walls) - 1.0
    covered = sum(t for span, t in times.items() if span != "round")
    out["obs.covered_frac"] = frac(covered, sum(round_walls))
    return out

"""Detector framework: shared analysis context and the Detector protocol."""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro import obs
from repro.analysis.callgraph import CallGraph
from repro.analysis.config import AnalysisConfig, coerce_config
from repro.analysis.engine import SummaryEngine
from repro.analysis.init import compute_init
from repro.analysis.lifetime import (
    GuardRegion, StorageRanges, compute_guard_regions, compute_storage_ranges,
)
from repro.analysis.points_to import PointsTo
from repro.analysis.summaries import FunctionSummary
from repro.detectors.report import Finding
from repro.lang.types import TyKind
from repro.mir.nodes import Body, Program


class AnalysisContext:
    """Caches per-body and per-program analyses so detectors share work.

    Interprocedural facts (points-to with return summaries, function
    summaries, the call graph) are owned by one
    :class:`~repro.analysis.engine.SummaryEngine` instance; the context
    keeps the purely intraprocedural caches (guard regions, storage
    ranges, init states) itself.

    Every pass records an obs cache hit/miss counter and runs its compute
    under an ``analysis.<pass>`` span, so ``--profile`` shows where the
    static-analysis time goes and how well the cache amortises it.

    Cache keys are tuples (``(body.key, include_try)`` for guard
    regions), never concatenated strings — a body literally named
    ``foo#try`` must not collide with the cached try-variant of ``foo``.

    All knobs arrive in one :class:`~repro.analysis.config.AnalysisConfig`
    (``AnalysisConfig(interprocedural=False)`` is the ablation switch:
    every function summary collapses to the bottom element and points-to
    runs without return summaries, which is what the benchmarks use to
    measure the interprocedural layer's contribution).
    """

    def __init__(self, program: Program,
                 config: Optional[AnalysisConfig] = None) -> None:
        self.config = coerce_config(config)
        self.program = program
        self.engine = SummaryEngine(program, self.config)
        self._guard_regions: Dict[Tuple[str, bool], List[GuardRegion]] = {}
        self._storage_ranges: Dict[str, StorageRanges] = {}
        self._init_states: Dict[str, dict] = {}
        self._arc_shared_structs: Optional[FrozenSet[str]] = None

    def _lookup(self, cache: Dict, key, pass_name: str, compute):
        hit = cache.get(key)
        if hit is not None:
            obs.count(f"analysis.{pass_name}.hit")
            return hit
        obs.count(f"analysis.{pass_name}.miss")
        with obs.span(f"analysis.{pass_name}"):
            value = compute()
        cache[key] = value
        return value

    @property
    def return_summaries(self) -> Dict[str, set]:
        return self.engine.return_summaries()

    def points_to(self, body: Body) -> PointsTo:
        return self.engine.points_to(body)

    def summary(self, key: str) -> FunctionSummary:
        """The engine's converged summary for one function key."""
        return self.engine.summary(key)

    def lock_chain(self, key: str, lock) -> List[str]:
        return self.engine.lock_chain(key, lock)

    def drop_chain(self, key: str, position: int) -> List[str]:
        return self.engine.drop_chain(key, position)

    def access_chain(self, key: str, access) -> List[str]:
        return self.engine.access_chain(key, access)

    def panic_chain(self, key: str) -> List[str]:
        return self.engine.panic_chain(key)

    def thread_escape(self):
        """Program-wide thread-escape facts (engine-owned, lazy)."""
        return self.engine.thread_escape()

    def lock_graph(self):
        """The cross-thread lock graph (engine-owned, lazy)."""
        return self.engine.lock_graph()

    def guard_regions(self, body: Body,
                      include_try: bool = False) -> List[GuardRegion]:
        return self._lookup(
            self._guard_regions, (body.key, include_try), "guard_regions",
            lambda: compute_guard_regions(
                body, self.points_to(body), include_try=include_try,
                summaries=self.engine.summaries_map()))

    def storage_ranges(self, body: Body) -> StorageRanges:
        return self._lookup(
            self._storage_ranges, body.key, "storage_ranges",
            lambda: compute_storage_ranges(body))

    def init_states(self, body: Body) -> dict:
        return self._lookup(
            self._init_states, body.key, "init_states",
            lambda: compute_init(body))

    def arc_shared_structs(self) -> FrozenSet[str]:
        """Names of the types that appear as an ``Arc<T>`` payload in
        the type of any local of any body — the structs the program
        shares across threads through ``Arc``.  One scan of every local
        per context, however many methods ask."""
        if self._arc_shared_structs is not None:
            obs.count("analysis.arc_shared_structs.hit")
            return self._arc_shared_structs
        obs.count("analysis.arc_shared_structs.miss")
        names = set()
        for body in self.program.bodies():
            for local in body.locals:
                ty = local.ty
                if ty.kind is TyKind.BUILTIN and ty.name == "Arc" \
                        and ty.args:
                    names.add(ty.args[0].peel_wrappers().name)
        self._arc_shared_structs = frozenset(names)
        return self._arc_shared_structs

    @property
    def call_graph(self) -> CallGraph:
        return self.engine.call_graph


class Detector:
    """Base class for all detectors.

    Subclasses set ``name`` / ``description`` and implement either
    :meth:`check_body` (called per function) or :meth:`check_program`
    (called once), or both.
    """

    name = "detector"
    description = ""
    #: Which paper section motivated this detector.
    paper_section = ""

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        findings: List[Finding] = []
        findings.extend(self.check_program(ctx))
        for body in ctx.program.bodies():
            findings.extend(self.check_body(ctx, body))
        return findings

    def check_program(self, ctx: AnalysisContext) -> List[Finding]:
        return []

    def check_body(self, ctx: AnalysisContext, body: Body) -> List[Finding]:
        return []

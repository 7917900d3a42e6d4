"""Program-wide indexes: each is built once per analysis and must answer
exactly what the per-query program scan it replaced answered.

The reference scans below are the linear implementations the indexes
replaced, kept here as the oracle: same results, same order.
"""

from typing import Optional, Set

from repro import obs
from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import SummaryEngine
from repro.analysis.escape import translate_capture
from repro.analysis.lifetime import lock_identity
from repro.analysis.lockgraph import global_site_ids
from repro.analysis.scan import scan_of
from repro.corpus.benign import BENIGN_TEMPLATES, CHANNEL_BENIGN
from repro.corpus.inject import BUG_TEMPLATES
from repro.detectors.base import AnalysisContext
from repro.detectors.concurrency_misc import _NOTIFY_OPS
from repro.detectors.interior_mutability import SyncUnsyncWriteDetector
from repro.detectors.registry import run_detectors
from repro.driver import compile_source
from repro.hir.builtins import BuiltinOp
from repro.mir.cfg import Cfg
from repro.mir.nodes import TerminatorKind

#: The bug templates whose detectors resolve condvar / channel identities
#: through ``global_site_ids`` (capture and caller routes included).
BLOCKING = ["deadlock_abba_two_threads", "deadlock_condvar_hold",
            "deadlock_channel_recv", "condvar_no_notify",
            "channel_no_sender", "recv_holding_lock", "once_recursion"]


def _blocking_program():
    """Every blocking template plus the channel benigns, twice each, in
    one unit: several callers and spawners per identity."""
    parts = [BUG_TEMPLATES[name].render(f"{name}{k}")
             for name in BLOCKING for k in range(2)]
    parts += [BENIGN_TEMPLATES[name](f"{name}{k}")
              for name in sorted(CHANNEL_BENIGN) for k in range(2)]
    return compile_source("\n".join(parts), name="blocking.rs").program


def _linear_sites_with_op(program, ops):
    sites = []
    for body in program.bodies():
        for bb, term in body.iter_terminators():
            if term.kind is TerminatorKind.CALL and term.func is not None \
                    and term.func.builtin_op in ops:
                sites.append((body, bb, term))
    return sites


def _linear_site_ids(engine, body, local, depth=3,
                     _seen: Optional[frozenset] = None) -> Set:
    seen = _seen or frozenset()
    pt = engine.points_to(body)
    ids = lock_identity(body, pt, local)
    out = {(i[0], i[1], tuple(i[2])) for i in ids
           if i[0] in ("static", "heap")}
    arg_ids = sorted((i[1], tuple(i[2])) for i in ids if i[0] == "arg")
    if not arg_ids or depth <= 0 or body.key in seen:
        return out
    seen = seen | {body.key}
    te = engine.thread_escape()
    program = engine.program
    for site in te.spawn_sites:
        if site.closure != body.key:
            continue
        spawner = program.functions.get(site.spawner)
        if spawner is None:
            continue
        pt_spawner = engine.points_to(spawner)
        for position, proj in arg_ids:
            out |= {(k, payload, tuple(p)) for k, payload, p in
                    translate_capture(site, pt_spawner, position, proj)}
    for cs in engine.call_graph.call_sites:
        if cs.callee != body.key or cs.is_spawn:
            continue
        caller = program.functions.get(cs.caller)
        if caller is None:
            continue
        term = caller.blocks[cs.block].terminator
        if term is None or not getattr(term, "args", None):
            continue
        for position, proj in arg_ids:
            if position >= len(term.args) \
                    or term.args[position].place is None:
                continue
            sub = _linear_site_ids(engine, caller,
                                   term.args[position].place.local,
                                   depth - 1, seen)
            out |= {(k, payload, tuple(p) + proj) for k, payload, p in sub}
    return out


def _linear_reachable_from_spawn(graph):
    roots = set()
    for spawned in graph.spawn_edges.values():
        roots |= spawned
    result = set(roots)
    for root in roots:
        result |= graph.transitive_callees(root, include_spawned=True)
    return result


RECEIVER_OPS = {BuiltinOp.CONDVAR_WAIT, BuiltinOp.CHANNEL_RECV,
                BuiltinOp.CHANNEL_SEND} | _NOTIFY_OPS


class TestGlobalSiteIds:
    def test_index_matches_linear_scan(self):
        program = _blocking_program()
        engine = SummaryEngine(program, AnalysisConfig())
        checked = resolved_through_route = 0
        for body, _bb, term in _linear_sites_with_op(program, RECEIVER_OPS):
            if not term.args or term.args[0].place is None:
                continue
            local = term.args[0].place.local
            expected = _linear_site_ids(engine, body, local)
            assert global_site_ids(engine, body, local) == expected, \
                body.key
            checked += 1
            direct = {i for i in lock_identity(
                body, engine.points_to(body), local)
                if i[0] in ("static", "heap")}
            resolved_through_route += len(expected) > len(direct)
        assert checked >= 20
        # Some receivers only resolve through a capture or caller hop.
        assert resolved_through_route > 0

    def test_top_level_result_is_memoised(self):
        program = _blocking_program()
        engine = SummaryEngine(program, AnalysisConfig())
        body, _bb, term = engine.builtin_call_sites(
            {BuiltinOp.CHANNEL_SEND})[0]
        local = term.args[0].place.local
        first = global_site_ids(engine, body, local)
        assert global_site_ids(engine, body, local) is first
        assert engine.site_id_memo[(body.key, local)] is first


class TestBuiltinCallSites:
    def test_same_sites_in_same_order(self):
        program = _blocking_program()
        engine = SummaryEngine(program, AnalysisConfig())
        for ops in ({BuiltinOp.CONDVAR_WAIT}, _NOTIFY_OPS,
                    {BuiltinOp.CHANNEL_RECV}, {BuiltinOp.CHANNEL_SEND},
                    {BuiltinOp.ONCE_CALL_ONCE}, RECEIVER_OPS):
            got = engine.builtin_call_sites(ops)
            want = _linear_sites_with_op(program, ops)
            assert [(b.key, bb, id(t)) for b, bb, t in got] == \
                [(b.key, bb, id(t)) for b, bb, t in want]
            assert got, ops


class TestCallGraphIndexes:
    def test_reachable_from_spawn_matches_per_root_closures(self):
        program = _blocking_program()
        graph = SummaryEngine(program, AnalysisConfig()).call_graph
        reachable = graph.reachable_from_spawn()
        assert reachable == _linear_reachable_from_spawn(graph)
        assert reachable

    def test_sites_calling_matches_filter(self):
        program = _blocking_program()
        graph = SummaryEngine(program, AnalysisConfig()).call_graph
        for key in program.functions:
            assert graph.sites_calling(key) == [
                cs for cs in graph.call_sites
                if cs.callee == key and not cs.is_spawn]

    def test_sites_spawning_matches_filter(self):
        program = _blocking_program()
        te = SummaryEngine(program, AnalysisConfig()).thread_escape()
        assert te.spawn_sites
        for key in program.functions:
            assert te.sites_spawning(key) == [
                s for s in te.spawn_sites if s.closure == key]


class TestArcSharedStructs:
    SRC = "\n".join(
        f"struct Plain{i} {{ v: i32 }}\n"
        f"impl Plain{i} {{\n"
        f"    fn get_{i}(&self) -> i32 {{ self.v }}\n"
        f"    fn peek_{i}(&self) -> i32 {{ self.v + 1 }}\n"
        f"}}\n" for i in range(12)) + """
struct Held { v: i32 }
impl Held {
    fn poke(&self, i: i32) {
        let p = &self.v as *const i32 as *mut i32;
        unsafe { *p = i; }
    }
}
fn main() {
    let h = Arc::new(Held { v: 0 });
    h.poke(1);
}
"""

    def test_computed_once_per_context(self):
        program = compile_source(self.SRC).program
        ctx = AnalysisContext(program)
        with obs.collecting("arc") as collector:
            findings = SyncUnsyncWriteDetector().run(ctx)
        assert collector.counters["analysis.arc_shared_structs.miss"] == 1
        # 24 `&self` methods of non-Sync structs plus `Held::poke`.
        assert collector.counters["analysis.arc_shared_structs.hit"] == 24
        assert ctx.arc_shared_structs() == {"Held"}
        assert [f.fn_key for f in findings] == ["Held::poke"]


class TestMemoisedCfg:
    def test_memoised_cfgs_match_fresh_ones(self):
        parts = [template.render(f"{name}0")
                 for name, template in sorted(BUG_TEMPLATES.items())]
        program = compile_source("\n".join(parts), name="all.rs").program
        run_detectors(program)
        memoised = 0
        for body in program.bodies():
            cfg = scan_of(body).cache.get("cfg")
            if cfg is None:
                continue
            memoised += 1
            fresh = Cfg(body)
            assert cfg.successors == fresh.successors, body.key
            assert cfg.predecessors == fresh.predecessors, body.key
        assert memoised == len(program.functions)

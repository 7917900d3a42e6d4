"""The four benchmark workloads and the ground truth each is scored on.

Every workload is a closed loop with one caller on one thread (``jobs=1``):
the next input goes in only after the previous verdict came back.  A
workload is built once per set-up from the benchmark seed, then runs one
*round* — a fixed amount of work — as often as the run length allows.

``round()`` returns a :class:`Round`: the time of every verdict, the
source LOC verdicted, the number of operations attempted and failed, a
digest of every verdict (findings or interpreter outcomes), and the list
of verdicts that differ from the known answer.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

import repro.corpus.generator as generator
from repro import api
from repro.analysis.config import AnalysisConfig
from repro.corpus.benign import BENIGN_TEMPLATES, CHANNEL_BENIGN
from repro.corpus.inject import BUG_TEMPLATES, InjectedBug
from repro.driver import compile_source
from repro.mir.interp import ScheduleConfig, run_program


@dataclass
class Round:
    """What one round did and how long each verdict took."""

    verdict_s: List[float] = field(default_factory=list)
    loc: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    digest: str = ""
    #: Bytes the round left in its cache directory (edit-loop only).
    disk_bytes: int = 0


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def _corpus_digest(corpus) -> str:
    return _digest([[f.name, f.text, [bug.fn_name for bug in f.injected]]
                    for f in corpus.files])


def _failure(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------

def _suffix_pattern(bug: InjectedBug) -> "re.Pattern":
    # `bug_se1` must not claim a finding in `bug_se10`: the suffix may
    # not be followed by another digit.
    return re.compile(re.escape(bug.fn_name[len("bug_"):]) + r"(?!\d)")


def score(findings, bugs: Sequence[InjectedBug]) -> Tuple[List[str],
                                                           List[str]]:
    """Match findings to injected bugs by detector and exact name.

    Returns ``(missed, false_positives)``: the injected bug functions no
    finding matched, and the findings that match no injected bug.
    """
    patterns = [(bug, _suffix_pattern(bug)) for bug in bugs]
    found = set()
    false_positives = []
    for finding in findings:
        for bug, pattern in patterns:
            if finding.detector == bug.template.detector \
                    and pattern.search(finding.fn_key):
                found.add(bug.fn_name)
                break
        else:
            false_positives.append(f"{finding.detector}@{finding.fn_key}")
    missed = [bug.fn_name for bug in bugs if bug.fn_name not in found]
    return missed, false_positives


def known_whole_program_loss(bugs: Sequence[InjectedBug]) -> List[str]:
    """Injections whole-program analysis is known to miss: the `channel`
    detector's no-sender rule is program-global, so any `send` elsewhere
    in the combined corpus masks every `channel_no_sender` bug."""
    return sorted(bug.fn_name for bug in bugs
                  if bug.template.name == "channel_no_sender")


def _report_errors(unit: str, report, bugs) -> List[str]:
    missed, false_positives = score(report.findings, bugs)
    errors = [f"{unit}: missed {name}" for name in missed]
    errors += [f"{unit}: false positive {fp}" for fp in false_positives]
    return errors


class Workload:
    """Set-up happens in ``__init__``; ``prepare()`` runs untimed before
    each timed ``round()``; ``verify()`` runs untimed after the last."""

    #: Verdict errors known at this commit and allowed to persist.
    known_errors: List[str] = []
    #: Digest of every input the seed generated (programs, edits,
    #: schedules): equal seeds must give equal input digests.
    inputs_digest = ""

    def prepare(self) -> None:
        pass

    def round(self) -> Round:
        raise NotImplementedError

    def verify(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# files-cold: every corpus file as its own program, no cache
# ---------------------------------------------------------------------------

class FilesCold(Workload):
    """The ``check FILE…`` / ``corpus`` path at scale 2."""

    scale = 2

    def __init__(self, seed: int, workdir: str) -> None:
        self.corpus = generator.generate_corpus(seed=seed, scale=self.scale)
        self.inputs_digest = _corpus_digest(self.corpus)
        self.session = api.AnalysisSession(AnalysisConfig(jobs=1))

    def round(self) -> Round:
        out = Round()
        digests = []
        for f in self.corpus.files:
            out.attempted += 1
            started = perf_counter()
            try:
                (report,) = self.session.analyze_sources([(f.name, f.text)])
            except Exception:  # CompileError included: any failure is counted
                _failure(f.name)
                out.failed += 1
                out.errors.append(f"{f.name}: no verdict")
                continue
            out.verdict_s.append(perf_counter() - started)
            out.loc += f.loc
            digests.append(report.to_dict())
            out.errors += _report_errors(f.name, report.report, f.injected)
        out.digest = _digest(digests)
        return out

    def close(self) -> None:
        self.session.close()


# ---------------------------------------------------------------------------
# whole-program: the combined corpus as one unit, no cache
# ---------------------------------------------------------------------------

class WholeProgram(Workload):
    """The combined scale-2 corpus analysed as one compilation unit."""

    scale = 2
    unit = "combined corpus"

    def __init__(self, seed: int, workdir: str) -> None:
        self.corpus = generator.generate_corpus(seed=seed, scale=self.scale)
        self.inputs_digest = _corpus_digest(self.corpus)
        self.text = self.corpus.combined_source()
        self.loc = len(self.text.splitlines())
        self.bugs = self.corpus.injected
        self.known_errors = [f"{self.unit}: missed {name}" for name
                             in known_whole_program_loss(self.bugs)]

    def round(self) -> Round:
        out = Round(attempted=1)
        started = perf_counter()
        try:
            report = api.analyze(self.text, name="corpus.rs",
                                 config=AnalysisConfig(jobs=1))
        except Exception:  # CompileError included: any failure is counted
            _failure(self.unit)
            out.failed = 1
            out.errors.append(f"{self.unit}: no verdict")
            return out
        out.verdict_s.append(perf_counter() - started)
        out.loc = self.loc
        out.digest = _digest([report.to_dict()])
        out.errors = _report_errors(self.unit, report.report, self.bugs)
        return out


# ---------------------------------------------------------------------------
# edit-loop: cold pass into an empty cache, then single-file edits
# ---------------------------------------------------------------------------

class EditLoop(Workload):
    """An :class:`~repro.api.AnalysisSession` with a cache directory on
    the scale-1 corpus: one cold pass writes the caches, then each seeded
    single-file edit re-analyses the whole batch (94 report-cache hits and
    one miss)."""

    scale = 1
    edits = 100

    def __init__(self, seed: int, workdir: str) -> None:
        self.corpus = generator.generate_corpus(seed=seed, scale=self.scale)
        self.edit_plan = self._plan_edits(random.Random(seed))
        self.inputs_digest = _digest([_corpus_digest(self.corpus),
                                      self.edit_plan])
        self.cache_dir = os.path.join(workdir, "cache")
        self._reset_cache()
        self.final_texts: List[str] = []
        self.final_reports: List[dict] = []

    def _plan_edits(self, rng: random.Random) -> List[Tuple[int, str, str]]:
        """``(file index, benign template, suffix)`` per edit.  A file
        carrying an isolated bug never gets a channel template, the
        generator's own masking rule, so its injected labels still hold."""
        names = sorted(BENIGN_TEMPLATES)
        plan = []
        for k in range(self.edits):
            index = rng.randrange(len(self.corpus.files))
            isolated = any(bug.template.name
                           in generator._ISOLATED_TEMPLATES
                           for bug in self.corpus.files[index].injected)
            choices = [n for n in names
                       if not (isolated and n in CHANNEL_BENIGN)]
            plan.append((index, rng.choice(choices), f"zz{k}"))
        return plan

    def _reset_cache(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)

    def prepare(self) -> None:
        self._reset_cache()

    def round(self) -> Round:
        out = Round()
        texts = [f.text for f in self.corpus.files]
        names = [f.name for f in self.corpus.files]
        config = AnalysisConfig(jobs=1, cache_dir=self.cache_dir)
        loc = self.corpus.total_loc
        with api.AnalysisSession(config) as session:
            reports = self._pass(session, names, texts, out)
            out.loc += loc
            for index, template, suffix in self.edit_plan:
                loc -= len(texts[index].splitlines())
                texts[index] += BENIGN_TEMPLATES[template](suffix)
                loc += len(texts[index].splitlines())
                started = perf_counter()
                reports = self._pass(session, names, texts, out)
                if reports is not None:
                    out.verdict_s.append(perf_counter() - started)
                    out.loc += loc
        if reports is None:
            out.errors.append("final pass: no verdict")
            return out
        self.final_texts = texts
        self.final_reports = [r.to_dict() for r in reports]
        out.digest = _digest(self.final_reports)
        for f, report in zip(self.corpus.files, reports):
            out.errors += _report_errors(f.name, report.report, f.injected)
        out.disk_bytes = sum(
            os.path.getsize(os.path.join(root, name))
            for root, _dirs, files in os.walk(self.cache_dir)
            for name in files)
        return out

    @staticmethod
    def _pass(session, names, texts, out: Round):
        out.attempted += 1
        try:
            return session.analyze_sources(list(zip(names, texts)))
        except Exception:  # CompileError included: any failure is counted
            _failure("edit-loop pass")
            out.failed += 1
            return None

    def verify(self) -> List[str]:
        """Re-analyse the final edited texts with no cache: every warm
        report must equal its cold counterpart."""
        names = [f.name for f in self.corpus.files]
        with api.AnalysisSession(AnalysisConfig(jobs=1)) as session:
            cold = session.analyze_sources(
                list(zip(names, self.final_texts)))
        return [f"{name}: cached report differs from a cold analysis"
                for name, warm, report in zip(names, self.final_reports,
                                              cold)
                if warm != report.to_dict()]

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# oracle-schedules: the MIR interpreter over a schedule grid
# ---------------------------------------------------------------------------

#: Bug templates with a ``main`` that reaches the bug, and the outcome the
#: interpreter must reach on at least one schedule (the static-vs-dynamic
#: cases).
ORACLE_CASES = [
    ("uaf_drop_deref", "fn main() { bug_X(); }", "ub"),
    ("uninit_read", "fn main() { unsafe { let v = bug_X(); } }", "ub"),
    ("invalid_free_assign", "fn main() { unsafe { bug_X(); } }", "ub"),
    ("double_free_ptr_read", "fn main() { bug_X(vec![1, 2, 3]); }", "ub"),
    ("overflow_unchecked", "fn main() { let b = bug_X(); }", "ub"),
    ("null_deref", "fn main() { bug_X(); }", "ub"),
    ("double_lock_match", """
fn main() {
    let inner = RwLock::new(InnerX { m: 1 });
    bug_X(&inner);
}""", "deadlock"),
    ("double_lock_if", """
fn main() {
    let m = Mutex::new(1);
    bug_X(&m);
}""", "deadlock"),
    ("condvar_no_notify", "fn main() { bug_X(); }", "deadlock"),
    ("once_recursion", "fn main() { bug_X(); }", "deadlock"),
    ("panic_between_read_and_write", "fn main() { bug_X(true); }", "ub"),
    ("deadlock_abba_two_threads", "fn main() { bug_X(); }", "deadlock"),
    ("deadlock_condvar_hold", "fn main() { bug_X(); }", "deadlock"),
    ("deadlock_channel_recv", "fn main() { bug_X(); }", "deadlock"),
    ("race_unsync_counter", "fn main() { bug_X(); }", "race"),
    ("race_arc_interior_mut", "fn main() { bug_X(); }", "race"),
    ("race_lock_wrong_mutex", "fn main() { bug_X(); }", "race"),
]

#: The §4.1 loop: sums ``N`` copies of ``V`` through safe indexing (with
#: and without compiled-in bounds checks) and through `get_unchecked`.
_SUM_LOOP = """
fn main() {{
    let v = vec![{v}; {n}];
    let mut total = 0;
    for i in 0..{n} {{
        {body}
    }}
    println!("{{}}", total);
}}
"""
_SAFE_BODY = "total += v[i];"
_UNCHECKED_BODY = "unsafe { total += *v.get_unchecked(i); }"

_MAX_STEPS = 400_000


@dataclass
class _OracleProgram:
    name: str
    program: object
    loc: int
    #: "ub" / "deadlock" / "race": reached on some schedule;
    #: "clean": ok and race-free on every schedule; "sum": prints ``stdout``.
    expect: str
    detect_races: bool = False
    stdout: Optional[List[str]] = None


class OracleSchedules(Workload):
    """The MIR interpreter (the Miri stand-in) on programs compiled in
    set-up: 17 bug templates and the lock-protected negative over a seeded
    (seed, quantum) schedule grid, plus the §4.1 loops at a larger N."""

    schedule_seeds = 12
    quanta = (1, 2, 3, 5)
    loop_n = 3000

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(seed)
        self.programs: List[_OracleProgram] = []
        self.texts: List[str] = []
        for name, entry, expect in ORACLE_CASES:
            self._add(name, BUG_TEMPLATES[name].render("X") + entry,
                      expect, detect_races=expect == "race")
        self._add("locked_shared",
                  BENIGN_TEMPLATES["locked_shared"]("X")
                  + "\nfn main() { run_guarded_X(); }\n",
                  "clean", detect_races=True)
        first = rng.randrange(1 << 20)
        self.grid = [(first + i, q) for i in range(self.schedule_seeds)
                     for q in self.quanta]
        value = rng.randint(2, 9)
        loops = [("sum_checked", _SAFE_BODY, True),
                 ("sum_unchecked", _UNCHECKED_BODY, True),
                 ("sum_no_bounds_checks", _SAFE_BODY, False)]
        for name, body, bounds in loops:
            self._add(name, _SUM_LOOP.format(v=value, n=self.loop_n,
                                             body=body),
                      "sum", emit_bounds_checks=bounds,
                      stdout=[str(value * self.loop_n)])
        self.inputs_digest = _digest([self.texts, self.grid])

    def _add(self, name: str, text: str, expect: str,
             emit_bounds_checks: bool = True, **kwargs) -> None:
        self.texts.append(text)
        compiled = compile_source(text, name=f"{name}.rs",
                                  emit_bounds_checks=emit_bounds_checks)
        self.programs.append(_OracleProgram(
            name, compiled.program, len(text.splitlines()), expect,
            **kwargs))

    def _runs(self):
        for prog in self.programs:
            if prog.expect == "sum":
                yield prog, ScheduleConfig(max_steps=10 * _MAX_STEPS)
            else:
                for seed, quantum in self.grid:
                    yield prog, ScheduleConfig(seed=seed, quantum=quantum,
                                               max_steps=_MAX_STEPS)

    def round(self) -> Round:
        out = Round()
        digests = []
        reached = {prog.name: False for prog in self.programs
                   if prog.expect in ("ub", "deadlock", "race")}
        for prog, schedule in self._runs():
            out.attempted += 1
            started = perf_counter()
            try:
                result = run_program(prog.program, schedule=schedule,
                                     detect_races=prog.detect_races)
            except Exception:
                _failure(f"{prog.name} {schedule}")
                out.failed += 1
                continue
            out.verdict_s.append(perf_counter() - started)
            out.loc += prog.loc
            digests.append([prog.name, schedule.seed, schedule.quantum,
                            result.outcome, result.steps, result.stdout,
                            len(result.races)])
            if result.outcome == "limit":
                out.failed += 1
            expect = prog.expect
            if expect == "race":
                hit = bool(result.races)
            elif expect == "clean":
                if result.outcome != "ok" or result.races:
                    out.errors.append(
                        f"{prog.name} seed={schedule.seed} "
                        f"q={schedule.quantum}: {result.outcome}, "
                        f"{len(result.races)} races")
                continue
            elif expect == "sum":
                if result.outcome != "ok" or result.stdout != prog.stdout:
                    out.errors.append(f"{prog.name}: {result.outcome} "
                                      f"{result.stdout}")
                continue
            else:
                hit = result.outcome == expect
            reached[prog.name] = reached[prog.name] or hit
        out.errors += [f"{name}: expected outcome on no schedule"
                       for name, hit in reached.items() if not hit]
        out.digest = _digest(digests)
        return out


WORKLOADS = {
    "files-cold": FilesCold,
    "whole-program": WholeProgram,
    "edit-loop": EditLoop,
    "oracle-schedules": OracleSchedules,
}

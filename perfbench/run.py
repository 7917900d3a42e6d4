"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload files-cold --seed 0 --seconds 20 --trace 0

Prints one line per metric (name, value, unit, sample count), the
findings/outcome digest, any verdict that differs from the known answer,
and, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs the workload
untraced and then traced, and reports the per-layer metrics.  The exit
code is 1 when a correctness check fails, 2 when the program's sources
are missing.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import sys
from contextlib import nullcontext
from statistics import median
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for cache directories and span dumps, inside the checkout.
OUT = os.path.join(ROOT, ".perfbench_out")

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "loc_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Import the program, and the benchmark modules that use it, from
    the checkout's own ``src/`` (never an installed copy).  The import is
    repeated from an empty module table ``SETUP_REPS`` times; returns
    ``(layers, workloads, median import seconds)``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    times = []
    for _ in range(SETUP_REPS):
        for name in [n for n in sys.modules
                     if n.split(".")[0] in ("repro", "layers", "workloads")]:
            del sys.modules[name]
        started = perf_counter()
        layers = importlib.import_module("layers")
        workloads = importlib.import_module("workloads")
        times.append(perf_counter() - started)
    repro_file = os.path.abspath(sys.modules["repro"].__file__)
    if not repro_file.startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro_file}", file=sys.stderr)
        sys.exit(2)
    return layers, workloads, median(times)


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_rounds(workload, budget_s: float, tracer=None, rounds=None):
    """Run rounds until ``budget_s`` is spent (the round count is fixed
    after the first round) or exactly ``rounds`` rounds.  Garbage left by
    the previous round is collected outside the timed window."""
    results, walls = [], []
    while rounds is None or len(results) < rounds:
        workload.prepare()
        gc.collect()
        span = tracer.root("round", f"round-{len(results)}") \
            if tracer is not None else nullcontext()
        with span:
            started = perf_counter()
            result = workload.round()
            walls.append(perf_counter() - started)
        if tracer is not None:
            tracer.counts["cache.disk_bytes"] += result.disk_bytes
        results.append(result)
        if rounds is None:
            rounds = max(1, round(budget_s / walls[0]))
    return results, walls


def check(workload, results, extra_errors):
    """``(correct, verdict_errors)``: every round must give the same
    digest and no verdict error beyond the ones known at this commit."""
    allowed = set(workload.known_errors)
    errors = list(extra_errors)
    for result in results:
        errors += [e for e in result.errors if e not in allowed]
    digests = {result.digest for result in results}
    if len(digests) != 1:
        errors.append(f"rounds disagree: {len(digests)} distinct digests")
    for line in sorted(set(errors)):
        print(f"verdict error: {line}", file=sys.stderr)
    for line in workload.known_errors:
        print(f"known verdict error: {line}")
    verdict_errors = len(results[-1].errors) + len(extra_errors)
    return not errors, verdict_errors


def end_to_end(results, walls, setup_s):
    verdicts = [t for result in results for t in result.verdict_s]
    metrics = {
        "setup_s": setup_s,
        "wall_s": median(walls),
        "loc_per_s": sum(r.loc for r in results) / sum(walls),
        "verdict_p50_ms": 1000 * percentile(verdicts, 0.5),
        "verdict_p90_ms": 1000 * percentile(verdicts, 0.9),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"setup_s": SETUP_REPS, "wall_s": len(walls),
               "loc_per_s": len(walls), "verdict_p50_ms": len(verdicts),
               "verdict_p90_ms": len(verdicts), "peak_rss_mb": 1}
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()}, samples


def _declared_metrics(trace: bool):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    layers, workloads, import_s = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    factory = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            return _traced(args, factory, workdir, layers)
        return _untraced(args, factory, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(args, factory, workdir, import_s) -> int:
    setup_times = []
    workload = None
    for _ in range(SETUP_REPS):
        if workload is not None:
            workload.close()
        gc.collect()
        started = perf_counter()
        workload = factory(args.seed, workdir)
        setup_times.append(perf_counter() - started)
    gc.collect()
    gc.freeze()
    try:
        results, walls = run_rounds(workload, args.seconds)
        extra = workload.verify()
    finally:
        workload.close()
    correct, verdict_errors = check(workload, results, extra)
    metrics, samples = end_to_end(results, walls,
                                  import_s + median(setup_times))
    return _report(args, workload, results, metrics, samples, correct,
                   verdict_errors, trace=False)


def _traced(args, factory, workdir, layers) -> int:
    tracer = layers.Tracer()
    tracer.install()
    try:
        with tracer.root("setup", "setup"):
            workload = factory(args.seed, workdir)
    finally:
        tracer.uninstall()
    gc.collect()
    gc.freeze()
    try:
        plain, plain_walls = run_rounds(workload, args.seconds / 2)
        tracer.install()
        try:
            traced, traced_walls = run_rounds(workload, 0, tracer=tracer,
                                              rounds=len(plain))
        finally:
            tracer.uninstall()
        extra = workload.verify()
    finally:
        workload.close()
    # Traced and untraced rounds must agree byte for byte: check() fails
    # the run when their digests differ.
    correct, verdict_errors = check(workload, plain + traced, extra)
    values = layers.layer_metrics(tracer, len(traced), traced_walls,
                                  plain_walls)
    units = {m["name"]: m["unit"] for m in layers.per_layer_spec()}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(
        OUT, f"spans-{args.workload}-seed{args.seed}.json"))
    samples = dict.fromkeys(metrics, len(traced))
    return _report(args, workload, plain + traced, metrics, samples,
                   correct, verdict_errors, trace=True)


def _report(args, workload, results, metrics, samples, correct,
            verdict_errors, trace: bool) -> int:
    declared = _declared_metrics(trace)
    if sorted(declared) != sorted(metrics):
        print("perfbench: emitted metrics differ from BENCHMARK.json: "
              f"{sorted(set(declared) ^ set(metrics))}", file=sys.stderr)
        return 1
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(f"workload {args.workload}  seed {args.seed}  rounds "
          f"{len(results)}  trace {args.trace}")
    print(f"inputs digest {workload.inputs_digest}")
    print(f"outputs digest {results[0].digest}")
    print(f"verdict_errors {verdict_errors} count")
    print(f"failed_frac {failed / attempted:.6f} frac "
          f"({failed}/{attempted})")
    for name in declared:
        metric = metrics[name]
        print(f"{name} {metric['value']:.6g} {metric['unit']} "
              f"(n={samples[name]})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

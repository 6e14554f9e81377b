"""One benchmark process: set up a workload, run its timed closed loop.

Started by run.py as a fresh process, so caches and the peak RSS start
clean.  Prints one JSON object on its last line of standard output.

The loop is a single client: it sends the next check only after the
previous one returned, and it starts no threads.  Each check is timed in
process CPU seconds, with a reading of a fixed reference task just before
and just after it, which run.py uses to take out the host's speed swings.
Oracles run between checks with the clock stopped and tracing paused; the
expensive ones run after the timed phase.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENV_PERIOD_BOUND = "GH_HOMOTOPY_PERIOD_BOUND"

MIN_CHECKS = 100  # p90 needs at least 10 samples beyond it
MAX_FACTOR = 3  # a run stops early after this many times --seconds of check CPU
MAX_FAILURES_SHOWN = 5
REFERENCE_LOOP = 6000  # iterations; with REFERENCE_ROWS about 1 ms of CPU
REFERENCE_ROWS = np.arange(48 * 64, dtype=np.int64).reshape(48, 64) % 5


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference() -> float:
    """CPU seconds of a fixed reference task: the host's speed just now.

    The task mixes the two kinds of work singeq does: a pure-Python loop
    and row operations on a small integer array, as in ``linalg.rref``.
    It is the benchmark's own code, so no change to singeq moves it; run.py
    expresses timings in units of it (see ``run.normalised``).
    """
    t0 = time.process_time()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i
    R = REFERENCE_ROWS.copy()
    for r in range(4):
        for i in range(R.shape[0]):
            if i != r and R[i, r]:
                R[i] = (R[i] - R[i, r] * R[r]) % 5
    return time.process_time() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--checks", type=int, default=0,
                    help="run at most this many of the checks --seconds gives")
    ap.add_argument("--oracle", type=int, choices=(0, 1), default=1)
    ap.add_argument("--trace-out", default="")
    args = ap.parse_args(argv)

    if os.environ.get(ENV_PERIOD_BOUND) is not None:
        print(f"{ENV_PERIOD_BOUND} must be unset", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads  # imports singeq from the checkout

    wl = workloads.make(args.workload, ROOT)
    specs = wl.setup(args.seed, wl.max_checks)
    setup_s = time.process_time()
    result = {"setup_s": setup_s, "env": {ENV_PERIOD_BOUND: "unset"}}

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    cpu, ref, verdicts, keys, failures = [], [], {}, set(), []
    sequence = []  # one letter per check: verdict initial, or E if it raised
    repeats = 0
    rss_at_min = None
    # The count of checks follows from --seconds alone, not from how fast
    # the host or the program runs, so that every run of a seed times the
    # same checks.
    count = max(MIN_CHECKS, round(args.seconds * wl.checks_per_s))
    if args.checks:
        count = min(count, args.checks)
    limit = args.seconds * MAX_FACTOR
    spent = 0.0
    clock = time.process_time
    for idx, spec in enumerate(specs[:count]):
        if spent >= limit:
            break
        if tracer is not None:
            tracer.check = idx
        error = None
        r0 = reference()
        t0 = clock()
        try:
            out = wl.run(spec)
        except Exception as exc:  # a raising check is a failed check
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = clock() - t0
        if out is not None:
            dt -= out.get("untimed_s", 0.0)
        spent += dt
        cpu.append(dt)
        ref.append((r0 + reference()) / 2)
        if tracer is not None:
            tracer.paused = True
        key = wl.key(spec)
        repeats += key in keys
        keys.add(key)
        sequence.append("E" if error is not None else out["verdict"][0])
        if error is None:
            verdicts[out["verdict"]] = verdicts.get(out["verdict"], 0) + 1
            if args.oracle:
                try:
                    error = wl.oracle(spec, out)
                except Exception as exc:
                    error = f"oracle raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"check {idx} {spec!r:.120}: {error}")
        out = None
        if idx + 1 == MIN_CHECKS:
            rss_at_min = rss_mb()
        if tracer is not None:
            tracer.paused = False
    if tracer is not None:
        tracer.uninstall()
    if rss_at_min is None:
        rss_at_min = rss_mb()
    if args.oracle:
        try:
            failures += wl.final_oracle()
        except Exception as exc:
            failures.append(f"final oracle raised {type(exc).__name__}: {exc}")

    result.update({
        "attempted": len(cpu),
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES_SHOWN],
        "verdicts": verdicts,
        "sequence": "".join(sequence),
        "repeats": repeats,
        "cpu": cpu,
        "ref": ref,
        "timed_cpu_s": spent,
        "peak_rss_mb": rss_at_min,
    })
    if tracer is not None:
        result["trace"] = layer_metrics(tracer)
        result["trace"]["missing"] = tracer.missing
        if args.trace_out:
            tracer.dump(args.trace_out, {"workload": args.workload,
                                         "seed": args.seed,
                                         "checks": len(cpu)})
    print(json.dumps(result))
    return 0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    c = t.counters
    layer = t.layer_self_s()
    solves = t.calls_of("solver.FoldedSystem.solve")
    searches = t.calls_of("homotopy.search_periodic_homotopy")
    m = {
        "linalg.rref.calls": t.calls_of("linalg.rref"),
        "linalg.rref.cells": c.get("linalg.rref.cells", 0),
        "linalg.self_s": layer["linalg"],
        "solver.solve.calls": solves,
        "solver.kernel.calls": t.calls_of("solver.FoldedSystem.kernel"),
        "solver.unknowns": c.get("solver.unknowns", 0),
        "solver.rows": c.get("solver.rows", 0),
        "solver.solve.consistent_ratio": _ratio(c.get("solver.solve.consistent", 0), solves),
        "solver.self_s": layer["solver"],
        "homotopy.null_homotopy.calls": t.calls_of("homotopy.null_homotopy"),
        "homotopy.periodic.calls": searches,
        "homotopy.periodic.useful_ratio": _ratio(c.get("homotopy.periodic.found", 0), searches),
        "homotopy.verify.self_s": t.self_of(["homotopy.verify_null_homotopy",
                                             "homotopy.verify_certificate"]),
        "homotopy.self_s": layer["homotopy"],
        "modules.zero_module.calls": t.calls_of("modules.zero_module"),
        "modules.validate.calls": t.calls_of("modules.ModuleMap.validate")
        + t.calls_of("modules.Module.validate"),
        "modules.hom_basis.calls": t.calls_of("modules.hom_basis"),
        "modules.find_isomorphism.calls": t.calls_of("modules.find_isomorphism"),
        "modules.self_s": layer["modules"],
        "complexes.validate.calls": t.calls_of("complexes.Complex.validate")
        + t.calls_of("complexes.ChainMap.validate"),
        "complexes.validate.self_s": t.self_of(["complexes.Complex.validate",
                                                "complexes.ChainMap.validate"]),
        "complexes.self_s": layer["complexes"],
        "approx.stalk_replacement.calls": t.calls_of("approx.stalk_replacement"),
        "approx.complete_resolution.calls": t.calls_of("approx.complete_resolution"),
        "approx.self_s": layer["approx"],
        "modelcat.orthogonal_certificate.calls": t.calls_of("modelcat.orthogonal_certificate"),
        "modelcat.orthogonal_certificate.pairs": c.get("modelcat.orthogonal_certificate.pairs", 0),
        "modelcat.self_s": layer["modelcat"],
        "equiv.verify_round_trip.calls": t.calls_of("equiv.verify_round_trip"),
        "equiv.self_s": layer["equiv"],
        "formats.self_s": layer["formats"],
        "cli.self_s": layer["cli"],
    }
    for strategy in ("bounded", "stable", "periodic", "stable_periodic"):
        m[f"homotopy.strategy.{strategy}"] = c.get(f"homotopy.strategy.{strategy}", 0)
    # cache metrics are absent when the cache dict no longer exists
    caches = {"functors": ("functors._OMEGA_CACHE", "functors._THETA_CACHE"),
              "approx": ("approx._REPLACEMENT_CACHE",)}
    for layer_name, dicts in caches.items():
        present = [d for d in dicts if _cache_exists(d)]
        if not present:
            continue
        reads = sum(c.get(f"{d}.reads", 0) for d in present)
        misses = sum(c.get(f"{d}.misses", 0) for d in present)
        m[f"{layer_name}.cache_reads"] = reads
        m[f"{layer_name}.cache_hit_ratio"] = _ratio(reads - misses, reads)
    m["spans"] = len(t.span_start)
    return m


def _cache_exists(dotted: str) -> bool:
    mod, name = dotted.split(".")
    return isinstance(getattr(sys.modules.get(f"singeq.{mod}"), name, None), dict)


if __name__ == "__main__":
    sys.exit(main())

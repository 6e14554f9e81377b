"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload htpy-dn --seed 1 --seconds 20 --trace 0

Every measurement runs in a fresh worker process (worker.py), so the
program's caches and the peak RSS start clean in each run.  With
``--trace 0`` two workers run the same checks, each sized for half of
``--seconds``, and each check's CPU time is the mean of its two
measurements, in reference seconds (``normalised``); the result holds the
end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it holds the per-layer metrics of a traced run, plus
the tracing overhead against an untraced run of the same checks.
Human-readable lines come first; the last line of standard output is the
JSON result.  The exit code is 0 only when every check passed its oracle;
it is 3, with no result, when the workers outlast ``time_limit``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import MAX_FACTOR

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("htpy-dn", "pipeline-d2", "cli-session")
ENV_PERIOD_BOUND = "GH_HOMOTOPY_PERIOD_BOUND"
# Each check is timed in two fresh processes (ROADMAP item 1).
REPEATS = 2
OUT_DIR = ".perfbench_out"
# The CPU time of the worker's reference task that defines a reference
# second; the task's median per run was 1.0-1.1 ms on the 2-vCPU Xeon the
# benchmark was written on, so reference seconds are close to its CPU
# seconds.
REFERENCE_S = 1e-3
FIXED_S = 10.0  # set-up and deferred oracles of one run, see time_limit


def time_limit(seconds: float) -> float:
    """Wall-clock guard for all workers of one run, from ``--seconds``.

    Each worker's timed loop stops after ``MAX_FACTOR`` times its budget of
    check CPU, and the budgets of one run add up to ``REPEATS`` times
    ``--seconds`` at most.  Outside the loops a run spends a few seconds
    that do not grow with ``--seconds``: set-up (about 1 s per worker) and
    the deferred oracles (at most about 4 s).  The guard allows twice all
    of that, so only a hung worker reaches it.
    """
    return 2 * (REPEATS * MAX_FACTOR * seconds + FIXED_S)


class WorkerError(RuntimeError):
    pass


class WorkerTimeout(WorkerError):
    pass


def worker(args: list, env: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerTimeout(f"no time left for worker {args}")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerTimeout(f"worker {args} was stopped at the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {args} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def normalised(runs: list) -> tuple:
    """Per-check and set-up times of a run, in reference seconds.

    The host's CPU speed drifts by up to a third between runs and swings
    within seconds, and CPU seconds drift with it.  A reference second is
    the CPU time scaled to a host on which the worker's fixed reference
    task takes ``REFERENCE_S``.  Each check is scaled by the mean of the
    task's two readings around it and averaged over the workers; set-up,
    which has no readings around it, is scaled by the median reading of
    the run.
    """
    cpu = [statistics.fmean(t * REFERENCE_S / ref for t, ref in zip(times, refs))
           for times, refs in zip(zip(*(r["cpu"] for r in runs)),
                                  zip(*(r["ref"] for r in runs)))]
    scale = REFERENCE_S / statistics.median(x for r in runs for x in r["ref"])
    return cpu, [r["setup_s"] * scale for r in runs]


def end_to_end(runs: list) -> dict:
    """Metrics of one run; ``runs`` are workers that ran the same checks."""
    main = runs[0]
    cpu, setups = normalised(runs)
    attempted = main["attempted"]
    unknown = main["verdicts"].get("UNKNOWN", 0)
    return {
        "check_cpu_s.p50": (statistics.median(cpu), "s"),
        "check_cpu_s.p90": (statistics.quantiles(cpu, n=10, method="inclusive")[8], "s"),
        "checks_per_cpu_s": ((attempted - main["failed"]) / sum(cpu), "1/s"),
        "decided_ratio": ((attempted - unknown) / attempted, "ratio"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(traced: dict, base: dict) -> dict:
    out = {}
    for name, value in traced["trace"].items():
        if isinstance(value, (int, float)) and name != "spans":
            unit = "s" if name.endswith("_s") else (
                "ratio" if name.endswith("_ratio") else "count")
            out[name] = (value, unit)
    out["trace.overhead_ratio"] = (traced["timed_cpu_s"] / base["timed_cpu_s"], "ratio")
    return out


def summary(name: str, run: dict) -> None:
    a = run["attempted"]
    v = run["verdicts"]
    print(f"{name}: {a} checks, verdicts {v}, "
          f"unknown_ratio {v.get('UNKNOWN', 0)}/{a}, "
          f"failed_ratio {run['failed']}/{a}, "
          f"repeated inputs {run['repeats']}/{a}, "
          f"timed CPU {run['timed_cpu_s']:.3f} s, "
          f"{ENV_PERIOD_BOUND} {run['env'][ENV_PERIOD_BOUND]}")
    for failure in run["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    limit = time_limit(args.seconds)
    deadline = time.monotonic() + limit

    if not os.path.isfile(os.path.join(ROOT, "src", "singeq", "__init__.py")):
        print(f"no singeq sources under {ROOT}/src", file=sys.stderr)
        return 2
    env = dict(os.environ)
    was_set = env.pop(ENV_PERIOD_BOUND, None) is not None
    print(f"{ENV_PERIOD_BOUND}: unset for the workers"
          + (" (it was set in the caller's environment)" if was_set else ""))

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
            # one file per workload, replaced by the next traced run
            trace_out = os.path.join(ROOT, OUT_DIR, f"trace-{args.workload}.npz")
            traced = worker(common + ["--seconds", str(args.seconds), "--trace", "1",
                                      "--trace-out", trace_out], env, deadline)
            summary("traced run", traced)
            base = worker(common + ["--seconds", str(args.seconds), "--trace", "0",
                                    "--oracle", "0", "--checks", str(traced["attempted"])],
                          env, deadline)
            missing = traced["trace"].get("missing", [])
            if missing:
                print(f"not instrumented (absent in this version): {missing}")
            print(f"spans written to {os.path.relpath(trace_out, ROOT)} "
                  f"({traced['trace']['spans']} spans)")
            metrics = per_layer(traced, base)
            run, others = traced, [base]
        else:
            share = ["--seconds", str(args.seconds / REPEATS)]
            run = worker(common + share, env, deadline)
            summary("timed run", run)
            runs = [run] + [
                worker(common + share + ["--checks", str(run["attempted"]),
                                         "--oracle", "0"], env, deadline)
                for _ in range(REPEATS - 1)]
            print("setup_s samples: "
                  + ", ".join(f"{r['setup_s']:.4f}" for r in runs)
                  + "; reference task median (ms): "
                  + f"{statistics.median(x for r in runs for x in r['ref']) * 1e3:.4f}")
            metrics = end_to_end(runs)
            others = runs[1:]
    except WorkerTimeout as exc:
        print(f"benchmark timed out after {limit:.0f} s, the limit for "
              f"--seconds {args.seconds:g}: {exc}", file=sys.stderr)
        return 3
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for other in others:  # checks that raised when timed again
        for failure in other["failures"]:
            print(f"  FAILED on repeat {failure}")
    failed = run["failed"] + sum(other["failed"] for other in others)

    print(f"check_cpu_s samples: {run['attempted']}")
    result = {
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

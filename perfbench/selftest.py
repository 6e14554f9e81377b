"""Self-test of the benchmark: tracer coverage, aliasing and repeatability.

    python3 perfbench/selftest.py

Runs a few checks of each workload in fresh worker processes (about a
minute of CPU in all).  Not collected by the repository's pytest run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
from singeq import complexes, fixtures, homotopy, linalg, solver  # noqa: E402

# checks per workload: enough to reach every layer the workload uses
TINY = {"htpy-dn": 4, "pipeline-d2": 20, "cli-session": 24}
SEED = 7

# layers each workload must reach
LAYERS = {
    "htpy-dn": ("linalg", "solver", "homotopy", "modules", "complexes", "functors"),
    "pipeline-d2": ("linalg", "solver", "homotopy", "modules", "complexes",
                    "functors", "modelcat", "approx", "equiv"),
    "cli-session": ("linalg", "solver", "homotopy", "modules", "complexes",
                    "functors", "modelcat", "approx", "equiv", "formats", "cli"),
}

# counts that must repeat exactly for one seed
DETERMINISTIC = ("linalg.rref.calls", "linalg.rref.cells", "solver.unknowns",
                 "solver.rows", "homotopy.strategy.bounded",
                 "homotopy.strategy.stable", "homotopy.strategy.periodic",
                 "homotopy.strategy.stable_periodic")


def traced_run(workload: str, out: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != worker.ENV_PERIOD_BOUND}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(SEED), "--trace", "1", "--checks", str(TINY[workload]),
         "--trace-out", out],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TracedRuns(unittest.TestCase):
    runs: dict = {}

    @classmethod
    def setUpClass(cls):
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        for wl in TINY:
            paths = [os.path.join(out_dir, f"selftest-{wl}-{i}.npz") for i in range(2)]
            cls.runs[wl] = [(traced_run(wl, path), path) for path in paths]

    @classmethod
    def tearDownClass(cls):
        for runs in cls.runs.values():
            for _, path in runs:
                os.remove(path)

    def test_every_layer_records_a_span(self):
        for wl, layers in LAYERS.items():
            result, path = self.runs[wl][0]
            self.assertEqual(result["failed"], 0, result["failures"])
            with np.load(path) as doc:
                names = doc["names"]
                seen = {str(names[i]).split(".", 1)[0] for i in set(doc["name"].tolist())}
            for layer in layers:
                self.assertIn(layer, seen, f"{wl}: no span in layer {layer}")

    def test_same_seed_same_counts_and_verdicts(self):
        for wl in TINY:
            (a, _), (b, _) = self.runs[wl]
            self.assertEqual(a["sequence"], b["sequence"], wl)
            for name in DETERMINISTIC:
                self.assertEqual(a["trace"][name], b["trace"][name], f"{wl} {name}")

    def test_spans_nest_inside_their_parents(self):
        _, path = self.runs["htpy-dn"][0]
        with np.load(path) as spans:
            parent, start, end = spans["parent"], spans["start"], spans["end"]
        nested = parent >= 0
        self.assertTrue(nested.any())
        self.assertTrue((start[parent[nested]] <= start[nested]).all())
        self.assertTrue((end[nested] <= end[parent[nested]]).all())


class Aliases(unittest.TestCase):
    def test_alias_calls_are_caught_and_restored(self):
        original_compose = complexes.compose
        original_solve = solver.FoldedSystem.solve
        t = tracer.Tracer()
        t.install()
        try:
            # homotopy holds its own binding of complexes.compose and of
            # solver.FoldedSystem; calls through either must be recorded
            self.assertIsNot(homotopy.compose, original_compose)
            X = fixtures.t_per()
            idX = complexes.identity_chain_map(X)
            homotopy.compose(idX, idX)
            self.assertEqual(t.calls_of("complexes.compose"), 1)
            sys_ = homotopy.FoldedSystem(2, {0: (1, 1)}, 0, 0)
            sys_.add_equation(linalg.eye(1), [(linalg.eye(1), 0, linalg.eye(1))])
            self.assertIsNotNone(sys_.solve())
            self.assertEqual(t.calls_of("solver.FoldedSystem.solve"), 1)
            self.assertGreaterEqual(t.calls_of("linalg.rref"), 1)
            self.assertEqual(t.counters["solver.unknowns"], 1)
        finally:
            t.uninstall()
        self.assertIs(homotopy.compose, original_compose)
        self.assertIs(complexes.compose, original_compose)
        self.assertIs(solver.FoldedSystem.solve, original_solve)

    def test_removed_cache_is_reported_absent(self):
        from singeq import approx

        saved = approx._REPLACEMENT_CACHE
        del approx._REPLACEMENT_CACHE
        t = tracer.Tracer()
        try:
            t.install()
            metrics = worker.layer_metrics(t)
        finally:
            t.uninstall()
            approx._REPLACEMENT_CACHE = saved
        self.assertNotIn("approx.cache_hit_ratio", metrics)
        self.assertIn("functors.cache_hit_ratio", metrics)


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".perfbench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "htpy-dn",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

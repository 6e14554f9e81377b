"""Each demo prints exactly its checked-in output.

The demos' output holds verdicts, strategies and dimensions and no times,
so it is the same on every run; each demo runs in a new process (its memos
start empty) with numpy's overflow and invalid-value warnings as errors, and
its stdout must equal tests/demo_output/<demo>.txt line for line.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "0*.py")))


def test_every_demo_has_an_expected_output():
    expected = sorted(os.listdir(os.path.join(ROOT, "tests", "demo_output")))
    assert expected == [os.path.basename(d)[:-3] + ".txt" for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_prints_its_expected_output(demo):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"),
           "PYTHONWARNINGS": "error::RuntimeWarning"}
    out = subprocess.run([sys.executable, demo], cwd=ROOT, capture_output=True,
                         text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr[-2000:]
    name = os.path.basename(demo)[:-3] + ".txt"
    with open(os.path.join(ROOT, "tests", "demo_output", name)) as fh:
        assert out.stdout.splitlines() == fh.read().splitlines()

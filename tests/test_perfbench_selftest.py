"""The benchmark's self-test passes against this checkout.

perfbench/tracer.py hooks methods of singeq by name (Complex.validate,
ChainMap.validate, is_mono, ...), so renaming one breaks the benchmark's
traced runs; this runs `python3 perfbench/selftest.py` (a few seconds),
with numpy's overflow and invalid-value warnings as errors.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"}
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]

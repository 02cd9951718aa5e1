"""The benchmark's correctness gate at full size.

A run of a workload on seed 0 must reproduce the errors pinned in
``perfbench/harness.py`` to a relative 1e-10, conserve mass and give
finite fields, or it reports ``"correct": false``.  Running it here
makes a roundoff drift past a pin fail the test suite.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["ci", "sweep"])
def test_benchmark_run_is_correct(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout + proc.stderr

"""Every demo runs to completion at a small size."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMALL = ["--N", "4", "--n", "16"]
DEMOS = {"01_fine_scale_solve.py": SMALL,
         "02_multiscale_vs_fine.py": SMALL,
         "03_basis_refinement.py": SMALL,
         "04_scheme_comparison.py": SMALL,
         "05_field_generation.py": ["--n", "16"]}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo, tmp_path):
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo), *DEMOS[demo]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr

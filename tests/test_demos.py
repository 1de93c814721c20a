"""Smoke test: the quick demos run to completion.

Each runs in a fresh interpreter and must exit 0.
"""

import os
import pathlib
import subprocess
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_DEMOS = ["01_unknot_family.py", "02_horadam_sequences.py",
          "03_knot_types.py", "04_torus_detection.py", "05_census.py"]


@pytest.mark.parametrize("demo", _DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(_ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr

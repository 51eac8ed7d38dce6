"""Every narrative demo script runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# Demo 04 takes about 30 s; acceptance criterion 1 checks the same table.
SLOW = {"04_quadrics_through_14_points.py"}
SCRIPTS = sorted(p.name for p in (ROOT / "demos").glob("*.py") if p.name not in SLOW)


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_script_exits_zero(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

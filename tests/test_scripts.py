"""The three scripts run end to end: each is started as its own process on
small arguments and must exit 0 after printing its header."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,header", [
    ("orbit_families.py", ["--steps", "200"],
     f"{'e':>6} {'flow':>4} {'H drift (rel)':>14} {'|mu_v|^2 drift':>15} {'|mu_eta|^2 drift':>17}"),
    ("third_order_demo.py", ["--steps", "300"], "proportional start (pi2 = 0.7 pi1):"),
    ("jet_group_check.py", ["--trials", "3"],
     f"{'group':>6} {'layout':>8} {'order':>5} {'assoc':>10} {'unit':>10} {'inverse':>10}"),
])
def test_script_runs(script, args, header):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines()

"""The example scripts run end to end at small sizes (seeded_outputs.py in
test_seeded_outputs.py)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_discovery_demo.py", ["--n", "300"]),
        ("run_estimator_sweep.py", ["--n", "500"]),
        ("run_kernel_calibration.py", ["--trials", "4", "--m", "30", "--perms", "19"]),
        ("run_anm_sweep.py", ["--seeds", "2", "--n", "200", "--perms", "19"]),
    ],
)
def test_script_exits_zero(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()

"""Each experiment script runs to the end on a small input and prints its table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("run_demo.py", ["--seed", "0"]),
    ("calibrate_ignition.py", ["--seeds", "2", "--ticks", "20", "--sizes", "5", "10"]),
    ("response_timing_experiment.py", ["--seeds", "2", "--ticks", "10", "--budget", "4"]),
])
def test_script_runs_and_prints(script, args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()

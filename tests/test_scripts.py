"""Each experiment script runs to the end on a small input and prints its table."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, args: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


@pytest.mark.parametrize("script, args", [
    ("run_demo.py", ["--seed", "0"]),
    ("calibrate_ignition.py", ["--seeds", "2", "--ticks", "20", "--sizes", "5", "10"]),
    ("response_timing_experiment.py", ["--seeds", "2", "--ticks", "10", "--budget", "4"]),
])
def test_script_runs_and_prints(script, args):
    assert _run(script, args).stdout.strip()


def test_golden_reach_counts_module_level_lines():
    """One small case reaches some lines, not all; the counter starts before
    firesim is imported, so no module's import line is left unreached."""
    head, allowlisted, *missed = _run("golden_reach.py", [
        "--case", "analyze:write_analyze_inputs"]).stdout.splitlines()
    hit, total, unreached = (int(n.replace(",", "")) for n in re.findall(r"[\d,]+", head))
    assert 0 < hit < total and unreached == total - hit == len(missed)
    assert "only raises a named error" in allowlisted
    module_level = r"  \w+\.py:\d+: (from __future__|import numpy|import importlib)\b"
    assert not [line for line in missed if re.match(module_level, line)]

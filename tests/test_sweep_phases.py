"""`scripts/sweep_phases.py` as a process: one round prints its JSON line."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_round_prints_every_phase():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sweep_phases.py"),
         "--rounds", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert (doc["seed"], doc["rounds"]) == (0, 1)
    phases = doc["median_ms_per_pass"]
    assert list(phases) == ["parse", "load", "table", "pool", "label",
                            "records", "format", "total"]
    assert all(ms >= 0 for ms in phases.values())

"""`scripts/sigmoid_demo.py` as a process: finite JSON out, bad arguments exit 2."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sigmoid_demo.py"), *argv],
        capture_output=True, text=True, env=env, timeout=120)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_default_run_prints_finite_json():
    done = run_demo()
    assert done.returncode == 0
    doc = json.loads(done.stdout, parse_constant=_reject_constant)
    assert len(doc["trials"]) == 5


@pytest.mark.parametrize("argv", [("--trials", "0"), ("--dimension", "0"),
                                  ("--kappa", "0"), ("--iterations", "-1"),
                                  ("--kappa", "nan"), ("--kappa", "inf"),
                                  ("--dimension", "1001"),
                                  ("--trials", "1001")])
def test_bad_argument_exits_two_with_one_line(argv):
    done = run_demo(*argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert "error:" in done.stderr


def test_negative_seed_exits_two_naming_the_seed():
    done = run_demo("--seed", "-1")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == ("sigmoid_demo.py: error: seed must be a "
                           "non-negative integer, got -1\n")


def test_size_budget_exits_two_with_one_line():
    # 17 trials x dimension 241 = 4097, one over the diagnostics' budget
    done = run_demo("--trials", "17", "--dimension", "241")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert "trials x dimension must be at most 4096, got 4097" in done.stderr


def test_billion_iterations_finish_with_finite_json():
    # the ascent stops once its iterate cycles, so the step count costs nothing
    done = run_demo("--iterations", "1000000000")
    assert done.returncode == 0
    doc = json.loads(done.stdout, parse_constant=_reject_constant)
    assert doc["iterations"] == 10**9
    assert len(doc["trials"]) == 5


def test_search_without_a_repeat_exits_two_with_one_line():
    # kappa 1e-5 does not cycle within the ascent's steps x coordinates
    # budget, so the search is refused rather than run for minutes
    done = run_demo("--dimension", "1000", "--trials", "4", "--kappa", "1e-5",
                    "--iterations", "1000000000")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert "repeated no state within 3072 steps" in done.stderr

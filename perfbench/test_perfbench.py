"""Determinism checks for the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3
# one short job per workload, so the test runs in seconds
CHEAP_JOBS = {"sweep-construct": ["recipe3"],
              "sweep-lowdim": ["ord-ord/plain", "norm-dot/ranked"],
              "decide-avg-dot": ["kb0"],
              "table1": ["table1"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = [job.inputs() for job in workloads.build_jobs(workload, SEED)]
    again = [job.inputs() for job in workloads.build_jobs(workload, SEED)]
    other = [job.inputs() for job in workloads.build_jobs(workload, SEED + 1)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_leaves_output_digests_unchanged(workload):
    jobs = [job for job in workloads.build_jobs(workload, SEED)
            if job.name in CHEAP_JOBS[workload]]
    tracer = tracing.Tracer()
    bench = run.Run(workload, SEED, jobs, tracer, run.load_golden())
    for job in jobs:
        bench.execute(job, traced=False)
        bench.execute(job, traced=True)  # digest compared with the first
    assert bench.problems == []
    assert bench.attempted == 2 * len(jobs)
    assert len(tracer.start) > len(jobs)
    import embedsim.logic
    import embedsim.verifier
    assert embedsim.verifier.entails is embedsim.logic.entails
    assert not hasattr(embedsim.logic.entails, "__wrapped__")


def test_traced_summary_names_every_per_layer_metric():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    summary = tracing.Tracer().summary(passes=1)
    names = {m["name"] for m in spec["per_layer"]}
    assert names - set(summary) == {"trace.untraced_s", "trace.overhead_s"}

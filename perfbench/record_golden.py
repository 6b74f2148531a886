#!/usr/bin/env python3
"""Record the output digests that run.py checks every job against.

    python3 perfbench/record_golden.py SEED [SEED ...]

Runs each job of every workload once per seed on the current sources,
with the same checks as a benchmark run, and rewrites
perfbench/golden.json.  The table and the CE1 decision of --baseline do
not depend on the seed and are recorded once under "fixed".  Record only from sources
whose outputs are the reference: a later change must reproduce these
bytes.
"""

import json
import sys

import run


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv]
    if not seeds:
        sys.exit(__doc__)
    workloads = run.load_library()
    empty = {"fixed": {}, "seeded": {}}
    golden = {"fixed": {}, "seeded": {}}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            jobs = [job for job in workloads.build_jobs(workload, seed)
                    if job.name not in golden["fixed"]]
            bench = run.Run(workload, seed, jobs, None, empty)
            for job in jobs:
                bench.execute(job, traced=False)
            if bench.failed:
                sys.exit(f"{workload} seed {seed}: {bench.problems}")
            digests = {name: o.digest for name, o in bench.first.items()}
            for name in ("table1", "CE1"):
                if name in digests:
                    golden["fixed"][name] = digests.pop(name)
            if digests:
                golden["seeded"].setdefault(workload, {})[str(seed)] = digests
            print(f"{workload} seed {seed}: {len(bench.first)} jobs",
                  flush=True)
    ce1 = next(job for job in workloads.baseline_jobs(0) if job.name == "CE1")
    bench = run.Run("baseline", 0, [ce1], None, empty)
    bench.execute(ce1, traced=False)
    if bench.failed:
        sys.exit(f"CE1: {bench.problems}")
    golden["fixed"]["CE1"] = bench.first["CE1"].digest
    with open(run.HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

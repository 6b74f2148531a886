#!/usr/bin/env python3
"""Benchmark for embedsim: seeded workloads driven through the library API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --baseline --seed N

Run from the root of a checkout; the library is imported from `src/`.
One run repeats passes over the workload's jobs until the next pass would
end after `--seconds` (at least three passes), checks every job's output,
and prints a run record followed, on the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
each job runs once untraced and once traced, and the metrics are the
per-layer ones.  `--workload all` runs every workload in a fresh process.
`--baseline` times the single cases measured when the roadmap was last
re-anchored.  See perfbench/README.md.
"""

import os

# one OS thread: numpy's BLAS pool would otherwise start a second thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
# The speed of the VM this was written on drifts by up to 1.8x over
# minutes.  `calibrate()` times a fixed loop next to every measurement;
# each measured time is scaled by CAL_REFERENCE_S / (that loop's time),
# which reports it in seconds at the speed where the loop takes
# CAL_REFERENCE_S, and cancels the drift.
CAL_REFERENCE_S = 0.0025
MIN_PASSES = 3  # a job's median needs repetitions even when a pass stalls
CHILD_TIMEOUT_S = 170


def load_library():
    """Import embedsim and the workloads from this checkout's sources."""
    if not (SRC / "embedsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no embedsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import embedsim
    if Path(embedsim.__file__).resolve().parent != SRC / "embedsim":
        sys.exit(f"perfbench: imported embedsim from {embedsim.__file__}, "
                 f"not from {SRC}")
    import workloads
    return workloads


def load_oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def library_caches() -> list:
    """The package's memo caches, emptied before every job so that each
    job starts as cold as a fresh CLI process."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "embedsim" or name.startswith("embedsim."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    return list(caches.values())


def load_golden() -> dict:
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)


def expected_digest(golden: dict, workload: str, seed: int,
                    job: str) -> str | None:
    if job in golden["fixed"]:
        return golden["fixed"][job]
    return golden["seeded"].get(workload, {}).get(str(seed), {}).get(job)


def calibrate() -> float:
    """Fastest of three runs of a fixed loop of small exact-rational,
    tuple and dict work (the program's staple), in seconds."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        table = {}
        for i in range(600):
            x = Fraction(i % 13 - 6, i % 5 + 1) * Fraction(3, i % 7 + 1)
            table[i % 17] = (x >= 0, x + Fraction(1, 3))
        best = min(best, time.perf_counter() - started)
    return best


# ------------------------------------------------------------------
# Set-up time: fresh processes that import and generate, then report
# ------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    workloads = load_library()
    workloads.build_jobs(workload, seed)
    print(time.perf_counter_ns())


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """(raw, reference) seconds from the start of a fresh process until it
    has imported embedsim and generated the inputs (CLOCK_MONOTONIC is
    system-wide), calibrated right before and after the probe."""
    cal_before = calibrate()
    started = time.perf_counter_ns()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        cwd=ROOT)
    raw = (int(done.stdout.split()[-1]) - started) / 1e9
    return raw, raw * CAL_REFERENCE_S / ((cal_before + calibrate()) / 2)


# ------------------------------------------------------------------
# The measured loop
# ------------------------------------------------------------------

class Run:
    """Executes the jobs, times them and checks every output."""

    def __init__(self, workload: str, seed: int, jobs: list, tracer,
                 golden: dict):
        self.workload = workload
        self.seed = seed
        self.jobs = jobs
        self.tracer = tracer
        self.golden = golden
        self.caches = library_caches()
        self.oracles = None
        self.times = {job.name: [] for job in jobs}  # raw s, untraced only
        self.scales = {job.name: [] for job in jobs}  # to reference s
        self.trace_scales: list[float] = []
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes = 0

    def measure(self, seconds: float, between=None) -> None:
        """Repeat passes until the next one would end after `seconds`
        (but at least MIN_PASSES); `between` runs after each pass, inside
        the time budget."""
        deadline = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            for job in self.jobs:
                self.execute(job, traced=False)
                if self.tracer is not None:
                    self.execute(job, traced=True)
            self.passes += 1
            if between is not None:
                between()
            now = time.perf_counter()
            if self.passes >= MIN_PASSES and now + (now - started) > deadline:
                break

    def execute(self, job, traced: bool) -> None:
        for cache in self.caches:
            cache.cache_clear()
        self.attempted += 1
        span = None
        cal_before = calibrate()
        if traced:
            self.tracer.install()
            span = self.tracer.begin_job(f"{self.passes}/{job.name}")
        started = time.perf_counter()
        try:
            result = job.run()
        except Exception:
            self.fail(job, "raised:\n" + traceback.format_exc())
            return
        finally:
            elapsed = time.perf_counter() - started
            if traced:
                self.tracer.close(span)
                self.tracer.uninstall()
        scale = CAL_REFERENCE_S / ((cal_before + calibrate()) / 2)
        if traced:
            self.trace_scales.append(scale)
        else:
            self.times[job.name].append(elapsed)
            self.scales[job.name].append(scale)
        try:
            problems = self.check(job, result)
        except Exception:
            problems = ["check raised:\n" + traceback.format_exc()]
        if problems:
            self.fail(job, "; ".join(problems))

    def check(self, job, result) -> list[str]:
        first = self.first.get(job.name)
        if first is None and self.oracles is None:
            self.oracles = load_oracles()
        outcome = job.check(result, deep=first is None, oracles=self.oracles)
        problems = list(outcome.problems)
        if first is None:
            self.first[job.name] = outcome
            want = expected_digest(self.golden, self.workload, self.seed,
                                   job.name)
            if want is not None and outcome.digest != want:
                problems.append(f"output digest {outcome.digest[:12]} differs "
                                f"from the recorded {want[:12]}")
        elif outcome.digest != first.digest:
            problems.append("output differs from this run's first execution")
        return problems

    def fail(self, job, message: str) -> None:
        self.failed += 1
        self.problems.append(f"{job.name}: {message}")
        print(f"perfbench: job {job.name} failed: {message}", file=sys.stderr)

    # -- figures ----------------------------------------------------

    def reference_times(self, job) -> list[float]:
        return [t * s for t, s in zip(self.times[job.name],
                                      self.scales[job.name])]

    def wall_s(self) -> float:
        """One pass in reference seconds, each job at its median
        repetition in this run."""
        return sum(statistics.median(self.reference_times(job))
                   for job in self.jobs if self.times[job.name])

    def queries(self) -> int:
        return sum(o.queries for o in self.first.values())


# ------------------------------------------------------------------
# Run record
# ------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "embedsim").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # a parent directory's repository is not this checkout
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def machine_record(seed: int) -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": commit(),
            "source_sha256": source_digest(),
            "seed": seed,
            "command": [Path(sys.executable).name] + sys.argv}


def job_rows(run: Run) -> list[dict]:
    rows = []
    for job in run.jobs:
        times = run.times[job.name]
        outcome = run.first.get(job.name)
        row = {"job": job.name, "runs": len(times)}
        if times:
            row.update(min_s=min(times), median_s=statistics.median(times),
                       max_s=max(times), median_ref_s=statistics.median(
                           run.reference_times(job)))
        if outcome is not None:
            row.update(queries=outcome.queries, verdict=outcome.verdict,
                       digest=outcome.digest)
        rows.append(row)
    return rows


def print_record(record: dict) -> None:
    print(f"perfbench {record['workload']} seed={record['machine']['seed']} "
          f"trace={record['trace']} passes={record['passes']}")
    for key, value in record["machine"].items():
        print(f"  {key}: {value}")
    print(f"  {'job':<20} {'runs':>4} {'min_s':>9} {'median_s':>9} "
          f"{'max_s':>9} {'median_ref_s':>12} {'queries':>7}  verdict")
    for row in record["jobs"]:
        print(f"  {row['job']:<20} {row['runs']:>4} {row.get('min_s', 0):9.4f} "
              f"{row.get('median_s', 0):9.4f} {row.get('max_s', 0):9.4f} "
              f"{row.get('median_ref_s', 0):12.4f} {row.get('queries', 0):>7}"
              f"  {row.get('verdict', '-')}")
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  error_rate = {record['error_rate']:.4g} "
          f"({record['failed']} of {record['attempted']} job runs failed)")


def bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_one(args) -> int:
    workloads = load_library()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r} "
                 f"(known: {', '.join(workloads.WORKLOADS)}, all)")
    spec = bench_spec()
    jobs = workloads.build_jobs(args.workload, args.seed)
    tracer = None
    setup: list[tuple[float, float]] = []  # (raw, reference) seconds

    def probe():
        setup.append(measure_setup(args.workload, args.seed))

    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    run = Run(args.workload, args.seed, jobs, tracer, load_golden())
    # set-up probes run between passes, so they sample the whole run
    run.measure(args.seconds, between=None if args.trace else probe)
    while not args.trace and len(setup) < SETUP_PROBES:
        probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        # span times, like every time reported, in reference seconds
        scale = statistics.fmean(run.trace_scales) if run.trace_scales else 1.0
        values = {name: value * scale if name.endswith("_s") else value
                  for name, value in tracer.summary(run.passes).items()}
        untraced = sum(sum(run.reference_times(job))
                       for job in run.jobs) / run.passes
        values["trace.untraced_s"] = untraced
        values["trace.overhead_s"] = values["trace.top_level_s"] - untraced
        wanted = spec["per_layer"]
    else:
        wall = run.wall_s()
        values = {"setup_s": statistics.median(ref for _, ref in setup),
                  "wall_s": wall,
                  "queries_per_s": run.queries() / wall if wall else 0.0,
                  "peak_rss_mb": peak_rss_mb}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record = {"workload": args.workload, "trace": args.trace,
              "machine": machine_record(args.seed), "passes": run.passes,
              "setup_probes_s": setup, "jobs": job_rows(run),
              "metrics": metrics, "attempted": run.attempted,
              "failed": run.failed,
              "error_rate": run.failed / max(run.attempted, 1),
              "problems": run.problems, "peak_rss_mb": peak_rss_mb}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if tracer is not None:
        tracer.save(OUT / f"{stem}-spans.npz")
    print_record(record)
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    workloads = load_library()
    results = {}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited {done.returncode}")
        sys.stdout.write(done.stdout)
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'workload':<16} " + " ".join(f"{n:>16}" for n in names)
          + f" {'error_rate':>10}")
    for name, res in results.items():
        cells = " ".join(f"{res['metrics'][n]['value']:>16.6g}" for n in names)
        rate = res["failed"] / res["attempted"]
        print(f"{name:<16} {cells} {rate:>10.4g}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{n}": m for w, r in results.items()
                    for n, m in r["metrics"].items()}}))
    return 0


def run_baseline(args) -> int:
    """Single runs of the roadmap's re-anchor cases, checked like the jobs."""
    workloads = load_library()
    jobs = workloads.baseline_jobs(args.seed)
    run = Run("baseline", args.seed, jobs, None, load_golden())
    for job in jobs:
        run.execute(job, traced=False)
    record = {"workload": "baseline", "trace": 0,
              "machine": machine_record(args.seed), "passes": 1,
              "jobs": job_rows(run), "attempted": run.attempted,
              "failed": run.failed,
              "error_rate": run.failed / max(run.attempted, 1),
              "metrics": {f"{job.name}_s": {"value": run.times[job.name][0]
                                            if run.times[job.name] else 0.0,
                                            "unit": "s"} for job in jobs}}
    print_record(record)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": record["metrics"]}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="time the roadmap's single baseline cases")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.baseline:
        return run_baseline(args)
    if args.workload == "all":
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

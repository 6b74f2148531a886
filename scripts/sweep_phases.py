#!/usr/bin/env python3
"""Per-phase times of the `sweep-lowdim` benchmark jobs, in process.

    python3 scripts/sweep_phases.py [--seed N] [--rounds R]

Run from the root of a checkout; the library is imported from `src/` and
the jobs are built by `perfbench/workloads.py`, so two checkouts given
the same seed time the same inputs.  `perfbench/run.py --trace 1`
charges a whole sweep to `verifier.sweep_s`; this splits one pass over
the jobs into its phases, each the median over the rounds of a pass's
total, in raw milliseconds:

    parse    logic.parse_kb of the KB text
    load     json.loads and AttributeEmbedding.from_json_dict
    table    the KB's consequence table, on a freshly parsed KB
    pool     the sweep's walk over the subsets, pooling each by one step
    label    the same walk, labelling every pooled value
    records  the rest of the sweep: scaling, binding the labeller and
             keeping each wrong subset (the sweep less pool and label)
    format   the report's `to_dict()`, which makes every mismatch record
             the sweep kept unformatted, as `verify --json` does

Pool and label are timed on the library's own walk and labeller, so
they read the same on any checkout whose labeller has `labels`.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from embedsim import logic, strategies, verifier  # noqa: E402

PHASES = ("parse", "load", "table", "pool", "label", "records", "format")


def _timed(call):
    started = time.perf_counter()
    result = call()
    return time.perf_counter() - started, result


def _walk(kb, emb, strategy, label):
    """The sweep's walk over every subset up to the default cap; with
    `label`, every pooled value is labelled and XORed with its row."""
    atoms = kb.signature.atoms
    rule = strategies.exact_rule(strategy)
    scaled = strategies.scale(emb)
    singles = [rule.start(scaled.context[a], scaled.cden) for a in atoms]
    walk = verifier._walk(atoms, singles, verifier.default_cap(kb.signature),
                          rule.extend)
    if not label:
        for _ in walk:
            pass
        return
    table = logic.consequence_table(kb)
    labeller = rule.labeller(scaled, atoms)
    for mask, _, pooled in walk:
        labeller.labels(pooled) ^ table[mask]


def one_pass(jobs) -> dict[str, float]:
    totals = dict.fromkeys(PHASES, 0.0)
    for job in jobs:
        t, kb = _timed(lambda: logic.parse_kb(job.kb_source))
        totals["parse"] += t
        t, emb = _timed(lambda: strategies.AttributeEmbedding.from_json_dict(
            json.loads(job.embedding)))
        totals["load"] += t
        strategy = strategies.strategy_from_name(job.strategy)
        totals["table"] += _timed(lambda: logic.consequence_table(kb))[0]
        pool = _timed(lambda: _walk(kb, emb, strategy, False))[0]
        label = _timed(lambda: _walk(kb, emb, strategy, True))[0]
        verify = (verifier.verify_nonmonotonic
                  if isinstance(kb, logic.StratifiedKB)
                  else verifier.verify_monotonic)
        sweep, report = _timed(lambda: verify(emb, strategy, kb))
        totals["pool"] += pool
        totals["label"] += label - pool
        totals["records"] += sweep - label
        totals["format"] += _timed(report.to_dict)[0]
    return totals


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=50)
    args = parser.parse_args()
    jobs = workloads.build_jobs("sweep-lowdim", args.seed)
    one_pass(jobs)  # warm up
    rounds = [one_pass(jobs) for _ in range(args.rounds)]
    table = {phase: round(1e3 * statistics.median(r[phase] for r in rounds), 3)
             for phase in PHASES}
    table["total"] = round(sum(table.values()), 3)
    print(json.dumps({"seed": args.seed, "rounds": args.rounds,
                      "median_ms_per_pass": table}))


if __name__ == "__main__":
    main()

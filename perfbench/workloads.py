"""Seeded inputs and timed jobs for the four perfbench workloads.

Inputs are generated as KB source text and embedding JSON from the seed
alone (the library is asked only which strategies tie their vectors), so
that the timed jobs start from the same text a user would hand to the
CLI.  A job is the call chain the CLI runs
for one request: parse -> construct -> verify, parse -> verify, parse ->
decide, or one table build.  Every call goes through a module attribute
looked up at call time, so the tracer's wrappers see it.

The input sizes are held fixed across seeds (model counts, strata and
subset caps), so that the seed changes what is computed but not how
much: run-to-run spread then measures the machine, not the generator.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import embedsim.certifier as certifier
import embedsim.constructors as constructors
import embedsim.fixtures as fixtures
import embedsim.logic as logic
import embedsim.strategies as strategies
import embedsim.table1 as table1
import embedsim.verifier as verifier

WORKLOADS = ("sweep-construct", "sweep-lowdim", "decide-avg-dot", "table1")

# sweep-construct: exhaustive sweeps of 7-atom KBs; 96 is the commonest
# model count of the rule generator at 7 atoms, so rejection is cheap
CONSTRUCT_ATOMS = 7
CONSTRUCT_MODELS = 96
CONSTRUCT_STRATA = 3
# sweep-lowdim: 9 atoms, the fewest for which the verifier's default
# cap of 4 applies; 384 is the commonest model count at 9 atoms
LOWDIM_ATOMS = 9
LOWDIM_MODELS = 384
LOWDIM_STRATA = 3
LOWDIM_DIMENSION = 4
LOWDIM_STRATEGIES = ("avg-dot", "avg-dist", "norm-dot", "norm-dist",
                     "avg-relu", "had-dot", "had-dot-tied", "ord-ord")
# mismatches per sweep-lowdim job whose expected side is re-derived by
# the brute-force oracles in tests/oracles.py
ORACLE_SAMPLE = 4
# decide-avg-dot: random 4-atom plain KBs (60-row systems).  CE1 (155
# rows, 8-13 s) is too long to repeat within one run; it is timed by
# --baseline instead.
DECIDE_RANDOM_KBS = 8
DECIDE_ATOMS = 4

RECIPE_STRATEGY = {1: "avg-relu", 2: "had-dot", 3: "ord-ord",
                   4: "avg-relu", 5: "had-dot"}
# (monotonic, non-monotonic) verdicts of the ten table rows
TABLE1_PATTERN = ([("not-simulable", "not-simulable")] * 6
                  + [("simulable", "simulable")] * 2
                  + [("not-simulable", "not-simulable"),
                     ("simulable", "not-simulable")])


def sha256_json(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# ------------------------------------------------------------------
# Input generation (pure Python, independent of the library)
# ------------------------------------------------------------------

def _names(n: int) -> list[str]:
    return [f"p{i}" for i in range(n)]


def _count_rule_models(rules: list[tuple[int, int]], n: int) -> int:
    return sum(
        all(w & body != body or w >> head & 1 for body, head in rules)
        for w in range(1 << n))


def rule_kb_source(rng: random.Random, n: int, models: int | None) -> str:
    """Plain KB of 1-6 conjunctive rules with exactly `models` models (any
    number when None)."""
    while True:
        rules = []
        for _ in range(rng.randint(1, 6)):
            body = sum(1 << i for i in rng.sample(range(n), rng.randint(1, 3)))
            rules.append((body, rng.randrange(n)))
        if models is None or _count_rule_models(rules, n) == models:
            break
    names = _names(n)
    lines = [f"atoms: {' '.join(names)}"]
    for body, head in rules:
        lits = " & ".join(names[i] for i in range(n) if body >> i & 1)
        lines.append(f"rule: {lits} -> {names[head]}")
    return "\n".join(lines) + "\n"


_BINARY = ("&", "|", "->", "<->")


def _random_formula(rng: random.Random, n: int, depth: int = 2):
    if depth == 0 or rng.random() < 0.3:
        return ("v", rng.randrange(n))
    kind = rng.randrange(5)
    if kind == 0:
        return ("!", _random_formula(rng, n, depth - 1))
    return (_BINARY[kind - 1], _random_formula(rng, n, depth - 1),
            _random_formula(rng, n, depth - 1))


def _holds(f, w: int) -> bool:
    tag = f[0]
    if tag == "v":
        return bool(w >> f[1] & 1)
    if tag == "!":
        return not _holds(f[1], w)
    a, b = _holds(f[1], w), _holds(f[2], w)
    return {"&": a and b, "|": a or b, "->": not a or b, "<->": a == b}[tag]


def _render(f, names: list[str]) -> str:
    tag = f[0]
    if tag == "v":
        return names[f[1]]
    if tag == "!":
        return "!" + _render(f[1], names)
    return f"({_render(f[1], names)} {tag} {_render(f[2], names)})"


def stratified_kb_source(rng: random.Random, n: int, strata: int) -> str:
    """Stratified KB with `strata` strata in which every rank 0..strata occurs."""
    while True:
        formulas = [_random_formula(rng, n) for _ in range(strata)]
        ranks = set()
        for w in range(1 << n):
            mu = 0
            while mu < strata and _holds(formulas[mu], w):
                mu += 1
            ranks.add(mu)
        if len(ranks) == strata + 1:
            break
    names = _names(n)
    lines = [f"atoms: {' '.join(names)}"]
    lines += [f"stratum: {_render(f, names)}" for f in formulas]
    return "\n".join(lines) + "\n"


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def embedding_json(rng: random.Random, n: int, dimension: int,
                   tied: bool) -> str:
    """Random small-fraction embedding in the CLI's embedding JSON format."""
    atoms = []
    for name in _names(n):
        context = [_fraction(rng) for _ in range(dimension)]
        output = context if tied else [_fraction(rng) for _ in range(dimension)]
        atoms.append({"name": name,
                      "context": [str(x) for x in context],
                      "output": [str(x) for x in output],
                      "lambda": str(_fraction(rng)),
                      "theta": str(abs(_fraction(rng)))})
    return json.dumps({"dimension": dimension, "atoms": atoms})


def capped_queries(n: int, cap: int) -> int:
    return n * sum(comb(n, k) for k in range(1, cap + 1))


# ------------------------------------------------------------------
# Jobs
# ------------------------------------------------------------------

@dataclass
class Outcome:
    """What the untimed check learned from one job execution."""

    digest: str
    queries: int
    verdict: str
    problems: list[str]


class SweepJob:
    """Parse a KB, build or load an embedding, verify it at the default cap."""

    def __init__(self, name: str, kb_source: str, expected_queries: int,
                 recipe: int | None = None, strategy: str | None = None,
                 embedding: str | None = None):
        self.name = name
        self.kb_source = kb_source
        self.expected_queries = expected_queries
        self.recipe = recipe
        self.strategy = strategy
        self.embedding = embedding

    def inputs(self) -> list[str]:
        return [self.kb_source, self.embedding or "", str(self.recipe),
                str(self.strategy)]

    def run(self):
        kb = logic.parse_kb(self.kb_source)
        if self.recipe is not None:
            built = constructors.construct(kb, self.recipe)
            emb, strategy = built.embedding, built.strategy
        else:
            emb = strategies.AttributeEmbedding.from_json_dict(
                json.loads(self.embedding))
            strategy = strategies.strategy_from_name(self.strategy)
        if isinstance(kb, logic.StratifiedKB):
            report = verifier.verify_nonmonotonic(emb, strategy, kb)
        else:
            report = verifier.verify_monotonic(emb, strategy, kb)
        return kb, report

    def check(self, result, deep: bool, oracles) -> Outcome:
        kb, report = result
        problems = []
        if report.queries != self.expected_queries:
            problems.append(f"{report.queries} queries, expected "
                            f"{self.expected_queries}")
        if self.recipe is not None:
            if report.strategy != RECIPE_STRATEGY[self.recipe]:
                problems.append(f"recipe {self.recipe} built {report.strategy}")
            if not report.simulates:
                problems.append(f"recipe {self.recipe} construction has "
                                f"{len(report.mismatches)} mismatches")
        elif deep and report.mismatches:
            problems += self._cross_check(kb, report, oracles)
        verdict = "simulates" if report.simulates else "mismatches"
        return Outcome(sha256_json(report.to_dict(timing=False)),
                       report.queries, verdict, problems)

    def _cross_check(self, kb, report, oracles) -> list[str]:
        """Re-derive the expected side of sampled mismatches by brute force."""
        rng = random.Random(f"{self.name}:{len(report.mismatches)}")
        sample = rng.sample(report.mismatches,
                            min(ORACLE_SAMPLE, len(report.mismatches)))
        oracle = (oracles.tt_nm_rank if isinstance(kb, logic.StratifiedKB)
                  else oracles.tt_entails)
        return [f"mismatch {'&'.join(m.subset)} -> {m.head}: report expects "
                f"{m.expected}, brute force says {not m.expected}"
                for m in sample if oracle(kb, m.subset, m.head) != m.expected]


class DecideJob:
    """Parse a plain KB and run the generic exact avg-dot decision."""

    def __init__(self, name: str, kb_source: str, expected: str | None):
        self.name = name
        self.kb_source = kb_source
        self.expected = expected

    def inputs(self) -> list[str]:
        return [self.kb_source, str(self.expected)]

    def run(self):
        return certifier.decide_avg_dot(logic.parse_kb(self.kb_source))

    def check(self, cert, deep: bool, oracles) -> Outcome:
        problems = []
        if cert.verdict not in ("simulable", "not-simulable"):
            problems.append(f"verdict {cert.verdict}")
        if self.expected is not None and cert.verdict != self.expected:
            problems.append(f"verdict {cert.verdict}, expected {self.expected}")
        encoded = len(cert.evidence["system"]["queries"])
        if (cert.verdict == "simulable"
                and cert.evidence.get("reverified_queries") != encoded):
            problems.append("witness embedding not re-verified on every query")
        if deep and not certifier.reverify_certificate(cert.to_dict()):
            problems.append("certificate failed replay")
        return Outcome(sha256_json(cert.to_dict()), encoded, cert.verdict,
                       problems)


class Table1Job:
    """Build the verdict table and serialise it, as `embedsim table1 --json`."""

    name = "table1"

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self) -> list[str]:
        return [str(self.seed)]

    def run(self):
        return table1.run_table1(self.seed).to_json()

    def check(self, text: str, deep: bool, oracles) -> Outcome:
        doc = json.loads(text)
        rows = doc["rows"]
        problems = []
        pattern = [(r["monotonic"]["verdict"], r["non_monotonic"]["verdict"])
                   for r in rows]
        if pattern != TABLE1_PATTERN:
            problems.append(f"verdict pattern {pattern}")
        queries = 0
        for row in rows:
            for cell in (row["monotonic"], row["non_monotonic"]):
                for ev in cell["evidence"]:
                    if "report" in ev:
                        queries += ev["report"]["queries"]
                    elif deep and not certifier.reverify_certificate(ev):
                        problems.append(f"{row['strategy']} certificate "
                                        f"failed replay")
            row.pop("diagnostics", None)
        digest = hashlib.sha256(
            (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
        ).hexdigest()
        verdict = "pattern-ok" if pattern == TABLE1_PATTERN else "pattern-bad"
        return Outcome(digest, queries, verdict, problems)


def build_jobs(workload: str, seed: int) -> list:
    """The workload's jobs for this seed; the same seed gives the same inputs."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "sweep-construct":
        n = CONSTRUCT_ATOMS
        plain = rule_kb_source(rng, n, CONSTRUCT_MODELS)
        ranked = stratified_kb_source(rng, n, CONSTRUCT_STRATA)
        full = capped_queries(n, n)
        return ([SweepJob(f"recipe{p}", plain, full, recipe=p) for p in (1, 2, 3)]
                + [SweepJob(f"recipe{p}", ranked, full, recipe=p) for p in (4, 5)])
    if workload == "sweep-lowdim":
        n = LOWDIM_ATOMS
        plain = rule_kb_source(rng, n, LOWDIM_MODELS)
        ranked = stratified_kb_source(rng, n, LOWDIM_STRATA)
        capped = capped_queries(n, verifier.CAPPED_SWEEP_DEFAULT)
        jobs = []
        for name in LOWDIM_STRATEGIES:
            tied = strategies.strategy_from_name(name).tied
            emb = embedding_json(rng, n, LOWDIM_DIMENSION, tied)
            jobs.append(SweepJob(f"{name}/plain", plain, capped,
                                 strategy=name, embedding=emb))
            jobs.append(SweepJob(f"{name}/ranked", ranked, capped,
                                 strategy=name, embedding=emb))
        return jobs
    if workload == "decide-avg-dot":
        return [DecideJob(f"kb{i}", rule_kb_source(rng, DECIDE_ATOMS, None),
                          None)
                for i in range(DECIDE_RANDOM_KBS)]
    if workload == "table1":
        return [Table1Job(seed)]
    raise ValueError(f"unknown workload {workload!r}")


def baseline_jobs(seed: int) -> list:
    """The single cases timed when the roadmap was last re-anchored: the
    table, the CE1 decision, and recipes 1 and 4 on random 8-atom KBs
    (208 models gives recipe 1 the dimension 209 of that measurement)."""
    rng = random.Random(f"perfbench:baseline:{seed}")
    full = capped_queries(8, 8)
    return [Table1Job(seed),
            DecideJob("CE1", fixtures.FIXTURE_SOURCES["CE1"], "not-simulable"),
            SweepJob("recipe1-8atoms", rule_kb_source(rng, 8, 208), full,
                     recipe=1),
            SweepJob("recipe4-8atoms", stratified_kb_source(rng, 8, 3), full,
                     recipe=4)]

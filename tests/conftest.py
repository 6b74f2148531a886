"""Shared seeded generators for random KBs, formulas and embeddings,
plus the terminal summary for the acceptance criteria."""

import random
import sys
from fractions import Fraction
from functools import lru_cache, reduce
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st

from embedsim.logic import (BOTTOM, TOP, And, Iff, Implies, KnowledgeBase, Not,
                            Or, Signature, StratifiedKB, Var, conjoin,
                            consequence_table)
from embedsim.strategies import (TABLE1_STRATEGIES, AttributeEmbedding,
                                 ExactEvaluationError, exact_rule, scale)

# make `oracles` and `references` importable
sys.path.insert(0, str(Path(__file__).parent))

# Every property test draws the same examples on every run, with no time
# limit per example and nothing replayed from an example database.
settings.register_profile("reproducible", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("reproducible")

# one line per acceptance criterion, filled by tests/test_acceptance.py
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# ------------------------------------------------------------------
# Single queries, composed from the library's per-KB and per-labeller
# parts, as the sweeps use them
# ------------------------------------------------------------------

def follows(kb, subset, head) -> bool:
    """The KB's answer to (subset, head): entailment for a plain KB,
    ranked-default consequence for a stratified one."""
    sig = kb.signature
    return bool(consequence_table(kb)[sig.mask(subset)] & sig.bit(head))


def pool(emb, strategy, atoms):
    """The attribute set `atoms` (duplicates collapse) pooled from scratch
    by an exact strategy's steps: the start step of its first context
    vector, extended by the start step of each other one.  The empty
    set gives the zero sum, which only normalised pooling reads."""
    rule = exact_rule(strategy)
    sc = scale(emb)
    ones = [rule.start(sc.context[a], sc.cden) for a in dict.fromkeys(atoms)]
    return reduce(rule.extend, ones) if ones else ((0,) * sc.dimension, 0)


def label(labeller, emb, pooled, head, **kwargs) -> bool:
    """One head's decision on a pooled value: a labeller class bound to
    that head alone."""
    return bool(labeller(scale(emb), (head,), **kwargs).labels(pooled))


def reported(labeller, subset, got, wrong) -> list[tuple]:
    """The records one `report` call returns for the value the labeller
    last labelled, whose label set was `got`, as (subset, head, expected,
    got, score) tuples."""
    return [(m.subset, m.head, m.expected, m.got, m.score)
            for m in labeller.report(subset, got, wrong, labeller.last)]


def accepts(emb, strategy, atoms, head) -> bool:
    """Does the exact strategy label the pooled `atoms` with `head`?"""
    return label(exact_rule(strategy).labeller, emb,
                 pool(emb, strategy, atoms), head)


def _has_rule(strategy) -> bool:
    try:
        exact_rule(strategy)
    except ExactEvaluationError:
        return False
    return True


# the table's strategies that `exact_rule` accepts, in table order
EXACT_STRATEGIES = [s for s in TABLE1_STRATEGIES if _has_rule(s)]


# Formulas far past the parser's depth budget, each the `formula:` line
# of a one-atom KB, with the line and column where parsing must stop: the
# 101st `!`, the 101st `(`, the 101st `&` and the 101st `->`.
DEEP_FORMULA_PROBES = {
    "negations": ("!" * 5000 + "a", 110),
    "parentheses": ("(" * 3000 + "a" + ")" * 3000, 110),
    "conjunction": (" & ".join(["a"] * 20000), 412),
    "implication": (" -> ".join(["a"] * 3000), 512),
}


def random_rule_kb(rng: random.Random, atoms, max_rules=6,
                   max_antecedent=3) -> KnowledgeBase:
    """Conjunctive-antecedent, atomic-head rules over the given atoms."""
    signature = Signature(tuple(atoms))
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        body = rng.sample(atoms, rng.randint(1, min(max_antecedent, len(atoms))))
        head = rng.choice(atoms)
        rules.append(Implies(conjoin(Var(a) for a in body), Var(head)))
    return KnowledgeBase(signature, tuple(rules))


@lru_cache(maxsize=None)
def formulas_over(n: int):
    """Formulas over p0..p(n-1) from every connective and both constants;
    built once per atom count, since building one costs 20 ms."""
    return st.recursive(
        st.sampled_from([Var(f"p{i}") for i in range(n)] + [TOP, BOTTOM]),
        lambda kids: st.one_of(
            st.builds(Not, kids),
            *(st.builds(op, kids, kids) for op in (And, Or, Implies, Iff))),
        max_leaves=8)


@st.composite
def plain_kbs(draw, max_atoms):
    """Plain KBs over 1 to `max_atoms` atoms p0, p1, ...: up to six
    conjunctive rules, or up to three formulas."""
    n = draw(st.integers(1, max_atoms))
    atoms = tuple(f"p{i}" for i in range(n))
    if draw(st.booleans()):
        index = st.integers(0, n - 1)
        rules = draw(st.lists(
            st.tuples(st.sets(index, min_size=1, max_size=3), index),
            max_size=6))
        formulas = tuple(
            Implies(conjoin(Var(atoms[i]) for i in sorted(body)),
                    Var(atoms[head]))
            for body, head in rules)
    else:
        formulas = tuple(draw(st.lists(formulas_over(n), max_size=3)))
    return KnowledgeBase(Signature(atoms), formulas)


@st.composite
def stratified_kbs(draw, max_atoms, max_strata=4):
    """Stratified KBs over 1 to `max_atoms` atoms p0, p1, ... with 1 to
    `max_strata` strata."""
    n = draw(st.integers(1, max_atoms))
    strata = draw(st.lists(formulas_over(n), min_size=1, max_size=max_strata))
    return StratifiedKB(Signature(tuple(f"p{i}" for i in range(n))),
                        tuple(strata))


def random_formula(rng: random.Random, atoms, depth=2):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice(atoms))
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_formula(rng, atoms, depth - 1))
    left = random_formula(rng, atoms, depth - 1)
    right = random_formula(rng, atoms, depth - 1)
    return [And, Or, Implies, Iff][kind - 1](left, right)


def random_stratified_kb(rng: random.Random, atoms,
                         max_strata=3) -> StratifiedKB:
    signature = Signature(tuple(atoms))
    strata = tuple(random_formula(rng, atoms)
                   for _ in range(rng.randint(1, max_strata)))
    return StratifiedKB(signature, strata)


def random_fraction(rng: random.Random, span=4, max_den=3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_embedding(rng: random.Random, atoms, dimension=None,
                     tied=False) -> AttributeEmbedding:
    if dimension is None:
        dimension = rng.randint(1, 4)
    context = {
        a: tuple(random_fraction(rng) for _ in range(dimension))
        for a in atoms
    }
    output = dict(context) if tied else {
        a: tuple(random_fraction(rng) for _ in range(dimension))
        for a in atoms
    }
    return AttributeEmbedding(
        dimension=dimension,
        context=context,
        output=output,
        lam={a: random_fraction(rng) for a in atoms},
        theta={a: abs(random_fraction(rng)) for a in atoms},
    )

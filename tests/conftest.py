"""Shared seeded generators for random KBs, formulas and embeddings,
plus the terminal summary for the acceptance criteria."""

import random
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from hypothesis import strategies as st

from embedsim.logic import (BOTTOM, TOP, And, Iff, Implies, KnowledgeBase, Not,
                            Or, Signature, StratifiedKB, Var, conjoin)
from embedsim.strategies import AttributeEmbedding

# make `oracles` and `references` importable
sys.path.insert(0, str(Path(__file__).parent))

# one line per acceptance criterion, filled by tests/test_acceptance.py
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


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

"""Independent brute-force oracles for the logic layer.

They deliberately avoid the library's bitmask machinery: assignments are
plain dicts, model enumeration walks itertools.product, and the
evaluator is its own recursion.  They share only the formula AST.
`scan_counter_models` finds the needed counter-models by a quadratic
scan over the models.

The reference implementations of the simplex, the strategy kernels,
the recipes and the sigmoid demonstrator live in `references.py`; the
benchmark loads this file for its cross-checks, so it stays small.
"""

import itertools

from embedsim.logic import (And, Const, Iff, Implies, KnowledgeBase, Not, Or,
                            StratifiedKB, Var)


def tt_evaluate(formula, assignment: dict) -> bool:
    if isinstance(formula, Var):
        return assignment[formula.name]
    if isinstance(formula, Const):
        return formula.value
    if isinstance(formula, Not):
        return not tt_evaluate(formula.sub, assignment)
    if isinstance(formula, And):
        return tt_evaluate(formula.left, assignment) and tt_evaluate(
            formula.right, assignment)
    if isinstance(formula, Or):
        return tt_evaluate(formula.left, assignment) or tt_evaluate(
            formula.right, assignment)
    if isinstance(formula, Implies):
        return (not tt_evaluate(formula.left, assignment)) or tt_evaluate(
            formula.right, assignment)
    if isinstance(formula, Iff):
        return tt_evaluate(formula.left, assignment) == tt_evaluate(
            formula.right, assignment)
    raise TypeError(formula)


def syntax_nodes(formula) -> int:
    """Number of nodes in the formula's syntax tree."""
    if isinstance(formula, Not):
        return 1 + syntax_nodes(formula.sub)
    if isinstance(formula, (Var, Const)):
        return 1
    return 1 + syntax_nodes(formula.left) + syntax_nodes(formula.right)


def tt_assignments(atoms):
    for values in itertools.product([False, True], repeat=len(atoms)):
        yield dict(zip(atoms, values))


def tt_models(kb: KnowledgeBase):
    return [
        a for a in tt_assignments(kb.signature.atoms)
        if all(tt_evaluate(f, a) for f in kb.formulas)
    ]


def tt_entails(kb: KnowledgeBase, subset, head) -> bool:
    for model in tt_models(kb):
        if all(model[a] for a in subset) and not model[head]:
            return False
    return True


def mask_names(signature, mask):
    """The atoms of the signature whose bit is set in the mask, in order."""
    return tuple(a for i, a in enumerate(signature.atoms) if mask >> i & 1)


def mask_filter_subsets(signature, cap):
    """Non-empty subsets up to the cap, by filtering all 2^n masks and
    sorting them by (size, mask): the definition of the canonical order."""
    n = len(signature)
    masks = sorted(
        (m for m in range(1, 1 << n) if bin(m).count("1") <= cap),
        key=lambda m: (bin(m).count("1"), m),
    )
    return [mask_names(signature, m) for m in masks]


def scan_counter_models(kb: KnowledgeBase) -> tuple[int, ...]:
    """For every head, the models lacking it that no other model lacking
    it strictly contains; their union in ascending bitmask order."""
    sig = kb.signature
    models = [sig.mask(a for a, v in m.items() if v) for m in tt_models(kb)]
    needed = set()
    for head in range(len(sig)):
        lack = [m for m in models if not m >> head & 1]
        needed.update(m for m in lack
                      if not any(o != m and o & m == m for o in lack))
    return tuple(sorted(needed))


def tt_mu(theta: StratifiedKB, assignment: dict) -> int:
    mu = 0
    for stratum in theta.strata:
        if not tt_evaluate(stratum, assignment):
            break
        mu += 1
    return mu


def tt_nm_def(theta: StratifiedKB, subset, head) -> bool:
    subset = tuple(subset)
    for i in range(len(theta.strata) + 1):
        prefix = theta.strata[:i]
        candidates = [
            a for a in tt_assignments(theta.signature.atoms)
            if all(a[s] for s in subset)
            and all(tt_evaluate(f, a) for f in prefix)
        ]
        if candidates and all(a[head] for a in candidates):
            return True
    return False


def tt_nm_rank(theta: StratifiedKB, subset, head) -> bool:
    subset = tuple(subset)
    m_plus = -1
    m_minus = -1
    for a in tt_assignments(theta.signature.atoms):
        if not all(a[s] for s in subset):
            continue
        mu = tt_mu(theta, a)
        if a[head]:
            m_plus = max(m_plus, mu)
        else:
            m_minus = max(m_minus, mu)
    return m_plus > m_minus

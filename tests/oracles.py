"""Independent brute-force oracles for cross-checking the library.

The logic oracles deliberately avoid the library's bitmask machinery:
assignments are plain dicts, model enumeration walks itertools.product,
and the evaluator is its own recursion.  They share only the formula AST.

`dense_lp_feasible` is the exact simplex as it stood before the solver
split systems into connected blocks: one joint tableau, dense row
updates.  It shares the system types and the exact re-checks with the
library and must return exactly what `lp_feasible` returns.
"""

import itertools
from fractions import Fraction

from embedsim.certifier import (FarkasCertificate, FeasibilityOutcome,
                                LinearSystem, _normalize_multipliers,
                                _oriented, verify_farkas, verify_witness)
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


def dense_lp_feasible(system: LinearSystem) -> FeasibilityOutcome:
    """Exact phase-1 simplex with Bland's rule on one dense joint tableau.

    The reference path for `embedsim.certifier.lp_feasible`: every pivot
    rewrites every full-width row, zeros included.  Free variables are
    split into non-negative pairs; every returned witness or Farkas
    certificate is re-verified in exact arithmetic before being handed
    back.
    """
    nvars = len(system.variables)
    m = len(system.constraints)
    oriented = [_oriented(c) for c in system.constraints]

    # columns: p (nvars) | q (nvars) | slack (m) | artificials
    flipped = [False] * m
    art_col: list[int | None] = [None] * m
    ncols = 2 * nvars + m
    for i, (_, d) in enumerate(oriented):
        if d < 0:
            flipped[i] = True
        else:
            art_col[i] = ncols
            ncols += 1

    rows: list[list[Fraction]] = []
    basis: list[int] = []
    for i, (coeffs, d) in enumerate(oriented):
        row = [Fraction(0)] * (ncols + 1)
        sign = -1 if flipped[i] else 1
        for j, c in enumerate(coeffs):
            row[j] = sign * c
            row[nvars + j] = -sign * c
        row[2 * nvars + i] = Fraction(-sign)
        row[-1] = sign * d
        if flipped[i]:
            basis.append(2 * nvars + i)
        else:
            row[art_col[i]] = Fraction(1)
            basis.append(art_col[i])
        rows.append(row)

    cost = [Fraction(0)] * ncols
    for i in range(m):
        if art_col[i] is not None:
            cost[art_col[i]] = Fraction(1)
    # reduced-cost row z_j = (basis costs) . column_j - cost_j, plus objective value
    z = [Fraction(0)] * (ncols + 1)
    for i in range(m):
        if basis[i] >= 2 * nvars + m:  # artificial basic
            for j in range(ncols + 1):
                z[j] += rows[i][j]
    for j in range(ncols):
        z[j] -= cost[j]

    while True:
        enter = next((j for j in range(ncols) if z[j] > 0), None)
        if enter is None:
            break
        leave = None
        best_ratio = None
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > 0:
                ratio = rows[i][-1] / coeff
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave])):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            raise AssertionError("phase-1 objective cannot be unbounded")
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * p for x, p in zip(rows[i], rows[leave])]
        if z[enter] != 0:
            f = z[enter]
            z = [x - f * p for x, p in zip(z, rows[leave])]
        basis[leave] = enter

    if z[-1] == 0:
        values = [Fraction(0)] * ncols
        for i in range(m):
            values[basis[i]] = rows[i][-1]
        witness = {}
        for j, name in enumerate(system.variables):
            witness[name] = values[j] - values[nvars + j]
        if not verify_witness(system, witness):
            raise AssertionError("simplex witness failed exact re-check")
        return FeasibilityOutcome(True, witness=witness)

    # infeasible: duals from the reduced costs at the initial basis columns
    mult = []
    for i in range(m):
        if flipped[i]:
            y = z[2 * nvars + i]
            mult.append(-y)
        else:
            y = z[art_col[i]] + 1
            mult.append(y)
    multipliers = _normalize_multipliers(mult)
    gap = verify_farkas(system, multipliers)
    return FeasibilityOutcome(False,
                              farkas=FarkasCertificate(multipliers, gap))


"""Reference implementations the library must agree with, exactly.

`dense_lp_feasible` is the exact simplex as it stood before the solver
split systems into connected blocks and moved to integer rows: one
joint `Fraction` tableau, dense row updates.  It shares the system types
and the Farkas re-check with the library and must return exactly what
`lp_feasible` returns.  `ref_verify_witness` is the witness re-check as
it stood before it moved to integers: one `Fraction` sum per row.
`ref_combine_constraints` is the Farkas recombination as it stood
before it moved to integers: one `Fraction` product per coefficient.
`ref_conical_closure_certify` is the closure search as it stood before
it bound each requirement to base positions: one dict of sides per
assignment, each requirement tested through it by name.

The `ref_*` pooling, labelling and score functions are the exact
strategy evaluators as they stood before the library moved to integer
kernels: every coordinate a `Fraction`, pooled vectors rational.  They
must decide every query as the library does and print the same score.

The `ref_construct_*` recipes are the recipes as the paper states them:
recipes 1-3 with one coordinate per model of the KB (`ref_models`),
recipes 4-5 (`ref_construct_*_nm`) with one per interpretation.

`ref_sweep_records` is the sweep's record loop as it stood before
records were made on demand: each wrong subset reported right after it
is labelled, from the labeller's state at that moment, into one list.
A report's `mismatches` must equal it record for record.

`ref_check_ord_monotonicity` is the product-order monotonicity check
(label sets under max pooling grow with the attribute set) that
ACCEPTANCE 7 runs: Python sets, and a containment test on every ordered
pair of subsets, reported as a `PropertyReport`.  It is the only copy,
and ACCEPTANCE 7 its one caller.

`ref_parse_kb`, `ref_tokenize`, `RefFormulaParser` and
`ref_format_formula` are the KB front end as it stood before one
connective table drove both directions: a character-by-character
tokenizer, one recursive-descent method per precedence level
(`iff`, `implies`, `disj`, `conj`, `unary`) and a printer with one
branch per connective.  They must give the library's ASTs, its errors
(class, message, line and column) and its canonical text.

`ref_entailment_table`, `ref_rank_table` and `ref_nm_consequence_table`
are the consequence tables as they stood before they moved to big ints:
numpy int64 arrays, filled by vector passes over the two halves of each
atom's split.  They must hold the library's tables entry for entry.

`ref_emb_sig_numeric` and `ref_sig_conical_diagnostics` are the sigmoid
demonstrator as it stood before the library stepped all problems as one
batch: one 2-D problem at a time, one numpy step per iteration.
`ref_sig_ascent` is the batched ascent as it stood before it stopped at
the first repeated state: every one of the `iterations` steps taken.
It must return the same bytes as `_sig_ascent`.
"""

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from conftest import pool
from embedsim.certifier import (SIDES, ClosureOutcome, ConicalRequirement,
                                FarkasCertificate, FeasibilityOutcome,
                                LinearSystem, PairRequirement,
                                _normalize_multipliers, verify_farkas)
from embedsim.constructors import ConstructionResult, _delta
from embedsim.logic import (BOTTOM, MAX_FORMULA_DEPTH, TOP, And, Const,
                            DuplicateAtomError, Iff, Implies, KnowledgeBase,
                            Not, Or, ParseError, Signature, StratifiedKB,
                            UndeclaredAtomError, Var, _model_set,
                            _rank_at_least, check_cap, consequence_table,
                            truth_set)
from embedsim.sigmoid import (angular_error, cone_residual, sig_gradient,
                              sig_objective)
from embedsim.strategies import (AVG_RELU, HAD_DOT, ORD_ORD,
                                 AttributeEmbedding, DimensionMismatchError,
                                 Mismatch, OrdLabeller, exact_rule, frac_str,
                                 scale)
from embedsim.verifier import _walk, default_cap, nonempty_subsets


def _fraction_row(constraint):
    """The constraint oriented to >=, as `Fraction` coefficients and rhs."""
    sign = 1 if constraint.relation == ">=" else -1
    return ([sign * Fraction(c) for c in constraint.coeffs],
            sign * Fraction(constraint.rhs))


def ref_verify_witness(system: LinearSystem, witness: dict) -> bool:
    values = [witness.get(v, Fraction(0)) for v in system.variables]
    for con in system.constraints:
        lhs = sum((c * x for c, x in zip(con.coeffs, values)), Fraction(0))
        ok = lhs >= con.rhs if con.relation == ">=" else lhs <= con.rhs
        if not ok:
            return False
    return True


def ref_combine_constraints(system: LinearSystem, multipliers):
    total = [Fraction(0)] * len(system.variables)
    rhs = Fraction(0)
    for i, y in enumerate(multipliers):
        if y < 0:
            raise ValueError(f"negative multiplier at row {i}")
        if y == 0:
            continue
        coeffs, d = _fraction_row(system.constraints[i])
        for j, c in enumerate(coeffs):
            if c:
                total[j] += y * c
        rhs += y * d
    return tuple(total), rhs


def dense_lp_feasible(system: LinearSystem,
                      entered: list | None = None) -> FeasibilityOutcome:
    """Exact phase-1 simplex with Bland's rule on one dense joint tableau.

    The reference path for `embedsim.certifier.lp_feasible`: every pivot
    rewrites every full-width row, zeros included, and every column is
    stored, q and artificial columns too.  Free variables are split into
    non-negative pairs; every returned witness or Farkas certificate is
    re-verified in exact arithmetic before being handed back.  When
    `entered` is a list, the kind of each entering column ("p", "q",
    "slack" or "artificial") is appended to it, pivot by pivot.
    """
    nvars = len(system.variables)
    m = len(system.constraints)
    oriented = [_fraction_row(c) for c in system.constraints]

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
        if entered is not None:
            entered.append("p" if enter < nvars else
                           "q" if enter < 2 * nvars else
                           "slack" if enter < 2 * nvars + m else
                           "artificial")
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
        if not ref_verify_witness(system, witness):
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


# ------------------------------------------------------------------
# The closure search, one dict of sides per assignment
# ------------------------------------------------------------------

def _ref_violated(req: PairRequirement, sides: dict[str, str]) -> bool:
    # a strictly negative pooled point is impossible when both members
    # sit in the closed positive half-space (conical combinations stay
    # there), so at least one member must be strictly negative; dually
    # for strictly positive pooled points.
    u, v = req.pair
    if req.side == "negative":
        return sides[u] != "negative" and sides[v] != "negative"
    return sides[u] != "positive" and sides[v] != "positive"


def ref_conical_closure_certify(requirement: ConicalRequirement
                                ) -> ClosureOutcome:
    base = requirement.base
    total = 0
    refutations = []
    for combo in itertools.product(SIDES, repeat=len(base)):
        total += 1
        sides = dict(zip(base, combo))
        hit = next((r for r in requirement.requirements
                    if _ref_violated(r, sides)), None)
        if hit is None:
            return ClosureOutcome(True, total, satisfying=sides)
        refutations.append({"assignment": sides, "violated": hit.to_dict()})
    return ClosureOutcome(False, total, refutations=refutations)


# ------------------------------------------------------------------
# Recipes 1-3 over every model of the KB
# ------------------------------------------------------------------

def ref_models(kb: KnowledgeBase) -> tuple[int, ...]:
    """The models of the KB in ascending bitmask order, read off the
    truth sets of its formulas."""
    sig = kb.signature
    sets = [truth_set(f, sig) for f in kb.formulas]
    return tuple(omega for omega in range(1 << len(sig))
                 if all(bits >> omega & 1 for bits in sets))


def ref_avg_relu_vectors(kb: KnowledgeBase, models, delta: int) -> dict:
    """Per atom: 1 on the models where it holds, -delta on the others,
    then a constant 1."""
    sig = kb.signature
    return {a: tuple(Fraction(1) if omega & sig.bit(a) else Fraction(-delta)
                     for omega in models) + (Fraction(1),)
            for a in sig.atoms}


def ref_construct_avg_relu(kb: KnowledgeBase,
                           delta: int | None = None) -> ConstructionResult:
    delta = _delta(len(kb.signature), delta)
    models = ref_models(kb)
    vectors = ref_avg_relu_vectors(kb, models, delta)
    emb = AttributeEmbedding(len(models) + 1, vectors, dict(vectors))
    return ConstructionResult(emb, AVG_RELU, 1, models, delta)


def ref_construct_had_dot(kb: KnowledgeBase,
                          delta: int | None = None) -> ConstructionResult:
    delta = _delta(len(kb.signature), delta)
    models = ref_models(kb)
    sig = kb.signature
    context = {a: tuple(Fraction(1) if omega & sig.bit(a) else Fraction(0)
                        for omega in models) + (Fraction(1),)
               for a in sig.atoms}
    emb = AttributeEmbedding(len(models) + 1, context,
                             ref_avg_relu_vectors(kb, models, delta))
    return ConstructionResult(emb, HAD_DOT, 2, models, delta)


def ref_construct_ord(kb: KnowledgeBase) -> ConstructionResult:
    models = ref_models(kb)
    sig = kb.signature
    if not models:
        vectors = {a: (Fraction(0),) for a in sig.atoms}
    else:
        vectors = {a: tuple(Fraction(0) if omega & sig.bit(a) else Fraction(1)
                            for omega in models)
                   for a in sig.atoms}
    emb = AttributeEmbedding(max(len(models), 1), vectors, dict(vectors))
    return ConstructionResult(emb, ORD_ORD, 3, models, None)


# ------------------------------------------------------------------
# Consequence tables as numpy arrays
# ------------------------------------------------------------------

def _ref_bit_array(bits: int, n: int) -> np.ndarray:
    """The bit set over 2^n interpretations as a bool array, one entry each."""
    size = 1 << n
    packed = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"),
                           dtype=np.uint8)
    return np.unpackbits(packed, count=size, bitorder="little").view(bool)


def ref_entailment_table(kb: KnowledgeBase) -> np.ndarray:
    """Entry S: the AND of the models containing S, else all n bits."""
    n = check_cap(kb.signature)
    table = np.where(_ref_bit_array(_model_set(kb), n),
                     np.arange(1 << n, dtype=np.int64), (1 << n) - 1)
    for i in range(n):
        # [:, 0] holds the masks without atom i, [:, 1] the same masks with it
        halves = table.reshape(-1, 2, 1 << i)
        halves[:, 0] &= halves[:, 1]
    return table


def ref_rank_table(theta: StratifiedKB) -> np.ndarray:
    """The rank of every interpretation."""
    n = check_cap(theta.signature)
    rank = np.zeros(1 << n, dtype=np.int64)
    for at_least in _rank_at_least(theta)[1:]:
        rank += _ref_bit_array(at_least, n)
    return rank


def ref_nm_consequence_table(theta: StratifiedKB) -> np.ndarray:
    """Entry S: the AND of the best-ranked interpretations containing S,
    the pairs (best rank, AND at that rank) merged over supersets."""
    rank = ref_rank_table(theta)
    best = np.arange(len(rank), dtype=np.int64)
    for i in range(len(theta.signature)):
        # [:, 0] holds the masks without atom i, [:, 1] the same masks with it
        ranks = rank.reshape(-1, 2, 1 << i)
        bests = best.reshape(-1, 2, 1 << i)
        low_r, high_r = ranks[:, 0], ranks[:, 1]
        low, high = bests[:, 0], bests[:, 1]
        np.copyto(low, high, where=high_r > low_r)
        np.bitwise_and(low, high, out=low, where=high_r == low_r)
        np.maximum(low_r, high_r, out=low_r)
    return best


# ------------------------------------------------------------------
# Recipes 4-5 over every interpretation
# ------------------------------------------------------------------

def ref_rank_weighted_vectors(theta: StratifiedKB, delta: int) -> dict:
    """Per atom over every interpretation w: delta^(2 mu(w)) where it
    holds, -delta^(1 + 2 mu(w)) where it does not."""
    sig = theta.signature
    mu = ref_rank_table(theta).tolist()
    return {a: tuple(Fraction(delta ** (2 * mu[w])) if w & sig.bit(a)
                     else Fraction(-delta ** (1 + 2 * mu[w]))
                     for w in range(1 << len(sig)))
            for a in sig.atoms}


def ref_construct_avg_relu_nm(theta: StratifiedKB,
                              delta: int | None = None) -> ConstructionResult:
    delta = _delta(len(theta.signature), delta)
    vectors = ref_rank_weighted_vectors(theta, delta)
    size = 1 << len(theta.signature)
    emb = AttributeEmbedding(size, vectors, dict(vectors))
    return ConstructionResult(emb, AVG_RELU, 4, tuple(range(size)), delta)


def ref_construct_had_dot_nm(theta: StratifiedKB,
                             delta: int | None = None) -> ConstructionResult:
    delta = _delta(len(theta.signature), delta)
    sig = theta.signature
    size = 1 << len(sig)
    context = {a: tuple(Fraction(1) if w & sig.bit(a) else Fraction(0)
                        for w in range(size))
               for a in sig.atoms}
    emb = AttributeEmbedding(size, context,
                             ref_rank_weighted_vectors(theta, delta))
    return ConstructionResult(emb, HAD_DOT, 5, tuple(range(size)), delta)


# ------------------------------------------------------------------
# Fraction reference for the exact strategy evaluators
# ------------------------------------------------------------------

def ref_dot(u, v) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def ref_norm_sq(v) -> Fraction:
    return sum((x * x for x in v), Fraction(0))


def ref_dist_sq(u, v) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatchError(f"distance of lengths {len(u)}, {len(v)}")
    return sum(((a - b) * (a - b) for a, b in zip(u, v)), Fraction(0))


def ref_relu_vec(v):
    return tuple(x if x > 0 else Fraction(0) for x in v)


def _ref_vectors(emb, atoms):
    return [emb.context[a] for a in dict.fromkeys(atoms)]


def ref_emb_avg(emb, atoms):
    vecs = _ref_vectors(emb, atoms)
    if not vecs:
        raise ValueError("average pooling needs a non-empty attribute set")
    n = len(vecs)
    return tuple(sum(col, Fraction(0)) / n for col in zip(*vecs))


def ref_emb_norm(emb, atoms):
    """(sum, ||sum||^2); the zero vector for the empty set."""
    vecs = _ref_vectors(emb, atoms)
    if not vecs:
        zero = tuple(Fraction(0) for _ in range(emb.dimension))
        return zero, Fraction(0)
    total = tuple(sum(col, Fraction(0)) for col in zip(*vecs))
    return total, ref_norm_sq(total)


def ref_emb_had(emb, atoms):
    vecs = _ref_vectors(emb, atoms)
    if not vecs:
        raise ValueError("Hadamard pooling needs a non-empty attribute set")
    out = vecs[0]
    for v in vecs[1:]:
        out = tuple(a * b for a, b in zip(out, v))
    return out


def ref_emb_ord(emb, atoms):
    vecs = _ref_vectors(emb, atoms)
    if not vecs:
        raise ValueError("max pooling needs a non-empty attribute set")
    return tuple(max(col) for col in zip(*vecs))


def ref_lab_dot(emb, e, head, tied=False) -> bool:
    target = emb.context[head] if tied else emb.output[head]
    return ref_dot(e, target) >= emb.lam[head]


def ref_lab_dist(emb, e, head) -> bool:
    th = emb.theta[head]
    return ref_dist_sq(e, emb.output[head]) <= th * th


def ref_lab_relu(emb, e, head) -> bool:
    return ref_dot(ref_relu_vec(e), emb.context[head]) >= 0


def ref_lab_ord(emb, e, head) -> bool:
    return all(b <= x for b, x in zip(emb.context[head], e))


def ref_ge_scaled_sqrt(lhs, coeff, q) -> bool:
    """lhs >= coeff * sqrt(q) for q >= 0, by sign analysis and squaring."""
    if coeff <= 0:
        return lhs >= 0 or coeff * coeff * q >= lhs * lhs
    return lhs >= 0 and lhs * lhs >= coeff * coeff * q


def ref_lab_dot_on_norm(emb, pooled, head) -> bool:
    total, q = pooled
    lam = emb.lam[head]
    if q == 0:
        return 0 >= lam
    return ref_ge_scaled_sqrt(ref_dot(total, emb.output[head]), lam, q)


def ref_lab_dist_on_norm(emb, pooled, head) -> bool:
    total, q = pooled
    out = emb.output[head]
    th = emb.theta[head]
    if q == 0:
        return ref_norm_sq(out) <= th * th
    coeff = 1 + ref_norm_sq(out) - th * th
    return ref_ge_scaled_sqrt(2 * ref_dot(total, out), coeff, q)


def ref_score_dot(emb, e, head, tied=False) -> str:
    target = emb.context[head] if tied else emb.output[head]
    return (f"dot={frac_str(ref_dot(e, target))} "
            f"lambda={frac_str(emb.lam[head])}")


def ref_score_dist(emb, e, head) -> str:
    return (f"distsq={frac_str(ref_dist_sq(e, emb.output[head]))} "
            f"theta={frac_str(emb.theta[head])}")


def ref_score_relu(emb, e, head) -> str:
    return f"relu_dot={frac_str(ref_dot(ref_relu_vec(e), emb.context[head]))}"


def ref_score_ord(emb, e, head) -> str:
    return f"pooled={','.join(frac_str(x) for x in e)}"


def ref_score_dot_on_norm(emb, pooled, head) -> str:
    total, q = pooled
    return (f"sum.out={frac_str(ref_dot(total, emb.output[head]))} "
            f"normsq={frac_str(q)} lambda={frac_str(emb.lam[head])}")


def ref_score_dist_on_norm(emb, pooled, head) -> str:
    total, q = pooled
    out = emb.output[head]
    return (f"sum.out={frac_str(ref_dot(total, out))} normsq={frac_str(q)} "
            f"outsq={frac_str(ref_norm_sq(out))} "
            f"theta={frac_str(emb.theta[head])}")


# strategy name -> (pool, label, score), as `strategies.exact_rule` maps them
REF_RULES = {
    "avg-dot": (ref_emb_avg, ref_lab_dot, ref_score_dot),
    "avg-dist": (ref_emb_avg, ref_lab_dist, ref_score_dist),
    "norm-dot": (ref_emb_norm, ref_lab_dot_on_norm, ref_score_dot_on_norm),
    "norm-dist": (ref_emb_norm, ref_lab_dist_on_norm, ref_score_dist_on_norm),
    "avg-relu": (ref_emb_avg, ref_lab_relu, ref_score_relu),
    "had-dot": (ref_emb_had, ref_lab_dot, ref_score_dot),
    "had-dot-tied": (ref_emb_had, partial(ref_lab_dot, tied=True),
                     partial(ref_score_dot, tied=True)),
    "ord-ord": (ref_emb_ord, ref_lab_ord, ref_score_ord),
}


def ref_evaluate(emb, strategy_name: str, atoms, head) -> tuple[bool, str]:
    """(decision, score text) of one query on the Fraction reference."""
    pool, label, score = REF_RULES[strategy_name]
    pooled = pool(emb, atoms)
    return label(emb, pooled, head), score(emb, pooled, head)


def ref_sweep_records(embedding, strategy, kb, cap) -> list[Mismatch]:
    """Every mismatch record of a sweep up to the cap, in sweep order,
    made as the sweep finds its subset."""
    atoms = kb.signature.atoms
    rule = exact_rule(strategy)
    scaled = scale(embedding)
    table = consequence_table(kb)
    labeller = rule.labeller(scaled, atoms)
    records = []
    for mask, subset, pooled in _walk(
            atoms, [rule.start(scaled.context[a], scaled.cden) for a in atoms],
            cap, rule.extend):
        got = labeller.labels(pooled)
        if wrong := got ^ table[mask]:
            records += labeller.report(subset, got, wrong, labeller.last)
    return records


# ------------------------------------------------------------------
# Product-order monotonicity by set containment
# ------------------------------------------------------------------

@dataclass
class PropertyReport:
    name: str
    holds: bool
    checked: int
    violations: list[dict] = field(default_factory=list)
    trace: dict | None = None


def ref_check_ord_monotonicity(embedding, cap=None) -> PropertyReport:
    """Label sets under max pooling grow with the attribute set.

    Component-wise max only moves vectors up in the product order, so
    S <= S' forces labels(S) <= labels(S'); no max/order embedding can
    drop a label when attributes are added.
    """
    atoms = embedding.atoms
    sig = Signature(atoms)
    if cap is None:
        cap = default_cap(sig)
    subsets = nonempty_subsets(sig, cap)
    ord_labels = OrdLabeller(scale(embedding), atoms).labels
    masks = {s: ord_labels(pool(embedding, ORD_ORD, s)) for s in subsets}
    labels = {s: tuple(b for i, b in enumerate(atoms) if m >> i & 1)
              for s, m in masks.items()}
    violations = []
    checked = 0
    trace = None
    for small in subsets:
        small_set = set(small)
        for big in subsets:
            if small == big or not small_set.issubset(big):
                continue
            checked += 1
            missing = [b for b in labels[small] if b not in labels[big]]
            if missing:
                violations.append({"subset": list(small), "superset": list(big),
                                   "dropped": missing})
            if trace is None:
                trace = {"subset": list(small), "superset": list(big),
                         "labels_subset": list(labels[small]),
                         "labels_superset": list(labels[big])}
    return PropertyReport("ord-label-monotonicity", not violations,
                          checked, violations, trace)


# ------------------------------------------------------------------
# Per-problem reference for the sigmoid demonstrator
# ------------------------------------------------------------------

def ref_emb_sig_numeric(emb, atoms, kappa=1.0, iterations=2000, seed=0):
    """Gradient ascent on one problem, as `emb_sig_numeric` specifies it."""
    names = tuple(dict.fromkeys(atoms))
    if not names:
        raise ValueError("sigmoid pooling needs a non-empty attribute set")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    vectors = np.array([[float(x) for x in emb.context[a]] for a in names])
    e = 0.1 * np.random.default_rng(seed).standard_normal(vectors.shape[1])
    step = 1.0 / (np.sum(vectors * vectors) / 4.0 + 2.0 * kappa + 1.0)
    for _ in range(iterations):
        weights = np.exp(-np.logaddexp(0.0, vectors @ e))  # sigmoid(-scores)
        e = e + step * (weights @ vectors - 2.0 * kappa * e)
    objective = (-np.sum(np.logaddexp(0.0, -(vectors @ e)))
                 - kappa * float(e @ e))
    if not (np.all(np.isfinite(e)) and np.isfinite(objective)):
        raise ArithmeticError("sigmoid objective became non-finite")
    return e


def ref_sig_ascent(vectors, starts, kappa, iterations):
    """`_sig_ascent` taking all `iterations` steps, with no cycle check."""
    step = 1.0 / (np.sum(vectors * vectors, axis=(-2, -1)) / 4.0
                  + 2.0 * kappa + 1.0)
    step = step[..., None]
    e = starts
    for _ in range(iterations):
        e = e + step * sig_gradient(e, vectors, kappa)
    if not (np.all(np.isfinite(e))
            and np.all(np.isfinite(sig_objective(e, vectors, kappa)))):
        raise ArithmeticError("sigmoid objective became non-finite")
    return e


def ref_sig_conical_diagnostics(dimension=4, trials=5, kappa=1.0,
                                iterations=3000, seed=0) -> dict:
    """`sig_conical_diagnostics` with each optimisation run on its own."""
    rng = np.random.default_rng(seed)
    rows = []
    for t in range(trials):
        a = rng.standard_normal(dimension)
        b = rng.standard_normal(dimension)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        context = {
            "a": tuple(Fraction(x).limit_denominator(10**6) for x in a),
            "b": tuple(Fraction(x).limit_denominator(10**6) for x in b),
        }
        emb = AttributeEmbedding(dimension, context, dict(context))
        y_a = ref_emb_sig_numeric(emb, ["a"], kappa, iterations,
                                  seed=seed + 3 * t)
        y_b = ref_emb_sig_numeric(emb, ["b"], kappa, iterations,
                                  seed=seed + 3 * t + 1)
        y_ab = ref_emb_sig_numeric(emb, ["a", "b"], kappa, iterations,
                                   seed=seed + 3 * t + 2)
        rows.append({
            "cos_ab": round(float(a @ b), 12),
            "singleton_angle_a": round(angular_error(y_a, a), 12),
            "singleton_angle_b": round(angular_error(y_b, b), 12),
            "pair_cone_residual": round(cone_residual(y_ab, y_a, y_b), 12),
        })
    return {"kappa": kappa, "iterations": iterations, "seed": seed,
            "trials": rows}


# ------------------------------------------------------------------
# KB parser and printer with one method per precedence level
# ------------------------------------------------------------------

_REF_LINE_RE = re.compile(r"^\s*(atoms|rule|formula|stratum)\s*:\s*(.*)$")
_REF_ATOM_RE = re.compile(r"[A-Za-z0-9_:]+")
_REF_RESERVED = {"TRUE", "FALSE"}
_REF_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Var: 6, Const: 6}


def ref_format_formula(formula) -> str:
    return _ref_fmt(formula, 0)


def _ref_fmt(f, context: int) -> str:
    prec = _REF_PREC[type(f)]
    if isinstance(f, Var):
        s = f.name
    elif isinstance(f, Const):
        s = "TRUE" if f.value else "FALSE"
    elif isinstance(f, Not):
        s = "!" + _ref_fmt(f.sub, prec)
    elif isinstance(f, And):
        s = f"{_ref_fmt(f.left, prec)} & {_ref_fmt(f.right, prec + 1)}"
    elif isinstance(f, Or):
        s = f"{_ref_fmt(f.left, prec)} | {_ref_fmt(f.right, prec + 1)}"
    elif isinstance(f, Implies):
        s = f"{_ref_fmt(f.left, prec + 1)} -> {_ref_fmt(f.right, prec)}"
    else:
        s = f"{_ref_fmt(f.left, prec)} <-> {_ref_fmt(f.right, prec + 1)}"
    return f"({s})" if prec < context else s


@dataclass(frozen=True)
class _RefToken:
    kind: str  # 'atom' 'true' 'false' '!' '&' '|' '->' '<->' '(' ')' 'end'
    text: str
    line: int
    column: int


def ref_tokenize(payload: str, line_no: int, offset: int) -> list[_RefToken]:
    tokens = []
    i = 0
    while i < len(payload):
        ch = payload[i]
        col = offset + i + 1
        if ch in " \t":
            i += 1
            continue
        if payload.startswith("<->", i):
            tokens.append(_RefToken("<->", "<->", line_no, col))
            i += 3
        elif payload.startswith("->", i):
            tokens.append(_RefToken("->", "->", line_no, col))
            i += 2
        elif ch in "!&|()":
            tokens.append(_RefToken(ch, ch, line_no, col))
            i += 1
        else:
            m = _REF_ATOM_RE.match(payload, i)
            if not m:
                raise ParseError(f"unexpected character {ch!r}", line_no, col)
            word = m.group(0)
            if word == "TRUE":
                tokens.append(_RefToken("true", word, line_no, col))
            elif word == "FALSE":
                tokens.append(_RefToken("false", word, line_no, col))
            else:
                tokens.append(_RefToken("atom", word, line_no, col))
            i = m.end()
    tokens.append(_RefToken("end", "", line_no, offset + len(payload) + 1))
    return tokens


class RefFormulaParser:
    """Recursive descent, one method per precedence level, with the
    library's depth budget counted at the same tokens."""

    def __init__(self, tokens, declared):
        self.tokens = tokens
        self.pos = 0
        self.declared = declared
        self.open = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _too_deep(self, tok):
        return ParseError(
            f"formula nests deeper than {MAX_FORMULA_DEPTH} levels",
            tok.line, tok.column)

    def _operand(self, tok, parse):
        self.open += 1
        if self.open > MAX_FORMULA_DEPTH:
            raise self._too_deep(tok)
        result = parse()
        self.open -= 1
        return result

    def _depth(self, tok, *children):
        depth = 1 + max(children)
        if self.open + depth > MAX_FORMULA_DEPTH:
            raise self._too_deep(tok)
        return depth

    def parse(self):
        f, _ = self.iff()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)
        return f

    def iff(self):
        f, d = self.implies()
        while self.peek().kind == "<->":
            tok = self.take()
            g, e = self._operand(tok, self.implies)
            f, d = Iff(f, g), self._depth(tok, d, e)
        return f, d

    def implies(self):
        f, d = self.disj()
        if self.peek().kind == "->":
            tok = self.take()
            g, e = self._operand(tok, self.implies)
            return Implies(f, g), self._depth(tok, d, e)
        return f, d

    def disj(self):
        f, d = self.conj()
        while self.peek().kind == "|":
            tok = self.take()
            g, e = self._operand(tok, self.conj)
            f, d = Or(f, g), self._depth(tok, d, e)
        return f, d

    def conj(self):
        f, d = self.unary()
        while self.peek().kind == "&":
            tok = self.take()
            g, e = self._operand(tok, self.unary)
            f, d = And(f, g), self._depth(tok, d, e)
        return f, d

    def unary(self):
        tok = self.take()
        if tok.kind == "!":
            f, d = self._operand(tok, self.unary)
            return Not(f), self._depth(tok, d)
        if tok.kind == "(":
            f, d = self._operand(tok, self.iff)
            closing = self.take()
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.line, closing.column)
            return f, self._depth(tok, d)
        if tok.kind == "true":
            return TOP, 0
        if tok.kind == "false":
            return BOTTOM, 0
        if tok.kind == "atom":
            if tok.text not in self.declared:
                raise UndeclaredAtomError(
                    f"undeclared atom {tok.text!r}", tok.line, tok.column
                )
            return Var(tok.text), 0
        raise ParseError(
            f"expected formula, found {tok.text or 'end of line'!r}",
            tok.line,
            tok.column,
        )


def ref_parse_kb(text: str):
    signature = None
    formulas = []
    strata = []
    plain_lines = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = _REF_LINE_RE.match(line)
        if not m:
            col = len(line) - len(line.lstrip()) + 1
            raise ParseError("expected 'atoms:', 'rule:', 'formula:' or "
                             "'stratum:' line", line_no, col)
        keyword, payload = m.group(1), m.group(2)
        payload_offset = m.start(2)

        if keyword == "atoms":
            if signature is not None:
                raise ParseError("duplicate atoms: header", line_no, 1)
            names = []
            for tok in ref_tokenize(payload, line_no, payload_offset):
                if tok.kind == "end":
                    break
                if tok.kind != "atom":
                    if tok.text in _REF_RESERVED:
                        raise ParseError(
                            f"{tok.text} is reserved and cannot name an atom",
                            tok.line, tok.column)
                    raise ParseError(
                        f"bad atom name {tok.text!r}", tok.line, tok.column)
                if tok.text in names:
                    raise DuplicateAtomError(
                        f"duplicate atom {tok.text!r}", tok.line, tok.column)
                names.append(tok.text)
            if not names:
                raise ParseError("empty atoms: header", line_no, 1)
            signature = Signature(tuple(names))
            continue

        if signature is None:
            raise ParseError("atoms: header must come first", line_no, 1)
        parser = RefFormulaParser(
            ref_tokenize(payload, line_no, payload_offset), set(signature.atoms)
        )
        formula = parser.parse()
        if keyword == "stratum":
            strata.append(formula)
        else:
            formulas.append(formula)
            plain_lines += 1
        if strata and plain_lines:
            raise ParseError(
                "cannot mix stratum: with rule:/formula: lines", line_no, 1)

    if signature is None:
        raise ParseError("missing atoms: header", 1, 1)
    if strata:
        return StratifiedKB(signature, tuple(strata))
    return KnowledgeBase(signature, tuple(formulas))

"""Reference implementations the library must agree with, exactly.

`dense_lp_feasible` is the exact simplex as it stood before the solver
split systems into connected blocks and moved to integer rows: one
joint `Fraction` tableau, dense row updates.  It shares the system types
and the Farkas re-check with the library and must return exactly what
`lp_feasible` returns.  `ref_verify_witness` is the witness re-check as
it stood before it moved to integers: one `Fraction` sum per row.

The `ref_*` pooling, labelling and score functions are the exact
strategy evaluators as they stood before the library moved to integer
kernels: every coordinate a `Fraction`, pooled vectors rational.  They
must decide every query as the library does and print the same score.

The `ref_construct_*` recipes are recipes 1-3 as the paper states them,
with one coordinate per model of the KB.

`ref_emb_sig_numeric` and `ref_sig_conical_diagnostics` are the sigmoid
demonstrator as it stood before the library stepped all problems as one
batch: one 2-D problem at a time, one numpy step per iteration.
"""

from fractions import Fraction
from functools import partial

import numpy as np

from embedsim.certifier import (FarkasCertificate, FeasibilityOutcome,
                                LinearSystem, _normalize_multipliers,
                                verify_farkas)
from embedsim.constructors import ConstructionResult, DeltaConfig
from embedsim.logic import KnowledgeBase, enumerate_models
from embedsim.strategies import (AVG_RELU, HAD_DOT, ORD_ORD,
                                 AttributeEmbedding, DimensionMismatchError,
                                 angular_error, cone_residual, frac_str)


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
# Recipes 1-3 over every model of the KB
# ------------------------------------------------------------------

def ref_avg_relu_vectors(kb: KnowledgeBase, models, delta: int) -> dict:
    """Per atom: 1 on the models where it holds, -delta on the others,
    then a constant 1."""
    sig = kb.signature
    return {a: tuple(Fraction(1) if omega & sig.bit(a) else Fraction(-delta)
                     for omega in models) + (Fraction(1),)
            for a in sig.atoms}


def ref_construct_avg_relu(kb: KnowledgeBase,
                           cfg: DeltaConfig | None = None) -> ConstructionResult:
    delta = (cfg or DeltaConfig()).resolve(len(kb.signature))
    models = enumerate_models(kb)
    vectors = ref_avg_relu_vectors(kb, models, delta)
    emb = AttributeEmbedding(len(models) + 1, vectors, dict(vectors))
    return ConstructionResult(emb, AVG_RELU, 1, models, delta)


def ref_construct_had_dot(kb: KnowledgeBase,
                          cfg: DeltaConfig | None = None) -> ConstructionResult:
    delta = (cfg or DeltaConfig()).resolve(len(kb.signature))
    models = enumerate_models(kb)
    sig = kb.signature
    context = {a: tuple(Fraction(1) if omega & sig.bit(a) else Fraction(0)
                        for omega in models) + (Fraction(1),)
               for a in sig.atoms}
    emb = AttributeEmbedding(len(models) + 1, context,
                             ref_avg_relu_vectors(kb, models, delta))
    return ConstructionResult(emb, HAD_DOT, 2, models, delta)


def ref_construct_ord(kb: KnowledgeBase) -> ConstructionResult:
    models = enumerate_models(kb)
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


def ref_lab_relu(emb, e, head, threshold=Fraction(0)) -> bool:
    return ref_dot(ref_relu_vec(e), emb.context[head]) >= threshold


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

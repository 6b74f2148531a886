"""Pooling and labelling evaluators for attribute-embedding strategies.

Every strategy pairs a pooling function (how an entity vector is built
from the context vectors of its attributes) with a labelling rule (when
an attribute is predicted from an entity vector).  All pooling and
labelling decisions except the sigmoid-MLE pooling are evaluated in
exact rational arithmetic; normalised pooling never materialises the
irrational unit vector, it carries (sum, ||sum||^2) and decides
comparisons by sign analysis and squaring.

The sigmoid-MLE pooling is a floating-point demonstrator (gradient
ascent on a seeded start, deterministic per (seed, iterations)); it is
diagnostic only and never feeds exact verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

Vec = tuple[Fraction, ...]

POOLINGS = ("avg", "norm", "had", "ord", "sig")
LABELLINGS = ("dot", "dist", "relu", "ord")


class DimensionMismatchError(ValueError):
    pass


class ExactEvaluationError(ValueError):
    """Raised when an exact verdict is requested from a numeric-only strategy."""


# ------------------------------------------------------------------
# Rational serialization ("p/q" strings keep JSON exact)
# ------------------------------------------------------------------

def frac_str(x: Fraction | int) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s: str) -> Fraction:
    return Fraction(s)


def vec_strs(v: Vec) -> list[str]:
    return [frac_str(x) for x in v]


def parse_vec(items: Sequence[str]) -> Vec:
    return tuple(Fraction(x) for x in items)


# ------------------------------------------------------------------
# Strategy identifiers (the ten supported pooling/labelling pairs)
# ------------------------------------------------------------------

@dataclass(frozen=True)
class StrategyId:
    pooling: str
    labelling: str
    tied: bool = False

    def __post_init__(self):
        if self.pooling not in POOLINGS:
            raise ValueError(f"unknown pooling {self.pooling!r}")
        if self.labelling not in LABELLINGS:
            raise ValueError(f"unknown labelling {self.labelling!r}")

    @property
    def name(self) -> str:
        base = f"{self.pooling}-{self.labelling}"
        # only the Hadamard row exists in both tied and untied variants,
        # so tying is spelled out just there
        if self.tied and (self.pooling, self.labelling) == ("had", "dot"):
            return base + "-tied"
        return base

    @property
    def exact(self) -> bool:
        return self.pooling != "sig"


AVG_DOT = StrategyId("avg", "dot")
AVG_DIST = StrategyId("avg", "dist")
NORM_DOT = StrategyId("norm", "dot")
NORM_DIST = StrategyId("norm", "dist")
SIG_DOT = StrategyId("sig", "dot")
SIG_DIST = StrategyId("sig", "dist")
AVG_RELU = StrategyId("avg", "relu", tied=True)
HAD_DOT = StrategyId("had", "dot")
HAD_DOT_TIED = StrategyId("had", "dot", tied=True)
ORD_ORD = StrategyId("ord", "ord", tied=True)

TABLE1_STRATEGIES: tuple[StrategyId, ...] = (
    AVG_DOT, AVG_DIST, NORM_DOT, NORM_DIST, SIG_DOT, SIG_DIST,
    AVG_RELU, HAD_DOT, HAD_DOT_TIED, ORD_ORD,
)

_BY_NAME = {s.name: s for s in TABLE1_STRATEGIES}


def strategy_from_name(name: str) -> StrategyId:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise ValueError(f"unknown strategy {name!r} (known: {known})") from None


# ------------------------------------------------------------------
# Attribute embeddings
# ------------------------------------------------------------------

@dataclass
class AttributeEmbedding:
    """Per-attribute context/output vectors plus per-attribute thresholds.

    `lam[b]` is the dot-product threshold, `theta[b]` the distance
    radius; strategies that fix their threshold (relu, the zero-threshold
    Hadamard rows) simply ignore the stored values they do not use.
    """

    dimension: int
    context: dict[str, Vec]
    output: dict[str, Vec]
    lam: dict[str, Fraction] = field(default_factory=dict)
    theta: dict[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        for name, vec in list(self.context.items()) + list(self.output.items()):
            if len(vec) != self.dimension:
                raise DimensionMismatchError(
                    f"vector for {name!r} has length {len(vec)}, "
                    f"embedding dimension is {self.dimension}")
        for name in self.context:
            self.lam.setdefault(name, Fraction(0))
            self.theta.setdefault(name, Fraction(0))
            if self.theta[name] < 0:
                raise ValueError(f"negative distance radius for {name!r}")

    @property
    def atoms(self) -> tuple[str, ...]:
        return tuple(self.context)

    def to_json_dict(self, provenance: dict | None = None) -> dict:
        doc = {
            "dimension": self.dimension,
            "atoms": [
                {
                    "name": a,
                    "context": vec_strs(self.context[a]),
                    "output": vec_strs(self.output[a]),
                    "lambda": frac_str(self.lam[a]),
                    "theta": frac_str(self.theta[a]),
                }
                for a in self.context
            ],
        }
        if provenance is not None:
            doc["provenance"] = provenance
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "AttributeEmbedding":
        dim = int(doc["dimension"])
        context, output, lam, theta = {}, {}, {}, {}
        for entry in doc["atoms"]:
            name = entry["name"]
            context[name] = parse_vec(entry["context"])
            output[name] = parse_vec(entry.get("output", entry["context"]))
            lam[name] = parse_frac(entry.get("lambda", "0"))
            theta[name] = parse_frac(entry.get("theta", "0"))
        return cls(dim, context, output, lam, theta)


# ------------------------------------------------------------------
# Exact vector helpers
# ------------------------------------------------------------------

def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def norm_sq(v: Vec) -> Fraction:
    return sum((x * x for x in v), Fraction(0))


def dist_sq(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatchError(f"distance of lengths {len(u)}, {len(v)}")
    return sum(((a - b) * (a - b) for a, b in zip(u, v)), Fraction(0))


def relu_vec(v: Vec) -> Vec:
    return tuple(x if x > 0 else Fraction(0) for x in v)


def _unique(atoms: Iterable[str]) -> tuple[str, ...]:
    # duplicate attributes collapse to a set before pooling
    return tuple(dict.fromkeys(atoms))


def _vectors(emb: AttributeEmbedding, atoms: Iterable[str]) -> list[Vec]:
    return [emb.context[a] for a in _unique(atoms)]


# ------------------------------------------------------------------
# Pooling functions
# ------------------------------------------------------------------

def emb_avg(emb: AttributeEmbedding, atoms: Iterable[str]) -> Vec:
    """Component-wise mean of the context vectors (exact)."""
    vecs = _vectors(emb, atoms)
    if not vecs:
        raise ValueError("average pooling needs a non-empty attribute set")
    n = len(vecs)
    return tuple(sum(col, Fraction(0)) / n for col in zip(*vecs))


def emb_norm(emb: AttributeEmbedding, atoms: Iterable[str]) -> tuple[Vec, Fraction]:
    """Normalised-sum pooling as (sum, ||sum||^2).

    The unit vector itself is generally irrational, so it is never
    built; labelling decisions on this representation square through
    the normalisation.  An empty attribute set yields the zero vector.
    """
    vecs = _vectors(emb, atoms)
    if not vecs:
        zero = tuple(Fraction(0) for _ in range(emb.dimension))
        return zero, Fraction(0)
    total = tuple(sum(col, Fraction(0)) for col in zip(*vecs))
    return total, norm_sq(total)


def emb_had(emb: AttributeEmbedding, atoms: Iterable[str]) -> Vec:
    """Hadamard (component-wise product) pooling."""
    vecs = _vectors(emb, atoms)
    if not vecs:
        raise ValueError("Hadamard pooling needs a non-empty attribute set")
    out = vecs[0]
    for v in vecs[1:]:
        out = tuple(a * b for a, b in zip(out, v))
    return out


def emb_ord(emb: AttributeEmbedding, atoms: Iterable[str]) -> Vec:
    """Component-wise maximum pooling."""
    vecs = _vectors(emb, atoms)
    if not vecs:
        raise ValueError("max pooling needs a non-empty attribute set")
    return tuple(max(col) for col in zip(*vecs))


# ------------------------------------------------------------------
# Labelling functions
# ------------------------------------------------------------------

def lab_dot(emb: AttributeEmbedding, e: Vec, head: str,
            tied: bool = False) -> bool:
    """e . output[head] >= lambda_head (context vector when tied)."""
    target = emb.context[head] if tied else emb.output[head]
    return dot(e, target) >= emb.lam[head]


def lab_dist(emb: AttributeEmbedding, e: Vec, head: str) -> bool:
    """Euclidean distance to output[head] at most theta_head (squared compare)."""
    th = emb.theta[head]
    return dist_sq(e, emb.output[head]) <= th * th


def lab_relu(emb: AttributeEmbedding, e: Vec, head: str,
             threshold: Fraction = Fraction(0)) -> bool:
    """ReLU(e) . context[head] >= threshold (tied vectors; default 0)."""
    return dot(relu_vec(e), emb.context[head]) >= threshold


def lab_ord(emb: AttributeEmbedding, e: Vec, head: str) -> bool:
    """context[head] below e in the component-wise product order."""
    return all(b <= x for b, x in zip(emb.context[head], e))


def _ge_scaled_sqrt(lhs: Fraction, coeff: Fraction, q: Fraction) -> bool:
    """Decide lhs >= coeff * sqrt(q) exactly (q >= 0), without radicals."""
    if q < 0:
        raise ValueError("negative squared norm")
    if coeff <= 0:
        if lhs >= 0:
            return True
        # both sides negative: compare magnitudes, reversed by squaring
        return coeff * coeff * q >= lhs * lhs
    if lhs < 0:
        return False
    return lhs * lhs >= coeff * coeff * q


def lab_dot_on_norm(emb: AttributeEmbedding, pooled: tuple[Vec, Fraction],
                    head: str) -> bool:
    """Dot labelling on normalised pooling, decided exactly.

    `pooled` is the (sum, ||sum||^2) pair from `emb_norm`.  Decides
    sum . output[head] >= lambda_head * ||sum|| by sign analysis plus
    squaring; the zero pooled vector (empty set or cancelling sum)
    reduces to 0 >= lambda_head.
    """
    total, q = pooled
    lam = emb.lam[head]
    if q == 0:
        return 0 >= lam
    return _ge_scaled_sqrt(dot(total, emb.output[head]), lam, q)


def lab_dist_on_norm(emb: AttributeEmbedding, pooled: tuple[Vec, Fraction],
                     head: str) -> bool:
    """Distance labelling on normalised pooling, decided exactly.

    `pooled` is the (sum, ||sum||^2) pair from `emb_norm`.  For a unit
    pooled vector e, d(e, b) <= theta_b unfolds to
    2 (sum . b) >= (1 + ||b||^2 - theta_b^2) ||sum||, which the squaring
    helper decides; the zero pooled vector compares ||b|| to theta_b.
    """
    total, q = pooled
    out = emb.output[head]
    th = emb.theta[head]
    if q == 0:
        return norm_sq(out) <= th * th
    coeff = 1 + norm_sq(out) - th * th
    return _ge_scaled_sqrt(2 * dot(total, out), coeff, q)


# ------------------------------------------------------------------
# Mismatch scores: the exact quantities behind a labelling decision
# ------------------------------------------------------------------

def _score_dot(emb: AttributeEmbedding, e: Vec, head: str,
               tied: bool = False) -> str:
    target = emb.context[head] if tied else emb.output[head]
    return f"dot={frac_str(dot(e, target))} lambda={frac_str(emb.lam[head])}"


def _score_dist(emb: AttributeEmbedding, e: Vec, head: str) -> str:
    return (f"distsq={frac_str(dist_sq(e, emb.output[head]))} "
            f"theta={frac_str(emb.theta[head])}")


def _score_relu(emb: AttributeEmbedding, e: Vec, head: str) -> str:
    return f"relu_dot={frac_str(dot(relu_vec(e), emb.context[head]))}"


def _score_ord(emb: AttributeEmbedding, e: Vec, head: str) -> str:
    return f"pooled={','.join(frac_str(x) for x in e)}"


def _score_dot_on_norm(emb: AttributeEmbedding, pooled: tuple[Vec, Fraction],
                       head: str) -> str:
    total, q = pooled
    return (f"sum.out={frac_str(dot(total, emb.output[head]))} "
            f"normsq={frac_str(q)} lambda={frac_str(emb.lam[head])}")


def _score_dist_on_norm(emb: AttributeEmbedding, pooled: tuple[Vec, Fraction],
                        head: str) -> str:
    total, q = pooled
    out = emb.output[head]
    return (f"sum.out={frac_str(dot(total, out))} normsq={frac_str(q)} "
            f"outsq={frac_str(norm_sq(out))} "
            f"theta={frac_str(emb.theta[head])}")


# ------------------------------------------------------------------
# Exact strategy evaluation
# ------------------------------------------------------------------

class ExactRule(NamedTuple):
    """pool(emb, atoms) -> pooled; label/score(emb, pooled, head)."""

    pool: Callable
    label: Callable[..., bool]
    score: Callable[..., str]


def exact_rule(strategy: StrategyId) -> ExactRule:
    """The pooling, labelling rule and mismatch-score text of a strategy.

    This is the one place an exact strategy is mapped to its functions.
    The names are resolved in this module on every call, not captured at
    import, so a wrapper installed on a module attribute is the one used.
    """
    p, l = strategy.pooling, strategy.labelling
    if p == "sig":
        raise ExactEvaluationError(
            "sigmoid pooling is numeric-only and has no exact verdict")
    # tied dot labelling compares against the context vectors
    dot_rule = (partial(lab_dot, tied=strategy.tied),
                partial(_score_dot, tied=strategy.tied))
    rules = {
        ("avg", "dot"): (emb_avg, *dot_rule),
        ("avg", "dist"): (emb_avg, lab_dist, _score_dist),
        ("avg", "relu"): (emb_avg, lab_relu, _score_relu),
        ("norm", "dot"): (emb_norm, lab_dot_on_norm, _score_dot_on_norm),
        ("norm", "dist"): (emb_norm, lab_dist_on_norm, _score_dist_on_norm),
        ("had", "dot"): (emb_had, *dot_rule),
        ("ord", "ord"): (emb_ord, lab_ord, _score_ord),
    }
    if (p, l) not in rules:
        raise ExactEvaluationError(f"unsupported combination {strategy.name}")
    return ExactRule(*rules[p, l])


def strategy_accepts(emb: AttributeEmbedding, strategy: StrategyId,
                     atoms: Iterable[str], head: str) -> bool:
    """Does `head` belong to the label set of the pooled embedding of `atoms`?"""
    rule = exact_rule(strategy)
    return rule.label(emb, rule.pool(emb, atoms), head)


# ------------------------------------------------------------------
# Numeric sigmoid-MLE pooling (demonstrator)
# ------------------------------------------------------------------

def _log_sigmoid(t: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -t)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    return np.exp(_log_sigmoid(t))


def sig_objective(e: np.ndarray, vectors: np.ndarray, kappa: float) -> float:
    """Sum of log-sigmoid scores minus the quadratic penalty.

    The quadratic term must act as a penalty; otherwise the objective
    grows without bound and no maximiser exists.
    """
    scores = vectors @ e
    return float(np.sum(_log_sigmoid(scores)) - kappa * float(e @ e))


def sig_gradient(e: np.ndarray, vectors: np.ndarray, kappa: float) -> np.ndarray:
    scores = vectors @ e
    weights = _sigmoid(-scores)
    return weights @ vectors - 2.0 * kappa * e


def emb_sig_numeric(emb: AttributeEmbedding, atoms: Iterable[str],
                    kappa: float = 1.0, iterations: int = 2000,
                    seed: int = 0) -> np.ndarray:
    """Gradient-ascent maximiser of the sigmoid likelihood with L2 penalty.

    Deterministic for a given (seed, iterations) pair; ties between
    maximisers are therefore resolved reproducibly rather than
    canonically.  Diagnostic use only.
    """
    names = _unique(atoms)
    if not names:
        raise ValueError("sigmoid pooling needs a non-empty attribute set")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    vectors = np.array([[float(x) for x in emb.context[a]] for a in names])
    rng = np.random.default_rng(seed)
    e = 0.1 * rng.standard_normal(vectors.shape[1])
    # step below 1/L for the smoothness bound L <= sum ||a||^2 / 4 + 2 kappa
    step = 1.0 / (np.sum(vectors * vectors) / 4.0 + 2.0 * kappa + 1.0)
    for _ in range(iterations):
        e = e + step * sig_gradient(e, vectors, kappa)
    if not (np.all(np.isfinite(e))
            and np.isfinite(sig_objective(e, vectors, kappa))):
        raise ArithmeticError("sigmoid objective became non-finite")
    return e


def angular_error(u: np.ndarray, v: np.ndarray) -> float:
    """Angle between u and v in radians, stable near zero."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return float("nan")
    c = float(u @ v) / (nu * nv)
    s = float(np.linalg.norm(np.outer(u, v) - np.outer(v, u))) / (2 * nu * nv)
    return float(np.arctan2(s, c))


def cone_residual(target: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Distance from target to the conical hull of u and v."""
    best = float(np.linalg.norm(target))  # origin is in every cone
    gram = np.array([[u @ u, u @ v], [u @ v, v @ v]])
    rhs = np.array([u @ target, v @ target])
    try:
        coeffs = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        coeffs = None
    if coeffs is not None and coeffs[0] >= 0 and coeffs[1] >= 0:
        best = min(best, float(np.linalg.norm(target - coeffs[0] * u - coeffs[1] * v)))
    for ray in (u, v):
        denom = float(ray @ ray)
        if denom > 0:
            alpha = max(0.0, float(ray @ target) / denom)
            best = min(best, float(np.linalg.norm(target - alpha * ray)))
    return best


def sig_conical_diagnostics(dimension: int = 4, trials: int = 5,
                            kappa: float = 1.0, iterations: int = 3000,
                            seed: int = 0) -> dict:
    """Numeric corroboration that pooled pairs sit in the singleton cone.

    For random attribute pairs (a, b) that are not antipodal, the
    singleton optimum is checked to align with the attribute vector and
    the pair optimum to lie in the conical hull of the two singleton
    optima.  Returns JSON-ready floats, deterministic per seed.
    """
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
        y_a = emb_sig_numeric(emb, ["a"], kappa, iterations, seed=seed + 3 * t)
        y_b = emb_sig_numeric(emb, ["b"], kappa, iterations, seed=seed + 3 * t + 1)
        y_ab = emb_sig_numeric(emb, ["a", "b"], kappa, iterations,
                               seed=seed + 3 * t + 2)
        rows.append({
            "cos_ab": round(float(a @ b), 12),
            "singleton_angle_a": round(angular_error(y_a, a), 12),
            "singleton_angle_b": round(angular_error(y_b, b), 12),
            "pair_cone_residual": round(cone_residual(y_ab, y_a, y_b), 12),
        })
    return {"kappa": kappa, "iterations": iterations, "seed": seed,
            "trials": rows}

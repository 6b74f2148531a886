"""Pooling and labelling evaluators for attribute-embedding strategies.

Every strategy pairs a pooling function (how an entity vector is built
from the context vectors of its attributes) with a labelling rule (when
an attribute is predicted from an entity vector).  All pooling and
labelling decisions except the sigmoid-MLE pooling are exact and run in
integers: `scale` puts each vector family (context, output) over one
common denominator, and pooling returns integer numerators with a
single denominator.  Each labelling rule is a labeller, bound once to
the scaled embedding and a tuple of heads with every denominator and
threshold p/q multiplied out; one call labels every head of a pooled
value, as a bitmask.  `Fraction` appears only in the embedding itself
and in threshold text.  Normalised pooling never materialises the
irrational unit vector; it carries (sum, ||sum||^2) and decides
comparisons by sign analysis and squaring.

The sigmoid-MLE pooling is a floating-point demonstrator (gradient
ascent on a seeded start, deterministic per (seed, iterations)); it is
diagnostic only and never feeds exact verdicts.  One kernel steps a
whole batch of problems at once, so the conical diagnostics run all
their optimisations as one batched ascent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import le, mul
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
    if not isinstance(x, (int, Fraction)):
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
        dim = doc["dimension"]
        # bool is an int subclass; a float is refused, not truncated
        if type(dim) is not int:
            raise ValueError(f"dimension must be a JSON integer, got {dim!r}")
        context, output, lam, theta = {}, {}, {}, {}
        for entry in doc["atoms"]:
            name = entry["name"]
            if name in context:
                raise ValueError(f"duplicate atom {name!r}")
            context[name] = parse_vec(entry["context"])
            output[name] = parse_vec(entry.get("output", entry["context"]))
            lam[name] = parse_frac(entry.get("lambda", "0"))
            theta[name] = parse_frac(entry.get("theta", "0"))
        return cls(dim, context, output, lam, theta)


# ------------------------------------------------------------------
# Integer scaling
# ------------------------------------------------------------------

IntVec = tuple[int, ...]
# a pooled value: (numerators, denominator) for the rational pooled
# vector, or (sum, ||sum||^2) for normalised pooling
Pooled = tuple[IntVec, int]


@dataclass(frozen=True)
class ScaledEmbedding:
    """An embedding's vectors as integers over one denominator per family.

    The context vector of `a` is `context[a] / cden` and the output
    vector of `b` is `output[b] / oden`, where each denominator is the
    lcm of the coordinate denominators of its family.  Thresholds stay
    exact rationals, copied when the scaling is made.
    """

    dimension: int
    context: dict[str, IntVec]
    output: dict[str, IntVec]
    cden: int
    oden: int
    lam: dict[str, Fraction]
    theta: dict[str, Fraction]


def _over_common_denominator(vectors: dict[str, Vec]
                             ) -> tuple[dict[str, IntVec], int]:
    den = lcm(*(x.denominator for v in vectors.values() for x in v))
    return ({a: tuple(x.numerator * (den // x.denominator) for x in v)
             for a, v in vectors.items()}, den)


def scale(emb: AttributeEmbedding | ScaledEmbedding) -> ScaledEmbedding:
    """The embedding over common denominators (a scaled one is returned as is).

    A sweep scales once and hands the result to every kernel; a kernel
    given an `AttributeEmbedding` scales it on each call.  The result is
    never stored on the embedding, whose fields may be reassigned.
    """
    if isinstance(emb, ScaledEmbedding):
        return emb
    context, cden = _over_common_denominator(emb.context)
    output, oden = _over_common_denominator(emb.output)
    return ScaledEmbedding(emb.dimension, context, output, cden, oden,
                           dict(emb.lam), dict(emb.theta))


def _relu(v: IntVec) -> IntVec:
    return tuple(x if x > 0 else 0 for x in v)


def _unique(atoms: Iterable[str]) -> tuple[str, ...]:
    # duplicate attributes collapse to a set before pooling
    return tuple(dict.fromkeys(atoms))


def _members(sc: ScaledEmbedding, atoms: Iterable[str],
             pooling: str | None) -> list[IntVec]:
    vecs = [sc.context[a] for a in _unique(atoms)]
    if not vecs and pooling:
        raise ValueError(f"{pooling} pooling needs a non-empty attribute set")
    return vecs


# ------------------------------------------------------------------
# Pooling functions: integer numerators and one denominator
# ------------------------------------------------------------------

def emb_avg(emb: AttributeEmbedding | ScaledEmbedding,
            atoms: Iterable[str]) -> Pooled:
    """Component-wise mean of the context vectors, as (sum, |S| * cden)."""
    sc = scale(emb)
    vecs = _members(sc, atoms, "average")
    return tuple(map(sum, zip(*vecs))), len(vecs) * sc.cden


def emb_norm(emb: AttributeEmbedding | ScaledEmbedding,
             atoms: Iterable[str]) -> Pooled:
    """Normalised-sum pooling as (sum, ||sum||^2), the sum over cden.

    The unit vector is generally irrational, so it is never built; it
    does not depend on the sum's denominator, and labelling decisions
    on this representation square through the normalisation.  An empty
    attribute set yields the zero vector.
    """
    sc = scale(emb)
    vecs = _members(sc, atoms, None)
    if not vecs:
        return (0,) * sc.dimension, 0
    total = tuple(map(sum, zip(*vecs)))
    return total, sum(x * x for x in total)


def emb_had(emb: AttributeEmbedding | ScaledEmbedding,
            atoms: Iterable[str]) -> Pooled:
    """Hadamard (component-wise product) pooling, as (product, cden^|S|)."""
    sc = scale(emb)
    vecs = _members(sc, atoms, "Hadamard")
    out = vecs[0]
    for v in vecs[1:]:
        out = tuple(map(mul, out, v))
    return out, sc.cden ** len(vecs)


def emb_ord(emb: AttributeEmbedding | ScaledEmbedding,
            atoms: Iterable[str]) -> Pooled:
    """Component-wise maximum pooling, as (maximum, cden)."""
    sc = scale(emb)
    vecs = _members(sc, atoms, "max")
    return tuple(map(max, zip(*vecs))), sc.cden


# ------------------------------------------------------------------
# Labellers: one per labelling rule, bound once to a scaled embedding
# and a tuple of heads, with every threshold multiplied out at binding
# ------------------------------------------------------------------

def _ratio(num: int, den: int) -> str:
    """`frac_str(Fraction(num, den))` for den > 0, without the Fraction."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


class _Labeller:
    """The label set of a pooled value over heads fixed at binding.

    `labels(pooled)` sets bit i when `heads[i]` is labelled, doing the
    per-subset work once for all heads; `score(pooled, i)` is the exact
    quantity behind head i's decision, as mismatch-report text.  Each
    head's row holds its bit, target vector and threshold constants.
    """

    def __init__(self, sc: ScaledEmbedding):
        self.dimension, self.cden, self.oden = sc.dimension, sc.cden, sc.oden

    def _vector(self, pooled: Pooled) -> IntVec:
        if len(pooled[0]) != self.dimension:
            raise DimensionMismatchError(
                f"pooled vector has length {len(pooled[0])}, "
                f"embedding dimension is {self.dimension}")
        return pooled[0]


class DotLabeller(_Labeller):
    """e . output[b] >= lambda_b (the context vector of b when tied).

    For e = T/D, target X/x and lambda_b = p/q: (T . X) q >= p x D.
    """

    def __init__(self, sc: ScaledEmbedding, heads: Sequence[str],
                 tied: bool = False):
        super().__init__(sc)
        vectors, self.tden = ((sc.context, sc.cden) if tied
                              else (sc.output, sc.oden))
        lams = [sc.lam[b] for b in heads]
        self.rows = [(1 << i, vectors[b], lam.denominator,
                      lam.numerator * self.tden, f" lambda={frac_str(lam)}")
                     for i, (b, lam) in enumerate(zip(heads, lams))]

    def labels(self, pooled: Pooled) -> int:
        total, den = self._vector(pooled), pooled[1]
        return sum(bit for bit, x, q, px, _ in self.rows
                   if sum(map(mul, total, x)) * q >= px * den)

    def score(self, pooled: Pooled, i: int) -> str:
        _, x, _, _, text = self.rows[i]
        dot = sum(map(mul, pooled[0], x))
        return f"dot={_ratio(dot, pooled[1] * self.tden)}{text}"


class DistLabeller(_Labeller):
    """Euclidean distance from e to output[b] at most theta_b.

    For e = T/D, output O/o and theta_b = p/q, squared and multiplied
    out: ||T o - O D||^2 q^2 <= (p o D)^2.  The square is
    o^2 ||T||^2 - 2 o D (T . O) + D^2 ||O||^2, so a subset costs one
    norm and each head one dot product.
    """

    def __init__(self, sc: ScaledEmbedding, heads: Sequence[str]):
        super().__init__(sc)
        self.rows = []
        for i, b in enumerate(heads):
            out, th = sc.output[b], sc.theta[b]
            self.rows.append((1 << i, out, sum(map(mul, out, out)),
                              th.denominator ** 2,
                              (th.numerator * sc.oden) ** 2,
                              f" theta={frac_str(th)}"))

    def labels(self, pooled: Pooled) -> int:
        total, den = self._vector(pooled), pooled[1]
        o, dsq = self.oden, den * den
        tsq, cross = o * o * sum(map(mul, total, total)), 2 * o * den
        return sum(bit for bit, out, outsq, q2, p2, _ in self.rows
                   if (tsq - cross * sum(map(mul, total, out)) + dsq * outsq)
                   * q2 <= p2 * dsq)

    def score(self, pooled: Pooled, i: int) -> str:
        (total, den), o = pooled, self.oden
        _, out, _, _, _, text = self.rows[i]
        distsq = sum((t * o - x * den) ** 2 for t, x in zip(total, out))
        return f"distsq={_ratio(distsq, (den * o) ** 2)}{text}"


class ReluLabeller(_Labeller):
    """ReLU(e) . context[b] >= threshold (tied vectors; default 0).

    ReLU commutes with the positive denominator, so for e = T/D and
    threshold p/q: (ReLU(T) . C) q >= p cden D, ReLU(T) taken once.
    """

    def __init__(self, sc: ScaledEmbedding, heads: Sequence[str],
                 threshold: Fraction = Fraction(0)):
        super().__init__(sc)
        self.q, self.pc = threshold.denominator, threshold.numerator * sc.cden
        self.rows = [(1 << i, sc.context[b]) for i, b in enumerate(heads)]

    def labels(self, pooled: Pooled) -> int:
        relu, rhs = _relu(self._vector(pooled)), self.pc * pooled[1]
        return sum(bit for bit, c in self.rows
                   if sum(map(mul, relu, c)) * self.q >= rhs)

    def score(self, pooled: Pooled, i: int) -> str:
        dot = sum(map(mul, _relu(pooled[0]), self.rows[i][1]))
        return f"relu_dot={_ratio(dot, pooled[1] * self.cden)}"


class OrdLabeller(_Labeller):
    """context[b] below e in the component-wise product order.

    `emb_ord` pools over cden, the context vectors' own denominator, so
    the numerators are compared directly.
    """

    def __init__(self, sc: ScaledEmbedding, heads: Sequence[str]):
        super().__init__(sc)
        self.rows = [(1 << i, sc.context[b]) for i, b in enumerate(heads)]

    def labels(self, pooled: Pooled) -> int:
        total = self._vector(pooled)
        if pooled[1] != self.cden:
            raise ValueError(f"order labelling needs the max-pooled "
                             f"denominator {self.cden}, got {pooled[1]}")
        return sum(bit for bit, c in self.rows if all(map(le, c, total)))

    def score(self, pooled: Pooled, i: int) -> str:
        total, den = pooled
        return f"pooled={','.join(_ratio(x, den) for x in total)}"


def _ge_scaled_sqrt(lhs: int, coeff: int, q: int) -> bool:
    """Decide lhs >= coeff * sqrt(q) exactly (q >= 0), without radicals."""
    if q < 0:
        raise ValueError("negative squared norm")
    if coeff <= 0:
        # unless lhs >= 0, both sides are negative: squaring reverses them
        return lhs >= 0 or coeff * coeff * q >= lhs * lhs
    return lhs >= 0 and lhs * lhs >= coeff * coeff * q


class _NormLabeller(_Labeller):
    """A rule on the (sum, ||sum||^2) pair from `emb_norm`, decided exactly.

    Head b's row reads m (sum . O) >= c ||sum||, decided by sign analysis
    and squaring; the sum's denominator cancels.  The zero pooled vector
    (empty set or cancelling sum) gets the label set `zero`, fixed at
    binding."""

    def labels(self, pooled: Pooled) -> int:
        total, normsq = self._vector(pooled), pooled[1]
        if normsq == 0:
            return self.zero
        return sum(bit for bit, out, m, c, _ in self.rows
                   if _ge_scaled_sqrt(m * sum(map(mul, total, out)), c,
                                      normsq))

    def score(self, pooled: Pooled, i: int) -> str:
        (total, normsq), cden = pooled, self.cden
        _, out, _, _, text = self.rows[i]
        dot = sum(map(mul, total, out))
        return (f"sum.out={_ratio(dot, cden * self.oden)} "
                f"normsq={_ratio(normsq, cden * cden)}{text}")


class DotOnNormLabeller(_NormLabeller, DotLabeller):
    """Dot labelling on normalised pooling: sum . b >= lambda_b ||sum||.

    For b = O/o and lambda_b = p/q, on the untied `DotLabeller` rows:
    (sum . O) q >= p o ||sum||.  The zero vector reduces to 0 >= lambda_b.
    """

    def __init__(self, sc: ScaledEmbedding, heads: Sequence[str]):
        super().__init__(sc, heads)
        self.zero = sum(bit for bit, _, _, po, _ in self.rows if po <= 0)


class DistOnNormLabeller(_NormLabeller):
    """Distance labelling on normalised pooling.

    For a unit pooled vector e, d(e, b) <= theta_b unfolds to
    2 (sum . b) >= (1 + ||b||^2 - theta_b^2) ||sum||; with b = O/o and
    theta_b = p/q both sides are multiplied by o^2 q^2.  The zero pooled
    vector compares ||b|| to theta_b.
    """

    def __init__(self, sc: ScaledEmbedding, heads: Sequence[str]):
        super().__init__(sc)
        o2, self.rows, self.zero = sc.oden ** 2, [], 0
        for i, b in enumerate(heads):
            out, th = sc.output[b], sc.theta[b]
            outsq = sum(map(mul, out, out))
            p2, q2 = th.numerator ** 2, th.denominator ** 2
            self.rows.append((1 << i, out, 2 * sc.oden * q2,
                              (o2 + outsq) * q2 - p2 * o2,
                              f" outsq={_ratio(outsq, o2)} "
                              f"theta={frac_str(th)}"))
            self.zero |= (outsq * q2 <= p2 * o2) << i


def _label_one(labeller: Callable[..., _Labeller],
               emb: AttributeEmbedding | ScaledEmbedding, pooled: Pooled,
               head: str, *args, **kwargs) -> bool:
    return bool(labeller(scale(emb), (head,), *args, **kwargs).labels(pooled))


# the single-head decisions: lab_*(emb, pooled, head, ...) -> bool
lab_dot = partial(_label_one, DotLabeller)  # tied=False
lab_dist = partial(_label_one, DistLabeller)
lab_relu = partial(_label_one, ReluLabeller)  # threshold=0
lab_ord = partial(_label_one, OrdLabeller)
lab_dot_on_norm = partial(_label_one, DotOnNormLabeller)
lab_dist_on_norm = partial(_label_one, DistOnNormLabeller)


# ------------------------------------------------------------------
# Exact strategy evaluation
# ------------------------------------------------------------------

class ExactRule(NamedTuple):
    """pool(emb, atoms) -> pooled; labeller(scaled, heads) -> a labeller."""

    pool: Callable
    labeller: Callable[..., _Labeller]


def exact_rule(strategy: StrategyId) -> ExactRule:
    """The pooling and the labeller of a strategy.

    This is the one place an exact strategy is mapped to its functions.
    The names are resolved in this module on every call, not captured at
    import, so a wrapper installed on a module attribute is the one used.
    """
    p, l = strategy.pooling, strategy.labelling
    if p == "sig":
        raise ExactEvaluationError(
            "sigmoid pooling is numeric-only and has no exact verdict")
    # tied dot labelling compares against the context vectors
    dot = partial(DotLabeller, tied=strategy.tied)
    rules = {
        ("avg", "dot"): (emb_avg, dot),
        ("avg", "dist"): (emb_avg, DistLabeller),
        ("avg", "relu"): (emb_avg, ReluLabeller),
        ("norm", "dot"): (emb_norm, DotOnNormLabeller),
        ("norm", "dist"): (emb_norm, DistOnNormLabeller),
        ("had", "dot"): (emb_had, dot),
        ("ord", "ord"): (emb_ord, OrdLabeller),
    }
    if (p, l) not in rules:
        raise ExactEvaluationError(f"unsupported combination {strategy.name}")
    return ExactRule(*rules[p, l])


def strategy_accepts(emb: AttributeEmbedding, strategy: StrategyId,
                     atoms: Iterable[str], head: str) -> bool:
    """Does `head` belong to the label set of the pooled embedding of `atoms`?"""
    rule = exact_rule(strategy)
    sc = scale(emb)
    return _label_one(rule.labeller, sc, rule.pool(sc, atoms), head)


# ------------------------------------------------------------------
# Numeric sigmoid-MLE pooling (demonstrator)
# ------------------------------------------------------------------

def _log_sigmoid(t: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -t)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    return np.exp(_log_sigmoid(t))


def sig_objective(e: np.ndarray, vectors: np.ndarray,
                  kappa: float) -> float | np.ndarray:
    """Sum of log-sigmoid scores minus the quadratic penalty.

    The quadratic term must act as a penalty; otherwise the objective
    grows without bound and no maximiser exists.  `vectors` is (..., k, d)
    and `e` is (..., d): one problem gives a float, a batch of problems
    an array over the leading axes.
    """
    scores = np.einsum("...kd,...d->...k", vectors, e)
    value = (np.sum(_log_sigmoid(scores), axis=-1)
             - kappa * np.einsum("...d,...d->...", e, e))
    return float(value) if np.ndim(value) == 0 else value


def sig_gradient(e: np.ndarray, vectors: np.ndarray,
                 kappa: float) -> np.ndarray:
    """Gradient of `sig_objective` in e, with the same batch axes as e."""
    scores = np.einsum("...kd,...d->...k", vectors, e)
    weights = _sigmoid(-scores)
    return np.einsum("...k,...kd->...d", weights, vectors) - 2.0 * kappa * e


def _sig_ascent(vectors: np.ndarray, starts: np.ndarray, kappa: float,
                iterations: int) -> np.ndarray:
    """Gradient ascent on a batch of sigmoid problems, stepped together.

    `vectors` is (B, k, d) and `starts` is (B, d).  Each problem steps
    below 1/L for its own smoothness bound L <= sum ||a||^2 / 4 + 2 kappa,
    so problems with fewer attributes may be padded with zero rows: a
    zero row adds exactly 0.0 to the gradient and nothing to the bound.
    Raises ArithmeticError if any problem ends non-finite.
    """
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


def _sig_start(seed: int, dimension: int) -> np.ndarray:
    return 0.1 * np.random.default_rng(seed).standard_normal(dimension)


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
    start = _sig_start(seed, vectors.shape[1])
    return _sig_ascent(vectors[None], start[None], kappa, iterations)[0]


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

    For random attribute pairs (a, b), antipodal ones included, the
    singleton optimum is checked to align with the attribute vector and
    the pair optimum to lie in the conical hull of the two singleton
    optima.  The 3 * trials optimisations (a, b and {a, b} per trial,
    each seeded with seed + 3 t + j) run as one batched ascent, the
    singletons padded with a zero row.  Returns JSON-ready floats,
    deterministic per seed.
    """
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    if not 0 < kappa < float("inf"):
        raise ValueError("kappa must be positive and finite")
    rng = np.random.default_rng(seed)
    pairs, problems = [], []
    zero = np.zeros(dimension)
    for _ in range(trials):
        a = rng.standard_normal(dimension)
        b = rng.standard_normal(dimension)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        pairs.append((a, b))
        # rounded as an embedding of a and b holds them, so each optimum is
        # the one emb_sig_numeric finds on that embedding
        va, vb = (np.array([float(Fraction(x).limit_denominator(10**6))
                            for x in v]) for v in (a, b))
        problems += [(va, zero), (vb, zero), (va, vb)]
    starts = np.array([_sig_start(seed + i, dimension)
                       for i in range(len(problems))])
    optima = _sig_ascent(np.array(problems), starts, kappa, iterations)
    rows = []
    for t, (a, b) in enumerate(pairs):
        y_a, y_b, y_ab = optima[3 * t:3 * t + 3]
        rows.append({
            "cos_ab": round(float(a @ b), 12),
            "singleton_angle_a": round(angular_error(y_a, a), 12),
            "singleton_angle_b": round(angular_error(y_b, b), 12),
            "pair_cone_residual": round(cone_residual(y_ab, y_a, y_b), 12),
        })
    return {"kappa": kappa, "iterations": iterations, "seed": seed,
            "trials": rows}

"""Pooling and labelling evaluators for attribute-embedding strategies.

Every strategy pairs a pooling function (how an entity vector is built
from the context vectors of its attributes) with a labelling rule (when
an attribute is predicted from an entity vector).  All pooling and
labelling decisions here are exact and run in integers:
`scale` checks the embedding and puts each vector family
(context, output) over one common denominator, and pooling returns
integer numerators with a single denominator, built by a start step and
extend steps.  These steps are the library's only pooling: a sweep
pools each subset by one step from its parent, and `exact_rule` reads
the eight exact strategies' steps and labellers from one table built at
import.  `Fraction` appears only in the embedding itself and in
threshold text; loading an embedding parses each distinct rational
text once.  Normalised pooling never materialises the irrational unit
vector; it carries (sum, ||sum||^2) and bounds ||sum|| between
isqrt(||sum||^2) and one more, squaring only where the bounds do not
decide.

Each labelling rule is a labeller, bound once to the scaled embedding
and a tuple of heads with every denominator and threshold p/q
multiplied out; one call labels every head of a pooled value as a
bitmask.  A sweep checks its embedding once, in `scale`, and builds
every pooled value from it, so a labeller checks no pooled value.  The
dot, ReLU, distance and normalised labellers pack every head into one
integer: field i holds head i's signed threshold difference, made by
one packed product per coordinate plus packed constants, and the
fields' sign bits are read out together as the label mask.  A field is
w bits wide, a multiple of 16 that leaves two bits to spare over the
labeller's bound on the difference.  Only the order labeller compares
head by head.  A labeller keeps what it computed for the value last
labelled; a sweep keeps that state per wrong subset, and a record is
made only when it is read, by one `report` call, shared by the packed
labellers, which returns a `Mismatch` per wrong head: the head's row,
bound with it, inverts its field of the kept state to its dot product
or squared distance by one exact division.

Sigmoid-MLE pooling has no exact verdict (`exact_rule` refuses it); its
floating-point demonstrator is `embedsim.sigmoid`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd, isqrt, lcm
from operator import add, le, lshift, mul
from typing import Callable, NamedTuple, Sequence

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


# The print limit, CPython's default on the digits of an int string, for
# every numerator, denominator and recipe weight: a power of ten up to it
# is no longer than such an int may be, and a value below DIGIT_BOUND prints
MAX_DIGITS = 4300
DIGIT_BOUND = 10 ** MAX_DIGITS
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def parse_frac(x: str | int) -> Fraction:
    """An exact rational from a "p/q" string or an integer.

    A JSON float was already rounded to binary when it was read, and
    JSON `true` is the int 1, so both are refused, not converted.  A
    decimal string's exponent is refused above 4300: `Fraction` would
    compute the power of ten in full, and "1e-3000000" would not finish.
    A value whose numerator or denominator has more than 4300 digits is
    refused too, since neither `frac_str` nor a report could print it
    ("1e4300", "1e-4300"), and so is a zero denominator ("1/0").
    """
    if isinstance(x, str):
        exponent = _EXPONENT.search(x) if "e" in x or "E" in x else None
        if exponent:
            digits = exponent[1].replace("_", "").lstrip("0") or "0"
            if (len(digits) > len(str(MAX_DIGITS))
                    or int(digits) > MAX_DIGITS):
                raise ValueError(f"decimal exponent of magnitude above "
                                 f"{MAX_DIGITS} in {x[:40]!r}")
        # without an exponent, a string's numerator and denominator have
        # no more digits than the string, so only the other cases need
        # the digit test
        unbounded = exponent or len(x) > MAX_DIGITS
    elif type(x) is int:  # bool is an int subclass
        unbounded = True
    else:
        raise ValueError(f'expected a "p/q" string or an integer, got {x!r}')
    try:
        value = Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f'zero denominator in "{x[:40]}"') from None
    if (unbounded
            and max(abs(value.numerator), value.denominator) >= DIGIT_BOUND):
        shown = repr(x[:40]) if isinstance(x, str) else "an integer"
        raise ValueError(f"numerator or denominator of more than "
                         f"{MAX_DIGITS} digits in {shown}")
    return value


def vec_strs(v: Vec) -> list[str]:
    return [frac_str(x) for x in v]


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
        for name in self.context:
            self.lam.setdefault(name, Fraction(0))
            self.theta.setdefault(name, Fraction(0))
        _check(self)

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
        if not isinstance(doc, dict):
            raise ValueError("an embedding must be a JSON object")
        _known_keys(doc, ("dimension", "atoms", "provenance"))
        dim = doc.get("dimension")
        # bool is an int subclass; a float is refused, not truncated
        if type(dim) is not int:
            raise ValueError(f"dimension must be a JSON integer, got {dim!r}")
        atoms = doc.get("atoms")
        if (not isinstance(atoms, list)
                or not all(isinstance(entry, dict) for entry in atoms)):
            raise ValueError("atoms must be a JSON list of objects")
        context, output, lam, theta = {}, {}, {}, {}
        parsed = _Parsed()

        def value(item, key: str) -> Fraction:
            """The rational of `item`, field `key` of the current atom."""
            try:
                try:
                    return parsed[item]
                except TypeError:  # unhashable: parse_frac refuses it
                    return parse_frac(item)
            except ValueError as exc:
                raise ValueError(f"atom {name!r}: {key}: {exc}") from None

        def vector(key: str, items) -> Vec:
            # a string or an object would iterate as its characters or keys
            if not isinstance(items, list):
                raise ValueError(f"atom {name!r}: {key}: a vector must be a "
                                 f"JSON list, got {type(items).__name__}")
            try:
                return tuple(map(parsed.__getitem__, items))
            except (TypeError, ValueError):
                for k, x in enumerate(items):  # the first item refused
                    value(x, f"{key}[{k}]")
                raise

        for i, entry in enumerate(atoms):
            name = entry.get("name")
            if not isinstance(name, str):
                raise ValueError(f"the name of atom {i} must be a JSON string")
            if name in context:
                raise ValueError(f"duplicate atom {name!r}")
            _known_keys(entry, _ATOM_KEYS, f"atom {name!r}: ")
            if "context" not in entry:
                raise ValueError(f"atom {name!r}: context is missing")
            context[name] = vector("context", entry["context"])
            output[name] = (vector("output", entry["output"])
                            if "output" in entry else context[name])
            lam[name] = value(entry.get("lambda", "0"), "lambda")
            theta[name] = value(entry.get("theta", "0"), "theta")
        return cls(dim, context, output, lam, theta)


_ATOM_KEYS = ("name", "context", "output", "lambda", "theta")


def _known_keys(doc: dict, known: tuple[str, ...], where: str = "") -> None:
    """Refuse a misspelt key, which would load as the default it misses."""
    unknown = next((key for key in doc if key not in known), None)
    if unknown is not None:
        raise ValueError(f"{where}unknown key {unknown[:40]!r} "
                         f"(known: {', '.join(known)})")


class _Parsed(dict):
    """The rational of each text an embedding document holds, parsed by
    `parse_frac` on first lookup.  Only a string is stored: JSON true and
    1.0 equal the int 1 and hash like it, so an int key would let them
    through, and every value that is not a string is parsed (and, unless
    it is an int, refused) each time it is looked up."""

    def __missing__(self, item) -> Fraction:
        result = parse_frac(item)
        if type(item) is str:
            self[item] = result
        return result


def _check(emb: AttributeEmbedding) -> None:
    """Refuse a vector whose length is not the dimension, and a context
    atom without a lambda or with a missing or negative theta."""
    for name, vec in list(emb.context.items()) + list(emb.output.items()):
        if len(vec) != emb.dimension:
            raise DimensionMismatchError(
                f"vector for {name!r} has length {len(vec)}, "
                f"embedding dimension is {emb.dimension}")
    for name in emb.context:
        for kind, values in (("lambda", emb.lam), ("theta", emb.theta)):
            if name not in values:
                raise ValueError(f"no {kind} for {name!r}")
        if emb.theta[name] < 0:
            raise ValueError(f"negative distance radius for {name!r}")


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


def scale(emb: AttributeEmbedding) -> ScaledEmbedding:
    """The embedding over common denominators, checked for its sweep.

    A sweep scales once and hands the result to its pooling steps and
    its labeller.  The result is never stored on the embedding, whose
    fields may be reassigned, so the embedding is checked here as it is
    constructed (`_check`), and the labellers check no pooled value.
    """
    _check(emb)
    context, cden = _over_common_denominator(emb.context)
    output, oden = _over_common_denominator(emb.output)
    return ScaledEmbedding(emb.dimension, context, output, cden, oden,
                           dict(emb.lam), dict(emb.theta))


def _relu(v: IntVec) -> IntVec:
    return tuple(x if x > 0 else 0 for x in v)


# ------------------------------------------------------------------
# Pooling steps: start(v, cden) pools one context vector as integer
# numerators over one denominator, extend(pooled, one) adds another
# vector's start.  A set S pools to (sum, |S| cden) under average
# pooling, (product, cden^|S|) under Hadamard pooling and (maximum,
# cden) under max pooling.  Normalised pooling carries (sum, ||sum||^2),
# the sum over cden: the unit vector is generally irrational, so it is
# never built, and the labellers square through the normalisation.
# ------------------------------------------------------------------

def _start(v: IntVec, cden: int) -> Pooled:
    return v, cden


def _avg_extend(pooled: Pooled, one: Pooled) -> Pooled:
    return tuple(map(add, pooled[0], one[0])), pooled[1] + one[1]


def _norm_start(v: IntVec, cden: int) -> Pooled:
    return v, sum(map(mul, v, v))


def _norm_extend(pooled: Pooled, one: Pooled) -> Pooled:
    total = tuple(map(add, pooled[0], one[0]))
    return total, sum(map(mul, total, total))


def _had_extend(pooled: Pooled, one: Pooled) -> Pooled:
    return tuple(map(mul, pooled[0], one[0])), pooled[1] * one[1]


def _ord_extend(pooled: Pooled, one: Pooled) -> Pooled:
    return tuple(map(max, pooled[0], one[0])), one[1]


# ------------------------------------------------------------------
# Labellers: one per labelling rule, bound once to a scaled embedding
# and a tuple of heads, with every threshold multiplied out at binding
# ------------------------------------------------------------------

@dataclass(slots=True)
class Mismatch:
    """One wrong head of a swept subset, as a labeller reports it."""

    subset: tuple[str, ...]
    head: str
    expected: bool
    got: bool
    score: str

    def to_dict(self) -> dict:
        return {"subset": list(self.subset), "head": self.head,
                "expected": self.expected, "got": self.got,
                "score": self.score}


def _ratio(num: int, den: int) -> str:
    """`frac_str(Fraction(num, den))` for den > 0, without the Fraction.

    `_Labeller.report` writes this inline for each wrong head's score.
    """
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


# byte b -> the ASCII digit of its top bit
_TOP_BIT = bytes(b"01"[b >> 7] for b in range(256))


class _Pack(NamedTuple):
    """A labeller's head columns and constants packed at field width w.

    Field i spans bits [i w, (i + 1) w) and belongs to head i.
    `columns[k]` holds coordinate k of every head's column vector and
    `constants[r]` every head's r-th constant, each as a signed field.
    `signs` sets bit w - 1 of every field: added to a packed sum whose
    field values f_i all lie in [-2^(w-1), 2^(w-1)), it leaves field i
    holding f_i + 2^(w-1), whose top bit is set exactly when f_i >= 0.
    """

    width: int
    columns: list[int]
    constants: list[int]
    signs: int

    def top_bits(self, x: int, heads: int) -> int:
        """Bit i set exactly when field i of x has its top bit set.

        w is a multiple of 8, so field i's top bit is the top bit of byte
        (i + 1) w / 8 - 1; those bytes are sliced out of x's bytes, read
        as binary digits, and parsed.  Unlike a multiplication that
        gathers the bits, this costs time linear in the packed size.
        """
        step = self.width // 8
        digits = x.to_bytes(heads * step, "little")[step - 1::step]
        return int(digits.translate(_TOP_BIT)[::-1] or b"0", 2)


class _Labeller:
    """The label set of a pooled value over heads fixed at binding.

    `labels(pooled)` sets bit i when `heads[i]` is labelled, doing the
    per-subset work once for all heads, and keeps what it computed as
    `last`, an immutable tuple.  `report(subset, got, wrong, last)`
    returns one `Mismatch` per bit i set in `wrong`, in head order, for
    the pooled value that `last` was kept for, whose label set was
    `got`: head i, the label it should have had and the one it got, and
    as score text the exact quantity behind the decision.  A sweep
    keeps `last` per wrong subset and reports only the records that are
    read.  A
    packed labeller binds `rows[i]` = (head, coefficient, divisor,
    prefix, threshold text), and its `_scoring(last)` gives the value's
    packed fields x, their pack, a multiplier k, the score's denominator
    and the middle text every head shares: head i's score is
    (field i + coefficient k) / divisor, an exact division, so a report
    costs no further products.

    Each head has a column vector, `scales[i]` times `columns[i]` (the
    scale is multiplied in as the columns are packed, not coordinate by
    coordinate at binding), and may have constants, packed (`_Pack`) at
    a width w fitted to the pooled value: a multiple of 16 that holds
    the labeller's bound on every field's value with two bits to spare,
    so that no field of a packed sum carries into the next.
    """

    def __init__(self, sc: ScaledEmbedding, heads: Sequence[str],
                 columns: Sequence[IntVec],
                 constants: Sequence[Sequence[int]] = (),
                 scales: Sequence[int] | None = None):
        self.cden, self.oden = sc.cden, sc.oden
        self.last: tuple | None = None
        self.names = tuple(heads)
        self.columns = tuple(columns)
        self.constants = tuple(constants)
        self.heads = len(self.columns)
        self.scales = [1] * self.heads if scales is None else list(scales)
        self.reach = max((m * sum(map(abs, c))
                          for m, c in zip(self.scales, self.columns)),
                         default=0)
        self.packs: dict[int, _Pack] = {}

    def _pack(self, bound: int) -> _Pack:
        """The pack whose fields hold values up to `bound` in magnitude."""
        w = (bound.bit_length() + 17) // 16 * 16
        if w not in self.packs:
            shifts = range(0, w * self.heads, w)
            weights = [m << s for m, s in zip(self.scales, shifts)]
            self.packs[w] = _Pack(
                w, [sum(map(mul, column, weights))
                    for column in zip(*self.columns)],
                [sum(map(lshift, row, shifts)) for row in self.constants],
                sum(1 << s + w - 1 for s in shifts))
        return self.packs[w]

    def report(self, subset: tuple[str, ...], got: int, wrong: int,
               last: tuple) -> list[Mismatch]:
        x, pack, k, dden, middle = self._scoring(last)
        w, rows = pack.width, self.rows
        mask, half = (1 << w) - 1, 1 << w - 1
        out = []
        while wrong:
            low = wrong & -wrong
            i = low.bit_length() - 1
            wrong ^= low
            head, coeff, divisor, prefix, text = rows[i]
            score = ((x >> i * w & mask) - half + coeff * k) // divisor
            g = gcd(score, dden)
            label = (got & low) != 0
            out.append(Mismatch(
                subset, head, not label, label,
                f"{prefix}{score // g}/{dden // g}{middle}{text}"))
        return out


class DotLabeller(_Labeller):
    """e . output[b] >= lambda_b (the context vector of b when tied).

    For e = T/D, target X/x and lambda_b = p/q the rule reads
    q (T . X) - p x D >= 0, head b's field: the columns pack q X and a
    constant p x, which D multiplies.
    """

    def __init__(self, sc: ScaledEmbedding, heads: Sequence[str],
                 tied: bool = False):
        vectors, self.tden = ((sc.context, sc.cden) if tied
                              else (sc.output, sc.oden))
        lams = [sc.lam[b] for b in heads]
        pxs = [lam.numerator * self.tden for lam in lams]
        super().__init__(sc, heads, [vectors[b] for b in heads], [pxs],
                         [lam.denominator for lam in lams])
        self.preach = max(map(abs, pxs), default=0)
        self.rows = [(b, px, lam.denominator, "dot=",
                      f" lambda={frac_str(lam)}")
                     for b, lam, px in zip(heads, lams, pxs)]

    def labels(self, pooled: Pooled) -> int:
        total, den = pooled
        pack = self._pack(max(map(abs, total), default=0) * self.reach
                          + den * self.preach)
        x = sum(map(mul, total, pack.columns),
                pack.signs - den * pack.constants[0])
        self.last = den, x, pack
        return pack.top_bits(x, self.heads)

    def _scoring(self, last: tuple) -> tuple:
        den, x, pack = last
        return x, pack, den, den * self.tden, ""


class DistLabeller(_Labeller):
    """Euclidean distance from e to output[b] at most theta_b.

    For e = T/D, output O/o and theta_b = p/q, squared and multiplied
    out: (p o D)^2 - q^2 ||T o - O D||^2 >= 0.  With p2 = (p o)^2 and
    q2 = q^2, head b's field is
    2 o D (T . q2 O) + D^2 (p2 - q2 ||O||^2) - o^2 ||T||^2 q2: the
    columns pack q2 O, two constants pack p2 - q2 ||O||^2 and q2, and a
    subset costs one norm and one packed product.
    """

    def __init__(self, sc: ScaledEmbedding, heads: Sequence[str]):
        outputs = [sc.output[b] for b in heads]
        thetas = [sc.theta[b] for b in heads]
        q2s = [th.denominator ** 2 for th in thetas]
        p2s = [(th.numerator * sc.oden) ** 2 for th in thetas]
        offsets = [p2 - q2 * sum(map(mul, out, out))
                   for p2, q2, out in zip(p2s, q2s, outputs)]
        super().__init__(sc, heads, outputs, [offsets, q2s], q2s)
        self.offset_reach = max(map(abs, offsets), default=0)
        self.q2_reach = max(q2s, default=0)
        # (p2 D^2 - field) / q2 with both signs flipped: it divides exactly
        self.rows = [(b, -p2, -q2, "distsq=", f" theta={frac_str(th)}")
                     for b, p2, q2, th in zip(heads, p2s, q2s, thetas)]

    def labels(self, pooled: Pooled) -> int:
        total, den = pooled
        o = self.oden
        cross, dsq = 2 * o * den, den * den
        tsq = o * o * sum(map(mul, total, total))
        pack = self._pack(cross * max(map(abs, total), default=0) * self.reach
                          + dsq * self.offset_reach + tsq * self.q2_reach)
        offsets, q2s = pack.constants
        x = (cross * sum(map(mul, total, pack.columns))
             + dsq * offsets - tsq * q2s + pack.signs)
        self.last = den, x, pack
        return pack.top_bits(x, self.heads)

    def _scoring(self, last: tuple) -> tuple:
        den, x, pack = last
        return x, pack, den * den, (den * self.oden) ** 2, ""


class ReluLabeller(_Labeller):
    """ReLU(e) . context[b] >= 0 (tied vectors).

    ReLU commutes with the positive denominator, so for e = T/D the
    rule reads ReLU(T) . C >= 0, head b's field, ReLU(T) taken once.
    """

    def __init__(self, sc: ScaledEmbedding, heads: Sequence[str]):
        super().__init__(sc, heads, [sc.context[b] for b in heads])
        self.rows = [(b, 0, 1, "relu_dot=", "") for b in heads]

    def labels(self, pooled: Pooled) -> int:
        v = _relu(pooled[0])
        pack = self._pack(max(v, default=0) * self.reach)
        x = sum(map(mul, v, pack.columns), pack.signs)
        self.last = pooled[1], x, pack
        return pack.top_bits(x, self.heads)

    def _scoring(self, last: tuple) -> tuple:
        den, x, pack = last
        return x, pack, 0, den * self.cden, ""


class OrdLabeller(_Labeller):
    """context[b] below e in the component-wise product order.

    Max pooling stays over cden, the context vectors' own denominator,
    so the numerators are compared directly, head by head: a comparison
    stops at the first coordinate that decides it.  Every wrong head of
    a subset is scored by the same text, the pooled vector.
    """

    def __init__(self, sc: ScaledEmbedding, heads: Sequence[str]):
        super().__init__(sc, heads, [sc.context[b] for b in heads])

    def labels(self, pooled: Pooled) -> int:
        self.last = pooled
        return sum(1 << i for i, c in enumerate(self.columns)
                   if all(map(le, c, pooled[0])))

    def report(self, subset: tuple[str, ...], got: int, wrong: int,
               last: tuple) -> list[Mismatch]:
        total, den = last
        text = f"pooled={','.join(_ratio(x, den) for x in total)}"
        out = []
        for i, head in enumerate(self.names):
            if wrong >> i & 1:
                label = (got >> i & 1) != 0
                out.append(Mismatch(subset, head, not label, label, text))
        return out


def _ge_scaled_sqrt(lhs: int, coeff: int, q: int) -> bool:
    """Decide lhs >= coeff * sqrt(q) exactly (q >= 0), without radicals."""
    if coeff <= 0:
        # unless lhs >= 0, both sides are negative: squaring reverses them
        return lhs >= 0 or coeff * coeff * q >= lhs * lhs
    return lhs >= 0 and lhs * lhs >= coeff * coeff * q


class _NormLabeller(_Labeller):
    """A rule on the (sum, ||sum||^2) pair of normalised pooling, decided
    exactly: head b reads m (sum . O) >= c ||sum|| with m > 0, where the
    sum's denominator cancels.

    Column b packs m O and one constant packs every head's c.  With
    s = isqrt(||sum||^2), one packed product gives field b = m dot - c s,
    and subtracting the constants once more gives m dot - c (s + 1).  As
    s <= ||sum|| < s + 1, c ||sum|| lies between c s and c (s + 1), so
    the two sign bits decide every head on which they agree, and when
    ||sum||^2 is a perfect square the first decides every head.  A head
    whose m dot lies between the two bounds is decided by squaring
    (`_ge_scaled_sqrt`).  The zero pooled vector (empty set or cancelling
    sum) gets the label set `zero`, fixed at binding.  Subclasses give
    each head's m, c, score text and zero label.
    """

    def __init__(self, sc: ScaledEmbedding, heads: Sequence[str],
                 rows: Sequence[tuple[int, int, str, bool]]):
        super().__init__(sc, heads, [sc.output[b] for b in heads],
                         [[c for _, c, _, _ in rows]],
                         [m for m, _, _, _ in rows])
        self.creach = max((abs(c) for _, c, _, _ in rows), default=0)
        self.rows = [(b, c, m, "sum.out=", text)
                     for b, (m, c, text, _) in zip(heads, rows)]
        self.zero = sum(zero << i for i, (_, _, _, zero) in enumerate(rows))

    def labels(self, pooled: Pooled) -> int:
        v, normsq = pooled
        s = isqrt(normsq)
        pack = self._pack(max(map(abs, v), default=0) * self.reach
                          + (s + 1) * self.creach)
        cs = pack.constants[0]
        x = sum(map(mul, v, pack.columns), pack.signs - s * cs)
        self.last = normsq, s, x, pack
        if normsq == 0:
            return self.zero
        low = pack.top_bits(x, self.heads)  # m dot >= c s
        if s * s == normsq:
            return low
        high = pack.top_bits(x - cs, self.heads)  # m dot >= c (s + 1)
        labels, between = low & high, low ^ high
        w = pack.width
        mask, half = (1 << w) - 1, 1 << w - 1
        while between:
            bit = between & -between
            i = bit.bit_length() - 1
            between ^= bit
            c = self.rows[i][1]
            if _ge_scaled_sqrt((x >> i * w & mask) - half + c * s, c, normsq):
                labels |= bit
        return labels

    def _scoring(self, last: tuple) -> tuple:
        normsq, s, x, pack = last
        return (x, pack, s, self.cden * self.oden,
                f" normsq={_ratio(normsq, self.cden ** 2)}")


class DotOnNormLabeller(_NormLabeller):
    """Dot labelling on normalised pooling: sum . b >= lambda_b ||sum||.

    For b = O/o and lambda_b = p/q: q (sum . O) >= p o ||sum||.  The
    zero vector reduces to 0 >= lambda_b.
    """

    def __init__(self, sc: ScaledEmbedding, heads: Sequence[str]):
        lams = [sc.lam[b] for b in heads]
        super().__init__(sc, heads, [
            (lam.denominator, lam.numerator * sc.oden,
             f" lambda={frac_str(lam)}", lam <= 0) for lam in lams])


class DistOnNormLabeller(_NormLabeller):
    """Distance labelling on normalised pooling.

    For a unit pooled vector e, d(e, b) <= theta_b unfolds to
    2 (sum . b) >= (1 + ||b||^2 - theta_b^2) ||sum||; with b = O/o and
    theta_b = p/q both sides are multiplied by o^2 q^2.  The zero pooled
    vector compares ||b|| to theta_b.
    """

    def __init__(self, sc: ScaledEmbedding, heads: Sequence[str]):
        o2, rows = sc.oden ** 2, []
        for b in heads:
            out, th = sc.output[b], sc.theta[b]
            outsq = sum(map(mul, out, out))
            p2, q2 = th.numerator ** 2, th.denominator ** 2
            rows.append((2 * sc.oden * q2, (o2 + outsq) * q2 - p2 * o2,
                         f" outsq={_ratio(outsq, o2)} theta={frac_str(th)}",
                         outsq * q2 <= p2 * o2))
        super().__init__(sc, heads, rows)


# ------------------------------------------------------------------
# Exact strategy evaluation
# ------------------------------------------------------------------

class ExactRule(NamedTuple):
    """A subset's pooled value is start(v, cden) of one context vector,
    extended by start(v, cden) of each other one; labeller(scaled,
    heads) binds the labelling rule to the heads."""

    start: Callable[[IntVec, int], Pooled]
    extend: Callable[[Pooled, Pooled], Pooled]
    labeller: Callable[..., _Labeller]


# The one place an exact strategy is mapped to its functions.  Tied dot
# labelling compares against the context vectors.
_RULES = {
    AVG_DOT: ExactRule(_start, _avg_extend, DotLabeller),
    AVG_DIST: ExactRule(_start, _avg_extend, DistLabeller),
    NORM_DOT: ExactRule(_norm_start, _norm_extend, DotOnNormLabeller),
    NORM_DIST: ExactRule(_norm_start, _norm_extend, DistOnNormLabeller),
    AVG_RELU: ExactRule(_start, _avg_extend, ReluLabeller),
    HAD_DOT: ExactRule(_start, _had_extend, DotLabeller),
    HAD_DOT_TIED: ExactRule(_start, _had_extend,
                            partial(DotLabeller, tied=True)),
    ORD_ORD: ExactRule(_start, _ord_extend, OrdLabeller),
}


def exact_rule(strategy: StrategyId) -> ExactRule:
    """The pooling steps and the labeller of an exact strategy.

    Only the eight exact `StrategyId` constants have a rule; any other
    id, such as avg-dot with tied vectors, is refused rather than
    evaluated under a name that is not its own.
    """
    if strategy.pooling == "sig":
        raise ExactEvaluationError(
            "sigmoid pooling is numeric-only and has no exact verdict")
    if strategy not in _RULES:
        raise ExactEvaluationError(f"no exact rule for {strategy!r}")
    return _RULES[strategy]

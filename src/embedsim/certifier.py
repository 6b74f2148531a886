"""Impossibility certificates for embedding strategies.

Three certificate engines:

  * an exact rational linear program over the dot products M[a][b] and
    thresholds: feasible systems yield a witness matrix (realisable as
    an actual embedding), infeasible ones a Farkas combination that
    collapses the constraints to 0 >= positive;
  * the same machinery over Gram/cross/norm/radius variables for the
    averaged distance labelling (a necessary-condition relaxation: the
    positive-semidefiniteness of the Gram matrix is deliberately not
    encoded, so only infeasibility is conclusive);
  * a half-space closure search for normalised and sigmoid pooling:
    each pooled pair must sit strictly on a prescribed side of an
    abstract separating hyperplane while closed half-spaces absorb
    conical combinations, and exhaustive enumeration of the 3^|base|
    sign assignments shows no assignment survives.

The two builders take the KB, answer every query from its entailment
table, and emit rows of plain ints.  Strict inequalities enter as unit
margins: the systems are positively homogeneous in their variables, so a
solution with any positive slack can be scaled to one with slack 1, and
rows are cleared of the averaging denominators (a positive row scaling
that changes nothing about feasibility).  Replayed and hand-built rows
may still carry rationals; `_integer_row` is the one place any row is
oriented to >= and cleared of denominators, for the simplex and for the
witness and Farkas checks alike.

The exact simplex (`lp_feasible`) splits a system into connected blocks
of rows, two rows sharing a block when they share a variable; the
avg-dot system, for instance, falls apart into one block per head.  Each
block gets its own phase-1 tableau, and a pivot subtracts only at the
pivot row's non-zero positions.  Pivots, witness and Farkas multipliers
equal those of the single joint tableau: every column belongs to
exactly one block, so row operations never cross blocks, and Bland's
lowest-index entering and leaving choices restricted to a block, whose
columns keep the joint order, are the joint choices.

The tableau holds integers only.  A row is a list of ints over one
positive row denominator, its value being ints / denominator; it starts
as the oriented constraint scaled by the lcm of its denominators.  The
entering column is the first reduced cost with a positive numerator,
and the ratio test compares rhs / entry across rows by cross-multiplying
(a row's denominator cancels in its own ratio).  A pivot keeps the
pivot row's ints and makes the pivot entry its denominator; every other
row with entering entry f becomes (T pe - f P) / (dt pe), reduced by its
gcd.  Each row stands for the same rationals as in a `Fraction` tableau,
and every choice depends only on signs and exact comparisons, so the
choices, and with them the returned values, are those of the `Fraction`
tableau (`tests/references.py` keeps one as the reference).  `Fraction`s
are built only for the witness, the phase-1 objective and the
multipliers.  The witness re-check `verify_witness` also runs in
integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .fixtures import fixture
from .logic import (CapExceededError, KnowledgeBase, StratifiedKB, conjoin,
                    entailment_table, entails, kb_digest, nm_consequence_rank)
from .strategies import (AVG_DOT, AttributeEmbedding, StrategyId, frac_str,
                         parse_frac, strategy_from_name)
from .verifier import subset_queries, verify_monotonic

Query = tuple[tuple[str, ...], str]

GENERIC_ATOM_CAP = 6


# ------------------------------------------------------------------
# Linear systems
# ------------------------------------------------------------------

@dataclass(frozen=True)
class Constraint:
    # ints from the builders; replayed and hand-built rows carry Fractions
    coeffs: tuple[int | Fraction, ...]
    relation: str  # ">=" or "<="
    rhs: int | Fraction
    label: str

    def to_dict(self) -> dict:
        return {"coeffs": [frac_str(c) for c in self.coeffs],
                "relation": self.relation, "rhs": frac_str(self.rhs),
                "label": self.label}

    @classmethod
    def from_dict(cls, doc: dict) -> "Constraint":
        return cls(tuple(parse_frac(c) for c in doc["coeffs"]),
                   doc["relation"], parse_frac(doc["rhs"]), doc["label"])


@dataclass(frozen=True)
class LinearSystem:
    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    queries: tuple[dict, ...] = ()  # provenance: the encoded KB answers

    def to_dict(self) -> dict:
        return {"variables": list(self.variables),
                "constraints": [c.to_dict() for c in self.constraints],
                "queries": list(self.queries)}

    @classmethod
    def from_dict(cls, doc: dict) -> "LinearSystem":
        return cls(tuple(doc["variables"]),
                   tuple(Constraint.from_dict(c) for c in doc["constraints"]),
                   tuple(doc.get("queries", ())))


def _linear_system(kb: KnowledgeBase, cap: int | None,
                   queries: Iterable[Query] | None, encode) -> LinearSystem:
    """One integer constraint per query, variables numbered in first-use order.

    Each query is answered from the KB's entailment table, read once
    and indexed by subset mask.  `encode(subset, head, captured, add)`
    calls `add(variable, coefficient)` for the row's terms and returns
    the row's (relation, rhs).
    """
    signature = kb.signature
    if queries is None:
        queries = subset_queries(signature,
                                 len(signature) if cap is None else cap)
    table = entailment_table(kb)
    index: dict[str, int] = {}
    rows: list[tuple[dict[int, int], str, int, str]] = []
    encoded: list[dict] = []
    for subset, head in queries:
        captured = bool(table[signature.mask(subset)] & signature.bit(head))
        coeffs: dict[int, int] = {}

        def add(name: str, value: int) -> None:
            j = index.setdefault(name, len(index))
            coeffs[j] = coeffs.get(j, 0) + value

        relation, rhs = encode(subset, head, captured, add)
        word = "capture" if captured else "reject"
        rows.append((coeffs, relation, rhs,
                     f"{word} {'&'.join(subset)} -> {head}"))
        encoded.append({"subset": list(subset), "head": head,
                        "captured": captured})
    width = len(index)
    constraints = tuple(
        Constraint(tuple(coeffs.get(j, 0) for j in range(width)),
                   rel, rhs, label)
        for coeffs, rel, rhs, label in rows
    )
    return LinearSystem(tuple(index), constraints, tuple(encoded))


def build_avg_dot_system(kb: KnowledgeBase, cap: int | None = None,
                         queries: Iterable[Query] | None = None
                         ) -> LinearSystem:
    """Constraints forcing averaged dot labelling to mirror the KB.

    Per query (S, b): sum of M[a][b] over S at least |S| lambda_b when
    the rule must be captured, at most |S| (lambda_b - 1) when it must
    be rejected (the unit-margin slack form of the strict inequality,
    cleared of the 1/|S| averaging denominator).  Every coefficient and
    rhs is an int.
    """
    def encode(subset, head, captured, add):
        n = len(subset)
        for a in subset:
            add(f"M[{a}][{head}]", 1)
        add(f"lam[{head}]", -n)
        return (">=", 0) if captured else ("<=", -n)

    return _linear_system(kb, cap, queries, encode)


def build_avg_dist_relaxation(kb: KnowledgeBase, cap: int | None = None,
                              queries: Iterable[Query] | None = None
                              ) -> LinearSystem:
    """Squared-distance constraints, linear in Gram-style variables.

    d^2(avg(S), out_b) expands over G[a][a'] = a.a', c[b][a] = out_b.a,
    nsq[b] = ||out_b||^2 and tsq[b] = theta_b^2; rows are cleared of the
    1/|S|^2 denominator, so every coefficient and rhs is an int.
    Dropping the PSD requirement on G makes this a relaxation:
    infeasibility still rules the strategy out, feasibility proves
    nothing.
    """
    index = kb.signature.index

    def encode(subset, head, captured, add):
        n = len(subset)
        for a in subset:
            add(f"G[{a},{a}]", 1)
        for a, a2 in itertools.combinations(subset, 2):
            lo, hi = sorted((a, a2), key=index)
            add(f"G[{lo},{hi}]", 2)
        for a in subset:
            add(f"c[{head}][{a}]", -2 * n)
        add(f"nsq[{head}]", n * n)
        add(f"tsq[{head}]", -n * n)
        return ("<=", 0) if captured else (">=", n * n)

    return _linear_system(kb, cap, queries, encode)


# ------------------------------------------------------------------
# Exact phase-1 simplex (Bland's rule) with Farkas extraction
# ------------------------------------------------------------------

@dataclass
class FarkasCertificate:
    """Non-negative multipliers combining the constraints into 0 >= gap.

    Multipliers apply to the constraints oriented as >= (a <= row is
    negated first); they are scaled to the smallest integer vector.
    """

    multipliers: tuple[Fraction, ...]
    gap: Fraction


@dataclass
class FeasibilityOutcome:
    feasible: bool
    witness: dict[str, Fraction] | None = None
    farkas: FarkasCertificate | None = None


IntRow = tuple[tuple[int, ...], int, int]


def _integer_row(constraint: Constraint) -> IntRow:
    """The >=-oriented constraint as integers (coeffs, rhs, den).

    `den` is the lcm of the row's denominators, and the oriented row
    reads coeffs / den >= rhs / den; a builder's int row has den 1.
    """
    sign = 1 if constraint.relation == ">=" else -1
    den = lcm(constraint.rhs.denominator,
              *(c.denominator for c in constraint.coeffs if c))
    coeffs = tuple(sign * c.numerator * (den // c.denominator) if c else 0
                   for c in constraint.coeffs)
    rhs = sign * constraint.rhs.numerator * (den // constraint.rhs.denominator)
    return coeffs, rhs, den


def combine_constraints(system: LinearSystem,
                        multipliers: Sequence[Fraction],
                        rows: Iterable[int] | None = None
                        ) -> tuple[tuple[Fraction, ...], Fraction]:
    """Non-negative combination of (>=-oriented) rows: returns (coeffs, rhs)."""
    indices = range(len(system.constraints)) if rows is None else rows
    total = [Fraction(0)] * len(system.variables)
    rhs = Fraction(0)
    for i in indices:
        y = multipliers[i]
        if y < 0:
            raise ValueError(f"negative multiplier at row {i}")
        if y == 0:
            continue
        coeffs, d, den = _integer_row(system.constraints[i])
        weight = Fraction(y, den)
        for j, c in enumerate(coeffs):
            if c:
                total[j] += weight * c
        rhs += weight * d
    return tuple(total), rhs


def verify_farkas(system: LinearSystem,
                  multipliers: Sequence[Fraction]) -> Fraction:
    """Exact recombination check; returns the positive gap or raises."""
    if len(multipliers) != len(system.constraints):
        raise ValueError("multiplier count does not match constraint count")
    combined, rhs = combine_constraints(system, multipliers)
    if any(c != 0 for c in combined):
        raise ValueError("combination does not cancel the variables")
    if rhs <= 0:
        raise ValueError("combination does not produce a positive gap")
    return rhs


def verify_witness(system: LinearSystem,
                   witness: dict[str, Fraction]) -> bool:
    """Exact re-check of every constraint, in integers.

    The witness is scaled once to its common denominator D: an integer
    row coeffs >= rhs holds when the sum of c_j (D x_j) over its
    non-zero coefficients is at least rhs D.
    """
    values = [witness.get(v, 0) for v in system.variables]
    scale = lcm(*(x.denominator for x in values))
    scaled = [x.numerator * (scale // x.denominator) for x in values]
    for con in system.constraints:
        coeffs, rhs, _ = _integer_row(con)
        if sum(c * x for c, x in zip(coeffs, scaled) if c) < rhs * scale:
            return False
    return True


def _normalize_multipliers(mult: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The multipliers scaled by a positive factor to coprime integers."""
    scale = lcm(*(y.denominator for y in mult))
    ints = [y.numerator * (scale // y.denominator) for y in mult]
    g = gcd(*ints) or 1
    return tuple(Fraction(v // g) for v in ints)


def _row_blocks(rows: Sequence[tuple]) -> list[list[int]]:
    """Row indices grouped into connected components, in first-row order.

    Each row's first item is its coefficient sequence.  Two rows share
    a component when both have a non-zero coefficient on the same
    variable; a row with no non-zero coefficient is alone.
    """
    parent = list(range(len(rows)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first_row: dict[int, int] = {}
    for i, row in enumerate(rows):
        for j, c in enumerate(row[0]):
            if c:
                root, other = find(i), find(first_row.setdefault(j, i))
                if root != other:
                    parent[max(root, other)] = min(root, other)
    blocks: dict[int, list[int]] = {}
    for i in range(len(rows)):
        blocks.setdefault(find(i), []).append(i)
    return list(blocks.values())


def _eliminate(row: list[int], den: int, prow: list[int], pe: int,
               support: list[int], enter: int) -> tuple[list[int], int]:
    """row/den minus its entering-column multiple of the pivot row prow/pe.

    With f = row[enter] the result is (row pe - f prow) / (den pe); the
    common factor gcd(f, pe) is cancelled first and the gcd of the whole
    row last, so the returned ints and denominator are coprime.
    """
    f = row[enter]
    h = gcd(f, pe)
    a, b = pe // h, f // h
    if a != 1:
        row = [x * a for x in row]
        den *= a
    for j in support:
        row[j] -= b * prow[j]
    g = gcd(den, *row)
    if g > 1:
        row = [x // g for x in row]
        den //= g
    return row, den


def _phase1_block(rows: Sequence[IntRow], block: Sequence[int]
                  ) -> tuple[Fraction, dict[int, Fraction], list[Fraction]]:
    """Phase-1 simplex on one connected block of rows, in integers.

    The columns are the block's own columns of the joint tableau, in
    the joint order: p then q for the block's variables, then the
    rows' slacks, then the artificials of the rows whose rhs is
    non-negative.  Each tableau row is a list of ints over one positive
    denominator; the reduced-cost row likewise.  Returns the phase-1
    objective, the value of every block variable (p - q) and the raw
    dual multiplier of every row.
    """
    variables = sorted({j for i in block for j, c in enumerate(rows[i][0])
                        if c})
    nv = len(variables)
    nr = len(block)
    flipped = [rows[i][1] < 0 for i in block]
    art_col: list[int | None] = [None] * nr
    ncols = 2 * nv + nr
    for r in range(nr):
        if not flipped[r]:
            art_col[r] = ncols
            ncols += 1

    tableau: list[list[int]] = []
    dens: list[int] = []
    basis: list[int] = []
    for r, i in enumerate(block):
        coeffs, d, den = rows[i]
        row = [0] * (ncols + 1)
        sign = -1 if flipped[r] else 1
        for k, j in enumerate(variables):
            row[k] = sign * coeffs[j]
            row[nv + k] = -sign * coeffs[j]
        row[2 * nv + r] = -sign * den
        row[-1] = sign * d
        if flipped[r]:
            basis.append(2 * nv + r)
        else:
            row[art_col[r]] = den
            basis.append(art_col[r])
        tableau.append(row)
        dens.append(den)

    # reduced-cost row z_j = (basis costs) . column_j - cost_j, plus
    # the objective value, over zden; artificials cost 1, all else 0
    zden = lcm(*(dens[r] for r in range(nr) if art_col[r] is not None))
    z = [0] * (ncols + 1)
    for r in range(nr):
        if art_col[r] is not None:
            scale = zden // dens[r]
            for j, x in enumerate(tableau[r]):
                if x:
                    z[j] += scale * x
            z[art_col[r]] -= zden

    while True:
        enter = next((j for j in range(ncols) if z[j] > 0), None)
        if enter is None:
            break
        # minimum ratio rhs / entry: a row's denominator cancels, so
        # ratios compare by cross-multiplying the ints
        leave = None
        for r in range(nr):
            coeff = tableau[r][enter]
            if coeff > 0:
                rhs = tableau[r][-1]
                if leave is None:
                    leave, best_rhs, best_coeff = r, rhs, coeff
                    continue
                cmp = rhs * best_coeff - best_rhs * coeff
                if cmp < 0 or (cmp == 0 and basis[r] < basis[leave]):
                    leave, best_rhs, best_coeff = r, rhs, coeff
        if leave is None:
            raise AssertionError("phase-1 objective cannot be unbounded")
        # dividing the pivot row by its entry keeps the ints and makes
        # the entry the denominator
        prow = tableau[leave]
        g = gcd(*prow)
        if g > 1:
            prow = tableau[leave] = [x // g for x in prow]
        pe = dens[leave] = prow[enter]
        support = [j for j, x in enumerate(prow) if x]
        for r in range(nr):
            if r != leave and tableau[r][enter]:
                tableau[r], dens[r] = _eliminate(tableau[r], dens[r], prow,
                                                 pe, support, enter)
        if z[enter]:
            z, zden = _eliminate(z, zden, prow, pe, support, enter)
        basis[leave] = enter

    values = [(0, 1)] * ncols
    for r in range(nr):
        values[basis[r]] = (tableau[r][-1], dens[r])
    solution = {}
    for k, j in enumerate(variables):
        (pn, pd), (qn, qd) = values[k], values[nv + k]
        solution[j] = Fraction(pn * qd - qn * pd, pd * qd)
    mult = [Fraction(-z[2 * nv + r], zden) if flipped[r]
            else Fraction(z[art_col[r]] + zden, zden)
            for r in range(nr)]
    return Fraction(z[-1], zden), solution, mult


def lp_feasible(system: LinearSystem) -> FeasibilityOutcome:
    """Exact phase-1 simplex with Bland's anti-cycling pivot rule.

    Free variables are split into non-negative pairs (p - q).  The rows
    are split into connected blocks (rows sharing a variable), each
    solved on its own tableau whose pivots touch only the pivot row's
    non-zero positions.  The result equals that of one joint tableau
    over all rows, pivot for pivot: every column belongs to exactly one
    block, so row operations never cross blocks, and Bland's
    lowest-index choices restricted to a block, kept in the joint
    column order, are the joint choices.

    Each tableau row is ints over one positive row denominator, its
    value being ints / denominator (integer-preserving elimination,
    Edmonds 1967), and the ratio test cross-multiplies ints, since a
    row's denominator cancels in rhs / entry.  The rows stand for the
    rationals of a `Fraction` tableau and every choice reads only signs
    and exact comparisons, so pivots, witness and multipliers are the
    `Fraction` tableau's.

    The multipliers of all blocks are normalised together, and every
    returned witness or Farkas certificate is re-verified in exact
    arithmetic on the full system before being handed back.
    """
    rows = [_integer_row(c) for c in system.constraints]
    blocks = _row_blocks(rows)
    solved = [_phase1_block(rows, block) for block in blocks]

    if all(objective == 0 for objective, _, _ in solved):
        values: dict[int, Fraction] = {}
        for _, solution, _ in solved:
            values.update(solution)
        witness = {name: values.get(j, Fraction(0))
                   for j, name in enumerate(system.variables)}
        if not verify_witness(system, witness):
            raise AssertionError("simplex witness failed exact re-check")
        return FeasibilityOutcome(True, witness=witness)

    # infeasible: duals from the reduced costs at the initial basis columns
    mult = [Fraction(0)] * len(rows)
    for block, (_, _, block_mult) in zip(blocks, solved):
        for i, y in zip(block, block_mult):
            mult[i] = y
    multipliers = _normalize_multipliers(mult)
    gap = verify_farkas(system, multipliers)
    return FeasibilityOutcome(False,
                              farkas=FarkasCertificate(multipliers, gap))


# ------------------------------------------------------------------
# Realizing feasible dot systems as embeddings
# ------------------------------------------------------------------

def realize_from_matrix(matrix: dict[tuple[str, str], Fraction],
                        lam: dict[str, Fraction],
                        atoms: Sequence[str]) -> AttributeEmbedding:
    """Embedding with context = standard basis and output columns = matrix.

    With context vectors e_a, the pooled average of S dotted with the
    output vector of b is exactly the average of matrix[(a, b)] over S,
    so a feasible dot system transfers verbatim to the embedding.
    Entries absent from the matrix default to 0.
    """
    atoms = tuple(atoms)
    n = len(atoms)
    context = {
        a: tuple(Fraction(1 if i == j else 0) for j in range(n))
        for i, a in enumerate(atoms)
    }
    output = {
        b: tuple(matrix.get((a, b), Fraction(0)) for a in atoms)
        for b in atoms
    }
    return AttributeEmbedding(
        dimension=n,
        context=context,
        output=output,
        lam={b: lam.get(b, Fraction(0)) for b in atoms},
        theta={b: Fraction(0) for b in atoms},
    )


def realize_from_witness(system: LinearSystem,
                         outcome: FeasibilityOutcome,
                         atoms: Sequence[str]) -> AttributeEmbedding:
    if not outcome.feasible or outcome.witness is None:
        raise ValueError("cannot realise an embedding from an infeasible system")
    matrix: dict[tuple[str, str], Fraction] = {}
    lam: dict[str, Fraction] = {}
    for name, value in outcome.witness.items():
        # atom names never contain brackets, so the split is unambiguous
        if name.startswith("M["):
            a, b = name[2:-1].split("][")
            matrix[(a, b)] = value
        elif name.startswith("lam["):
            lam[name[4:-1]] = value
    return realize_from_matrix(matrix, lam, atoms)


# ------------------------------------------------------------------
# Conical-closure case analysis
# ------------------------------------------------------------------

SIDES = ("negative", "zero", "positive")


@dataclass(frozen=True)
class PairRequirement:
    """The pooled pair point lies strictly on `side` of the hyperplane."""

    pair: tuple[str, str]
    side: str  # "positive" | "negative"

    def to_dict(self) -> dict:
        return {"pair": list(self.pair), "side": self.side}


@dataclass(frozen=True)
class ConicalRequirement:
    base: tuple[str, ...]
    requirements: tuple[PairRequirement, ...]

    def __post_init__(self):
        for req in self.requirements:
            u, v = req.pair
            if u == v or u not in self.base or v not in self.base:
                raise ValueError(f"degenerate pair requirement {req}")
            if req.side not in ("positive", "negative"):
                raise ValueError(f"bad side {req.side!r}")

    def to_dict(self) -> dict:
        return {"base": list(self.base),
                "requirements": [r.to_dict() for r in self.requirements]}

    @classmethod
    def from_dict(cls, doc: dict) -> "ConicalRequirement":
        return cls(tuple(doc["base"]),
                   tuple(PairRequirement(tuple(r["pair"]), r["side"])
                         for r in doc["requirements"]))


@dataclass
class ClosureOutcome:
    consistent: bool
    total: int
    satisfying: dict[str, str] | None = None
    refutations: list[dict] = field(default_factory=list)


def _violated(req: PairRequirement, sides: dict[str, str]) -> bool:
    # a strictly negative pooled point is impossible when both members
    # sit in the closed positive half-space (conical combinations stay
    # there), so at least one member must be strictly negative; dually
    # for strictly positive pooled points.
    u, v = req.pair
    if req.side == "negative":
        return sides[u] != "negative" and sides[v] != "negative"
    return sides[u] != "positive" and sides[v] != "positive"


def conical_closure_certify(requirement: ConicalRequirement) -> ClosureOutcome:
    """Exhaustive sign-assignment search over the base vectors.

    Every embedding places each base vector strictly below, on, or
    strictly above the abstract hyperplane; if all 3^|base| assignments
    violate some pair requirement, no embedding meets them all.
    """
    base = requirement.base
    total = 0
    refutations = []
    for combo in itertools.product(SIDES, repeat=len(base)):
        total += 1
        sides = dict(zip(base, combo))
        hit = next((r for r in requirement.requirements
                    if _violated(r, sides)), None)
        if hit is None:
            return ClosureOutcome(True, total, satisfying=sides)
        refutations.append({"assignment": sides, "violated": hit.to_dict()})
    return ClosureOutcome(False, total, refutations=refutations)


def derive_pair_requirements(kb: KnowledgeBase, base: Sequence[str],
                             head_neg: str, head_pos: str
                             ) -> tuple[ConicalRequirement, list[dict]]:
    """Pair requirements read off the entailment pattern of two heads.

    The abstract hyperplane separates the two heads' acceptance regions;
    a pair entailing head_neg but not head_pos must pool strictly on the
    negative side, and vice versa.  Returns the requirement plus the
    oracle facts backing each side assignment.
    """
    requirements = []
    facts = []
    for u, v in itertools.combinations(base, 2):
        to_neg = entails(kb, (u, v), head_neg)
        to_pos = entails(kb, (u, v), head_pos)
        if to_neg and not to_pos:
            requirements.append(PairRequirement((u, v), "negative"))
        elif to_pos and not to_neg:
            requirements.append(PairRequirement((u, v), "positive"))
        else:
            continue
        facts.append({"pair": [u, v],
                      f"entails_{head_neg}": to_neg,
                      f"entails_{head_pos}": to_pos})
    return ConicalRequirement(tuple(base), tuple(requirements)), facts


# ------------------------------------------------------------------
# Certificates
# ------------------------------------------------------------------

@dataclass
class Certificate:
    strategy: str
    fixture: str | None
    mode: str  # "monotonic" | "non-monotonic"
    verdict: str  # "simulable" | "not-simulable" | "inconclusive"
    evidence: dict
    assumptions: list[str]

    def to_dict(self) -> dict:
        return {"strategy": self.strategy, "fixture": self.fixture,
                "mode": self.mode, "verdict": self.verdict,
                "evidence": self.evidence, "assumptions": self.assumptions}


CONICAL_LEMMA = ("closed half-spaces through the origin are closed under "
                 "conical combination, and each pooled pair embedding is a "
                 "conical combination of its two singleton embeddings")
ZERO_POOL_LEMMA = ("an entity with no attributes pools to the zero vector, "
                   "so a head that must not be predicted from it forces a "
                   "strictly positive dot threshold")
SINGLETON_RAY_LEMMA = ("a singleton sigmoid-MLE embedding is a strictly "
                       "positive multiple of its attribute vector")
ANGLE_LEMMA = ("a shared auxiliary head with positive threshold forces both "
               "members of a pair to make a positive angle with its output "
               "vector, hence the pair is not antipodal and its pooled "
               "embedding is a conical combination of the singleton ones")
SPHERE_DOT_LEMMA = ("on unit vectors, distance labelling with radius theta "
                    "equals dot labelling with threshold "
                    "(1 + ||out||^2 - theta^2) / 2, so the dot-labelling "
                    "certificate transfers")
HYPERPLANE_LEMMA = ("some hyperplane separates the pooled pairs that must "
                    "be inside the first head's sphere but outside the "
                    "second's from those that must be placed the other way "
                    "around (through the intersection of the sphere "
                    "boundaries when they meet, between the spheres "
                    "otherwise)")


def _ce1_queries() -> list[Query]:
    return [(("a", "b"), "x"), (("c", "d"), "x"),
            (("a", "c"), "x"), (("b", "d"), "x")]


def _ce2_queries() -> list[Query]:
    pairs = [("a", "b"), ("c", "d"), ("a", "c"), ("b", "d")]
    return [(p, "x") for p in pairs] + [(p, "y") for p in pairs]


def _lp_evidence(system: LinearSystem, outcome: FeasibilityOutcome,
                 relaxation: bool = False) -> dict:
    """Serialised witness or Farkas evidence for a solved system."""
    if outcome.feasible:
        return {"kind": "witness", "system": system.to_dict(),
                "assignment": {k: frac_str(v)
                               for k, v in outcome.witness.items()}}
    return {"kind": "farkas", "relaxation": relaxation,
            "system": system.to_dict(),
            "multipliers": [frac_str(y) for y in outcome.farkas.multipliers],
            "gap": frac_str(outcome.farkas.gap)}


def _lp_certificate(strategy: StrategyId, fixture_name: str,
                    build, queries: list[Query],
                    relaxation: bool) -> Certificate:
    system = build(fixture(fixture_name), queries=queries)
    outcome = lp_feasible(system)
    # a feasible query-restricted system says nothing about the
    # remaining queries, so no simulability claim is made
    verdict = "inconclusive" if outcome.feasible else "not-simulable"
    return Certificate(strategy.name, fixture_name, "monotonic", verdict,
                       _lp_evidence(system, outcome, relaxation), [])


def _closure_certificate(strategy: StrategyId, fixture_name: str) -> Certificate:
    kb = fixture(fixture_name)
    base = ("a", "b", "c", "d")
    heads = ("x", "y")
    requirement, pair_facts = derive_pair_requirements(kb, base, *heads)
    outcome = conical_closure_certify(requirement)
    if outcome.consistent:
        raise AssertionError("closure search unexpectedly found an assignment")
    threshold_facts = [
        {"head": h, "follows_from_empty_antecedent": entails(kb, (), h)}
        for h in heads
    ]
    assumptions = [ZERO_POOL_LEMMA, CONICAL_LEMMA]
    if strategy.pooling == "sig":
        z_facts = []
        for u, v in itertools.combinations(base, 2):
            z = f"z_{u}{v}"
            z_facts.append({
                "auxiliary_head": z,
                f"entails_from_{u}": entails(kb, (u,), z),
                f"entails_from_{v}": entails(kb, (v,), z),
                "follows_from_empty_antecedent": entails(kb, (), z),
            })
        assumptions = [ZERO_POOL_LEMMA, SINGLETON_RAY_LEMMA, ANGLE_LEMMA,
                       CONICAL_LEMMA]
        extra = {"auxiliary_head_facts": z_facts}
    else:
        extra = {}
    if strategy.labelling == "dist":
        assumptions.append(SPHERE_DOT_LEMMA if strategy.pooling == "norm"
                           else HYPERPLANE_LEMMA)
    evidence = {
        "kind": "closure",
        "heads": list(heads),
        "requirement": requirement.to_dict(),
        "pair_facts": pair_facts,
        "threshold_facts": threshold_facts,
        "outcome": {"consistent": False, "total": outcome.total,
                    "refuted": len(outcome.refutations)},
        "refutations": outcome.refutations,
        **extra,
    }
    return Certificate(strategy.name, fixture_name, "monotonic",
                       "not-simulable", evidence, assumptions)


def _symmetry_certificate(strategy: StrategyId, fixture_name: str) -> Certificate:
    kb = fixture(fixture_name)
    found = None
    for u in kb.signature.atoms:
        for w in kb.signature.atoms:
            if u != w and entails(kb, (u,), w) and not entails(kb, (w,), u):
                found = (u, w)
                break
        if found:
            break
    if found is None:
        raise ValueError(
            f"fixture {fixture_name} has no one-way singleton entailment")
    u, w = found
    evidence = {
        "kind": "symmetry",
        "must_capture": {"subset": [u], "head": w},
        "must_reject": {"subset": [w], "head": u},
        "argument": ("pooling a singleton returns its own vector and tied "
                     "dot labelling compares the same two vectors either "
                     "way round, so the two requirements contradict each "
                     "other"),
    }
    return Certificate(strategy.name, fixture_name, "monotonic",
                       "not-simulable", evidence, [])


def _order_certificate(strategy: StrategyId, fixture_name: str) -> Certificate:
    theta = fixture(fixture_name)
    cap_fact = nm_consequence_rank(theta, ("a",), "x")
    rej_fact = nm_consequence_rank(theta, ("a", "b"), "x")
    if not cap_fact or rej_fact:
        raise AssertionError("order fixture facts changed")
    evidence = {
        "kind": "order-argument",
        "must_capture": {"subset": ["a"], "head": "x"},
        "must_reject": {"subset": ["a", "b"], "head": "x"},
        "argument": ("the pooled vector of a subset never exceeds the pooled "
                     "vector of a superset under component-wise max, and the "
                     "product-order labelling is monotone in the pooled "
                     "vector, so a label kept on {a} cannot be dropped on "
                     "{a, b}"),
    }
    return Certificate(strategy.name, fixture_name, "non-monotonic",
                       "not-simulable", evidence, [])


# per strategy: the fixtures it has a failure certificate for (the first
# is the default) and the builder of that certificate
_CERTIFIERS: dict[str, tuple[tuple[str, ...],
                             Callable[[StrategyId, str], Certificate]]] = {
    "avg-dot": (("CE1",), lambda s, f: _lp_certificate(
        s, f, build_avg_dot_system, _ce1_queries(), relaxation=False)),
    "avg-dist": (("CE2",), lambda s, f: _lp_certificate(
        s, f, build_avg_dist_relaxation, _ce2_queries(), relaxation=True)),
    "norm-dot": (("CE3",), _closure_certificate),
    "norm-dist": (("CE3",), _closure_certificate),
    "sig-dot": (("CE4",), _closure_certificate),
    "sig-dist": (("CE4",), _closure_certificate),
    "had-dot-tied": (("MOTHER", "CE4"), _symmetry_certificate),
    "ord-ord": (("ORD-NM",), _order_certificate),
}


def certify_strategy_failure(strategy: StrategyId | str,
                             fixture_name: str | None = None) -> Certificate:
    """Certificate that the strategy cannot simulate the named fixture."""
    if isinstance(strategy, str):
        strategy = strategy_from_name(strategy)
    if strategy.name not in _CERTIFIERS:
        raise ValueError(f"no failure fixture for strategy {strategy.name}")
    fixtures, build = _CERTIFIERS[strategy.name]
    if fixture_name is None:
        fixture_name = fixtures[0]
    if fixture_name not in fixtures:
        raise ValueError(
            f"unknown fixture {fixture_name!r} for strategy {strategy.name}")
    return build(strategy, fixture_name)


def _encoded_queries(ev: dict) -> list[tuple[tuple[str, ...], str, bool]]:
    """The (subset, head, captured) facts a certificate's evidence rests on."""
    if "system" in ev:
        return [(tuple(q["subset"]), q["head"], q["captured"])
                for q in ev["system"]["queries"]]
    if ev["kind"] == "closure":
        return [(tuple(f["pair"]), h, f[f"entails_{h}"])
                for f in ev["pair_facts"]
                for h in ev["heads"]]
    if ev["kind"] == "symmetry":
        cap, rej = ev["must_capture"], ev["must_reject"]
        return [(tuple(cap["subset"]), cap["head"], True),
                (tuple(rej["subset"]), rej["head"], False)]
    return []


def certify_nonmonotonic_failure(strategy: StrategyId | str,
                                 fixture_name: str | None = None) -> Certificate:
    """Non-monotonic impossibility via the single-stratum reduction.

    Wrapping the fixture KB as a one-stratum ranked KB leaves the
    required captures and rejections unchanged on every encoded query
    (checked against the rank oracle), so the monotonic certificate
    transfers.  The order strategy has its own direct certificate.
    """
    if isinstance(strategy, str):
        strategy = strategy_from_name(strategy)
    if strategy.name == "ord-ord":
        return certify_strategy_failure(strategy, fixture_name)
    base = certify_strategy_failure(strategy, fixture_name)
    kb = fixture(base.fixture)
    theta = StratifiedKB(kb.signature, (conjoin(kb.formulas),))
    checked = 0
    for subset, head, captured in _encoded_queries(base.evidence):
        if nm_consequence_rank(theta, subset, head) != captured:
            raise AssertionError(
                "single-stratum wrapper changes the verdict on "
                f"{'&'.join(subset)} -> {head}")
        checked += 1
    if checked == 0:
        raise AssertionError("base certificate recorded no queries")
    evidence = {
        "kind": "stratified-reduction",
        "stratified_digest": kb_digest(theta),
        "coincidence_checked": checked,
        "wrapped": base.to_dict(),
    }
    assumptions = list(base.assumptions) + [
        "a one-stratum ranked KB requires the same captures and rejections "
        "as the plain KB on every encoded query (re-checked above), so the "
        "monotonic impossibility applies unchanged"
    ]
    return Certificate(strategy.name, base.fixture, "non-monotonic",
                       "not-simulable", evidence, assumptions)


def decide_avg_dot(kb: KnowledgeBase) -> Certificate:
    """Full decision for averaged dot labelling on an arbitrary small KB.

    Builds the complete constraint system over all non-empty subsets,
    solves it exactly, and either realises a witness embedding
    (re-verified by a sweep over the same queries in the same order)
    or returns the Farkas certificate.
    """
    n = len(kb.signature)
    if n > GENERIC_ATOM_CAP:
        raise CapExceededError(
            f"generic avg-dot decision supports at most {GENERIC_ATOM_CAP} "
            f"atoms, KB has {n}")
    system = build_avg_dot_system(kb)
    outcome = lp_feasible(system)
    evidence = _lp_evidence(system, outcome)
    if not outcome.feasible:
        return Certificate(AVG_DOT.name, None, "monotonic", "not-simulable",
                           evidence, [])
    embedding = realize_from_witness(system, outcome, kb.signature.atoms)
    # an atomless KB has no queries at any cap, and a sweep refuses cap 0
    report = verify_monotonic(embedding, AVG_DOT, kb, cap=max(n, 1))
    if not report.simulates:
        raise AssertionError("realised embedding failed re-verification")
    evidence["embedding"] = embedding.to_json_dict()
    evidence["reverified_queries"] = report.queries
    return Certificate(AVG_DOT.name, None, "monotonic", "simulable",
                       evidence, [])


# ------------------------------------------------------------------
# Certificate re-verification (replay from the serialized evidence)
# ------------------------------------------------------------------

def reverify_certificate(cert: Certificate | dict) -> bool:
    """Replay a certificate's evidence; True when it checks out exactly."""
    doc = cert.to_dict() if isinstance(cert, Certificate) else cert
    return _reverify_evidence(doc["evidence"], doc.get("fixture"))


def _reverify_evidence(ev: dict, fixture_name: str | None) -> bool:
    kind = ev["kind"]
    if kind == "farkas":
        system = LinearSystem.from_dict(ev["system"])
        mult = [parse_frac(y) for y in ev["multipliers"]]
        return verify_farkas(system, mult) == parse_frac(ev["gap"])
    if kind == "witness":
        system = LinearSystem.from_dict(ev["system"])
        witness = {k: parse_frac(v) for k, v in ev["assignment"].items()}
        return verify_witness(system, witness)
    if kind == "closure":
        requirement = ConicalRequirement.from_dict(ev["requirement"])
        outcome = conical_closure_certify(requirement)
        return (not outcome.consistent
                and outcome.total == ev["outcome"]["total"]
                and len(outcome.refutations) == ev["outcome"]["refuted"])
    if kind == "symmetry":
        kb = fixture(fixture_name)
        cap = ev["must_capture"]
        rej = ev["must_reject"]
        return (entails(kb, tuple(cap["subset"]), cap["head"])
                and not entails(kb, tuple(rej["subset"]), rej["head"]))
    if kind == "order-argument":
        theta = fixture(fixture_name)
        cap = ev["must_capture"]
        rej = ev["must_reject"]
        return (nm_consequence_rank(theta, tuple(cap["subset"]), cap["head"])
                and not nm_consequence_rank(theta, tuple(rej["subset"]),
                                            rej["head"]))
    if kind == "stratified-reduction":
        wrapped = ev["wrapped"]
        return _reverify_evidence(wrapped["evidence"], wrapped.get("fixture"))
    raise ValueError(f"unknown evidence kind {kind!r}")

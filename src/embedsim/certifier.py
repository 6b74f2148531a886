"""Impossibility certificates for embedding strategies.

Which engine serves which certificate:

  * CE1 (averaged dot) and CE2 (averaged distance): a Farkas
    certificate with stated multipliers.  As in the paper's proofs, each
    constraint of the fixture's query-restricted system is added once,
    so every multiplier is 1, and `verify_farkas` checks exactly that
    the sum collapses to 0 >= positive.  CE2's system, over Gram, cross,
    norm and radius variables, is a relaxation (the Gram matrix's
    positive-semidefiniteness is not encoded), which a refutation does
    not need;
  * the generic avg-dot decision (`decide_avg_dot`): the exact simplex
    `lp_feasible` on the complete system, whose witness is realised as
    an embedding and re-verified by a sweep, or whose Farkas
    multipliers refute it;
  * normalised and sigmoid pooling: a half-space closure search.  Each
    pooled pair must sit strictly on a prescribed side of an abstract
    separating hyperplane while closed half-spaces absorb conical
    combinations, and no one of the 3^|base| sign assignments survives;
  * tied Hadamard pooling and max pooling with product-order labelling:
    a symmetry and an order argument.

The two system builders take the KB, answer every query from its
entailment table, and emit rows of plain ints.  Strict inequalities
enter as unit margins: the systems are positively homogeneous in their
variables, so a solution with any positive slack can be scaled to one
with slack 1, and rows are cleared of the averaging denominators (a
positive row scaling that changes nothing about feasibility).  Every
system comes from these builders, so every row is ints; `_integer_row`
orients a row to >=, and each system runs it once per row
(`LinearSystem.int_rows`), for the simplex and for the witness and
Farkas checks alike.

Replay trusts nothing a certificate records: every certificate is
rebuilt, a fixture certificate from its fixture and a generic decision
from the KB its captured queries describe (`_facts_kb`), and the rebuilt
certificate's canonical JSON text must equal the given document's.  The
comparison takes that text as given (`reverify_text`), so a caller that
emits a document encodes it once and replays against the bytes it
emits; `reverify_certificate` encodes the document itself.  `table1`
encodes each certificate document once, and `table1 --json` emits
exactly the replayed bytes (`canonical_json_spliced`).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .fixtures import fixture
from .logic import (CapExceededError, Implies, KBError, KnowledgeBase,
                    Signature, StratifiedKB, Var, conjoin, consequence_table,
                    entailment_table, kb_digest)
from .strategies import (AVG_DOT, AttributeEmbedding, StrategyId, frac_str,
                         strategy_from_name)
from .verifier import Query, subset_queries, verify_monotonic

GENERIC_ATOM_CAP = 6


# ------------------------------------------------------------------
# Linear systems
# ------------------------------------------------------------------

@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[int, ...]
    relation: str  # ">=" or "<="
    rhs: int
    label: str

    def to_dict(self) -> dict:
        # every coefficient and rhs is an int, so each "p/q" text is "c/1"
        return {"coeffs": [f"{c}/1" for c in self.coeffs],
                "relation": self.relation, "rhs": f"{self.rhs}/1",
                "label": self.label}


@dataclass(frozen=True)
class LinearSystem:
    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    queries: tuple[dict, ...] = ()  # provenance: the encoded KB answers

    @cached_property
    def int_rows(self) -> tuple[IntRow, ...]:
        """Every constraint through `_integer_row`, converted once."""
        return tuple(_integer_row(c) for c in self.constraints)

    def to_dict(self) -> dict:
        return {"variables": list(self.variables),
                "constraints": [c.to_dict() for c in self.constraints],
                "queries": list(self.queries)}


def _linear_system(kb: KnowledgeBase, queries: Iterable[Query] | None,
                   encode) -> LinearSystem:
    """One integer constraint per query, variables numbered in first-use order.

    The queries default to every (subset, head) pair in canonical
    order.  Each query is answered from the KB's entailment table, read
    once and indexed by subset mask.  `encode(subset, head, captured, add)`
    calls `add(variable, coefficient)` for the row's terms and returns
    the row's (relation, rhs).
    """
    signature = kb.signature
    if queries is None:
        queries = subset_queries(signature, len(signature))
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


def build_avg_dot_system(kb: KnowledgeBase,
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

    return _linear_system(kb, queries, encode)


def build_avg_dist_relaxation(kb: KnowledgeBase,
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

    return _linear_system(kb, queries, encode)


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


IntRow = tuple[tuple[int, ...], int]


def _integer_row(constraint: Constraint) -> IntRow:
    """The constraint oriented to coeffs >= rhs, as (coeffs, rhs)."""
    if constraint.relation == ">=":
        return constraint.coeffs, constraint.rhs
    return tuple(-c for c in constraint.coeffs), -constraint.rhs


def combine_constraints(system: LinearSystem,
                        multipliers: Sequence[Fraction]
                        ) -> tuple[tuple[Fraction, ...], Fraction]:
    """Non-negative combination of (>=-oriented) rows: returns (coeffs, rhs).

    Multiplier i weighs row i; rows past the last multiplier get none.
    The multipliers are scaled once to their common denominator D, the
    rows summed in integers, and each total divided by D at the end.
    """
    terms = []
    for i, y in enumerate(multipliers):
        if y < 0:
            raise ValueError(f"negative multiplier at row {i}")
        if y:
            terms.append((y, system.int_rows[i]))
    scale = lcm(*(y.denominator for y, _ in terms))
    total = [0] * len(system.variables)
    rhs = 0
    for y, (coeffs, d) in terms:
        k = y.numerator * (scale // y.denominator)
        for j, c in enumerate(coeffs):
            if c:
                total[j] += k * c
        rhs += k * d
    return tuple(Fraction(t, scale) for t in total), Fraction(rhs, scale)


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
    for coeffs, rhs in system.int_rows:
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
               support: list[int], f: int) -> tuple[list[int], int]:
    """row/den minus f times the pivot row prow/pe.

    f is the row's entry in the entering column and pe the pivot row's,
    so the result, (row pe - f prow) / (den pe), is zero there.  The
    common factor gcd(f, pe) is cancelled first and the gcd of the whole
    row last (a pass skipped over denominator 1), so the returned ints
    and denominator are coprime.
    """
    h = gcd(f, pe)
    a, b = pe // h, f // h
    if a != 1:
        row = [x * a for x in row]
        den *= a
    for j in support:
        row[j] -= b * prow[j]
    if den != 1:
        g = gcd(den, *row)
        if g > 1:
            row = [x // g for x in row]
            den //= g
    return row, den


def _phase1_block(rows: Sequence[IntRow], block: Sequence[int]
                  ) -> tuple[Fraction, dict[int, Fraction], list[Fraction]]:
    """Phase-1 simplex on one connected block of rows, in integers.

    The tableau is the one `lp_feasible` describes; `basis` holds joint
    column indices.  Returns the phase-1 objective, the value of every
    block variable (p - q) and the raw dual multiplier of every row,
    -z_slack / zden (which is z_art / zden + 1 for a row with an
    artificial).
    """
    variables = sorted({j for i in block for j, c in enumerate(rows[i][0])
                        if c})
    nv = len(variables)
    nr = len(block)
    # the joint columns in order, each as (stored column, sign, cost);
    # the artificials are appended as their rows come
    order = ([(k, 1, 0) for k in range(nv)]
             + [(k, -1, 0) for k in range(nv)]
             + [(nv + r, 1, 0) for r in range(nr)])

    # reduced-cost row z_j = (basis costs) . column_j - cost_j, plus
    # the objective value, over zden: the sum of the rows whose
    # artificial is basic
    zden = 1
    z = [0] * (nv + nr + 1)
    tableau: list[list[int]] = []
    dens = [1] * nr
    basis: list[int] = []
    for r, i in enumerate(block):
        coeffs, d = rows[i]
        sign = -1 if d < 0 else 1
        row = [0] * (nv + nr + 1)
        for k, j in enumerate(variables):
            row[k] = sign * coeffs[j]
        row[nv + r] = -sign
        row[-1] = sign * d
        tableau.append(row)
        if d < 0:
            basis.append(2 * nv + r)
        else:
            basis.append(len(order))
            order.append((nv + r, -1, 1))
            for j, x in enumerate(row):
                if x:
                    z[j] += x

    while True:
        enter = next((j for j, (s, sign, cost) in enumerate(order)
                      if sign * z[s] > cost * zden), None)
        if enter is None:
            break
        s, sign, cost = order[enter]
        # minimum ratio rhs / entry: a row's denominator cancels, so
        # ratios compare by cross-multiplying the ints
        leave = None
        for r in range(nr):
            coeff = sign * tableau[r][s]
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
        pe = dens[leave] = sign * prow[s]
        support = [j for j, x in enumerate(prow) if x]
        for r, row in enumerate(tableau):
            f = sign * row[s]
            if f and r != leave:
                if pe == 1 == dens[r]:
                    for j in support:
                        row[j] -= f * prow[j]
                else:
                    tableau[r], dens[r] = _eliminate(row, dens[r], prow, pe,
                                                     support, f)
        z, zden = _eliminate(z, zden, prow, pe, support,
                             sign * z[s] - cost * zden)
        basis[leave] = enter

    values = {b: (tableau[r][-1], dens[r]) for r, b in enumerate(basis)}
    solution = {}
    for k, j in enumerate(variables):
        (pn, pd), (qn, qd) = values.get(k, (0, 1)), values.get(nv + k, (0, 1))
        solution[j] = Fraction(pn * qd - qn * pd, pd * qd)
    mult = [Fraction(-z[nv + r], zden) for r in range(nr)]
    return Fraction(z[-1], zden), solution, mult


def lp_feasible(system: LinearSystem) -> FeasibilityOutcome:
    """Exact phase-1 simplex with Bland's anti-cycling pivot rule.

    Free variables are split into non-negative pairs (p - q).  Rows
    sharing a variable share a connected block (the avg-dot system has
    one per head), and each block is solved on its own tableau
    (`_phase1_block`), whose columns are, in Bland's order, p then q for
    its variables, its rows' slacks, then the artificials of its rows
    with non-negative rhs.  Every column belongs to one block, so row
    operations never cross blocks, and Bland's lowest-index choices
    within a block, kept in the joint column order, are those of one
    joint tableau over all rows: the result is its, pivot for pivot.

    The tableau holds ints (integer-preserving elimination, Edmonds
    1967): a row is ints over one positive denominator, starting as the
    oriented constraint over 1.  Only the p and slack columns and the
    rhs are stored: in every row a q column is its p column negated and
    an artificial its slack negated, since row operations keep both
    relations, and in the reduced-cost row (over zden) z_q = -z_p and,
    an artificial costing 1, z_art = -z_slack - zden.  A derived column
    enters by those readings, and the pivot row's stored entry, negated,
    becomes its denominator, which so stays positive.  The entering
    column is the first with a positive reduced cost; the ratio test
    cross-multiplies rhs / entry (a row's denominator cancels).  A pivot
    keeps the pivot row's ints P and makes its entry pe the denominator;
    every other row T over dt with entering entry f becomes
    (T pe - f P) / (dt pe), reduced by its gcd (`_eliminate`), or, when
    pe and dt are both 1, T - f P, in place.

    Every choice reads only signs and exact comparisons, so pivots,
    witness and multipliers are those of a `Fraction` tableau
    (`tests/references.py` keeps one as the reference).  The multipliers
    of all blocks are normalised together, and every returned witness
    or Farkas certificate is re-verified exactly on the full system.
    """
    rows = system.int_rows
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


@dataclass
class ClosureOutcome:
    consistent: bool
    total: int
    satisfying: dict[str, str] | None = None
    refutations: list[dict] = field(default_factory=list)


def conical_closure_certify(requirement: ConicalRequirement) -> ClosureOutcome:
    """Exhaustive sign-assignment search over the base vectors.

    Every embedding places each base vector strictly below, on, or
    strictly above the abstract hyperplane; if all 3^|base| assignments
    violate some pair requirement, no embedding meets them all.  A
    strictly negative pooled point is impossible when both members sit
    in the closed positive half-space (conical combinations stay
    there), so a requirement is violated when neither member sits
    strictly on its side; dually for strictly positive pooled points.

    Each requirement is bound once to the base positions of its
    members (a repeated base name takes its last position, as the
    assignment's dict does), its side and its document, so an
    assignment is tested by tuple index.
    """
    base = requirement.base
    position = {name: i for i, name in enumerate(base)}
    checks = [(position[r.pair[0]], position[r.pair[1]], r.side, r.to_dict())
              for r in requirement.requirements]
    total = 0
    refutations = []
    for combo in itertools.product(SIDES, repeat=len(base)):
        total += 1
        hit = next((doc for u, v, side, doc in checks
                    if combo[u] != side and combo[v] != side), None)
        sides = dict(zip(base, combo))
        if hit is None:
            return ClosureOutcome(True, total, satisfying=sides)
        refutations.append({"assignment": sides, "violated": hit})
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
    table, signature = entailment_table(kb), kb.signature
    for u, v in itertools.combinations(base, 2):
        row = table[signature.mask((u, v))]
        to_neg = bool(row & signature.bit(head_neg))
        to_pos = bool(row & signature.bit(head_pos))
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
    verdict: str  # "simulable" | "not-simulable"
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


def _farkas_evidence(system: LinearSystem, farkas: FarkasCertificate,
                     relaxation: bool = False) -> dict:
    """Serialised Farkas evidence for a refuted system."""
    return {"kind": "farkas", "relaxation": relaxation,
            "system": system.to_dict(),
            "multipliers": [frac_str(y) for y in farkas.multipliers],
            "gap": frac_str(farkas.gap)}


def _lp_certificate(strategy: StrategyId, fixture_name: str,
                    build, queries: list[Query], relaxation: bool):
    """The paper's refutation: every row of the fixture's system, added
    once, collapses to 0 >= gap; `verify_farkas` raises otherwise."""
    system = build(fixture(fixture_name), queries=queries)
    multipliers = (Fraction(1),) * len(system.constraints)
    farkas = FarkasCertificate(multipliers, verify_farkas(system, multipliers))
    facts = [(q["subset"], q["head"], q["captured"]) for q in system.queries]
    return Certificate(strategy.name, fixture_name, "monotonic",
                       "not-simulable",
                       _farkas_evidence(system, farkas, relaxation), []), facts


def _closure_certificate(strategy: StrategyId, fixture_name: str):
    kb = fixture(fixture_name)
    table, sig = consequence_table(kb), kb.signature
    base = ("a", "b", "c", "d")
    heads = ("x", "y")
    requirement, pair_facts = derive_pair_requirements(kb, base, *heads)
    # a pair pooled on the negative side entails the first head only
    facts = [(r.pair, head, r.side == side)
             for r in requirement.requirements
             for head, side in zip(heads, ("negative", "positive"))]
    outcome = conical_closure_certify(requirement)
    if outcome.consistent:
        raise AssertionError("closure search unexpectedly found an assignment")
    # entry 0 of the table answers the empty antecedent
    threshold_facts = [
        {"head": h,
         "follows_from_empty_antecedent": bool(table[0] & sig.bit(h))}
        for h in heads
    ]
    assumptions = [ZERO_POOL_LEMMA, CONICAL_LEMMA]
    if strategy.pooling == "sig":
        z_facts = []
        for u, v in itertools.combinations(base, 2):
            z = f"z_{u}{v}"
            zbit = sig.bit(z)
            z_facts.append({
                "auxiliary_head": z,
                f"entails_from_{u}": bool(table[sig.bit(u)] & zbit),
                f"entails_from_{v}": bool(table[sig.bit(v)] & zbit),
                "follows_from_empty_antecedent": bool(table[0] & zbit),
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
                       "not-simulable", evidence, assumptions), facts


def _symmetry_certificate(strategy: StrategyId, fixture_name: str):
    kb = fixture(fixture_name)
    table, sig = consequence_table(kb), kb.signature
    atoms = sig.atoms
    found = next(((u, w) for u in atoms for w in atoms
                  if u != w and table[sig.bit(u)] & sig.bit(w)
                  and not table[sig.bit(w)] & sig.bit(u)),
                 None)
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
    return (Certificate(strategy.name, fixture_name, "monotonic",
                        "not-simulable", evidence, []),
            [((u,), w, True), ((w,), u, False)])


def _order_certificate(strategy: StrategyId, fixture_name: str):
    theta = fixture(fixture_name)
    table, sig = consequence_table(theta), theta.signature
    x = sig.bit("x")
    if not table[sig.bit("a")] & x or table[sig.mask(("a", "b"))] & x:
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
    return (Certificate(strategy.name, fixture_name, "non-monotonic",
                        "not-simulable", evidence, []),
            [(("a",), "x", True), (("a", "b"), "x", False)])


# per strategy: the fixtures it has a failure certificate for (the first
# is the default) and the builder of that certificate, which returns it
# with the (subset, head, captured) facts it rests on
_CERTIFIERS: dict[str, tuple[tuple[str, ...],
                             Callable[[StrategyId, str],
                                      tuple[Certificate, list]]]] = {
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


@lru_cache(maxsize=None)
def _one_stratum(fixture_name: str) -> StratifiedKB:
    """The fixture as a ranked KB whose one stratum conjoins its formulas.

    Built once per fixture, so the wrapper's digest and consequence
    table, which live on the wrapper, are derived once.
    """
    kb = fixture(fixture_name)
    return StratifiedKB(kb.signature, (conjoin(kb.formulas),))


def certify_strategy_failure(strategy: StrategyId | str,
                             fixture_name: str | None = None,
                             nonmonotonic: bool = False) -> Certificate:
    """Certificate that the strategy cannot simulate the named fixture.

    In non-monotonic mode a monotonic certificate goes through the
    single-stratum reduction: wrapping the fixture KB as a ranked KB
    whose one stratum conjoins its formulas leaves every fact the
    certificate rests on unchanged (re-checked against the rank
    oracle), so the impossibility transfers.  A certificate that is
    already non-monotonic (the order argument) is returned in either
    mode.
    """
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
    base, facts = build(strategy, fixture_name)
    if not nonmonotonic or base.mode == "non-monotonic":
        return base
    theta = _one_stratum(fixture_name)
    table, sig = consequence_table(theta), theta.signature
    for subset, head, captured in facts:
        if bool(table[sig.mask(subset)] & sig.bit(head)) != captured:
            raise AssertionError(
                "single-stratum wrapper changes the verdict on "
                f"{'&'.join(subset)} -> {head}")
    evidence = {
        "kind": "stratified-reduction",
        "stratified_digest": kb_digest(theta),
        "coincidence_checked": len(facts),
        "wrapped": base.to_dict(),
    }
    assumptions = list(base.assumptions) + [
        "a one-stratum ranked KB requires the same captures and rejections "
        "as the plain KB on every encoded query (re-checked above), so the "
        "monotonic impossibility applies unchanged"
    ]
    return Certificate(strategy.name, fixture_name, "non-monotonic",
                       "not-simulable", evidence, assumptions)


def decide_avg_dot(kb: KnowledgeBase) -> Certificate:
    """Full decision for averaged dot labelling on an arbitrary small KB.

    Builds the complete constraint system over all non-empty subsets,
    solves it exactly, and either realises a witness embedding
    (re-verified by a sweep over the same queries in the same order)
    or returns the Farkas certificate.  The decision reads entailment,
    so a stratified KB is refused.
    """
    if isinstance(kb, StratifiedKB):
        raise ValueError("generic avg-dot decision needs a plain KB")
    n = len(kb.signature)
    if n > GENERIC_ATOM_CAP:
        raise CapExceededError(
            f"generic avg-dot decision supports at most {GENERIC_ATOM_CAP} "
            f"atoms, KB has {n}")
    system = build_avg_dot_system(kb)
    outcome = lp_feasible(system)
    if not outcome.feasible:
        return Certificate(AVG_DOT.name, None, "monotonic", "not-simulable",
                           _farkas_evidence(system, outcome.farkas), [])
    # build_avg_dot_system names the variables M[a][b] and lam[b]
    witness, atoms = outcome.witness, kb.signature.atoms
    embedding = realize_from_matrix(
        {(a, b): witness[f"M[{a}][{b}]"] for a in atoms for b in atoms},
        {b: witness[f"lam[{b}]"] for b in atoms}, atoms)
    # an atomless KB has no queries at any cap, and a sweep refuses cap 0
    report = verify_monotonic(embedding, AVG_DOT, kb, cap=max(n, 1))
    if not report.simulates:
        raise AssertionError("realised embedding failed re-verification")
    evidence = {"kind": "witness", "system": system.to_dict(),
                "assignment": {k: frac_str(v) for k, v in witness.items()},
                "embedding": embedding.to_json_dict(),
                "reverified_queries": report.queries}
    return Certificate(AVG_DOT.name, None, "monotonic", "simulable",
                       evidence, [])


# ------------------------------------------------------------------
# Certificate re-verification (replay by rebuilding)
# ------------------------------------------------------------------

def canonical_json(doc: dict) -> str:
    """The document as canonical JSON text: keys sorted, no whitespace.

    This is the one encoding of every `--json` document and of replay's
    comparisons.  Without `indent`, `json.dumps` runs CPython's C
    encoder.  The documents are trees, so the cycle check, which more
    than doubles the encoding time, is skipped.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      check_circular=False)


def canonical_json_spliced(doc: dict, encoded: dict[str, str]) -> str:
    """`canonical_json` of a document whose listed subtrees are encoded.

    Each key of `encoded` is a marker string that stands in `doc` in
    place of a subtree, and its value is that subtree's canonical text.
    The rest of the document is encoded once, and each marker, which
    must occur in that text exactly once, is replaced by its subtree's
    text.  Only values are replaced, so keys sort as they would, and
    the result is the text `canonical_json` gives the whole document.
    """
    skeleton = canonical_json(doc)
    found = []
    for marker, text in encoded.items():
        token = json.dumps(marker)
        at = skeleton.find(token)
        if at < 0 or skeleton.find(token, at + 1) >= 0:
            raise ValueError(f"marker {marker!r} must occur exactly once, "
                             f"occurs {skeleton.count(token)} times")
        found.append((at, len(token), text))
    pieces, end = [], 0
    for at, length, text in sorted(found):
        pieces += (skeleton[end:at], text)
        end = at + length
    pieces.append(skeleton[end:])
    return "".join(pieces)


def _facts_kb(queries: Sequence[dict]) -> KnowledgeBase:
    """The KB that a generic decision's recorded queries describe.

    Its atoms are the heads of the first subset's queries, and it has a
    rule S -> b for each recorded query whose `captured` is true.  Each
    such rule holds in every model of the source KB, so what this KB
    entails the source KB entails, and each captured query is one of
    its rules: on every non-empty subset the two entail the same heads.
    The avg-dot system and the re-verifying sweep read nothing else, so
    `decide_avg_dot` gives both KBs the same certificate.
    """
    first = queries[0]["subset"] if queries else None
    atoms = tuple(q["head"] for q in queries if q["subset"] == first)
    rules = tuple(Implies(conjoin(map(Var, q["subset"])), Var(q["head"]))
                  for q in queries if q["captured"])
    return KnowledgeBase(Signature(atoms), rules)


def _rebuild(doc: dict) -> Certificate:
    """The certificate the document claims to be, derived again."""
    fixture_name = doc["fixture"]
    if fixture_name is None:
        return decide_avg_dot(_facts_kb(doc["evidence"]["system"]["queries"]))
    return certify_strategy_failure(strategy_from_name(doc["strategy"]),
                                    fixture_name,
                                    doc["mode"] == "non-monotonic")


def reverify_text(doc: dict, text: str) -> bool:
    """Replay a certificate document against its canonical JSON text.

    The certificate the document claims to be is rebuilt
    (`reverify_certificate` says how), and the rebuilt certificate's
    canonical text must equal `text`, which the caller has encoded from
    `doc` once and may emit as it is.  A document the rebuild cannot
    read fails.
    """
    try:
        rebuilt = _rebuild(doc)
    except (KeyError, TypeError, ValueError, KBError):
        return False
    return canonical_json(rebuilt.to_dict()) == text


def reverify_certificate(cert: Certificate | dict) -> bool:
    """Replay a certificate; True when it checks out exactly.

    Every certificate replays by one rule: rebuilt, it must give the
    same canonical JSON text (sorted keys), so `1` or `1.0` never stands
    in for `true`.  A fixture certificate is rebuilt from its fixture
    by `certify_strategy_failure` in the document's mode, a generic one by
    `decide_avg_dot` on the KB its captured queries describe
    (`_facts_kb`).  So every recorded field is derived again, and the
    rebuild checks its own Farkas combination, witness or closure search
    exactly.  A document the rebuild cannot read (a missing key, a value
    of the wrong type, an unknown strategy, a fixture the strategy has
    no certificate for) fails.
    """
    doc = cert.to_dict() if isinstance(cert, Certificate) else cert
    return reverify_text(doc, canonical_json(doc))

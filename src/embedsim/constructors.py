"""Embedding constructions that provably simulate a knowledge base.

Five recipes, selected by the `--prop` number in the CLI:

  1  avg pooling + ReLU labelling, tied vectors     (monotonic KB)
  2  Hadamard pooling + dot labelling, untied       (monotonic KB)
  3  max pooling + product-order labelling, tied    (monotonic KB)
  4  avg pooling + ReLU labelling, tied             (stratified KB)
  5  Hadamard pooling + dot labelling, untied       (stratified KB)

Recipes 1-3 allot one coordinate per needed counter-model (plus one
constant coordinate for 1-2).  The paper gives every model of the KB a
coordinate, but a rule S -> b fails exactly when some model lacking b
contains S, and then so does a maximal model lacking b.  So the models
that matter are K, the union over every head b of the maximal models
lacking b (`logic.counter_models`), and the paper's proofs go through
with K in place of all models: a coordinate survives pooling exactly
when its counter-model contains the pooled set, and one surviving
counter-model lacking the head outweighs all the others, since delta
exceeds |K|.  The all-true interpretation lacks no head, so |K| is at
most 2^|A| - 1 and the paper's delta stays legal.

Recipes 4-5 allot one coordinate per ranked counter-model and weight
it by a power of delta that grows with the interpretation's stratum
rank, so that a single better-ranked interpretation outweighs every
worse-ranked one.  The paper gives every interpretation a coordinate,
but the score of head b on S only compares the best rank over the
supersets of S containing b with the best rank over those lacking b.
Drop an interpretation w other than all-true when, for every atom c not
in w, some strict superset of w lacking c has rank at least mu(w).  That
superset contains everything w contains, so it is a superset of S
whenever w is, and it contains b whenever w does (take any c not in w)
and lacks b whenever w does (take c = b): no best rank with b or
without b over the supersets of any S changes, and chains of drops end
at kept interpretations, since each step strictly grows the set.  The
kept ones are `logic.ranked_counter_models`; a kept coordinate weighs
what it weighs in the paper's recipe, and at most 2^|A| are kept, so
the paper's delta stays legal.  A cap of 20 atoms, the enumeration cap
of `logic`, holds for all five recipes.

Recipes 1, 2, 4 and 5 take the dominance constant as `delta`, an int
above 2^|A|; None, the default, picks the smallest legal value
2^|A| + 1.  Recipe 3 has no dominance constant and ignores `delta`.
Recipes 1, 2, 4 and 5 build their vectors with one kernel
(`_families`).  All coordinates are exact integers (pooling introduces
the only denominators).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .logic import (KnowledgeBase, Signature, StratifiedKB, counter_models,
                    rank_table, ranked_counter_models)
from .strategies import (AVG_RELU, HAD_DOT, ORD_ORD, AttributeEmbedding,
                         StrategyId, Vec)


@dataclass
class ConstructionResult:
    embedding: AttributeEmbedding
    strategy: StrategyId
    proposition: int
    model_order: tuple[int, ...]
    delta: int | None

    def provenance(self) -> dict:
        return {
            "proposition": str(self.proposition),
            "delta": str(self.delta) if self.delta is not None else None,
            "model_order": list(self.model_order),
        }


def _delta(atom_count: int, delta: int | None) -> int:
    """The given dominance constant, checked, or the smallest legal one."""
    minimum = (1 << atom_count) + 1
    if delta is None:
        return minimum
    if delta < minimum:
        raise ValueError(f"delta must exceed 2^{atom_count} = {minimum - 1}")
    return delta


def _families(sig: Signature, order: tuple[int, ...],
              weights: list[tuple[int, int]],
              extra: Vec = ()) -> tuple[dict[str, Vec], dict[str, Vec]]:
    """Each atom's indicator and weighted vector over the interpretations.

    Coordinate j stands for interpretation order[j].  The indicator is 1
    where the atom holds and 0 where it does not; the weighted vector is
    w_in where the atom holds and -w_out where it does not, for
    (w_in, w_out) = weights[j].  Both vectors end with `extra`.
    """
    one, zero = Fraction(1), Fraction(0)
    signed = [(Fraction(w_in), Fraction(-w_out)) for w_in, w_out in weights]
    indicator, weighted = {}, {}
    for a in sig.atoms:
        bit = sig.bit(a)
        indicator[a] = tuple(one if omega & bit else zero
                             for omega in order) + extra
        weighted[a] = tuple(held if omega & bit else lacking
                            for omega, (held, lacking) in zip(order, signed)
                            ) + extra
    return indicator, weighted


def _monotonic(kb: KnowledgeBase, delta: int | None):
    """K, delta, and both families over K with weights (1, delta) and a
    constant coordinate 1."""
    needed = counter_models(kb)
    delta = _delta(len(kb.signature), delta)
    families = _families(kb.signature, needed, [(1, delta)] * len(needed),
                         (Fraction(1),))
    return needed, delta, families


def construct_avg_relu(kb: KnowledgeBase,
                       delta: int | None = None) -> ConstructionResult:
    """Tied embedding for avg+ReLU: one coordinate per needed counter-model
    plus a constant.

    A counter-model coordinate is 1 where the atom holds and -delta where
    it does not, so the pooled average stays at 1 exactly on the
    counter-models containing the pooled attribute set and drops below 0
    elsewhere; the trailing constant coordinate keeps the case without
    counter-models (an inconsistent KB, or one whose only model is
    all-true) accepting every rule.
    """
    needed, delta, (_, weighted) = _monotonic(kb, delta)
    emb = AttributeEmbedding(len(needed) + 1, weighted, dict(weighted))
    return ConstructionResult(emb, AVG_RELU, 1, needed, delta)


def construct_had_dot(kb: KnowledgeBase,
                      delta: int | None = None) -> ConstructionResult:
    """Untied embedding for Hadamard+dot with all thresholds at zero.

    Context vectors are counter-model indicators (so the Hadamard product
    is the indicator of the counter-models containing the pooled set);
    output vectors penalise counter-models lacking the head by -delta.
    Tying the two vector families is impossible here: the dot product is
    symmetric, so a tied embedding accepting a -> b would accept b -> a
    as well.
    """
    needed, delta, (indicator, weighted) = _monotonic(kb, delta)
    emb = AttributeEmbedding(len(needed) + 1, indicator, weighted)
    return ConstructionResult(emb, HAD_DOT, 2, needed, delta)


def construct_ord(kb: KnowledgeBase) -> ConstructionResult:
    """Tied embedding for max pooling with the product-order labelling.

    Coordinates are counter-model complements (0 where the atom holds);
    max pooling then marks the counter-models some pooled attribute
    violates, and the product order reads off containment of violation
    sets.  Without counter-models the vectors are one zero coordinate,
    which accepts everything.
    """
    needed = counter_models(kb)
    # weights (0, -1): 0 where the atom holds, 1 where it does not
    _, vectors = _families(kb.signature, needed, [(0, -1)] * len(needed),
                           () if needed else (Fraction(0),))
    emb = AttributeEmbedding(max(len(needed), 1), vectors, dict(vectors))
    return ConstructionResult(emb, ORD_ORD, 3, needed, None)


def _ranked(theta: StratifiedKB, delta: int | None):
    """The ranked counter-models, delta, and both families over them
    weighted (delta^(2 mu), delta^(1 + 2 mu)) by each one's rank mu."""
    kept = ranked_counter_models(theta)
    sig = theta.signature
    delta = _delta(len(sig), delta)
    by_rank = [(delta ** (2 * mu), delta ** (1 + 2 * mu))
               for mu in range(len(theta.strata) + 1)]
    weights = [by_rank[mu] for mu in rank_table(theta)[list(kept)].tolist()]
    return kept, delta, _families(sig, kept, weights)


def construct_avg_relu_nm(theta: StratifiedKB,
                          delta: int | None = None) -> ConstructionResult:
    """Tied avg+ReLU embedding matching the ranked-default consequence.

    One coordinate per ranked counter-model (not just models):
    delta^(2 mu) where the atom holds, -delta^(1 + 2 mu) where it does
    not.  After ReLU the surviving coordinates are exactly the kept
    supersets of the pooled set, and rank dominance makes the dot-product
    sign decide whether the best rank with the head beats the best rank
    against it.
    """
    order, delta, (_, weighted) = _ranked(theta, delta)
    emb = AttributeEmbedding(len(order), weighted, dict(weighted))
    return ConstructionResult(emb, AVG_RELU, 4, order, delta)


def construct_had_dot_nm(theta: StratifiedKB,
                         delta: int | None = None) -> ConstructionResult:
    """Untied Hadamard+dot embedding matching the ranked-default consequence.

    Context vectors are ranked counter-model indicators; output vectors carry
    the rank weights of `construct_avg_relu_nm`.  Thresholds stay at 0.
    """
    order, delta, (indicator, weighted) = _ranked(theta, delta)
    emb = AttributeEmbedding(len(order), indicator, weighted)
    return ConstructionResult(emb, HAD_DOT, 5, order, delta)


CONSTRUCTORS = {
    1: construct_avg_relu,
    2: construct_had_dot,
    3: lambda kb, delta=None: construct_ord(kb),
    4: construct_avg_relu_nm,
    5: construct_had_dot_nm,
}


def construct(kb: KnowledgeBase | StratifiedKB, proposition: int,
              delta: int | None = None) -> ConstructionResult:
    """Dispatch by recipe number, checking the KB kind matches."""
    if proposition not in CONSTRUCTORS:
        raise ValueError(f"unknown construction {proposition}")
    stratified = isinstance(kb, StratifiedKB)
    if stratified != (proposition >= 4):
        kind = "stratified" if stratified else "plain"
        raise TypeError(
            f"construction {proposition} does not apply to a {kind} KB")
    return CONSTRUCTORS[proposition](kb, delta)

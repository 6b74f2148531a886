"""Embedding constructions that provably simulate a knowledge base.

Five recipes, numbered as the CLI's `--prop`: `RECIPES` binds each
number to the exact strategy it simulates with and to the kind of KB
it takes (plain, or stratified for the ranked-default consequence),
and `construct` builds any of them.

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
Every recipe builds its vectors with one kernel (`_families`).  All
coordinates are exact integers (pooling introduces the only
denominators).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .logic import (KnowledgeBase, Signature, StratifiedKB, counter_models,
                    rank_table, ranked_counter_models)
from .strategies import (AVG_RELU, DIGIT_BOUND, HAD_DOT, MAX_DIGITS,
                         ORD_ORD, AttributeEmbedding, StrategyId, Vec)


# recipe number -> (strategy, KB kind): the one place a recipe is bound
RECIPES: dict[int, tuple[StrategyId, str]] = {
    1: (AVG_RELU, "plain"),
    2: (HAD_DOT, "plain"),
    3: (ORD_ORD, "plain"),
    4: (AVG_RELU, "stratified"),
    5: (HAD_DOT, "stratified"),
}


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


def _check_digits(proposition: int, delta: int, rank: int = 0) -> None:
    """Refuse a recipe whose largest weight, delta^(1 + 2 rank) for its
    top kept rank (0 for a plain recipe), has more than MAX_DIGITS
    digits: no embedding file could print it.  delta >= 2, so delta^e is
    at least 2^(e (bits - 1)); once that passes 2^(4 MAX_DIGITS), above
    10^MAX_DIGITS, the power is refused without being computed."""
    e = 1 + 2 * rank
    if delta >= DIGIT_BOUND:
        raise ValueError(f"recipe {proposition}: delta has more than "
                         f"{MAX_DIGITS} digits, the most an embedding file "
                         "holds")
    if (e * (delta.bit_length() - 1) > 4 * MAX_DIGITS
            or delta ** e >= DIGIT_BOUND):
        raise ValueError(f"recipe {proposition}: the rank-{rank} weight "
                         f"delta^{e} has more than {MAX_DIGITS} digits, the "
                         f"most an embedding file holds (a "
                         f"{len(str(delta))}-digit delta)")


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


def construct(kb: KnowledgeBase | StratifiedKB, proposition: int,
              delta: int | None = None) -> ConstructionResult:
    """Build recipe `proposition` of `RECIPES` for `kb`, checking the KB
    kind matches.

    Coordinate j stands for interpretation order[j] (`_families`).  A
    tied recipe uses the weighted family as context and output; an
    untied one uses the indicator family as context, so the Hadamard
    product of the pooled context vectors is the indicator of the
    counter-models containing the pooled set, with all thresholds at
    zero.  Tying the two families is impossible there: the dot product
    is symmetric, so a tied embedding accepting a -> b would accept
    b -> a as well.

    Recipes 1-2 weigh a counter-model coordinate (1, delta): 1 where
    the atom holds, -delta where it does not.  Under avg+ReLU the pooled
    average stays at 1 exactly on the counter-models containing the
    pooled set and drops below 0 elsewhere; under Hadamard+dot the
    output vector penalises each counter-model lacking the head by
    -delta.  A trailing constant coordinate 1 keeps the case without
    counter-models (an inconsistent KB, or one whose only model is
    all-true) accepting every rule.

    Recipe 3's coordinates are counter-model complements (0 where the
    atom holds, 1 where it does not); max pooling then marks the
    counter-models some pooled attribute violates, and the product
    order reads off containment of violation sets.  Without
    counter-models the vectors are one zero coordinate, which accepts
    everything.

    Recipes 4-5 weigh a ranked counter-model of rank mu
    (delta^(2 mu), delta^(1 + 2 mu)).  After ReLU the surviving
    coordinates are exactly the kept supersets of the pooled set, and
    rank dominance makes the dot-product sign decide whether the best
    rank with the head beats the best rank against it; the Hadamard
    recipe's output vectors carry the same weights.
    """
    if proposition not in RECIPES:
        raise ValueError(f"unknown construction {proposition}")
    strategy, kind = RECIPES[proposition]
    given = "stratified" if isinstance(kb, StratifiedKB) else "plain"
    if given != kind:
        raise TypeError(
            f"construction {proposition} does not apply to a {given} KB")
    sig = kb.signature
    if kind == "stratified":
        order = ranked_counter_models(kb)
        delta = _delta(len(sig), delta)
        rank_of = rank_table(kb)
        ranks = [rank_of[w] for w in order]
        top = max(ranks)  # order holds the all-true interpretation
        _check_digits(proposition, delta, top)
        by_rank = [(delta ** (2 * mu), delta ** (1 + 2 * mu))
                   for mu in range(top + 1)]
        weights = [by_rank[mu] for mu in ranks]
        extra = ()
    elif strategy.labelling == "ord":
        order, delta = counter_models(kb), None
        # (0, -1): 0 where the atom holds, 1 where it does not
        weights = [(0, -1)] * len(order)
        extra = () if order else (Fraction(0),)
    else:
        order = counter_models(kb)
        delta = _delta(len(sig), delta)
        _check_digits(proposition, delta)
        weights, extra = [(1, delta)] * len(order), (Fraction(1),)
    indicator, weighted = _families(sig, order, weights, extra)
    emb = AttributeEmbedding(len(order) + len(extra),
                             weighted if strategy.tied else indicator,
                             dict(weighted))
    return ConstructionResult(emb, strategy, proposition, order, delta)

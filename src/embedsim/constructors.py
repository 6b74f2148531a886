"""Embedding constructions that provably simulate a knowledge base.

Five recipes, selected by the `--prop` number in the CLI:

  1  avg pooling + ReLU labelling, tied vectors     (monotonic KB)
  2  Hadamard pooling + dot labelling, untied       (monotonic KB)
  3  max pooling + product-order labelling, tied    (monotonic KB)
  4  avg pooling + ReLU labelling, tied             (stratified KB)
  5  Hadamard pooling + dot labelling, untied       (stratified KB)

Recipes 1-3 allot one coordinate per model of the KB (plus one constant
coordinate for 1-2); recipes 4-5 allot one coordinate per interpretation
of the signature and weight it by a power of delta that grows with the
interpretation's stratum rank, so that a single better-ranked model
outweighs every worse-ranked one.  delta must exceed the number of
interpretations; the default is the smallest legal value 2^|A| + 1.
All coordinates are exact integers (pooling introduces the only
denominators).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .logic import (CapExceededError, KnowledgeBase, StratifiedKB,
                    enumerate_models, rank_table)
from .strategies import (AVG_RELU, HAD_DOT, ORD_ORD, AttributeEmbedding,
                         StrategyId, Vec)

MONOTONIC_ATOM_CAP = 15
NONMONOTONIC_ATOM_CAP = 12


@dataclass(frozen=True)
class DeltaConfig:
    """Dominance constant; None picks the smallest legal value per KB."""

    delta: int | None = None

    def resolve(self, atom_count: int) -> int:
        minimum = (1 << atom_count) + 1
        if self.delta is None:
            return minimum
        if self.delta < minimum:
            raise ValueError(
                f"delta must exceed 2^{atom_count} = {minimum - 1}")
        return self.delta


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


def _check_cap(kb: KnowledgeBase | StratifiedKB, cap: int) -> None:
    n = len(kb.signature)
    if n > cap:
        raise CapExceededError(
            f"construction supports at most {cap} atoms, KB has {n}")


def _avg_relu_vectors(kb: KnowledgeBase, models: tuple[int, ...],
                      delta: int) -> dict[str, Vec]:
    sig = kb.signature
    vectors = {}
    for a in sig.atoms:
        bit = sig.bit(a)
        vectors[a] = tuple(
            Fraction(1) if omega & bit else Fraction(-delta)
            for omega in models
        ) + (Fraction(1),)
    return vectors


def construct_avg_relu(kb: KnowledgeBase,
                       cfg: DeltaConfig | None = None) -> ConstructionResult:
    """Tied embedding for avg+ReLU: one coordinate per model plus a constant.

    A model coordinate is 1 where the atom holds and -delta where it
    does not, so the pooled average stays at 1 exactly on models of the
    pooled attribute set and drops below 0 elsewhere; the trailing
    constant coordinate keeps the inconsistent-KB case (no models at
    all) accepting every rule.
    """
    _check_cap(kb, MONOTONIC_ATOM_CAP)
    cfg = cfg or DeltaConfig()
    delta = cfg.resolve(len(kb.signature))
    models = enumerate_models(kb, cap=MONOTONIC_ATOM_CAP)
    vectors = _avg_relu_vectors(kb, models, delta)
    emb = AttributeEmbedding(
        dimension=len(models) + 1,
        context=vectors,
        output=dict(vectors),
    )
    return ConstructionResult(emb, AVG_RELU, 1, models, delta)


def construct_had_dot(kb: KnowledgeBase,
                      cfg: DeltaConfig | None = None) -> ConstructionResult:
    """Untied embedding for Hadamard+dot with all thresholds at zero.

    Context vectors are model indicators (so the Hadamard product is the
    indicator of the pooled set's models); output vectors penalise
    models violating the head by -delta.  Tying the two vector families
    is impossible here: the dot product is symmetric, so a tied
    embedding accepting a -> b would accept b -> a as well.
    """
    _check_cap(kb, MONOTONIC_ATOM_CAP)
    cfg = cfg or DeltaConfig()
    delta = cfg.resolve(len(kb.signature))
    models = enumerate_models(kb, cap=MONOTONIC_ATOM_CAP)
    sig = kb.signature
    context, output = {}, {}
    for a in sig.atoms:
        bit = sig.bit(a)
        context[a] = tuple(
            Fraction(1) if omega & bit else Fraction(0) for omega in models
        ) + (Fraction(1),)
        output[a] = tuple(
            Fraction(1) if omega & bit else Fraction(-delta) for omega in models
        ) + (Fraction(1),)
    emb = AttributeEmbedding(
        dimension=len(models) + 1,
        context=context,
        output=output,
    )
    return ConstructionResult(emb, HAD_DOT, 2, models, delta)


def construct_ord(kb: KnowledgeBase) -> ConstructionResult:
    """Tied embedding for max pooling with the product-order labelling.

    Coordinates are model complements (0 where the atom holds); max
    pooling then marks the models some pooled attribute violates, and
    the product order reads off containment of violation sets.  An
    inconsistent KB gets all-zero vectors, which accept everything.
    """
    _check_cap(kb, MONOTONIC_ATOM_CAP)
    models = enumerate_models(kb, cap=MONOTONIC_ATOM_CAP)
    sig = kb.signature
    if not models:
        dim = 1
        vectors = {a: (Fraction(0),) for a in sig.atoms}
    else:
        dim = len(models)
        vectors = {
            a: tuple(
                Fraction(0) if omega & sig.bit(a) else Fraction(1)
                for omega in models
            )
            for a in sig.atoms
        }
    emb = AttributeEmbedding(dimension=dim, context=vectors,
                             output=dict(vectors))
    return ConstructionResult(emb, ORD_ORD, 3, models, None)


def _rank_weights(theta: StratifiedKB, delta: int) -> list[tuple[int, int]]:
    """Per interpretation: (delta^(2 mu), delta^(1 + 2 mu))."""
    by_rank = [(delta ** (2 * mu), delta ** (1 + 2 * mu))
               for mu in range(len(theta.strata) + 1)]
    return [by_rank[mu] for mu in rank_table(theta).tolist()]


def construct_avg_relu_nm(theta: StratifiedKB,
                          cfg: DeltaConfig | None = None) -> ConstructionResult:
    """Tied avg+ReLU embedding matching the ranked-default consequence.

    One coordinate per interpretation (not just models): delta^(2 mu)
    where the atom holds, -delta^(1 + 2 mu) where it does not.  After
    ReLU the surviving coordinates are exactly the interpretations of
    the pooled set, and rank dominance makes the dot-product sign decide
    whether the best rank with the head beats the best rank against it.
    """
    _check_cap(theta, NONMONOTONIC_ATOM_CAP)
    cfg = cfg or DeltaConfig()
    sig = theta.signature
    delta = cfg.resolve(len(sig))
    weights = _rank_weights(theta, delta)
    order = tuple(range(1 << len(sig)))
    vectors = {}
    for a in sig.atoms:
        bit = sig.bit(a)
        vectors[a] = tuple(
            Fraction(weights[omega][0]) if omega & bit
            else Fraction(-weights[omega][1])
            for omega in order
        )
    emb = AttributeEmbedding(
        dimension=len(order),
        context=vectors,
        output=dict(vectors),
    )
    return ConstructionResult(emb, AVG_RELU, 4, order, delta)


def construct_had_dot_nm(theta: StratifiedKB,
                         cfg: DeltaConfig | None = None) -> ConstructionResult:
    """Untied Hadamard+dot embedding matching the ranked-default consequence.

    Context vectors are interpretation indicators; output vectors carry
    the rank weights of `construct_avg_relu_nm`.  Thresholds stay at 0.
    """
    _check_cap(theta, NONMONOTONIC_ATOM_CAP)
    cfg = cfg or DeltaConfig()
    sig = theta.signature
    delta = cfg.resolve(len(sig))
    weights = _rank_weights(theta, delta)
    order = tuple(range(1 << len(sig)))
    context, output = {}, {}
    for a in sig.atoms:
        bit = sig.bit(a)
        context[a] = tuple(
            Fraction(1) if omega & bit else Fraction(0) for omega in order
        )
        output[a] = tuple(
            Fraction(weights[omega][0]) if omega & bit
            else Fraction(-weights[omega][1])
            for omega in order
        )
    emb = AttributeEmbedding(
        dimension=len(order),
        context=context,
        output=output,
    )
    return ConstructionResult(emb, HAD_DOT, 5, order, delta)


CONSTRUCTORS = {
    1: construct_avg_relu,
    2: construct_had_dot,
    3: lambda kb, cfg=None: construct_ord(kb),
    4: construct_avg_relu_nm,
    5: construct_had_dot_nm,
}


def construct(kb: KnowledgeBase | StratifiedKB, proposition: int,
              cfg: DeltaConfig | None = None) -> ConstructionResult:
    """Dispatch by recipe number, checking the KB kind matches."""
    if proposition not in CONSTRUCTORS:
        raise ValueError(f"unknown construction {proposition}")
    stratified = isinstance(kb, StratifiedKB)
    if stratified != (proposition >= 4):
        kind = "stratified" if stratified else "plain"
        raise TypeError(
            f"construction {proposition} does not apply to a {kind} KB")
    return CONSTRUCTORS[proposition](kb, cfg)

"""Exhaustive checking of embeddings against the logical consequence oracle.

A verification sweep enumerates every non-empty attribute subset up to a
cap, reads the logical verdict (entailment for plain KBs, ranked-default
consequence for stratified ones) from the KB's consequence table,
evaluates the strategy's labelling decision exactly, and records every
mismatch.  The sweep order is canonical: subsets ordered by (size,
bitmask), heads by signature index, so reports are deterministic.

A sweep does the per-KB and per-embedding work once: it fetches the
KB's consequence table (`logic.consequence_table`, indexed by subset
mask, bit b for head b), scales the embedding to integers
(`strategies.scale`) and binds the strategy's labeller to the
signature's heads.  Each subset is then pooled once and labelled once,
its label set a bitmask XORed with its table entry, and only the heads
that differ are scored.  `verify_monotonic` takes a plain KB and
`verify_nonmonotonic` a stratified one; each refuses the other kind, so
the table's type dispatch never swaps the semantics a caller asked for.

Empty antecedents are excluded from every sweep (pooling an empty set is
undefined for most strategies); each report's JSON records that
exclusion.  A sweep always covers every subset up to its cap.  There is
no single-query entry point: one query (S, b) is bit b of the table's
entry at S's mask, and the strategy's decision is the labeller of
`strategies.exact_rule` bound to head b alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

# `entails` is not called here; the benchmark's tracing test reads it
# back as `embedsim.verifier.entails` after removing its wrappers
from .logic import entails  # noqa: F401
from .logic import (KnowledgeBase, Signature, StratifiedKB, consequence_table,
                    kb_digest)
from .strategies import (AttributeEmbedding, DimensionMismatchError,
                         StrategyId, exact_rule, scale)

FULL_SWEEP_ATOM_LIMIT = 8
CAPPED_SWEEP_DEFAULT = 4

Query = tuple[tuple[str, ...], str]


@dataclass
class Mismatch:
    subset: tuple[str, ...]
    head: str
    expected: bool
    got: bool
    score: str

    def to_dict(self) -> dict:
        return {"subset": list(self.subset), "head": self.head,
                "expected": self.expected, "got": self.got,
                "score": self.score}


@dataclass
class VerificationReport:
    strategy: str
    kb_digest: str
    kind: str  # "monotonic" | "non-monotonic"
    cap: int
    capped: bool
    queries: int
    mismatches: list[Mismatch]

    @property
    def simulates(self) -> bool:
        return not self.mismatches

    # `timing` is ignored; perfbench/workloads.py still passes timing=False
    def to_dict(self, timing: bool = False) -> dict:
        return {
            "strategy": self.strategy,
            "kb_digest": self.kb_digest,
            "kind": self.kind,
            "cap": self.cap,
            "capped": self.capped,
            "queries": self.queries,
            "verdict": "simulates" if self.simulates else "mismatches",
            "mismatches": [m.to_dict() for m in self.mismatches],
            "empty_antecedent_excluded": True,
        }


def default_cap(signature: Signature) -> int:
    n = len(signature)
    return n if n <= FULL_SWEEP_ATOM_LIMIT else CAPPED_SWEEP_DEFAULT


def _subset_masks(signature: Signature,
                  cap: int) -> list[tuple[int, tuple[str, ...]]]:
    """`nonempty_subsets` with each subset's mask, generated size by size
    so that the cost follows the number of subsets returned, not 2^n."""
    atoms = signature.atoms
    pairs = []
    for size in range(1, min(cap, len(atoms)) + 1):
        # combinations come in lexicographic index order, not mask order
        pairs += sorted((sum(1 << i for i in combo),
                         tuple(atoms[i] for i in combo))
                        for combo in combinations(range(len(atoms)), size))
    return pairs


def nonempty_subsets(signature: Signature, cap: int) -> list[tuple[str, ...]]:
    """Non-empty subsets up to the cap in canonical (|S|, S-bitmask) order."""
    return [subset for _, subset in _subset_masks(signature, cap)]


def subset_queries(signature: Signature, cap: int) -> list[Query]:
    """All (subset, head) pairs in canonical (|S|, S-bitmask, head-index) order."""
    return [(subset, head)
            for subset in nonempty_subsets(signature, cap)
            for head in signature.atoms]


def _check_coverage(embedding: AttributeEmbedding,
                    signature: Signature) -> None:
    for family, vectors in (("", embedding.context),
                            ("output ", embedding.output)):
        if missing := [a for a in signature.atoms if a not in vectors]:
            raise DimensionMismatchError(f"embedding lacks {family}vectors "
                                         f"for atoms: {', '.join(missing)}")


def _sweep(embedding: AttributeEmbedding, strategy: StrategyId, kind: str,
           kb: KnowledgeBase | StratifiedKB,
           cap: int | None) -> VerificationReport:
    signature = kb.signature
    _check_coverage(embedding, signature)
    if cap is None:
        cap = default_cap(signature)
    elif cap < 1:
        raise ValueError(f"subset cap must be at least 1, got {cap}")
    pool, bind = exact_rule(strategy)
    table = consequence_table(kb)
    scaled = scale(embedding)
    labeller = bind(scaled, signature.atoms)
    subsets = _subset_masks(signature, cap)
    mismatches = []
    for mask, subset in subsets:
        pooled = pool(scaled, subset)
        got = labeller.labels(pooled)
        wrong = got ^ int(table[mask])
        while wrong:  # one mismatch per wrong head, in head order
            i = (wrong & -wrong).bit_length() - 1
            mismatches.append(Mismatch(
                subset, signature.atoms[i], not got >> i & 1,
                bool(got >> i & 1), labeller.score(pooled, i)))
            wrong &= wrong - 1
    return VerificationReport(strategy.name, kb_digest(kb), kind, cap,
                              cap < len(signature),
                              len(subsets) * len(signature), mismatches)


def verify_monotonic(embedding: AttributeEmbedding, strategy: StrategyId,
                     kb: KnowledgeBase,
                     cap: int | None = None) -> VerificationReport:
    """Check the embedding's label sets against entailment on every query."""
    if isinstance(kb, StratifiedKB):
        raise ValueError("monotonic verification needs a plain KB, "
                         "got a stratified KB")
    return _sweep(embedding, strategy, "monotonic", kb, cap)


def verify_nonmonotonic(embedding: AttributeEmbedding, strategy: StrategyId,
                        theta: StratifiedKB,
                        cap: int | None = None) -> VerificationReport:
    """Check the embedding's label sets against ranked-default consequence."""
    if not isinstance(theta, StratifiedKB):
        raise ValueError("non-monotonic verification needs a stratified KB, "
                         "got a plain KB")
    return _sweep(embedding, strategy, "non-monotonic", theta, cap)

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
signature's heads.  It walks the subset lattice level by level, pools
each subset by one step from the subset less its top atom, labels all
its heads at once as a bitmask, XORs that with its table entry, and
scores only the heads that differ.  `verify_monotonic` takes a plain KB
and `verify_nonmonotonic` a stratified one; each refuses the other
kind, so the table's type dispatch never swaps the semantics asked for.

Empty antecedents are excluded from every sweep (pooling an empty set is
undefined for most strategies); each report's JSON records that
exclusion.  A sweep always covers every subset up to its cap.  There is
no single-query entry point: one query (S, b) is bit b of the table's
entry at S's mask, and the strategy's decision is the labeller of
`strategies.exact_rule` bound to head b alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Callable, Iterator, Sequence

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


def _walk(singles: Sequence, cap: int,
          extend: Callable) -> Iterator[tuple[int, object]]:
    """(mask, value) of every non-empty subset up to the cap in canonical
    (|S|, S-bitmask) order: singles[i] for {i}, else extend(value of S
    less its top item j, singles[j]).  For each j ascending, the previous
    level's sets with masks below 2^j, a prefix of it, gain item j."""
    depth = min(cap, len(singles))
    level = [(1 << i, one) for i, one in enumerate(singles) if depth > 0]
    yield from level
    for size in range(2, depth + 1):
        children = []
        for j in range(size - 1, len(singles)):
            bit, one = 1 << j, singles[j]
            for mask, value in level:
                if mask >= bit:
                    break
                child = mask | bit, extend(value, one)
                yield child
                if size < depth:  # the deepest level is not kept
                    children.append(child)
        level = children


def nonempty_subsets(signature: Signature, cap: int) -> list[tuple[str, ...]]:
    """Non-empty subsets up to the cap in canonical (|S|, S-bitmask) order."""
    return [s for _, s in _walk([(a,) for a in signature.atoms], cap, add)]


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
    rule = exact_rule(strategy)
    table = consequence_table(kb)
    scaled = scale(embedding)
    atoms = signature.atoms
    labeller = rule.labeller(scaled, atoms)
    subsets, mismatches = 0, []
    for mask, pooled in _walk([rule.start(scaled.context[a], scaled.cden)
                               for a in atoms], cap, rule.extend):
        subsets += 1
        got = labeller.labels(pooled)
        wrong = got ^ int(table[mask])
        if wrong:
            subset = tuple(a for i, a in enumerate(atoms) if mask >> i & 1)
        while wrong:  # one mismatch per wrong head, in head order
            i = (wrong & -wrong).bit_length() - 1
            mismatches.append(Mismatch(
                subset, atoms[i], not got >> i & 1,
                bool(got >> i & 1), labeller.score(pooled, i)))
            wrong &= wrong - 1
    return VerificationReport(strategy.name, kb_digest(kb), kind, cap,
                              cap < len(signature),
                              subsets * len(signature), mismatches)


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

"""Exhaustive checking of embeddings against the logical consequence oracle.

A verification sweep enumerates every non-empty attribute subset up to a
cap, reads the logical verdict (entailment for plain KBs, ranked-default
consequence for stratified ones) from the KB's consequence table,
evaluates the strategy's labelling decision exactly, and keeps every
mismatch.  The sweep order is canonical: subsets ordered by (size,
bitmask), heads by signature index, so reports are deterministic.

A sweep first counts its queries in closed form and refuses more than
`MAX_SWEEP_QUERIES` before any table is built.  It does the per-KB and
per-embedding work once: it fetches the KB's consequence table
(`logic.consequence_table`, indexed by subset mask, bit b for head b),
scales the embedding to integers (`strategies.scale`) and binds the
strategy's labeller to the signature's heads.  It walks the subset
lattice level by level, pools each subset by one step from the subset
less its top atom and extends that subset's name tuple by the same
atom, labels all its heads at once as a bitmask, and XORs that with its
table entry.  A subset with wrong heads is kept as one entry: the
subset, its label set, its wrong heads and the state its labeller kept
for it, all already built.  The report's `mismatches` (`Mismatches`)
makes a subset's records only when they are read, by one labeller
`report` call, one `Mismatch` per wrong head, in head order, with its
score text; so `verify` in text mode formats the 20 records it prints,
and `to_dict` formats them all.  A score holding an integer longer than
CPython's int-to-text limit is refused as its record is made, in one
line that names the subset and its wrong heads.  `verify_monotonic`
takes a plain KB and `verify_nonmonotonic` a stratified one; each
refuses the other kind, so the table's type dispatch never swaps the
semantics asked for.

Empty antecedents are excluded from every sweep (pooling an empty set is
undefined for most strategies); each report's JSON records that
exclusion.  A sweep always covers every subset up to its cap.  There is
no single-query entry point: one query (S, b) is bit b of the table's
entry at S's mask, and the strategy's decision is the labeller of
`strategies.exact_rule` bound to head b alone.
"""

from __future__ import annotations

import operator
import sys
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from typing import Callable, Iterator

# `entails` is not called here; the benchmark's tracing test reads it
# back as `embedsim.verifier.entails` after removing its wrappers
from .logic import entails  # noqa: F401
from .logic import (CapExceededError, KnowledgeBase, Signature, StratifiedKB,
                    consequence_table, kb_digest)
from .strategies import (AttributeEmbedding, DimensionMismatchError,
                         Mismatch, StrategyId, exact_rule, scale)

FULL_SWEEP_ATOM_LIMIT = 8
CAPPED_SWEEP_DEFAULT = 4
# Queries (subsets x heads) a sweep may answer; a larger one is refused
# before any table is built.  2^20 admits the full 16-atom sweep
# (1,048,560 queries) and refuses the full 17-atom one (2,228,207).  At
# that edge a sweep whose every query mismatches took 8.7-9.7 s and
# 718 MB through `verify --json`, writing 134 MB, and 0.5-0.7 s and 49 MB
# in text mode (2-vCPU VM, fresh processes).
MAX_SWEEP_QUERIES = 1 << 20

Query = tuple[tuple[str, ...], str]
# what a sweep keeps of a wrong subset: (subset, got, wrong, the state
# its labeller kept when labelling it)
Entry = tuple[tuple[str, ...], int, int, tuple]


class Mismatches(Sequence):
    """A sweep's mismatch records, read-only, made when they are read.

    It holds one entry per wrong subset, in sweep order, and the
    labeller's `report`, which turns an entry into that subset's
    records, one per wrong head in head order.  Its length is the sum
    of the entries' popcounts; an index is found by bisecting their
    running sums, so reading a record formats its subset's records
    alone, and the subset last formatted is kept, so that reading its
    records one index at a time formats it once.  It equals a list
    holding the same records.
    """

    def __init__(self, atoms: Sequence[str],
                 report: Callable[..., list[Mismatch]], entries: list[Entry]):
        self._atoms = atoms
        self._report = report
        self._entries = entries
        self._ends = list(accumulate(wrong.bit_count()
                                     for _, _, wrong, _ in entries))
        self._shown: tuple[int, list[Mismatch]] = (-1, [])

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def _records(self, k: int) -> list[Mismatch]:
        """The records of entry k; a score holding an integer longer
        than CPython's int-to-text limit is refused in one line that
        names the subset and its wrong heads."""
        if k != self._shown[0]:
            entry = self._entries[k]
            try:
                self._shown = k, self._report(*entry)
            except ValueError:
                subset, _, wrong, _ = entry
                heads = ", ".join(a for i, a in enumerate(self._atoms)
                                  if wrong >> i & 1)
                raise ValueError(
                    f"the score of {'&'.join(subset)} -> {heads} cannot be "
                    f"printed: an integer in it has more than "
                    f"{sys.get_int_max_str_digits()} digits") from None
        return self._shown[1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("mismatch index out of range")
        k = bisect_right(self._ends, i)
        return self._records(k)[i - (self._ends[k - 1] if k else 0)]

    def __iter__(self) -> Iterator[Mismatch]:
        for k in range(len(self._entries)):
            yield from self._records(k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, Mismatches)):
            return NotImplemented
        return list(self) == list(other)


@dataclass
class VerificationReport:
    strategy: str
    kb_digest: str
    kind: str  # "monotonic" | "non-monotonic"
    cap: int
    capped: bool
    queries: int
    mismatches: Sequence[Mismatch]

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


def _walk(atoms: Sequence[str], singles: Sequence, cap: int,
          extend: Callable) -> Iterator[tuple[int, tuple[str, ...], object]]:
    """(mask, names, value) of every non-empty subset up to the cap in
    canonical (|S|, S-bitmask) order: singles[i] for {atoms[i]}, else
    extend(value of S less its top item j, singles[j]), the names of S
    less j extended by atoms[j].  For each j ascending, the previous
    level's sets with masks below 2^j, a prefix of it, gain item j."""
    depth = min(cap, len(singles))
    level = [(1 << i, (a,), one)
             for i, (a, one) in enumerate(zip(atoms, singles)) if depth > 0]
    yield from level
    for size in range(2, depth + 1):
        children = []
        for j in range(size - 1, len(singles)):
            bit, tail, one = 1 << j, (atoms[j],), singles[j]
            for mask, names, value in level:
                if mask >= bit:
                    break
                child = mask | bit, names + tail, extend(value, one)
                yield child
                if size < depth:  # the deepest level is not kept
                    children.append(child)
        level = children


def nonempty_subsets(signature: Signature, cap: int) -> list[tuple[str, ...]]:
    """Non-empty subsets up to the cap in canonical (|S|, S-bitmask) order."""
    # the walk's names are the subsets (its values, each subset's top
    # index, go unused)
    return [names for _, names, _ in _walk(signature.atoms,
                                           range(len(signature)), cap, max)]


def sweep_queries(atoms: int, cap: int) -> int:
    """The queries of a sweep up to the cap: heads x non-empty subsets."""
    return atoms * sum(comb(atoms, k) for k in range(1, min(cap, atoms) + 1))


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
    queries = sweep_queries(len(signature), cap)
    if queries > MAX_SWEEP_QUERIES:
        raise CapExceededError(
            f"a sweep of {len(signature)} atoms at subset cap {cap} has "
            f"{queries} queries, the sweep budget is {MAX_SWEEP_QUERIES}")
    table = consequence_table(kb)
    scaled = scale(embedding)
    atoms = signature.atoms
    labeller = rule.labeller(scaled, atoms)
    labels = labeller.labels
    entries: list[Entry] = []
    for mask, subset, pooled in _walk(
            atoms, [rule.start(scaled.context[a], scaled.cden) for a in atoms],
            cap, rule.extend):
        got = labels(pooled)
        wrong = got ^ table[mask]
        if wrong:
            entries.append((subset, got, wrong, labeller.last))
    return VerificationReport(strategy.name, kb_digest(kb), kind, cap,
                              cap < len(signature), queries,
                              Mismatches(atoms, labeller.report, entries))


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

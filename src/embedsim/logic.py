"""Propositional syntax, parsing, models and consequence relations.

Two consequence relations live here.  The monotonic one is classical
entailment over a finite knowledge base, decided from its models (exact,
no SAT solver; the whole toolkit operates at desk scale).  The
non-monotonic one is the ranked-default relation over a stratified
knowledge base (alpha_1, ..., alpha_k): an interpretation's rank is the
longest prefix of strata it satisfies, and `S |> b` holds when the
best-ranked models of S u {b} beat the best-ranked models of
S u {not b}.  The library decides it by this rank criterion only; the
paper's existential-prefix definition (some prefix of strata, together
with S, has models and all of them satisfy b) lives only in the test
oracle `tests/oracles.py::tt_nm_def`, which the rank criterion is
checked against.

Formulas are evaluated over all 2^n interpretations at once, one step
per syntax-tree node: a node's truth set is a Python int whose bit
omega is set exactly when the node holds at interpretation omega, so
connectives are single big-int operations (`truth_set`).  The models of
a KB are the AND of its formulas' truth sets; the rank of every
interpretation comes from a running AND over the strata (`rank_table`).

Neither relation scans the interpretations per query.  Each KB gets one
table over all 2^n antecedents, built by a superset transform in
O(n 2^n) steps (Yates; see Bjorklund et al., "Fourier meets Mobius",
STOC 2007) over one big int of 32-bit fields (`_superset_and`), and
kept on the KB object for as long as that object lives (`_kept_on_kb`):
entry S holds the AND of the relevant interpretations containing S,
and a query (S, b) reads bit b of entry S.  `consequence_table` picks a
KB's table, a read-only int sequence, by the KB's type; sweeps and
certificates fetch it once and index it by subset mask.  The
constructions read `counter_models`, the maximal models lacking each
head, and `ranked_counter_models`, its analogue per rank level, both
found by shifts over the same bit sets.

Interpretations are plain ints: bit i set means the i-th atom of the
signature is true.
"""

from __future__ import annotations

import hashlib
import re
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from typing import Iterable, Iterator, Union

DEFAULT_MODEL_CAP = 20

# Budget on a parsed formula's depth: the parentheses, `!` and binary
# connectives along any root-to-leaf path.  Parsing takes up to three
# Python frames per level (a parenthesis passes through `unary`,
# `_operand` and `binary`), and printing, hashing, comparing and
# evaluating one frame per level, so 100 levels stay well inside the
# default recursion limit of 1000 with room for the caller's own frames.
MAX_FORMULA_DEPTH = 100


class KBError(Exception):
    """Base class for knowledge-base input errors."""


class ParseError(KBError):
    """Syntax error in KB source, with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UndeclaredAtomError(ParseError):
    pass


class DuplicateAtomError(ParseError):
    pass


class CapExceededError(KBError):
    """Signature too large for an enumeration-based operation."""


# ------------------------------------------------------------------
# Formula syntax tree
# ------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


Formula = Union[Var, Const, Not, And, Or, Implies, Iff]

TOP = Const(True)
BOTTOM = Const(False)


def conjoin(formulas: Iterable[Formula]) -> Formula:
    """Left-nested conjunction of the given formulas; TOP when empty."""
    result: Formula | None = None
    for f in formulas:
        result = f if result is None else And(result, f)
    return TOP if result is None else result


# The binary connectives, the one statement of the grammar's precedence
# and associativity: token -> (node, precedence, right-associative).
# `!` binds tighter than all of them.  The parser climbs this table and
# the printer reads it inverted.
_BINARY = {"<->": (Iff, 1, False), "->": (Implies, 2, True),
           "|": (Or, 3, False), "&": (And, 4, False)}
_SYMBOL = {node: (token, prec, right)
           for token, (node, prec, right) in _BINARY.items()}
_NOT_PREC = 5


def format_formula(formula: Formula) -> str:
    """Canonical text form, re-parseable with the module grammar."""
    return _fmt(formula, 0)


def _fmt(f: Formula, context: int) -> str:
    """`f` bracketed when it binds looser than its `context`; no context
    binds tighter than `!`, so only binary connectives are bracketed."""
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Const):
        return "TRUE" if f.value else "FALSE"
    if isinstance(f, Not):
        return "!" + _fmt(f.sub, _NOT_PREC)
    token, prec, right_assoc = _SYMBOL[type(f)]
    # the child on the associative side may repeat the connective unbracketed
    lctx, rctx = (prec + 1, prec) if right_assoc else (prec, prec + 1)
    s = f"{_fmt(f.left, lctx)} {token} {_fmt(f.right, rctx)}"
    return f"({s})" if prec < context else s


# ------------------------------------------------------------------
# Signatures and knowledge bases
# ------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    """Ordered atom list; the order fixes interpretation bit positions."""

    atoms: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("duplicate atom in signature")

    def __len__(self) -> int:
        return len(self.atoms)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"atom {name!r} not in signature") from None

    @cached_property
    def _index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.atoms)}

    def bit(self, name: str) -> int:
        return 1 << self.index(name)

    def mask(self, names: Iterable[str]) -> int:
        m = 0
        for name in names:
            m |= self.bit(name)
        return m


@dataclass(frozen=True)
class KnowledgeBase:
    signature: Signature
    formulas: tuple[Formula, ...]


@dataclass(frozen=True)
class StratifiedKB:
    """Ranked formula list; strata[0] is the highest-priority stratum."""

    signature: Signature
    strata: tuple[Formula, ...]

    def __post_init__(self):
        if not self.strata:
            raise ValueError("stratified KB needs at least one stratum")


def _kept_on_kb(derive):
    """Derive a value once per KB object and keep it in the object's
    `__dict__` under the function's name, as `cached_property` does: it
    lives as long as the KB, and equal but distinct KBs derive their own."""
    name = derive.__name__

    @wraps(derive)
    def kept(kb):
        if name not in kb.__dict__:
            kb.__dict__[name] = derive(kb)
        return kb.__dict__[name]
    return kept


def kb_to_source(kb: KnowledgeBase | StratifiedKB) -> str:
    """Canonical source text; identical KBs serialize identically."""
    lines = ["atoms: " + " ".join(kb.signature.atoms)]
    if isinstance(kb, StratifiedKB):
        lines += [f"stratum: {format_formula(f)}" for f in kb.strata]
    else:
        lines += [f"formula: {format_formula(f)}" for f in kb.formulas]
    return "\n".join(lines) + "\n"


@_kept_on_kb
def kb_digest(kb: KnowledgeBase | StratifiedKB) -> str:
    """SHA-256 of the KB's canonical source text, formatted once per KB."""
    return hashlib.sha256(kb_to_source(kb).encode()).hexdigest()


# ------------------------------------------------------------------
# Parser
#
# Line-oriented source:  one `atoms:` header, then `rule:` / `formula:`
# lines (plain KB) or ordered `stratum:` lines (stratified KB).
# Connectives ! & | -> <->, constants TRUE/FALSE, parentheses; `!`
# binds tightest, and `_BINARY` gives the binary connectives' precedence
# and associativity.
# A formula may nest at most MAX_FORMULA_DEPTH levels deep.
# ------------------------------------------------------------------

_LINE_RE = re.compile(r"^\s*(atoms|rule|formula|stratum)\s*:\s*(.*)$")
# One match per token: punctuation, a word (an atom name or a constant),
# or any other non-blank character, which is an error.
_TOKEN_RE = re.compile(
    r"(?P<punct><->|->|[!&|()])|(?P<word>[A-Za-z0-9_:]+)|[^ \t]")
_CONSTANTS = {"TRUE": TOP, "FALSE": BOTTOM}


@dataclass(frozen=True)
class _Token:
    kind: str  # 'atom' 'TRUE' 'FALSE' '!' '&' '|' '->' '<->' '(' ')' 'end'
    text: str
    line: int
    column: int


def _tokenize(payload: str, line_no: int, offset: int) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(payload):
        text, col = m.group(), offset + m.start() + 1
        if m.lastgroup is None:
            raise ParseError(f"unexpected character {text!r}", line_no, col)
        kind = ("atom" if m.lastgroup == "word" and text not in _CONSTANTS
                else text)
        tokens.append(_Token(kind, text, line_no, col))
    tokens.append(_Token("end", "", line_no, offset + len(payload) + 1))
    return tokens


class _FormulaParser:
    """Precedence-climbing parser over a token list (`_BINARY`).

    Each method returns the parsed formula with its depth, so a formula
    deeper than `MAX_FORMULA_DEPTH` is refused at the token where it
    crosses the budget, before anything walks it.  `open` counts the
    operands being parsed below an earlier token; each will add a level
    above its own subtree, so bounding it bounds the parser's recursion.
    """

    def __init__(self, tokens: list[_Token], declared: set[str]):
        self.tokens = tokens
        self.pos = 0
        self.declared = declared
        self.open = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _too_deep(self, tok: _Token) -> ParseError:
        return ParseError(
            f"formula nests deeper than {MAX_FORMULA_DEPTH} levels",
            tok.line, tok.column)

    def _operand(self, tok: _Token, parse, *args) -> tuple[Formula, int]:
        """Parse an operand of the connective or parenthesis at `tok`."""
        self.open += 1
        if self.open > MAX_FORMULA_DEPTH:
            raise self._too_deep(tok)
        result = parse(*args)
        self.open -= 1
        return result

    def _depth(self, tok: _Token, *children: int) -> int:
        """Depth of a node over the given child depths, within budget."""
        depth = 1 + max(children)
        if self.open + depth > MAX_FORMULA_DEPTH:
            raise self._too_deep(tok)
        return depth

    def parse(self) -> Formula:
        f, _ = self.binary(1)
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)
        return f

    def binary(self, lowest: int) -> tuple[Formula, int]:
        """Operands joined by connectives of precedence `lowest` or more.

        A right operand takes only tighter connectives, so this loop nests
        repeats to the left, unless the connective is right-associative.
        """
        f, d = self.unary()
        while (op := _BINARY.get(self.peek().kind)) and op[1] >= lowest:
            node, prec, right_assoc = op
            tok = self.take()
            g, e = self._operand(tok, self.binary,
                                 prec if right_assoc else prec + 1)
            f, d = node(f, g), self._depth(tok, d, e)
        return f, d

    def unary(self) -> tuple[Formula, int]:
        tok = self.take()
        if tok.kind == "!":
            f, d = self._operand(tok, self.unary)
            return Not(f), self._depth(tok, d)
        if tok.kind == "(":
            f, d = self._operand(tok, self.binary, 1)
            closing = self.take()
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.line, closing.column)
            return f, self._depth(tok, d)
        if tok.kind in _CONSTANTS:
            return _CONSTANTS[tok.kind], 0
        if tok.kind == "atom":
            if tok.text not in self.declared:
                raise UndeclaredAtomError(
                    f"undeclared atom {tok.text!r}", tok.line, tok.column
                )
            return Var(tok.text), 0
        raise ParseError(
            f"expected formula, found {tok.text or 'end of line'!r}",
            tok.line,
            tok.column,
        )


def parse_kb(text: str) -> KnowledgeBase | StratifiedKB:
    """Parse KB source text.

    Returns a StratifiedKB when the body uses `stratum:` lines (their file
    order is the semantic stratum order), a KnowledgeBase otherwise.
    """
    signature: Signature | None = None
    declared: set[str] = set()  # the header's atoms, kept for every line
    formulas: list[Formula] = []
    strata: list[Formula] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = _LINE_RE.match(line)
        if not m:
            col = len(line) - len(line.lstrip()) + 1
            raise ParseError("expected 'atoms:', 'rule:', 'formula:' or "
                             "'stratum:' line", line_no, col)
        keyword, payload = m.group(1), m.group(2)
        payload_offset = m.start(2)

        if keyword == "atoms":
            if signature is not None:
                raise ParseError("duplicate atoms: header", line_no, 1)
            names: list[str] = []
            for tok in _tokenize(payload, line_no, payload_offset):
                if tok.kind == "end":
                    break
                if tok.kind != "atom":
                    if tok.kind in _CONSTANTS:
                        raise ParseError(
                            f"{tok.text} is reserved and cannot name an atom",
                            tok.line, tok.column)
                    raise ParseError(
                        f"bad atom name {tok.text!r}", tok.line, tok.column)
                if tok.text in declared:
                    raise DuplicateAtomError(
                        f"duplicate atom {tok.text!r}", tok.line, tok.column)
                declared.add(tok.text)
                names.append(tok.text)
            if not names:
                raise ParseError("empty atoms: header", line_no, 1)
            signature = Signature(tuple(names))
            continue

        if signature is None:
            raise ParseError("atoms: header must come first", line_no, 1)
        parser = _FormulaParser(
            _tokenize(payload, line_no, payload_offset), declared)
        formula = parser.parse()
        if keyword == "stratum":
            strata.append(formula)
        else:
            formulas.append(formula)
        if strata and formulas:
            raise ParseError(
                "cannot mix stratum: with rule:/formula: lines", line_no, 1)

    if signature is None:
        raise ParseError("missing atoms: header", 1, 1)
    if strata:
        return StratifiedKB(signature, tuple(strata))
    return KnowledgeBase(signature, tuple(formulas))


# ------------------------------------------------------------------
# Semantics
# ------------------------------------------------------------------

def _atom_runs(size: int, n: int) -> Iterator[int]:
    """For atom i from n - 1 down, `size` bits in runs of size >> (n - i)
    clear then set bits, each made from the last by one shift and XOR."""
    runs = (1 << size) - (1 << size // 2)
    for i in reversed(range(n)):
        yield runs
        if i:
            runs ^= runs >> (size >> (n - i + 1))


@lru_cache(maxsize=8)
def _universe(n: int) -> tuple[int, tuple[int, ...]]:
    """The set of all 2^n interpretations, and atom i's truth set: atom i
    holds where bit i of the interpretation is set."""
    return (1 << (1 << n)) - 1, tuple(_atom_runs(1 << n, n))[::-1]


def truth_set(formula: Formula, signature: Signature) -> int:
    """The interpretations where the formula holds, as a bit set.

    Bit omega of the result is set exactly when the formula holds under
    interpretation omega.  Each syntax-tree node costs one big-int
    operation over all 2^n interpretations at once.
    """
    n = check_cap(signature)
    return _truth(formula, signature, *_universe(n))


def _truth(formula: Formula, signature: Signature, full: int,
           atoms: tuple[int, ...]) -> int:
    """`truth_set` below the cap check, given `_universe(n)`."""
    if isinstance(formula, Var):
        return atoms[signature.index(formula.name)]
    if isinstance(formula, Const):
        return full if formula.value else 0
    if isinstance(formula, Not):
        return full ^ _truth(formula.sub, signature, full, atoms)
    left = _truth(formula.left, signature, full, atoms)
    right = _truth(formula.right, signature, full, atoms)
    if isinstance(formula, And):
        return left & right
    if isinstance(formula, Or):
        return left | right
    if isinstance(formula, Implies):
        return (full ^ left) | right
    if isinstance(formula, Iff):
        return full ^ left ^ right
    raise TypeError(f"not a formula: {formula!r}")


def check_cap(signature: Signature) -> int:
    """Atom count of the signature; raises above `DEFAULT_MODEL_CAP` atoms."""
    n = len(signature)
    if n > DEFAULT_MODEL_CAP:
        raise CapExceededError(f"signature has {n} atoms, enumeration cap "
                               f"is {DEFAULT_MODEL_CAP}")
    return n


@_kept_on_kb
def _model_set(kb: KnowledgeBase) -> int:
    """The models of the KB as a bit set; the caller checks the cap."""
    full, atoms = _universe(len(kb.signature))
    models = full
    for f in kb.formulas:
        models &= _truth(f, kb.signature, full, atoms)
    return models


def count_models(kb: KnowledgeBase) -> int:
    """Number of models of the KB, without listing them."""
    check_cap(kb.signature)
    return _model_set(kb).bit_count()


# A table over the 2^n masks is built as one big int whose field S, bits
# [32 S, 32 S + 32), holds entry S.  Per byte of a bit set: its members,
# and its bits moved to the low bits of eight little-endian fields.
_BYTE_MEMBERS = [tuple(j for j in range(8) if byte >> j & 1)
                 for byte in range(256)]
_BYTE_FIELDS = [b"".join((byte >> j & 1).to_bytes(4, "little")
                         for j in range(8)) for byte in range(256)]


def _members(bits: int, n: int) -> tuple[int, ...]:
    """The interpretations in a bit set, in ascending bitmask order."""
    data = bits.to_bytes(((1 << n) + 7) // 8, "little")
    return tuple(8 * k + j for k, byte in enumerate(data) if byte
                 for j in _BYTE_MEMBERS[byte])


@lru_cache(maxsize=8)
def _fields(n: int) -> tuple[int, int]:
    """1 in every field over 2^n masks, and S in field S."""
    ones, identity = 1, 0
    for k in range(n):  # the masks with atom k: those without it, plus 2^k
        identity |= (identity | ones << k) << (32 << k)
        ones |= ones << (32 << k)
    return ones, identity


def _spread(bits: int, n: int) -> int:
    """A bit set over 2^n masks with bit S moved to field S."""
    data = bits.to_bytes(((1 << n) + 7) // 8, "little")
    return int.from_bytes(b"".join(map(_BYTE_FIELDS.__getitem__, data)),
                          "little")


def _superset_and(tables: list[int], n: int) -> list[int]:
    """Each table with field S set to the AND of the fields of S's
    supersets, in place: one pass per atom i, in which a field without
    atom i ANDs in the field 2^i fields up, and `keep`, every bit of the
    fields with atom i, leaves those alone.  Returns `tables`."""
    for i, keep in zip(reversed(range(n)), _atom_runs(32 << n, n)):
        for k, x in enumerate(tables):  # one table at a time in memory
            tables[k] = x & (x >> (32 << i) | keep)
    return tables


def _frozen(fields: int, n: int) -> memoryview:
    """The 2^n fields as a read-only sequence of ints."""
    table = array("I", fields.to_bytes(4 << n, "little"))
    if sys.byteorder == "big":
        table.byteswap()
    return memoryview(table).toreadonly()


@_kept_on_kb
def entailment_table(kb: KnowledgeBase) -> memoryview:
    """Entailment for every antecedent, indexed by the antecedent's bitmask.

    Entry S is the AND of the models that contain S, or all n bits when
    no model does, so head b follows from S exactly when bit b of entry S
    is set.  One superset pass per atom (`_superset_and`) fills the
    table in O(n 2^n) steps; the result is read-only.
    """
    n = check_cap(kb.signature)
    nonmodels = _universe(n)[0] ^ _model_set(kb)  # their fields: n bits
    fields = _fields(n)[1] | _spread(nonmodels, n) * ((1 << n) - 1)
    return _frozen(_superset_and([fields], n)[0], n)


def _strictly_below(bits: int, atoms: tuple[int, ...]) -> int:
    """The interpretations strictly contained in some member of the bit set.

    Shifting by 2^i clears atom i: one pass of shifts closes the set
    downwards, and one more pass, clearing one atom of each member of
    that closure, leaves exactly the strict subsets.  2n big-int
    operations over 2^n bits.
    """
    down = bits
    for i, atom_i in enumerate(atoms):
        down |= (down & atom_i) >> (1 << i)
    strict = 0
    for i, atom_i in enumerate(atoms):
        strict |= (down & atom_i) >> (1 << i)
    return strict


def counter_models(kb: KnowledgeBase) -> tuple[int, ...]:
    """For every head b, the maximal models of the KB that lack b.

    S does not entail b exactly when some model lacking b contains S, and
    then so does a maximal model lacking b.  So the union, over every head
    b, of the maximal models that lack b decides every query; it is
    returned in ascending bitmask order.  For a Horn KB these are the
    meet-irreducible closed sets (Ganter and Wille, Formal Concept
    Analysis, 1999).  The all-true interpretation lacks no head, so at
    most 2^n - 1 are returned; none when the KB is inconsistent.

    Per head, the models lacking b less those strictly below one of them
    (`_strictly_below`): O(n^2) big-int operations over 2^n bits in all.
    """
    n = check_cap(kb.signature)
    atoms = _universe(n)[1]
    models = _model_set(kb)
    needed = 0
    for atom_b in atoms:
        lack = models & ~atom_b
        needed |= lack & ~_strictly_below(lack, atoms)
    return _members(needed, n)


def entails(kb: KnowledgeBase, antecedent: Iterable[str], head: str) -> bool:
    """Does every model of the KB that satisfies the antecedent atoms satisfy head?

    An empty antecedent asks whether head holds in every model; callers
    that quantify over rules use non-empty antecedents only.
    """
    smask = kb.signature.mask(antecedent)
    hbit = kb.signature.bit(head)
    return bool(entailment_table(kb)[smask] & hbit)


@_kept_on_kb
def _rank_at_least(theta: StratifiedKB) -> tuple[int, ...]:
    """Entry r is the set of interpretations of rank at least r, for r
    from 0 up to the highest rank any interpretation has; the caller
    checks the cap.

    A running AND over the strata keeps the interpretations that satisfy
    every stratum so far; it stops at the first stratum that leaves none.
    """
    full, atoms = _universe(len(theta.signature))
    sets = [full]
    for stratum in theta.strata:
        alive = sets[-1] & _truth(stratum, theta.signature, full, atoms)
        if not alive:
            break
        sets.append(alive)
    return tuple(sets)


@_kept_on_kb
def rank_table(theta: StratifiedKB) -> memoryview:
    """Rank of every interpretation, indexed by bitmask; read-only.

    Each interpretation gains a rank for every level r >= 1 whose set
    `_rank_at_least` puts it in.
    """
    n = check_cap(theta.signature)
    return _frozen(sum(_spread(at_least, n)
                       for at_least in _rank_at_least(theta)[1:]), n)


def ranked_counter_models(theta: StratifiedKB) -> tuple[int, ...]:
    """The interpretations that can be the best-ranked superset of a query.

    S |> b compares the best rank over the supersets of S that contain b
    with the best rank over those that lack b.  Returned, in ascending
    bitmask order, are the all-true interpretation, which contains every
    S, and, for every head b and rank level r, the interpretations of
    rank exactly r lacking b that no interpretation of rank at least r
    lacking b strictly contains: the ranked models (Lehmann and Magidor,
    "What does a conditional knowledge base entail?", 1992) that the rank
    comparison reads.  Any other interpretation w has, for each atom c
    that it lacks, a strict superset of rank at least mu(w) lacking c,
    which stands in for w in either maximum; the `constructors` docstring
    gives the argument.  At most 2^n are returned.

    Per head and level, `_strictly_below` over the sets of
    `_rank_at_least`: O(n^2) big-int operations over 2^n bits per level.
    """
    n = check_cap(theta.signature)
    atoms = _universe(n)[1]
    at_least = _rank_at_least(theta) + (0,)
    kept = 1 << ((1 << n) - 1)
    for atom_b in atoms:
        for ge, above in zip(at_least, at_least[1:]):
            exact = ge & ~above & ~atom_b
            if exact:
                kept |= exact & ~_strictly_below(ge & ~atom_b, atoms)
    return _members(kept, n)


@_kept_on_kb
def nm_consequence_table(theta: StratifiedKB) -> memoryview:
    """Ranked-default consequence for every antecedent, indexed by bitmask.

    Entry S is the AND of the best-ranked interpretations that contain
    S.  The best rank with head b beats the best rank without it exactly
    when every best-ranked interpretation containing S satisfies b, so
    S |> b holds exactly when bit b of entry S is set.  Each level r >= 1
    of `_rank_at_least` gets a superset transform from field S = S if S
    has rank at least r, else all n bits and a flag, bit n, which
    survives exactly when no superset of S does.  The highest unflagged
    level is S's best rank, and its field entry S; with none, entry S is
    S.  O(n 2^n) steps per level; the result is read-only.
    """
    n = check_cap(theta.signature)
    full = _universe(n)[0]
    ones, identity = _fields(n)
    levels = _superset_and(
        [identity | _spread(full ^ at_least, n) * ((2 << n) - 1)
         for at_least in _rank_at_least(theta)[1:]], n)
    best = identity
    for level in levels:
        reached = (ones ^ (level >> n & ones)) * 0xFFFFFFFF
        best ^= (best ^ level) & reached
    return _frozen(best, n)


def consequence_table(kb: KnowledgeBase | StratifiedKB) -> memoryview:
    """The KB's consequence table: `entailment_table` for a plain KB,
    `nm_consequence_table` for a stratified one.

    This is the one place a KB's type picks its consequence relation;
    every reader indexes the result by subset mask, bit b for head b.
    """
    if isinstance(kb, StratifiedKB):
        return nm_consequence_table(kb)
    return entailment_table(kb)

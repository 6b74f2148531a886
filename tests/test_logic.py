"""Parser, semantics, and the two consequence relations."""

import gc
import hashlib
import random
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DEEP_FORMULA_PROBES, follows, formulas_over, plain_kbs,
                      random_embedding, random_formula, random_rule_kb,
                      random_stratified_kb)
from embedsim import logic
from embedsim.logic import (BOTTOM, MAX_FORMULA_DEPTH, TOP, And,
                            CapExceededError, DuplicateAtomError, Iff,
                            Implies, KnowledgeBase, Not, Or, ParseError,
                            Signature, StratifiedKB, UndeclaredAtomError, Var,
                            count_models, counter_models, entails,
                            format_formula, kb_digest, kb_to_source, parse_kb,
                            rank_table, truth_set)
from embedsim.fixtures import FIXTURE_SOURCES, fixture
from embedsim.strategies import HAD_DOT
from embedsim.verifier import verify_monotonic
from oracles import (mask_names, scan_counter_models, tt_entails, tt_evaluate,
                     tt_models, tt_mu, tt_nm_def, tt_nm_rank)
from references import (ref_entailment_table, ref_format_formula,
                        ref_models, ref_nm_consequence_table, ref_parse_kb,
                        ref_rank_table)


# ------------------------------------------------------------------
# Parsing
# ------------------------------------------------------------------

# formula text nesting k levels deep, one shape per way of nesting
DEPTH_SHAPES = {
    "not": lambda k: "!" * k + "a",
    "paren": lambda k: "(" * k + "a" + ")" * k,
    "and": lambda k: " & ".join(["a"] * (k + 1)),
    "or": lambda k: " | ".join(["a"] * (k + 1)),
    "iff": lambda k: " <-> ".join(["a"] * (k + 1)),
    "implies": lambda k: " -> ".join(["a"] * (k + 1)),
    "paren-and": lambda k: "(" * (k - 1) + "a & a" + ")" * (k - 1),
    "and-of-parens": lambda k: " & ".join(["(a)"] * k),
}


class TestParser:
    def test_basic_rule_file(self):
        kb = parse_kb("atoms: a b x\nrule: a & b -> x\n")
        assert isinstance(kb, KnowledgeBase)
        assert kb.signature.atoms == ("a", "b", "x")
        assert kb.formulas == (Implies(And(Var("a"), Var("b")), Var("x")),)

    def test_stratified_file(self):
        theta = parse_kb("atoms: t f apple safari\n"
                         "stratum: !t | !f\n"
                         "stratum: apple & safari -> t\n"
                         "stratum: apple -> f\n")
        assert isinstance(theta, StratifiedKB)
        assert len(theta.strata) == 3
        assert theta.strata[0] == Or(Not(Var("t")), Not(Var("f")))

    def test_ex4_fixture_is_stratified_with_k3(self):
        theta = fixture("EX4")
        assert isinstance(theta, StratifiedKB)
        assert len(theta.strata) == 3
        assert "cat:food" in theta.signature.atoms

    def test_undeclared_atom(self):
        with pytest.raises(UndeclaredAtomError) as err:
            parse_kb("atoms: a x\nrule: a & q -> x\n")
        assert err.value.line == 2
        assert "q" in str(err.value)

    def test_duplicate_atom(self):
        with pytest.raises(DuplicateAtomError):
            parse_kb("atoms: a b a\n")

    def test_wide_header_parses_quickly(self):
        # checking each atom against a list of the atoms read so far, or
        # rebuilding their set for each formula line, is quadratic: a
        # 40,000-atom header took 17.5 s that way (2-vCPU VM)
        names = [f"p{i}" for i in range(100_000)]
        header = "atoms: " + " ".join(names) + "\n"
        started = time.perf_counter()
        kb = parse_kb(header + "rule: p0 & p99999 -> p5\n" * 100)
        assert time.perf_counter() - started < 5
        assert len(kb.signature) == 100_000 and len(kb.formulas) == 100
        # a duplicate at the far end is still found where it stands
        with pytest.raises(DuplicateAtomError,
                           match=r"^line 1, column \d+: duplicate atom 'p7'$"
                           ) as err:
            parse_kb(header.rstrip("\n") + " p7\n")
        assert err.value.column == len(header) + 1

    def test_duplicate_header(self):
        with pytest.raises(ParseError):
            parse_kb("atoms: a\natoms: b\n")

    def test_reserved_atom_name(self):
        with pytest.raises(ParseError):
            parse_kb("atoms: a TRUE\n")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_kb("atoms: a b\nformula: a & & b\n")
        assert err.value.line == 2

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_kb("rule: a -> b\n")

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse_kb("")

    def test_mixed_stratum_and_rule(self):
        with pytest.raises(ParseError):
            parse_kb("atoms: a b\nstratum: a\nrule: a -> b\n")

    def test_comments_and_blank_lines(self):
        kb = parse_kb("# heading\natoms: a b  # trailing\n\nrule: a -> b\n")
        assert len(kb.formulas) == 1

    def test_reserved_words_as_constants(self):
        kb = parse_kb("atoms: a\nformula: TRUE -> a\nformula: !FALSE\n")
        assert kb.formulas[0] == Implies(TOP, Var("a"))

    def test_precedence_and_associativity(self):
        from embedsim.logic import Iff
        kb = parse_kb("atoms: a b c d\nformula: !a & b | c -> d <-> a\n")
        f = kb.formulas[0]
        # <-> binds loosest, -> next, then |, &, !
        assert f == Iff(Implies(Or(And(Not(Var("a")), Var("b")), Var("c")),
                                Var("d")),
                        Var("a"))
        assert format_formula(f) == "!a & b | c -> d <-> a"
        assert format_formula(And(Or(Var("a"), Var("b")), Var("c"))) \
            == "(a | b) & c"

    def test_implies_right_associative(self):
        kb = parse_kb("atoms: a b c\nformula: a -> b -> c\n")
        assert kb.formulas[0] == Implies(Var("a"), Implies(Var("b"), Var("c")))

    def test_colon_atoms(self):
        kb = parse_kb("atoms: cat:food apple\nrule: apple -> cat:food\n")
        assert "cat:food" in kb.signature.atoms

    def test_roundtrip_through_canonical_source(self):
        rng = random.Random(7)
        for _ in range(25):
            kb = random_rule_kb(rng, ["a", "b", "c", "d"])
            assert parse_kb(kb_to_source(kb)) == kb

    @pytest.mark.parametrize("probe", sorted(DEEP_FORMULA_PROBES))
    def test_depth_budget_stops_deep_formulas(self, probe):
        payload, column = DEEP_FORMULA_PROBES[probe]
        with pytest.raises(ParseError, match="deeper than 100") as err:
            parse_kb(f"atoms: a\nformula: {payload}\n")
        assert (err.value.line, err.value.column) == (2, column)

    @pytest.mark.parametrize("shape", DEPTH_SHAPES.values(),
                             ids=DEPTH_SHAPES.keys())
    def test_depth_budget_is_exact(self, shape):
        # depth counts parentheses, `!` and binary connectives on a path
        def source(depth):
            return f"atoms: a\nformula: {shape(depth)}\n"

        at_budget = parse_kb(source(MAX_FORMULA_DEPTH))
        assert parse_kb(kb_to_source(at_budget)) == at_budget
        with pytest.raises(ParseError, match="deeper than"):
            parse_kb(source(MAX_FORMULA_DEPTH + 1))

    @settings(max_examples=150)
    @given(st.text(
        alphabet="abx: \n\t#!&|<->()TRUEFALSEatomsrulformstr_0",
        max_size=120))
    def test_parser_total_over_junk(self, text):
        # arbitrary input either parses or raises a positioned parse error
        try:
            kb = parse_kb(text)
        except ParseError:
            return
        assert isinstance(kb, (KnowledgeBase, StratifiedKB))
        assert parse_kb(kb_to_source(kb)) == kb


def _parsed(parse, text):
    """The parse result, or the error's class, message and position."""
    try:
        return parse(text)
    except ParseError as err:
        return type(err), str(err), err.line, err.column


# tokens, near-tokens and stray characters for formula lines
_SOUP = ["a", "b", "c", "TRUE", "FALSE", "TRUEa", "!", "&", "|", "->", "<->",
         "(", ")", "<", "-", ">", "<-", " ", "\t", "$", "\xa0", "a:b", "#"]


class TestParserMatchesReference:
    """The table-driven tokenizer, parser and printer against the
    per-level ones of `tests/references.py`: equal ASTs, or equal error
    class, message, line and column."""

    @settings(max_examples=400)
    @given(st.text(
        alphabet="abc: \n\t#!&|<->()TRUEFALSEatomsrulformstr_0$\xa0\r",
        max_size=120))
    def test_junk_text(self, text):
        assert _parsed(parse_kb, text) == _parsed(ref_parse_kb, text)

    def test_token_soup_lines(self):
        rng = random.Random(2027)
        for _ in range(3000):
            payload = "".join(rng.choices(_SOUP, k=rng.randint(0, 14)))
            keyword = rng.choice(["formula", "rule", "stratum", "atoms"])
            text = f"atoms: a b c\n{keyword}: {payload}\n"
            assert _parsed(parse_kb, text) == _parsed(ref_parse_kb, text)

    @settings(max_examples=300)
    @given(st.lists(formulas_over(4), min_size=1, max_size=3))
    def test_printed_formulas(self, formulas):
        kb = KnowledgeBase(Signature(("p0", "p1", "p2", "p3")),
                           tuple(formulas))
        assert [format_formula(f) for f in formulas] \
            == [ref_format_formula(f) for f in formulas]
        source = kb_to_source(kb)
        assert parse_kb(source) == ref_parse_kb(source) == kb

    @pytest.mark.parametrize("probe", sorted(DEEP_FORMULA_PROBES))
    def test_deep_probes(self, probe):
        text = f"atoms: a\nformula: {DEEP_FORMULA_PROBES[probe][0]}\n"
        assert _parsed(parse_kb, text) == _parsed(ref_parse_kb, text)

    @pytest.mark.parametrize("shape", DEPTH_SHAPES.values(),
                             ids=DEPTH_SHAPES.keys())
    @pytest.mark.parametrize("depth", [MAX_FORMULA_DEPTH - 1,
                                       MAX_FORMULA_DEPTH,
                                       MAX_FORMULA_DEPTH + 1])
    def test_depth_shapes(self, shape, depth):
        text = f"atoms: a\nformula: {shape(depth)}\n"
        assert _parsed(parse_kb, text) == _parsed(ref_parse_kb, text)


# ------------------------------------------------------------------
# Evaluation and model enumeration
# ------------------------------------------------------------------

class TestSemantics:
    sig = Signature(("a", "b"))

    def test_evaluate_conjunction(self):
        assert truth_set(And(Var("a"), Var("b")), self.sig) == 1 << 0b11

    def test_evaluate_implication_false(self):
        # a -> b fails only where a holds and b does not
        assert truth_set(Implies(Var("a"), Var("b")), self.sig) == 0b1101

    def test_evaluate_negated_disjunction(self):
        sig = Signature(("t", "f"))
        assert not truth_set(Or(Not(Var("t")), Not(Var("f"))), sig) >> 0b11 & 1

    def test_models_of_single_implication(self):
        kb = parse_kb("atoms: a b\nrule: a -> b\n")
        assert ref_models(kb) == (0b00, 0b10, 0b11)
        assert count_models(kb) == 3

    def test_models_inconsistent(self):
        kb = parse_kb("atoms: a\nformula: a\nformula: !a\n")
        assert ref_models(kb) == ()
        assert count_models(kb) == 0

    def test_models_empty_kb(self):
        kb = parse_kb("atoms: a\n")
        assert ref_models(kb) == (0, 1)
        assert count_models(kb) == 2

    def test_model_cap(self):
        kb = KnowledgeBase(Signature(tuple(f"p{i}" for i in range(21))), ())
        with pytest.raises(CapExceededError):
            count_models(kb)

    def test_cap_checked_before_evaluating(self, monkeypatch):
        def no_evaluation(*args):
            raise AssertionError("evaluated a formula past the cap")

        monkeypatch.setattr(logic, "_truth", no_evaluation)
        monkeypatch.setattr(logic, "_universe", no_evaluation)
        sig = Signature(tuple(f"p{i}" for i in range(21)))
        kb = KnowledgeBase(sig, (Var("p0"),))
        with pytest.raises(CapExceededError, match="21 atoms"):
            truth_set(Var("p0"), sig)
        with pytest.raises(CapExceededError, match="21 atoms"):
            count_models(kb)
        with pytest.raises(CapExceededError, match="21 atoms"):
            counter_models(kb)
        with pytest.raises(CapExceededError, match="21 atoms"):
            entails(kb, ("p0",), "p1")

    @settings(max_examples=200)
    @given(plain_kbs(max_atoms=7))
    def test_counter_models_match_quadratic_scan(self, kb):
        assert counter_models(kb) == scan_counter_models(kb)

    def test_models_match_truth_table_oracle(self):
        rng = random.Random(11)
        for _ in range(30):
            kb = random_rule_kb(rng, ["a", "b", "c", "d", "e"])
            expected = sorted(kb.signature.mask(a for a, v in m.items() if v)
                              for m in tt_models(kb))
            assert ref_models(kb) == tuple(expected)
            assert count_models(kb) == len(expected)


def _assignment(atoms, omega):
    return {a: bool(omega >> i & 1) for i, a in enumerate(atoms)}


_SIX_ATOM_FORMULAS = formulas_over(6)


def _fold(f, n):
    """The formula with every atom p_i renamed p_(i mod n)."""
    if isinstance(f, Var):
        return Var(f"p{int(f.name[1:]) % n}")
    if isinstance(f, Not):
        return Not(_fold(f.sub, n))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(_fold(f.left, n), _fold(f.right, n))
    return f


@st.composite
def signatures_with_formulas(draw, max_formulas):
    """1-6 atoms, so truth sets shorter than a byte occur, and up to
    `max_formulas` formulas over them."""
    n = draw(st.integers(1, 6))
    formulas = draw(st.lists(_SIX_ATOM_FORMULAS, max_size=max_formulas))
    return (Signature(tuple(f"p{i}" for i in range(n))),
            tuple(_fold(f, n) for f in formulas))


class TestTruthSetsMatchTruthTables:
    """The per-node bit-set evaluation against the per-interpretation
    tree walk of `tests/oracles.py`."""

    @settings(max_examples=200)
    @given(signatures_with_formulas(max_formulas=3))
    def test_truth_sets(self, drawn):
        sig, formulas = drawn
        for f in formulas:
            bits = truth_set(f, sig)
            assert bits >> (1 << len(sig)) == 0
            for omega in range(1 << len(sig)):
                want = tt_evaluate(f, _assignment(sig.atoms, omega))
                assert bool(bits >> omega & 1) == want

    @settings(max_examples=200)
    @given(signatures_with_formulas(max_formulas=4))
    def test_models(self, drawn):
        # no formulas: every interpretation is a model
        kb = KnowledgeBase(*drawn)
        want = sorted(kb.signature.mask(a for a, v in m.items() if v)
                      for m in tt_models(kb))
        assert ref_models(kb) == tuple(want)
        assert count_models(kb) == len(want)

    @settings(max_examples=200)
    @given(signatures_with_formulas(max_formulas=4).filter(lambda d: d[1]))
    def test_ranks(self, drawn):
        theta = StratifiedKB(*drawn)
        ranks = rank_table(theta)
        assert len(ranks) == 1 << len(theta.signature)
        assert ranks.readonly
        for omega in range(1 << len(theta.signature)):
            want = tt_mu(theta, _assignment(theta.signature.atoms, omega))
            assert ranks[omega] == want

    def test_inconsistent_kb_has_no_models(self):
        for n in range(1, 7):
            atoms = tuple(f"p{i}" for i in range(n))
            kb = KnowledgeBase(Signature(atoms),
                               (Var("p0"), Or(Not(Var("p0")), BOTTOM)))
            assert count_models(kb) == 0
            assert not tt_models(kb)

    def test_unsatisfiable_stratum_stops_the_ranks(self):
        # nothing passes the middle stratum, so the last one is never
        # reached and no interpretation ranks above 1
        theta = parse_kb("atoms: a b c\nstratum: a | b\n"
                         "stratum: c & !c\nstratum: a\n")
        want = [tt_mu(theta, _assignment(theta.signature.atoms, omega))
                for omega in range(8)]
        assert list(rank_table(theta)) == want == [0, 1, 1, 1, 0, 1, 1, 1]


class TestEntails:
    def test_ce1_pattern(self):
        kb = fixture("CE1")
        assert entails(kb, ("a", "b"), "x")
        assert not entails(kb, ("a", "c"), "x")

    def test_reflexivity(self):
        kb = fixture("CE1")
        for a in kb.signature.atoms:
            assert entails(kb, (a,), a)

    def test_empty_antecedent_internal_query(self):
        kb = fixture("CE3")
        assert not entails(kb, (), "x")
        assert not entails(kb, (), "y")

    def test_matches_oracle_exhaustively(self):
        rng = random.Random(23)
        atoms = ["a", "b", "c", "d", "e"]
        for _ in range(20):
            kb = random_rule_kb(rng, atoms)
            for mask in range(1, 32):
                subset = tuple(a for i, a in enumerate(atoms) if mask >> i & 1)
                for head in atoms:
                    assert entails(kb, subset, head) == tt_entails(
                        kb, subset, head)

    @settings(max_examples=60)
    @given(st.data())
    def test_monotonicity(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        atoms = ["a", "b", "c", "d"]
        kb = random_rule_kb(rng, atoms)
        small = data.draw(st.sets(st.sampled_from(atoms), min_size=1))
        extra = data.draw(st.sets(st.sampled_from(atoms)))
        big = small | extra
        head = data.draw(st.sampled_from(atoms))
        if entails(kb, tuple(small), head):
            assert entails(kb, tuple(big), head)


# ------------------------------------------------------------------
# Ranked-default consequence
# ------------------------------------------------------------------

class TestRankMu:
    def test_ex4_full_rank(self):
        theta = fixture("EX4")
        omega = theta.signature.mask(("apple", "cat:food"))
        assert rank_table(theta)[omega] == 3
        assert rank_table(theta)[omega] == tt_mu(
            theta, {a: bool(omega >> i & 1)
                    for i, a in enumerate(theta.signature.atoms)})

    def test_ex4_first_stratum_fails(self):
        theta = fixture("EX4")
        omega = theta.signature.mask(
            ("apple", "safari", "cat:food", "cat:technology"))
        assert rank_table(theta)[omega] == 0

    def test_all_strata_hold(self):
        theta = parse_kb("atoms: a b\nstratum: a\nstratum: a | b\n")
        assert rank_table(theta)[0b01] == 2

    def test_matches_oracle(self):
        rng = random.Random(5)
        atoms = ["a", "b", "c", "d"]
        for _ in range(25):
            theta = random_stratified_kb(rng, atoms, max_strata=4)
            for omega in range(16):
                assignment = {a: bool(omega >> i & 1)
                              for i, a in enumerate(atoms)}
                assert rank_table(theta)[omega] == tt_mu(theta, assignment)


class TestNonMonotonicConsequence:
    def test_ex4_verdicts_def(self):
        theta = fixture("EX4")
        assert tt_nm_def(theta, ("apple",), "cat:food")
        assert tt_nm_def(theta, ("apple", "safari"), "cat:technology")
        assert not tt_nm_def(theta, ("apple", "safari"), "cat:food")

    def test_ex4_verdicts_rank(self):
        theta = fixture("EX4")
        assert follows(theta, ("apple",), "cat:food")
        assert follows(theta, ("apple", "safari"), "cat:technology")
        assert not follows(theta, ("apple", "safari"), "cat:food")

    def test_reflexive_head_in_antecedent(self):
        theta = parse_kb("atoms: a b\nstratum: a -> b\n")
        assert follows(theta, ("a",), "a")
        assert tt_nm_def(theta, ("a",), "a")

    def test_nonmonotonic_example(self):
        theta = fixture("ORD-NM")
        assert follows(theta, ("a",), "x")
        assert not follows(theta, ("a", "b"), "x")

    def test_rank_table_cap(self, monkeypatch):
        # 2^21 interpretations exceed the enumeration budget: the
        # relation refuses before evaluating a single formula
        atoms = " ".join(f"p{i}" for i in range(21))
        theta = parse_kb(f"atoms: {atoms}\nstratum: p0 -> p1\n")

        def no_evaluation(*args):
            raise AssertionError("evaluated a formula past the cap")

        monkeypatch.setattr(logic, "_truth", no_evaluation)
        monkeypatch.setattr(logic, "_universe", no_evaluation)
        with pytest.raises(CapExceededError, match="21 atoms"):
            follows(theta, ("p0",), "p1")

    def test_def_equals_rank_random(self):
        rng = random.Random(17)
        atoms = ["a", "b", "c", "d"]
        for _ in range(60):
            theta = random_stratified_kb(rng, atoms, max_strata=4)
            for mask in range(1, 16):
                subset = tuple(a for i, a in enumerate(atoms) if mask >> i & 1)
                for head in atoms:
                    assert (tt_nm_def(theta, subset, head)
                            == follows(theta, subset, head))

    def test_rank_matches_independent_oracles(self):
        rng = random.Random(29)
        atoms = ["a", "b", "c"]
        for _ in range(40):
            theta = random_stratified_kb(rng, atoms, max_strata=3)
            for mask in range(1, 8):
                subset = tuple(a for i, a in enumerate(atoms) if mask >> i & 1)
                for head in atoms:
                    want = tt_nm_rank(theta, subset, head)
                    assert follows(theta, subset, head) == want
                    assert tt_nm_def(theta, subset, head) == want

    @settings(max_examples=60)
    @given(st.data())
    def test_def_equals_rank_on_formula_trees(self, data):
        # hypothesis-built strata rather than the seeded generator
        atoms = ("a", "b", "c", "d")
        leaf = st.sampled_from([Var(a) for a in atoms] + [TOP])
        trees = st.recursive(
            leaf,
            lambda kids: st.one_of(
                st.builds(Not, kids),
                st.builds(And, kids, kids),
                st.builds(Or, kids, kids),
                st.builds(Implies, kids, kids)),
            max_leaves=6)
        strata = data.draw(st.lists(trees, min_size=1, max_size=4))
        theta = StratifiedKB(Signature(atoms), tuple(strata))
        subset = tuple(sorted(data.draw(
            st.sets(st.sampled_from(atoms), min_size=1))))
        head = data.draw(st.sampled_from(atoms))
        assert (tt_nm_def(theta, subset, head)
                == follows(theta, subset, head))


# ------------------------------------------------------------------
# Consequence tables (superset transforms)
# ------------------------------------------------------------------

def _formula_kb(rng, atoms):
    # arbitrary formulas, so model sets are not closed under anything
    return KnowledgeBase(Signature(tuple(atoms)), tuple(
        random_formula(rng, atoms) for _ in range(rng.randint(1, 3))))


class TestConsequenceTables:
    atoms = ["a", "b", "c", "d"]

    def test_entailment_table_matches_truth_tables(self):
        rng = random.Random(41)
        kbs = [random_rule_kb(rng, self.atoms) for _ in range(10)]
        kbs += [_formula_kb(rng, self.atoms) for _ in range(10)]
        for kb in kbs:
            table = logic.entailment_table(kb)
            assert len(table) == 16 and table.readonly
            # every antecedent, the empty one and those holding the head
            for mask in range(16):
                subset = mask_names(kb.signature, mask)
                for head in self.atoms:
                    want = tt_entails(kb, subset, head)
                    assert bool(table[mask] & kb.signature.bit(head)) == want
                    assert entails(kb, subset, head) == want

    def test_consequence_table_picks_the_relation_by_kb_type(self):
        kb, theta = fixture("CE1"), fixture("EX4")
        assert logic.consequence_table(kb) is logic.entailment_table(kb)
        assert (logic.consequence_table(theta)
                is logic.nm_consequence_table(theta))

    def test_inconsistent_kb_entails_everything(self):
        kb = parse_kb("atoms: a b c d\nformula: a\nformula: !a\n")
        assert list(logic.entailment_table(kb)) == [0b1111] * 16
        assert entails(kb, (), "a") and entails(kb, ("b", "c"), "d")
        assert entails(kb, ("a",), "a")

    def test_rank_table_matches_both_definitions(self):
        rng = random.Random(43)
        for _ in range(25):
            theta = random_stratified_kb(rng, self.atoms, max_strata=4)
            table = logic.nm_consequence_table(theta)
            assert len(table) == 16 and table.readonly
            for mask in range(1, 16):
                subset = mask_names(theta.signature, mask)
                for head in self.atoms:
                    want = tt_nm_rank(theta, subset, head)
                    got = bool(table[mask] & theta.signature.bit(head))
                    assert got == want
                    assert follows(theta, subset, head) == want
                    assert tt_nm_def(theta, subset, head) == want
                    if head in subset:
                        assert want

    def test_unsatisfiable_stratum_leaves_only_the_antecedent(self):
        # every interpretation has rank 0, so S |> b exactly when b is in S
        theta = parse_kb("atoms: a b c\nstratum: a & !a\n")
        for mask in range(1, 8):
            subset = mask_names(theta.signature, mask)
            for head in ("a", "b", "c"):
                assert follows(theta, subset, head) == (
                    head in subset)
                assert tt_nm_rank(theta, subset, head) == (head in subset)


# `stratified_kb_source(random.Random('big'), 20, 4)` of
# perfbench/workloads.py: 20 atoms, ranks 0-4
BIG_KB = ("atoms: " + " ".join(f"p{i}" for i in range(20)) + "\n"
          "stratum: ((p17 -> p2) & (p10 <-> p10))\nstratum: p18\n"
          "stratum: p6\nstratum: p13\n")


class TestTablesMatchNumpyReference:
    """The big-int tables against the numpy builders they replaced
    (`tests/references.py`), entry for entry."""

    @staticmethod
    def assert_tables_match(kb):
        if isinstance(kb, StratifiedKB):
            assert list(logic.nm_consequence_table(kb)) == (
                ref_nm_consequence_table(kb).tolist())
            assert list(rank_table(kb)) == ref_rank_table(kb).tolist()
        else:
            assert list(logic.entailment_table(kb)) == (
                ref_entailment_table(kb).tolist())

    @pytest.mark.parametrize("n", range(1, 15))
    def test_seeded_kbs(self, n):
        rng = random.Random(f"tables {n}")
        atoms = [f"p{i}" for i in range(n)]
        kbs = [random_rule_kb(rng, atoms) for _ in range(3)]
        kbs += [_formula_kb(rng, atoms) for _ in range(2)]
        kbs += [random_stratified_kb(rng, atoms, max_strata=5)
                for _ in range(3)]
        for kb in kbs:
            self.assert_tables_match(kb)

    def test_twenty_atoms_four_strata(self):
        theta = parse_kb(BIG_KB)
        assert len(logic._rank_at_least(theta)) == 5
        self.assert_tables_match(theta)

    def test_ten_rank_levels(self):
        atoms = [f"p{i}" for i in range(12)]
        theta = parse_kb(f"atoms: {' '.join(atoms)}\n" + "".join(
            f"stratum: p{i} | p{(i + 3) % 12} & !p{(i + 5) % 12}\n"
            for i in range(10)))
        assert len(logic._rank_at_least(theta)) == 11
        self.assert_tables_match(theta)

    @pytest.mark.parametrize("table", ["entailment_table", "rank_table",
                                       "nm_consequence_table"])
    def test_writing_to_a_table_raises(self, table):
        kb = fixture("CE1" if table == "entailment_table" else "EX4")
        derived = getattr(logic, table)(kb)
        before = list(derived)
        with pytest.raises(TypeError):
            derived[0] = 1
        assert list(getattr(logic, table)(kb)) == before


class TestKBHashAndDigestOnce:
    """Each KB object formats its source text once and keeps its tables;
    the values are those derived from the fields every time, and they
    live exactly as long as the KB object."""

    @staticmethod
    def _kbs():
        rng = random.Random(47)
        atoms = ["a", "b", "c", "d"]
        return ([fixture(name) for name in sorted(FIXTURE_SOURCES)]
                + [random_rule_kb(rng, atoms) for _ in range(10)]
                + [random_stratified_kb(rng, atoms) for _ in range(10)])

    def test_digest_is_the_source_text_hash(self):
        for kb in self._kbs():
            want = hashlib.sha256(kb_to_source(kb).encode()).hexdigest()
            assert kb_digest(kb) == want
            assert kb_digest(kb) == want  # and again, from the cache

    def test_hash_is_the_field_tuple_hash(self):
        for kb in self._kbs():
            body = kb.formulas if isinstance(kb, KnowledgeBase) else kb.strata
            assert hash(kb) == hash((kb.signature, body))

    def test_equal_kbs_hash_and_compare_equal(self):
        for kb in self._kbs():
            again = parse_kb(kb_to_source(kb))
            assert again is not kb
            assert again == kb and hash(again) == hash(kb)
            # each KB derives its own table, equal to the other's
            mine = logic.consequence_table(again)
            theirs = logic.consequence_table(kb)
            assert mine is not theirs and mine == theirs

    @pytest.mark.parametrize("table", ["entailment_table", "rank_table",
                                       "nm_consequence_table"])
    def test_tables_die_with_their_kb(self, table):
        rng = random.Random(61)
        atoms = ["a", "b", "c", "d"]
        kb = (random_rule_kb(rng, atoms) if table == "entailment_table"
              else random_stratified_kb(rng, atoms))
        derived = getattr(logic, table)(kb)
        assert getattr(logic, table)(kb) is derived  # kept on the KB
        alive = weakref.ref(derived)
        del kb, derived
        gc.collect()
        assert alive() is None

    def test_two_sweeps_format_the_source_once(self, monkeypatch):
        calls = []

        def counting(kb):
            calls.append(kb)
            return kb_to_source(kb)

        monkeypatch.setattr(logic, "kb_to_source", counting)
        kb = random_rule_kb(random.Random(53), ["a", "b", "c"])
        emb = random_embedding(random.Random(59), ["a", "b", "c"])
        first = verify_monotonic(emb, HAD_DOT, kb)
        second = verify_monotonic(emb, HAD_DOT, kb)
        assert first.kb_digest == second.kb_digest
        assert calls == [kb]

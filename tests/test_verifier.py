"""Verification sweeps, property checks, determinism."""

import collections.abc
import random
from dataclasses import replace
from fractions import Fraction
from functools import partial
from math import comb

import pytest

import embedsim.logic as logic
import embedsim.verifier as verifier
from conftest import (EXACT_STRATEGIES, accepts, follows, pool,
                      random_embedding, random_rule_kb, random_stratified_kb,
                      reported)
from embedsim.constructors import RECIPES, construct
from embedsim.fixtures import fixture
from embedsim.logic import (KnowledgeBase, Signature, StratifiedKB, entails,
                            parse_kb)
from embedsim.strategies import (AVG_DIST, AVG_DOT, HAD_DOT, HAD_DOT_TIED,
                                 NORM_DIST,
                                 ORD_ORD, AttributeEmbedding,
                                 DimensionMismatchError, DistLabeller,
                                 DistOnNormLabeller, DotLabeller,
                                 DotOnNormLabeller, ExactEvaluationError,
                                 OrdLabeller, ReluLabeller, StrategyId, scale)
from embedsim.certifier import GENERIC_ATOM_CAP
from embedsim.verifier import (MAX_SWEEP_QUERIES, nonempty_subsets,
                               subset_queries, sweep_queries,
                               verify_monotonic, verify_nonmonotonic)
from oracles import (mask_filter_subsets, syntax_nodes, tt_assignments,
                     tt_entails, tt_mu, tt_nm_rank)
import references
from references import ref_check_ord_monotonicity, ref_evaluate

F = Fraction

ATOMS = tuple("abcdefghi")

CE1_QUERIES = [(("a", "b"), "x"), (("c", "d"), "x"),
               (("a", "c"), "x"), (("b", "d"), "x")]


def distance_witness_embedding() -> AttributeEmbedding:
    vals = {"a": (-1, 0), "b": (1, 0), "c": (0, -1), "d": (0, 1), "x": (0, 0)}
    ctx = {k: (F(v[0]), F(v[1])) for k, v in vals.items()}
    return AttributeEmbedding(2, dict(ctx), dict(ctx),
                              theta={"x": F(1, 2)})


class TestVerifyMonotonic:
    def test_construction_round_trips(self):
        rng = random.Random(81)
        for _ in range(10):
            kb = random_rule_kb(rng, ["a", "b", "c", "d", "e"])
            res = construct(kb, 1)
            report = verify_monotonic(res.embedding, res.strategy, kb)
            assert report.simulates
            assert report.queries == 31 * 5

    def test_random_embedding_always_misses_a_ce1_query(self):
        rng = random.Random(83)
        kb = fixture("CE1")
        for _ in range(50):
            emb = random_embedding(rng, kb.signature.atoms)
            report = verify_monotonic(emb, AVG_DOT, kb)
            assert any((m.subset, m.head) in CE1_QUERIES
                       for m in report.mismatches)

    def test_distance_witness_matches_four_queries(self):
        kb = fixture("CE1")
        emb = distance_witness_embedding()
        for subset, head in CE1_QUERIES:
            assert (accepts(emb, AVG_DIST, subset, head)
                    == entails(kb, subset, head))

    def test_expected_side_matches_independent_oracle(self):
        rng = random.Random(89)
        kb = random_rule_kb(rng, ["a", "b", "c"])
        emb = random_embedding(rng, kb.signature.atoms)
        report = verify_monotonic(emb, AVG_DOT, kb)
        mismatch_index = {(m.subset, m.head): m for m in report.mismatches}
        for subset, head in subset_queries(kb.signature, 3):
            want = tt_entails(kb, subset, head)
            got = accepts(emb, AVG_DOT, subset, head)
            mm = mismatch_index.get((subset, head))
            assert (mm is not None) == (want != got)
            if mm is not None:
                assert mm.expected == want and mm.got == got

    def test_mismatch_order_is_canonical(self):
        rng = random.Random(97)
        kb = fixture("CE1")
        emb = random_embedding(rng, kb.signature.atoms)
        report = verify_monotonic(emb, AVG_DOT, kb)
        sig = kb.signature
        keys = [(len(m.subset), sig.mask(m.subset), sig.index(m.head))
                for m in report.mismatches]
        assert keys == sorted(keys)

    def test_determinism(self):
        rng = random.Random(103)
        kb = fixture("CE1")
        emb = random_embedding(rng, kb.signature.atoms)
        r1 = verify_monotonic(emb, AVG_DOT, kb).to_dict(timing=False)
        r2 = verify_monotonic(emb, AVG_DOT, kb).to_dict(timing=False)
        assert r1 == r2

    def test_cap_defaults(self):
        small = KnowledgeBase(Signature(("a", "b")), ())
        emb = random_embedding(random.Random(1), ("a", "b"))
        assert verify_monotonic(emb, AVG_DOT, small).cap == 2
        atoms = tuple(f"p{i}" for i in range(9))
        big = KnowledgeBase(Signature(atoms), ())
        emb9 = random_embedding(random.Random(2), atoms, dimension=1)
        report = verify_monotonic(emb9, AVG_DOT, big)
        assert report.cap == 4 and report.capped

    def test_missing_atom_rejected(self):
        kb = fixture("CE1")
        emb = random_embedding(random.Random(3), ("a", "b"))
        with pytest.raises(DimensionMismatchError):
            verify_monotonic(emb, AVG_DOT, kb)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected(self, cap):
        kb = fixture("CE1")
        emb = random_embedding(random.Random(3), kb.signature.atoms)
        with pytest.raises(ValueError, match="cap must be at least 1"):
            verify_monotonic(emb, AVG_DOT, kb, cap=cap)
        theta = fixture("ORD-NM")
        emb = random_embedding(random.Random(4), theta.signature.atoms,
                               tied=True)
        with pytest.raises(ValueError, match="cap must be at least 1"):
            verify_nonmonotonic(emb, ORD_ORD, theta, cap=cap)

    def test_missing_output_vector_rejected(self):
        kb = fixture("CE1")
        emb = random_embedding(random.Random(3), kb.signature.atoms)
        del emb.output["x"], emb.output["b"]
        with pytest.raises(DimensionMismatchError,
                           match="lacks output vectors for atoms: b, x$"):
            verify_monotonic(emb, AVG_DOT, kb)

    def test_stratified_kb_refused(self):
        theta = fixture("ORD-NM")
        emb = random_embedding(random.Random(6), theta.signature.atoms,
                               tied=True)
        with pytest.raises(ValueError,
                           match="^monotonic verification needs a plain KB, "
                                 "got a stratified KB$"):
            verify_monotonic(emb, ORD_ORD, theta)

    def test_off_table_strategy_id_refused(self):
        # avg-dot with tied vectors has no rule of its own: it used to be
        # swept with the tied dot labeller, report `simulates` under the
        # name avg-dot where avg-dot mismatches, and share its KB digest
        kb = parse_kb("atoms: a b\nformula: a <-> b\n")
        emb = AttributeEmbedding(1, {"a": (F(1),), "b": (F(1),)},
                                 {"a": (F(-1),), "b": (F(-1),)})
        assert verify_monotonic(emb, AVG_DOT, kb).mismatches
        for strategy in (StrategyId("avg", "dot", tied=True),
                         StrategyId("avg", "dist", tied=True)):
            with pytest.raises(ExactEvaluationError,
                               match="^no exact rule for StrategyId"):
                verify_monotonic(emb, strategy, kb)

    def test_report_records_empty_antecedent_exclusion(self):
        kb = parse_kb("atoms: a\n")
        emb = random_embedding(random.Random(5), ("a",))
        report = verify_monotonic(emb, AVG_DOT, kb)
        assert report.to_dict()["empty_antecedent_excluded"] is True


# each exact strategy's labeller, paired by hand
DIRECT = {
    "avg-dot": DotLabeller,
    "avg-dist": DistLabeller,
    "norm-dot": DotOnNormLabeller,
    "norm-dist": DistOnNormLabeller,
    "avg-relu": ReluLabeller,
    "had-dot": DotLabeller,
    "had-dot-tied": partial(DotLabeller, tied=True),
    "ord-ord": OrdLabeller,
}


class TestPoolOnce:
    def test_each_subset_pooled_once(self, monkeypatch):
        # a sweep pools each subset by one step from its parent: a start
        # for each of CE1's 5 singletons and an extend for each of the 26
        # larger subsets, mismatch scores included
        kb = fixture("CE1")
        emb = random_embedding(random.Random(97), kb.signature.atoms)
        want = sorted(pool(emb, AVG_DOT, s)
                      for s in nonempty_subsets(kb.signature, 5))
        assert len(set(want)) == 31  # no two subsets pool alike
        starts, extends = [], []
        original = verifier.exact_rule

        def counting_rule(s):
            rule = original(s)

            def start(*args):
                starts.append(rule.start(*args))
                return starts[-1]

            def extend(*args):
                extends.append(rule.extend(*args))
                return extends[-1]

            return rule._replace(start=start, extend=extend)

        monkeypatch.setattr(verifier, "exact_rule", counting_rule)
        report = verify_monotonic(emb, AVG_DOT, kb)
        assert report.queries == 155 and report.mismatches
        assert (len(starts), len(extends)) == (5, 26)
        assert sorted(starts + extends) == want

    def test_directs_cover_every_exact_strategy(self):
        assert sorted(DIRECT) == sorted(s.name for s in EXACT_STRATEGIES)

    @pytest.mark.parametrize("strategy", EXACT_STRATEGIES,
                             ids=lambda s: s.name)
    def test_sweep_matches_direct_evaluation(self, strategy):
        # every subset pooled from scratch and every head labelled and
        # scored by a labeller bound to it alone, each checked against the
        # Fraction reference, against the sweep's walk and its packed
        # labeller: plain and stratified KBs, full sweeps of 4 and 7 atoms
        # and cap-4 sweeps of 9.  The expected side comes from the
        # truth-table oracles at 4 atoms and from the KB's consequence
        # table above that
        rng = random.Random(f"direct:{strategy.name}")
        labeller = DIRECT[strategy.name]
        cases = ([(random_rule_kb(rng, ATOMS[:4]), None) for _ in range(3)]
                 + [(random_stratified_kb(rng, ATOMS[:4]), None)]
                 + [(make(rng, ATOMS[:n]), cap)
                    for n, cap in ((7, None), (9, 4))
                    for make in (random_rule_kb, random_stratified_kb)])
        for kb, cap in cases:
            sig = kb.signature
            stratified = isinstance(kb, StratifiedKB)
            if len(sig) > 4:
                oracle = follows
            else:
                oracle = tt_nm_rank if stratified else tt_entails
            emb = random_embedding(rng, sig.atoms, tied=strategy.tied)
            verify = verify_nonmonotonic if stratified else verify_monotonic
            report = verify(emb, strategy, kb, cap)
            assert report.cap == (cap or len(sig))
            scaled = scale(emb)
            expected = []
            for subset in mask_filter_subsets(sig, report.cap):
                pooled = pool(emb, strategy, subset)
                for head in sig.atoms:
                    alone = labeller(scaled, (head,))
                    got = alone.labels(pooled)
                    (_, _, _, _, score), = reported(alone, subset, got, 1)
                    got = bool(got)
                    assert (got, score) == ref_evaluate(
                        emb, strategy.name, subset, head)
                    want = oracle(kb, subset, head)
                    if got != want:
                        expected.append((subset, head, want, got, score))
            assert [(m.subset, m.head, m.expected, m.got, m.score)
                    for m in report.mismatches] == expected


class TestLabelOnce:
    @pytest.mark.parametrize("strategy", EXACT_STRATEGIES,
                             ids=lambda s: s.name)
    def test_one_labeller_and_one_labels_call_per_subset(self, strategy,
                                                         monkeypatch):
        bound, labelled = [], []
        original = verifier.exact_rule

        def counting_rule(s):
            rule = original(s)

            def bind(scaled, heads):
                labeller = rule.labeller(scaled, heads)
                bound.append(heads)
                labels = labeller.labels

                def counting_labels(pooled):
                    labelled.append(pooled)
                    return labels(pooled)

                labeller.labels = counting_labels
                return labeller

            return rule._replace(labeller=bind)

        monkeypatch.setattr(verifier, "exact_rule", counting_rule)
        kb = fixture("CE1")
        emb = random_embedding(random.Random(97), kb.signature.atoms,
                               tied=strategy.tied)
        report = verify_monotonic(emb, strategy, kb)
        assert report.queries == 155
        # bound once to every head; 31 non-empty subsets of 5 atoms
        assert bound == [kb.signature.atoms]
        assert len(labelled) == 31


AB = "atoms: a b\nformula: a -> b\n"


class TestEmbeddingCheckedOnce:
    """An embedding's fields may be reassigned after it is built, so a
    sweep checks the embedding once, as it scales it.  A reassigned
    vector of the wrong length, a negative radius or a dropped threshold
    is refused in one line that names the atom, before a labeller is
    bound, so before any subset is labelled."""

    def refused(self, monkeypatch, emb, strategy, kb, error, message):
        bound = []
        original = verifier.exact_rule

        def recording_rule(s):
            rule = original(s)

            def bind(*args):
                bound.append(args)
                return rule.labeller(*args)

            return rule._replace(labeller=bind)

        monkeypatch.setattr(verifier, "exact_rule", recording_rule)
        verify = (verify_nonmonotonic if isinstance(kb, StratifiedKB)
                  else verify_monotonic)
        with pytest.raises(error) as info:
            verify(emb, strategy, kb)
        assert str(info.value) == message
        assert bound == []

    @pytest.mark.parametrize("family", ["context", "output"])
    @pytest.mark.parametrize("strategy", EXACT_STRATEGIES,
                             ids=lambda s: s.name)
    def test_vector_of_the_wrong_length(self, monkeypatch, strategy, family):
        # a short output vector used to be zipped against longer pooled
        # vectors, so every verdict read a truncated vector
        kb = parse_kb(AB)
        emb = random_embedding(random.Random(29), kb.signature.atoms,
                               dimension=2, tied=strategy.tied)
        getattr(emb, family)["b"] = (F(1),)
        self.refused(monkeypatch, emb, strategy, kb, DimensionMismatchError,
                     "vector for 'b' has length 1, embedding dimension is 2")

    @pytest.mark.parametrize("source", [AB, "atoms: a b\nstratum: a -> b\n"],
                             ids=["plain", "stratified"])
    @pytest.mark.parametrize("strategy", [AVG_DIST, NORM_DIST],
                             ids=lambda s: s.name)
    def test_negative_radius(self, monkeypatch, strategy, source):
        # the distance labellers square the radius's numerator, so -1/2
        # used to give exactly the mismatches of 1/2
        kb = parse_kb(source)
        emb = random_embedding(random.Random(29), kb.signature.atoms)
        emb.theta["b"] = F(-1, 2)
        self.refused(monkeypatch, emb, strategy, kb, ValueError,
                     "negative distance radius for 'b'")

    @pytest.mark.parametrize("field, name", [("lam", "lambda"),
                                             ("theta", "theta")])
    @pytest.mark.parametrize("strategy", EXACT_STRATEGIES,
                             ids=lambda s: s.name)
    def test_dropped_threshold(self, monkeypatch, strategy, field, name):
        kb = parse_kb(AB)
        emb = random_embedding(random.Random(29), kb.signature.atoms,
                               tied=strategy.tied)
        setattr(emb, field, {"a": F(0)})
        self.refused(monkeypatch, emb, strategy, kb, ValueError,
                     f"no {name} for 'b'")


class TestSubsetEnumeration:
    @pytest.mark.parametrize("n", range(11))
    def test_matches_mask_filter_definition(self, n):
        sig = Signature(tuple(f"p{i}" for i in range(n)))
        for cap in range(-1, n + 2):
            assert nonempty_subsets(sig, cap) == mask_filter_subsets(sig, cap)

    def test_cost_follows_the_cap_not_2_to_the_n(self):
        # 2^40 masks could not be filtered; the 820 subsets come at once
        sig = Signature(tuple(f"p{i}" for i in range(40)))
        subsets = nonempty_subsets(sig, 2)
        assert len(subsets) == 40 + 40 * 39 // 2
        assert subsets[:2] == [("p0",), ("p1",)]
        assert subsets[40:43] == [("p0", "p1"), ("p0", "p2"), ("p1", "p2")]


class TestSweepBudget:
    @pytest.mark.parametrize("n", range(9))
    def test_query_count_matches_the_walk(self, n):
        sig = Signature(tuple(f"p{i}" for i in range(n)))
        for cap in range(1, n + 2):
            assert sweep_queries(n, cap) == len(subset_queries(sig, cap))

    def test_budget_admits_the_full_16_atom_sweep_and_no_wider(self):
        assert sweep_queries(16, 16) == 1_048_560 <= MAX_SWEEP_QUERIES
        assert sweep_queries(17, 17) == 2_228_207 > MAX_SWEEP_QUERIES
        # the 20-atom cap-4 sweeps, the benchmark's jobs (9 atoms at the
        # default cap, 7 and 8 in full) and the decision's re-verify
        assert sweep_queries(20, 4) == 123_900
        for n, cap in ((20, 4), (9, 4), (7, 7), (8, 8),
                       (GENERIC_ATOM_CAP, GENERIC_ATOM_CAP)):
            assert sweep_queries(n, cap) <= MAX_SWEEP_QUERIES

    @pytest.mark.parametrize("budget", [155, 154])
    def test_at_the_budget_and_one_over(self, budget, monkeypatch):
        # CE1's full sweep has 155 queries: admitted at a budget of 155,
        # refused at 154 before its consequence table is built
        kb = fixture("CE1")
        emb = random_embedding(random.Random(97), kb.signature.atoms)
        built = []
        table = verifier.consequence_table
        monkeypatch.setattr(verifier, "consequence_table",
                            lambda kb: built.append(kb) or table(kb))
        monkeypatch.setattr(verifier, "MAX_SWEEP_QUERIES", budget)
        if budget == 155:
            assert verify_monotonic(emb, AVG_DOT, kb).queries == 155
            assert built == [kb]
        else:
            with pytest.raises(logic.CapExceededError,
                               match="has 155 queries, the sweep budget "
                                     "is 154$"):
                verify_monotonic(emb, AVG_DOT, kb)
            assert built == []

    def test_wide_sweeps_are_refused_before_any_table(self, monkeypatch):
        def no_table(kb):
            raise AssertionError("consequence table built")

        monkeypatch.setattr(verifier, "consequence_table", no_table)
        atoms = tuple(f"p{i}" for i in range(17))
        emb = random_embedding(random.Random(5), atoms)
        plain = parse_kb(f"atoms: {' '.join(atoms)}\nrule: p0 -> p1\n")
        ranked = parse_kb(f"atoms: {' '.join(atoms)}\n"
                          f"stratum: p0 -> p1\nstratum: p2\n")
        for verify, kb in ((verify_monotonic, plain),
                           (verify_nonmonotonic, ranked)):
            with pytest.raises(logic.CapExceededError,
                               match="^a sweep of 17 atoms at subset cap 17 "
                                     "has 2228207 queries"):
                verify(emb, AVG_DOT, kb, 17)


class TestOracleTables:
    def test_full_nonmonotonic_sweep_ranks_each_interpretation_once(
            self, monkeypatch):
        # one rank table for the whole sweep, built with one evaluator
        # call per syntax-tree node of each stratum it reaches, never one
        # per interpretation
        atoms = [f"p{i}" for i in range(10)]
        theta = random_stratified_kb(random.Random(7), atoms, max_strata=3)
        emb = random_embedding(random.Random(8), atoms, dimension=1,
                               tied=True)
        evaluated = []
        original = logic._truth

        def counting(formula, *args):
            evaluated.append(formula)
            return original(formula, *args)

        monkeypatch.setattr(logic, "_truth", counting)
        report = verify_nonmonotonic(emb, ORD_ORD, theta, cap=10)
        assert report.queries == 1023 * 10
        # ranking stops after the first stratum no interpretation reaches
        best = max(tt_mu(theta, a) for a in tt_assignments(atoms))
        reached = theta.strata[:best + 1]
        assert reached == theta.strata
        assert len(evaluated) == sum(syntax_nodes(f) for f in reached)
        assert len(evaluated) < 1 << 10
        # sampled expected sides agree with the truth-table oracle
        for m in report.mismatches[:5]:
            assert tt_nm_rank(theta, m.subset, m.head) == m.expected

    @pytest.mark.parametrize("proposition", sorted(RECIPES))
    def test_construct_then_verify_evaluates_each_formula_once(
            self, monkeypatch, proposition):
        # construct reads the counter-models, the sweep the consequence
        # table; both derive from one model set (plain) or one set of
        # rank levels (stratified), kept on the KB object
        atoms = [f"p{i}" for i in range(6)]
        rng = random.Random(70 + proposition)
        stratified = RECIPES[proposition][1] == "stratified"
        kb = (random_stratified_kb(rng, atoms, max_strata=3) if stratified
              else random_rule_kb(rng, atoms))
        evaluated = []
        original = logic._truth

        def counting(formula, *args):
            evaluated.append(formula)
            return original(formula, *args)

        monkeypatch.setattr(logic, "_truth", counting)
        result = construct(kb, proposition)
        sweep = verify_nonmonotonic if stratified else verify_monotonic
        assert sweep(result.embedding, result.strategy, kb,
                     cap=len(atoms)).simulates
        if stratified:
            # ranking stops after the first stratum no interpretation
            # reaches
            best = max(tt_mu(kb, a) for a in tt_assignments(atoms))
            formulas = kb.strata[:best + 1]
        else:
            formulas = kb.formulas
        assert len(evaluated) == sum(syntax_nodes(f) for f in formulas)


class TestVerifyNonMonotonic:
    def test_ord_nm_capture_pattern_shown_by_had_construction(self):
        theta = fixture("ORD-NM")
        res = construct(theta, 5)
        report = verify_nonmonotonic(res.embedding, res.strategy, theta)
        assert report.simulates

    def test_plain_kb_refused(self):
        kb = fixture("CE1")
        emb = random_embedding(random.Random(7), kb.signature.atoms,
                               tied=True)
        with pytest.raises(ValueError,
                           match="^non-monotonic verification needs a "
                                 "stratified KB, got a plain KB$"):
            verify_nonmonotonic(emb, ORD_ORD, kb)

    def test_any_max_order_embedding_fails_ord_nm(self):
        rng = random.Random(107)
        theta = fixture("ORD-NM")
        for _ in range(100):
            emb = random_embedding(rng, theta.signature.atoms, tied=True)
            report = verify_nonmonotonic(emb, ORD_ORD, theta)
            assert not report.simulates


class TestOrdMonotonicity:
    """The product-order monotonicity check that ACCEPTANCE 7 runs."""

    def test_holds_on_random_embeddings(self):
        rng = random.Random(109)
        for _ in range(50):
            emb = random_embedding(rng, ("a", "b", "x"), tied=True)
            report = ref_check_ord_monotonicity(emb)
            assert report.holds
            assert report.checked > 0

    def test_reports_dropped_labels_like_the_reference(self, monkeypatch):
        # max pooling cannot drop a label, so a pooling that lowers every
        # coordinate by |S| - 1 stands in to make violations to report
        def shrinking(emb, strategy, atoms):
            total, den = pool(emb, strategy, atoms)
            return tuple(x - (len(atoms) - 1) * den for x in total), den

        zero = (F(0),)
        emb = AttributeEmbedding(1, {a: zero for a in "abx"},
                                 {a: zero for a in "abx"})
        monkeypatch.setattr(references, "pool", shrinking)
        report = ref_check_ord_monotonicity(emb)
        # each singleton loses all three labels in each of its three
        # supersets; the pairs have none left to lose
        assert (report.checked, len(report.violations)) == (12, 9)
        assert report.violations[0] == {"subset": ["a"],
                                        "superset": ["a", "b"],
                                        "dropped": ["a", "b", "x"]}
        assert not report.holds

    def test_trace_shows_a_subset_pair(self):
        emb = random_embedding(random.Random(113), ("a", "b"), tied=True)
        report = ref_check_ord_monotonicity(emb)
        assert report.trace is not None
        assert set(report.trace) == {"subset", "superset", "labels_subset",
                                     "labels_superset"}


class TestTiedHadamardSymmetry:
    def test_consequence_one_way_rule_never_simulated(self):
        kb = parse_kb("atoms: a b\nrule: a -> b\n")
        rng = random.Random(137)
        for _ in range(50):
            emb = random_embedding(rng, ("a", "b"), tied=True)
            emb.lam = {k: F(0) for k in emb.lam}
            report = verify_monotonic(emb, HAD_DOT_TIED, kb)
            assert not report.simulates

    def test_untied_construction_is_asymmetric_and_correct(self):
        kb = parse_kb("atoms: a b\nrule: a -> b\n")
        res = construct(kb, 2)
        assert verify_monotonic(res.embedding, res.strategy, kb).simulates
        assert res.embedding.context["a"] != res.embedding.output["a"]


ORACLE_SAMPLE = 4  # the mismatches perfbench's sweep-lowdim check samples


def check_records_on_demand(report, eager: list) -> None:
    """A report's `mismatches` read every way a caller may read it,
    against the eager reference's list of the same records."""
    lazy = report.mismatches
    assert isinstance(lazy, collections.abc.Sequence)
    assert len(lazy) == len(eager)
    assert bool(lazy) == bool(eager) == (not report.simulates)
    assert list(lazy) == eager
    assert list(lazy) == list(lazy)  # a second iteration reads the same
    assert [lazy[i] for i in range(len(eager))] == eager
    assert [lazy[-i] for i in range(1, len(eager) + 1)] == eager[::-1]
    for past in (len(eager), -len(eager) - 1):
        with pytest.raises(IndexError):
            lazy[past]
    for part in (slice(None, 20), slice(3, 7), slice(None, None, -1)):
        assert lazy[part] == eager[part]
    k = min(ORACLE_SAMPLE, len(eager))
    assert random.Random(5).sample(lazy, k) == random.Random(5).sample(eager, k)
    assert lazy == eager and eager == lazy
    assert lazy != eager + [None]
    assert replace(report, mismatches=eager) == report
    assert report.to_dict()["mismatches"] == [m.to_dict() for m in eager]


class TestMismatchesOnDemand:
    """A sweep keeps each wrong subset and formats its records only when
    they are read; read in any way, they are the records the eager loop
    (`references.ref_sweep_records`) makes."""

    @pytest.mark.parametrize("stratified", [False, True],
                             ids=["plain", "stratified"])
    @pytest.mark.parametrize("strategy", EXACT_STRATEGIES,
                             ids=lambda s: s.name)
    def test_equals_the_eager_records(self, strategy, stratified):
        rng = random.Random(f"on-demand:{strategy.name}:{stratified}")
        sweep = verify_nonmonotonic if stratified else verify_monotonic
        for n in range(2, 13):
            atoms = [f"p{i}" for i in range(n)]
            kb = (random_stratified_kb(rng, atoms) if stratified
                  else random_rule_kb(rng, atoms))
            emb = random_embedding(rng, atoms, dimension=rng.randint(1, 4))
            # every cap up to 5 atoms; then 1, a drawn cap of 2 or 3,
            # and the full cap up to 7 atoms
            caps = (range(1, n + 1) if n <= 5
                    else [1, rng.randint(2, 3)] + ([n] if n <= 7 else []))
            for cap in caps:
                report = sweep(emb, strategy, kb, cap)
                check_records_on_demand(
                    report,
                    references.ref_sweep_records(emb, strategy, kb, cap))

    @pytest.mark.parametrize("proposition", sorted(RECIPES))
    def test_a_sweep_without_mismatches(self, proposition):
        atoms = [f"p{i}" for i in range(5)]
        rng = random.Random(90 + proposition)
        stratified = RECIPES[proposition][1] == "stratified"
        kb = (random_stratified_kb(rng, atoms) if stratified
              else random_rule_kb(rng, atoms))
        result = construct(kb, proposition)
        sweep = verify_nonmonotonic if stratified else verify_monotonic
        report = sweep(result.embedding, result.strategy, kb)
        check_records_on_demand(report, [])
        assert report.mismatches == [] and report.mismatches[:20] == []

    def test_unread_records_are_never_formatted(self, monkeypatch):
        atoms = [f"p{i}" for i in range(8)]
        rng = random.Random(93)
        kb = random_rule_kb(rng, atoms)
        emb = random_embedding(rng, atoms, dimension=4)
        formatted = []
        original = DotLabeller.report

        def counting(self, subset, got, wrong, last):
            formatted.append(subset)
            return original(self, subset, got, wrong, last)

        monkeypatch.setattr(DotLabeller, "report", counting)
        report = verify_monotonic(emb, AVG_DOT, kb)
        assert len(report.mismatches) > 40 and not formatted
        assert not report.simulates and not formatted
        first = report.mismatches[:20]
        # the first 20 records come from the first wrong subsets alone
        assert formatted == list(dict.fromkeys(m.subset for m in first))
        formatted.clear()
        assert report.mismatches[-1].subset == tuple(atoms)
        assert formatted == [tuple(atoms)]


class TestScorePastThePrintLimit:
    # had-dot: six atoms whose contexts are 1; the top two, y and z, have
    # 10^2200, so a subset holding both pools a product of 4401 digits.
    # The empty KB entails only a subset's own atoms and every head is
    # labelled, so y&z's records come after those of the six singletons
    # and of the 14 pairs before it (30 + 56 records).
    ATOMS = ("a", "b", "c", "d", "y", "z")

    def embedding(self) -> AttributeEmbedding:
        big = {"y", "z"}
        return AttributeEmbedding(1, {a: (F(10 ** 2200 if a in big else 1),)
                                      for a in self.ATOMS},
                                  {a: (F(1),) for a in self.ATOMS})

    def test_reading_the_record_raises_one_line(self):
        kb = KnowledgeBase(Signature(self.ATOMS), ())
        report = verify_monotonic(self.embedding(), HAD_DOT, kb)
        records = report.mismatches
        # subsets of size k have 6 - k wrong heads each
        assert len(records) == sum(comb(6, k) * (6 - k) for k in range(1, 7))
        assert len(records[:86]) == 86
        line = ("the score of y&z -> a, b, c, d cannot be printed: an "
                "integer in it has more than 4300 digits")
        for read in (lambda: records[86], lambda: records[80:90],
                     lambda: list(records), report.to_dict):
            with pytest.raises(ValueError) as caught:
                read()
            assert str(caught.value) == line

"""The five constructions: worked instances, equivalences, dominance bounds.

Recipes 1-3 give one coordinate per needed counter-model and recipes 4-5
one per ranked counter-model; the paper's versions, one coordinate per
model or per interpretation, are the `ref_construct_*` recipes of
`tests/references.py`, and the worked instances pin both.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import (accepts, plain_kbs, random_rule_kb,
                      random_stratified_kb, stratified_kbs)
from embedsim.constructors import RECIPES, _families, construct
from embedsim.fixtures import fixture
from embedsim.logic import (CapExceededError, KnowledgeBase, Signature,
                            counter_models, entails, parse_kb, rank_table,
                            ranked_counter_models)
from embedsim.verifier import (subset_queries, verify_monotonic,
                               verify_nonmonotonic)
from oracles import scan_ranked_counter_models
from references import (ref_avg_relu_vectors, ref_construct_avg_relu,
                        ref_construct_avg_relu_nm, ref_construct_had_dot,
                        ref_construct_had_dot_nm, ref_construct_ord, ref_dot,
                        ref_emb_avg, ref_emb_had, ref_models, ref_relu_vec)

F = Fraction
AB_KB = "atoms: a b\nrule: a -> b\n"


class TestAvgRelu:
    def test_worked_instance_vectors(self):
        kb = parse_kb(AB_KB)
        res = ref_construct_avg_relu(kb, 5)
        assert res.model_order == (0b00, 0b10, 0b11)
        assert res.embedding.context["a"] == (F(-5), F(-5), F(1), F(1))
        assert res.embedding.context["b"] == (F(-5), F(1), F(1), F(1))
        # the model 0b11 refutes nothing: K is the maximal model lacking
        # a (0b10) and the one lacking b (0b00)
        res = construct(kb, 1, 5)
        assert res.model_order == (0b00, 0b10)
        assert res.embedding.context["a"] == (F(-5), F(-5), F(1))
        assert res.embedding.context["b"] == (F(-5), F(1), F(1))

    def test_worked_instance_scores(self):
        kb = parse_kb(AB_KB)
        for res, want in ((ref_construct_avg_relu(kb, 5), (2, -3)),
                          (construct(kb, 1, 5), (1, -4))):
            emb = res.embedding
            fwd = ref_dot(ref_relu_vec(ref_emb_avg(emb, ("a",))),
                          emb.context["b"])
            bwd = ref_dot(ref_relu_vec(ref_emb_avg(emb, ("b",))),
                          emb.context["a"])
            assert (fwd, bwd) == want

    def test_inconsistent_kb_accepts_everything(self):
        kb = parse_kb("atoms: a b\nformula: a\nformula: !a\n")
        res = construct(kb, 1)
        assert res.embedding.dimension == 1
        assert all(v == (F(1),) for v in res.embedding.context.values())
        report = verify_monotonic(res.embedding, res.strategy, kb)
        assert report.simulates

    def test_empty_kb(self):
        kb = parse_kb("atoms: a b\n")
        res = construct(kb, 1)
        assert accepts(res.embedding, res.strategy, ("a",), "a")
        assert not accepts(res.embedding, res.strategy, ("a",), "b")

    def test_default_delta_is_smallest_legal(self):
        kb = parse_kb(AB_KB)
        assert construct(kb, 1).delta == 5

    def test_delta_validation(self):
        kb = parse_kb(AB_KB)
        with pytest.raises(ValueError):
            construct(kb, 1, 4)

    def test_atom_cap(self):
        kb = KnowledgeBase(Signature(tuple(f"p{i}" for i in range(21))), ())
        with pytest.raises(CapExceededError):
            construct(kb, 1)


class TestPrintLimit:
    """A recipe's largest weight must print: at most 4300 digits."""

    @pytest.mark.parametrize("recipe", [1, 2])
    def test_plain_delta_past_the_limit(self, recipe):
        kb = parse_kb(AB_KB)
        with pytest.raises(ValueError, match=(
                f"^recipe {recipe}: delta has more than 4300 digits, the "
                "most an embedding file holds$")):
            construct(kb, recipe, 10 ** 4300)
        doc = construct(kb, recipe, 10 ** 4300 - 1).embedding.to_json_dict()
        assert doc["dimension"] == 3

    def test_ranked_weight_past_the_limit(self):
        # EX4's top kept rank is 3, so its largest weight is delta^7:
        # 4299 digits for delta 10^614, 4306 for 10^615
        theta = fixture("EX4")
        construct(theta, 4, 10 ** 614).embedding.to_json_dict()
        with pytest.raises(ValueError, match="^recipe 5: the rank-3 weight "
                                             "delta\\^7 has more than 4300"):
            construct(theta, 5, 10 ** 615)
        with pytest.raises(ValueError, match="^recipe 4: delta has more"):
            construct(theta, 4, 10 ** 4300)


class TestHadDot:
    def test_worked_instance_vectors(self):
        kb = parse_kb(AB_KB)
        emb = ref_construct_had_dot(kb, 5).embedding
        assert emb.context["a"] == (F(0), F(0), F(1), F(1))
        assert emb.output["a"] == (F(-5), F(-5), F(1), F(1))
        assert ref_dot(ref_emb_had(emb, ("a",)), emb.output["b"]) == 2
        res = construct(kb, 2, 5)
        assert res.model_order == (0b00, 0b10)
        emb = res.embedding
        assert emb.context["a"] == (F(0), F(0), F(1))
        assert emb.output["a"] == (F(-5), F(-5), F(1))
        assert ref_dot(ref_emb_had(emb, ("a",)), emb.output["b"]) == 1

    def test_zero_thresholds(self):
        kb = fixture("CE1")
        emb = construct(kb, 2).embedding
        assert all(v == 0 for v in emb.lam.values())

    def test_exhaustive_equivalence(self):
        rng = random.Random(41)
        for _ in range(15):
            kb = random_rule_kb(rng, ["a", "b", "c", "d", "e"])
            res = construct(kb, 2)
            assert verify_monotonic(res.embedding, res.strategy, kb).simulates

    def test_inconsistent_kb_accepts_everything(self):
        kb = parse_kb("atoms: a b\nformula: a & !a\n")
        res = construct(kb, 2)
        assert res.embedding.dimension == 1
        assert verify_monotonic(res.embedding, res.strategy, kb).simulates

    def test_tied_variant_models_reversed_rule(self):
        # forcing output := context breaks the asymmetric rule a -> b
        kb = parse_kb(AB_KB)
        emb = construct(kb, 2).embedding
        tied_dot = ref_dot(ref_emb_had(emb, ("b",)), emb.context["a"])
        assert tied_dot == ref_dot(ref_emb_had(emb, ("a",)), emb.context["b"])
        assert tied_dot >= 0  # b -> a accepted despite not being entailed
        assert not entails(kb, ("b",), "a")


class TestOrd:
    def test_worked_instance(self):
        kb = parse_kb(AB_KB)
        emb = ref_construct_ord(kb).embedding
        assert emb.context["a"] == (F(1), F(1), F(0))
        assert emb.context["b"] == (F(1), F(0), F(0))
        res = ref_construct_ord(kb)
        assert accepts(emb, res.strategy, ("a",), "b")
        assert not accepts(emb, res.strategy, ("b",), "a")
        res = construct(kb, 3)
        emb = res.embedding
        assert res.model_order == (0b00, 0b10)
        assert emb.context["a"] == (F(1), F(1))
        assert emb.context["b"] == (F(1), F(0))
        assert accepts(emb, res.strategy, ("a",), "b")
        assert not accepts(emb, res.strategy, ("b",), "a")

    def test_inconsistent_kb_all_zero(self):
        kb = parse_kb("atoms: a b\nformula: FALSE\n")
        res = construct(kb, 3)
        assert all(all(x == 0 for x in v)
                   for v in res.embedding.context.values())
        assert verify_monotonic(res.embedding, res.strategy, kb).simulates

    def test_exhaustive_equivalence(self):
        rng = random.Random(43)
        for _ in range(15):
            kb = random_rule_kb(rng, ["a", "b", "c", "d", "e"])
            res = construct(kb, 3)
            assert verify_monotonic(res.embedding, res.strategy, kb).simulates


class TestNonMonotonicConstructions:
    def test_ex4_triple_both_recipes(self):
        theta = fixture("EX4")
        for recipe in (4, 5):
            res = construct(theta, recipe)
            emb, strat = res.embedding, res.strategy
            assert accepts(emb, strat, ("apple",), "cat:food")
            assert accepts(emb, strat, ("apple", "safari"),
                                    "cat:technology")
            assert not accepts(emb, strat, ("apple", "safari"),
                                        "cat:food")

    def test_single_stratum_reflexivity(self):
        theta = parse_kb("atoms: a b\nstratum: a\n")
        res = construct(theta, 4)
        assert accepts(res.embedding, res.strategy, ("a",), "a")
        assert not accepts(res.embedding, res.strategy, ("a",), "b")

    def test_exception_suppression(self):
        theta = fixture("ORD-NM")
        res = construct(theta, 5)
        assert accepts(res.embedding, res.strategy, ("a",), "x")
        assert not accepts(res.embedding, res.strategy,
                                    ("a", "b"), "x")

    def test_dimension_is_interpretation_count(self):
        theta = fixture("EX4")
        assert ref_construct_avg_relu_nm(theta).embedding.dimension == 16
        assert ref_construct_had_dot_nm(theta).embedding.dimension == 16

    def test_ex4_keeps_ten_interpretations(self):
        theta = fixture("EX4")
        kept = ranked_counter_models(theta)
        assert len(kept) == 10 and kept[-1] == 0b1111
        for recipe in (4, 5):
            res = construct(theta, recipe)
            assert res.model_order == kept
            assert res.embedding.dimension == 10

    def test_random_match_with_rank_oracle(self):
        rng = random.Random(47)
        atoms = ["a", "b", "c", "d"]
        for _ in range(20):
            theta = random_stratified_kb(rng, atoms, max_strata=3)
            for recipe in (4, 5):
                res = construct(theta, recipe)
                report = verify_nonmonotonic(res.embedding, res.strategy, theta)
                assert report.simulates, (theta, recipe,
                                          report.mismatches[:3])

    def test_dominance_sign(self):
        # the labelling score's sign tracks the rank comparison strictly
        rng = random.Random(53)
        atoms = ["a", "b", "c"]
        for _ in range(10):
            theta = random_stratified_kb(rng, atoms, max_strata=3)
            res = construct(theta, 4)
            emb = res.embedding
            sig = theta.signature
            for subset, head in subset_queries(sig, len(atoms)):
                score = ref_dot(ref_relu_vec(ref_emb_avg(emb, subset)),
                            emb.context[head])
                smask = sig.mask(subset)
                hbit = sig.bit(head)
                mu = rank_table(theta)
                m_plus = max((mu[m] for m in range(8)
                              if m & smask == smask and m & hbit),
                             default=-1)
                m_minus = max((mu[m] for m in range(8)
                               if m & smask == smask and not m & hbit),
                              default=-1)
                assert score != 0
                assert (score > 0) == (m_plus - m_minus - F(1, 2) > 0)

    def test_atom_cap(self):
        theta = parse_kb("atoms: " + " ".join(f"p{i}" for i in range(21))
                         + "\nstratum: p0\n")
        with pytest.raises(CapExceededError):
            construct(theta, 4)


class TestRankedCounterModelRecipes:
    """Recipes 4-5 over the ranked counter-models against the paper's
    recipes over every interpretation."""

    RECIPES = ((4, ref_construct_avg_relu_nm),
               (5, ref_construct_had_dot_nm))

    @settings(max_examples=100)
    @given(stratified_kbs(max_atoms=7))
    def test_exhaustive_and_columns_of_the_reference(self, theta):
        n = len(theta.signature)
        kept = ranked_counter_models(theta)
        assert kept == scan_ranked_counter_models(theta)
        for recipe, reference in self.RECIPES:
            res, ref = construct(theta, recipe), reference(theta)
            assert res.model_order == kept and res.delta == ref.delta
            report = verify_nonmonotonic(res.embedding, res.strategy, theta,
                                         cap=n)
            assert report.queries == n * ((1 << n) - 1)
            assert report.simulates, (theta, res.strategy,
                                      report.mismatches[:3])
            for built, want in ((res.embedding.context, ref.embedding.context),
                                (res.embedding.output, ref.embedding.output)):
                for a in theta.signature.atoms:
                    assert built[a] == tuple(want[a][w] for w in kept)

    @pytest.mark.parametrize("source, kept", [
        # one rank everywhere: the co-atoms and all-true
        ("atoms: a b c\nstratum: TRUE\n", (0b011, 0b101, 0b110, 0b111)),
        ("atoms: a b\nstratum: FALSE\n", (0b01, 0b10, 0b11)),
        # a is ranked up: the best interpretation lacking a is 0b10, and
        # the best with a lacking b is 0b01
        ("atoms: a b\nstratum: a\n", (0b01, 0b10, 0b11)),
    ])
    def test_edge_cases(self, source, kept):
        theta = parse_kb(source)
        assert ranked_counter_models(theta) == kept
        assert scan_ranked_counter_models(theta) == kept


class TestDeltaBoundMatters:
    @staticmethod
    def _small_delta_witness(vectors_for):
        # search for a KB and an illegally small delta that flip a verdict
        rng = random.Random(59)
        atoms = ["a", "b"]
        kbs = [parse_kb("atoms: a b\n")]
        kbs += [random_rule_kb(rng, atoms, max_rules=2) for _ in range(10)]
        for kb in kbs:
            for delta in range(1, (1 << len(atoms)) + 1):
                vectors = vectors_for(kb, delta)
                for subset, head in subset_queries(kb.signature, 2):
                    pooled = tuple(sum(col) / len(subset) for col in
                                   zip(*(vectors[a] for a in subset)))
                    got = ref_dot(ref_relu_vec(pooled), vectors[head]) >= 0
                    if got != entails(kb, subset, head):
                        return kb, delta, subset, head
        return None

    def test_small_delta_breaks_the_construction(self):
        witness = self._small_delta_witness(
            lambda kb, delta: ref_avg_relu_vectors(kb, ref_models(kb),
                                                   delta))
        assert witness is not None, "no small-delta failure found"
        assert witness[1] <= 1 << 2

    def test_small_delta_breaks_the_counter_model_recipe(self):
        def vectors_for(kb, delta):
            needed = counter_models(kb)
            return _families(kb.signature, needed, [(1, delta)] * len(needed),
                             (F(1),))[1]

        witness = self._small_delta_witness(vectors_for)
        assert witness is not None, "no small-delta failure found"
        assert witness[1] <= 1 << 2


class TestDispatch:
    def test_kind_mismatch(self):
        with pytest.raises(TypeError):
            construct(fixture("EX4"), 1)
        with pytest.raises(TypeError):
            construct(fixture("CE1"), 4)

    def test_unknown_recipe(self):
        with pytest.raises(ValueError):
            construct(fixture("CE1"), 9)

    @pytest.mark.parametrize("recipe, name, kind", [
        (1, "avg-relu", "plain"), (2, "had-dot", "plain"),
        (3, "ord-ord", "plain"), (4, "avg-relu", "stratified"),
        (5, "had-dot", "stratified")])
    def test_recipe_builds_its_strategy_for_its_kind_only(self, recipe,
                                                          name, kind):
        assert sorted(RECIPES) == [1, 2, 3, 4, 5]
        fits, other = ((fixture("CE1"), fixture("EX4")) if kind == "plain"
                       else (fixture("EX4"), fixture("CE1")))
        res = construct(fits, recipe)
        assert (res.strategy.name, res.proposition) == (name, recipe)
        tied = res.embedding.context == res.embedding.output
        assert tied == res.strategy.tied == (name != "had-dot")
        wrong = "stratified" if kind == "plain" else "plain"
        with pytest.raises(TypeError, match=f"to a {wrong} KB"):
            construct(other, recipe)

    def test_provenance_block(self):
        res = construct(fixture("CE1"), 1)
        prov = res.provenance()
        assert prov["proposition"] == "1"
        assert prov["delta"] == str((1 << 5) + 1)
        assert prov["model_order"] == list(counter_models(fixture("CE1")))


class TestIntegerCoordinates:
    def test_all_constructions_integral(self):
        kb = fixture("CE1")
        theta = fixture("EX4")
        results = [construct(kb, 1), construct(kb, 2),
                   construct(kb, 3), construct(theta, 4),
                   construct(theta, 5)]
        for res in results:
            for vecs in (res.embedding.context, res.embedding.output):
                for v in vecs.values():
                    assert all(x.denominator == 1 for x in v)


class TestCounterModelRecipes:
    """Recipes 1-3 over K against the paper's recipes over every model."""

    RECIPES = ((1, ref_construct_avg_relu),
               (2, ref_construct_had_dot),
               (3, ref_construct_ord))

    @settings(max_examples=60)
    @given(plain_kbs(max_atoms=7))
    def test_exhaustive_and_no_larger(self, kb):
        n = len(kb.signature)
        for recipe, reference in self.RECIPES:
            res, ref = construct(kb, recipe), reference(kb)
            assert res.model_order == counter_models(kb)
            assert res.embedding.dimension <= ref.embedding.dimension
            for built in (res, ref):
                report = verify_monotonic(built.embedding, built.strategy, kb,
                                          cap=n)
                assert report.queries == n * ((1 << n) - 1)
                assert report.simulates, (kb, built.strategy,
                                          report.mismatches[:3])

    @pytest.mark.parametrize("source, needed", [
        ("atoms: a b c\nformula: a\nformula: !a\n", ()),  # inconsistent
        ("atoms: a b c\n", (0b011, 0b101, 0b110)),  # the co-atoms
        ("atoms: a b\nformula: a & b\n", ()),  # only the all-true model
    ])
    def test_edge_cases(self, source, needed):
        kb = parse_kb(source)
        n = len(kb.signature)
        assert counter_models(kb) == needed
        dims = (len(needed) + 1, len(needed) + 1, max(len(needed), 1))
        for (recipe, _), dim in zip(self.RECIPES, dims):
            res = construct(kb, recipe)
            assert res.embedding.dimension == dim
            report = verify_monotonic(res.embedding, res.strategy, kb, cap=n)
            assert report.simulates
        if not needed:
            vectors = construct(kb, 3).embedding.context.values()
            assert all(v == (F(0),) for v in vectors)

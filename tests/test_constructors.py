"""The five constructions: worked instances, equivalences, dominance bounds.

Recipes 1-3 give one coordinate per needed counter-model; the paper's
versions, one coordinate per model, are the `ref_construct_*` recipes of
`tests/references.py`, and the worked instances pin both.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import plain_kbs, random_rule_kb, random_stratified_kb
from embedsim.constructors import (DeltaConfig, _families, construct,
                                   construct_avg_relu, construct_avg_relu_nm,
                                   construct_had_dot, construct_had_dot_nm,
                                   construct_ord)
from embedsim.fixtures import fixture
from embedsim.logic import (CapExceededError, KnowledgeBase, Signature,
                            counter_models, entails, enumerate_models,
                            parse_kb, rank_mu)
from embedsim.strategies import strategy_accepts
from embedsim.verifier import (subset_queries, verify_monotonic,
                               verify_nonmonotonic)
from references import (ref_avg_relu_vectors, ref_construct_avg_relu,
                        ref_construct_had_dot, ref_construct_ord, ref_dot,
                        ref_emb_avg, ref_emb_had, ref_relu_vec)

F = Fraction
AB_KB = "atoms: a b\nrule: a -> b\n"


class TestAvgRelu:
    def test_worked_instance_vectors(self):
        kb = parse_kb(AB_KB)
        res = ref_construct_avg_relu(kb, DeltaConfig(5))
        assert res.model_order == (0b00, 0b10, 0b11)
        assert res.embedding.context["a"] == (F(-5), F(-5), F(1), F(1))
        assert res.embedding.context["b"] == (F(-5), F(1), F(1), F(1))
        # the model 0b11 refutes nothing: K is the maximal model lacking
        # a (0b10) and the one lacking b (0b00)
        res = construct_avg_relu(kb, DeltaConfig(5))
        assert res.model_order == (0b00, 0b10)
        assert res.embedding.context["a"] == (F(-5), F(-5), F(1))
        assert res.embedding.context["b"] == (F(-5), F(1), F(1))

    def test_worked_instance_scores(self):
        kb = parse_kb(AB_KB)
        for build, want in ((ref_construct_avg_relu, (2, -3)),
                            (construct_avg_relu, (1, -4))):
            emb = build(kb, DeltaConfig(5)).embedding
            fwd = ref_dot(ref_relu_vec(ref_emb_avg(emb, ("a",))),
                          emb.context["b"])
            bwd = ref_dot(ref_relu_vec(ref_emb_avg(emb, ("b",))),
                          emb.context["a"])
            assert (fwd, bwd) == want

    def test_inconsistent_kb_accepts_everything(self):
        kb = parse_kb("atoms: a b\nformula: a\nformula: !a\n")
        res = construct_avg_relu(kb)
        assert res.embedding.dimension == 1
        assert all(v == (F(1),) for v in res.embedding.context.values())
        report = verify_monotonic(res.embedding, res.strategy, kb)
        assert report.simulates

    def test_empty_kb(self):
        kb = parse_kb("atoms: a b\n")
        res = construct_avg_relu(kb)
        assert strategy_accepts(res.embedding, res.strategy, ("a",), "a")
        assert not strategy_accepts(res.embedding, res.strategy, ("a",), "b")

    def test_default_delta_is_smallest_legal(self):
        kb = parse_kb(AB_KB)
        assert construct_avg_relu(kb).delta == 5

    def test_delta_validation(self):
        kb = parse_kb(AB_KB)
        with pytest.raises(ValueError):
            construct_avg_relu(kb, DeltaConfig(4))

    def test_atom_cap(self):
        kb = KnowledgeBase(Signature(tuple(f"p{i}" for i in range(21))), ())
        with pytest.raises(CapExceededError):
            construct_avg_relu(kb)


class TestHadDot:
    def test_worked_instance_vectors(self):
        kb = parse_kb(AB_KB)
        emb = ref_construct_had_dot(kb, DeltaConfig(5)).embedding
        assert emb.context["a"] == (F(0), F(0), F(1), F(1))
        assert emb.output["a"] == (F(-5), F(-5), F(1), F(1))
        assert ref_dot(ref_emb_had(emb, ("a",)), emb.output["b"]) == 2
        res = construct_had_dot(kb, DeltaConfig(5))
        assert res.model_order == (0b00, 0b10)
        emb = res.embedding
        assert emb.context["a"] == (F(0), F(0), F(1))
        assert emb.output["a"] == (F(-5), F(-5), F(1))
        assert ref_dot(ref_emb_had(emb, ("a",)), emb.output["b"]) == 1

    def test_zero_thresholds(self):
        kb = fixture("CE1")
        emb = construct_had_dot(kb).embedding
        assert all(v == 0 for v in emb.lam.values())

    def test_exhaustive_equivalence(self):
        rng = random.Random(41)
        for _ in range(15):
            kb = random_rule_kb(rng, ["a", "b", "c", "d", "e"])
            res = construct_had_dot(kb)
            assert verify_monotonic(res.embedding, res.strategy, kb).simulates

    def test_inconsistent_kb_accepts_everything(self):
        kb = parse_kb("atoms: a b\nformula: a & !a\n")
        res = construct_had_dot(kb)
        assert res.embedding.dimension == 1
        assert verify_monotonic(res.embedding, res.strategy, kb).simulates

    def test_tied_variant_models_reversed_rule(self):
        # forcing output := context breaks the asymmetric rule a -> b
        kb = parse_kb(AB_KB)
        emb = construct_had_dot(kb).embedding
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
        assert strategy_accepts(emb, res.strategy, ("a",), "b")
        assert not strategy_accepts(emb, res.strategy, ("b",), "a")
        res = construct_ord(kb)
        emb = res.embedding
        assert res.model_order == (0b00, 0b10)
        assert emb.context["a"] == (F(1), F(1))
        assert emb.context["b"] == (F(1), F(0))
        assert strategy_accepts(emb, res.strategy, ("a",), "b")
        assert not strategy_accepts(emb, res.strategy, ("b",), "a")

    def test_inconsistent_kb_all_zero(self):
        kb = parse_kb("atoms: a b\nformula: FALSE\n")
        res = construct_ord(kb)
        assert all(all(x == 0 for x in v)
                   for v in res.embedding.context.values())
        assert verify_monotonic(res.embedding, res.strategy, kb).simulates

    def test_exhaustive_equivalence(self):
        rng = random.Random(43)
        for _ in range(15):
            kb = random_rule_kb(rng, ["a", "b", "c", "d", "e"])
            res = construct_ord(kb)
            assert verify_monotonic(res.embedding, res.strategy, kb).simulates


class TestNonMonotonicConstructions:
    def test_ex4_triple_both_recipes(self):
        theta = fixture("EX4")
        for build in (construct_avg_relu_nm, construct_had_dot_nm):
            res = build(theta)
            emb, strat = res.embedding, res.strategy
            assert strategy_accepts(emb, strat, ("apple",), "cat:food")
            assert strategy_accepts(emb, strat, ("apple", "safari"),
                                    "cat:technology")
            assert not strategy_accepts(emb, strat, ("apple", "safari"),
                                        "cat:food")

    def test_single_stratum_reflexivity(self):
        theta = parse_kb("atoms: a b\nstratum: a\n")
        res = construct_avg_relu_nm(theta)
        assert strategy_accepts(res.embedding, res.strategy, ("a",), "a")
        assert not strategy_accepts(res.embedding, res.strategy, ("a",), "b")

    def test_exception_suppression(self):
        theta = fixture("ORD-NM")
        res = construct_had_dot_nm(theta)
        assert strategy_accepts(res.embedding, res.strategy, ("a",), "x")
        assert not strategy_accepts(res.embedding, res.strategy,
                                    ("a", "b"), "x")

    def test_dimension_is_interpretation_count(self):
        theta = fixture("EX4")
        assert construct_avg_relu_nm(theta).embedding.dimension == 16
        assert construct_had_dot_nm(theta).embedding.dimension == 16

    def test_random_match_with_rank_oracle(self):
        rng = random.Random(47)
        atoms = ["a", "b", "c", "d"]
        for _ in range(20):
            theta = random_stratified_kb(rng, atoms, max_strata=3)
            for build in (construct_avg_relu_nm, construct_had_dot_nm):
                res = build(theta)
                report = verify_nonmonotonic(res.embedding, res.strategy, theta)
                assert report.simulates, (theta, build.__name__,
                                          report.mismatches[:3])

    def test_dominance_sign(self):
        # the labelling score's sign tracks the rank comparison strictly
        rng = random.Random(53)
        atoms = ["a", "b", "c"]
        for _ in range(10):
            theta = random_stratified_kb(rng, atoms, max_strata=3)
            res = construct_avg_relu_nm(theta)
            emb = res.embedding
            sig = theta.signature
            for subset, head in subset_queries(sig, len(atoms)):
                score = ref_dot(ref_relu_vec(ref_emb_avg(emb, subset)),
                            emb.context[head])
                smask = sig.mask(subset)
                hbit = sig.bit(head)
                m_plus = max((rank_mu(theta, m) for m in range(8)
                              if m & smask == smask and m & hbit),
                             default=-1)
                m_minus = max((rank_mu(theta, m) for m in range(8)
                               if m & smask == smask and not m & hbit),
                              default=-1)
                assert score != 0
                assert (score > 0) == (m_plus - m_minus - F(1, 2) > 0)

    def test_atom_cap(self):
        theta = parse_kb("atoms: " + " ".join(f"p{i}" for i in range(13))
                         + "\nstratum: p0\n")
        with pytest.raises(CapExceededError):
            construct_avg_relu_nm(theta)


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
            lambda kb, delta: ref_avg_relu_vectors(kb, enumerate_models(kb),
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
        results = [construct_avg_relu(kb), construct_had_dot(kb),
                   construct_ord(kb), construct_avg_relu_nm(theta),
                   construct_had_dot_nm(theta)]
        for res in results:
            for vecs in (res.embedding.context, res.embedding.output):
                for v in vecs.values():
                    assert all(x.denominator == 1 for x in v)


class TestCounterModelRecipes:
    """Recipes 1-3 over K against the paper's recipes over every model."""

    RECIPES = ((construct_avg_relu, ref_construct_avg_relu),
               (construct_had_dot, ref_construct_had_dot),
               (construct_ord, ref_construct_ord))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(plain_kbs(max_atoms=7))
    def test_exhaustive_and_no_larger(self, kb):
        n = len(kb.signature)
        for build, reference in self.RECIPES:
            res, ref = build(kb), reference(kb)
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
        for (build, _), dim in zip(self.RECIPES, dims):
            res = build(kb)
            assert res.embedding.dimension == dim
            report = verify_monotonic(res.embedding, res.strategy, kb, cap=n)
            assert report.simulates
        if not needed:
            vectors = construct_ord(kb).embedding.context.values()
            assert all(v == (F(0),) for v in vectors)

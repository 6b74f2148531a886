"""Exact pooling/labelling evaluators and the numeric sigmoid demonstrator."""

import json
import random
import tracemalloc
from fractions import Fraction
from itertools import product
from math import isqrt
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (EXACT_STRATEGIES, accepts, label, pool,
                      random_embedding, reported)
import embedsim.strategies as strategies
from embedsim.sigmoid import (MAX_ASCENT_WORK, MAX_DIAGNOSTIC_SIZE,
                              _sig_ascent, _sigmoid, angular_error,
                              cone_residual, emb_sig_numeric,
                              sig_conical_diagnostics, sig_gradient,
                              sig_objective)
from embedsim.strategies import (TABLE1_STRATEGIES, AttributeEmbedding,
                                 DimensionMismatchError, DistLabeller,
                                 DistOnNormLabeller, DotLabeller,
                                 DotOnNormLabeller, ExactEvaluationError,
                                 OrdLabeller, ReluLabeller, frac_str,
                                 parse_frac, _relu, exact_rule, scale,
                                 strategy_from_name, AVG_DOT, HAD_DOT,
                                 NORM_DOT, ORD_ORD, LABELLINGS, POOLINGS,
                                 StrategyId, _RULES)
from references import (REF_RULES, ref_emb_sig_numeric, ref_evaluate,
                        ref_lab_dist, ref_lab_dist_on_norm, ref_lab_dot,
                        ref_lab_dot_on_norm, ref_lab_relu, ref_score_dist,
                        ref_score_dist_on_norm, ref_score_dot,
                        ref_score_dot_on_norm, ref_score_relu,
                        ref_sig_ascent, ref_sig_conical_diagnostics)

F = Fraction


def make_embedding(vectors, lam=None, theta=None, output=None):
    dim = len(next(iter(vectors.values())))
    ctx = {a: tuple(F(x) for x in v) for a, v in vectors.items()}
    out = (ctx if output is None
           else {a: tuple(F(x) for x in v) for a, v in output.items()})
    return AttributeEmbedding(
        dim, dict(ctx), dict(out),
        {a: F(v) for a, v in (lam or {}).items()},
        {a: F(v) for a, v in (theta or {}).items()},
    )


# ------------------------------------------------------------------
# Pooling
# ------------------------------------------------------------------

class TestPooling:
    # the four-point configuration used by the distance witness
    witness = {"a": (-1, 0), "b": (1, 0), "c": (0, -1), "d": (0, 1)}

    def test_avg_opposite_pair_cancels(self):
        emb = make_embedding(self.witness)
        assert pool(emb, AVG_DOT, ("a", "b")) == ((0, 0), 2)

    def test_avg_singleton_identity(self):
        emb = make_embedding(self.witness)
        assert pool(emb, AVG_DOT, ("a",)) == ((-1, 0), 1)

    def test_avg_all_four(self):
        emb = make_embedding(self.witness)
        assert pool(emb, AVG_DOT, ("a", "b", "c", "d")) == ((0, 0), 4)

    def test_norm_empty_is_zero(self):
        emb = make_embedding(self.witness)
        vec, q = pool(emb, NORM_DOT, ())
        assert vec == (F(0), F(0)) and q == 0

    def test_norm_unit_vector(self):
        emb = make_embedding({"u": (1, 0)})
        vec, q = pool(emb, NORM_DOT, ("u",))
        assert (vec, q) == ((F(1), F(0)), F(1))

    def test_norm_pythagorean(self):
        emb = make_embedding({"v": (3, 4)})
        vec, q = pool(emb, NORM_DOT, ("v",))
        assert vec == (F(3), F(4)) and q == 25
        # implied unit vector (3/5, 4/5)
        assert tuple(F(x, 5) for x in vec) == (F(3, 5), F(4, 5))

    def test_hadamard_indicator_and(self):
        emb = make_embedding({"p": (1, 0, 1), "q": (1, 1, 0)})
        assert pool(emb, HAD_DOT, ("p", "q")) == ((1, 0, 0), 1)

    def test_hadamard_singleton(self):
        emb = make_embedding({"p": (1, 0, 1)})
        assert pool(emb, HAD_DOT, ("p",)) == ((1, 0, 1), 1)

    def test_max_pool(self):
        emb = make_embedding({"p": (0, 1), "q": (1, 0)})
        assert pool(emb, ORD_ORD, ("p", "q")) == ((1, 1), 1)

    def test_max_dominates_members(self):
        rng = random.Random(3)
        for _ in range(20):
            emb = random_embedding(rng, ["a", "b", "c"])
            pooled, den = pool(emb, ORD_ORD, ("a", "b", "c"))
            for a in ("a", "b", "c"):
                assert all(x <= F(y, den)
                           for x, y in zip(emb.context[a], pooled))

    @settings(max_examples=50)
    @given(st.permutations(["a", "b", "c", "d"]), st.integers(0, 10**6))
    def test_pooling_symmetry(self, perm, seed):
        rng = random.Random(seed)
        emb = random_embedding(rng, ["a", "b", "c", "d"])
        for strategy in (AVG_DOT, HAD_DOT, ORD_ORD, NORM_DOT):
            assert (pool(emb, strategy, perm)
                    == pool(emb, strategy, ("a", "b", "c", "d")))


# ------------------------------------------------------------------
# Labelling
# ------------------------------------------------------------------

class TestLabelling:
    def test_dot_two_attribute_conjunction_instance(self):
        # parent=(-1,1), female=(1,1), mother=(0,1); avg(parent, female)=(0,1)
        emb = make_embedding(
            {"parent": (-1, 1), "female": (1, 1), "mother": (0, 1)},
            lam={"mother": 1, "parent": 0, "female": 0})
        pooled = pool(emb, AVG_DOT, ("parent", "female"))
        assert pooled == ((0, 2), 2)  # (0, 1)
        assert label(DotLabeller, emb, pooled, "mother")

    def test_dot_zero_vector_thresholds(self):
        emb = make_embedding({"b": (1, 1)}, lam={"b": 0})
        assert label(DotLabeller, emb, ((0, 0), 1), "b")
        emb2 = make_embedding({"b": (1, 1)}, lam={"b": 1})
        assert not label(DotLabeller, emb2, ((0, 0), 1), "b")

    def test_reassigned_vector_of_the_wrong_length(self):
        # the labellers check no pooled value: scaling refuses the
        # embedding, naming the atom, before a labeller is bound
        for family in ("context", "output"):
            emb = make_embedding({"a": (1, 1), "b": (1, 1)})
            getattr(emb, family)["b"] = (F(1),)
            with pytest.raises(DimensionMismatchError,
                               match="^vector for 'b' has length 1, "
                                     "embedding dimension is 2$"):
                scale(emb)

    def test_dist_witness_configuration(self):
        # avg{a,b} hits the head exactly; avg{a,c} misses at radius 1/2
        emb = make_embedding(
            {"a": (-1, 0), "b": (1, 0), "c": (0, -1), "d": (0, 1),
             "x": (0, 0)},
            theta={"x": F(1, 2)})
        assert label(DistLabeller, emb, pool(emb, AVG_DOT, ("a", "b")), "x")
        assert not label(DistLabeller, emb, pool(emb, AVG_DOT, ("a", "c")),
                         "x")

    def test_dist_at_center_and_zero_radius(self):
        emb = make_embedding({"b": (2, 3)}, theta={"b": 0})
        assert label(DistLabeller, emb, ((2, 3), 1), "b")
        assert not label(DistLabeller, emb, ((2, 4), 1), "b")

    def test_relu_clamps(self):
        assert _relu((-3, 2)) == (0, 2)

    def test_relu_all_negative_accepts_everything(self):
        emb = make_embedding({"b": (-5, -7)})
        assert label(ReluLabeller, emb, ((-1, -2), 1), "b")

    def test_ord_reflexive_and_strict(self):
        emb = make_embedding({"b": (0, 1), "c": (1, 0)})
        assert label(OrdLabeller, emb, ((0, 1), 1), "b")
        assert not label(OrdLabeller, emb, ((1, 0), 1), "b")

    @settings(max_examples=60)
    @given(st.integers(0, 10**6),
           st.fractions(min_value="1/100", max_value=100))
    def test_dot_scale_invariance(self, seed, scale):
        # scaling output vector and threshold together never flips the verdict
        rng = random.Random(seed)
        emb = random_embedding(rng, ["a", "b"])
        e = pool(emb, AVG_DOT, ("a",))  # the context vector of a
        scaled = AttributeEmbedding(
            emb.dimension, dict(emb.context),
            {k: tuple(scale * x for x in v) for k, v in emb.output.items()},
            {k: scale * v for k, v in emb.lam.items()},
            dict(emb.theta))
        assert (label(DotLabeller, emb, e, "b")
                == label(DotLabeller, scaled, e, "b"))


class TestNormalisedLabelling:
    def test_empty_set_positive_threshold(self):
        emb = make_embedding({"x": (1, 0)}, lam={"x": F(1, 10)})
        assert not label(DotOnNormLabeller, emb, pool(emb, NORM_DOT, ()),
                         "x")

    def test_empty_set_zero_threshold(self):
        emb = make_embedding({"x": (1, 0)}, lam={"x": 0})
        assert label(DotOnNormLabeller, emb, pool(emb, NORM_DOT, ()), "x")

    def test_zero_lambda_positive_dot(self):
        emb = make_embedding({"a": (1, 1), "x": (5, 0)}, lam={"x": 0})
        assert label(DotOnNormLabeller, emb, pool(emb, NORM_DOT, ("a",)), "x")

    def test_squared_comparison(self):
        # sum.out = 3, ||sum||^2 = 4, lambda = 2: 3 >= 2*2 is false
        emb = make_embedding({"a": (2, 0), "x": (F(3, 2), 0)}, lam={"x": 2})
        # the context denominator is 2, so the sum is carried as (4, 0)
        assert pool(emb, NORM_DOT, ("a",)) == ((4, 0), 16)
        assert not label(DotOnNormLabeller, emb, pool(emb, NORM_DOT, ("a",)),
                         "x")

    def test_negative_lambda_negative_dot(self):
        # -1 >= -2 * sqrt(1): true; -3 >= -2: false
        emb = make_embedding({"a": (1, 0), "x": (-1, 0), "y": (-3, 0)},
                             lam={"x": -2, "y": -2})
        assert label(DotOnNormLabeller, emb, pool(emb, NORM_DOT, ("a",)), "x")
        assert not label(DotOnNormLabeller, emb, pool(emb, NORM_DOT, ("a",)),
                         "y")

    @settings(max_examples=150)
    @given(st.fractions(min_value=-9, max_value=9, max_denominator=7),
           st.fractions(min_value=-9, max_value=9, max_denominator=7),
           st.fractions(min_value=0, max_value=20, max_denominator=7))
    def test_scaled_sqrt_comparison_matches_floats(self, lhs, coeff, q):
        # float reference, trusted only away from the decision boundary
        from embedsim.strategies import _ge_scaled_sqrt
        import math
        boundary_gap = float(lhs) - float(coeff) * math.sqrt(float(q))
        if abs(boundary_gap) < 1e-9:
            return
        assert _ge_scaled_sqrt(lhs, coeff, q) == (boundary_gap > 0)

    def test_scaled_sqrt_comparison_boundary_cases(self):
        from embedsim.strategies import _ge_scaled_sqrt
        # equality lands on the >= side in every sign regime
        assert _ge_scaled_sqrt(F(2), F(1), F(4))      # 2 >= sqrt(4)
        assert _ge_scaled_sqrt(F(-2), F(-1), F(4))    # -2 >= -sqrt(4)
        assert _ge_scaled_sqrt(F(0), F(0), F(7))
        assert _ge_scaled_sqrt(F(-2), F(-1), F(9))        # -2 >= -3
        assert not _ge_scaled_sqrt(F(-4), F(-1), F(9))    # -4 < -3
        assert not _ge_scaled_sqrt(F(2), F(1), F(9))      # 2 < 3

    @settings(max_examples=80)
    @given(st.fractions(min_value=-5, max_value=5, max_denominator=9),
           st.fractions(min_value=-5, max_value=5, max_denominator=9),
           st.fractions(min_value=-5, max_value=5, max_denominator=9),
           st.fractions(min_value=0, max_value=5, max_denominator=9))
    def test_unit_vector_dist_equals_dot_form(self, t, b1, b2, th):
        # exact unit vector from the rational circle parametrisation
        d = 1 + t * t
        e = (2 * t / d, (1 - t * t) / d)
        out = (b1, b2)
        emb = make_embedding({"e": e, "b": out},
                             lam={"b": (1 + b1 * b1 + b2 * b2 - th * th) / 2},
                             theta={"b": th})
        pooled = pool(emb, AVG_DOT, ("e",))  # the vector e itself
        direct = label(DistLabeller, emb, pooled, "b")
        dot_form = label(DotLabeller, emb, pooled, "b")
        assert direct == dot_form
        # and the squaring-based path agrees with both
        normed = pool(emb, NORM_DOT, ("e",))
        assert label(DistOnNormLabeller, emb, normed, "b") == direct
        assert label(DotOnNormLabeller, emb, normed, "b") == direct


class TestStrategyDispatch:
    def test_names_roundtrip(self):
        for name in ("avg-dot", "avg-relu", "had-dot", "had-dot-tied",
                     "ord-ord", "norm-dist", "sig-dot"):
            assert strategy_from_name(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            strategy_from_name("max-pool")

    def test_sig_has_no_exact_verdict(self):
        emb = make_embedding({"a": (1, 0)})
        with pytest.raises(ExactEvaluationError):
            accepts(emb, strategy_from_name("sig-dot"), ("a",), "a")

    def test_only_the_eight_exact_constants_have_a_rule(self):
        # avg-dot with tied vectors used to bind the tied dot labeller
        # under the name avg-dot, and avg-dist with tied vectors was
        # evaluated untied; every id off the table is refused
        table = [s for s in TABLE1_STRATEGIES if s.pooling != "sig"]
        assert set(_RULES) == set(table) and EXACT_STRATEGIES == table
        for pooling in POOLINGS:
            for labelling in LABELLINGS:
                for tied in (False, True):
                    strategy = StrategyId(pooling, labelling, tied)
                    if strategy in _RULES:
                        assert exact_rule(strategy) is _RULES[strategy]
                        continue
                    with pytest.raises(ExactEvaluationError):
                        exact_rule(strategy)

    def test_tied_vs_untied_hadamard(self):
        emb = make_embedding({"a": (1, 1), "b": (-2, 1)},
                             output={"a": (1, 0), "b": (1, 0)},
                             lam={"a": 0, "b": 0})
        tied = strategy_from_name("had-dot-tied")
        untied = strategy_from_name("had-dot")
        # untied consults output vectors, tied the context vectors
        assert accepts(emb, untied, ("a",), "b")
        assert not accepts(emb, tied, ("a",), "b")

    def test_dispatch_matches_primitives(self):
        rng = random.Random(9)
        emb = random_embedding(rng, ["a", "b", "c"])
        subset = ("a", "b")
        assert accepts(emb, AVG_DOT, subset, "c") == label(
            DotLabeller, emb, pool(emb, AVG_DOT, subset), "c")
        assert accepts(emb, ORD_ORD, subset, "c") == label(
            OrdLabeller, emb, pool(emb, ORD_ORD, subset), "c")


# ------------------------------------------------------------------
# Integer kernels against the Fraction reference
# ------------------------------------------------------------------

KERNEL_ATOMS = ("a", "b", "c", "d", "e", "f")
# mixed denominators: the lcm of a family's denominators reaches 60
coords = st.fractions(min_value=-4, max_value=4, max_denominator=6)
thresholds = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3,
                                                   max_denominator=5))
radii = st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=4,
                                              max_denominator=5))


@st.composite
def kernel_embeddings(draw):
    dim = draw(st.integers(1, 4))
    vec = st.tuples(*[coords] * dim)
    context = {a: draw(vec) for a in KERNEL_ATOMS[:-1]}
    # f cancels e, so {e, f} pools to the zero sum (||sum||^2 = 0)
    context["f"] = tuple(-x for x in context["e"])
    output = {a: draw(vec) for a in KERNEL_ATOMS}
    return AttributeEmbedding(
        dim, context, output,
        {a: draw(thresholds) for a in KERNEL_ATOMS},
        {a: draw(radii) for a in KERNEL_ATOMS})


OUTSIDE = ("y", "z")


@st.composite
def labeller_cases(draw):
    """A kernel embedding with two atoms more, and heads: a drawn ordering
    of some kernel atoms.  Lambda is 0 for a and negative for b, and
    theta is 0 for c."""
    emb = draw(kernel_embeddings())
    vec = st.tuples(*[coords] * emb.dimension)
    for a in OUTSIDE:
        emb.context[a], emb.output[a] = draw(vec), draw(vec)
        emb.lam[a], emb.theta[a] = draw(thresholds), draw(radii)
    emb.lam["a"] = F(0)
    emb.lam["b"] = -draw(st.fractions(min_value=F(1, 5), max_value=3,
                                      max_denominator=5))
    emb.theta["c"] = F(0)
    heads = draw(st.permutations(KERNEL_ATOMS))[:draw(st.integers(1, 6))]
    return emb, tuple(heads)


class TestKernelsMatchFractionReference:
    def test_reference_covers_every_exact_strategy(self):
        assert sorted(REF_RULES) == sorted(s.name for s in EXACT_STRATEGIES)

    @settings(max_examples=80)
    @given(labeller_cases(),
           st.lists(st.sampled_from(KERNEL_ATOMS + OUTSIDE), min_size=1,
                    max_size=8))
    def test_decisions_and_scores(self, case, drawn):
        # a labeller bound to the drawn heads labels every one of them in
        # one bitmask; subsets may pool atoms that are not heads
        emb, heads = case
        scaled = scale(emb)
        # the drawn atoms (duplicates included), a cancelling pair, and a
        # Hadamard product over all six kernel atoms
        subsets = [tuple(drawn), ("e", "f"), KERNEL_ATOMS]
        for strategy in EXACT_STRATEGIES:
            rule = exact_rule(strategy)
            labeller = rule.labeller(scaled, heads)
            cases = subsets + ([()] if strategy.pooling == "norm" else [])
            for subset in cases:
                pooled = pool(emb, strategy, subset)
                want = [ref_evaluate(emb, strategy.name, subset, head)
                        for head in heads]
                got = labeller.labels(pooled)
                assert got == sum(
                    1 << i for i, (label, _) in enumerate(want) if label)
                # one report over every head, and one over the heads at
                # even positions alone
                every = (1 << len(heads)) - 1
                records = [(subset, head, not label, label, text)
                           for head, (label, text) in zip(heads, want)]
                assert reported(labeller, subset, got, every) == records, (
                    strategy.name, subset)
                assert reported(labeller, subset, got,
                                every & 0b10101) == records[::2]
                for i, head in enumerate(heads):
                    if subset:
                        assert accepts(
                            emb, strategy, subset + subset[:1],
                            head) == want[i][0]

    def test_scaling_reads_the_current_thresholds(self):
        emb = make_embedding({"a": (1, 0), "b": (1, 0)}, lam={"b": 2})
        assert not accepts(emb, AVG_DOT, ("a",), "b")
        emb.lam = {"a": F(0), "b": F(1)}
        assert accepts(emb, AVG_DOT, ("a",), "b")

    def test_common_denominators(self):
        emb = make_embedding({"a": (F(1, 2), F(1, 3)), "b": (F(3, 4), 0)},
                             output={"a": (1, F(2, 5)), "b": (0, 0)})
        scaled = scale(emb)
        assert (scaled.cden, scaled.oden) == (12, 5)
        assert scaled.context == {"a": (6, 4), "b": (9, 0)}
        assert scaled.output == {"a": (5, 2), "b": (0, 0)}


def _wide_embedding(rng, atoms, dimension, bits):
    """Coordinates of up to `bits` bits over small denominators; one atom
    is the negation of another and one is zero, so sums cancel and
    Hadamard products vanish.  Lambda is negative, 0 or large; theta 0,
    small or large."""
    def coord():
        return F(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 7))

    context = {a: tuple(coord() for _ in range(dimension)) for a in atoms}
    context[atoms[1]] = tuple(-x for x in context[atoms[0]])
    context[atoms[2]] = (F(0),) * dimension
    output = {a: tuple(coord() for _ in range(dimension)) for a in atoms}
    big = F(2 ** (bits + 2), rng.randint(1, 5))
    lam = {a: rng.choice([-big, F(-1, 3), F(0), big,
                          F(rng.randint(-2 ** bits, 2 ** bits), 3)])
           for a in atoms}
    theta = {a: rng.choice([F(0), F(1, 2), big, big * big]) for a in atoms}
    return AttributeEmbedding(dimension, context, output, lam, theta)


class TestPackedDecisions:
    """Every head's label bit and score text, from a labeller bound to
    16-20 heads (at least as many as a narrowest field has bits),
    against the Fraction reference: coordinates of 3, 5-7, 13-15 and
    100-130 bits, Hadamard products over 6-8 atoms, and zero pooled
    vectors."""

    # seeds 6-11 draw 5-7 and 13-15 bits, where the dot and ReLU
    # labellers' fields step from 16 to 32, 32 to 48 and 48 to 64 bits
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference_on_wide_heads(self, seed):
        rng = random.Random(f"packed:{seed}")
        atoms = tuple(f"h{i}" for i in range(rng.randint(16, 20)))
        if seed >= 6:
            bits = (5, 6, 7, 13, 14, 15)[seed - 6]
        else:
            bits = 3 if seed % 3 == 0 else rng.randint(100, 130)
        base = _wide_embedding(rng, atoms, rng.randint(2, 4), bits)
        subsets = [atoms[:2], atoms[2:3], atoms[:6], atoms[3:11],
                   tuple(rng.sample(atoms, 7)), atoms[5:6]]
        for strategy in EXACT_STRATEGIES:
            emb = base
            if strategy.tied:  # tied rules read the context vectors
                emb = AttributeEmbedding(base.dimension, base.context,
                                         base.context, base.lam, base.theta)
            rule = exact_rule(strategy)
            labeller = rule.labeller(scale(emb), atoms)
            for subset in subsets:
                pooled = pool(emb, strategy, subset)
                want = [ref_evaluate(emb, strategy.name, subset, head)
                        for head in atoms]
                got = labeller.labels(pooled)
                assert [bool(got >> i & 1) for i in range(len(atoms))] == [
                    label for label, _ in want], (strategy.name, subset)
                every = (1 << len(atoms)) - 1
                assert reported(labeller, subset, got, every) == [
                    (subset, head, not label, label, text)
                    for head, (label, text) in zip(atoms, want)], (
                        strategy.name, subset)

    def test_no_heads(self):
        emb = make_embedding({"a": (1, -2)}, lam={"a": 1}, theta={"a": 1})
        for strategy in EXACT_STRATEGIES:
            rule = exact_rule(strategy)
            labeller = rule.labeller(scale(emb), ())
            pooled = pool(emb, strategy, ("a",))
            assert labeller.labels(pooled) == 0
            assert reported(labeller, ("a",), 0, 0) == []

    # lambda and theta are 0 and every denominator is 1, so q = 1 and the
    # reach is 3: the dot and ReLU bound is 3 max|v_k| and the distance
    # bound 3 (max|v_k| + 1)^2, and each top below is the largest
    # max|v_k| whose bound fits in 14, 30 and 46 bits, the last widths
    # of 16, 32 and 48 that leave two bits to spare
    @pytest.mark.parametrize("rule, ref_label, ref_score, tops", [
        (DotLabeller, ref_lab_dot, ref_score_dot,
         (5461, 357913941, 23456248059221)),
        (ReluLabeller, ref_lab_relu, ref_score_relu,
         (5461, 357913941, 23456248059221)),
        (DistLabeller, ref_lab_dist, ref_score_dist, (72, 18917, 4843164)),
    ], ids=["dot", "relu", "dist"])
    def test_widths_on_either_side_of_each_16_bit_step(
            self, rule, ref_label, ref_score, tops):
        emb = _norm_embedding([(1, 1, 1), (-1, -1, -1), (1, -1, 1),
                               (0, 0, 0)], 3)
        labeller = rule(scale(emb), emb.atoms)
        for t in (x + step for x in tops for step in (0, 1)):
            for v in ((t,) * 3, (-t,) * 3, (t, -t, t)):
                e = tuple(map(F, v))
                want = [ref_label(emb, e, head) for head in emb.atoms]
                got = labeller.labels((v, 1))
                assert got == sum(1 << i for i, label in enumerate(want)
                                  if label), v
                assert reported(labeller, ("s",), got, 15) == [
                    (("s",), head, not label, label, ref_score(emb, e, head))
                    for head, label in zip(emb.atoms, want)], v
        assert sorted(labeller.packs) == [16, 32, 48, 64]


def _norm_embedding(outputs, dimension, lam=(), theta=()):
    """Heads h0, h1, ... whose context and output vectors are the integer
    tuples `outputs`, so that both denominators are 1; lambda and theta
    are 0 past the given ones."""
    names = [f"h{i}" for i in range(len(outputs))]
    vectors = {a: tuple(map(F, v)) for a, v in zip(names, outputs)}
    return AttributeEmbedding(dimension, vectors, dict(vectors),
                              dict(zip(names, lam)), dict(zip(names, theta)))


# each normalised labeller with its Fraction reference
NORM_RULES = [(DotOnNormLabeller, ref_lab_dot_on_norm, ref_score_dot_on_norm),
              (DistOnNormLabeller, ref_lab_dist_on_norm,
               ref_score_dist_on_norm)]


def _check_norm(emb, labeller, ref_label, ref_score, v):
    """The label set of the integer sum v, and one report over every
    head, against the reference."""
    pooled = v, sum(map(mul, v, v))
    got = labeller.labels(pooled)
    want = [ref_label(emb, pooled, head) for head in labeller.names]
    assert got == sum(1 << i for i, label in enumerate(want) if label), v
    assert reported(labeller, ("s",), got, (1 << len(want)) - 1) == [
        (("s",), head, not label, label, ref_score(emb, pooled, head))
        for head, label in zip(labeller.names, want)], v


class TestPackedDots:
    """The normalised labellers, whose columns pack m O per head, against
    the Fraction reference: every head's label and report text, at field
    widths of 16 bits and up."""

    @settings(max_examples=100)
    @given(st.integers(0, 25), st.integers(0, 60),
           st.lists(st.sampled_from([0, 1, 2**7, 2**15, 2**16, 10**9, 2**31,
                                     10**40]), min_size=5, max_size=5),
           st.integers(0, 2**32))
    def test_matches_per_head_products(self, n, d, bounds, seed):
        # coordinates up to each drawn bound and small thresholds, drawn
        # from a seeded generator (drawing 25 x 60 of them through
        # hypothesis is slow)
        rng = random.Random(seed)

        def vector(bound):
            return tuple(rng.randint(-bound, bound) for _ in range(d))

        def fraction():
            return F(rng.randint(-3, 3), rng.randint(1, 3))

        emb = _norm_embedding([vector(bounds[0]) for _ in range(n)], d,
                              [fraction() for _ in range(n)],
                              [abs(fraction()) for _ in range(n)])
        labellers = [(rule(scale(emb), emb.atoms), label, score)
                     for rule, label, score in NORM_RULES]
        # several magnitudes per labeller, so several widths share it
        for v in [(0,) * d] + [vector(bound) for bound in bounds[1:]]:
            for labeller, label, score in labellers:
                _check_norm(emb, labeller, label, score, v)

    def test_widths_on_either_side_of_a_16_bit_boundary(self):
        # lambda is 0, so c is 0 and m is 1; the reach is 3, so
        # |dot| <= 3 max|v_k|, and a field holds that with two bits to
        # spare: 16 bits up to max|v_k| = 5461, 32 up to 357,913,941 and
        # 48 above
        emb = _norm_embedding([(1, 1, 1), (-1, -1, -1), (1, -1, 1),
                               (0, 0, 0)], 3)
        labeller = DotOnNormLabeller(scale(emb), emb.atoms)
        for top in (5460, 5461, 5462, 357913941, 357913942):
            for v in ((top,) * 3, (-top,) * 3, (top, -top, top)):
                _check_norm(emb, labeller, ref_lab_dot_on_norm,
                            ref_score_dot_on_norm, v)
        assert sorted(labeller.packs) == [16, 32, 48]


class TestNormBrackets:
    """Each case of the packed normalised decision m dot >= c ||sum||,
    with s = isqrt(||sum||^2): the zero sum, ||sum||^2 a perfect square,
    and otherwise c < 0, c = 0 and c > 0 with m dot at c s, at c (s + 1)
    and strictly between the two, where squaring decides."""

    def test_every_case_against_the_reference(self):
        # 2-dimensional integer sums and outputs, and thresholds that
        # make c negative, zero and positive under both rules (c is 0
        # for lambda 0, and for theta^2 = 1 + ||O||^2, as at O = (0, 0)
        # with theta 1 and O = (2, 2) with theta 3)
        sums = list(product(range(-3, 4), repeat=2))
        outputs = list(product(range(-2, 3), repeat=2))
        lams = [F(-2), F(-1, 2), F(0), F(1, 3), F(1), F(2), F(5, 2)]
        thetas = [F(0), F(1, 2), F(1), F(2), F(3)]
        heads = [(out, lam, thetas[(j + k) % len(thetas)])
                 for j, out in enumerate(outputs)
                 for k, lam in enumerate(lams)]
        emb = _norm_embedding([out for out, _, _ in heads], 2,
                              [lam for _, lam, _ in heads],
                              [theta for _, _, theta in heads])
        for rule, label, score in NORM_RULES:
            labeller = rule(scale(emb), emb.atoms)
            cases = set()
            for v in sums:
                _check_norm(emb, labeller, label, score, v)
                cases |= {_bracket(rule, v, *head) for head in heads}
            assert cases == ALL_BRACKETS, (rule.__name__,
                                           ALL_BRACKETS - cases)


def _bracket(rule, v, out, lam, theta) -> tuple:
    """Which case of the decision the sum v and one head fall in."""
    normsq = sum(map(mul, v, v))
    if normsq == 0:
        return ("zero",)
    s = isqrt(normsq)
    if s * s == normsq:
        return ("square",)
    if rule is DotOnNormLabeller:
        m, c = lam.denominator, lam.numerator
    else:
        p, q = theta.numerator, theta.denominator
        m, c = 2 * q * q, (1 + sum(map(mul, out, out))) * q * q - p * p
    mdot, low, high = m * sum(map(mul, v, out)), c * s, c * (s + 1)
    sign = "c<0" if c < 0 else "c=0" if c == 0 else "c>0"
    if mdot == low:
        return sign, "at c s"
    if mdot == high:
        return sign, "at c (s+1)"
    if min(low, high) < mdot < max(low, high):
        return sign, "between"
    return sign, "outside"


ALL_BRACKETS = ({("zero",), ("square",), ("c=0", "at c s"),
                 ("c=0", "outside")}
                | {(sign, where) for sign in ("c<0", "c>0")
                   for where in ("at c s", "at c (s+1)", "between",
                                 "outside")})


class TestEmbeddingJson:
    def test_roundtrip(self):
        rng = random.Random(31)
        emb = random_embedding(rng, ["a", "b", "cat:x"])
        doc = emb.to_json_dict(provenance={"proposition": "1"})
        back = AttributeEmbedding.from_json_dict(json.loads(json.dumps(doc)))
        assert back.context == emb.context
        assert back.output == emb.output
        assert back.lam == emb.lam
        assert back.theta == emb.theta

    def test_fraction_strings(self):
        assert frac_str(F(-3, 6)) == "-1/2"
        assert frac_str(5) == "5/1"
        assert parse_frac("7/2") == F(7, 2)
        assert parse_frac("4") == F(4)
        assert parse_frac(-4) == F(-4)  # a JSON integer is exact
        assert parse_frac("0.5") == F(1, 2)
        assert parse_frac("1e3") == F(1000)
        assert parse_frac("1e-4299") == F(1, 10 ** 4299)
        assert parse_frac("1e4299") == F(10 ** 4299)
        # a numerator or denominator of more than 4300 digits could not
        # be printed
        for value in ("1e4300", "1e-4300", "123e4298"):
            with pytest.raises(ValueError, match="more than 4300 digits"):
                parse_frac(value)
        # an exponent is refused before its power of ten is computed
        for value in ("1e4301", "1e-3000000", "2E" + "9" * 5000):
            with pytest.raises(ValueError, match="decimal exponent"):
                parse_frac(value)
        # a JSON float is already rounded, and `true` would read as 1
        for value in (0.1, 4.0, True, None, [1]):
            with pytest.raises(ValueError, match="p/q"):
                parse_frac(value)

    def test_each_distinct_text_is_parsed_once(self, monkeypatch):
        # "1/2" five times, "-3" twice and "0" twice (the default lambda
        # and theta are the text "0"); the JSON int 1 is not a text, so
        # it is parsed where it stands
        calls = []
        original = strategies.parse_frac

        def counting(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(strategies, "parse_frac", counting)
        emb = AttributeEmbedding.from_json_dict({"dimension": 2, "atoms": [
            {"name": "a", "context": ["1/2", "-3"], "output": ["1/2", 1],
             "lambda": "1/2"},
            {"name": "b", "context": ["-3", "1/2"], "theta": "1/2"}]})
        assert calls == ["1/2", "-3", 1, "0"]
        assert emb.context == {"a": (F(1, 2), F(-3)), "b": (F(-3), F(1, 2))}
        assert emb.output["a"] == (F(1, 2), F(1))
        assert (emb.lam, emb.theta) == ({"a": F(1, 2), "b": F(0)},
                                        {"a": F(0), "b": F(1, 2)})

    @pytest.mark.parametrize("item", [True, 1.0, 0.5, None, [1]],
                             ids=["true", "1.0", "0.5", "null", "list"])
    def test_a_cached_text_admits_no_other_json_value(self, item):
        # true and 1.0 equal the int 1 read before them, and hash like
        # it, but only texts are stored, so each still reaches parse_frac
        # and is refused; a list cannot even be looked up
        doc = {"dimension": 2, "atoms": [
            {"name": "a", "context": [1, "1"], "output": [1, item]}]}
        with pytest.raises(ValueError, match=r"^atom 'a': output\[1\]: "
                                             r"expected a \"p/q\" string"):
            AttributeEmbedding.from_json_dict(doc)

    def test_dimension_validation(self):
        with pytest.raises(DimensionMismatchError,
                           match="^vector for 'a' has length 1, "
                                 "embedding dimension is 2$"):
            AttributeEmbedding(2, {"a": (F(1),)}, {"a": (F(1),)})

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError,
                           match="^negative distance radius for 'a'$"):
            AttributeEmbedding(1, {"a": (F(1),)}, {"a": (F(1),)},
                               theta={"a": F(-1)})


# ------------------------------------------------------------------
# Numeric sigmoid demonstrator
# ------------------------------------------------------------------

class TestSigmoidNumeric:
    def test_sigmoid_complement_identity(self):
        xs = np.linspace(-30, 30, 400)
        assert np.max(np.abs(1 - _sigmoid(xs) - _sigmoid(-xs))) < 1e-12

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(42)
        vectors = rng.standard_normal((4, 5))
        kappa = 0.8
        h = 1e-6
        for _ in range(10):
            e = rng.standard_normal(5)
            grad = sig_gradient(e, vectors, kappa)
            numeric = np.array([
                (sig_objective(e + h * dv, vectors, kappa)
                 - sig_objective(e - h * dv, vectors, kappa)) / (2 * h)
                for dv in np.eye(5)
            ])
            denom = max(np.max(np.abs(grad)), 1e-9)
            assert np.max(np.abs(grad - numeric)) / denom < 1e-5

    def test_singleton_aligns_with_attribute(self):
        emb = make_embedding({"a": (2, -1, 3)})
        y = emb_sig_numeric(emb, ("a",), kappa=1.0, iterations=3000, seed=5)
        a = np.array([2.0, -1.0, 3.0])
        assert angular_error(y, a) < 1e-6
        assert float(y @ a) > 0

    def test_pair_in_conical_hull(self):
        emb = make_embedding({"a": (1, 0), "b": (F(1, 2), F(1, 2))})
        y_a = emb_sig_numeric(emb, ("a",), seed=1, iterations=3000)
        y_b = emb_sig_numeric(emb, ("b",), seed=2, iterations=3000)
        y_ab = emb_sig_numeric(emb, ("a", "b"), seed=3, iterations=3000)
        assert cone_residual(y_ab, y_a, y_b) < 1e-6

    def test_antipodal_gradient_zero_at_origin(self):
        vectors = np.array([[1.0, 2.0], [-1.0, -2.0]])
        assert np.allclose(sig_gradient(np.zeros(2), vectors, 1.0), 0.0)

    def test_antipodal_pair_stays_near_origin(self):
        emb = make_embedding({"a": (1, 2), "b": (-1, -2)})
        y = emb_sig_numeric(emb, ("a", "b"), kappa=1.0, iterations=4000, seed=7)
        assert float(np.linalg.norm(y)) < 1e-8

    def test_deterministic_per_seed(self):
        emb = make_embedding({"a": (1, 1), "b": (0, 2)})
        y1 = emb_sig_numeric(emb, ("a", "b"), seed=11, iterations=500)
        y2 = emb_sig_numeric(emb, ("a", "b"), seed=11, iterations=500)
        assert np.array_equal(y1, y2)

    def test_kappa_must_be_positive(self):
        emb = make_embedding({"a": (1, 1)})
        with pytest.raises(ValueError):
            emb_sig_numeric(emb, ("a",), kappa=0.0)

    def test_negative_seed_is_named(self):
        # numpy's own message ("expected non-negative integer") names
        # no argument
        emb = make_embedding({"a": (1, 1)})
        message = "^seed must be a non-negative integer, got -1$"
        with pytest.raises(ValueError, match=message):
            emb_sig_numeric(emb, ("a",), seed=-1)
        with pytest.raises(ValueError, match=message):
            sig_conical_diagnostics(seed=-1)


class TestAngularError:
    @pytest.mark.parametrize("degrees", [0, 10, 45, 90, 135, 180])
    def test_known_angles(self, degrees):
        # the plane of u and v sits at an arbitrary place in R^5, and
        # the lengths differ, so only the directions may count
        rotation, _ = np.linalg.qr(np.random.default_rng(3).standard_normal(
            (5, 5)))
        t = np.radians(degrees)
        u = rotation @ np.array([3.0, 0, 0, 0, 0])
        v = rotation @ np.array([0.5 * np.cos(t), 0.5 * np.sin(t), 0, 0, 0])
        assert angular_error(u, v) == pytest.approx(t, abs=1e-12)
        assert angular_error(v, u) == pytest.approx(t, abs=1e-12)

    def test_tiny_angle_keeps_its_relative_precision(self):
        t = 1e-9
        u, v = np.array([1.0, 0.0]), np.array([np.cos(t), np.sin(t)])
        assert angular_error(u, v) == pytest.approx(t, rel=1e-6)

    def test_zero_vector_is_nan(self):
        assert np.isnan(angular_error(np.zeros(3), np.ones(3)))
        assert np.isnan(angular_error(np.ones(3), np.zeros(3)))

    def test_memory_is_linear_in_the_dimension(self):
        # two d x d float matrices at d = 1,000 would be 16 MB
        u, v = np.ones(1000), np.arange(1000.0)
        tracemalloc.start()
        try:
            angular_error(u, v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200_000


class TestSigmoidBatch:
    """The batched ascent against the one-problem-at-a-time reference."""

    def test_gradient_and_objective_take_batch_axes(self):
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((4, 3, 5))
        e = rng.standard_normal((4, 5))
        grads = sig_gradient(e, vectors, 0.6)
        values = sig_objective(e, vectors, 0.6)
        assert grads.shape == (4, 5) and values.shape == (4,)
        for i in range(4):
            assert np.allclose(grads[i], sig_gradient(e[i], vectors[i], 0.6),
                               rtol=0, atol=1e-14)
            single = sig_objective(e[i], vectors[i], 0.6)
            assert isinstance(single, float)
            assert abs(values[i] - single) < 1e-14

    @pytest.mark.parametrize("dimension", range(1, 7))
    @pytest.mark.parametrize("iterations", (0, 1, 500))
    def test_mixed_batch_matches_reference(self, dimension, iterations):
        rng = np.random.default_rng(100 * dimension + iterations)
        raw = {n: rng.standard_normal(dimension) for n in "abc"}
        raw["d"] = -raw["a"]  # an antipodal pair as well
        context = {n: tuple(F(x).limit_denominator(10**6) for x in v)
                   for n, v in raw.items()}
        emb = AttributeEmbedding(dimension, context, dict(context))
        problems = [("a",), ("a", "b"), ("c",), ("b", "c"), ("a", "d")]
        kappa = 0.7
        zero = [0.0] * dimension
        vectors = np.array([
            [[float(x) for x in context[n]] for n in atoms]
            + [zero] * (2 - len(atoms))
            for atoms in problems])
        starts = np.array([
            0.1 * np.random.default_rng(i).standard_normal(dimension)
            for i in range(len(problems))])
        got = _sig_ascent(vectors, starts, kappa, iterations)
        for i, atoms in enumerate(problems):
            want = ref_emb_sig_numeric(emb, atoms, kappa, iterations, seed=i)
            assert np.max(np.abs(got[i] - want)) <= 1e-12

    def test_batch_of_one_matches_reference(self):
        emb = make_embedding({"a": (1, F(-1, 3), 2), "b": (0, 1, F(1, 2))})
        for atoms in (("a",), ("b", "a")):
            got = emb_sig_numeric(emb, atoms, kappa=1.5, iterations=400,
                                  seed=9)
            want = ref_emb_sig_numeric(emb, atoms, kappa=1.5, iterations=400,
                                       seed=9)
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_diagnostics_match_reference(self, seed):
        got = sig_conical_diagnostics(seed=seed)
        want = ref_sig_conical_diagnostics(seed=seed)
        assert got.keys() == want.keys()
        assert ({k: v for k, v in got.items() if k != "trials"}
                == {k: v for k, v in want.items() if k != "trials"})
        assert len(got["trials"]) == len(want["trials"])
        for g, w in zip(got["trials"], want["trials"]):
            assert g.keys() == w.keys()
            assert all(abs(g[k] - w[k]) <= 1e-9 for k in g)

    def test_nan_problem_raises(self):
        vectors = np.array([[[1.0, 0.0], [0.0, 1.0]],
                            [[np.nan, 1.0], [0.0, 0.0]],
                            [[0.5, 0.5], [0.0, 0.0]]])
        with pytest.raises(ArithmeticError), np.errstate(invalid="ignore"):
            _sig_ascent(vectors, np.full((3, 2), 0.1), 1.0, 10)

    def test_dimension_one_is_finite(self):
        # at dimension 1 about half of the drawn pairs are antipodal
        diag = sig_conical_diagnostics(dimension=1, trials=8, iterations=500)
        cosines = [t["cos_ab"] for t in diag["trials"]]
        assert -1.0 in cosines and 1.0 in cosines
        json.dumps(diag, allow_nan=False)

    @pytest.mark.parametrize("bad", [
        {"dimension": 0}, {"trials": 0}, {"iterations": -1},
        {"kappa": 0.0}, {"kappa": -1.0}, {"kappa": float("nan")},
        {"kappa": float("inf")}, {"iterations": True},
        {"iterations": 2.5}, {"iterations": "3"},
        # past the size budget: refused before anything is allocated
        {"dimension": 1001}, {"trials": 1001}, {"dimension": 100000}])
    def test_diagnostics_arguments_validated(self, bad, monkeypatch):
        def no_work(*args):
            raise AssertionError("ran before validating its arguments")
        monkeypatch.setattr("embedsim.sigmoid._sig_ascent", no_work)
        with pytest.raises(ValueError):
            sig_conical_diagnostics(**bad)

    def test_diagnostics_size_budget(self, monkeypatch):
        # the table's defaults, 5 trials at d = 4, sit well inside it
        assert 5 * 4 <= MAX_DIAGNOSTIC_SIZE == 4096
        seen = []

        def no_ascent(vectors, starts, kappa, iterations):
            seen.append(vectors.shape)
            return starts
        monkeypatch.setattr("embedsim.sigmoid._sig_ascent", no_ascent)
        # 17 x 241 = 4097 is one over, each factor within its own bound
        with pytest.raises(ValueError, match="at most 4096, got 4097"):
            sig_conical_diagnostics(dimension=241, trials=17)
        with pytest.raises(ValueError, match="trials"):
            sig_conical_diagnostics(dimension=1, trials=251)
        assert not seen
        # exactly at the limit the call goes ahead
        sig_conical_diagnostics(dimension=256, trials=16)
        assert seen == [(48, 2, 256)]


# Step counts around the powers of two where the cycle check moves its mark
CYCLE_ITERATIONS = (0, 1, 2, 3, 63, 64, 65, 127, 128, 500, 3000, 3001)


def _reference_checkpoints(vectors, starts, kappa):
    """`ref_sig_ascent` at every count of CYCLE_ITERATIONS, one run chained
    through the counts in order (the plain loop continues from any state)."""
    states, e, done = {}, starts, 0
    for iterations in CYCLE_ITERATIONS:
        e = ref_sig_ascent(vectors, e, kappa, iterations - done)
        states[iterations], done = e, iterations
    return states


def _table_batch(seed, monkeypatch):
    """The (vectors, starts, kappa) batch `sig_conical_diagnostics` ascends."""
    seen = []

    def capture(vectors, starts, kappa, iterations):
        seen.append((vectors, starts, kappa))
        return starts
    with monkeypatch.context() as m:
        m.setattr("embedsim.sigmoid._sig_ascent", capture)
        sig_conical_diagnostics(seed=seed)
    (batch,) = seen
    return batch


def _count_gradients(monkeypatch):
    calls = []
    real = sig_gradient

    def counting(*args):
        calls.append(None)
        return real(*args)
    monkeypatch.setattr("embedsim.sigmoid.sig_gradient", counting)
    return calls


class TestSigmoidCycleStop:
    """The ascent that stops at a repeated state against the full loop."""

    @pytest.mark.parametrize("seed", range(32))
    def test_table_batch_bit_identical(self, seed, monkeypatch):
        vectors, starts, kappa = _table_batch(seed, monkeypatch)
        assert vectors.shape == (15, 2, 4)
        want = _reference_checkpoints(vectors, starts, kappa)
        for iterations in CYCLE_ITERATIONS:
            got = _sig_ascent(vectors, starts, kappa, iterations)
            assert got.tobytes() == want[iterations].tobytes(), iterations

    @pytest.mark.parametrize("dimension", range(1, 9))
    def test_padded_random_batch_bit_identical(self, dimension):
        rng = np.random.default_rng(7000 + dimension)
        batch, rows = 6, 3
        vectors = rng.standard_normal((batch, rows, dimension))
        for b in range(batch):
            vectors[b, rng.integers(1, rows + 1):] = 0.0  # zero-padded rows
        starts = 0.1 * rng.standard_normal((batch, dimension))
        kappa = float(rng.uniform(0.2, 2.0))
        want = _reference_checkpoints(vectors, starts, kappa)
        for iterations in CYCLE_ITERATIONS:
            got = _sig_ascent(vectors, starts, kappa, iterations)
            assert got.tobytes() == want[iterations].tobytes(), iterations

    @pytest.mark.parametrize("seed", range(32))
    def test_diagnostics_cost_follows_the_cycle(self, seed, monkeypatch):
        calls = _count_gradients(monkeypatch)
        sig_conical_diagnostics(seed=seed)
        assert 0 < len(calls) <= 200

    def test_billion_iterations_cost_the_same(self, monkeypatch):
        calls = _count_gradients(monkeypatch)
        diag = sig_conical_diagnostics(iterations=10**9)
        assert 0 < len(calls) <= 200
        assert diag["iterations"] == 10**9
        json.dumps(diag, allow_nan=False)

    @pytest.mark.parametrize("shape", [(1000, 4), (16, 250)])
    def test_search_without_a_repeat_is_refused(self, shape, monkeypatch):
        # kappa 1e-5 does not cycle within the budget: the largest batches
        # are refused after MAX_ASCENT_WORK / (3 x 4,000) steps
        calls = _count_gradients(monkeypatch)
        dimension, trials = shape
        with pytest.raises(ValueError, match="repeated no state within "
                                             "3072 steps of 12000 coordinates"):
            sig_conical_diagnostics(dimension, trials, kappa=1e-5,
                                    iterations=10**9)
        assert len(calls) == MAX_ASCENT_WORK // 12000 == 3072

    def test_default_shape_search_is_refused(self, monkeypatch):
        # at the default shape (15 problems of dimension 4) each step is
        # charged MAX_DIAGNOSTIC_SIZE coordinates, not 60, so the search
        # is refused after MAX_ASCENT_WORK / 4,096 steps
        calls = _count_gradients(monkeypatch)
        with pytest.raises(ValueError, match="within 9000 steps of 60 "
                                             "coordinates"):
            sig_conical_diagnostics(kappa=1e-5, iterations=10**9)
        assert len(calls) == MAX_ASCENT_WORK // MAX_DIAGNOSTIC_SIZE == 9000


@pytest.mark.parametrize("bad", [
    {"iterations": -1}, {"iterations": True}, {"iterations": 2.5},
    {"iterations": "3"}, {"kappa": 0.0}, {"kappa": -1.0},
    {"kappa": float("nan")}, {"kappa": float("inf")}])
def test_emb_sig_numeric_arguments_validated(bad, monkeypatch):
    def no_work(*args):
        raise AssertionError("ran before validating its arguments")
    monkeypatch.setattr("embedsim.sigmoid._sig_ascent", no_work)
    with pytest.raises(ValueError):
        emb_sig_numeric(make_embedding({"a": (1, 2)}), ("a",), **bad)

"""Exact pooling/labelling evaluators and the numeric sigmoid demonstrator."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_embedding
from embedsim.strategies import (TABLE1_STRATEGIES, AttributeEmbedding,
                                 DimensionMismatchError,
                                 ExactEvaluationError, angular_error,
                                 cone_residual, emb_avg, emb_had, emb_norm,
                                 emb_ord, emb_sig_numeric, frac_str, lab_dist,
                                 lab_dist_on_norm, lab_dot, lab_dot_on_norm,
                                 lab_ord, lab_relu, parse_frac, _relu,
                                 exact_rule, scale, sig_gradient,
                                 sig_objective, strategy_accepts,
                                 strategy_from_name, AVG_DOT, ORD_ORD,
                                 _sig_ascent, _sigmoid,
                                 sig_conical_diagnostics)
from references import (REF_RULES, ref_emb_avg, ref_emb_sig_numeric,
                        ref_evaluate, ref_lab_relu,
                        ref_sig_conical_diagnostics)

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
        assert emb_avg(emb, ("a", "b")) == ((0, 0), 2)

    def test_avg_singleton_identity(self):
        emb = make_embedding(self.witness)
        assert emb_avg(emb, ("a",)) == ((-1, 0), 1)

    def test_avg_all_four(self):
        emb = make_embedding(self.witness)
        assert emb_avg(emb, ("a", "b", "c", "d")) == ((0, 0), 4)

    def test_avg_empty_raises(self):
        emb = make_embedding(self.witness)
        with pytest.raises(ValueError):
            emb_avg(emb, ())

    def test_avg_collapses_duplicates(self):
        emb = make_embedding(self.witness)
        assert emb_avg(emb, ("a", "a", "b")) == emb_avg(emb, ("a", "b"))

    def test_norm_empty_is_zero(self):
        emb = make_embedding(self.witness)
        vec, q = emb_norm(emb, ())
        assert vec == (F(0), F(0)) and q == 0

    def test_norm_unit_vector(self):
        emb = make_embedding({"u": (1, 0)})
        vec, q = emb_norm(emb, ("u",))
        assert (vec, q) == ((F(1), F(0)), F(1))

    def test_norm_pythagorean(self):
        emb = make_embedding({"v": (3, 4)})
        vec, q = emb_norm(emb, ("v",))
        assert vec == (F(3), F(4)) and q == 25
        # implied unit vector (3/5, 4/5)
        assert tuple(F(x, 5) for x in vec) == (F(3, 5), F(4, 5))

    def test_hadamard_indicator_and(self):
        emb = make_embedding({"p": (1, 0, 1), "q": (1, 1, 0)})
        assert emb_had(emb, ("p", "q")) == ((1, 0, 0), 1)

    def test_hadamard_singleton(self):
        emb = make_embedding({"p": (1, 0, 1)})
        assert emb_had(emb, ("p",)) == ((1, 0, 1), 1)

    def test_max_pool(self):
        emb = make_embedding({"p": (0, 1), "q": (1, 0)})
        assert emb_ord(emb, ("p", "q")) == ((1, 1), 1)

    def test_max_dominates_members(self):
        rng = random.Random(3)
        for _ in range(20):
            emb = random_embedding(rng, ["a", "b", "c"])
            pooled, den = emb_ord(emb, ("a", "b", "c"))
            for a in ("a", "b", "c"):
                assert all(x <= F(y, den)
                           for x, y in zip(emb.context[a], pooled))

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(["a", "b", "c", "d"]), st.integers(0, 10**6))
    def test_pooling_symmetry(self, perm, seed):
        rng = random.Random(seed)
        emb = random_embedding(rng, ["a", "b", "c", "d"])
        assert emb_avg(emb, perm) == emb_avg(emb, ("a", "b", "c", "d"))
        assert emb_had(emb, perm) == emb_had(emb, ("a", "b", "c", "d"))
        assert emb_ord(emb, perm) == emb_ord(emb, ("a", "b", "c", "d"))
        assert emb_norm(emb, perm) == emb_norm(emb, ("a", "b", "c", "d"))


# ------------------------------------------------------------------
# Labelling
# ------------------------------------------------------------------

class TestLabelling:
    def test_dot_two_attribute_conjunction_instance(self):
        # parent=(-1,1), female=(1,1), mother=(0,1); avg(parent, female)=(0,1)
        emb = make_embedding(
            {"parent": (-1, 1), "female": (1, 1), "mother": (0, 1)},
            lam={"mother": 1, "parent": 0, "female": 0})
        pooled = emb_avg(emb, ("parent", "female"))
        assert pooled == ((0, 2), 2)  # (0, 1)
        assert lab_dot(emb, pooled, "mother")

    def test_dot_zero_vector_thresholds(self):
        emb = make_embedding({"b": (1, 1)}, lam={"b": 0})
        assert lab_dot(emb, ((0, 0), 1), "b")
        emb2 = make_embedding({"b": (1, 1)}, lam={"b": 1})
        assert not lab_dot(emb2, ((0, 0), 1), "b")

    def test_dot_dimension_mismatch(self):
        emb = make_embedding({"b": (1, 1)})
        with pytest.raises(DimensionMismatchError):
            lab_dot(emb, ((1,), 1), "b")

    def test_dist_witness_configuration(self):
        # avg{a,b} hits the head exactly; avg{a,c} misses at radius 1/2
        emb = make_embedding(
            {"a": (-1, 0), "b": (1, 0), "c": (0, -1), "d": (0, 1),
             "x": (0, 0)},
            theta={"x": F(1, 2)})
        assert lab_dist(emb, emb_avg(emb, ("a", "b")), "x")
        assert not lab_dist(emb, emb_avg(emb, ("a", "c")), "x")

    def test_dist_at_center_and_zero_radius(self):
        emb = make_embedding({"b": (2, 3)}, theta={"b": 0})
        assert lab_dist(emb, ((2, 3), 1), "b")
        assert not lab_dist(emb, ((2, 4), 1), "b")

    def test_relu_clamps(self):
        assert _relu((-3, 2)) == (0, 2)

    def test_relu_all_negative_accepts_everything(self):
        emb = make_embedding({"b": (-5, -7)})
        assert lab_relu(emb, ((-1, -2), 1), "b")

    def test_ord_reflexive_and_strict(self):
        emb = make_embedding({"b": (0, 1), "c": (1, 0)})
        assert lab_ord(emb, ((0, 1), 1), "b")
        assert not lab_ord(emb, ((1, 0), 1), "b")

    def test_ord_needs_the_max_pooled_denominator(self):
        # numerators are compared directly, so the pooled value must be
        # over cden, as emb_ord returns it
        emb = make_embedding({"a": (F(1, 2), 0), "b": (F(1, 2), F(1, 3))})
        assert lab_ord(emb, emb_ord(emb, ("a", "b")), "b")
        with pytest.raises(ValueError, match="denominator 6, got 1"):
            lab_ord(emb, ((3, 2), 1), "b")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6),
           st.fractions(min_value="1/100", max_value=100))
    def test_dot_scale_invariance(self, seed, scale):
        # scaling output vector and threshold together never flips the verdict
        rng = random.Random(seed)
        emb = random_embedding(rng, ["a", "b"])
        e = emb_avg(emb, ("a",))  # the context vector of a
        scaled = AttributeEmbedding(
            emb.dimension, dict(emb.context),
            {k: tuple(scale * x for x in v) for k, v in emb.output.items()},
            {k: scale * v for k, v in emb.lam.items()},
            dict(emb.theta))
        assert lab_dot(emb, e, "b") == lab_dot(scaled, e, "b")


class TestNormalisedLabelling:
    def test_empty_set_positive_threshold(self):
        emb = make_embedding({"x": (1, 0)}, lam={"x": F(1, 10)})
        assert not lab_dot_on_norm(emb, emb_norm(emb, ()), "x")

    def test_empty_set_zero_threshold(self):
        emb = make_embedding({"x": (1, 0)}, lam={"x": 0})
        assert lab_dot_on_norm(emb, emb_norm(emb, ()), "x")

    def test_zero_lambda_positive_dot(self):
        emb = make_embedding({"a": (1, 1), "x": (5, 0)}, lam={"x": 0})
        assert lab_dot_on_norm(emb, emb_norm(emb, ("a",)), "x")

    def test_squared_comparison(self):
        # sum.out = 3, ||sum||^2 = 4, lambda = 2: 3 >= 2*2 is false
        emb = make_embedding({"a": (2, 0), "x": (F(3, 2), 0)}, lam={"x": 2})
        # the context denominator is 2, so the sum is carried as (4, 0)
        assert emb_norm(emb, ("a",)) == ((4, 0), 16)
        assert not lab_dot_on_norm(emb, emb_norm(emb, ("a",)), "x")

    def test_negative_lambda_negative_dot(self):
        # -1 >= -2 * sqrt(1): true; -3 >= -2: false
        emb = make_embedding({"a": (1, 0), "x": (-1, 0), "y": (-3, 0)},
                             lam={"x": -2, "y": -2})
        assert lab_dot_on_norm(emb, emb_norm(emb, ("a",)), "x")
        assert not lab_dot_on_norm(emb, emb_norm(emb, ("a",)), "y")

    @settings(max_examples=150, deadline=None)
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

    @settings(max_examples=80, deadline=None)
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
        pooled = emb_avg(emb, ("e",))  # the vector e itself
        direct = lab_dist(emb, pooled, "b")
        dot_form = lab_dot(emb, pooled, "b")
        assert direct == dot_form
        # and the squaring-based path agrees with both
        assert lab_dist_on_norm(emb, emb_norm(emb, ("e",)), "b") == direct
        assert lab_dot_on_norm(emb, emb_norm(emb, ("e",)), "b") == direct


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
            strategy_accepts(emb, strategy_from_name("sig-dot"), ("a",), "a")

    def test_tied_vs_untied_hadamard(self):
        emb = make_embedding({"a": (1, 1), "b": (-2, 1)},
                             output={"a": (1, 0), "b": (1, 0)},
                             lam={"a": 0, "b": 0})
        tied = strategy_from_name("had-dot-tied")
        untied = strategy_from_name("had-dot")
        # untied consults output vectors, tied the context vectors
        assert strategy_accepts(emb, untied, ("a",), "b")
        assert not strategy_accepts(emb, tied, ("a",), "b")

    def test_dispatch_matches_primitives(self):
        rng = random.Random(9)
        emb = random_embedding(rng, ["a", "b", "c"])
        subset = ("a", "b")
        assert strategy_accepts(emb, AVG_DOT, subset, "c") == lab_dot(
            emb, emb_avg(emb, subset), "c")
        assert strategy_accepts(emb, ORD_ORD, subset, "c") == lab_ord(
            emb, emb_ord(emb, subset), "c")


# ------------------------------------------------------------------
# Integer kernels against the Fraction reference
# ------------------------------------------------------------------

EXACT = [s for s in TABLE1_STRATEGIES if s.exact]
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
        assert sorted(REF_RULES) == sorted(s.name for s in EXACT)

    @settings(max_examples=80, deadline=None, derandomize=True)
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
        for strategy in EXACT:
            rule = exact_rule(strategy)
            labeller = rule.labeller(scaled, heads)
            cases = subsets + ([()] if strategy.pooling == "norm" else [])
            for subset in cases:
                pooled = rule.pool(scaled, subset)
                assert rule.pool(emb, subset) == pooled
                want = [ref_evaluate(emb, strategy.name, subset, head)
                        for head in heads]
                assert labeller.labels(pooled) == sum(
                    1 << i for i, (label, _) in enumerate(want) if label)
                for i, head in enumerate(heads):
                    assert labeller.score(pooled, i) == want[i][1], (
                        strategy.name, subset, head)
                    if subset:
                        assert strategy_accepts(
                            emb, strategy, subset + subset[:1],
                            head) == want[i][0]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(kernel_embeddings(), thresholds)
    def test_relu_with_a_threshold(self, emb, threshold):
        # exact_rule uses the default threshold 0 only
        for subset in (("a", "b"), ("e", "f"), KERNEL_ATOMS):
            pooled, ref = emb_avg(emb, subset), ref_emb_avg(emb, subset)
            for head in KERNEL_ATOMS:
                assert lab_relu(emb, pooled, head, threshold) == (
                    ref_lab_relu(emb, ref, head, threshold))

    def test_scaling_reads_the_current_thresholds(self):
        emb = make_embedding({"a": (1, 0), "b": (1, 0)}, lam={"b": 2})
        assert not strategy_accepts(emb, AVG_DOT, ("a",), "b")
        emb.lam = {"a": F(0), "b": F(1)}
        assert strategy_accepts(emb, AVG_DOT, ("a",), "b")

    def test_common_denominators(self):
        emb = make_embedding({"a": (F(1, 2), F(1, 3)), "b": (F(3, 4), 0)},
                             output={"a": (1, F(2, 5)), "b": (0, 0)})
        scaled = scale(emb)
        assert (scaled.cden, scaled.oden) == (12, 5)
        assert scaled.context == {"a": (6, 4), "b": (9, 0)}
        assert scaled.output == {"a": (5, 2), "b": (0, 0)}
        assert scale(scaled) is scaled


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

    def test_dimension_validation(self):
        with pytest.raises(DimensionMismatchError):
            AttributeEmbedding(2, {"a": (F(1),)}, {"a": (F(1),)})

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
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
        {"kappa": float("inf")}])
    def test_diagnostics_arguments_validated(self, bad, monkeypatch):
        def no_work(*args):
            raise AssertionError("ran before validating its arguments")
        monkeypatch.setattr("embedsim.strategies._sig_ascent", no_work)
        with pytest.raises(ValueError):
            sig_conical_diagnostics(**bad)

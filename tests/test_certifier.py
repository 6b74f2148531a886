"""Linear systems, the exact simplex, closure search, and certificates."""

import itertools
import json
import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import assume, find, given, settings
from hypothesis import strategies as st

import embedsim.certifier as certifier
from conftest import accepts, plain_kbs, random_formula, random_rule_kb
from embedsim.certifier import (Certificate, ConicalRequirement, Constraint,
                                LinearSystem, PairRequirement, _ce1_queries,
                                _ce2_queries, _facts_kb, _integer_row,
                                _lp_certificate, _row_blocks,
                                build_avg_dist_relaxation,
                                build_avg_dot_system, canonical_json,
                                canonical_json_spliced,
                                certify_strategy_failure, combine_constraints,
                                conical_closure_certify, decide_avg_dot,
                                derive_pair_requirements, lp_feasible,
                                realize_from_matrix,
                                reverify_certificate, reverify_text,
                                verify_farkas, verify_witness)
from embedsim.fixtures import FIXTURE_SOURCES, fixture
from embedsim.logic import (CapExceededError, KnowledgeBase, Signature,
                            StratifiedKB, conjoin, entailment_table,
                            kb_digest, parse_kb)
from embedsim.strategies import (AVG_DOT, AttributeEmbedding, frac_str,
                                 parse_frac)
from embedsim.table1 import run_table1
from embedsim.verifier import subset_queries, verify_monotonic
from oracles import avg_dot_closed_form, tt_entails
from references import (dense_lp_feasible, ref_combine_constraints,
                        ref_conical_closure_certify, ref_verify_witness)

F = Fraction


def make_system(rows):
    """rows: list of (coeff list, relation, rhs) over auto-named variables.

    A row with rational entries is scaled by the lcm of their
    denominators, a positive factor that keeps its solutions, so every
    constraint is ints, as the builders emit.
    """
    width = len(rows[0][0])
    variables = tuple(f"v{i}" for i in range(width))
    constraints = []
    for i, (coeffs, rel, rhs) in enumerate(rows):
        entries = [F(x) for x in (*coeffs, rhs)]
        den = lcm(*(x.denominator for x in entries))
        *ints, d = (int(x * den) for x in entries)
        constraints.append(Constraint(tuple(ints), rel, d, f"row{i}"))
    return LinearSystem(variables, tuple(constraints))


# ------------------------------------------------------------------
# System builders
# ------------------------------------------------------------------

class TestBuildDotSystem:
    def test_ce1_restricted_shape(self):
        kb = fixture("CE1")
        system = build_avg_dot_system(kb, queries=_ce1_queries())
        assert len(system.constraints) == 4
        assert set(system.variables) == {
            "M[a][x]", "M[b][x]", "M[c][x]", "M[d][x]", "lam[x]"}
        relations = [c.relation for c in system.constraints]
        assert relations == [">=", ">=", "<=", "<="]

    def test_singleton_rules_feasible(self):
        kb = parse_kb("atoms: a b\nrule: a -> b\n")
        system = build_avg_dot_system(kb, queries=[(("a",), "b"),
                                                   (("b",), "a")])
        outcome = lp_feasible(system)
        assert outcome.feasible

    def test_full_system_count(self):
        kb = parse_kb("atoms: a b c d\n")
        system = build_avg_dot_system(kb)
        assert len(system.constraints) == 15 * 4

    def test_rows_print_as_the_fraction_text_of_their_ints(self):
        # the builders emit int coefficients, printed "c/1" without a
        # Fraction; the text is what frac_str gives
        rng = random.Random(7)
        for kb in (fixture("CE1"), random_rule_kb(rng, ["a", "b", "c"])):
            for build in (build_avg_dot_system, build_avg_dist_relaxation):
                for row in build(kb).constraints:
                    assert all(type(c) is int for c in row.coeffs + (row.rhs,))
                    doc = row.to_dict()
                    assert doc["coeffs"] == [frac_str(c) for c in row.coeffs]
                    assert doc["rhs"] == frac_str(row.rhs)


class TestBuildDistRelaxation:
    def test_ce2_infeasible_with_pattern(self):
        kb = fixture("CE2")
        system = build_avg_dist_relaxation(kb, queries=_ce2_queries())
        outcome = lp_feasible(system)
        assert not outcome.feasible
        mult = outcome.farkas.multipliers
        assert all(m == mult[0] for m in mult)  # forced uniform
        # the x-head half of the combination is the dot-product contradiction
        coeffs, rhs = combine_constraints(system, mult[:4])
        nonzero = {v: c for v, c in zip(system.variables, coeffs) if c != 0}
        assert rhs > 0
        assert set(nonzero) == {"G[a,b]", "G[c,d]", "G[a,c]", "G[b,d]"}
        assert nonzero["G[a,b]"] == nonzero["G[c,d]"] < 0
        assert nonzero["G[a,c]"] == nonzero["G[b,d]"] > 0

    def test_single_rule_feasible(self):
        kb = parse_kb("atoms: a x\nrule: a -> x\n")
        system = build_avg_dist_relaxation(kb, queries=[(("a",), "x")])
        assert lp_feasible(system).feasible

    def test_ce1_distance_relaxation_feasible(self):
        # the four-query pattern is realisable with distance labelling
        kb = fixture("CE1")
        system = build_avg_dist_relaxation(kb, queries=_ce1_queries())
        assert lp_feasible(system).feasible


BUILDERS = [build_avg_dot_system, build_avg_dist_relaxation]


@st.composite
def seeded_rule_kbs(draw, max_atoms):
    """`random_rule_kb` over 1 to `max_atoms` of the atoms a-f."""
    n = draw(st.integers(1, max_atoms))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_rule_kb(random.Random(seed), list("abcdef"[:n]))


@st.composite
def kbs_with_queries(draw, max_atoms):
    """A seeded rule KB and an explicit query list over it: non-empty
    subsets in any atom order, repeats allowed, in any order."""
    kb = draw(seeded_rule_kbs(max_atoms))
    atoms = st.sampled_from(kb.signature.atoms)
    queries = draw(st.lists(
        st.tuples(st.lists(atoms, min_size=1, unique=True).map(tuple),
                  atoms),
        max_size=12))
    return kb, queries


def captured_flags(system):
    return [(tuple(q["subset"]), q["head"], q["captured"])
            for q in system.queries]


class TestBuildersReadTheKB:
    """Both builders answer from the entailment table and emit int rows."""

    @pytest.mark.parametrize("build", BUILDERS)
    @settings(max_examples=25)
    @given(seeded_rule_kbs(6))
    def test_canonical_rows_are_ints_and_match_truth_table(self, build, kb):
        system = build(kb)
        queries = subset_queries(kb.signature, len(kb.signature))
        assert len(system.constraints) == len(queries)
        for con in system.constraints:
            assert all(type(c) is int for c in con.coeffs)
            assert type(con.rhs) is int
        assert captured_flags(system) == [
            (subset, head, tt_entails(kb, subset, head))
            for subset, head in queries]

    @pytest.mark.parametrize("build", BUILDERS)
    @settings(max_examples=40)
    @given(kbs_with_queries(6))
    def test_explicit_queries_match_truth_table(self, build, kb_queries):
        kb, queries = kb_queries
        system = build(kb, queries=queries)
        for con in system.constraints:
            assert all(type(c) is int for c in con.coeffs)
            assert type(con.rhs) is int
        assert captured_flags(system) == [
            (subset, head, tt_entails(kb, subset, head))
            for subset, head in queries]


def planted_feasible_systems():
    """Random systems satisfied by a planted rational point."""
    rng = random.Random(61)
    for _ in range(40):
        width = rng.randint(1, 4)
        point = [F(rng.randint(-5, 5), rng.randint(1, 3))
                 for _ in range(width)]
        rows = []
        for _ in range(rng.randint(1, 8)):
            coeffs = [F(rng.randint(-4, 4)) for _ in range(width)]
            value = sum(c * x for c, x in zip(coeffs, point))
            slack = F(rng.randint(0, 5))
            if rng.random() < 0.5:
                rows.append((coeffs, ">=", value - slack))
            else:
                rows.append((coeffs, "<=", value + slack))
        yield make_system(rows)


def planted_infeasible_systems():
    """Random systems holding a planted contradictory pair of rows."""
    rng = random.Random(67)
    for _ in range(40):
        width = rng.randint(1, 4)
        coeffs = [F(rng.randint(-4, 4)) for _ in range(width)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = F(1)
        beta = F(rng.randint(-3, 3))
        rows = [(coeffs, ">=", beta),
                (coeffs, "<=", beta - 1)]
        for _ in range(rng.randint(0, 5)):
            rows.append(([F(rng.randint(-4, 4)) for _ in range(width)],
                         rng.choice([">=", "<="]),
                         F(rng.randint(-6, 6))))
        yield make_system(rows)


# ------------------------------------------------------------------
# Simplex
# ------------------------------------------------------------------

class TestSimplex:
    def test_box_feasible(self):
        system = make_system([([1], ">=", 0), ([1], "<=", 1)])
        outcome = lp_feasible(system)
        assert outcome.feasible
        assert outcome.witness["v0"] == 0

    def test_direct_contradiction(self):
        system = make_system([([1], ">=", 1), ([1], "<=", 0)])
        outcome = lp_feasible(system)
        assert not outcome.feasible
        assert verify_farkas(system, outcome.farkas.multipliers) > 0

    def test_zero_row_infeasible(self):
        system = make_system([([0, 0], ">=", 3)])
        outcome = lp_feasible(system)
        assert not outcome.feasible
        assert outcome.farkas.multipliers == (F(1),)

    def test_empty_system(self):
        system = LinearSystem((), ())
        assert lp_feasible(system).feasible

    def test_degenerate_rows_terminate(self):
        rows = [([1, 1], ">=", 0), ([2, 2], ">=", 0), ([1, 1], "<=", 0),
                ([1, -1], ">=", 0), ([-1, 1], ">=", 0)]
        outcome = lp_feasible(make_system(rows))
        assert outcome.feasible

    def test_ce1_farkas_exact(self):
        kb = fixture("CE1")
        system = build_avg_dot_system(kb, queries=_ce1_queries())
        outcome = lp_feasible(system)
        assert not outcome.feasible
        assert outcome.farkas.multipliers == (F(1), F(1), F(1), F(1))
        assert outcome.farkas.gap == 4

    def test_random_planted_feasible(self):
        for system in planted_feasible_systems():
            outcome = lp_feasible(system)
            assert outcome.feasible  # witness re-checked inside lp_feasible
            assert verify_witness(system, outcome.witness)

    def test_random_planted_infeasible(self):
        for system in planted_infeasible_systems():
            outcome = lp_feasible(system)
            assert not outcome.feasible
            gap = verify_farkas(system, outcome.farkas.multipliers)
            assert gap == outcome.farkas.gap > 0
            assert all(m >= 0 for m in outcome.farkas.multipliers)

    def test_witness_scaling_keeps_margins(self):
        rng = random.Random(71)
        checked = 0
        for _ in range(30):
            kb = random_rule_kb(rng, ["a", "b", "c"])
            system = build_avg_dot_system(kb)
            outcome = lp_feasible(system)
            if not outcome.feasible:
                continue
            checked += 1
            for scale in (2, 3, F(7, 2)):
                scaled = {k: scale * v for k, v in outcome.witness.items()}
                assert verify_witness(system, scaled)
        assert checked > 0

    def test_verify_farkas_rejects_bad_multipliers(self):
        system = make_system([([1], ">=", 1), ([1], "<=", 0)])
        with pytest.raises(ValueError):
            verify_farkas(system, [F(1), F(0)])  # does not cancel
        with pytest.raises(ValueError):
            combine_constraints(system, [F(-1), F(1)])


def interval_feasible(rows):
    """Independent 1-variable oracle: max lower bound vs min upper bound."""
    lower, upper = None, None
    for (c,), rel, rhs in rows:
        c, rhs = F(c), F(rhs)
        if rel == "<=":
            c, rhs = -c, -rhs
        if c == 0:
            if rhs > 0:
                return False
        elif c > 0:
            bound = rhs / c
            lower = bound if lower is None else max(lower, bound)
        else:
            bound = rhs / c
            upper = bound if upper is None else min(upper, bound)
    return lower is None or upper is None or lower <= upper


def fm_feasible_2d(rows):
    """Independent 2-variable oracle: eliminate y, then interval-check x."""
    oriented = []
    for (a, b), rel, rhs in rows:
        a, b, rhs = F(a), F(b), F(rhs)
        if rel == "<=":
            a, b, rhs = -a, -b, -rhs
        oriented.append((a, b, rhs))
    lowers = [(a, b, r) for a, b, r in oriented if b > 0]
    uppers = [(a, b, r) for a, b, r in oriented if b < 0]
    reduced = [((a,), ">=", r) for a, b, r in oriented if b == 0]
    for a_i, b_i, r_i in lowers:
        for a_j, b_j, r_j in uppers:
            # (r_i - a_i x)/b_i <= (r_j - a_j x)/b_j, cleared of denominators
            coef = b_i * a_j - b_j * a_i
            rhs = b_i * r_j - b_j * r_i
            reduced.append(((coef,), ">=", rhs))
    return interval_feasible(reduced)


class TestSimplexAgainstEliminationOracles:
    def test_one_variable_random(self):
        rng = random.Random(79)
        for _ in range(200):
            rows = [([F(rng.randint(-4, 4))], rng.choice([">=", "<="]),
                     F(rng.randint(-6, 6), rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 6))]
            system = make_system(rows)
            assert lp_feasible(system).feasible == interval_feasible(rows)

    def test_two_variables_random(self):
        rng = random.Random(97)
        for _ in range(200):
            rows = [([F(rng.randint(-3, 3)), F(rng.randint(-3, 3))],
                     rng.choice([">=", "<="]), F(rng.randint(-5, 5)))
                    for _ in range(rng.randint(1, 7))]
            system = make_system(rows)
            assert lp_feasible(system).feasible == fm_feasible_2d(rows)


def assert_same_outcome(system):
    """The block solver returns exactly what the dense joint tableau does."""
    got = lp_feasible(system)
    want = dense_lp_feasible(system)
    assert got.feasible == want.feasible
    if want.feasible:
        assert list(got.witness.items()) == list(want.witness.items())
        assert got.farkas is None
    else:
        assert got.witness is None
        assert got.farkas.multipliers == want.farkas.multipliers
        assert got.farkas.gap == want.farkas.gap
    return got


# two blocks, {v0, v1} feasible and {v2} contradictory, v3 in no row
TWO_BLOCKS = [([1, 1, 0, 0], ">=", 1), ([0, 0, 1, 0], ">=", 1),
              ([1, -1, 0, 0], "<=", -1), ([0, 0, 2, 0], "<=", 1),
              ([2, 1, 0, 0], "<=", 4)]


class TestBlockSimplexMatchesDense:
    """`lp_feasible` against the dense reference in `tests/references.py`."""

    def test_row_blocks(self):
        assert _row_blocks([_integer_row(c)
                            for c in make_system(TWO_BLOCKS).constraints]
                           ) == [[0, 2, 4], [1, 3]]
        # the full avg-dot system is one block per head, in first-row order
        kb = fixture("CE1")
        system = build_avg_dot_system(kb)
        blocks = _row_blocks([_integer_row(c) for c in system.constraints])
        assert [len(b) for b in blocks] == [31] * 5
        assert [b[0] for b in blocks] == [0, 1, 2, 3, 4]

    def test_two_blocks_one_infeasible(self):
        outcome = assert_same_outcome(make_system(TWO_BLOCKS))
        assert not outcome.feasible
        # the combination lives on the contradictory block
        assert outcome.farkas.multipliers[1] > 0
        assert outcome.farkas.multipliers[3] > 0

    def test_feasible_block_multipliers_kept(self):
        # the feasible block {v0} pins v0 = 0 with both artificials left
        # basic at level 0, so its rows carry non-zero multipliers that
        # cancel among themselves; the certificate keeps them
        rows = [([1, 0], ">=", 0), ([0, 1], ">=", 1),
                ([1, 0], "<=", 0), ([0, 1], "<=", 0)]
        outcome = assert_same_outcome(make_system(rows))
        assert outcome.farkas.multipliers == (F(1), F(1), F(1), F(1))

    def test_two_blocks_both_feasible(self):
        rows = TWO_BLOCKS[:3] + [([0, 0, 2, 0], "<=", 3)] + TWO_BLOCKS[4:]
        outcome = assert_same_outcome(make_system(rows))
        assert outcome.feasible
        assert outcome.witness["v3"] == 0

    def test_planted_systems(self):
        for system in itertools.chain(planted_feasible_systems(),
                                      planted_infeasible_systems()):
            assert_same_outcome(system)

    def test_zero_and_empty_systems(self):
        assert_same_outcome(make_system([([0, 0], ">=", 3)]))
        assert_same_outcome(make_system([([0, 0], "<=", 3),
                                         ([1, 0], ">=", 1)]))
        assert_same_outcome(LinearSystem((), ()))

    # seeds whose KBs include both simulable and non-simulable ones
    @pytest.mark.parametrize("atoms,kbs,seed", [(3, 6, 81), (4, 2, 87)])
    def test_random_avg_dot_systems(self, atoms, kbs, seed):
        rng = random.Random(seed)
        verdicts = set()
        for _ in range(kbs):
            kb = random_rule_kb(rng, ["a", "b", "c", "d"][:atoms])
            system = build_avg_dot_system(kb)
            verdicts.add(assert_same_outcome(system).feasible)
        assert verdicts == {True, False}

    def test_ce1_restricted_system(self):
        kb = fixture("CE1")
        system = build_avg_dot_system(kb, queries=_ce1_queries())
        assert not assert_same_outcome(system).feasible

    def test_ce2_relaxation_single_block(self):
        kb = fixture("CE2")
        system = build_avg_dist_relaxation(kb, queries=_ce2_queries())
        oriented = [_integer_row(c) for c in system.constraints]
        assert _row_blocks(oriented) == [list(range(len(oriented)))]
        assert not assert_same_outcome(system).feasible


def mixed_sign_systems(seed, count):
    """Random systems of 1-4 variables and 1-8 rows, coefficients in
    [-4, 4], both relations, rhs in [-6, 6]."""
    rng = random.Random(seed)
    for _ in range(count):
        width = rng.randint(1, 4)
        yield make_system([([rng.randint(-4, 4) for _ in range(width)],
                            rng.choice([">=", "<="]), rng.randint(-6, 6))
                           for _ in range(rng.randint(1, 8))])


class TestDerivedColumns:
    """`lp_feasible` stores only the p, slack and rhs columns and derives
    the q and artificial columns; the dense reference stores them all."""

    # (rows, entering column kinds, witness or (multipliers, gap))
    CASES = {
        # the only feasible point is negative: q enters
        "q-enters": ([([1], "<=", -1)], ["q"], {"v0": F(-1)}),
        # Bland picks an artificial again once z_slack < -zden
        "artificial-reenters-feasible": (
            [([-1, 1], ">=", 0), ([-2, 1], "<=", 0), ([-2, -2], ">=", 0)],
            ["q", "q", "artificial", "p"], {"v0": F(0), "v1": F(0)}),
        "artificial-reenters-infeasible": (
            [([-2, 0], "<=", -1), ([1, 0], "<=", 0), ([-2, -1], ">=", 0)],
            ["q", "q", "artificial", "p"], ((F(1), F(2), F(0)), F(1))),
        # negative oriented rhs: the row starts with its slack basic
        "flipped-feasible": ([([1], ">=", -3), ([1], "<=", -1)], ["q"],
                             {"v0": F(-1)}),
        "flipped-infeasible": (
            [([1, 1], ">=", -2), ([1, -1], ">=", -1), ([1, 0], "<=", -3)],
            ["q", "q"], ((F(1), F(1), F(2)), F(3))),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_literal_systems(self, name):
        rows, kinds, want = self.CASES[name]
        system = make_system(rows)
        entered = []
        dense_lp_feasible(system, entered)
        assert entered == kinds
        outcome = assert_same_outcome(system)
        if isinstance(want, dict):
            assert list(outcome.witness.items()) == list(want.items())
        else:
            assert (outcome.farkas.multipliers, outcome.farkas.gap) == want

    def test_mixed_sign_corpus(self):
        entered, verdicts = [], set()
        for system in mixed_sign_systems(2003, 500):
            dense_lp_feasible(system, entered)
            verdicts.add(assert_same_outcome(system).feasible)
        assert verdicts == {True, False}
        assert entered.count("q") > 100
        assert entered.count("artificial") > 0


# mixed denominators, so `make_system` scales rows to ints by different lcms
rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 7))


@st.composite
def rational_systems(draw):
    """1-5 variables, 1-10 rows drawn with rational coefficients and
    right-hand sides and cleared to ints, some rows all zero, both
    relations."""
    width = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.integers(0, 7)) == 0:
            coeffs = [0] * width
        else:
            coeffs = draw(st.lists(rationals, min_size=width,
                                   max_size=width))
        rows.append((coeffs, draw(st.sampled_from([">=", "<="])),
                     draw(rationals)))
    return make_system(rows)


class TestIntegerRowsMatchFractionReference:
    """The integer-row tableau against the dense `Fraction` tableau, on
    rows drawn with mixed denominators."""

    @settings(max_examples=200)
    @given(rational_systems())
    def test_rational_systems(self, system):
        assert_same_outcome(system)

    @pytest.mark.parametrize("feasible", [True, False])
    def test_rational_systems_reach_both_verdicts(self, feasible):
        system = find(rational_systems(),
                      lambda s: lp_feasible(s).feasible is feasible)
        assert assert_same_outcome(system).feasible is feasible


class TestVerifyWitnessIntegers:
    """`verify_witness` on rows drawn rational and cleared to ints,
    against `ref_verify_witness`."""

    COEFFS = (F(1, 3), F(-2, 7), F(5, 6))
    RHS = F(3, 4)
    MISS = F(1, 10**9)

    def boundary(self, shift=F(0)):
        # v0 and v1 fixed; v2 puts the row's lhs at RHS + shift exactly
        x0, x1 = F(-5, 2), F(9, 11)
        c0, c1, c2 = self.COEFFS
        x2 = (self.RHS + shift - c0 * x0 - c1 * x1) / c2
        return {"v0": x0, "v1": x1, "v2": x2}

    @pytest.mark.parametrize("relation,shift,want", [
        (">=", F(0), True), (">=", -MISS, False), (">=", MISS, True),
        ("<=", F(0), True), ("<=", MISS, False), ("<=", -MISS, True)])
    def test_boundary_and_near_miss(self, relation, shift, want):
        system = make_system([(list(self.COEFFS), relation, self.RHS),
                              ([F(1, 2), 0, 0], ">=", F(-7, 3))])
        witness = self.boundary(shift)
        assert verify_witness(system, witness) is want
        assert ref_verify_witness(system, witness) is want

    def test_missing_and_integer_values(self):
        system = make_system([([F(2, 3), 0], ">=", F(4, 3)),
                              ([0, F(-1, 5)], "<=", 0)])
        for witness, want in (({"v0": 2}, True), ({"v0": F(1)}, False),
                              ({"v0": 2, "v1": F(-1, 9)}, False),
                              ({"v0": 3, "v1": 7, "extra": F(1, 2)}, True)):
            assert verify_witness(system, witness) is want
            assert ref_verify_witness(system, witness) is want


def seeded_farkas_systems():
    """(system, multipliers) of each infeasible avg-dot decision system
    over seeded random 4-atom rule KBs."""
    rng = random.Random(73)
    found = []
    while len(found) < 6:
        system = build_avg_dot_system(random_rule_kb(rng, list("abcd")))
        outcome = lp_feasible(system)
        if not outcome.feasible:
            found.append((system, outcome.farkas.multipliers))
    return found


@lru_cache(maxsize=None)
def farkas_cases():
    ce1 = build_avg_dot_system(fixture("CE1"), queries=_ce1_queries())
    ce2 = build_avg_dist_relaxation(fixture("CE2"), queries=_ce2_queries())
    return tuple([(system, lp_feasible(system).farkas.multipliers)
                  for system in (ce1, ce2)] + seeded_farkas_systems())


def assert_same_combination(system, multipliers):
    got = combine_constraints(system, multipliers)
    want = ref_combine_constraints(system, multipliers)
    # equal as text and as types: every entry a Fraction, as before
    assert repr(got) == repr(want)
    return got


class TestCombineConstraintsIntegers:
    """`combine_constraints` in integers against the `Fraction` loop of
    `ref_combine_constraints`."""

    @pytest.mark.parametrize("case", range(8))
    def test_farkas_multipliers_and_their_prefixes(self, case):
        system, mult = farkas_cases()[case]
        coeffs, gap = assert_same_combination(system, mult)
        assert all(c == 0 for c in coeffs) and gap > 0
        for k in range(len(mult)):
            assert_same_combination(system, mult[:k])

    def test_rational_multipliers(self):
        rng = random.Random(79)
        for system, mult in farkas_cases():
            for _ in range(5):
                scaled = [y * F(rng.randint(0, 9), rng.randint(1, 12))
                          for y in mult]
                assert_same_combination(system, scaled)
                mixed = [F(rng.randint(0, 5), rng.randint(1, 7))
                         for _ in mult]
                assert_same_combination(system, mixed)

    @pytest.mark.parametrize("mult", [
        [F(-1), F(1)], [F(1), F(-1, 3)], [F(0), F(-2)], [F(1), F(1), F(-1)],
        [F(1), F(0), F(0), F(2)]])
    def test_same_errors(self, mult):
        system = make_system([([1], ">=", 1), ([1], "<=", 0), ([2], ">=", 3)])
        errors = []
        for combine in (combine_constraints, ref_combine_constraints):
            with pytest.raises((ValueError, IndexError)) as info:
                combine(system, mult)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]

    def test_length_checked_by_verify_farkas(self):
        system, mult = farkas_cases()[0]
        for bad in (mult[:-1], (*mult, F(0))):
            with pytest.raises(ValueError, match="multiplier count"):
                verify_farkas(system, bad)


class TestIntegerRowsConvertedOnce:
    """`lp_feasible` and its witness or Farkas re-check share one
    `_integer_row` conversion per constraint."""

    @pytest.fixture
    def conversions(self, monkeypatch):
        calls = []
        original = certifier._integer_row

        def counting(constraint):
            calls.append(constraint)
            return original(constraint)

        monkeypatch.setattr(certifier, "_integer_row", counting)
        return calls

    @pytest.mark.parametrize("kb, queries, feasible", [
        (parse_kb("atoms: a b c\nrule: a -> b\n"), None, True),
        (fixture("CE1"), _ce1_queries(), False),
        (fixture("CE1"), None, False),
    ], ids=["witness", "farkas-ce1", "farkas-full"])
    def test_one_call_per_constraint(self, conversions, kb, queries,
                                     feasible):
        system = build_avg_dot_system(kb, queries=queries)
        assert not conversions
        outcome = lp_feasible(system)
        assert outcome.feasible is feasible
        assert conversions == list(system.constraints)
        # a second solve of the same system converts nothing again
        lp_feasible(system)
        assert len(conversions) == len(system.constraints)

    @pytest.mark.parametrize("kb, verdict", [
        (parse_kb("atoms: a b c\nrule: a -> b\n"), "simulable"),
        (fixture("CE1"), "not-simulable"),
    ], ids=["simulable", "not-simulable"])
    def test_decision_converts_each_row_once(self, conversions, kb, verdict):
        assert decide_avg_dot(kb).verdict == verdict
        n = len(kb.signature)
        assert len(conversions) == n * ((1 << n) - 1)


# ------------------------------------------------------------------
# Realization
# ------------------------------------------------------------------

class TestRealize:
    def test_identity_matrix_self_capture(self):
        atoms = ("a", "b")
        matrix = {("a", "a"): F(1), ("b", "b"): F(1),
                  ("a", "b"): F(0), ("b", "a"): F(0)}
        emb = realize_from_matrix(matrix, {"a": F(1), "b": F(1)}, atoms)
        assert accepts(emb, AVG_DOT, ("a",), "a")
        assert not accepts(emb, AVG_DOT, ("a",), "b")

    def test_feasible_system_realizes_and_verifies(self):
        kb = parse_kb("atoms: a b\nrule: a -> b\n")
        cert = decide_avg_dot(kb)
        assert cert.verdict == "simulable"
        emb = AttributeEmbedding.from_json_dict(cert.evidence["embedding"])
        assert emb.dimension == 2
        report = verify_monotonic(emb, AVG_DOT, kb)
        assert report.simulates


# ------------------------------------------------------------------
# Conical closure
# ------------------------------------------------------------------

class TestConicalClosure:
    def test_empty_requirement_consistent(self):
        req = ConicalRequirement(("a", "b"), ())
        outcome = conical_closure_certify(req)
        assert outcome.consistent

    def test_single_negative_requirement(self):
        req = ConicalRequirement(
            ("a", "b"), (PairRequirement(("a", "b"), "negative"),))
        outcome = conical_closure_certify(req)
        assert outcome.consistent
        assert "negative" in outcome.satisfying.values()

    def test_requirements_validated(self):
        with pytest.raises(ValueError):
            ConicalRequirement(("a",), (PairRequirement(("a", "a"), "negative"),))
        with pytest.raises(ValueError):
            ConicalRequirement(("a", "b"),
                               (PairRequirement(("a", "b"), "sideways"),))

    def test_ce3_requirement_refutes_everything(self):
        kb = fixture("CE3")
        req, facts = derive_pair_requirements(kb, ("a", "b", "c", "d"),
                                              "x", "y")
        assert len(req.requirements) == 6
        sides = {tuple(r.pair): r.side for r in req.requirements}
        assert sides[("a", "b")] == sides[("c", "d")] == "negative"
        assert sides[("a", "c")] == sides[("b", "d")] == "positive"
        assert sides[("a", "d")] == sides[("b", "c")] == "positive"
        outcome = conical_closure_certify(req)
        assert not outcome.consistent
        assert outcome.total == 81
        assert len(outcome.refutations) == 81

    def test_ce4_same_pattern(self):
        kb = fixture("CE4")
        req, _ = derive_pair_requirements(kb, ("a", "b", "c", "d"), "x", "y")
        outcome = conical_closure_certify(req)
        assert not outcome.consistent and outcome.total == 81

    def test_each_refutation_names_a_violated_requirement(self):
        kb = fixture("CE3")
        req, _ = derive_pair_requirements(kb, ("a", "b", "c", "d"), "x", "y")
        outcome = conical_closure_certify(req)
        for entry in outcome.refutations:
            sides = entry["assignment"]
            violated = entry["violated"]
            u, v = violated["pair"]
            want = violated["side"]
            assert sides[u] != want and sides[v] != want


def random_conical_requirement(rng: random.Random) -> ConicalRequirement:
    """A base of 1-5 vectors, its last name sometimes a repeat, and pair
    requirements over its distinct names: every pair or a few, each
    with a side, then some repeated, either way round, with either
    side, all in random order."""
    sides = ("negative", "positive")
    n = rng.choice((1, 2, 3, 4, 4, 5, 5, 5))  # few requirements fit 1-2
    base = list("abcde"[:n])
    if n > 2 and rng.random() < 0.5:
        base[-1] = base[rng.randrange(n - 2)]
    pairs = list(itertools.combinations(sorted(set(base)), 2))
    if not pairs:
        requirements = []
    elif rng.random() < 0.5:
        requirements = [PairRequirement(p, rng.choice(sides)) for p in pairs]
    else:
        requirements = [PairRequirement(rng.choice(pairs), rng.choice(sides))
                        for _ in range(rng.randint(0, 8))]
    requirements += [
        PairRequirement(r.pair[::-1] if rng.random() < 0.5 else r.pair,
                        rng.choice(sides))
        for r in requirements if rng.random() < 0.5]
    rng.shuffle(requirements)
    return ConicalRequirement(tuple(base), tuple(requirements))


def _same_closure_outcome(requirement):
    got = conical_closure_certify(requirement)
    want = ref_conical_closure_certify(requirement)
    assert (got.consistent, got.total, got.satisfying, got.refutations) == (
        want.consistent, want.total, want.satisfying, want.refutations)


class TestClosureMatchesReference:
    """The closure search, bound to base positions, returns what the
    search by name returns: verdict, count, satisfying assignment and
    every refutation, in order."""

    @pytest.mark.parametrize("name", [n for n in sorted(FIXTURE_SOURCES)
                                      if isinstance(fixture(n),
                                                    KnowledgeBase)])
    def test_every_fixture_requirement(self, name):
        # every ordered pair of heads, over the first five other atoms
        atoms = fixture(name).signature.atoms
        for head_neg, head_pos in itertools.permutations(atoms, 2):
            base = [a for a in atoms if a not in (head_neg, head_pos)][:5]
            requirement, _ = derive_pair_requirements(
                fixture(name), base, head_neg, head_pos)
            _same_closure_outcome(requirement)

    # 700 seeds give more than 500 distinct requirements: a base of one
    # or two vectors admits few
    @settings(max_examples=700)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_random_requirements(self, seed):
        _same_closure_outcome(random_conical_requirement(random.Random(seed)))


# ------------------------------------------------------------------
# Certificates
# ------------------------------------------------------------------

CANONICAL_PAIRS = [
    ("avg-dot", "CE1", "farkas"),
    ("avg-dist", "CE2", "farkas"),
    ("norm-dot", "CE3", "closure"),
    ("norm-dist", "CE3", "closure"),
    ("sig-dot", "CE4", "closure"),
    ("sig-dist", "CE4", "closure"),
    ("had-dot-tied", "MOTHER", "symmetry"),
    ("ord-ord", "ORD-NM", "order-argument"),
]


class TestCertificates:
    @pytest.mark.parametrize("strategy,fixture_name,kind", CANONICAL_PAIRS)
    def test_canonical_certificates(self, strategy, fixture_name, kind):
        cert = certify_strategy_failure(strategy, fixture_name)
        assert cert.verdict == "not-simulable"
        assert cert.evidence["kind"] == kind
        assert reverify_certificate(cert)

    def test_unknown_fixture(self):
        with pytest.raises(ValueError):
            certify_strategy_failure("avg-dot", "CE3")
        with pytest.raises(ValueError):
            certify_strategy_failure("avg-dot", "NOPE")

    def test_tied_hadamard_alternate_fixture(self):
        # the auxiliary-head KB also has one-way singleton entailments
        cert = certify_strategy_failure("had-dot-tied", "CE4")
        assert cert.verdict == "not-simulable"
        assert reverify_certificate(cert)

    def test_default_fixtures(self):
        for name in ("avg-dot", "norm-dist", "sig-dot", "had-dot-tied",
                     "ord-ord"):
            cert = certify_strategy_failure(name)
            assert cert.verdict == "not-simulable"

    def test_sig_assumptions_record_auxiliary_heads(self):
        cert = certify_strategy_failure("sig-dot", "CE4")
        facts = cert.evidence["auxiliary_head_facts"]
        assert len(facts) == 6
        assert all(list(f.values())[1] and list(f.values())[2] for f in facts)
        assert not any(f["follows_from_empty_antecedent"] for f in facts)

    def test_dist_variants_add_an_assumption(self):
        dot_cert = certify_strategy_failure("norm-dot", "CE3")
        dist_cert = certify_strategy_failure("norm-dist", "CE3")
        assert len(dist_cert.assumptions) == len(dot_cert.assumptions) + 1

    @pytest.mark.parametrize("strategy", [
        "avg-dot", "avg-dist", "norm-dot", "norm-dist", "sig-dot",
        "sig-dist", "had-dot-tied", "ord-ord"])
    def test_nonmonotonic_certificates(self, strategy):
        cert = certify_strategy_failure(strategy, nonmonotonic=True)
        assert cert.verdict == "not-simulable"
        assert cert.mode == "non-monotonic"
        assert reverify_certificate(cert)
        if strategy != "ord-ord":
            assert cert.evidence["kind"] == "stratified-reduction"
            assert cert.evidence["coincidence_checked"] > 0

    def test_reverify_rejects_unknown_kind(self):
        cert = Certificate("avg-dot", "CE1", "monotonic", "not-simulable",
                           {"kind": "mystery"}, [])
        assert reverify_certificate(cert) is False


def _doc(cert: Certificate) -> dict:
    """A certificate as its JSON document, a fresh copy to tamper with."""
    return json.loads(json.dumps(cert.to_dict()))


def _flip_captured(doc: dict) -> dict:
    for q in doc["evidence"]["system"]["queries"]:
        q["captured"] = not q["captured"]
    return doc


def _flip_pair_facts(doc: dict) -> dict:
    for f in doc["evidence"]["pair_facts"]:
        for key in f:
            if key.startswith("entails_"):
                f[key] = not f[key]
    return doc


def _scale_first_row(doc: dict) -> dict:
    # a positive multiple of a row, with its multiplier divided to match:
    # still a valid Farkas combination, but not the fixture's system
    ev = doc["evidence"]
    row = ev["system"]["constraints"][0]
    row["coeffs"] = [frac_str(2 * parse_frac(c)) for c in row["coeffs"]]
    row["rhs"] = frac_str(2 * parse_frac(row["rhs"]))
    ev["multipliers"][0] = frac_str(parse_frac(ev["multipliers"][0]) / 2)
    return doc


def _flip_first_side(doc: dict) -> dict:
    req = doc["evidence"]["requirement"]["requirements"][0]
    req["side"] = "positive" if req["side"] == "negative" else "negative"
    return doc


def _flip_flags(doc: dict, key: str) -> dict:
    # every boolean of every entry of evidence[key]
    for f in doc["evidence"][key]:
        for name, value in f.items():
            if isinstance(value, bool):
                f[name] = not value
    return doc


def _swap_order_facts(doc: dict) -> dict:
    ev = doc["evidence"]
    ev["must_capture"], ev["must_reject"] = ev["must_reject"], ev["must_capture"]
    return doc


def _zero_digest(doc: dict, wrapped_fixture: str | None = None) -> dict:
    ev = doc["evidence"]
    ev["stratified_digest"] = "0" * 64
    if wrapped_fixture is not None:
        ev["wrapped"]["fixture"] = wrapped_fixture
    return doc


def _relabel(doc: dict, name: str) -> dict:
    doc["fixture"] = name
    return doc


def _monotonic(strategy, fixture_name=None):
    return lambda: certify_strategy_failure(strategy, fixture_name)


def _nonmonotonic(strategy):
    return lambda: certify_strategy_failure(strategy, nonmonotonic=True)


# the generic decisions replay covers besides CE1's: one KB the
# averaged dot labelling cannot simulate, one it can
NOT_SIMULABLE = "atoms: a b c\nrule: a & b -> c\n"
SIMULABLE = "atoms: a b\nrule: a -> b\n"


def _decision(kb):
    return lambda: decide_avg_dot(kb)


def _set(key, value):
    """A tampering that sets one top-level field."""
    return lambda d: {**d, key: value}


def _relabel_first_row(doc: dict) -> dict:
    row = doc["evidence"]["system"]["constraints"][0]
    row["label"] = row["label"].replace("capture", "reject")
    return doc


def _drop_embedding(doc: dict) -> dict:
    del doc["evidence"]["embedding"]
    return doc


def _farkas_part(doc: dict) -> dict:
    """The Farkas evidence of a fixture document, wrapped or not."""
    ev = doc["evidence"]
    return ev["wrapped"]["evidence"] if "wrapped" in ev else ev


def _double_a_multiplier(doc: dict) -> dict:
    _farkas_part(doc)["multipliers"][1] = "2/1"
    return doc


def _drop_a_row(doc: dict) -> dict:
    ev = _farkas_part(doc)
    for items in (ev["system"]["constraints"], ev["system"]["queries"],
                  ev["multipliers"]):
        del items[-1]
    return doc


# (certificate, tampering): each tampered certificate must fail replay
TAMPERED = {
    **{f"{strategy}-{mode}-{name}": (certify(strategy), tamper)
       for strategy in ("avg-dot", "avg-dist")
       for mode, certify in (("monotonic", _monotonic),
                             ("non-monotonic", _nonmonotonic))
       for name, tamper in (("multiplier-doubled", _double_a_multiplier),
                            ("row-dropped", _drop_a_row))},
    "farkas-relabelled-flags-flipped": (
        _monotonic("avg-dot"),
        lambda d: _flip_captured(_relabel(d, "MOTHER"))),
    "farkas-flags-flipped": (_monotonic("avg-dot"), _flip_captured),
    "farkas-row-scaled": (_monotonic("avg-dot"), _scale_first_row),
    "relaxation-relabelled": (_monotonic("avg-dist"),
                              lambda d: _relabel(d, "CE1")),
    "closure-relabelled-facts-flipped": (
        _monotonic("norm-dot"),
        lambda d: _flip_pair_facts(_relabel(d, "CE1"))),
    "closure-side-flipped": (_monotonic("sig-dot"), _flip_first_side),
    "closure-threshold-facts-flipped": (
        _monotonic("norm-dot"), lambda d: _flip_flags(d, "threshold_facts")),
    "closure-auxiliary-facts-flipped": (
        _monotonic("sig-dot"),
        lambda d: _flip_flags(d, "auxiliary_head_facts")),
    "closure-refutations-truncated": (
        _monotonic("norm-dot"),
        lambda d: {**d, "evidence": {**d["evidence"], "refutations":
                                     d["evidence"]["refutations"][:1]}}),
    "assumptions-emptied": (_monotonic("norm-dist"),
                            lambda d: {**d, "assumptions": []}),
    "reduction-digest-zeroed-wrapped-mother": (
        _nonmonotonic("avg-dist"), lambda d: _zero_digest(d, "MOTHER")),
    "reduction-digest-zeroed": (_nonmonotonic("norm-dist"), _zero_digest),
    "reduction-count-changed": (
        _nonmonotonic("had-dot-tied"),
        lambda d: {**d, "evidence": {**d["evidence"],
                                     "coincidence_checked": 3}}),
    "symmetry-relabelled-ce4": (_monotonic("had-dot-tied", "MOTHER"),
                                lambda d: _relabel(d, "CE4")),
    "symmetry-relabelled-stratified": (_monotonic("had-dot-tied", "CE4"),
                                       lambda d: _relabel(d, "ORD-NM")),
    "order-facts-swapped": (_monotonic("ord-ord"), _swap_order_facts),
    "order-unknown-fixture": (_monotonic("ord-ord"),
                              lambda d: _relabel(d, "NOPE")),
    "farkas-unknown-fixture": (_monotonic("avg-dot"),
                               lambda d: _relabel(d, "NOPE")),
    "farkas-fixture-dropped": (_monotonic("avg-dot"),
                               lambda d: _relabel(d, None)),
    "relaxation-fixture-dropped": (_monotonic("avg-dist"),
                                   lambda d: _relabel(d, None)),
    "decision-flags-flipped": (_decision(fixture("CE1")), _flip_captured),
    "decision-simulable-flags-flipped": (_decision(parse_kb(SIMULABLE)),
                                         _flip_captured),
    "decision-row-relabelled": (_decision(parse_kb(SIMULABLE)),
                                _relabel_first_row),
    "decision-embedding-dropped": (_decision(parse_kb(SIMULABLE)),
                                   _drop_embedding),
    "decision-verdict-changed": (_decision(fixture("CE1")),
                                 _set("verdict", "simulable")),
    "decision-strategy-changed": (_decision(fixture("CE1")),
                                  _set("strategy", "norm-dot")),
    "decision-mode-changed": (_decision(fixture("CE1")),
                              _set("mode", "non-monotonic")),
    "decision-named-ce1": (_decision(fixture("CE1")),
                           lambda d: _relabel(d, "CE1")),
}


# what a leaf of a JSON document may be changed to
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4),
    st.sampled_from(["CE1", "avg-dot", "monotonic", "non-monotonic",
                     "farkas", "closure", "1/1", "0/1", "x", "a"]),
    st.just([]), st.just({}))


@lru_cache(maxsize=None)
def _certificate_documents() -> tuple[dict, ...]:
    """Certificates as JSON documents: every fixture certificate (every
    strategy, every fixture it lists, both modes) and the generic
    decisions on NOT_SIMULABLE and SIMULABLE.  Built once and shared, so
    a test changes a copy (`_replaced_at`), never a document itself."""
    return tuple([_doc(certify_strategy_failure(strategy, name, nonmonotonic))
                  for nonmonotonic in (False, True)
                  for strategy, (names, _) in certifier._CERTIFIERS.items()
                  for name in names] + [
        _doc(decide_avg_dot(parse_kb(source)))
        for source in (NOT_SIMULABLE, SIMULABLE)])


def _leaf_paths(node, path=()):
    """The path to every leaf of a JSON document: each scalar, and each
    empty list or object."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


def _lookalikes(leaf) -> list:
    """Values of other JSON types that equal the leaf under `==`."""
    if isinstance(leaf, (bool, int, float)):
        return [x for x in (bool(leaf), int(leaf), float(leaf))
                if x == leaf and type(x) is not type(leaf)]
    return []


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced_at(doc: dict, path: tuple, value) -> dict:
    """A copy of the document with the leaf at `path` set to `value`."""
    doc = json.loads(json.dumps(doc))
    _at(doc, path[:-1])[path[-1]] = value
    return doc


class TestTamperedCertificates:
    @pytest.mark.parametrize("name", sorted(TAMPERED))
    def test_tampered_certificate_fails_replay(self, name):
        certify, tamper = TAMPERED[name]
        doc = _doc(certify())
        assert reverify_certificate(doc)
        assert reverify_certificate(tamper(doc)) is False

    def test_every_flipped_boolean_fails_replay(self):
        flipped = 0
        for doc in _certificate_documents():
            assert reverify_certificate(doc)
            for path in _leaf_paths(doc):
                leaf = _at(doc, path)
                if isinstance(leaf, bool):
                    assert reverify_certificate(_replaced_at(
                        doc, path, not leaf)) is False, (doc["strategy"], path)
                    flipped += 1
        assert flipped == 248

    def test_every_table1_certificate_replays(self):
        doc = json.loads(run_table1(0).to_json())
        replayed = 0
        for row in doc["rows"]:
            for cell in (row["monotonic"], row["non_monotonic"]):
                for ev in cell["evidence"]:
                    if "report" not in ev:
                        assert reverify_certificate(ev)
                        replayed += 1
        assert replayed == 15

    def test_fixture_free_symmetry_fails_replay(self):
        doc = _doc(certify_strategy_failure("had-dot-tied"))
        assert reverify_certificate(_relabel(doc, None)) is False

    @pytest.mark.parametrize("captured", [1, 1.0])
    def test_number_for_a_boolean_fails_replay(self, captured):
        # equal to True under ==, but not the same JSON text
        doc = _doc(certify_strategy_failure("avg-dot"))
        query = doc["evidence"]["system"]["queries"][0]
        assert query["captured"] is True
        query["captured"] = captured
        assert reverify_certificate(doc) is False

    @pytest.mark.parametrize("value", [["avg-dot"], {"avg-dot": "CE1"}, 7])
    def test_non_string_strategy_fails_replay(self, value):
        doc = _doc(certify_strategy_failure("avg-dot"))
        doc["strategy"] = value
        assert reverify_certificate(doc) is False

    @pytest.mark.parametrize("value", [["CE1"], {"CE1": "CE1"}, 7])
    def test_non_string_fixture_fails_replay(self, value):
        doc = _doc(certify_strategy_failure("avg-dot"))
        doc["fixture"] = value
        assert reverify_certificate(doc) is False

    @settings(max_examples=200)
    @given(st.data())
    def test_any_changed_leaf_fails_replay(self, data):
        doc = data.draw(st.sampled_from(_certificate_documents()))
        path = data.draw(st.sampled_from(list(_leaf_paths(doc))))
        old = _at(doc, path)
        value = data.draw(st.one_of(JSON_LEAVES, *(
            [st.sampled_from(_lookalikes(old))] if _lookalikes(old) else [])))
        assume(json.dumps(value) != json.dumps(old))
        tampered = _replaced_at(doc, path, value)
        assert reverify_certificate(tampered) is False, path


class TestSplicedEncoding:
    @settings(max_examples=150)
    @given(st.data())
    def test_spliced_text_is_the_canonical_text(self, data):
        # subtrees of real certificates, replaced by markers and encoded
        # on their own, splice back to the whole document's text
        doc = data.draw(st.sampled_from(_certificate_documents()))
        subtrees = sorted({path[:k] for path in _leaf_paths(doc)
                           for k in range(1, len(path) + 1)}, key=repr)
        chosen = data.draw(st.lists(st.sampled_from(subtrees), max_size=6))
        chosen = [p for p in chosen if not any(
            q != p and p[:len(q)] == q for q in chosen)]
        skeleton, encoded = json.loads(json.dumps(doc)), {}
        for i, path in enumerate(dict.fromkeys(chosen)):
            marker = f"\0part {i}"
            encoded[marker] = canonical_json(_at(doc, path))
            _at(skeleton, path[:-1])[path[-1]] = marker
        assert (canonical_json_spliced(skeleton, encoded)
                == canonical_json(doc))

    def test_nested_texts_splice_in_place(self):
        doc = {"b": [1, {"z": True}], "a": {"y": None, "x": "1/2"}}
        skeleton = {"b": [1, "\0m1"], "a": "\0m0"}
        text = canonical_json_spliced(skeleton, {
            "\0m0": canonical_json(doc["a"]),
            "\0m1": canonical_json(doc["b"][1])})
        assert text == canonical_json(doc)
        assert text == '{"a":{"x":"1/2","y":null},"b":[1,{"z":true}]}'

    @pytest.mark.parametrize("skeleton,count", [
        ({"a": 1}, 0), ({"a": "m"}, 0), ({"a": "\0m", "b": ["\0m"]}, 2)],
        ids=["missing", "prefix-only", "repeated"])
    def test_marker_must_occur_exactly_once(self, skeleton, count):
        with pytest.raises(ValueError,
                           match=rf"must occur exactly once, occurs {count} "):
            canonical_json_spliced(skeleton, {"\0m": "{}"})


class TestReplayAgainstText:
    @pytest.mark.parametrize("nonmonotonic", [False, True])
    def test_replay_compares_with_the_given_text(self, nonmonotonic):
        doc = _doc(certify_strategy_failure("norm-dot",
                                            nonmonotonic=nonmonotonic))
        text = canonical_json(doc)
        assert reverify_text(doc, text)
        # the text, not the document, is what the rebuild must match
        assert reverify_text(doc, json.dumps(doc, sort_keys=True)) is False
        assert reverify_text(doc, text.replace('"CE3"', '"CE4"')) is False
        other = _doc(certify_strategy_failure(
            "norm-dist", nonmonotonic=nonmonotonic))
        assert reverify_text(doc, canonical_json(other)) is False

    def test_unreadable_document_fails(self):
        doc = _doc(certify_strategy_failure("avg-dot"))
        text = canonical_json(doc)
        del doc["mode"]
        assert reverify_text(doc, text) is False

    def test_one_stratum_wrapper_is_built_once_per_fixture(self):
        wrapper = certifier._one_stratum("CE3")
        assert certifier._one_stratum("CE3") is wrapper
        kb = fixture("CE3")
        fresh = StratifiedKB(kb.signature, (conjoin(kb.formulas),))
        assert wrapper == fresh
        cert = certify_strategy_failure("norm-dot", nonmonotonic=True)
        assert cert.evidence["stratified_digest"] == kb_digest(fresh)


class TestGenericDecision:
    def test_single_rule_simulable(self):
        kb = parse_kb("atoms: a b\nrule: a -> b\n")
        cert = decide_avg_dot(kb)
        assert cert.verdict == "simulable"
        assert cert.evidence["reverified_queries"] == 6
        assert reverify_certificate(cert)

    def test_ce1_not_simulable(self):
        cert = decide_avg_dot(fixture("CE1"))
        assert cert.verdict == "not-simulable"
        assert reverify_certificate(cert)

    def test_atom_cap(self):
        kb = KnowledgeBase(Signature(tuple(f"p{i}" for i in range(7))), ())
        with pytest.raises(CapExceededError):
            decide_avg_dot(kb)

    def test_stratified_kb_refused(self):
        # entailment is the relation decided; a ranked KB must not be
        # answered with its ranked-default table instead
        with pytest.raises(ValueError,
                           match="^generic avg-dot decision needs a plain "
                                 "KB$"):
            decide_avg_dot(fixture("EX4"))

    def test_random_kbs_decide_cleanly(self):
        rng = random.Random(73)
        for _ in range(10):
            kb = random_rule_kb(rng, ["a", "b", "c"])
            cert = decide_avg_dot(kb)
            assert cert.verdict in ("simulable", "not-simulable")
            assert reverify_certificate(cert)

    def test_atomless_kb_replays(self):
        cert = decide_avg_dot(KnowledgeBase(Signature(()), ()))
        assert cert.evidence["system"]["queries"] == []
        assert reverify_certificate(_doc(cert))


# the two fixture Farkas certificates: (strategy, fixture, builder,
# queries, rows)
STATED = [("avg-dot", "CE1", build_avg_dot_system, _ce1_queries(), 4),
          ("avg-dist", "CE2", build_avg_dist_relaxation, _ce2_queries(), 8)]


class TestStatedFarkasCertificates:
    """CE1 and CE2 state their unit multipliers; no simplex runs."""

    @pytest.mark.parametrize("strategy, name, build, queries, rows", STATED,
                             ids=["CE1", "CE2"])
    def test_unit_multipliers_refute_the_dense_reference_too(
            self, strategy, name, build, queries, rows):
        system = build(fixture(name), queries=queries)
        assert len(system.constraints) == rows
        assert not dense_lp_feasible(system).feasible
        gap = verify_farkas(system, [F(1)] * rows)
        ev = certify_strategy_failure(strategy, name).evidence
        assert ev["multipliers"] == ["1/1"] * rows
        assert ev["gap"] == frac_str(gap)

    def test_table1_runs_no_simplex(self, monkeypatch):
        calls = []
        original = certifier.lp_feasible

        def counting(system):
            calls.append(system)
            return original(system)

        monkeypatch.setattr(certifier, "lp_feasible", counting)
        run_table1(0)
        assert calls == []

    def test_unrefuted_system_raises(self):
        # one capture row alone is feasible: unit multipliers leave its
        # variables standing
        with pytest.raises(ValueError, match="does not cancel"):
            _lp_certificate(AVG_DOT, "CE1", build_avg_dot_system,
                            _ce1_queries()[:1], relaxation=False)


def _minimal_entailing_subset(kb, atoms, head):
    """An inclusion-minimal subset of `atoms` that entails `head`."""
    kept = list(atoms)
    for a in atoms:
        rest = [x for x in kept if x != a]
        if tt_entails(kb, rest, head):
            kept = rest
    return tuple(kept)


def _closed_form_kbs():
    """Seeded plain KBs of 1-4 atoms: 160 rule KBs, 40 formula KBs."""
    rng = random.Random(2026)
    for i in range(200):
        atoms = ["a", "b", "c", "d"][:1 + i % 4]
        if i < 160:
            yield random_rule_kb(rng, atoms)
        else:
            formulas = tuple(random_formula(rng, atoms)
                             for _ in range(rng.randint(1, 3)))
            yield KnowledgeBase(Signature(tuple(atoms)), formulas)


class TestAvgDotClosedForm:
    """The closed form the avg-dot decision can read off entailment,
    checked against the exact decision before production relies on it."""

    def test_matches_the_decision_and_refutes_with_unit_rows(self):
        verdicts = []
        for kb in _closed_form_kbs():
            simulable = avg_dot_closed_form(kb)
            assert (decide_avg_dot(kb).verdict == "simulable") == simulable
            verdicts.append(simulable)
            if simulable:
                continue
            # S -> b captured, each {a} -> b rejected: 0 >= |S|
            atoms = kb.signature.atoms
            refuted = 0
            for b in atoms:
                rejected = [a for a in atoms if not tt_entails(kb, (a,), b)]
                if not rejected or not tt_entails(kb, rejected, b):
                    continue
                subset = _minimal_entailing_subset(kb, rejected, b)
                system = build_avg_dot_system(
                    kb, queries=[(subset, b)] + [((a,), b) for a in subset])
                rows = len(subset) + 1
                assert verify_farkas(system, [F(1)] * rows) == len(subset)
                refuted += 1
            assert refuted
        assert len(verdicts) == 200
        assert 0 < verdicts.count(False) < 200


def assert_facts_kb_entails_the_same(kb):
    """The facts KB of the KB's decision system has the KB's signature
    and entails exactly what the KB does on every non-empty subset."""
    facts = _facts_kb(build_avg_dot_system(kb).queries)
    assert facts.signature == kb.signature
    # entry 0 answers the empty antecedent, which no query asks
    assert entailment_table(facts)[1:] == entailment_table(kb)[1:]


class TestFactsKB:
    """`_facts_kb`, from which replay rebuilds a generic decision."""

    @settings(max_examples=150)
    @given(plain_kbs(5))
    def test_seeded_rule_and_formula_kbs(self, kb):
        assert_facts_kb_entails_the_same(kb)

    @pytest.mark.parametrize("source", [
        "atoms: a b\nformula: a & !a\n",
        "atoms: a b c\nformula: FALSE\n",
        "atoms: a b c\nformula: a <-> b\nformula: b <-> !c\n",
        "atoms: a b c d\nformula: a <-> (b | c)\nrule: d -> a\n",
        "atoms: a b c\nformula: a | b\nformula: c\n",
        FIXTURE_SOURCES["CE1"],
        FIXTURE_SOURCES["MOTHER"],
    ], ids=["contradiction", "false", "iff-chain", "iff-or", "facts", "CE1",
            "MOTHER"])
    def test_named_kbs(self, source):
        assert_facts_kb_entails_the_same(parse_kb(source))

    def test_inconsistent_kb_rebuilds_its_decision(self):
        # every non-empty subset entails every head, yet the facts KB
        # has a model: the empty interpretation
        kb = parse_kb("atoms: a b c\nformula: a & !a\n")
        facts = _facts_kb(build_avg_dot_system(kb).queries)
        assert len(facts.formulas) == 21
        assert entailment_table(facts)[0] == 0
        cert = decide_avg_dot(kb)
        assert cert.to_dict() == decide_avg_dot(facts).to_dict()
        assert reverify_certificate(_doc(cert))

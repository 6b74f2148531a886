"""Linear systems, the exact simplex, closure search, and certificates."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from conftest import random_rule_kb
from embedsim.certifier import (Certificate, ConicalRequirement, Constraint,
                                LinearSystem, PairRequirement, _ce1_queries,
                                _ce2_queries, _integer_row, _lp_evidence,
                                _row_blocks,
                                build_avg_dist_relaxation,
                                build_avg_dot_system,
                                certify_nonmonotonic_failure,
                                certify_strategy_failure, combine_constraints,
                                conical_closure_certify, decide_avg_dot,
                                derive_pair_requirements, lp_feasible,
                                realize_from_matrix, realize_from_witness,
                                reverify_certificate, verify_farkas,
                                verify_witness)
from embedsim.fixtures import fixture
from embedsim.logic import (CapExceededError, KnowledgeBase, Signature,
                            parse_kb)
from embedsim.strategies import AVG_DOT
from embedsim.verifier import subset_queries, verify_monotonic
from oracles import tt_entails
from references import dense_lp_feasible, ref_verify_witness

F = Fraction


def make_system(rows):
    """rows: list of (coeff list, relation, rhs) over auto-named variables."""
    width = len(rows[0][0])
    variables = tuple(f"v{i}" for i in range(width))
    constraints = tuple(
        Constraint(tuple(F(c) for c in coeffs), rel, F(rhs), f"row{i}")
        for i, (coeffs, rel, rhs) in enumerate(rows))
    return LinearSystem(variables, constraints)


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
        system = build_avg_dot_system(kb, cap=4)
        assert len(system.constraints) == 15 * 4

    def test_serialization_roundtrip(self):
        kb = fixture("CE1")
        system = build_avg_dot_system(kb, queries=_ce1_queries())
        assert LinearSystem.from_dict(system.to_dict()) == system


class TestBuildDistRelaxation:
    def test_ce2_infeasible_with_pattern(self):
        kb = fixture("CE2")
        system = build_avg_dist_relaxation(kb, queries=_ce2_queries())
        outcome = lp_feasible(system)
        assert not outcome.feasible
        mult = outcome.farkas.multipliers
        assert all(m == mult[0] for m in mult)  # forced uniform
        # the x-head half of the combination is the dot-product contradiction
        coeffs, rhs = combine_constraints(system, mult, rows=range(4))
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
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seeded_rule_kbs(6), st.integers(1, 6))
    def test_canonical_rows_are_ints_and_match_truth_table(self, build, kb,
                                                          cap):
        cap = min(cap, len(kb.signature))
        system = build(kb, cap=cap)
        queries = subset_queries(kb.signature, cap)
        assert len(system.constraints) == len(queries)
        for con in system.constraints:
            assert all(type(c) is int for c in con.coeffs)
            assert type(con.rhs) is int
        assert captured_flags(system) == [
            (subset, head, tt_entails(kb, subset, head))
            for subset, head in queries]

    @pytest.mark.parametrize("build", BUILDERS)
    @settings(max_examples=40, deadline=None, derandomize=True)
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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seeded_rule_kbs(4))
    def test_replayed_system_solves_the_same(self, kb):
        system = build_avg_dot_system(kb)
        replayed = LinearSystem.from_dict(system.to_dict())
        got, again = lp_feasible(system), lp_feasible(replayed)
        assert got.feasible == again.feasible
        if got.feasible:
            assert list(got.witness.items()) == list(again.witness.items())
        else:
            assert got.farkas.multipliers == again.farkas.multipliers
            assert got.farkas.gap == again.farkas.gap
        assert (json.dumps(_lp_evidence(system, got))
                == json.dumps(_lp_evidence(replayed, again)))

    def test_rational_farkas_certificate_replays(self):
        # CE1's first reject row scaled by 1/3 carries the multiplier 3
        # where the integer row carries 1
        system = build_avg_dot_system(fixture("CE1"), queries=_ce1_queries())
        assert lp_feasible(system).farkas.multipliers == (1, 1, 1, 1)
        row = system.constraints[2]
        assert row.relation == "<=" and row.rhs == -2
        scaled = Constraint(tuple(F(c, 3) for c in row.coeffs), "<=",
                            F(row.rhs, 3), row.label)
        system = LinearSystem(system.variables,
                              system.constraints[:2] + (scaled,)
                              + system.constraints[3:], system.queries)
        evidence = {"kind": "farkas", "relaxation": False,
                    "system": system.to_dict(),
                    "multipliers": ["1/1", "1/1", "3/1", "1/1"],
                    "gap": "4/1"}
        assert evidence["system"]["constraints"][2]["rhs"] == "-2/3"
        assert verify_farkas(system, [F(1), F(1), F(3), F(1)]) == 4
        assert reverify_certificate(Certificate(
            "avg-dot", "CE1", "monotonic", "not-simulable", evidence, []))
        with pytest.raises(ValueError, match="does not cancel"):
            verify_farkas(system, [F(1)] * 4)
        evidence["multipliers"][2] = "1/1"
        with pytest.raises(ValueError, match="does not cancel"):
            reverify_certificate({"evidence": evidence, "fixture": "CE1"})


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


# mixed denominators, so rows are scaled by different lcms
rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 7))


@st.composite
def rational_systems(draw):
    """1-5 variables, 1-10 rows of rational coefficients and right-hand
    sides, some rows all zero, both relations."""
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
    """The integer-row tableau against the dense `Fraction` tableau."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rational_systems())
    def test_rational_systems(self, system):
        assert_same_outcome(system)

    @pytest.mark.parametrize("feasible", [True, False])
    def test_rational_systems_reach_both_verdicts(self, feasible):
        system = find(rational_systems(),
                      lambda s: lp_feasible(s).feasible is feasible,
                      settings=settings(derandomize=True, database=None))
        assert assert_same_outcome(system).feasible is feasible


class TestVerifyWitnessIntegers:
    """`verify_witness` on rational rows, against `ref_verify_witness`."""

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


# ------------------------------------------------------------------
# Realization
# ------------------------------------------------------------------

class TestRealize:
    def test_identity_matrix_self_capture(self):
        atoms = ("a", "b")
        matrix = {("a", "a"): F(1), ("b", "b"): F(1),
                  ("a", "b"): F(0), ("b", "a"): F(0)}
        emb = realize_from_matrix(matrix, {"a": F(1), "b": F(1)}, atoms)
        from embedsim.strategies import strategy_accepts
        assert strategy_accepts(emb, AVG_DOT, ("a",), "a")
        assert not strategy_accepts(emb, AVG_DOT, ("a",), "b")

    def test_feasible_system_realizes_and_verifies(self):
        kb = parse_kb("atoms: a b\nrule: a -> b\n")
        system = build_avg_dot_system(kb)
        outcome = lp_feasible(system)
        assert outcome.feasible
        emb = realize_from_witness(system, outcome, kb.signature.atoms)
        assert emb.dimension == 2
        report = verify_monotonic(emb, AVG_DOT, kb)
        assert report.simulates

    def test_infeasible_system_rejected(self):
        kb = fixture("CE1")
        system = build_avg_dot_system(kb, queries=_ce1_queries())
        outcome = lp_feasible(system)
        with pytest.raises(ValueError):
            realize_from_witness(system, outcome, kb.signature.atoms)


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
        cert = certify_nonmonotonic_failure(strategy)
        assert cert.verdict == "not-simulable"
        assert cert.mode == "non-monotonic"
        assert reverify_certificate(cert)
        if strategy != "ord-ord":
            assert cert.evidence["kind"] == "stratified-reduction"
            assert cert.evidence["coincidence_checked"] > 0

    def test_reverify_rejects_unknown_kind(self):
        cert = Certificate("avg-dot", "CE1", "monotonic", "not-simulable",
                           {"kind": "mystery"}, [])
        with pytest.raises(ValueError):
            reverify_certificate(cert)


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

    def test_random_kbs_decide_cleanly(self):
        rng = random.Random(73)
        for _ in range(10):
            kb = random_rule_kb(rng, ["a", "b", "c"])
            cert = decide_avg_dot(kb)
            assert cert.verdict in ("simulable", "not-simulable")
            assert reverify_certificate(cert)

"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

The lines are collected into the pytest terminal summary (see
conftest.pytest_terminal_summary) so they appear in every run mode.
Everything rational is compared exactly; the only tolerances are the
stated numeric ones for the sigmoid demonstrator and the stated runtime
budgets.
"""

import functools
import json
import random
import time
from fractions import Fraction

import numpy as np

import conftest
from conftest import random_embedding, random_rule_kb, random_stratified_kb
from embedsim.certifier import (_ce1_queries, _ce2_queries,
                                build_avg_dist_relaxation,
                                build_avg_dot_system, combine_constraints,
                                conical_closure_certify,
                                derive_pair_requirements, lp_feasible,
                                reverify_certificate)
from embedsim.cli import main as cli_main
from embedsim.constructors import (construct_avg_relu, construct_avg_relu_nm,
                                   construct_had_dot, construct_had_dot_nm,
                                   construct_ord)
from embedsim.fixtures import fixture
from embedsim.logic import entails, nm_consequence_def, nm_consequence_rank
from embedsim.strategies import (angular_error, emb_sig_numeric,
                                 sig_gradient, sig_objective,
                                 strategy_accepts)
from embedsim.table1 import run_table1
from embedsim.verifier import (check_ord_monotonicity, verify_monotonic,
                               verify_nonmonotonic)
from oracles import tt_entails, tt_nm_def, tt_nm_rank

F = Fraction

EXPECTED_PATTERN = (
    [("not-simulable", "not-simulable")] * 6
    + [("simulable", "simulable")] * 2
    + [("not-simulable", "not-simulable")]
    + [("simulable", "not-simulable")]
)


def criterion(number, description):
    def announce(verdict):
        line = f"ACCEPTANCE {number}: {verdict} - {description}"
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)  # also visible with -s or on failure

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                announce("FAIL")
                raise
            announce("PASS")
        return run
    return wrap


@criterion(1, "verdict table matches the expected 10x2 pattern, "
              "positives exhaustively verified, negatives replayed, < 60 s")
def test_criterion_1_table_reproduction():
    started = time.perf_counter()
    report = run_table1()
    elapsed = time.perf_counter() - started
    assert report.pattern() == EXPECTED_PATTERN
    for row in report.rows:
        for cell in (row.monotonic, row.non_monotonic):
            if cell.verdict == "simulable":
                assert cell.method == "construction+verification"
                for item in cell.evidence:
                    rep = item["report"]
                    assert rep["verdict"] == "simulates"
                    assert rep["mismatches"] == []
                    assert not rep["capped"]  # fully exhaustive sweeps
            else:
                assert cell.method in ("certificate",
                                       "certificate-with-assumptions")
                for cert in cell.evidence:
                    assert reverify_certificate(cert)
    assert elapsed < 60.0, f"table took {elapsed:.1f}s"


@criterion(2, "construction round-trips: 100 plain KBs x recipes 1-3 and "
              "50 stratified KBs x recipes 4-5, zero mismatches, exact")
def test_criterion_2_proposition_round_trips():
    rng = random.Random(20240001)
    atoms5 = ["a", "b", "c", "d", "e"]
    for _ in range(100):
        kb = random_rule_kb(rng, atoms5, max_rules=6)
        for build in (construct_avg_relu, construct_had_dot, construct_ord):
            res = build(kb)
            report = verify_monotonic(res.embedding, res.strategy, kb)
            assert report.simulates, (build.__name__, report.mismatches[:2])
            assert report.queries == 31 * 5
    atoms4 = ["a", "b", "c", "d"]
    for _ in range(50):
        theta = random_stratified_kb(rng, atoms4, max_strata=3)
        for build in (construct_avg_relu_nm, construct_had_dot_nm):
            res = build(theta)
            report = verify_nonmonotonic(res.embedding, res.strategy, theta)
            assert report.simulates, (build.__name__, report.mismatches[:2])
            assert report.queries == 15 * 4


@criterion(3, "stratified example: the three verdicts hold under both "
              "consequence definitions and both constructions, exact")
def test_criterion_3_stratified_example():
    theta = fixture("EX4")
    queries = [(("apple",), "cat:food", True),
               (("apple", "safari"), "cat:technology", True),
               (("apple", "safari"), "cat:food", False)]
    for subset, head, want in queries:
        assert nm_consequence_def(theta, subset, head) == want
        assert nm_consequence_rank(theta, subset, head) == want
    for build in (construct_avg_relu_nm, construct_had_dot_nm):
        res = build(theta)
        for subset, head, want in queries:
            got = strategy_accepts(res.embedding, res.strategy, subset, head)
            assert got == want, (build.__name__, subset, head)


@criterion(4, "four-query dot-labelling certificate: infeasible, "
              "multipliers (1,1,1,1), recombination 0 >= 4, < 1 s")
def test_criterion_4_ce1_certificate():
    kb = fixture("CE1")
    started = time.perf_counter()
    system = build_avg_dot_system(kb, queries=_ce1_queries())
    outcome = lp_feasible(system)
    elapsed = time.perf_counter() - started
    assert not outcome.feasible
    mult = outcome.farkas.multipliers
    assert mult == (F(1), F(1), F(1), F(1))
    combined, gap = combine_constraints(system, mult)
    assert all(c == 0 for c in combined)
    assert gap == 4
    assert elapsed < 1.0, f"certificate took {elapsed:.3f}s"


@criterion(5, "eight-query distance-relaxation certificate: infeasible and "
              "the combined inequality collapses to the dot-product "
              "contradiction pattern, exact")
def test_criterion_5_ce2_certificate():
    kb = fixture("CE2")
    system = build_avg_dist_relaxation(kb, queries=_ce2_queries())
    outcome = lp_feasible(system)
    assert not outcome.feasible
    mult = outcome.farkas.multipliers
    full, gap = combine_constraints(system, mult)
    assert all(c == 0 for c in full) and gap > 0
    # the x-headed half alone cancels everything except the four pair
    # Gram terms: ab and cd negative, ac and bd positive
    coeffs, rhs = combine_constraints(system, mult, rows=range(4))
    nonzero = {v: c for v, c in zip(system.variables, coeffs) if c != 0}
    assert rhs > 0
    assert set(nonzero) == {"G[a,b]", "G[c,d]", "G[a,c]", "G[b,d]"}
    assert nonzero["G[a,b]"] == nonzero["G[c,d]"] < 0
    assert nonzero["G[a,c]"] == nonzero["G[b,d]"] == -nonzero["G[a,b]"]


@criterion(6, "closure refutation on both pair-requirement sets: all 81 "
              "assignments refuted, zero survivors")
def test_criterion_6_closure_refutation():
    for name in ("CE3", "CE4"):
        kb = fixture(name)
        requirement, _ = derive_pair_requirements(
            kb, ("a", "b", "c", "d"), "x", "y")
        outcome = conical_closure_certify(requirement)
        assert not outcome.consistent
        assert outcome.total == 81
        assert len(outcome.refutations) == 81
        assert outcome.satisfying is None


@criterion(7, "order-embedding impossibility: label monotonicity holds on "
              "1000 random max/order embeddings and every one of them "
              "fails the two-stratum fixture, exact")
def test_criterion_7_order_impossibility():
    rng = random.Random(20240007)
    theta = fixture("ORD-NM")
    from embedsim.strategies import ORD_ORD
    for _ in range(1000):
        emb = random_embedding(rng, theta.signature.atoms, tied=True)
        prop = check_ord_monotonicity(emb)
        assert prop.holds
        report = verify_nonmonotonic(emb, ORD_ORD, theta)
        assert len(report.mismatches) >= 1


@criterion(8, "oracle equivalence: entailment and rank consequence match "
              "independent truth tables on all queries, and the two rank "
              "definitions agree on 200 random stratified KBs, exact")
def test_criterion_8_oracle_equivalence():
    rng = random.Random(20240008)
    atoms5 = ["a", "b", "c", "d", "e"]
    for _ in range(20):
        kb = random_rule_kb(rng, atoms5)
        for mask in range(1, 32):
            subset = tuple(a for i, a in enumerate(atoms5) if mask >> i & 1)
            for head in atoms5:
                assert entails(kb, subset, head) == tt_entails(kb, subset, head)
    atoms3 = ["a", "b", "c"]
    for _ in range(12):
        theta = random_stratified_kb(rng, atoms3, max_strata=4)
        for mask in range(1, 8):
            subset = tuple(a for i, a in enumerate(atoms3) if mask >> i & 1)
            for head in atoms3:
                want_rank = tt_nm_rank(theta, subset, head)
                assert nm_consequence_rank(theta, subset, head) == want_rank
                assert tt_nm_def(theta, subset, head) == want_rank
    # the two in-library definitions, exhaustively on 200 random KBs
    atoms = ["a", "b", "c", "d", "e"]
    for _ in range(200):
        theta = random_stratified_kb(rng, atoms, max_strata=4)
        for mask in range(1, 32):
            subset = tuple(a for i, a in enumerate(atoms) if mask >> i & 1)
            for head in atoms:
                assert (nm_consequence_def(theta, subset, head)
                        == nm_consequence_rank(theta, subset, head))


@criterion(9, "numeric demonstrator: gradient within 1e-5 relative of "
              "central differences at 10 points, singleton optima within "
              "1e-6 angular error of the attribute vector")
def test_criterion_9_numeric_demonstrator():
    rng = np.random.default_rng(20240009)
    vectors = rng.standard_normal((5, 6))
    kappa = 1.3
    h = 1e-6
    for _ in range(10):
        e = rng.standard_normal(6)
        grad = sig_gradient(e, vectors, kappa)
        numeric = np.array([
            (sig_objective(e + h * dv, vectors, kappa)
             - sig_objective(e - h * dv, vectors, kappa)) / (2 * h)
            for dv in np.eye(6)
        ])
        denom = max(np.max(np.abs(grad)), 1e-9)
        assert np.max(np.abs(grad - numeric)) / denom < 1e-5
    from embedsim.strategies import AttributeEmbedding
    for trial in range(5):
        raw = rng.standard_normal(4)
        context = {"a": tuple(F(x).limit_denominator(10**6) for x in raw)}
        emb = AttributeEmbedding(4, context, dict(context))
        y = emb_sig_numeric(emb, ("a",), kappa=1.0, iterations=3000,
                            seed=trial)
        assert angular_error(y, raw) < 1e-6
        assert float(y @ raw) > 0


@criterion(10, "two full table runs through the CLI are byte-identical")
def test_criterion_10_determinism(tmp_path):
    out1 = tmp_path / "t1.json"
    out2 = tmp_path / "t2.json"
    assert cli_main(["table1", "--json", "-o", str(out1)]) == 0
    assert cli_main(["table1", "--json", "-o", str(out2)]) == 0
    b1 = out1.read_bytes()
    b2 = out2.read_bytes()
    assert b1 == b2
    assert json.loads(b1)  # well-formed

"""Bundled fixture integrity: canonical formulas, digests, model counts."""

import pytest

from embedsim.fixtures import FIXTURE_NAMES, fixture
from embedsim.logic import (KnowledgeBase, StratifiedKB, count_models,
                            format_formula, kb_digest)

EXPECTED_FORMULAS = {
    "CE1": ["a & b -> x", "c & d -> x"],
    "CE2": ["a & b -> x", "c & d -> x", "a & c -> y", "b & d -> y"],
    "CE3": ["a & b -> x", "c & d -> x", "a & c -> y", "b & d -> y",
            "a & d -> y", "b & c -> y"],
    "CE4": ["a & b -> x", "c & d -> x", "a & c -> y", "b & d -> y",
            "a & d -> y", "b & c -> y",
            "a -> z_ab", "b -> z_ab", "a -> z_ac", "c -> z_ac",
            "a -> z_ad", "d -> z_ad", "b -> z_bc", "c -> z_bc",
            "b -> z_bd", "d -> z_bd", "c -> z_cd", "d -> z_cd"],
    "EX4": ["!cat:technology | !cat:food",
            "apple & safari -> cat:technology",
            "apple -> cat:food"],
    "ORD-NM": ["a & b -> FALSE", "a -> x"],
    "MOTHER": ["mother <-> parent & female"],
}

# frozen canonical-source digests; any fixture edit must be deliberate
EXPECTED_DIGESTS = {
    "CE1": "675f72349807781c7708bb7dbe82e1c3bbf8ea308509c0f76f43783b5958e960",
    "CE2": "cc2c573fe78c12a74a538e75e79fd5d946e1301c1f27b15b8da5b211dc6907af",
    "CE3": "839461b3f79a72fde8fea93ac71bbd9e986cd8525d4efb40e4a64e121142e832",
    "CE4": "bc0d2ca11442208a2884fb8aa9b86064c1d54b813b0cb73f1195ccfd5ac713f7",
    "EX4": "3bbd03de11d87615cb4bc0a8d06cb7d3625d0d601db13e4057ff1b2ea6d1ab92",
    "ORD-NM": "d6c1aa9b00ca1acac65fa669fea08a73f7693c13967827a0cd1037fb72217950",
    "MOTHER": "7ed2dd69f410db9d1fce14e7511bedfa2de1033ee7a4ec6f2404712be45731b8",
}

STRATIFIED = {"EX4", "ORD-NM"}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_canonical_formulas(name):
    kb = fixture(name)
    formulas = kb.strata if isinstance(kb, StratifiedKB) else kb.formulas
    assert [format_formula(f) for f in formulas] == EXPECTED_FORMULAS[name]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_digests(name):
    assert kb_digest(fixture(name)) == EXPECTED_DIGESTS[name]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_kind(name):
    kb = fixture(name)
    if name in STRATIFIED:
        assert isinstance(kb, StratifiedKB)
    else:
        assert isinstance(kb, KnowledgeBase)


def test_ce1_model_count_by_hand():
    # 32 assignments, 4 violate each pair rule, 1 violates both: 32 - 7
    assert count_models(fixture("CE1")) == 25


@pytest.mark.parametrize("name", ["CE1", "CE2", "CE3", "CE4", "MOTHER"])
def test_model_counts_match_independent_oracle(name):
    from oracles import tt_models
    kb = fixture(name)
    assert count_models(kb) == len(tt_models(kb))


def test_unknown_fixture():
    with pytest.raises(KeyError):
        fixture("CE9")


def test_ce4_extends_ce3():
    ce3 = fixture("CE3")
    ce4 = fixture("CE4")
    assert set(ce3.signature.atoms) < set(ce4.signature.atoms)
    ce3_strings = [format_formula(f) for f in ce3.formulas]
    ce4_strings = [format_formula(f) for f in ce4.formulas]
    assert ce4_strings[:len(ce3_strings)] == ce3_strings
    assert len(ce4_strings) == len(ce3_strings) + 12

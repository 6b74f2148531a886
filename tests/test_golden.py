"""Byte-level pins: the table1 JSON, one mismatch report per strategy,
the generic avg-dot decision certificate for CE1, the indented text
of both avg-dot CE1 certificates, and each construction recipe's
embedding on each fixture it applies to.

Any change to verdicts, query order, score text or serialisation
changes a digest here.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from conftest import random_embedding
from embedsim.certifier import decide_avg_dot
from embedsim.cli import main
from embedsim.constructors import construct
from embedsim.fixtures import FIXTURE_SOURCES, fixture
from embedsim.strategies import (TABLE1_STRATEGIES, sig_conical_diagnostics,
                                 strategy_from_name)
from embedsim.verifier import verify_monotonic

# sha256 of `embedsim table1 --json` with the sigmoid diagnostics removed
# (they are floats from a numeric optimiser), re-dumped canonically
TABLE1_SHA256 = (
    "4ce06133ee5d839cf23de3a3ca8ab3fcff015a0f980392295ab04a00fecba3fb")

# (mismatches, sha256 of the timing-free report) of a seeded random
# 3-dimensional embedding swept against CE1, per exact strategy
CE1_REPORTS = {
    "avg-dot": (76, "e77b7e6d98ce3b53e3938640687249e8"
                    "f2a69825d391a2e2e29098e684cdd289"),
    "avg-dist": (78, "22b0fb70e72205aa12edefd3ec3a54b6"
                     "1413eec98af8659a5c86fcfd097863b7"),
    "norm-dot": (77, "6be16d97075ff6d6d6dd0ee8a06913da"
                     "b47f63a7a4612e65f2896cf9c9ceac6c"),
    "norm-dist": (81, "b7601e73017a44d2097cdbc0afa756b9"
                      "1cabbf598a90ca3b106fb525c1c043ac"),
    "avg-relu": (72, "7aa9031abcbfb0f7502c039f311f9155"
                     "9290ad651962382c9972734b81b56801"),
    "had-dot": (73, "e921b1ea91a6362daee8b5ab1aecc849"
                    "eeb5385f67dc5c9152e17ac42d7e2c40"),
    "had-dot-tied": (77, "e6f0ca1227c5ccab7335c6913006d1cb"
                         "f94928e72b25c3e86afbccde2e1708c2"),
    "ord-ord": (27, "d2075d727967bc1cddc6d9bd5720775b"
                    "25ed8b18a82f2b3e54518c101bb4baff"),
}

# sha256 of the CE1 certificates as `certify --strategy avg-dot --json`
# printed them with two-space indents, before --json turned compact
INDENTED_CE1_CERTIFICATES = {
    "fixture": "d8a69f0c5c59acfbf506c7d26210726066d4254fe495d0995480cec3c8a6768e",
    "generic": "1f0a53d8b01cd6f3b5d9ddac0bd399223ce8c53f20554d3f9c49a8c1fd210ae4",
}

# the benchmark's recorded digests; `fixed.CE1` (ec9ffe7e…) is the sha256
# of the canonical JSON of `decide_avg_dot(fixture("CE1"))`
GOLDEN_JSON = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"

# sha256 of the sorted-key JSON of `construct(fixture, recipe, delta)`'s
# embedding with its provenance, per (fixture, recipe, delta); recipe 3
# ignores delta, so its custom-delta digest is its default one
CONSTRUCTIONS = {
    ("CE1", 1, None): "f67461e9f2497f4c57753ba0f14e2c61"
                      "79b45f9f43ec917bc1f09f9e5be5d333",
    ("CE1", 2, None): "65536d72b8931b72ea1bf66870ffc602"
                      "1eb5339d1a0785dbea4cee20d0fefa84",
    ("CE1", 3, None): "64b3f7e638a73c5543b7d00759124b3a"
                      "8d5acae34505cf204c618ea483dcc1e0",
    ("CE2", 1, None): "fbde364cd25a53b3ac126917b9c9a2f6"
                      "541f91bcf4e283a5b8a5e62be9e54473",
    ("CE2", 2, None): "46f4b1e32121afa97aaecffedec20250"
                      "fd89eeb752fd672eb8a34e3d87b22d1f",
    ("CE2", 3, None): "ef2854eb51859d41db4fd51006b4d289"
                      "190de52a700e323dcf0b22afc99eab5e",
    ("CE3", 1, None): "9bfc867318826eff6a8083a784269c90"
                      "b5e5904554f921e63871a595a2696df2",
    ("CE3", 2, None): "890902165aed827a7347bff8ef7b2646"
                      "701fc587f1d6004623b417cc5d0df47a",
    ("CE3", 3, None): "3a877987ac208e1654cf92881efcdd7f"
                      "8ec5c091ba29ad8b215ea285370241df",
    ("CE4", 1, None): "205bdb54f6a5dd6830f01744e5cf1be9"
                      "6dbc21f458e3ff50f0da38c413ea18e2",
    ("CE4", 2, None): "ece6e72c91f7750281411ebe07ef1084"
                      "656665f71a1b3c20d219f9d681d84c9b",
    ("CE4", 3, None): "a731f014fc81dd4d2920a3a3833b7e91"
                      "3810c6e17e9ddb88e42b4b2c507fdff4",
    ("EX4", 4, None): "71e4e895b78566a6293b5e9c579d54fa"
                      "45512d6e8866428dbf107c0207dd65fe",
    ("EX4", 5, None): "8049aca5079474b832253f35100e8466"
                      "5aa2f22d741960ff403da7ba5e884eaa",
    ("ORD-NM", 4, None): "08b12fea7553cb64c26ed225041b646d"
                         "a7601246d5e6fb52d987614dd63c103d",
    ("ORD-NM", 5, None): "8f533941a7fa0ef7e975adf7d060d44b"
                         "6721c24043af7e1b566c4b25d9453e37",
    ("MOTHER", 1, None): "f77cd78d0b2fddb7ba5564654790c2c6"
                         "b879d84129356e4b4b86768f0237450d",
    ("MOTHER", 2, None): "bf0fb85c85571c3b09882ad6253d7d42"
                         "d697f2aedaf549b5a492ea776c8e5463",
    ("MOTHER", 3, None): "8a283e4e6d53502165d59da1aa278fc1"
                         "842c701afeadd87d146c4f95081c163b",
    ("MOTHER", 1, 1000): "8f9c3f8e52b5f67e5dcce067a51847c8"
                         "41552179aba468dd6f4f8827c5ac5ba0",
    ("EX4", 5, 1000): "e67cced7586063ba421e5172261a02d0"
                      "024c1ce8f50fb4e1d99231c2d46f769f",
    ("CE1", 3, 1000): "64b3f7e638a73c5543b7d00759124b3a"
                      "8d5acae34505cf204c618ea483dcc1e0",
}

SCORE_PREFIX = {
    "avg-dot": "dot=", "avg-dist": "distsq=", "norm-dot": "sum.out=",
    "norm-dist": "sum.out=", "avg-relu": "relu_dot=", "had-dot": "dot=",
    "had-dot-tied": "dot=", "ord-ord": "pooled=",
}


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def ce1_report(name: str):
    strategy = strategy_from_name(name)
    kb = fixture("CE1")
    emb = random_embedding(random.Random(f"golden:{name}"),
                           kb.signature.atoms, dimension=3, tied=strategy.tied)
    return verify_monotonic(emb, strategy, kb)


def test_pins_cover_every_exact_strategy():
    assert sorted(CE1_REPORTS) == sorted(
        s.name for s in TABLE1_STRATEGIES if s.exact)


def test_table1_json_bytes(capsys):
    assert main(["table1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for row in doc["rows"]:
        row.pop("diagnostics", None)
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert sha256_text(text) == TABLE1_SHA256


def indented(doc) -> str:
    """The document as --json printed it before turning compact."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("seed", range(4))
def test_compact_table1_is_the_indented_document(capsys, seed):
    # the same document as before, compared as text so that 1 cannot
    # pass for true: diagnostics-free part against the pin, diagnostics
    # against the library's own for the seed
    assert main(["table1", "--seed", str(seed), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    want = indented(sig_conical_diagnostics(seed=seed))
    for row in doc["rows"]:
        diagnostics = row.pop("diagnostics", None)
        if row["strategy"].startswith("sig-"):
            assert indented(diagnostics) == want
        else:
            assert diagnostics is None
    assert sha256_text(indented(doc)) == TABLE1_SHA256


@pytest.mark.parametrize("kind", sorted(INDENTED_CE1_CERTIFICATES))
def test_compact_ce1_certificate_is_the_indented_document(capsys, tmp_path,
                                                          kind):
    if kind == "fixture":
        source = ["--fixture", "CE1"]
    else:
        path = tmp_path / "ce1.kb"
        path.write_text(FIXTURE_SOURCES["CE1"])
        source = [str(path)]
    assert main(["certify", "--strategy", "avg-dot", *source, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sha256_text(indented(doc)) == INDENTED_CE1_CERTIFICATES[kind]


@pytest.mark.parametrize("name", sorted(CE1_REPORTS))
def test_ce1_mismatch_report_bytes(name):
    report = ce1_report(name)
    mismatches, digest = CE1_REPORTS[name]
    assert report.queries == 155
    assert len(report.mismatches) == mismatches
    assert all(m.score.startswith(SCORE_PREFIX[name])
               for m in report.mismatches)
    doc = report.to_dict(timing=False)
    assert sha256_text(json.dumps(doc, sort_keys=True)) == digest


def test_construction_pins_cover_every_fixture_and_recipe():
    # recipes 1-3 take a plain KB, 4-5 a stratified one
    covered = {(name, recipe) for name, recipe, delta in CONSTRUCTIONS
               if delta is None}
    assert covered == {
        (name, recipe) for name in FIXTURE_SOURCES
        for recipe in ((4, 5) if "stratum:" in FIXTURE_SOURCES[name]
                       else (1, 2, 3))}


@pytest.mark.parametrize("case", sorted(CONSTRUCTIONS, key=str), ids=str)
def test_construction_bytes(case):
    name, recipe, delta = case
    result = construct(fixture(name), recipe, delta)
    doc = result.embedding.to_json_dict(result.provenance())
    assert sha256_text(json.dumps(doc, sort_keys=True)) == CONSTRUCTIONS[case]


def test_ce1_decision_certificate_bytes():
    want = json.loads(GOLDEN_JSON.read_text())["fixed"]["CE1"]
    cert = decide_avg_dot(fixture("CE1"))
    assert cert.verdict == "not-simulable"
    assert sha256_text(json.dumps(cert.to_dict(), sort_keys=True)) == want

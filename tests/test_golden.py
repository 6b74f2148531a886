"""Byte-level pins: the table1 JSON, one mismatch report per strategy
on a plain KB and one on a stratified KB, the generic avg-dot decision certificate for CE1, the indented text
of both avg-dot CE1 certificates, each construction recipe's
embedding on each fixture it applies to, and every fixture certificate
`certify` prints, with its errors.

Any change to verdicts, query order, score text or serialisation
changes a digest here.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

import embedsim.certifier as certifier
from conftest import EXACT_STRATEGIES, random_embedding
from embedsim.certifier import decide_avg_dot
from embedsim.cli import main
from embedsim.constructors import construct
from embedsim.fixtures import FIXTURE_SOURCES, fixture
from embedsim.sigmoid import sig_conical_diagnostics
from embedsim.strategies import strategy_from_name
from embedsim.verifier import verify_monotonic, verify_nonmonotonic

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

# the same for a seeded random 3-dimensional embedding swept against the
# stratified EX4 under ranked-default consequence
EX4_REPORTS = {
    "avg-dot": (30, "7a7d7c2567269f7dbac4905553e35006"
                    "ca8b34f25f90d5936e46f87c96e1b0f5"),
    "avg-dist": (35, "933a638ab25939c0fff5987c9748c8e3"
                     "3d2fa7a2c113c48fb965135785bc0bfe"),
    "norm-dot": (37, "0cc72a77d47743a42a5f704b7e16bb1a"
                     "36ba97dda3246d442ee77198800c5e52"),
    "norm-dist": (33, "9b99c3856f5534cd0ecb8d9996a158d8"
                      "7e3a6d9dd3338a79f7cc167a225b133e"),
    "avg-relu": (24, "ae520c903beb4b1ce35fe502bc3ee118"
                     "3084c09850f67d423c9b9244dcec72aa"),
    "had-dot": (28, "01e73400c29d6ba32f8d5ca7e5e675e9"
                    "3311e21c85a4b4bffb6f66ea0b7f5e23"),
    "had-dot-tied": (28, "7f2ba14b35d2344882481988ae315f4f"
                         "b76ac600880a32d064e97947d9a5ecfd"),
    "ord-ord": (8, "d1a3a025e67e3d4c4a6493b9fb5676ca"
                   "a03b655fc5a2d42c2eba69847eb0296d"),
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

# sha256 of `certify --strategy S --fixture F [--nonmonotonic] --json`
# (the certificate's canonical JSON), per strategy with a certificate,
# fixture it lists and mode; ord-ord's order argument is non-monotonic
# in both
CERTIFICATES = {
    ("avg-dot", "CE1", "monotonic"):
        "1c3c633e1ad9e6d6342264e47815b373"
        "ee05e1e77634817a7459490e77b37e48",
    ("avg-dot", "CE1", "non-monotonic"):
        "d5f30b975702dd6a403d3f2de8a21334"
        "61b4a8314fb145463bb0865b81396b2a",
    ("avg-dist", "CE2", "monotonic"):
        "e83dd4abc3faac7f1d11fe034368ecd8"
        "797eb3ea0c800ba433110c229d9a17a2",
    ("avg-dist", "CE2", "non-monotonic"):
        "3f1dcd330f507c7c9a0f42f446629b13"
        "a7ccd714b75358dbe2ff247e1c1c2e19",
    ("norm-dot", "CE3", "monotonic"):
        "886df4c6eb769fe0948fb74836c4fa87"
        "22481c80d8eb0d779d13dee0aa373e21",
    ("norm-dot", "CE3", "non-monotonic"):
        "9c9a89bb5ac992ebe9d64996c552ee63"
        "1635c8feffa531c45438b2dd391f4a1d",
    ("norm-dist", "CE3", "monotonic"):
        "fb8a40c711554790d799dbabd2d9fc02"
        "cb655e215d2f33181d5dfc6ae310cc43",
    ("norm-dist", "CE3", "non-monotonic"):
        "2c08fdb5d63a502e7e017386b2be514b"
        "f2a3ab95976e0a1bdbc35a4d0d42192d",
    ("sig-dot", "CE4", "monotonic"):
        "06bf37e2f955a30b6af0d157357ff205"
        "ee644c0676ecbbc3a9b4b22bd3fcbcdb",
    ("sig-dot", "CE4", "non-monotonic"):
        "40862226f2220e2d9a391fa939740737"
        "e9f59febe0d2a72a7882edf6e84604fe",
    ("sig-dist", "CE4", "monotonic"):
        "7181713044efe4f681796087499a1db8"
        "a15225187d157904bd85e543a26fa9c5",
    ("sig-dist", "CE4", "non-monotonic"):
        "faf8ceb3e0f6bc70d873031716022dba"
        "ba9144faa7be923dac8106f359616bd3",
    ("had-dot-tied", "MOTHER", "monotonic"):
        "a70f6cb2cf0e97311d1c14d5dfe49bb9"
        "45d9a7c05f275c2bc189a6fe77734a78",
    ("had-dot-tied", "MOTHER", "non-monotonic"):
        "92ecbad9c0b75703d1bdf16bf1bbe8e9"
        "54a9a9c3600815cbed0e3eebb832b874",
    ("had-dot-tied", "CE4", "monotonic"):
        "11c797f7124ef889224b55d99a540fa1"
        "a9c412e939044ebc24c88cfc286fc516",
    ("had-dot-tied", "CE4", "non-monotonic"):
        "5240e681d9791016f093c5b44e140943"
        "786e608dba9acc7ed7e8fdcb6316a244",
    ("ord-ord", "ORD-NM", "monotonic"):
        "8910ae3a5b8ff642fc32c3b64648d020"
        "ba652bbe6b7e36a0dd6ad4478e41dab1",
    ("ord-ord", "ORD-NM", "non-monotonic"):
        "8910ae3a5b8ff642fc32c3b64648d020"
        "ba652bbe6b7e36a0dd6ad4478e41dab1",
}

# the one line `certify` writes to stderr, exiting 2, in both modes: a
# strategy without a certificate, and a fixture the strategy does not list
CERTIFY_ERRORS = {
    ("avg-relu", "CE1"): "error: no failure fixture for strategy avg-relu",
    ("avg-dot", "CE3"): "error: unknown fixture 'CE3' for strategy avg-dot",
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


def ex4_report(name: str):
    strategy = strategy_from_name(name)
    kb = fixture("EX4")
    emb = random_embedding(random.Random(f"golden:EX4:{name}"),
                           kb.signature.atoms, dimension=3, tied=strategy.tied)
    return verify_nonmonotonic(emb, strategy, kb)


def test_pins_cover_every_exact_strategy():
    names = sorted(s.name for s in EXACT_STRATEGIES)
    assert sorted(CE1_REPORTS) == sorted(EX4_REPORTS) == names


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
    check_report(ce1_report(name), 155, *CE1_REPORTS[name], name)


@pytest.mark.parametrize("name", sorted(EX4_REPORTS))
def test_ex4_mismatch_report_bytes(name):
    check_report(ex4_report(name), 60, *EX4_REPORTS[name], name)


def check_report(report, queries, mismatches, digest, name):
    assert report.queries == queries
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


def certify_argv(strategy: str, name: str, mode: str) -> list[str]:
    flag = ["--nonmonotonic"] if mode == "non-monotonic" else []
    return ["certify", "--strategy", strategy, "--fixture", name, *flag]


def test_certificate_pins_cover_every_listed_fixture_in_both_modes():
    assert set(CERTIFICATES) == {
        (strategy, name, mode)
        for strategy, (names, _) in certifier._CERTIFIERS.items()
        for name in names for mode in ("monotonic", "non-monotonic")}


@pytest.mark.parametrize("case", sorted(CERTIFICATES), ids=str)
def test_certificate_bytes(capsys, case):
    assert main([*certify_argv(*case), "--json"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    assert sha256_text(out[:-1]) == CERTIFICATES[case]


@pytest.mark.parametrize("mode", ["monotonic", "non-monotonic"])
@pytest.mark.parametrize("case", sorted(CERTIFY_ERRORS), ids=str)
def test_certify_error_text(capsys, case, mode):
    assert main(certify_argv(*case, mode)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == CERTIFY_ERRORS[case] + "\n"

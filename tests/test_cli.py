"""End-to-end CLI behaviour: subcommands, exit codes, config precedence."""

import io
import json
import os
import random
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from conftest import DEEP_FORMULA_PROBES
from embedsim.cli import build_parser, main
from embedsim.fixtures import FIXTURE_SOURCES
from embedsim.logic import parse_kb
from embedsim.strategies import AttributeEmbedding, frac_str
from embedsim.verifier import VerificationReport
from references import ref_construct_avg_relu_nm

ROOT = Path(__file__).resolve().parents[1]
CE1 = FIXTURE_SOURCES["CE1"]
EX4 = FIXTURE_SOURCES["EX4"]
AB = "atoms: a b\nrule: a -> b\n"


# `verify --cap 2` text for the embedding of test_text_mode_builds_no_document
VERIFY_TEXT = "".join(line + "\n" for line in (
    "strategy: avg-dot",
    "queries: 75 (subset cap 2)",
    "verdict: mismatches",
    "  mismatch a -> b: expected False, got True [dot=3/4 lambda=1/3]",
    "  mismatch a -> c: expected False, got True [dot=1/1 lambda=1/3]",
    "  mismatch a -> d: expected False, got True [dot=1/2 lambda=1/3]",
    "  mismatch a -> x: expected False, got True [dot=3/2 lambda=1/3]",
    "  mismatch b -> b: expected True, got False [dot=-5/4 lambda=1/3]",
    "  mismatch c -> a: expected False, got True [dot=2/1 lambda=1/3]",
    "  mismatch c -> b: expected False, got True [dot=7/4 lambda=1/3]",
    "  mismatch c -> d: expected False, got True [dot=3/2 lambda=1/3]",
    "  mismatch c -> x: expected False, got True [dot=5/2 lambda=1/3]",
    "  mismatch d -> d: expected True, got False [dot=-1/2 lambda=1/3]",
    "  mismatch d -> x: expected False, got True [dot=1/2 lambda=1/3]",
    "  mismatch x -> a: expected False, got True [dot=1/2 lambda=1/3]",
    "  mismatch x -> c: expected False, got True [dot=1/2 lambda=1/3]",
    "  mismatch a&b -> a: expected True, got False [dot=0/1 lambda=1/3]",
    "  mismatch a&b -> b: expected True, got False [dot=-1/4 lambda=1/3]",
    "  mismatch a&c -> b: expected False, got True [dot=5/4 lambda=1/3]",
    "  mismatch a&c -> d: expected False, got True [dot=1/1 lambda=1/3]",
    "  mismatch a&c -> x: expected False, got True [dot=2/1 lambda=1/3]",
    "  mismatch b&c -> a: expected False, got True [dot=1/2 lambda=1/3]",
    "  mismatch b&c -> b: expected True, got False [dot=1/4 lambda=1/3]",
    "  ... 16 more",
))


@pytest.fixture
def ce1_file(tmp_path):
    path = tmp_path / "ce1.kb"
    path.write_text(CE1)
    return str(path)


@pytest.fixture
def ex4_file(tmp_path):
    path = tmp_path / "ex4.kb"
    path.write_text(EX4)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_plain_kb(self, capsys, ce1_file):
        code, out, _ = run(capsys, "check", ce1_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"kind": "plain", "atoms": 5, "formulas": 2,
                       "models": 25, "consistent": True}

    def test_stratified(self, capsys, ex4_file):
        code, out, _ = run(capsys, "check", ex4_file)
        assert code == 0
        assert "stratified, k=3" in out

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.kb"
        path.write_text("")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "atoms" in err

    @pytest.mark.parametrize("output", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("line", ["stratum: p0 -> p1", "rule: p0 -> p1"])
    @pytest.mark.parametrize("atoms", [21, 15_000])
    def test_kb_over_cap_exit_two(self, capsys, tmp_path, output, line,
                                  atoms):
        # a stratified KB gets the plain KB's one-line refusal, not 2^n
        # (or, past 4,300 digits, Python's int-to-string limit)
        path = tmp_path / "wide.kb"
        path.write_text("atoms: " + " ".join(f"p{i}" for i in range(atoms))
                        + f"\n{line}\n")
        code, out, err = run(capsys, "check", str(path), *output)
        assert (code, out) == (2, "")
        assert err == (f"error: signature has {atoms} atoms, enumeration "
                       f"cap is 20\n")

    def test_stratified_kb_at_cap(self, capsys, tmp_path):
        path = tmp_path / "wide.kb"
        path.write_text("atoms: " + " ".join(f"p{i}" for i in range(20))
                        + "\nstratum: p0 -> p1\n")
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 0
        assert json.loads(out)["interpretations"] == 1 << 20

    def test_parse_error_location(self, capsys, tmp_path):
        path = tmp_path / "bad.kb"
        path.write_text("atoms: a\nrule: a &\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("probe", sorted(DEEP_FORMULA_PROBES))
    def test_deep_formula_exit_two(self, capsys, tmp_path, probe):
        payload, column = DEEP_FORMULA_PROBES[probe]
        path = tmp_path / "deep.kb"
        path.write_text(f"atoms: a\nformula: {payload}\n")
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert f"line 2, column {column}: formula nests deeper" in err

    def test_twenty_atom_kb(self, capsys, tmp_path):
        # 2^20 interpretations, of which p0 -> p1 rules out a quarter
        path = tmp_path / "wide.kb"
        atoms = " ".join(f"p{i}" for i in range(20))
        path.write_text(f"atoms: {atoms}\nrule: p0 -> p1\n")
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 0
        assert json.loads(out) == {"kind": "plain", "atoms": 20,
                                   "formulas": 1, "models": 786432,
                                   "consistent": True}


class TestConstruct:
    def test_writes_embedding_with_provenance(self, capsys, ex4_file, tmp_path):
        out_path = tmp_path / "emb.json"
        code, _, _ = run(capsys, "construct", ex4_file, "--prop", "4",
                         "-o", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        # the paper's recipe over all 16 interpretations, restricted to
        # the 10 ranked counter-models listed as `model_order`
        ref = ref_construct_avg_relu_nm(parse_kb(EX4))
        assert ref.embedding.dimension == len(ref.model_order) == 16
        kept = doc["provenance"]["model_order"]
        assert doc["dimension"] == len(kept) == 10
        assert set(kept) <= set(ref.model_order) and kept == sorted(kept)
        assert doc["provenance"]["proposition"] == "4"
        assert doc["provenance"]["delta"] == str(ref.delta) == "17"
        for atom in doc["atoms"]:
            want = ref.embedding.context[atom["name"]]
            assert atom["context"] == [frac_str(want[w]) for w in kept]

    def test_ce1_prop1_dimension(self, capsys, ce1_file, tmp_path):
        out_path = tmp_path / "emb.json"
        run(capsys, "construct", ce1_file, "--prop", "1", "-o", str(out_path))
        doc = json.loads(out_path.read_text())
        # 8 needed counter-models (of 25 models) + constant coordinate
        assert doc["dimension"] == 9

    def test_twenty_atom_rule_kb(self, capsys, tmp_path):
        atoms = [f"p{i}" for i in range(20)]
        kb = tmp_path / "wide.kb"
        kb.write_text(f"atoms: {' '.join(atoms)}\nrule: p0 & p1 -> p2\n"
                      "rule: p3 -> p4\n")
        out_path = tmp_path / "emb.json"
        code, _, _ = run(capsys, "construct", str(kb), "--prop", "1",
                         "-o", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        # the 18 co-atoms that are models, the two maximal models without
        # p2 (p0 or p1 false too) and the one without p4 (p3 false too)
        assert len(doc["provenance"]["model_order"]) == 21
        assert doc["dimension"] == 22

    def test_twenty_one_atoms_exit_two(self, capsys, tmp_path):
        kb = tmp_path / "wider.kb"
        kb.write_text("atoms: " + " ".join(f"p{i}" for i in range(21))
                      + "\nrule: p0 -> p1\n")
        code, out, err = run(capsys, "construct", str(kb), "--prop", "1")
        assert code == 2 and out == ""
        assert err == "error: signature has 21 atoms, enumeration cap is 20\n"

    def test_twenty_atom_stratified_kb_constructs_and_verifies(self, capsys,
                                                                tmp_path):
        # a bird flies by default, a penguin is a bird that by default
        # does not fly, and a penguin ranks below whatever else is known
        atoms = ["bird", "flies", "penguin", "wings"] + [
            f"p{i}" for i in range(16)]
        kb = tmp_path / "birds.kb"
        kb.write_text(f"atoms: {' '.join(atoms)}\n"
                      "stratum: penguin -> bird\n"
                      "stratum: penguin -> !flies\n"
                      "stratum: bird -> flies & wings\n"
                      "stratum: p0 | p1\n")
        emb = tmp_path / "emb.json"
        code, _, _ = run(capsys, "construct", str(kb), "--prop", "4",
                         "-o", str(emb))
        assert code == 0
        doc = json.loads(emb.read_text())
        assert doc["dimension"] == len(doc["provenance"]["model_order"])
        assert doc["dimension"] < 100
        code, out, err = run(capsys, "verify", str(kb), str(emb),
                             "--strategy", "avg-relu")
        assert (code, err) == (0, "")
        # 6195 subsets of up to 4 of the 20 atoms, 20 heads each
        assert "queries: 123900 (subset cap 4)" in out
        assert "verdict: simulates" in out

    def test_kind_mismatch(self, capsys, ex4_file):
        code, _, err = run(capsys, "construct", ex4_file, "--prop", "1")
        assert code == 2
        assert "stratified" in err

    def test_bad_delta(self, capsys, ce1_file):
        code, _, err = run(capsys, "construct", ce1_file, "--prop", "1",
                           "--delta", "3")
        assert code == 2

    # a weight past CPython's 4300-digit print limit: delta^5 at rank 2
    # of a two-stratum KB, and 5^6201 at rank 3100 of 3100 strata
    @pytest.mark.parametrize("source, argv, line", [
        ("atoms: a b\nstratum: a -> b\nstratum: b\n",
         ("--prop", "4", "--delta", str(10 ** 900)),
         "error: recipe 4: the rank-2 weight delta^5 has more than 4300 "
         "digits, the most an embedding file holds (a 901-digit delta)\n"),
        ("atoms: a b\n" + "stratum: TRUE\n" * 3100, ("--prop", "5"),
         "error: recipe 5: the rank-3100 weight delta^6201 has more than "
         "4300 digits, the most an embedding file holds (a 1-digit "
         "delta)\n"),
    ], ids=["large-delta", "many-strata"])
    def test_weight_past_the_print_limit_exit_two(self, capsys, tmp_path,
                                                  source, argv, line):
        kb = tmp_path / "ranked.kb"
        kb.write_text(source)
        dest = tmp_path / "emb.json"
        code, out, err = run(capsys, "construct", str(kb), *argv,
                             "-o", str(dest))
        assert (code, out, err) == (2, "", line)
        assert not dest.exists()

    def test_weight_just_under_the_print_limit_builds(self, capsys, tmp_path):
        # (10^860 - 1)^5 has 4300 digits
        kb = tmp_path / "ranked.kb"
        kb.write_text("atoms: a b\nstratum: a -> b\nstratum: b\n")
        dest = tmp_path / "emb.json"
        delta = 10 ** 860 - 1
        code, _, err = run(capsys, "construct", str(kb), "--prop", "4",
                           "--delta", str(delta), "-o", str(dest))
        assert (code, err) == (0, "")
        doc = json.loads(dest.read_text())
        assert doc["provenance"]["delta"] == str(delta)
        longest = max(len(x.split("/")[0].lstrip("-"))
                      for atom in doc["atoms"] for x in atom["context"])
        assert longest == 4300

    def test_unwritable_output_exit_two(self, capsys, ce1_file, tmp_path):
        dest = tmp_path / "missing" / "dir" / "x.json"
        code, _, err = run(capsys, "construct", ce1_file, "--prop", "1",
                           "-o", str(dest))
        assert code == 2
        assert err.startswith("error: cannot write")
        assert err.count("\n") == 1


class TestVerify:
    def test_round_trip_exit_zero(self, capsys, ce1_file, tmp_path):
        emb = tmp_path / "emb.json"
        run(capsys, "construct", ce1_file, "--prop", "1", "-o", str(emb))
        code, out, _ = run(capsys, "verify", ce1_file, str(emb),
                           "--strategy", "avg-relu", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "simulates"

    def test_json_byte_stable(self, capsys, ce1_file, tmp_path):
        emb = tmp_path / "emb.json"
        run(capsys, "construct", ce1_file, "--prop", "1", "-o", str(emb))
        argv = ("verify", ce1_file, str(emb), "--strategy", "avg-relu",
                "--json")
        first = run(capsys, *argv)
        assert first == run(capsys, *argv)
        assert first[0] == 0 and "elapsed" not in first[1]

    def test_nonmonotonic_round_trips(self, capsys, ex4_file, tmp_path):
        for prop, strategy in (("4", "avg-relu"), ("5", "had-dot")):
            emb = tmp_path / f"emb{prop}.json"
            run(capsys, "construct", ex4_file, "--prop", prop, "-o", str(emb))
            code, _, _ = run(capsys, "verify", ex4_file, str(emb),
                             "--strategy", strategy)
            assert code == 0

    def test_mismatch_exit_one(self, capsys, ce1_file, tmp_path):
        # identity-ish embedding does not simulate CE1 under avg-dot
        emb_path = tmp_path / "emb.json"
        doc = {"dimension": 1,
               "atoms": [{"name": n, "context": ["1/1"], "output": ["1/1"],
                          "lambda": "0/1", "theta": "0/1"}
                         for n in ("a", "b", "c", "d", "x")]}
        emb_path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", ce1_file, str(emb_path),
                           "--strategy", "avg-dot", "--json")
        assert code == 1
        assert json.loads(out)["verdict"] == "mismatches"

    def test_bad_strategy_exit_two(self, capsys, ce1_file, tmp_path):
        emb = tmp_path / "emb.json"
        run(capsys, "construct", ce1_file, "--prop", "1", "-o", str(emb))
        code, _, err = run(capsys, "verify", ce1_file, str(emb),
                           "--strategy", "nope")
        assert code == 2
        assert "unknown strategy" in err

    def test_numeric_only_strategy_exit_two(self, capsys, ce1_file, tmp_path):
        emb = tmp_path / "emb.json"
        run(capsys, "construct", ce1_file, "--prop", "1", "-o", str(emb))
        code, _, err = run(capsys, "verify", ce1_file, str(emb),
                           "--strategy", "sig-dot")
        assert code == 2
        assert "numeric-only" in err

    def test_embedding_missing_atoms_exit_two(self, capsys, ce1_file,
                                              tmp_path):
        emb = tmp_path / "emb.json"
        doc = {"dimension": 1,
               "atoms": [{"name": "a", "context": ["1/1"],
                          "output": ["1/1"]}]}
        emb.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", ce1_file, str(emb),
                           "--strategy", "avg-dot")
        assert code == 2
        assert "lacks vectors" in err

    @pytest.mark.parametrize("doc", [
        {"dimension": 2, "atoms": 5},
        [1, 2],
        {"dimension": 1, "atoms": [{"name": "a", "context": 5}]},
        {"dimension": 1, "atoms": [{"name": "a", "context": ["1/0"]}]},
        {"dimension": 2.5, "atoms": [{"name": "a", "context": ["1", "1"]}]},
        {"dimension": True, "atoms": [{"name": "a", "context": ["1"]}]},
        {"dimension": 1, "atoms": [{"name": "a", "context": ["1"]},
                                   {"name": "a", "context": ["-1"]}]},
        # a JSON float is already rounded to binary and `true` reads as 1:
        # both are refused rather than silently changed
        {"dimension": 1, "atoms": [{"name": "a", "context": [0.1]}]},
        {"dimension": 1, "atoms": [{"name": "a", "context": [True]}]},
        {"dimension": 1, "atoms": [{"name": "a", "context": ["1"],
                                    "lambda": 0.5}]},
        # a string or an object would iterate as its characters or keys
        {"dimension": 2, "atoms": [{"name": "a", "context": "12"}]},
        {"dimension": 2, "atoms": [{"name": "a", "context": ["1", "2"],
                                    "output": {"1": 0, "2": 0}}]},
        # Fraction would compute the power of ten in full: for minutes,
        # or ending in an unrelated message from the int-string limit
        {"dimension": 1, "atoms": [{"name": "a", "context": ["1e10000000"]}]},
        {"dimension": 1, "atoms": [{"name": "a", "context": ["1"],
                                    "lambda": "1e10000000"}]},
        {"dimension": 1, "atoms": [{"name": "a", "context": ["1e-3000000"]}]},
        # loads as a Fraction, but a numerator or denominator of more
        # than 4300 digits cannot be printed in a report
        {"dimension": 1, "atoms": [{"name": "a", "context": ["1e4300"]}]},
        {"dimension": 1, "atoms": [{"name": "a", "context": ["1"],
                                    "lambda": "1e-4300"}]},
        {"dimension": 1, "atoms": [{"name": "a", "context": ["123e4298"]}]},
    ], ids=["atoms-not-a-list", "not-an-object", "context-not-a-list",
            "zero-denominator", "dimension-not-an-integer",
            "dimension-boolean", "duplicate-atom", "float-coordinate",
            "boolean-coordinate", "float-lambda", "vector-a-string",
            "vector-an-object", "huge-exponent", "huge-exponent-lambda",
            "huge-negative-exponent", "numerator-4301-digits",
            "denominator-4301-digits", "mantissa-4301-digits"])
    def test_malformed_embedding_exit_two(self, capsys, ce1_file, tmp_path,
                                          doc):
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, _, err = run(capsys, "verify", ce1_file, str(emb),
                           "--strategy", "avg-dot")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err.startswith("error: cannot load embedding")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("doc, message", [
        ({"dimension": 1}, "atoms must be a JSON list of objects"),
        ({"dimension": 1, "atoms": [{"context": ["1"]}]},
         "the name of atom 0 must be a JSON string"),
        ({"dimension": 1, "atoms": [1]},
         "atoms must be a JSON list of objects"),
        ({"dimension": 1, "atoms": "abc"},
         "atoms must be a JSON list of objects"),
        ("abc", "an embedding must be a JSON object"),
        ({"dimension": 1, "atoms": {"name": "a", "context": ["1"]}},
         "atoms must be a JSON list of objects"),
        ({"dimension": 1, "atoms": [{"name": ["a"], "context": ["1"]}]},
         "the name of atom 0 must be a JSON string"),
        # a number used to load as an atom named 5, and the sweep then
        # found no vectors for the KB's atoms
        ({"dimension": 1, "atoms": [{"name": "a", "context": ["1"]},
                                    {"name": 5, "context": ["1"]}]},
         "the name of atom 1 must be a JSON string"),
        # a bad per-atom field names its atom and the field, and a bad
        # coordinate its index: these used to print 'context', a bare
        # type name, Fraction's own message or "Fraction(1, 0)"
        ({"dimension": 1, "atoms": [{"name": "a", "context": ["1"]},
                                    {"name": "b"}]},
         "atom 'b': context is missing"),
        ({"dimension": 1, "atoms": [{"name": "a", "context": None}]},
         "atom 'a': context: a vector must be a JSON list, got NoneType"),
        ({"dimension": 2, "atoms": [{"name": "a", "context": ["1", "x"]}]},
         "atom 'a': context[1]: Invalid literal for Fraction: 'x'"),
        ({"dimension": 1, "atoms": [{"name": "a", "context": ["1"],
                                    "output": ["1/0"]}]},
         'atom \'a\': output[0]: zero denominator in "1/0"'),
        ({"dimension": 1, "atoms": [{"name": "a", "context": ["1"],
                                    "theta": "2/0"}]},
         'atom \'a\': theta: zero denominator in "2/0"'),
        ({"dimension": 1, "atoms": [{"name": "a", "context": ["1"],
                                    "lambda": True}]},
         "atom 'a': lambda: expected a \"p/q\" string or an integer, "
         "got True"),
        # misspelt keys used to load silently with their defaults: output
        # the context and lambda 0, so verify exited 1 with a mismatch
        ({"dimension": 1, "atoms": [{"name": "a", "context": ["1"],
                                    "ouptut": ["-1"], "lamda": "5"}]},
         "atom 'a': unknown key 'ouptut' "
         "(known: name, context, output, lambda, theta)"),
        ({"dimension": 1, "atoms": [{"name": "a", "context": ["1"]}],
          "provenance": {}, "dimensions": 2},
         "unknown key 'dimensions' (known: dimension, atoms, provenance)"),
    ], ids=["no-atoms", "no-name", "atom-a-number", "atoms-a-string",
            "top-level-string", "atoms-an-object", "name-a-list",
            "name-a-number", "no-context", "null-context", "bad-coordinate",
            "zero-denominator-output", "zero-denominator-theta",
            "boolean-lambda", "misspelt-atom-keys", "misspelt-top-level-key"])
    def test_wrong_shape_names_the_field(self, capsys, ce1_file, tmp_path,
                                         doc, message):
        # each of these used to print a bare KeyError or TypeError, such
        # as 'atoms' or "string indices must be integers, not 'str'"
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", ce1_file, str(emb),
                             "--strategy", "avg-dot")
        assert (code, out) == (2, "")
        assert err == f"error: cannot load embedding {emb}: {message}\n"
        assert len(err) < 200

    def test_written_and_benchmark_embeddings_load(self, capsys, ex4_file,
                                                   tmp_path, monkeypatch):
        # every key that `construct -o` and the benchmark's embedding
        # files hold is a known one
        emb = tmp_path / "emb.json"
        run(capsys, "construct", ex4_file, "--prop", "4", "-o", str(emb))
        assert "provenance" in json.loads(emb.read_text())
        code, _, err = run(capsys, "verify", ex4_file, str(emb),
                           "--strategy", "avg-relu")
        assert (code, err) == (0, "")
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads
        for tied in (False, True):
            doc = json.loads(workloads.embedding_json(
                random.Random(tied), 5, 3, tied))
            assert len(AttributeEmbedding.from_json_dict(doc).atoms) == 5

    def test_deeply_nested_embedding_exit_two(self, capsys, ce1_file,
                                              tmp_path):
        emb = tmp_path / "emb.json"
        emb.write_text("[" * 200000)
        code, out, err = run(capsys, "verify", ce1_file, str(emb),
                             "--strategy", "avg-dot")
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot load embedding")
        assert err.count("\n") == 1

    # both atoms carry the context 10^3000 and these fields, and each
    # coordinate loads; the KB has no rule, yet b is labelled from a, and
    # the score of a -> b has more than 4300 digits, so it cannot be
    # printed: the dot product 10^6000 (through ReLU, or as sum.out), the
    # sum.out 10^5000 for an output of 10^2000, or the squared distance
    # 10^6000 from a to an output of 0 for a radius of 10^3000
    PAST_THE_PRINT_LIMIT = {
        "avg-dot": {}, "norm-dot": {}, "avg-relu": {}, "had-dot": {},
        "had-dot-tied": {},
        "avg-dist": {"output": ["0"], "theta": "1e3000"},
        "norm-dist": {"output": ["1e2000"], "theta": "1e2000"},
    }

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("strategy", PAST_THE_PRINT_LIMIT)
    def test_score_past_the_print_limit_exit_two(self, capsys, tmp_path,
                                                  strategy, as_json):
        fields = self.PAST_THE_PRINT_LIMIT[strategy]
        kb = tmp_path / "ab.kb"
        kb.write_text("atoms: a b\n")
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps(
            {"dimension": 1,
             "atoms": [{"name": atom, "context": ["1e3000"], **fields}
                       for atom in ("a", "b")]}))
        flag = ["--json"] if as_json else []
        start = time.perf_counter()
        code, _, err = run(capsys, "verify", str(kb), str(emb),
                           "--strategy", strategy, *flag)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err.startswith("error: ") and "4300 digits" in err
        assert "a -> b" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_unprintable_score_after_the_20th_record(self, capsys, tmp_path,
                                                     as_json):
        # had-dot over six atoms, all with context 1 but y and z with
        # 10^2200: y&z pools a product of 4401 digits.  No formula holds,
        # so every head outside a subset is wrong, and y&z's records
        # follow 86 others.  Text mode prints 20 records and never
        # formats that one; --json formats every record and refuses.
        atoms = ("a", "b", "c", "d", "y", "z")
        kb = tmp_path / "six.kb"
        kb.write_text(f"atoms: {' '.join(atoms)}\n")
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps(
            {"dimension": 1,
             "atoms": [{"name": atom, "output": ["1"],
                        "context": ["1e2200" if atom in "yz" else "1"]}
                       for atom in atoms]}))
        flag = ["--json"] if as_json else []
        code, out, err = run(capsys, "verify", str(kb), str(emb),
                             "--strategy", "had-dot", *flag)
        if as_json:
            assert (code, out) == (2, "")
            assert err == ("error: the score of y&z -> a, b, c, d cannot be "
                           "printed: an integer in it has more than 4300 "
                           "digits\n")
        else:
            assert (code, err) == (1, "")
            lines = out.splitlines()
            assert lines[2] == "verdict: mismatches"
            assert len(lines) == 3 + 20 + 1
            assert lines[3] == ("  mismatch a -> b: expected False, got "
                                "True [dot=1/1 lambda=0/1]")
            # subsets of size k have 6 - k wrong heads each
            wrong = sum(comb(6, k) * (6 - k) for k in range(1, 7))
            assert lines[-1] == f"  ... {wrong - 20} more"

    @pytest.mark.parametrize("text", [
        '{"dimension": 1e400, "atoms": [{"name": "a", "context": ["1"]}]}',
        '{"dimension": 1, "atoms": [{"name": "a", "context": [1e400]}]}',
        '{"dimension": 1, "atoms": [{"name": "a", "context": ["1"], '
        '"lambda": 1e400}]}',
    ], ids=["dimension", "coordinate", "lambda"])
    def test_overflowing_number_exit_two(self, capsys, ce1_file, tmp_path,
                                         text):
        # JSON reads 1e400 as an infinite float, which is neither an
        # integer nor a "p/q" string
        emb = tmp_path / "emb.json"
        emb.write_text(text)
        code, out, err = run(capsys, "verify", ce1_file, str(emb),
                             "--strategy", "avg-dot")
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot load embedding")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_below_one_exit_two(self, capsys, ce1_file, tmp_path, cap):
        emb = tmp_path / "emb.json"
        run(capsys, "construct", ce1_file, "--prop", "1", "-o", str(emb))
        code, out, err = run(capsys, "verify", ce1_file, str(emb),
                             "--strategy", "avg-relu", "--cap", cap)
        assert code == 2
        assert out == ""
        assert err == f"error: subset cap must be at least 1, got {cap}\n"

    def test_cap_below_one_from_environment_exit_two(self, capsys, ce1_file,
                                                     tmp_path, monkeypatch):
        emb = tmp_path / "emb.json"
        run(capsys, "construct", ce1_file, "--prop", "1", "-o", str(emb))
        monkeypatch.setenv("EMBEDSIM_CAP", "0")
        code, out, err = run(capsys, "verify", ce1_file, str(emb),
                             "--strategy", "avg-relu")
        assert (code, out) == (2, "")
        assert err == "error: subset cap must be at least 1, got 0\n"

    def test_cap_below_one_from_config_exit_two(self, capsys, ce1_file,
                                                tmp_path):
        emb = tmp_path / "emb.json"
        run(capsys, "construct", ce1_file, "--prop", "1", "-o", str(emb))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cap": 0}))
        code, out, err = run(capsys, "--config", str(cfg), "verify",
                             ce1_file, str(emb), "--strategy", "avg-relu")
        assert (code, out) == (2, "")
        assert err == "error: subset cap must be at least 1, got 0\n"

    def test_stratified_kb_over_cap_exit_two(self, capsys, tmp_path):
        atoms = [f"p{i}" for i in range(21)]
        kb = tmp_path / "wide.kb"
        kb.write_text(f"atoms: {' '.join(atoms)}\nstratum: p0 -> p1\n")
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps(
            {"dimension": 1,
             "atoms": [{"name": n, "context": ["1/1"], "output": ["1/1"]}
                       for n in atoms]}))
        code, out, err = run(capsys, "verify", str(kb), str(emb),
                             "--strategy", "avg-dot")
        assert code == 2
        assert out == ""
        assert err == "error: signature has 21 atoms, enumeration cap is 20\n"

    def test_sweep_over_budget_exits_two_at_once(self, capsys, tmp_path):
        # 20 x (2^20 - 1) queries at cap 20: refused before any table is
        # built, so the refusal costs no more than reading the inputs
        atoms = [f"p{i}" for i in range(20)]
        kb = tmp_path / "wide.kb"
        kb.write_text(f"atoms: {' '.join(atoms)}\nrule: p0 -> p1\n")
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps(
            {"dimension": 1,
             "atoms": [{"name": n, "context": ["1/1"], "output": ["1/1"]}
                       for n in atoms]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", str(kb), str(emb),
                             "--strategy", "avg-dot", "--cap", "20")
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (2, "")
        assert err == ("error: a sweep of 20 atoms at subset cap 20 has "
                       "20971500 queries, the sweep budget is 1048576\n")

    def test_text_mode_builds_no_document(self, capsys, ce1_file, tmp_path,
                                          monkeypatch):
        # the lines a user reads, as the report document was built and
        # thrown away before; the document itself is never made
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps(
            {"dimension": 2,
             "atoms": [{"name": n, "context": [c, "-1/2"],
                        "output": ["1/1", o], "lambda": "1/3"}
                       for n, c, o in (("a", "1/1", "0/1"),
                                       ("b", "-1/1", "1/2"),
                                       ("c", "2/1", "0/1"),
                                       ("d", "0/1", "1/1"),
                                       ("x", "1/2", "-1/1"))]}))

        def refuse(self, timing=False):
            raise AssertionError("to_dict called in text mode")

        monkeypatch.setattr(VerificationReport, "to_dict", refuse)
        code, out, err = run(capsys, "verify", ce1_file, str(emb),
                             "--strategy", "avg-dot", "--cap", "2")
        assert (code, err) == (1, "")
        assert out == VERIFY_TEXT

    def test_jobs_option_removed(self, capsys, ce1_file, tmp_path):
        emb = tmp_path / "emb.json"
        run(capsys, "construct", ce1_file, "--prop", "1", "-o", str(emb))
        code, _, _ = run(capsys, "verify", ce1_file, str(emb),
                         "--strategy", "avg-dot", "--jobs", "2")
        assert code == 2


class BrokenPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    def test_verify_into_closed_pipe_exits_quietly(self, capsys, monkeypatch,
                                                  ce1_file, tmp_path):
        emb = tmp_path / "emb.json"
        run(capsys, "construct", ce1_file, "--prop", "1", "-o", str(emb))
        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        code = main(["verify", ce1_file, str(emb), "--strategy", "avg-dot"])
        assert code == 141
        assert capsys.readouterr().err == ""

    def test_process_with_closed_pipe_prints_no_traceback(self, ce1_file):
        # the output fits the stdout buffer, so the failing write is the
        # final flush; the pipe is closed before the child starts writing
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        child = subprocess.Popen(
            [sys.executable, "-m", "embedsim.cli", "check", ce1_file],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 141
        assert err == b""


# One CLI command in a fresh interpreter; the last line of stderr says
# whether numpy was imported.
NUMPY_PROBE = ("import sys\n"
               "from embedsim.cli import main\n"
               "code = main(sys.argv[1:])\n"
               "print('numpy' in sys.modules, file=sys.stderr)\n"
               "sys.exit(code)\n")


def chain_kb(n: int) -> str:
    atoms = [f"p{i}" for i in range(n)]
    return f"atoms: {' '.join(atoms)}\n" + "".join(
        f"rule: {a} -> {b}\n" for a, b in zip(atoms, atoms[1:]))


class TestStartsWithoutNumpy:
    """Only the sigmoid demonstrator imports numpy: every command but
    table1 runs without it, each in a fresh interpreter."""

    @staticmethod
    def numpy_loaded(*argv) -> bool:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        return {"True": True, "False": False}[done.stderr.splitlines()[-1]]

    def test_exact_commands_skip_numpy(self, tmp_path):
        eight, six = tmp_path / "eight.kb", tmp_path / "six.kb"
        eight.write_text(chain_kb(8))
        six.write_text(chain_kb(6))
        emb = tmp_path / "emb.json"
        for argv in (["check", str(eight)],
                     ["construct", str(eight), "--prop", "1", "-o", str(emb)],
                     ["verify", str(eight), str(emb),
                      "--strategy", "avg-relu"],
                     ["certify", "--fixture", "CE1", "--strategy", "avg-dot"],
                     ["certify", str(six), "--strategy", "avg-dot"]):
            assert not self.numpy_loaded(*argv), argv

    def test_table1_loads_numpy(self, tmp_path):
        # the positive control: the probe does see numpy when it is loaded
        assert self.numpy_loaded("table1", "-o", str(tmp_path / "t.txt"))


class TestCertify:
    def test_fixture_certificate(self, capsys):
        code, out, _ = run(capsys, "certify", "--strategy", "avg-dot",
                           "--fixture", "CE1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "not-simulable"
        assert doc["evidence"]["multipliers"] == ["1/1"] * 4

    def test_generic_simulable(self, capsys, tmp_path):
        path = tmp_path / "ab.kb"
        path.write_text(AB)
        code, out, _ = run(capsys, "certify", str(path),
                           "--strategy", "avg-dot", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "simulable"

    def test_expect_mismatch_exit_one(self, capsys):
        code, _, _ = run(capsys, "certify", "--strategy", "avg-dot",
                         "--fixture", "CE1", "--expect", "simulable")
        assert code == 1

    def test_expect_not_simulable_on_simulable_kb(self, capsys, tmp_path):
        path = tmp_path / "ab.kb"
        path.write_text(AB)
        code, _, _ = run(capsys, "certify", str(path), "--strategy",
                         "avg-dot", "--expect", "not-simulable")
        assert code == 1
        code, _, _ = run(capsys, "certify", str(path), "--strategy",
                         "avg-dot", "--expect", "simulable")
        assert code == 0

    def test_nonmonotonic_flag(self, capsys):
        code, out, _ = run(capsys, "certify", "--strategy", "norm-dot",
                           "--nonmonotonic", "--fixture", "CE3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "non-monotonic"
        assert doc["evidence"]["kind"] == "stratified-reduction"

    def test_generic_needs_avg_dot(self, capsys, tmp_path):
        path = tmp_path / "ab.kb"
        path.write_text(AB)
        code, _, err = run(capsys, "certify", str(path),
                           "--strategy", "norm-dot")
        assert code == 2

    def test_fixture_xor_kb(self, capsys, tmp_path):
        code, _, _ = run(capsys, "certify", "--strategy", "avg-dot")
        assert code == 2

    def test_nonmonotonic_with_kb_file_exit_two(self, capsys, tmp_path):
        # the generic decision reads entailment; it has no ranked column
        path = tmp_path / "ab.kb"
        path.write_text(AB)
        code, out, err = run(capsys, "certify", str(path), "--strategy",
                             "avg-dot", "--nonmonotonic")
        assert code == 2 and out == ""
        assert err == ("error: the generic avg-dot decision is monotonic "
                       "only; --nonmonotonic takes --fixture\n")

    def test_stratified_kb_file_exit_two(self, capsys, ex4_file):
        code, out, err = run(capsys, "certify", ex4_file,
                             "--strategy", "avg-dot")
        assert code == 2 and out == ""
        assert err == "error: generic avg-dot decision needs a plain KB\n"


class TestTable1Command:
    def test_json_runs_and_matches_pattern(self, capsys):
        code, out, _ = run(capsys, "table1", "--json")
        assert code == 0
        doc = json.loads(out)
        verdicts = [(r["monotonic"]["verdict"], r["non_monotonic"]["verdict"])
                    for r in doc["rows"]]
        neg = ("not-simulable", "not-simulable")
        pos = ("simulable", "simulable")
        assert verdicts == [neg] * 6 + [pos, pos, neg,
                                        ("simulable", "not-simulable")]

    def test_markdown(self, capsys):
        code, out, _ = run(capsys, "table1", "--md")
        assert code == 0
        assert out.startswith("| strategy |")
        assert out.count("\n") == 12  # header, rule, ten rows

    def test_unwritable_output_exit_two(self, capsys, tmp_path):
        dest = tmp_path / "missing" / "dir" / "x.json"
        code, _, err = run(capsys, "table1", "-o", str(dest))
        assert code == 2
        assert err.startswith("error: cannot write")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("source", ["flag", "environment", "config"])
    def test_negative_seed_exit_two(self, capsys, tmp_path, monkeypatch,
                                    source):
        argv = ["table1"]
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "environment":
            monkeypatch.setenv("EMBEDSIM_SEED", "-1")
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text('{"seed": -1}')
            argv = ["--config", str(cfg)] + argv
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: seed must be a non-negative integer, got -1\n"


def compact(text: str) -> str:
    """The text's document in the --json form: sorted keys, no spaces."""
    return json.dumps(json.loads(text), sort_keys=True,
                      separators=(",", ":")) + "\n"


class TestCompactJSON:
    """Every --json document is printed compact, keys sorted, one line."""

    def test_table1(self, capsys):
        code, out, _ = run(capsys, "table1", "--json")
        assert code == 0
        assert out == compact(out)
        assert out.count("\n") == 1

    def test_check(self, capsys, ce1_file, ex4_file):
        for path in (ce1_file, ex4_file):
            code, out, _ = run(capsys, "check", path, "--json")
            assert code == 0
            assert out == compact(out)

    def test_verify(self, capsys, ce1_file, tmp_path):
        emb = tmp_path / "emb.json"
        run(capsys, "construct", ce1_file, "--prop", "1", "-o", str(emb))
        for strategy, want in (("avg-relu", 0), ("avg-dot", 1)):
            code, out, _ = run(capsys, "verify", ce1_file, str(emb),
                               "--strategy", strategy, "--json")
            assert code == want
            assert out == compact(out)

    @pytest.mark.parametrize("argv", [
        ("avg-dot", "--fixture", "CE1"),
        ("avg-dist", "--fixture", "CE2", "--nonmonotonic"),
        ("sig-dot", "--fixture", "CE4"),
        ("ord-ord", "--fixture", "ORD-NM"),
        ("avg-dot", "CE1.kb")])
    def test_certify(self, capsys, ce1_file, argv):
        strategy, *rest = (ce1_file if a == "CE1.kb" else a for a in argv)
        code, out, _ = run(capsys, "certify", "--strategy", strategy, *rest,
                           "--json")
        assert code == 0
        assert out == compact(out)

    def test_embedding_file_stays_indented(self, capsys, ce1_file, tmp_path):
        # the file construct writes is read and edited by hand
        emb = tmp_path / "emb.json"
        run(capsys, "construct", ce1_file, "--prop", "1", "-o", str(emb))
        text = emb.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


class TestConfigPrecedence:
    def test_env_overrides_config_file(self, capsys, tmp_path, monkeypatch,
                                       ce1_file):
        emb = tmp_path / "emb.json"
        run(capsys, "construct", ce1_file, "--prop", "1", "-o", str(emb))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cap": 1}))
        # config file alone: cap 1
        code, out, _ = run(capsys, "--config", str(cfg), "verify", ce1_file,
                           str(emb), "--strategy", "avg-relu", "--json")
        assert json.loads(out)["cap"] == 1
        # env beats config
        monkeypatch.setenv("EMBEDSIM_CAP", "2")
        _, out, _ = run(capsys, "--config", str(cfg), "verify", ce1_file,
                        str(emb), "--strategy", "avg-relu", "--json")
        assert json.loads(out)["cap"] == 2
        # flag beats env
        _, out, _ = run(capsys, "--config", str(cfg), "verify", ce1_file,
                        str(emb), "--strategy", "avg-relu", "--cap", "3",
                        "--json")
        assert json.loads(out)["cap"] == 3

    def test_config_via_env_var(self, capsys, tmp_path, monkeypatch, ce1_file):
        emb = tmp_path / "emb.json"
        run(capsys, "construct", ce1_file, "--prop", "1", "-o", str(emb))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cap": 2}))
        monkeypatch.setenv("EMBEDSIM_CONFIG", str(cfg))
        _, out, _ = run(capsys, "verify", ce1_file, str(emb),
                        "--strategy", "avg-relu", "--json")
        assert json.loads(out)["cap"] == 2

    def test_bad_config_file(self, capsys, tmp_path, ce1_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json")
        code, _, err = run(capsys, "--config", str(cfg), "check", ce1_file)
        assert code == 2

    def test_deeply_nested_config_file(self, capsys, tmp_path, ce1_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 200000)
        code, out, err = run(capsys, "--config", str(cfg), "check", ce1_file)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read config file")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", [None, [1], {"a": 1}, True, 1.5, "3"],
                             ids=["null", "list", "object", "bool", "float",
                                  "string"])
    def test_config_value_must_be_integer(self, capsys, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": value}))
        code, out, err = run(capsys, "--config", str(cfg), "table1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "'seed'" in err and "JSON integer" in err

    @pytest.mark.parametrize("doc,key", [
        ({"caps": 2}, "'caps'"), ({"seed": 1, "Seed": 2}, "'Seed'"),
        ({"cap\nx": 1}, "'cap\\nx'"), ({"": 1}, "''")])
    def test_unknown_config_key_exit_two(self, capsys, tmp_path, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, "--config", str(cfg), "table1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert f"unknown key {key}" in err

    def test_config_help_names_the_keys(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "(cap, delta, seed)" in " ".join(out.split())

    def test_bad_env_value(self, capsys, tmp_path, monkeypatch, ce1_file):
        emb = tmp_path / "emb.json"
        run(capsys, "construct", ce1_file, "--prop", "1", "-o", str(emb))
        monkeypatch.setenv("EMBEDSIM_CAP", "many")
        code, _, err = run(capsys, "verify", ce1_file, str(emb),
                           "--strategy", "avg-relu")
        assert code == 2

    def test_delta_from_environment(self, capsys, tmp_path, monkeypatch,
                                    ce1_file):
        emb = tmp_path / "emb.json"
        monkeypatch.setenv("EMBEDSIM_DELTA", "100")
        code, _, _ = run(capsys, "construct", ce1_file, "--prop", "1",
                         "-o", str(emb))
        assert code == 0
        assert json.loads(emb.read_text())["provenance"]["delta"] == "100"


BIG = "1" * 5000  # past CPython's 4300-digit limit on int strings


def one_error_line(err: str) -> str:
    """The error line of a refusal: the only line, or the one that follows
    argparse's usage lines."""
    lines = err.splitlines()
    errors = [line for line in lines if "error:" in line]
    assert len(errors) == 1, err
    assert lines[-1] == errors[0]
    assert all(line.startswith(("usage:", " ")) for line in lines[:-1])
    return errors[0]


LIMIT_REASON = "an integer of 5000 digits is past the limit of 4300"


class TestOversizedSettings:
    """A 5000-digit setting exits 2 with one bounded line naming its
    source; an integer names its digit count and the limit, the same on
    every route."""

    @pytest.mark.parametrize("argv,name", [
        (("construct", "KB", "--prop", "1", "--delta", BIG), "--delta"),
        (("verify", "KB", "EMB", "--strategy", "avg-dot", "--cap", BIG),
         "--cap"),
        (("table1", "--seed", BIG), "--seed"),
    ], ids=["delta", "cap", "seed"])
    def test_flag(self, capsys, ce1_file, argv, name):
        argv = [ce1_file if a in ("KB", "EMB") else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        line = one_error_line(err)
        assert len(line) < 200
        assert line.endswith(f"error: argument {name}: {LIMIT_REASON}")
        # text that is no integer is echoed, cut short
        code, out, err = run(capsys, *[a if a != BIG else "x" + BIG
                                       for a in argv])
        assert (code, out) == (2, "")
        line = one_error_line(err)
        assert f"argument {name}: invalid int value: 'x111" in line
        assert line.endswith("... (5003 characters)")

    @pytest.mark.parametrize("variable,argv", [
        ("EMBEDSIM_DELTA", ("construct", "KB", "--prop", "1")),
        ("EMBEDSIM_CAP", ("verify", "KB", "KB", "--strategy", "avg-dot")),
        ("EMBEDSIM_SEED", ("table1",)),
    ], ids=["delta", "cap", "seed"])
    def test_environment(self, capsys, monkeypatch, ce1_file, tmp_path,
                         variable, argv):
        emb = tmp_path / "emb.json"
        run(capsys, "construct", ce1_file, "--prop", "1", "-o", str(emb))
        argv = [{"KB": ce1_file}.get(a, a) for a in argv]
        if variable == "EMBEDSIM_CAP":
            argv[2] = str(emb)
        monkeypatch.setenv(variable, BIG)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "",
                                    f"error: bad {variable}: {LIMIT_REASON}\n")
        monkeypatch.setenv(variable, "-" + BIG[:2000] + "_" + BIG[2000:])
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "",
                                    f"error: bad {variable}: {LIMIT_REASON}\n")
        monkeypatch.setenv(variable, BIG + "x")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err) < 200
        assert err.startswith(f"error: bad {variable}='1111")
        assert err.endswith("... (5003 characters)\n")

    @pytest.mark.parametrize("text,reason", [
        ('{"delta": %s}' % BIG, LIMIT_REASON),
        ('{"seed": -%s}' % BIG, LIMIT_REASON),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff"),
    ], ids=["delta", "negative-seed", "not-utf8"])
    def test_config_file(self, capsys, tmp_path, text, reason):
        cfg = tmp_path / "cfg.json"
        if isinstance(text, bytes):
            cfg.write_bytes(text)
        else:
            cfg.write_text(text)
        code, out, err = run(capsys, "--config", str(cfg), "table1")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err) < 200
        assert err.startswith(f"error: cannot read config file {cfg}: "
                              f"{reason}")

    def test_config_string_value(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": BIG}))
        code, out, err = run(capsys, "--config", str(cfg), "table1")
        assert (code, out) == (2, "")
        assert err == ("error: config key 'seed' must be a JSON integer, "
                       f'got "{BIG[:39]}... (5002 characters)\n')

    def test_short_bad_values_keep_their_text(self, capsys, monkeypatch,
                                              ce1_file):
        code, _, err = run(capsys, "construct", ce1_file, "--prop", "1",
                           "--delta", "x1")
        assert code == 2
        assert err.splitlines()[-1] == ("embedsim construct: error: argument "
                                        "--delta: invalid int value: 'x1'")
        # a 38-character value's repr is 40 characters: echoed whole
        monkeypatch.setenv("EMBEDSIM_SEED", "x" * 38)
        code, _, err = run(capsys, "table1")
        assert (code, err) == (2, f"error: bad EMBEDSIM_SEED='{'x' * 38}'\n")

    def test_limit_is_unchanged(self):
        args = build_parser().parse_args(["table1", "--seed", "9" * 4300])
        assert args.seed == 10 ** 4300 - 1

"""End-to-end CLI behaviour: subcommands, exit codes, config precedence."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DEEP_FORMULA_PROBES
from embedsim.cli import main
from embedsim.fixtures import FIXTURE_SOURCES

CE1 = FIXTURE_SOURCES["CE1"]
EX4 = FIXTURE_SOURCES["EX4"]
AB = "atoms: a b\nrule: a -> b\n"


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
        assert doc["dimension"] == 16
        assert doc["provenance"]["proposition"] == "4"
        assert doc["provenance"]["delta"] == "17"
        assert len(doc["provenance"]["model_order"]) == 16

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
        assert err.count("\n") == 1
        assert "at most 20 atoms" in err

    def test_kind_mismatch(self, capsys, ex4_file):
        code, _, err = run(capsys, "construct", ex4_file, "--prop", "1")
        assert code == 2
        assert "stratified" in err

    def test_bad_delta(self, capsys, ce1_file):
        code, _, err = run(capsys, "construct", ce1_file, "--prop", "1",
                           "--delta", "3")
        assert code == 2

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
    ], ids=["atoms-not-a-list", "not-an-object", "context-not-a-list",
            "zero-denominator", "dimension-not-an-integer",
            "dimension-boolean", "duplicate-atom"])
    def test_malformed_embedding_exit_two(self, capsys, ce1_file, tmp_path,
                                          doc):
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", ce1_file, str(emb),
                           "--strategy", "avg-dot")
        assert code == 2
        assert err.startswith("error: cannot load embedding")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        '{"dimension": 1e400, "atoms": [{"name": "a", "context": ["1"]}]}',
        '{"dimension": 1, "atoms": [{"name": "a", "context": [1e400]}]}',
        '{"dimension": 1, "atoms": [{"name": "a", "context": ["1"], '
        '"lambda": 1e400}]}',
    ], ids=["dimension", "coordinate", "lambda"])
    def test_overflowing_number_exit_two(self, capsys, ce1_file, tmp_path,
                                         text):
        # JSON reads 1e400 as an infinite float, which no integer or
        # Fraction can hold
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

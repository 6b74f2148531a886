"""The verdict table as a library object: pattern, evidence, determinism."""

import sys

import pytest

import embedsim.certifier as certifier
import embedsim.logic as logic
import embedsim.table1 as table1
from embedsim.certifier import (canonical_json, certify_strategy_failure,
                                reverify_text)
from embedsim.constructors import RECIPES
from embedsim.sigmoid import sig_conical_diagnostics
from embedsim.table1 import (MONOTONIC_DEMO_FIXTURES,
                             NONMONOTONIC_DEMO_FIXTURES, CellFailure,
                             run_table1)
from references import ref_sig_ascent

NEG = ("not-simulable", "not-simulable")
POS = ("simulable", "simulable")
EXPECTED = [NEG] * 6 + [POS, POS, NEG, ("simulable", "not-simulable")]


@pytest.fixture(scope="module")
def report():
    return run_table1()


def test_pattern(report):
    assert report.pattern() == EXPECTED


def test_row_order_matches_strategy_table(report):
    assert [r.strategy for r in report.rows] == [
        "avg-dot", "avg-dist", "norm-dot", "norm-dist", "sig-dot",
        "sig-dist", "avg-relu", "had-dot", "had-dot-tied", "ord-ord"]


def test_positive_cells_cover_all_demo_fixtures(report):
    for row in report.rows:
        if row.monotonic.verdict == "simulable":
            names = [e["fixture"] for e in row.monotonic.evidence]
            assert names == list(MONOTONIC_DEMO_FIXTURES)
        if row.non_monotonic.verdict == "simulable":
            names = [e["fixture"] for e in row.non_monotonic.evidence]
            assert names == list(NONMONOTONIC_DEMO_FIXTURES)


def test_construction_cells_are_the_recipe_table(report):
    # a cell is built by construction exactly when a recipe binds its
    # strategy to its column's KB kind, and names that recipe
    built = {(row.strategy, kind): cell.evidence[0]["proposition"]
             for row in report.rows
             for kind, cell in (("plain", row.monotonic),
                                ("stratified", row.non_monotonic))
             if cell.method == "construction+verification"}
    assert built == {(strategy.name, kind): number
                     for number, (strategy, kind) in RECIPES.items()}


def test_every_stratified_recipe_has_a_plain_one():
    # so a row with a monotonic certificate has a non-monotonic one,
    # whose stratified reduction carries it
    plain = {strategy for strategy, kind in RECIPES.values()
             if kind == "plain"}
    assert all(strategy in plain for strategy, kind in RECIPES.values())


def test_certificate_rows_are_built_once_and_every_cell_replayed(
        monkeypatch):
    built, replayed = [], []

    def counting_build(strategy, *args, **kwargs):
        built.append(strategy.name)
        return certify_strategy_failure(strategy, *args, **kwargs)

    def counting_replay(doc, text):
        replayed.append((doc["strategy"], doc["mode"]))
        return reverify_text(doc, text)

    monkeypatch.setattr(table1, "certify_strategy_failure", counting_build)
    monkeypatch.setattr(table1, "reverify_text", counting_replay)
    report = run_table1()
    # one build per row with a certificate cell, not one per cell (15) ...
    assert built == ["avg-dot", "avg-dist", "norm-dot", "norm-dist",
                     "sig-dot", "sig-dist", "had-dot-tied", "ord-ord"]
    # ... and one replay per certificate cell, each in its own mode
    cells = [(row.strategy, mode)
             for row in report.rows
             for mode, cell in (("monotonic", row.monotonic),
                                ("non-monotonic", row.non_monotonic))
             if cell.verdict == "not-simulable"]
    assert len(replayed) == 15
    assert replayed == cells


def _clear_library_caches():
    """Empty every memo cache of the package, as a fresh process starts."""
    for name, module in list(sys.modules.items()):
        if name == "embedsim" or name.startswith("embedsim."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_one_table_encodes_each_certificate_once(monkeypatch):
    # Counted over run_table1().to_json() from cold caches.  Before each
    # certificate document was encoded once: 31 full-document encodes
    # (each of the 15 replays encoded its document and the rebuilt one,
    # and to_json the whole table) and 19 kb_to_source calls (14 of
    # them for a new one-stratum wrapper per non-monotonic build or
    # replay).  Now: 15 rebuilt certificates and 8 cell documents are
    # encoded in full; the 7 reductions' and the table's own skeletons
    # are encoded with markers where the already-encoded texts go; and
    # 5 wrappers, one per fixture, format their source once each.
    full, skeletons, sources = [], [], []
    encode, to_source = certifier.canonical_json, logic.kb_to_source

    def counting_encode(doc):
        text = encode(doc)
        (skeletons if "\\u0000" in text else full).append(len(text))
        return text

    def counting_source(kb):
        sources.append(kb)
        return to_source(kb)

    _clear_library_caches()
    monkeypatch.setattr(certifier, "canonical_json", counting_encode)
    monkeypatch.setattr(table1, "canonical_json", counting_encode)
    monkeypatch.setattr(logic, "kb_to_source", counting_source)
    text = run_table1().to_json()
    assert (len(full), len(skeletons), len(sources)) == (23, 8, 10)
    # the encodes together came to 2.9 times the table's bytes (325 KB
    # for 113 KB at seed 0) and now come to 1.5 times
    assert sum(full) + sum(skeletons) < 2 * len(text)


@pytest.mark.parametrize("seed", range(8))
def test_json_is_the_canonical_text_of_the_document(seed):
    report = run_table1(seed)
    assert report.to_json() == canonical_json(report.to_dict()) + "\n"


def test_certificate_cell_text_is_its_document_encoded(report):
    cells = [cell for row in report.rows
             for cell in (row.monotonic, row.non_monotonic)
             if cell.verdict == "not-simulable"]
    assert len(cells) == 15
    for cell in cells:
        [doc] = cell.evidence
        assert cell.text == canonical_json(doc)
    for row in report.rows:
        # each spliced reduction text carries its wrapped cell's text
        if row.monotonic.verdict == "not-simulable":
            assert row.monotonic.text in row.non_monotonic.text


def test_monotonic_cell_is_the_wrapped_document(report):
    for row in report.rows:
        if row.monotonic.verdict == "not-simulable":
            [wrapped] = row.monotonic.evidence
            [reduction] = row.non_monotonic.evidence
            assert reduction["evidence"]["wrapped"] == wrapped
            assert wrapped == certify_strategy_failure(
                row.strategy).to_dict()


@pytest.mark.parametrize("strategy", ["avg-dot", "norm-dist", "sig-dot",
                                      "had-dot-tied"])
@pytest.mark.parametrize("tamper", ["verdict", "assumptions"])
def test_tampered_wrapped_document_names_its_row(monkeypatch, strategy,
                                                 tamper):
    def tampered(s, *args, **kwargs):
        cert = certify_strategy_failure(s, *args, **kwargs)
        if s.name == strategy:
            wrapped = cert.evidence["wrapped"]
            if tamper == "verdict":
                wrapped["verdict"] = "simulable"
            else:
                wrapped["assumptions"] = wrapped["assumptions"] + ["x"]
        return cert

    monkeypatch.setattr(table1, "certify_strategy_failure", tampered)
    with pytest.raises(CellFailure, match=rf"^cell \({strategy}, "):
        run_table1()


def test_sig_rows_carry_numeric_diagnostics(report):
    for row in report.rows:
        if row.pooling == "sig":
            diag = row.diagnostics
            assert diag is not None
            assert all(t["pair_cone_residual"] < 1e-6 for t in diag["trials"])
            assert all(t["singleton_angle_a"] < 1e-6 for t in diag["trials"])
        else:
            assert row.diagnostics is None


def test_sig_rows_share_the_seeded_diagnostics():
    seed = 2
    report = run_table1(seed)
    expected = sig_conical_diagnostics(seed=seed)
    sig_rows = [r for r in report.rows if r.pooling == "sig"]
    assert len(sig_rows) == 2
    assert all(r.diagnostics == expected for r in sig_rows)


def test_diagnostics_computed_once_per_table(monkeypatch):
    calls = []

    def counting(**kwargs):
        calls.append(kwargs)
        return sig_conical_diagnostics(**kwargs)

    monkeypatch.setattr("embedsim.sigmoid.sig_conical_diagnostics", counting)
    run_table1(seed=4)
    assert calls == [{"seed": 4}]


def test_seed_changes_only_diagnostics(report):
    other = run_table1(seed=1)
    assert report.pattern() == other.pattern()
    base_rows = report.to_dict()["rows"]
    other_rows = other.to_dict()["rows"]
    for b, o in zip(base_rows, other_rows):
        b.pop("diagnostics", None)
        o.pop("diagnostics", None)
    assert base_rows == other_rows


def test_markdown_shape(report):
    md = report.to_markdown()
    lines = md.strip().splitlines()
    assert len(lines) == 12
    assert all(line.startswith("|") for line in lines)


@pytest.mark.parametrize("seed", range(4))
def test_json_matches_full_step_ascent(seed, monkeypatch):
    fast = run_table1(seed).to_json()
    monkeypatch.setattr("embedsim.sigmoid._sig_ascent", ref_sig_ascent)
    assert run_table1(seed).to_json() == fast

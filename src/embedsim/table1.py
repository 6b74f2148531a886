"""The strategy/verdict table: which pooling+labelling pairs simulate what.

Positive cells are backed by running the matching construction on
bundled fixtures and verifying it exhaustively (zero mismatches
required); negative cells are backed by certificates that are replayed
inside the same run.  A row whose two cells are both certificates is
built once: its non-monotonic certificate is the stratified reduction
of the monotonic one and carries it whole (`evidence["wrapped"]`), so
the monotonic cell takes that document instead of building it again.
Each certificate document is encoded once as canonical JSON: the
reduction's text is built around the text of the document it wraps
(`canonical_json_spliced`).  Each cell is still replayed on its own,
rebuilt from its fixture in its own mode, and the rebuilt
certificate's text must equal the cell's text (`reverify_text`).
`to_json` splices those texts into the table, so `table1 --json` emits
exactly the replayed bytes and encodes no certificate again.  Sigmoid
rows additionally carry numeric optimizer diagnostics as corroborating,
non-authoritative evidence; the diagnostics depend only on the seed, so
they are computed once per table and both sigmoid rows carry that one
dict.

The report is fully deterministic: canonical orders everywhere, a fixed
seed for the numeric diagnostics, and no timing data in the JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certifier import (canonical_json, canonical_json_spliced,
                        certify_strategy_failure, reverify_text)
from .constructors import RECIPES, construct
from .fixtures import fixture
from .strategies import TABLE1_STRATEGIES, StrategyId
from .verifier import verify_monotonic, verify_nonmonotonic


class CellFailure(AssertionError):
    """A table cell's construction or certificate failed; names the cell."""


@dataclass
class CellResult:
    verdict: str  # "simulable" | "not-simulable"
    method: str
    evidence: list[dict]
    text: str | None = None  # a certificate's canonical text, as replayed

    def to_dict(self, texts: dict[str, str] | None = None) -> dict:
        """The cell's document.  Given `texts`, a certificate cell's
        document is left as a marker, recorded in `texts` with its text."""
        evidence = self.evidence
        if texts is not None and self.text is not None:
            marker = f"\0certificate {len(texts)}"
            texts[marker] = self.text
            evidence = [marker]
        return {"verdict": self.verdict, "method": self.method,
                "evidence": evidence}


@dataclass
class RowResult:
    strategy: str
    pooling: str
    labelling: str
    tied: bool
    monotonic: CellResult
    non_monotonic: CellResult
    diagnostics: dict | None = None

    def to_dict(self, texts: dict[str, str] | None = None) -> dict:
        doc = {"strategy": self.strategy, "pooling": self.pooling,
               "labelling": self.labelling, "tied": self.tied,
               "monotonic": self.monotonic.to_dict(texts),
               "non_monotonic": self.non_monotonic.to_dict(texts)}
        if self.diagnostics is not None:
            doc["diagnostics"] = self.diagnostics
        return doc


@dataclass
class Table1Report:
    rows: list[RowResult]

    def pattern(self) -> list[tuple[str, str]]:
        return [(r.monotonic.verdict, r.non_monotonic.verdict)
                for r in self.rows]

    def to_dict(self, texts: dict[str, str] | None = None) -> dict:
        return {"rows": [r.to_dict(texts) for r in self.rows]}

    def to_json(self) -> str:
        """`canonical_json(to_dict())` and a newline, with each certificate
        spliced in as the text its replay matched."""
        texts: dict[str, str] = {}
        return canonical_json_spliced(self.to_dict(texts), texts) + "\n"

    def to_markdown(self) -> str:
        mark = {"simulable": "yes", "not-simulable": "no"}
        lines = [
            "| strategy | pooling | labelling | tied | monotonic | non-monotonic |",
            "|---|---|---|---|---|---|",
        ]
        for r in self.rows:
            mono = f"{mark[r.monotonic.verdict]} ({r.monotonic.method})"
            nm = f"{mark[r.non_monotonic.verdict]} ({r.non_monotonic.method})"
            lines.append(
                f"| {r.strategy} | {r.pooling} | {r.labelling} "
                f"| {'yes' if r.tied else 'no'} | {mono} | {nm} |")
        return "\n".join(lines) + "\n"


# fixtures on which each positive cell is demonstrated end to end
MONOTONIC_DEMO_FIXTURES = ("CE1", "CE3", "MOTHER")
NONMONOTONIC_DEMO_FIXTURES = ("EX4", "ORD-NM")


def _construction_cell(strategy: StrategyId, proposition: int,
                       monotonic: bool) -> CellResult:
    names = MONOTONIC_DEMO_FIXTURES if monotonic else NONMONOTONIC_DEMO_FIXTURES
    evidence = []
    for name in names:
        kb = fixture(name)
        result = construct(kb, proposition)
        if monotonic:
            report = verify_monotonic(result.embedding, strategy, kb)
        else:
            report = verify_nonmonotonic(result.embedding, strategy, kb)
        if not report.simulates:
            raise CellFailure(
                f"cell ({strategy.name}, "
                f"{'monotonic' if monotonic else 'non-monotonic'}): "
                f"construction {proposition} failed verification on {name}")
        evidence.append({"fixture": name, "proposition": proposition,
                         "report": report.to_dict()})
    return CellResult("simulable", "construction+verification", evidence)


def _certificate_cell(strategy: StrategyId, column: str, doc: dict,
                      text: str) -> CellResult:
    """The cell a certificate document backs, once its canonical text
    `text` replays."""
    if doc["verdict"] != "not-simulable":
        raise CellFailure(
            f"cell ({strategy.name}, {column}): expected an impossibility "
            f"certificate, got verdict {doc['verdict']}")
    if not reverify_text(doc, text):
        raise CellFailure(
            f"cell ({strategy.name}, {column}): certificate failed replay")
    method = ("certificate-with-assumptions" if doc["assumptions"]
              else "certificate")
    return CellResult("not-simulable", method, [doc], text)


_WRAPPED = "\0wrapped"


def _reduction_text(doc: dict, wrapped_text: str) -> str:
    """The stratified reduction's canonical text, built around the text
    of the document it wraps."""
    skeleton = dict(doc, evidence=dict(doc["evidence"], wrapped=_WRAPPED))
    return canonical_json_spliced(skeleton, {_WRAPPED: wrapped_text})


def _recipe(strategy: StrategyId, kind: str) -> int | None:
    """The recipe that builds this strategy for KBs of this kind, if any."""
    return next((proposition for proposition, recipe in RECIPES.items()
                 if recipe == (strategy, kind)), None)


def _build_row(strategy: StrategyId, diagnostics: dict) -> RowResult:
    """A construction cell where a recipe builds the strategy for the
    column's KB kind, else a certificate cell.  No recipe builds for
    stratified KBs a strategy that has none for plain ones, so a row
    with a monotonic certificate has a non-monotonic one too: its
    stratified reduction, which carries the monotonic document."""
    plain = _recipe(strategy, "plain")
    stratified = _recipe(strategy, "stratified")
    if stratified is None:
        doc = certify_strategy_failure(strategy, nonmonotonic=True).to_dict()
    if plain is not None:
        mono = _construction_cell(strategy, plain, monotonic=True)
    else:
        wrapped = doc["evidence"]["wrapped"]
        mono = _certificate_cell(strategy, "monotonic", wrapped,
                                 canonical_json(wrapped))
    if stratified is not None:
        nm = _construction_cell(strategy, stratified, monotonic=False)
    else:
        text = (canonical_json(doc) if mono.text is None
                else _reduction_text(doc, mono.text))
        nm = _certificate_cell(strategy, "non-monotonic", doc, text)
    return RowResult(strategy.name, strategy.pooling, strategy.labelling,
                     strategy.tied, mono, nm,
                     diagnostics if strategy.pooling == "sig" else None)


def run_table1(seed: int = 0) -> Table1Report:
    """Build every row; any failing cell aborts with the cell named."""
    # the one numpy user, imported here so that no other command loads it
    from .sigmoid import sig_conical_diagnostics
    diagnostics = sig_conical_diagnostics(seed=seed)
    return Table1Report([_build_row(s, diagnostics)
                         for s in TABLE1_STRATEGIES])

"""The strategy/verdict table: which pooling+labelling pairs simulate what.

Positive cells are backed by running the matching construction on
bundled fixtures and verifying it exhaustively (zero mismatches
required); negative cells are backed by certificates that are replayed
from their own serialized evidence inside the same run.  A row whose
two cells are both certificates is built once: its non-monotonic
certificate is the stratified reduction of the monotonic one and
carries it whole (`evidence["wrapped"]`), so the monotonic cell takes
that document instead of building it again.  Each cell is still
replayed on its own, rebuilt from its fixture in its own mode.  Sigmoid
rows additionally carry numeric optimizer diagnostics as corroborating,
non-authoritative evidence; the diagnostics depend only on the seed, so
they are computed once per table and both sigmoid rows carry that one
dict.

The report is fully deterministic: canonical orders everywhere, a fixed
seed for the numeric diagnostics, and no timing data in the JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certifier import (canonical_json, certify_strategy_failure,
                        reverify_certificate)
from .constructors import RECIPES, construct
from .fixtures import fixture
from .strategies import TABLE1_STRATEGIES, StrategyId, sig_conical_diagnostics
from .verifier import verify_monotonic, verify_nonmonotonic


class CellFailure(AssertionError):
    """A table cell's construction or certificate failed; names the cell."""


@dataclass
class CellResult:
    verdict: str  # "simulable" | "not-simulable"
    method: str
    evidence: list[dict]

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "method": self.method,
                "evidence": self.evidence}


@dataclass
class RowResult:
    strategy: str
    pooling: str
    labelling: str
    tied: bool
    monotonic: CellResult
    non_monotonic: CellResult
    diagnostics: dict | None = None

    def to_dict(self) -> dict:
        doc = {"strategy": self.strategy, "pooling": self.pooling,
               "labelling": self.labelling, "tied": self.tied,
               "monotonic": self.monotonic.to_dict(),
               "non_monotonic": self.non_monotonic.to_dict()}
        if self.diagnostics is not None:
            doc["diagnostics"] = self.diagnostics
        return doc


@dataclass
class Table1Report:
    rows: list[RowResult]

    def pattern(self) -> list[tuple[str, str]]:
        return [(r.monotonic.verdict, r.non_monotonic.verdict)
                for r in self.rows]

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows]}

    def to_json(self) -> str:
        return canonical_json(self.to_dict()) + "\n"

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


def _certificate_cell(strategy: StrategyId, column: str,
                      doc: dict) -> CellResult:
    """The cell a certificate document backs, once it replays."""
    if doc["verdict"] != "not-simulable":
        raise CellFailure(
            f"cell ({strategy.name}, {column}): expected an impossibility "
            f"certificate, got verdict {doc['verdict']}")
    if not reverify_certificate(doc):
        raise CellFailure(
            f"cell ({strategy.name}, {column}): certificate failed replay")
    method = ("certificate-with-assumptions" if doc["assumptions"]
              else "certificate")
    return CellResult("not-simulable", method, [doc])


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
    mono = (_construction_cell(strategy, plain, monotonic=True)
            if plain is not None else
            _certificate_cell(strategy, "monotonic",
                              doc["evidence"]["wrapped"]))
    nm = (_construction_cell(strategy, stratified, monotonic=False)
          if stratified is not None else
          _certificate_cell(strategy, "non-monotonic", doc))
    return RowResult(strategy.name, strategy.pooling, strategy.labelling,
                     strategy.tied, mono, nm,
                     diagnostics if strategy.pooling == "sig" else None)


def run_table1(seed: int = 0) -> Table1Report:
    """Build every row; any failing cell aborts with the cell named."""
    diagnostics = sig_conical_diagnostics(seed=seed)
    return Table1Report([_build_row(s, diagnostics)
                         for s in TABLE1_STRATEGIES])

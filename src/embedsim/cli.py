"""Command-line front end.

Subcommands: check, construct, verify, certify, table1.  Machine output
is JSON on stdout with --json, one line with sorted keys and no spaces
(`canonical_json`; `python -m json.tool` indents it), human-readable
otherwise; table1 also renders markdown with --md.  The embedding file
that construct writes stays indented, for reading and editing by hand.
Exit codes: 0 success (or "simulates"), 1 semantic negative
(verification mismatches, or a certify verdict that contradicts
--expect), 2 usage or input errors, 141 (as for SIGPIPE) when the reader
of stdout goes away early, as in `embedsim ... | head`.

Settings resolve flag > environment > config file > default; the
environment names mirror the flags with an EMBEDSIM_ prefix (for
example EMBEDSIM_CAP), and the config file is JSON with the flag names
as keys ("cap", "delta", "seed"; any other key exits 2) and JSON
integers as values.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .certifier import (canonical_json, certify_strategy_failure,
                        decide_avg_dot)
from .constructors import RECIPES, construct
from .fixtures import FIXTURE_NAMES
from .logic import (KBError, StratifiedKB, check_cap, count_models,
                    parse_kb)
from .strategies import AttributeEmbedding, strategy_from_name
from .table1 import run_table1
from .verifier import verify_monotonic, verify_nonmonotonic

ENV_PREFIX = "EMBEDSIM_"
CONFIG_KEYS = ("cap", "delta", "seed")
SHOWN_CHARS = 40  # the most of a bad setting an error line echoes


class UsageError(Exception):
    pass


def _shown(text: str) -> str:
    """A bad setting as an error line echoes it: whole when short, else
    its first SHOWN_CHARS characters and its length."""
    if len(text) <= SHOWN_CHARS:
        return text
    return f"{text[:SHOWN_CHARS]}... ({len(text)} characters)"


_INTEGER = re.compile(r"\s*[-+]?\d+(_\d+)*\s*")  # the text int() reads


def _integer(text: str) -> int:
    """`int(text)` for a flag, the environment or the config file.  An
    integer with more digits than CPython converts raises OverflowError
    naming its digit count and the limit; other bad text, ValueError."""
    try:
        return int(text)
    except ValueError:
        if not _INTEGER.fullmatch(text):
            raise
    digits = sum(c.isdecimal() for c in text)
    raise OverflowError(f"an integer of {digits} digits is past the limit "
                        f"of {sys.get_int_max_str_digits()}")


def _int_flag(text: str) -> int:
    """argparse's `int` type, echoing at most a prefix of a bad value."""
    try:
        return _integer(text)
    except OverflowError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {_shown(repr(text))}") from None


def _load_config(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(ENV_PREFIX + "CONFIG")
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=_integer)
    except (OSError, ValueError, OverflowError, RecursionError) as exc:
        # ValueError: malformed JSON or not UTF-8; OverflowError: an
        # oversized integer; RecursionError: JSON nested too deeply
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = next((key for key in doc if key not in CONFIG_KEYS), None)
    if unknown is not None:
        # repr keeps a key holding a newline on the one error line
        raise UsageError(f"config file {path} has unknown key {unknown!r} "
                         f"(known: {', '.join(CONFIG_KEYS)})")
    return doc


def _setting(name: str, flag_value, config: dict, default=None):
    """An integer setting: flag, else environment, else config, else default."""
    if flag_value is not None:
        return flag_value
    variable = ENV_PREFIX + name.upper()
    env = os.environ.get(variable)
    if env is not None:
        try:
            return _integer(env)
        except OverflowError as exc:
            raise UsageError(f"bad {variable}: {exc}") from None
        except ValueError as exc:
            raise UsageError(f"bad {variable}={_shown(repr(env))}") from exc
    if name in config:
        value = config[name]
        # bool is an int subclass; quoted numbers and floats are refused
        if type(value) is not int:
            raise UsageError(f"config key {name!r} must be a JSON integer, "
                             f"got {_shown(json.dumps(value))}")
        return value
    return default


def _read_kb(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_kb(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _read_embedding(path: str) -> AttributeEmbedding:
    try:
        with open(path, encoding="utf-8") as fh:
            return AttributeEmbedding.from_json_dict(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            RecursionError) as exc:
        # TypeError: JSON of the wrong shape; RecursionError: JSON nested
        # too deeply to decode
        raise UsageError(f"cannot load embedding {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    """Write to the -o destination, or to stdout when there is none."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _emit(doc: dict, as_json: bool, human_lines: list[str]) -> None:
    if as_json:
        print(canonical_json(doc))
    else:
        print("\n".join(human_lines))


def cmd_check(args, config) -> int:
    kb = _read_kb(args.kb)
    if isinstance(kb, StratifiedKB):
        # refused above the cap, as counting a plain KB's models is
        doc = {"kind": "stratified", "atoms": len(kb.signature),
               "strata": len(kb.strata),
               "interpretations": 1 << check_cap(kb.signature)}
        lines = [f"stratified, k={len(kb.strata)}",
                 f"atoms: {len(kb.signature)} ({' '.join(kb.signature.atoms)})",
                 f"interpretations: {doc['interpretations']}"]
    else:
        models = count_models(kb)
        doc = {"kind": "plain", "atoms": len(kb.signature),
               "formulas": len(kb.formulas), "models": models,
               "consistent": bool(models)}
        lines = [f"plain KB, {len(kb.formulas)} formulas",
                 f"atoms: {len(kb.signature)} ({' '.join(kb.signature.atoms)})",
                 f"models: {models}" + ("" if models else " (inconsistent)")]
    _emit(doc, args.json, lines)
    return 0


def cmd_construct(args, config) -> int:
    kb = _read_kb(args.kb)
    delta = _setting("delta", args.delta, config)
    try:
        result = construct(kb, args.prop, delta)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    doc = result.embedding.to_json_dict(provenance=result.provenance())
    _write_text(args.output, json.dumps(doc, indent=2) + "\n")
    if args.output and not args.json:
        print(f"wrote {args.output}: dimension {result.embedding.dimension}, "
              f"strategy {result.strategy.name}")
    return 0


def cmd_verify(args, config) -> int:
    kb = _read_kb(args.kb)
    embedding = _read_embedding(args.embedding)
    strategy = strategy_from_name(args.strategy)
    cap = _setting("cap", args.cap, config)
    if isinstance(kb, StratifiedKB):
        report = verify_nonmonotonic(embedding, strategy, kb, cap=cap)
    else:
        report = verify_monotonic(embedding, strategy, kb, cap=cap)
    lines = [f"strategy: {report.strategy}",
             f"queries: {report.queries} (subset cap {report.cap})",
             f"verdict: {'simulates' if report.simulates else 'mismatches'}"]
    for mm in report.mismatches[:20]:
        lines.append(f"  mismatch {'&'.join(mm.subset)} -> {mm.head}: "
                     f"expected {mm.expected}, got {mm.got} [{mm.score}]")
    if len(report.mismatches) > 20:
        lines.append(f"  ... {len(report.mismatches) - 20} more")
    # the document holds every mismatch: build it only when printed
    _emit(report.to_dict() if args.json else {}, args.json, lines)
    return 0 if report.simulates else 1


def cmd_certify(args, config) -> int:
    if (args.fixture is None) == (args.kb is None):
        raise UsageError("certify needs exactly one of --fixture or a KB file")
    if args.fixture is not None:
        cert = certify_strategy_failure(args.strategy, args.fixture,
                                        args.nonmonotonic)
    else:
        if args.strategy != "avg-dot":
            raise UsageError(
                "generic decisions exist only for avg-dot; other strategies "
                f"take --fixture (one of: {', '.join(FIXTURE_NAMES)})")
        if args.nonmonotonic:
            raise UsageError("the generic avg-dot decision is monotonic only; "
                             "--nonmonotonic takes --fixture")
        cert = decide_avg_dot(_read_kb(args.kb))
    lines = [f"strategy: {cert.strategy}",
             f"fixture: {cert.fixture or '(generic)'}",
             f"mode: {cert.mode}",
             f"verdict: {cert.verdict}",
             f"evidence: {cert.evidence['kind']}"]
    for assumption in cert.assumptions:
        lines.append(f"  assumes: {assumption}")
    _emit(cert.to_dict(), args.json, lines)
    if args.expect is not None and cert.verdict != args.expect:
        return 1
    return 0


def cmd_table1(args, config) -> int:
    seed = _setting("seed", args.seed, config, default=0)
    report = run_table1(seed=seed)
    if args.json:
        text = report.to_json()
    elif args.md:
        text = report.to_markdown()
    else:
        mark = {"simulable": "yes", "not-simulable": "no "}
        width = max(len(r.strategy) for r in report.rows)
        rows = [f"{'strategy':<{width}}  mono  non-mono"]
        rows += [
            f"{r.strategy:<{width}}  {mark[r.monotonic.verdict]}   "
            f"{mark[r.non_monotonic.verdict]}"
            for r in report.rows
        ]
        text = "\n".join(rows) + "\n"
    _write_text(args.output, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embedsim",
        description="decide, construct and certify pooled-embedding "
                    "simulations of attribute dependencies")
    parser.add_argument("--config", help="JSON config file (cap, delta, seed)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse a KB file and summarize it")
    p.add_argument("kb")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="build a simulating embedding")
    p.add_argument("kb")
    p.add_argument("--prop", type=int, required=True, choices=list(RECIPES),
                   help="construction recipe: " + ", ".join(
                       f"{n} {strategy.name} ({kind} KB)"
                       for n, (strategy, kind) in RECIPES.items()))
    p.add_argument("--delta", type=_int_flag,
                   help="dominance constant override")
    p.add_argument("-o", "--output", help="embedding JSON destination")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check an embedding against a KB")
    p.add_argument("kb")
    p.add_argument("embedding")
    p.add_argument("--strategy", required=True)
    p.add_argument("--cap", type=_int_flag, help="subset size cap")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="produce a (non-)simulability certificate")
    p.add_argument("kb", nargs="?")
    p.add_argument("--strategy", required=True)
    p.add_argument("--fixture", choices=list(FIXTURE_NAMES))
    p.add_argument("--nonmonotonic", action="store_true",
                   help="certify the ranked-default column")
    p.add_argument("--expect", choices=["simulable", "not-simulable"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("table1", help="run the full strategy verdict table")
    p.add_argument("--seed", type=_int_flag)
    p.add_argument("--md", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_table1)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        config = _load_config(args.config)
        code = args.func(args, config)
        sys.stdout.flush()  # a closed pipe shows up here, not at exit
        return code
    except (UsageError, KBError, ValueError) as exc:
        # ValueError covers strategy/embedding shape problems surfaced
        # by the library (dimension mismatches, numeric-only strategies)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        _discard_stdout()
        return 141


def _discard_stdout() -> None:
    """Point stdout's file descriptor at devnull.

    Output still buffered for a closed pipe would otherwise fail again
    when the interpreter flushes stdout on exit.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a descriptor: nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())

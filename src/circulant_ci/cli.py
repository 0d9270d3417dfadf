"""Command-line surface: key | iso | ci | classify | verify | witness.

Exit codes: 0 success or agreement, 2 usage and parse errors,
3 mathematical disagreement, 4 capability refusal (oracle cutoff).

Machine-readable output comes from ``--format json`` or ``--format csv``.
Each command builds its JSON document, CSV rows and text lines once and
prints them through ``_emit``, the only reader of the output format.
Output is byte-identical for identical inputs and flags, regardless of the
worker count.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import engine
from .cayley import (
    MODES,
    ORACLE_CUTOFF,
    ConnectionSet,
    OracleCutoffError,
    brute_force_isomorphism,
)
from .engine import ClassificationReport, DisagreementError
from .keys import key_of_set, key_partition
from .zn import DomainError, _check_modulus

FORMATS = ("json", "csv", "text")


def _make_set(n: int, text: str, mode: str, close_inverses: bool) -> ConnectionSet:
    """The connection set of comma-separated integers, taken literally mod
    n; 0 is rejected."""
    _check_modulus(n)  # before parsing, which reduces every residue mod n
    members = set()
    for token in text.split(",") if text.strip() else ():
        token = token.strip()
        try:
            value = int(token) % n
        except ValueError as exc:
            raise DomainError(f"cannot parse residue {token!r}") from exc
        if value == 0:
            raise DomainError("0 is not allowed in a connection set")
        members.add(value)
    if close_inverses:
        members |= {(-x) % n for x in members}
    return ConnectionSet(n, tuple(sorted(members)), mode)


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _bool_word(value: bool | None) -> str:
    if value is None:
        return "n/a"
    return "true" if value else "false"


def _csv_row(doc: dict) -> list:
    return [_compact(v) if isinstance(v, list) else v for v in doc.values()]


def _emit(
    args: argparse.Namespace, doc: dict, header: list[str], rows: list[list], text: list[str]
) -> None:
    """Print a command's result: doc as JSON, header and rows as CSV, or the text lines."""
    if args.format == "json":
        print(json.dumps(doc))
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in text:
            print(line)


def cmd_key(args: argparse.Namespace) -> int:
    s = _make_set(args.n, args.set, "digraph", False)
    k = key_of_set(s)
    doc = {"n": args.n, "set": list(s.members), "key": k.as_lists()}
    if args.partition:
        doc["partition"] = [list(c) for c in key_partition(k)]
    text = [_compact(doc[name]) for name in ("key", "partition") if name in doc]
    _emit(args, doc, list(doc), [_csv_row(doc)], text)
    return 0


def cmd_iso(args: argparse.Namespace) -> int:
    s = _make_set(args.n, args.s, args.mode, args.close_inverses)
    t = _make_set(args.n, args.t, args.mode, args.close_inverses)
    verdict = engine.muzychuk_isomorphic(s, t)
    doc = {
        "n": args.n,
        "s": list(s.members),
        "t": list(t.members),
        "mode": args.mode,
        "isomorphic": verdict.isomorphic,
        "reason": verdict.reason,
        "multiplier": (
            verdict.witness_multiplier.as_lists()
            if verdict.witness_multiplier is not None
            else None
        ),
    }
    if verdict.isomorphic:
        text = [f"isomorphic, multiplier {_compact(doc['multiplier'])}"]
    else:
        text = [f"not isomorphic ({verdict.reason})"]
    code = 0
    if args.oracle:
        mapping = brute_force_isomorphism(s, t, oracle_cutoff=args.oracle_cutoff)
        doc["oracle"] = mapping is not None
        doc["agree"] = doc["oracle"] == verdict.isomorphic
        if not doc["agree"]:
            code = 3
        word = "isomorphic" if doc["oracle"] else "not isomorphic"
        text.append(f"oracle: {word}, agree: {_bool_word(doc['agree'])}")
    _emit(args, doc, list(doc), [_csv_row(doc)], text)
    return code


def cmd_ci(args: argparse.Namespace) -> int:
    s = _make_set(args.n, args.set, args.mode, args.close_inverses)
    verdict = engine.decide_ci(s)
    doc = {
        "n": args.n,
        "set": list(s.members),
        "mode": args.mode,
        "is_ci": verdict.is_ci,
        "fast_path": verdict.fast_path,
        "witness": list(verdict.witness.members) if verdict.witness else None,
    }
    if verdict.is_ci:
        suffix = "" if verdict.fast_path == "none" else f" (fast path {verdict.fast_path})"
        text = [f"CI{suffix}"]
    else:
        text = [f"non-CI, witness {','.join(map(str, doc['witness']))}"]
    _emit(args, doc, list(doc), [_csv_row(doc)], text)
    return 0


def _report_obj(r: ClassificationReport) -> dict:
    return {
        "n": r.n,
        "m": r.m,
        "mode": r.mode,
        "property": r.property_holds,
        "predicate": r.predicate_value,
        "agree": r.agreement,
        "counterexamples": [
            {"set": list(s.members), "witness": list(w.members)}
            for s, w in r.counterexamples
        ],
    }


def _finish_reports(
    reports: tuple[ClassificationReport, ...], args: argparse.Namespace, dump_path: str
) -> int:
    docs = [_report_obj(r) for r in reports]
    rows, text = [], []
    for o in docs:
        words = [_bool_word(o[name]) for name in ("property", "predicate", "agree")]
        rows.append([o["n"], o["m"], o["mode"], *words, _compact(o["counterexamples"])])
        line = (
            f"n={o['n']} m={o['m']} {o['mode']}: "
            f"property {words[0]}, predicate {words[1]}"
        )
        if o["agree"] is not None:
            line += ", agree" if o["agree"] else ", DISAGREE"
        if o["counterexamples"]:
            line += f", counterexamples: {len(o['counterexamples'])}"
        text.append(line)
    header = ["n", "m", "mode", "property", "predicate", "agree", "counterexamples"]
    _emit(args, {"rows": docs}, header, rows, text)
    bad = [o for o in docs if o["agree"] is False]
    if bad:
        try:
            with open(dump_path, "w", encoding="utf-8") as fh:
                json.dump({"rows": bad}, fh, indent=2)
        except OSError as exc:
            # the disagreement is the result; a dump that cannot be written
            # must not turn exit 3 into a traceback
            reason = exc.strerror or exc
            print(
                f"error: cannot write disagreement dump to {dump_path}: {reason}",
                file=sys.stderr,
            )
        else:
            print(f"disagreements dumped to {dump_path}", file=sys.stderr)
        return 3
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    report = engine.is_m_group(args.n, args.m, args.mode)
    return _finish_reports((report,), args, args.dump)


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        reports = engine.verify_theorems(
            args.n_max, args.m_max, args.mode, workers=args.workers
        )
    except DisagreementError as exc:
        reports = exc.reports
    return _finish_reports(reports, args, args.dump)


def cmd_witness(args: argparse.Namespace) -> int:
    families = [
        {
            "family": w.family,
            "set": list(w.connection_set.members),
            "non_ci_confirmed": True,
        }
        for w in engine.witnesses(args.n, args.mode)
    ]
    text = [
        f"{{{','.join(map(str, o['set']))}}}: non-CI confirmed ({o['family']})"
        for o in families
    ]
    _emit(
        args,
        {"n": args.n, "mode": args.mode, "families": families},
        ["family", "set", "non_ci_confirmed"],
        [[o["family"], _compact(o["set"]), "true"] for o in families],
        text or ["no applicable witness families"],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circulant-ci",
        description="Exact isomorphism and CI-property engine for circulant (di)graphs.",
    )
    parser.add_argument("--format", choices=FORMATS, default="text")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--oracle-cutoff", type=int, default=ORACLE_CUTOFF, dest="oracle_cutoff")
    sub = parser.add_subparsers(dest="command", required=True)
    # the one declaration of --mode, shared by every command that takes it
    mode_parent = argparse.ArgumentParser(add_help=False)
    mode_parent.add_argument("--mode", choices=MODES, default="digraph")

    def add_moded(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[mode_parent], help=help)

    p_key = sub.add_parser("key", help="key of a connection set")
    p_key.add_argument("n", type=int)
    p_key.add_argument("set")
    p_key.add_argument("--partition", action="store_true",
                       help="also print the key partition")
    p_key.set_defaults(func=cmd_key)

    p_iso = add_moded("iso", "decide isomorphism of two circulants")
    p_iso.add_argument("n", type=int)
    p_iso.add_argument("s")
    p_iso.add_argument("t")
    p_iso.add_argument("--oracle", action="store_true",
                       help="cross-check against the brute-force oracle")
    p_iso.add_argument("--close-inverses", action="store_true")
    p_iso.set_defaults(func=cmd_iso)

    p_ci = add_moded("ci", "decide the CI property of a connection set")
    p_ci.add_argument("n", type=int)
    p_ci.add_argument("set")
    p_ci.add_argument("--close-inverses", action="store_true")
    p_ci.set_defaults(func=cmd_ci)

    p_cls = add_moded("classify", "exhaustive group property at one (n, m)")
    p_cls.add_argument("n", type=int)
    p_cls.add_argument("m", type=int)
    p_cls.add_argument("--dump", default="ci_disagreements.json")
    p_cls.set_defaults(func=cmd_classify)

    p_ver = add_moded("verify", "sweep all cells against the predicates")
    p_ver.add_argument("--n-max", type=int, default=12, dest="n_max")
    p_ver.add_argument("--m-max", type=int, default=6, dest="m_max")
    p_ver.add_argument("--dump", default="ci_disagreements.json")
    p_ver.set_defaults(func=cmd_verify)

    p_wit = add_moded("witness", "explicit non-CI families for n")
    p_wit.add_argument("n", type=int)
    p_wit.set_defaults(func=cmd_witness)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.oracle_cutoff < 2:
            raise DomainError("oracle_cutoff must be at least 2")
        if args.workers < 1:
            raise DomainError("workers must be at least 1")
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleCutoffError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

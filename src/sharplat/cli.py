"""Batch front-end: validate lattice files, emit property/sharpness/
audit reports, run censuses and exemplar self-tests, and write the
built-in gallery.

Each command returns its one JSON document (machine-ordered) and exit
code; :func:`main` prints the document once, after the command has
finished, compact by default and indented under ``--pretty``.  Exit
codes: 0 success, 1 a property or identity was falsified, 2 invalid
input (I/O, schema and axiom failures carry distinct diagnostics), 3
internal invariant violation.  A stdout closed by its reader is not an
input failure: nothing more is written, and the exit code is 141, as
for a process stopped by SIGPIPE.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import enumeration, exemplars, gallery, predicates
from .core import parse_lattice, parse_poset
from .errors import (
    BadSchema,
    ClaimFalsified,
    InternalEquivalenceViolation,
    InternalValidationFailure,
    SharplatError,
)

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INVALID_INPUT = 2
EXIT_INTERNAL = 3
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE


def _witness(exc: SharplatError):
    return list(exc.witness) if exc.witness is not None else None


def _read_document(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def cmd_validate(args) -> tuple[dict, int]:
    doc = _read_document(args.path)
    try:
        lattice = parse_lattice(doc)
    except BadSchema as exc:
        return {"valid": False, "stage": "schema", "detail": str(exc)}, EXIT_INVALID_INPUT
    except SharplatError as exc:
        return {
            "valid": False,
            "stage": "axioms",
            "error": type(exc).__name__,
            "witness": _witness(exc),
            "detail": str(exc),
        }, EXIT_INVALID_INPUT
    return {"valid": True, "elements": list(lattice.names), "size": lattice.size}, EXIT_OK


def cmd_report(args) -> tuple[dict, int]:
    lattice = parse_lattice(_read_document(args.path))
    sections = [s for s in predicates.REPORT_SECTIONS if getattr(args, s)]
    return predicates.report(lattice, sections or predicates.REPORT_SECTIONS), EXIT_OK


def cmd_enumerate(args) -> tuple[dict, int]:
    if args.chain is not None:
        poset = enumeration.chain_poset(args.chain)
    else:
        poset = parse_poset(_read_document(args.poset))
    structures = enumeration.enumerate_structures(poset)
    if args.audit_each:
        structures = enumeration.audited(structures)
    files = None
    if args.emit_representatives is not None:
        files = []
        structures = _write_representatives(args.emit_representatives, structures, files)
    if args.census:
        out = enumeration.census(poset, args.distinct, structures).to_dict()
    else:
        out = enumeration.poset_header(poset.names, poset.leq)
        out["total_structures"] = sum(1 for _ in structures)
    if files is not None:
        out["representatives_files"] = files
    return out, EXIT_OK


def _write_representatives(directory: str, structures, names: list[str]):
    """Pass ``structures`` through, writing each one's document to
    ``directory`` as it arrives and appending the file name to ``names``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for k, L in enumerate(structures, start=1):
        names.append(gallery.write_document(directory, f"structure_{k:03d}", L.serialize()))
        yield L


_DEFAULT_TRIALS = {"zminus": 100, "r1": 1000, "nideal": 200}


def cmd_exemplars(args) -> tuple[dict, int]:
    trials = _DEFAULT_TRIALS[args.model] if args.trials is None else args.trials
    if args.model == "zminus":
        report = exemplars.zminus_selftest(max_exponent=trials)
        ok = report["failures"] == 0
    elif args.model == "r1":
        report = exemplars.r1_selftest(trials=trials, seed=args.seed)
        ok = report["failures"] == 0
    else:
        report = exemplars.nideal_selftest(trials=trials, seed=args.seed)
        ok = report["expected_outcome_confirmed"]
    return report, EXIT_OK if ok else EXIT_FALSIFIED


def cmd_gallery(args) -> tuple[dict, int]:
    if args.out is None:
        return {"gallery": gallery.gallery_documents()}, EXIT_OK
    return {"directory": args.out, "written": gallery.write_fixtures(args.out)}, EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` reads
    it without changing it, so :func:`main` may be called repeatedly."""
    parser = argparse.ArgumentParser(
        prog="sharplat",
        description="Exact toolkit for finite multiplicative lattices",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a lattice file", allow_abbrev=False)
    p.add_argument("path")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="property/sharpness/audit report", allow_abbrev=False)
    p.add_argument("path")
    p.add_argument("--profile", action="store_true")
    p.add_argument("--sharp", action="store_true")
    p.add_argument("--audit", action="store_true")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("enumerate", help="enumerate structures on a poset", allow_abbrev=False)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--chain", type=int, metavar="N")
    source.add_argument("--poset", metavar="PATH")
    p.add_argument("--census", action="store_true")
    p.add_argument("--audit-each", action="store_true")
    p.add_argument("--distinct", action="store_true")
    p.add_argument("--emit-representatives", metavar="DIR")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("exemplars", help="run exemplar self-tests", allow_abbrev=False)
    p.add_argument("--model", choices=["zminus", "r1", "nideal"], required=True)
    p.add_argument(
        "--trials",
        type=_positive_int,
        default=None,
        metavar="N",
        help=f"random trials for r1 and nideal (defaults {_DEFAULT_TRIALS['r1']} "
        f"and {_DEFAULT_TRIALS['nideal']}); for zminus, the largest exponent "
        f"checked (default {_DEFAULT_TRIALS['zminus']}): every pair of exponents "
        "0..N and the bottom runs, and the report's \"trials\" is that count, "
        "(N + 2)^2",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_exemplars)

    p = sub.add_parser("gallery", help="print or write the fixture gallery", allow_abbrev=False)
    p.add_argument("--out", metavar="DIR")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_gallery)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, code = args.func(args)
    except json.JSONDecodeError as exc:
        doc = {"valid": False, "stage": "schema", "detail": f"not valid JSON: {exc}"}
        code = EXIT_INVALID_INPUT
    except OSError as exc:
        doc, code = {"valid": False, "stage": "io", "detail": str(exc)}, EXIT_INVALID_INPUT
    except ClaimFalsified as exc:
        doc = {
            "error": "ClaimFalsified",
            "claim": exc.claim,
            "witness": _witness(exc),
            "lattice": exc.lattice_document,
        }
        code = EXIT_INTERNAL
    except SharplatError as exc:
        doc = {"error": type(exc).__name__, "witness": _witness(exc), "detail": str(exc)}
        internal = isinstance(exc, (InternalEquivalenceViolation, InternalValidationFailure))
        code = EXIT_INTERNAL if internal else EXIT_INVALID_INPUT
    if args.pretty:
        text = json.dumps(doc, indent=2)
    else:
        text = json.dumps(doc, separators=(",", ":"))
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader has gone; point stdout at the null device so the
        # interpreter's flush at exit does not fail on the same pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code


if __name__ == "__main__":
    raise SystemExit(main())

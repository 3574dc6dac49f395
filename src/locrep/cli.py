"""Command-line front end: build, analyse, verify and repair codes.

Structured results are printed as JSON (CSV for the comparison table)
on stdout unless -o is given.  Exit codes: 0 success, 1 a verification
returned false, 2 usage or domain errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import bounds, linear_code, regsets, repair, square
from .errors import DomainError, InvariantError, LocrepError
from .gf2m import GF2m

SEARCH_CAP_ENV = "LOCREP_SEARCH_CAP"


def _search_cap() -> int:
    raw = os.environ.get(SEARCH_CAP_ENV)
    if raw is None:
        return linear_code.DEFAULT_SEARCH_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # not an integer: rejected with the same message
    if cap < 1:
        raise LocrepError(
            f"{SEARCH_CAP_ENV} must be a positive integer, got {raw!r}"
        )
    return cap


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(obj: dict, out_path: Optional[str]) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True), out_path)


def _load_code(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"malformed code file: {exc}") from None
    return linear_code.loads(text)


def _default_size_cap(metadata) -> Optional[int]:
    # declared locality bounds the useful regenerating-set size
    if metadata and metadata.get("family") == "square":
        return metadata["r"] + 1
    return None


# verb -> (summary, argument specs, handler), in the order of the help listing
_VERBS: dict = {}


def _arg(*flags, **options):
    """One ``add_argument`` call's arguments, kept for the verb's subparser."""
    return flags, options


def _verb(name: str, summary: str, *arguments):
    """Register a handler as the verb ``name``, with its arguments."""

    def register(handler):
        _VERBS[name] = (summary, arguments, handler)
        return handler

    return register


@_verb(
    "build", "construct a code and write its JSON file",
    _arg("--family", required=True, choices=["square"]),
    _arg("--r", type=int, required=True),
    _arg("--M", type=int, required=True),
    _arg("--m", type=int, default=None, help="field degree override"),
)
def _cmd_build(args) -> int:
    field = None
    if args.m is not None:
        field = GF2m(args.m)
    sc = square.build_square_code(args.r, args.M, field=field)
    _emit(linear_code.dumps(sc.code, metadata=sc.metadata()), args.output)
    return 0


@_verb("distance", "exact minimum distance (brute force)", _arg("code"))
def _cmd_distance(args) -> int:
    code, _ = _load_code(args.code)
    d = linear_code.min_distance(code, search_cap=_search_cap())
    _emit_json({"d": d}, args.output)
    return 0


@_verb(
    "phi", "minimum union sizes of regenerating-set chains",
    _arg("code"),
    _arg("--x-max", dest="x_max", type=int, required=True),
)
def _cmd_phi(args) -> int:
    code, metadata = _load_code(args.code)
    profile = regsets.phi_profile(
        code,
        x_max=args.x_max,
        size_cap=_default_size_cap(metadata),
        search_cap=_search_cap(),
    )
    _emit_json(profile.to_json_dict(), args.output)
    return 0


@_verb("rho", "largest x with phi(x) - x < M", _arg("code"))
def _cmd_rho(args) -> int:
    code, metadata = _load_code(args.code)
    value = regsets.rho(
        code,
        size_cap=_default_size_cap(metadata),
        search_cap=_search_cap(),
    )
    _emit_json({"rho": value}, args.output)
    return 0


@_verb(
    "bounds", "evaluate a closed-form distance bound",
    _arg("--theorem", required=True, choices=list(bounds.THEOREMS)),
    _arg("--n", type=int, default=None),
    _arg("--M", type=int, default=None),
    _arg("--alpha", type=int, default=1),
    _arg("--r", type=int, default=None),
    _arg("--delta", type=int, default=None),
    _arg("--rho", type=int, default=None, help="exact rho (general theorem only)"),
)
def _cmd_bounds(args) -> int:
    report = bounds.bound_report(
        args.theorem,
        n=args.n,
        M=args.M,
        alpha=args.alpha,
        r=args.r,
        delta=args.delta,
        rho=args.rho,
    )
    payload = {"value": report.value}
    payload.update(report.intermediate)
    _emit_json(payload, args.output)
    return 0


@_verb(
    "verify", "check locality or square-code optimality",
    _arg("code"),
    _arg("--locality", type=int, default=None),
    _arg("--delta", type=int, default=None),
    _arg("--optimal-square", action="store_true"),
)
def _cmd_verify(args) -> int:
    code, metadata = _load_code(args.code)
    if args.optimal_square:
        if not metadata or metadata.get("family") != "square":
            raise LocrepError(
                "--optimal-square needs a code file with square metadata"
            )
        r, M = metadata["r"], metadata["M"]
        betas, columns = square.square_columns(r, M, code.field)
        if columns != code.columns:
            raise LocrepError(
                "code file does not match the square construction it declares"
            )
        sc = square.SquareCode(r=r, M=M, field=code.field, betas=betas, code=code)
        ok = square.verify_optimal_distance(sc, search_cap=_search_cap())
        expected = bounds.bound_square(sc.n, sc.M, sc.r)
        _emit_json({"ok": ok, "expected_d": expected}, args.output)
        return 0 if ok else 1
    if args.locality is None or args.delta is None:
        raise LocrepError("verify needs --locality and --delta, or --optimal-square")
    ok = regsets.verify_locality(code, args.locality, args.delta)
    _emit_json(
        {"ok": ok, "locality": args.locality, "delta": args.delta}, args.output
    )
    return 0 if ok else 1


@_verb(
    "repair", "plan the repair of erased coordinates",
    _arg("code"),
    _arg("--erase", required=True, help="comma-separated coordinates, e.g. 1,2,5"),
    _arg("--cap", type=int, required=True,
         help="locality cap r (sets of size <= r+1)"),
)
def _cmd_repair(args) -> int:
    code, _ = _load_code(args.code)
    try:
        failed = [int(tok) for tok in args.erase.split(",") if tok]
    except ValueError:
        raise LocrepError(
            f"--erase expects comma-separated coordinates, got {args.erase!r}"
        ) from None
    plan = repair.plan_repair(code, failed, args.cap)
    _emit_json(plan.to_json_dict(), args.output)
    return 0


@_verb(
    "table", "CSV comparing square vs rdc bounds", _arg("--r", type=int, required=True)
)
def _cmd_table(args) -> int:
    _emit(bounds.compare_table_csv(args.r), args.output)
    return 0


def _build_parser(verb: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI parser; with a known ``verb``, only that verb's subparser.

    A call pays for the one verb it names.  The one-verb parser keeps
    the full verb list as the metavar, so its top-level usage line is
    the full parser's.
    """
    parser = argparse.ArgumentParser(
        prog="locrep",
        description="Construct, analyse and repair locally repairable codes.",
    )
    if verb in _VERBS:
        sub = parser.add_subparsers(
            dest="verb", required=True, metavar="{" + ",".join(_VERBS) + "}"
        )
        names = [verb]
    else:
        # argparse's own metavar here: "required: verb" names the dest
        sub = parser.add_subparsers(dest="verb", required=True)
        names = list(_VERBS)
    for name in names:
        summary, arguments, handler = _VERBS[name]
        p = sub.add_parser(name, help=summary)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.add_argument("-o", dest="output", default=None)
        p.set_defaults(func=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantError:
        raise  # a defect in the package, not a bad input: keep the traceback
    except LocrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

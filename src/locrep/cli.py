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
from .errors import LocrepError
from .gf2m import GF2m

SEARCH_CAP_ENV = "LOCREP_SEARCH_CAP"


def _search_cap() -> int:
    raw = os.environ.get(SEARCH_CAP_ENV)
    if raw is None:
        return linear_code.DEFAULT_SEARCH_CAP
    try:
        return int(raw)
    except ValueError:
        raise LocrepError(
            f"{SEARCH_CAP_ENV} must be an integer, got {raw!r}"
        ) from None


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
    with open(path, "r", encoding="utf-8") as fh:
        return linear_code.loads(fh.read())


def _default_size_cap(code, metadata) -> Optional[int]:
    # declared locality bounds the useful regenerating-set size
    if metadata and metadata.get("family") == "square":
        return metadata["r"] + 1
    return None


def _cmd_build(args) -> int:
    field = None
    if args.m is not None:
        field = GF2m(args.m)
    sc = square.build_square_code(args.r, args.M, field=field)
    _emit(linear_code.dumps(sc.code, metadata=sc.metadata()), args.output)
    return 0


def _cmd_distance(args) -> int:
    code, _ = _load_code(args.code)
    d = linear_code.min_distance(code, search_cap=_search_cap())
    _emit_json({"d": d}, args.output)
    return 0


def _cmd_phi(args) -> int:
    code, metadata = _load_code(args.code)
    profile = regsets.phi_profile(
        code,
        x_max=args.x_max,
        size_cap=_default_size_cap(code, metadata),
        search_cap=_search_cap(),
    )
    _emit_json(profile.to_json_dict(), args.output)
    return 0


def _cmd_rho(args) -> int:
    code, metadata = _load_code(args.code)
    value = regsets.rho(
        code,
        size_cap=_default_size_cap(code, metadata),
        search_cap=_search_cap(),
    )
    _emit_json({"rho": value}, args.output)
    return 0


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


def _cmd_verify(args) -> int:
    code, metadata = _load_code(args.code)
    if args.optimal_square:
        if not metadata or metadata.get("family") != "square":
            raise LocrepError(
                "--optimal-square needs a code file with square metadata"
            )
        sc = square.build_square_code(
            metadata["r"], metadata["M"], field=code.field
        )
        if sc.code.columns != code.columns:
            raise LocrepError(
                "code file does not match the square construction it declares"
            )
        ok = square.verify_optimal_distance(sc, search_cap=_search_cap())
        expected = sc.n - sc.M + 1 - bounds.s_value(sc.M, sc.r)
        _emit_json({"ok": ok, "expected_d": expected}, args.output)
        return 0 if ok else 1
    if args.locality is None or args.delta is None:
        raise LocrepError("verify needs --locality and --delta, or --optimal-square")
    ok = regsets.verify_locality(code, args.locality, args.delta)
    _emit_json(
        {"ok": ok, "locality": args.locality, "delta": args.delta}, args.output
    )
    return 0 if ok else 1


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


def _cmd_table(args) -> int:
    _emit(bounds.compare_table_csv(args.r), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locrep",
        description="Construct, analyse and repair locally repairable codes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("build", help="construct a code and write its JSON file")
    p.add_argument("--family", required=True, choices=["square"])
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="field degree override")
    p.add_argument("-o", dest="output", default=None)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("distance", help="exact minimum distance (brute force)")
    p.add_argument("code")
    p.add_argument("-o", dest="output", default=None)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("phi", help="minimum union sizes of regenerating-set chains")
    p.add_argument("code")
    p.add_argument("--x-max", dest="x_max", type=int, required=True)
    p.add_argument("-o", dest="output", default=None)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("rho", help="largest x with phi(x) - x < M/alpha")
    p.add_argument("code")
    p.add_argument("-o", dest="output", default=None)
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("bounds", help="evaluate a closed-form distance bound")
    p.add_argument("--theorem", required=True, choices=list(bounds.THEOREMS))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--rho", type=int, default=None,
                   help="exact rho (general theorem only)")
    p.add_argument("-o", dest="output", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="check locality or square-code optimality")
    p.add_argument("code")
    p.add_argument("--locality", type=int, default=None)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--optimal-square", action="store_true")
    p.add_argument("-o", dest="output", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("repair", help="plan the repair of erased coordinates")
    p.add_argument("code")
    p.add_argument("--erase", required=True,
                   help="comma-separated coordinates, e.g. 1,2,5")
    p.add_argument("--cap", type=int, required=True,
                   help="locality cap r (sets of size <= r+1)")
    p.add_argument("-o", dest="output", default=None)
    p.set_defaults(func=_cmd_repair)

    p = sub.add_parser("table", help="CSV comparing square vs rdc bounds")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("-o", dest="output", default=None)
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LocrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

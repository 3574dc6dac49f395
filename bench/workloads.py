"""The four benchmark workloads: inputs made from a seed, requests, checks.

Every workload is a fixed list of requests, run in passes.  CLI requests
go through ``locrep.cli.main`` in-process and first clear the
``default_modulus`` cache, so each pays what a fresh ``locrep`` process
pays apart from interpreter start-up.  The seed picks each field modulus
from a list of primitive polynomials of degree r^2, the message of every
repair, the order of the erasure patterns and the dimension M of every
``build`` (one of the two smallest).  A square code's matroid depends
only on the GF(2) relations among its cell values, not on the modulus,
so d, phi, rho and their witnesses are the same for every seed and are
checked against fixed values in ``golden.json``.

Why each workload exists, and which layers it should and should not
move, is written down in ``README.md`` beside this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from random import Random
from typing import Any, Callable, Optional

from locrep import bounds, cli, gf2m, linear_code, regsets, repair, square

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())

BOUNDS_ARGS = {
    "general": ["--n", "16", "--M", "6", "--rho", "2"],
    "locality_r": ["--n", "16", "--M", "6", "--r", "3"],
    "lrc": ["--n", "16", "--M", "6", "--r", "3", "--delta", "3"],
    "rdc": ["--n", "16", "--M", "6", "--r", "3", "--delta", "3"],
    "square": ["--n", "16", "--M", "6", "--r", "3"],
}


@dataclass
class Request:
    """One timed operation and the untimed check of its answer.

    ``check`` returns None when the answer is right, else the reason it
    is wrong.  ``golden`` marks answers that must not depend on the seed.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    golden: bool = False


def cli_call(argv: list[str], env: Optional[dict[str, str]] = None):
    """A request body running ``locrep <argv>``; returns (exit code, stdout, stderr)."""
    env = env or {}

    def call():
        gf2m.default_modulus.cache_clear()
        saved = {key: os.environ.get(key) for key in env}
        os.environ.update(env)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            for key, value in saved.items():
                if value is None:
                    del os.environ[key]
                else:
                    os.environ[key] = value
        return code, out.getvalue(), err.getvalue()

    return call


def expect_stdout(expected: str):
    def check(answer):
        status, out, err = answer
        if status != 0:
            return f"exit code {status}: {err.strip()}"
        if out != expected:
            return f"stdout {out[:200]!r} differs from the expected output"
        return None

    return check


def json_stdout(obj: dict) -> str:
    """The bytes ``locrep`` prints for a JSON result."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# The first primitive polynomials z^m + L of each degree, by L.  With a
# primitive modulus z generates the multiplicative group, so building
# the log tables costs the same whichever modulus the seed picks.
PRIMITIVE_MODULI = {
    4: (0x13, 0x19),
    9: (0x211, 0x21B, 0x221, 0x22D, 0x233, 0x259, 0x25F, 0x269, 0x26F, 0x277),
    16: (0x1002D, 0x10039, 0x1003F, 0x10053, 0x100BD, 0x100D7, 0x1012F,
         0x1013D, 0x1014F, 0x1015D),
}


def square_files(rng: Random, workdir: Path, instances, metadata=True):
    """Build, serialise and write square codes; yields (r, M, path, text)."""
    for r, Ms in instances:
        field = gf2m.GF2m(r * r, rng.choice(PRIMITIVE_MODULI[r * r]))
        for M in Ms:
            sc = square.build_square_code(r, M, field=field)
            text = linear_code.dumps(sc.code, metadata=sc.metadata() if metadata else None)
            path = workdir / f"square_r{r}_M{M}{'' if metadata else '_plain'}.json"
            path.write_text(text, encoding="utf-8")
            yield r, M, str(path), text


def setup_distance(rng: Random, workdir: Path) -> list[Request]:
    requests = []
    for r, M, path, _ in square_files(rng, workdir, ((3, range(4, 10)), (4, (5, 16)))):
        # n = 25 is over the default exhaustive-search cap of 24
        env = {cli.SEARCH_CAP_ENV: "25"} if r == 4 else None
        d = (r + 1) ** 2 - M + 1 - bounds.s_value(M, r)
        requests.append(Request(
            f"distance r{r} M{M}",
            cli_call(["distance", path], env),
            expect_stdout(json_stdout({"d": d})),
            golden=True,
        ))
        requests.append(Request(
            f"verify --optimal-square r{r} M{M}",
            cli_call(["verify", path, "--optimal-square"], env),
            expect_stdout(json_stdout({"expected_d": d, "ok": True})),
            golden=True,
        ))
    return requests


def setup_phi(rng: Random, workdir: Path) -> list[Request]:
    requests = []
    # square metadata caps regenerating sets at r+1
    for r, M, path, _ in square_files(rng, workdir, ((2, (3, 4)), (3, range(4, 10)))):
        for verb, extra in (("phi", ["--x-max", "3"]), ("rho", [])):
            label = f"{verb} r{r} M{M}"
            requests.append(Request(
                label,
                cli_call([verb, path] + extra),
                expect_stdout(GOLDEN[label]),
                golden=True,
            ))
    # without metadata the search is exact: every regenerating set counts
    for r, M, path, _ in square_files(rng, workdir, ((3, (4, 5)),), metadata=False):
        label = f"phi exact r{r} M{M}"
        requests.append(Request(
            label,
            cli_call(["phi", path, "--x-max", "2"]),
            expect_stdout(GOLDEN[label]),
            golden=True,
        ))
    return requests


def _repair_op(code, r, pattern, message):
    def call():
        plan = repair.plan_repair(code, pattern, r)
        word = code.encode(message)
        erased = [None if i + 1 in pattern else s for i, s in enumerate(word)]
        return word, repair.execute_repair(erased, plan)

    return call


def _same_word(answer):
    word, repaired = answer
    return None if list(word) == repaired else "repaired word differs from the original"


def _equals(expected):
    return lambda answer: None if answer == expected else f"got {answer!r}, expected {expected!r}"


def setup_repair(rng: Random, workdir: Path) -> list[Request]:
    requests = []
    for r, M, _, text in square_files(rng, workdir, ((2, (3, 4)), (3, range(4, 10)))):
        code, _ = linear_code.loads(text)
        n = code.n
        patterns = [(i,) for i in range(1, n + 1)] + list(combinations(range(1, n + 1), 2))
        rng.shuffle(patterns)
        for pattern in patterns:
            message = [rng.randrange(code.field.order) for _ in range(M)]
            requests.append(Request(
                f"repair r{r} M{M} erase {pattern}",
                _repair_op(code, r, pattern, message),
                _same_word,
            ))
        requests.append(Request(
            f"verify_locality r{r} M{M}",
            lambda code=code, r=r: regsets.verify_locality(code, r, 3),
            _equals(True),
            golden=True,
        ))
        # every square code has repair tolerance exactly 2
        requests.append(Request(
            f"repair_tolerance r{r} M{M}",
            lambda code=code, r=r: repair.repair_tolerance(code, r),
            _equals(2),
            golden=True,
        ))
    return requests


def _check_build(r: int, M: int, expected: str):
    verified = set()

    def check(answer):
        status, out, err = answer
        if status != 0:
            return f"exit code {status}: {err.strip()}"
        if out != expected:
            return "built file differs from the construction over the pinned modulus"
        if out not in verified:
            # identical bytes reload identically, so each distinct file
            # is reloaded once per run
            code, metadata = linear_code.loads(out)
            sc = square.SquareCode(r=r, M=M, field=code.field, betas=(), code=code)
            if metadata != sc.metadata() or not square.verify_grid_relations(sc):
                return "built file fails its grid relations"
            verified.add(out)
        return None

    return check


def setup_build(rng: Random, workdir: Path) -> list[Request]:
    requests = []
    for r in range(2, 7):
        # the two smallest dimensions cost about the same, and their rank
        # check stays small beside field construction
        M = rng.choice((r + 1, r + 2))
        # the expected file is built over the default modulus pinned in
        # golden.json, so it does not run the modulus search under test
        field = gf2m.GF2m(r * r, int(GOLDEN["default_modulus"][str(r * r)], 16))
        sc = square.build_square_code(r, M, field=field)
        expected = linear_code.dumps(sc.code, metadata=sc.metadata()) + "\n"
        requests.append(Request(
            f"build r{r} M{M}",
            cli_call(["build", "--family", "square", "--r", str(r), "--M", str(M)]),
            _check_build(r, M, expected),
        ))
    for r in range(2, 9):
        label = f"table r{r}"
        requests.append(Request(
            label, cli_call(["table", "--r", str(r)]), expect_stdout(GOLDEN[label]), golden=True
        ))
    for theorem, args in BOUNDS_ARGS.items():
        label = f"bounds {theorem}"
        requests.append(Request(
            label,
            cli_call(["bounds", "--theorem", theorem] + args),
            expect_stdout(GOLDEN[label]),
            golden=True,
        ))
    return requests


# name -> (set-up, whether the timed passes follow an untimed warm-up pass)
WORKLOADS = {
    "distance": (setup_distance, False),
    "phi": (setup_phi, False),
    "repair": (setup_repair, True),
    "build": (setup_build, False),
}

"""d, exact rho and phi, and the repair tolerance are matroid invariants.

A coordinate permutation, a nonzero scale on each column and a change
of basis G -> A.G keep the column matroid, so they keep d, rho, exact
phi and the repair tolerance.  Each one changes what the searches see:
the permutation every lex order they follow, the scales and the basis
change every residue, its scaled point and its lead pattern.  These
checks reach square codes past the brute-force oracles, whose own
column order is the only one the grid formulas are checked in
elsewhere.  A copy of one code over GF(2^18), which never fills log
tables, runs every search tableless.
"""

from __future__ import annotations

from functools import reduce
from operator import xor
from random import Random

import pytest

from locrep import (
    GF2m,
    LinearCode,
    bound_square,
    build_square_code,
    matrix_rank,
    min_distance,
    repair_tolerance,
)
from locrep.linear_code import _RankHierarchy
from locrep.regsets import rho
from oracles import square_phi


def _permuted(rng: Random, code: LinearCode) -> LinearCode:
    columns = list(code.columns)
    rng.shuffle(columns)
    return LinearCode(code.field, code.n, code.M, columns)


def _scaled(rng: Random, code: LinearCode) -> LinearCode:
    field = code.field
    columns = []
    for col in code.columns:
        scale = rng.randrange(1, field.order)
        columns.append([field.mul(scale, x) for x in col])
    return LinearCode(field, code.n, code.M, columns)


def _rebased(rng: Random, code: LinearCode) -> LinearCode:
    field, M = code.field, code.M
    while True:
        A = [[rng.randrange(field.order) for _ in range(M)] for _ in range(M)]
        if matrix_rank(field, M, A) == M:
            break
    columns = [
        [reduce(xor, map(field.mul, row, col), 0) for row in A] for col in code.columns
    ]
    return LinearCode(field, code.n, M, columns)


def _check_invariants(r: int, M: int, field=None) -> None:
    code = build_square_code(r, M, field).code
    d = min_distance(code, 25)
    assert d == bound_square(code.n, M, r)
    phi = [square_phi(r, M, x) for x in (1, 2, 3)]
    expected = (d, rho(code, search_cap=25), phi, repair_tolerance(code, r))
    rng = Random(131 * r + M)
    for transform in (_permuted, _scaled, _rebased):
        changed = transform(rng, code)
        assert changed.columns != code.columns
        got = (
            min_distance(changed, 25),
            rho(changed, search_cap=25),
            _RankHierarchy(changed).values(3),
            repair_tolerance(changed, r),
        )
        assert got == expected, transform.__name__


@pytest.mark.parametrize(
    "r, M", [(3, M) for M in range(4, 10)] + [(4, 5), (4, 6), (4, 16)]
)
def test_distance_and_rho_survive_matroid_preserving_transforms(r, M):
    # exact phi(1..3) and the repair tolerance too
    _check_invariants(r, M)


def test_a_tableless_copy_keeps_the_matroid_invariants():
    # GF(2^18) has no log tables, so every push, plane key and
    # 4-coordinate child push multiplies
    field = GF2m(18)
    _check_invariants(3, 6, field)
    assert field._tables() == (None, None)

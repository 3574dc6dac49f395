"""d, exact rho and phi, and the repair tolerance are matroid invariants.

A coordinate permutation, a nonzero scale on each column and a change
of basis G -> A.G keep the column matroid, so they keep d, rho, exact
and capped phi, the repair tolerance and locality.  Each one changes what the searches see:
the permutation every lex order they follow, the scales and the basis
change every residue, its scaled point and its lead pattern.  These
checks reach square codes past the brute-force oracles, whose own
column order is the only one the grid formulas are checked in
elsewhere.  A copy of one code over GF(2^18), which never fills log
tables, runs every search tableless.  Random codes of length 12 to 24
over GF(2), GF(2^4) and GF(2^9), with a zero column and parallel
classes, reach past the oracles too, and meet them where they are small
enough.
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
from locrep.linear_code import _normalized, _RankHierarchy
from locrep.regsets import phi, rho, verify_locality
from oracles import naive_min_distance, nullity_phi, square_phi


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


def _capped_phi(code: LinearCode, r: int) -> list[int]:
    """phi(1..3) over the regenerating sets of at most r+1 members."""
    return [phi(code, x, size_cap=r + 1, search_cap=25) for x in (1, 2, 3)]


def _check_invariants(r: int, M: int, field=None) -> None:
    code = build_square_code(r, M, field).code
    d = min_distance(code, 25)
    assert d == bound_square(code.n, M, r)
    exact = [square_phi(r, M, x) for x in (1, 2, 3)]
    expected = (d, rho(code, search_cap=25), exact, repair_tolerance(code, r),
                _capped_phi(code, r), verify_locality(code, r, 3))
    rng = Random(131 * r + M)
    for transform in (_permuted, _scaled, _rebased):
        changed = transform(rng, code)
        assert changed.columns != code.columns
        got = (
            min_distance(changed, 25),
            rho(changed, search_cap=25),
            _RankHierarchy(changed).values(3),
            repair_tolerance(changed, r),
            _capped_phi(changed, r),
            verify_locality(changed, r, 3),
        )
        assert got == expected, transform.__name__


@pytest.mark.parametrize(
    "r, M", [(3, M) for M in range(4, 10)] + [(4, 5), (4, 6), (4, 16)]
)
def test_distance_and_rho_survive_matroid_preserving_transforms(r, M):
    # exact and capped phi(1..3), the repair tolerance and locality too
    _check_invariants(r, M)


def test_a_tableless_copy_keeps_the_matroid_invariants():
    # GF(2^18) has no log tables, so every push, plane key and
    # 4-coordinate child push multiplies
    field = GF2m(18)
    _check_invariants(3, 6, field)
    assert field._tables() == (None, None)


def _classed_code(rng: Random, field: GF2m, n: int, M: int) -> LinearCode:
    """A random full-rank code with a zero column and parallel classes.

    About one column in five is a scaled copy of an earlier one, and the
    others have mostly random entries, so that d is not small.
    """
    q = field.order
    while True:
        columns = []
        for _ in range(n - 1):
            if columns and rng.random() < 0.2:
                scale = rng.randrange(1, q)
                columns.append([field.mul(scale, x) for x in rng.choice(columns)])
            else:
                columns.append([rng.randrange(q) if rng.random() < 0.8 else rng.randrange(2)
                                for _ in range(M)])
        columns.insert(rng.randrange(n), [0] * M)
        points = [_normalized(field, col) for col in columns if any(col)]
        if len(set(points)) < len(points) and matrix_rank(field, M, columns) == M:
            return LinearCode(field, n, M, columns)


@pytest.mark.parametrize("degree", [1, 4, 9])
@pytest.mark.parametrize(
    "n, M",
    [(12, 4), (14, 6), (14, 9), (16, 5), (18, 7), (20, 8), (20, 12), (22, 9),
     (24, 8), (24, 14), (24, 18)],
)
def test_random_codes_with_parallel_classes_keep_their_invariants(degree, n, M):
    # both sides of duality: M < n/2 is searched on the generator, the
    # rest on the parity-check code.  Over GF(2) every scale is 1 and the
    # plane search's line keys have period 1
    rng = Random(1000 * degree + 50 * n + M)
    code = _classed_code(rng, GF2m(degree), n, M)
    expected = (min_distance(code), _RankHierarchy(code).values(2))
    if n <= 14:
        assert expected == (naive_min_distance(code)[0],
                            [nullity_phi(code, x) for x in (1, 2)])
    for transform in (_permuted, _scaled, _rebased):
        changed = transform(rng, code)
        got = (min_distance(changed), _RankHierarchy(changed).values(2))
        assert got == expected, transform.__name__

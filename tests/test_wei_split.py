"""Wei's duality splits 1..n between the two sides of the flat search.

With best[t] the size of a largest flat of rank t of the generator G,
and phi(x) = n - best*[n-M-x] from the parity-check code H's largest
flats, Wei's duality theorem (IEEE Trans. IT 37, 1991) says that the M
numbers best[t] + 1, t < M, and the n - M numbers phi(1..n-M) are
1..n, each once.  A wrong flat size at any rank of either side breaks
the split, unless a second error offsets it exactly, so this checks
every rank of both searches, past the reach of the brute-force oracles
and on codes that are not square.  The cases cover zero columns,
parallel classes, a large flat of low rank, and fields with no log
tables, one cold and one with none at all.  Codes of length 22 to 24
take seconds each and are checked outside tier-1, by
``tests/check_wei_split.py``.
"""

from __future__ import annotations

from functools import reduce
from operator import xor
from random import Random

import pytest

from locrep import GF2m, LinearCode, matrix_rank
from locrep.linear_code import _dual, _largest_flat

from oracles import random_code


def wei_numbers(code: LinearCode) -> list[int]:
    """best[t] + 1 for t < M, from G's flats, then phi(1..n-M), from H's."""
    n, M = code.n, code.M
    numbers = [_largest_flat(code.field, code._points(), t, 0)[0] + 1 for t in range(M)]
    if M < n:
        dual = _dual(code)
        points = dual._points()
        numbers += [
            n - _largest_flat(dual.field, points, n - M - x, 0)[0]
            for x in range(1, n - M + 1)
        ]
    return numbers


def planted_code(
    rng: Random, field: GF2m, n: int, M: int, zeros: int = 0, scaled: int = 0,
    flat: tuple[int, int] = (0, 0),
) -> LinearCode:
    """A random full-rank code with planted structure, in shuffled order.

    ``zeros`` zero columns, ``scaled`` scaled copies of other columns
    (parallel classes), and ``flat`` = (k, t): k columns in one random
    subspace of rank t, a large flat of low rank.  The other columns
    are random.
    """
    q = field.order
    k, t = flat
    while True:
        basis = [[rng.randrange(q) for _ in range(M)] for _ in range(t)]
        cols = []
        for _ in range(k):
            coeffs = [rng.randrange(q) for _ in range(t)]
            cols.append([
                reduce(xor, (field.mul(c, b[i]) for c, b in zip(coeffs, basis)), 0)
                for i in range(M)
            ])
        while len(cols) < n - zeros - scaled:
            cols.append([rng.randrange(q) for _ in range(M)])
        for _ in range(scaled):
            scale = rng.randrange(1, q)
            cols.append([field.mul(scale, x) for x in rng.choice(cols)])
        cols += [[0] * M for _ in range(zeros)]
        rng.shuffle(cols)
        if matrix_rank(field, M, cols) == M:
            return LinearCode(field, n, M, cols)


def _cases():
    """(id, code) for the tier-1 split checks, n <= 20."""
    rng = Random(223)
    yield "gf16-n16-random", random_code(rng, GF2m(4), 16, 7, require_repairable=False)
    yield "gf2-n18", random_code(rng, GF2m(1), 18, 8, require_repairable=False)
    yield "gf16-n18-zeros-classes", planted_code(rng, GF2m(4), 18, 8, zeros=2, scaled=4)
    yield "gf512-n18-low-rank-flat", planted_code(rng, GF2m(9), 18, 6, flat=(11, 3))
    yield "gf512-n20-low-rank-flat-zero", planted_code(
        rng, GF2m(9), 20, 9, zeros=1, scaled=2, flat=(10, 3))
    yield "gf16-n20", planted_code(rng, GF2m(4), 20, 11, scaled=3)
    yield "gf512-n20-random", random_code(rng, GF2m(9), 20, 8, require_repairable=False)
    # a cold GF(2^16) fills its tables part way; GF(2^17) has none
    warm = planted_code(rng, GF2m(16), 14, 6, zeros=1, scaled=2)
    yield "cold-gf65536-n14", LinearCode(GF2m(16), 14, 6, warm.columns)
    yield "gf131072-n13", planted_code(rng, GF2m(17), 13, 7, zeros=1, scaled=2, flat=(5, 2))


@pytest.mark.parametrize("code", [pytest.param(code, id=name) for name, code in _cases()])
def test_the_flats_of_both_sides_split_one_to_n(code):
    numbers = wei_numbers(code)
    assert sorted(numbers) == list(range(1, code.n + 1)), (numbers, code.columns)


def test_the_planted_codes_hold_what_they_plant():
    # zero columns, parallel classes and a flat of low rank far larger
    # than the rank: the cases the split is meant to reach
    codes = dict(_cases())
    for name in ("gf16-n18-zeros-classes", "gf512-n20-low-rank-flat-zero",
                 "cold-gf65536-n14", "gf131072-n13"):
        points = codes[name]._points()
        assert None in points, name
        nonzero = [point for point in points if point is not None]
        assert len(set(nonzero)) < len(nonzero), name
    for name, k in (("gf512-n18-low-rank-flat", 11), ("gf512-n20-low-rank-flat-zero", 10)):
        assert _largest_flat(codes[name].field, codes[name]._points(), 3, 0)[0] >= k

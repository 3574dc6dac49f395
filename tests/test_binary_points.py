"""Moore codes search their binary matroid: same matroid, same search.

A column (x, x^2, x^4, ..., x^(2^(M-1))) is a row of a Moore matrix, so
a Moore code's column matroid is the binary matroid of its first-row
entries, truncated at rank M, and the exact engines search those m-bit
ints (``LinearCode._points``).  Scaling each column by a nonzero
element keeps the matroid and ends the Moore form, so a scaled copy
runs the same searches on GF(2^m) points.  Both must give the same
answers from the same depth-first search.  A Moore code's dual side is
B*, the dual of that binary matroid, where a copy's is the parity-check
code: the two must still agree, and B*'s answers must equal the
brute-force oracles'.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from operator import xor
from random import Random

import pytest

from locrep import DomainError, GF2m, LinearCode, build_square_code, min_distance
from locrep import linear_code
from locrep.linear_code import (
    _binary_relations,
    _circuits,
    _cobinary_points,
    _contraction,
    _largest_flat,
    _RankHierarchy,
)
from locrep.regsets import phi_profile

from oracles import (
    gf2_rank,
    largest_flat,
    naive_min_distance,
    nullity_phi,
    reference_circuits,
    scaled_copy,
)


def _moore(field: GF2m, betas, M: int) -> LinearCode:
    """The code whose column j is the Frobenius orbit of betas[j]."""
    columns = []
    for x in betas:
        col = [x]
        for _ in range(M - 1):
            col.append(field.frobenius(col[-1], 1))
        columns.append(col)
    return LinearCode(field, len(columns), M, columns)


def _scaled(code: LinearCode, rng: Random) -> LinearCode:
    """A scaled copy of a Moore code, which is none."""
    copy = scaled_copy(code, rng)
    assert not any(type(point) is int for point in copy._points())
    return copy


def _fresh(code: LinearCode) -> LinearCode:
    """The same columns on a cold field, with an empty rank cache."""
    field = code.field
    return LinearCode(GF2m(field.degree, field.modulus), code.n, code.M, code.columns)


def _planted_betas(rng: Random, m: int, n: int, M: int) -> list[int]:
    """n entries of GF(2^m) of GF(2)-rank at least M, with planted relations.

    Zero cells, repeated entries (parallel classes) and entries that
    are the XOR of two or three others, shuffled.
    """
    while True:
        betas = [rng.getrandbits(m) for _ in range(M)]
        while len(betas) < n:
            kind = rng.random()
            if kind < 0.12:
                betas.append(0)
            elif kind < 0.4:
                betas.append(rng.choice(betas))
            elif kind < 0.75:
                x = 0
                for beta in rng.sample(betas, min(len(betas), rng.choice([2, 3]))):
                    x ^= beta
                betas.append(x)
            else:
                betas.append(rng.getrandbits(m))
        rng.shuffle(betas)
        if gf2_rank(betas) >= M:
            return betas


def _random_moore_codes() -> list[LinearCode]:
    """Moore codes over GF(2^9), a cold GF(2^16) and GF(2^17), n <= 12."""
    rng = Random(191)
    codes = []
    for degree in (9, 16, 17):
        for trial in range(6):
            M = 2 + trial % 4
            n = rng.randrange(M + 2, 13)
            codes.append(_moore(GF2m(degree), _planted_betas(rng, degree, n, M), M))
    return codes


def _square_codes() -> list[LinearCode]:
    return [
        build_square_code(r, M).code
        for r, Ms in ((2, (3, 4)), (3, range(4, 10)), (4, (5,)))
        for M in Ms
    ]


def test_the_random_moore_codes_plant_every_relation():
    # zero cells, parallel classes and entries in the span of others
    planted = [code._points() for code in _random_moore_codes()]
    assert all(type(x) is int for betas in planted for x in betas)
    assert sum(0 in betas for betas in planted) >= 3
    nonzero = [[x for x in betas if x] for betas in planted]
    assert sum(len(set(xs)) < len(xs) for xs in nonzero) >= 3
    assert sum(gf2_rank(xs) < len(set(xs)) for xs in nonzero) >= 3


@lru_cache(maxsize=None)
def _pairs() -> list:
    """Each Moore code, cold, with a scaled copy; ids for the parametrization."""
    rng = Random(193)
    codes = _square_codes() + _random_moore_codes()
    return [
        pytest.param(_fresh(code), _scaled(code, rng),
                     id=f"m{code.field.degree}-n{code.n}-M{code.M}-{k}")
        for k, code in enumerate(codes)
    ]


def _traced(monkeypatch, search):
    """search()'s answer and every _count call it made: (flat, line masks)."""
    calls = []
    count = linear_code._FlatSearch._count

    def recording(self, flat, lines):
        calls.append((flat, tuple(lines.values())))
        return count(self, flat, lines)

    with monkeypatch.context() as patch:
        patch.setattr(linear_code._FlatSearch, "_count", recording)
        found = search()
    return found, calls


@pytest.mark.parametrize("moore, copy", _pairs())
def test_the_binary_flat_search_is_the_tuple_flat_search(monkeypatch, moore, copy):
    # every rank below M, with and without an incumbent and a limit: the
    # same (size, mask) and the same _count calls on the same lines.
    # Past 12 columns, only the limits around the largest size
    assert moore._points() == tuple(col[0] for col in moore.columns)
    n, M = moore.n, moore.M

    def both(rank, *args, **kwargs):
        ours = _traced(monkeypatch, lambda: _largest_flat(
            moore.field, moore._points(), rank, *args, **kwargs))
        theirs = _traced(monkeypatch, lambda: _largest_flat(
            copy.field, copy._points(), rank, *args, **kwargs))
        assert ours == theirs, (moore.columns, rank, args, kwargs)
        return ours[0]

    for rank in range(M):
        size, _ = both(rank, 0)
        both(rank, M - 1, (1 << (M - 1)) - 1)
        both(rank, size - 1, 5)
        limits = range(1, n + 2) if n <= 12 else (1, size - 1, size, size + 1)
        for limit in limits:
            both(rank, 0, limit=limit)
    # no log table, however long the search
    assert moore.field._exp is None


@pytest.mark.parametrize("moore, copy", _pairs())
def test_the_binary_circuit_scan_is_the_tuple_circuit_scan(moore, copy):
    # the same circuits and the same rank caches at every cap
    for cap in range(1, moore.M + 2):
        ours, theirs = _fresh(moore), _fresh(copy)
        assert _circuits(ours, cap) == _circuits(theirs, cap), cap
        assert ours._rank_cache == theirs._rank_cache, cap
        assert ours.field._exp is None


@pytest.mark.parametrize("moore, copy", _pairs())
def test_the_binary_answers_are_the_tuple_answers(moore, copy):
    # the distance on its own, and the exact profile whose witness walk
    # runs the contraction searches; the high-rate codes take d and the
    # values from B*, and their copies from the parity-check code
    n, M = moore.n, moore.M
    if n > 16 and M < 8:
        # r = 4, M = 5: the hyperplane only, as the benchmark asks it
        assert min_distance(moore, 25) == min_distance(copy, 25)
        return
    d = min_distance(_fresh(moore))
    assert d == min_distance(_fresh(copy))
    ours, theirs = phi_profile(_fresh(moore)), phi_profile(_fresh(copy))
    assert ours == theirs
    if n <= 10:
        # the oracles multiply, so they run on a field of their own
        oracle = _fresh(moore)
        assert d == naive_min_distance(oracle)[0]
        assert ours.phi[1:] == tuple(
            nullity_phi(oracle, x) for x in range(1, len(ours.phi)))


def test_a_code_one_late_entry_away_from_moore_runs_the_tuple_engines():
    # one entry of a late row changed: the first rows are still Frobenius
    # orbits, but the code is no Moore code, and its answers come from the
    # GF(2^m) engines and equal the brute-force oracles
    rng = Random(197)
    small = [code for code in _random_moore_codes() if code.n <= 9]
    squares = [build_square_code(2, M).code for M in (3, 4)]
    for code in [*squares, *small[:4]]:
        field, n, M = code.field, code.n, code.M
        while True:
            columns = [list(col) for col in code.columns]
            j = rng.randrange(n)
            columns[j][M - 1] ^= 1 << rng.randrange(field.degree)
            try:
                tampered = LinearCode(field, n, M, columns)
            except DomainError:
                # the change cost the generator its full rank
                continue
            break
        assert not any(type(point) is int for point in tampered._points())
        assert min_distance(tampered) == naive_min_distance(tampered)[0]
        for rank in range(M):
            size, members = largest_flat(tampered, rank)
            mask = sum(1 << (i - 1) for i in members)
            assert _largest_flat(field, tampered._points(), rank, 0) == (size, mask)
        for cap in range(1, M + 2):
            ours, reference = _fresh(tampered), _fresh(tampered)
            assert _circuits(ours, cap) == reference_circuits(reference, cap)
            assert ours._rank_cache == reference._rank_cache
        profile = phi_profile(_fresh(tampered))
        assert profile.phi[1:] == tuple(
            nullity_phi(tampered, x) for x in range(1, len(profile.phi)))


def test_the_binary_contraction_is_the_truncated_binary_quotient():
    # each point outside W is congruent to its entry modulo the span of
    # W's entries, two are equal exactly when their entries are, modulo
    # that span, and the rank is M less W's GF(2)-rank, at least 0
    rng = Random(199)
    for code in [build_square_code(3, 5).code, *_random_moore_codes()]:
        betas = code._points()
        for _ in range(20):
            mask = rng.getrandbits(code.n)
            inside = [b for j, b in enumerate(betas) if mask >> j & 1]
            outside = [b for j, b in enumerate(betas) if not mask >> j & 1]
            points, rank = _contraction(code, mask)
            span = gf2_rank(inside)
            assert rank == max(code.M - span, 0)
            assert len(points) == len(outside)
            for point, beta in zip(points, outside):
                assert gf2_rank(inside + [point ^ beta]) == span
            for (p, a), (q, b) in combinations(zip(points, outside), 2):
                assert (p == q) == (gf2_rank(inside + [a ^ b]) == span)
            # the contraction's ranks are the code's, over W
            W = [j + 1 for j in range(code.n) if mask >> j & 1]
            rest = [j + 1 for j in range(code.n) if not mask >> j & 1]
            for k in range(len(rest)):
                S = rng.sample(range(len(rest)), rng.randrange(len(rest) + 1))
                got = min(rank, gf2_rank([points[i] for i in S]))
                expected = code._rank(
                    sum(1 << (i - 1) for i in W + [rest[s] for s in S])
                ) - code._rank(mask)
                assert got == expected, (code.columns, mask, S)


def _betas_of_rank(rng: Random, m: int, n: int, k: int, zeros: int) -> list[int]:
    """n entries of GF(2^m) of GF(2)-rank exactly k, shuffled.

    k independent entries, ``zeros`` zero ones, and the rest repeats of
    earlier entries or XORs of two or three of them.
    """
    while True:
        betas = [rng.getrandbits(m) for _ in range(k)]
        if gf2_rank(betas) == k:
            break
    betas += [0] * zeros
    while len(betas) < n:
        if rng.random() < 0.4:
            betas.append(rng.choice(betas))
        else:
            x = 0
            for beta in rng.sample(betas, min(len(betas), rng.choice([2, 3]))):
                x ^= beta
            betas.append(x)
    rng.shuffle(betas)
    return betas


# (m, n, k, M, zero entries): a Moore code's side goes by n - k against
# M + 1, B* when n - k <= M + 1
_COBINARY_CASES = {
    # k = n <= m: B* has rank 0, and the code is MDS
    "k=n-M1": (6, 6, 6, 1, 0),
    "k=n-M3": (6, 6, 6, 3, 0),
    "k=n-M=n": (6, 6, 6, 6, 0),
    # k = M, on each side of the rule
    "k=M-Bstar": (5, 9, 4, 4, 1),
    "k=M-B": (5, 8, 3, 3, 0),
    # zero entries, B's loops, are B*'s coloops
    "zeros": (5, 9, 5, 4, 2),
    "zeros-M=k": (4, 10, 4, 4, 3),
    # M = 1: every code is a Moore code
    "M1-Bstar": (4, 6, 4, 1, 1),
    "M1-B": (4, 8, 3, 1, 1),
    # n - k = M + 1 and M + 2
    "edge-Bstar": (6, 10, 6, 3, 1),
    "edge-B": (5, 10, 5, 3, 1),
}


@pytest.mark.parametrize("case", sorted(_COBINARY_CASES))
def test_the_binary_dual_side_matches_the_oracles(case):
    # d and phi(1..n-M) on the side the rule picks, the distance asked
    # before the values and after, against the brute-force oracles
    m, n, k, M, zeros = _COBINARY_CASES[case]
    rng = Random(sum(map(ord, case)))
    field = GF2m(m)
    code = _moore(field, _betas_of_rank(rng, m, n, k, zeros), M)
    assert gf2_rank(code._points()) == k
    assert code._points().count(0) >= zeros
    d = naive_min_distance(code)[0]
    if k == n:
        assert d == n - M + 1
    expected = [nullity_phi(code, x) for x in range(1, n - M + 1)]
    for distance_first in (False, True):
        hierarchy = _RankHierarchy(code)
        assert hierarchy.dual is None
        assert (hierarchy.cobinary is not None) == (n - k <= M + 1)
        if distance_first:
            assert hierarchy.distance() == d
        assert hierarchy.values(n) == expected, case
        assert hierarchy.distance() == d
        assert hierarchy.rho() == n - M + 1 - d
    # and the generator side, forced, agrees
    hierarchy = _RankHierarchy(code)
    hierarchy.cobinary = None
    assert (hierarchy.distance(), hierarchy.values(n)) == (d, expected)


def test_random_moore_codes_match_the_oracles_at_every_M():
    # every M up to the entries' GF(2)-rank, so both sides of the rule,
    # on planted repeats, XORs and zeros
    rng = Random(223)
    sides = set()
    for m, n, k in ((4, 9, 4), (5, 9, 5), (6, 10, 6), (9, 8, 7)):
        betas = _betas_of_rank(rng, m, n, k, rng.randrange(3))
        for M in range(1, k + 1):
            code = _moore(GF2m(m), betas, M)
            hierarchy = _RankHierarchy(code)
            sides.add(hierarchy.cobinary is not None)
            values = hierarchy.values(n)
            assert hierarchy.distance() == naive_min_distance(code)[0], (betas, M)
            assert values == [nullity_phi(code, x) for x in range(1, n - M + 1)]
    assert sides == {False, True}


def test_the_binary_dual_points_represent_the_dual_matroid():
    # each relation sums to zero, there are n - k of them, and on every
    # set S the dual's rank is |S| + r(E - S) - k
    rng = Random(227)
    codes = _square_codes() + _random_moore_codes() + [
        _moore(GF2m(m), _betas_of_rank(rng, m, n, k, zeros), 1)
        for m, n, k, _, zeros in _COBINARY_CASES.values()
    ]
    for code in codes:
        betas = code._points()
        n, k = code.n, gf2_rank(betas)
        relations = _binary_relations(betas)
        assert len(relations) == n - k
        for relation in relations:
            assert relation and not reduce(
                xor, (b for j, b in enumerate(betas) if relation >> j & 1), 0)
        points = _cobinary_points(relations, n)
        assert gf2_rank(points) == n - k
        for _ in range(30):
            S = rng.sample(range(n), rng.randrange(n + 1))
            outside = [b for j, b in enumerate(betas) if j not in S]
            assert gf2_rank([points[j] for j in S]) == len(S) + gf2_rank(outside) - k


def test_only_the_binary_dual_side_makes_its_points(monkeypatch):
    # the elimination runs for every Moore code, the points only when
    # n - k <= M + 1; a code that is not Moore runs neither
    made = []
    points = linear_code._cobinary_points

    def recording(relations, n):
        made.append(len(relations))
        return points(relations, n)

    monkeypatch.setattr(linear_code, "_cobinary_points", recording)
    for M in (4, 5, 6, 9):
        _RankHierarchy(build_square_code(3, M).code)
    assert made == [7, 7]
    _RankHierarchy(scaled_copy(build_square_code(3, 9).code, Random(229)))
    assert len(made) == 2

"""Entropy oracle, brute-force distance, decodability, file format."""

from __future__ import annotations

import gc
import json
import re
from functools import reduce
from itertools import combinations
from operator import xor
from random import Random

import pytest

from locrep import (
    DomainError,
    GF2m,
    InvariantError,
    LinearCode,
    SearchCapExceeded,
    bound_square,
    build_square_code,
    erasure_decodable,
    from_json_dict,
    matrix_rank,
    min_distance,
    to_json_dict,
)
from locrep import linear_code
from locrep.linear_code import (
    _circuits,
    _contraction,
    _dual,
    _iter_circuits,
    _largest_flat,
    _normalized,
    _phi_walk,
    _RankHierarchy,
    dumps,
    loads,
)

from locrep.regsets import phi_profile, rho

from oracles import (
    codeword_min_weight,
    contraction,
    largest_flat,
    mismatched_square_files,
    naive_min_distance,
    oracle_codes,
    projective_point,
    random_code,
    reference_circuits,
    reference_dual,
    repetition_code,
    single_parity_code,
    spend_allowance,
    square_distance,
    subset_rank,
)


def test_full_rank_required():
    field = GF2m(4)
    with pytest.raises(DomainError):
        LinearCode(field, 3, 2, [[1, 0], [1, 0], [2, 0]])


def test_full_rank_required_beyond_table_degrees():
    # degree 17 multiplies by shift-and-xor, not log tables
    field = GF2m(17)
    rng = Random(37)
    a, b = rng.randrange(1, field.order), rng.randrange(1, field.order)
    u = [rng.randrange(field.order) for _ in range(3)]
    v = [rng.randrange(field.order) for _ in range(3)]
    w = [field.mul(a, x) ^ field.mul(b, y) for x, y in zip(u, v)]
    with pytest.raises(DomainError):
        LinearCode(field, 4, 3, [u, v, w, w])


@pytest.mark.parametrize("m", [1, 3, 9, 17, 25])
def test_entropy_matches_reference_rank(m):
    # degree 1, log-table fields, and shift-and-xor fields above 16
    rng = Random(100 + m)
    field = GF2m(m)
    for _ in range(6):
        n = rng.randrange(2, 9)
        M = rng.randrange(1, n + 1)
        code = random_code(rng, field, n, M, require_repairable=False)
        coords = list(range(1, n + 1))
        for _ in range(25):
            members = rng.sample(coords, rng.randrange(0, n + 1))
            assert code.entropy(members) == subset_rank(code, members)


def test_dimension_bounds():
    field = GF2m(4)
    with pytest.raises(DomainError):
        LinearCode(field, 2, 3, [[1, 0, 0], [0, 1, 0]])


@pytest.mark.parametrize(
    "n, M, message",
    [
        (3.0, 2, "code length n must be an integer, got 3.0"),
        (True, 1, "code length n must be an integer, got True"),
        (3, True, "code dimension M must be an integer, got True"),
        (3, 2.0, "code dimension M must be an integer, got 2.0"),
        # the range test keeps its own message
        (3, 0, "need 1 <= M <= n, got M=0, n=3"),
        (-1, 2, "need 1 <= M <= n, got M=2, n=-1"),
    ],
)
def test_length_and_dimension_must_be_integers(n, M, message):
    # n = 3.0 once raised TypeError, and M = True built a code whose repr
    # said M=True
    field = GF2m(2)
    with pytest.raises(DomainError, match=re.escape(message)):
        LinearCode(field, n, M, [[1, 0], [0, 1], [1, 1]])


def test_entropy_empty_and_full(square_r2_m3):
    code = square_r2_m3.code
    assert code.entropy([]) == 0
    assert code.entropy(range(1, 10)) == 3


def test_entropy_of_grid_row_is_two(square_r2_m3):
    # the three columns of a grid row sum to zero, dropping one rank
    assert square_r2_m3.code.entropy([1, 2, 3]) == 2


def test_entropy_rejects_out_of_range(square_r2_m3):
    with pytest.raises(DomainError):
        square_r2_m3.code.entropy([0])
    with pytest.raises(DomainError):
        square_r2_m3.code.entropy([10])


def test_entropy_monotone_and_submodular():
    rng = Random(41)
    field = GF2m(3)
    for _ in range(10):
        code = random_code(rng, field, n=7, M=3, require_repairable=False)
        coords = list(range(1, 8))
        for _ in range(30):
            A = frozenset(rng.sample(coords, rng.randrange(0, 8)))
            B = frozenset(rng.sample(coords, rng.randrange(0, 8)))
            hA, hB = code.entropy(A), code.entropy(B)
            assert hA <= code.entropy(A | B)
            assert hA + hB >= code.entropy(A | B) + code.entropy(A & B)


def test_min_distance_repetition():
    assert min_distance(repetition_code()) == 3


def test_min_distance_single_parity():
    assert min_distance(single_parity_code()) == 2


def test_min_distance_square_codes(square_r2_m3, square_r2_m4):
    assert min_distance(square_r2_m3.code) == 6
    assert min_distance(square_r2_m4.code) == 4


def _largest_deficient(code: LinearCode) -> tuple[int, tuple[int, ...]]:
    """Size and lex-first witness of a largest rank-deficient set.

    The generator side of the distance: a largest flat of rank M-1,
    from the first M-1 columns as incumbent.
    """
    floor = code.M - 1
    size, mask = _largest_flat(code.field, code.columns, floor, floor, (1 << floor) - 1)
    return size, tuple(i + 1 for i in range(code.n) if mask >> i & 1)


def test_min_distance_agrees_with_naive_scan():
    rng = Random(43)
    field = GF2m(3)
    for _ in range(15):
        n = rng.randrange(4, 9)
        M = rng.randrange(1, min(n, 5))
        code = random_code(rng, field, n, M, require_repairable=False)
        d_naive, witness_naive = naive_min_distance(code)
        size, witness = _largest_deficient(code)
        assert code.n - size == d_naive
        assert witness == witness_naive


def _cornered_code(rng: Random, field: GF2m, n: int, M: int) -> LinearCode:
    """A random full-rank code with zero, scaled and sparse columns.

    Half the entries are 0 or 1, so that large deficient sets beyond
    the trivial M-1 columns are common even over big fields.
    """
    q = field.order
    while True:
        cols = []
        for _ in range(n):
            kind = rng.random()
            if kind < 0.15:
                cols.append([0] * M)
            elif kind < 0.4 and cols:
                scale = rng.randrange(1, q)
                cols.append([field.mul(scale, x) for x in rng.choice(cols)])
            else:
                cols.append([rng.randrange(q) if rng.random() < 0.5
                             else rng.randrange(2) for _ in range(M)])
        if matrix_rank(field, M, cols) == M:
            return LinearCode(field, n, M, cols)


@pytest.mark.parametrize("degree", [1, 2, 3, 8, 16, 17])
def test_max_deficient_agrees_with_the_naive_scan(degree):
    # size and lex-first witness.  Degree 8's modulus 0x11b has no
    # primitive z, so its logs are to base 3; degree 16 is the largest
    # with log tables, and degree 17 has none
    field = GF2m(degree)
    rng = Random(79 + degree)
    for _ in range(16):
        n = rng.randrange(3, 9)
        for M in sorted({1, 2, n - 1, rng.randrange(1, n)}):
            code = _cornered_code(rng, field, n, M)
            d, witness = naive_min_distance(code)
            assert _largest_deficient(code) == (n - d, witness), code.columns
    # every column but the first is deficient, since the first alone
    # reaches the last message symbol: the bound at the root is tight
    for n, M in ((4, 3), (6, 3), (7, 5)):
        cols = [[0] * (M - 1) + [1]]
        while matrix_rank(field, M, cols[1:]) < M - 1:
            cols[1:] = [[rng.randrange(field.order) for _ in range(M - 1)] + [0]
                        for _ in range(n - 1)]
        code = LinearCode(field, n, M, cols)
        d, witness = naive_min_distance(code)
        assert d == 1
        assert _largest_deficient(code) == (n - 1, witness), code.columns


@pytest.mark.parametrize("degree", [1, 2, 3, 8, 16, 17])
def test_largest_flat_agrees_with_the_oracle_at_every_rank(degree):
    # size and lex-first witness on bare columns, zero and scaled ones
    # included; below rank M-1 the last push groups in the log domain,
    # to base 3 at degree 8, and degree 17 has no log tables
    field = GF2m(degree)
    rng = Random(83 + degree)
    for _ in range(10):
        n = rng.randrange(3, 9)
        code = _cornered_code(rng, field, n, rng.randrange(1, n))
        for rank in range(code.M):
            size, witness = largest_flat(code, rank)
            mask = sum(1 << (i - 1) for i in witness)
            assert _largest_flat(field, code.columns, rank, 0) == (size, mask), (
                code.columns, rank)
            # an incumbent at least as large comes back unchanged
            assert _largest_flat(field, code.columns, rank, size, 5) == (size, 5)
            # with a limit the search may stop on a set inside a flat, but
            # it reaches the limit exactly when a flat does, and a limit
            # it never reaches leaves the answer exact
            for limit in range(1, n + 2):
                found = _largest_flat(field, code.columns, rank, 0, limit=limit)
                assert (found[0] >= limit) == (size >= limit), (
                    code.columns, rank, limit)
                if limit > size:
                    assert found == (size, mask)
            found, _ = _largest_flat(field, code.columns, rank, 0, limit=size)
            assert found == size


# per distance search: the flat search's pushes through _push_normalized
# (calls, points written), its 4-coordinate pushes through _plane_points
# (calls, points written), its plane pivots through _plane_lines (calls,
# points keyed) and the last level's counts (calls, columns keyed)
_PINNED_WORK = {
    (3, 7): {"push": (161, 1317), "plane_points": (302, 1818),
             "plane_lines": (625, 2865), "last": (625, 3015)},
    (3, 8): {"push": (577, 3210), "plane_points": (0, 0),
             "plane_lines": (0, 0), "last": (472, 2433)},
    (4, 5): {"push": (20, 290), "plane_points": (210, 2170),
             "plane_lines": (1540, 11935), "last": (1540, 11935)},
}


def _distance_work(monkeypatch, code: LinearCode) -> tuple[int, dict]:
    """min_distance(code) and the flat search work it does, as _PINNED_WORK counts it."""
    seen: dict = {"push": [], "plane_points": [], "plane_lines": [], "last": []}
    push = linear_code._push_normalized
    plane_points = linear_code._plane_points
    plane_lines = linear_code._plane_lines
    count = linear_code._FlatSearch._count

    def counting_push(*args):
        out = push(*args)
        seen["push"].append(len(out))
        return out

    def counting_plane_points(*args):
        out = plane_points(*args)
        seen["plane_points"].append(len(out))
        return out

    def counting_plane_lines(field, pivot, items):
        items = list(items)
        seen["plane_lines"].append(len(items))
        return plane_lines(field, pivot, items)

    def counting_last(self, flat, lines):
        seen["last"].append(sum(line.bit_count() for line in lines.values()))
        return count(self, flat, lines)

    with monkeypatch.context() as patch:
        patch.setattr(linear_code, "_push_normalized", counting_push)
        patch.setattr(linear_code, "_plane_points", counting_plane_points)
        patch.setattr(linear_code, "_plane_lines", counting_plane_lines)
        patch.setattr(linear_code._FlatSearch, "_count", counting_last)
        d = min_distance(code, code.n)
    return d, {name: (len(sizes), sum(sizes)) for name, sizes in seen.items()}


@pytest.mark.parametrize("r, M", sorted(_PINNED_WORK))
def test_flat_search_work_is_pinned(monkeypatch, r, M):
    # the pushes at each depth and what they write are deterministic; a
    # push that writes a class below its pivot, or one parallel to it,
    # or a last push of a class an earlier push at the same flat closed
    # over, reads more.  r = 3, M = 8 is searched on the dual side,
    # below its hyperplane rank, so it makes no plane push
    code = build_square_code(r, M).code
    d, work = _distance_work(monkeypatch, code)
    assert d == bound_square(code.n, M, r)
    assert work == _PINNED_WORK[r, M]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("r, M", [(3, 5), (3, 6), (3, 7), (4, 5)])
def test_scaled_copies_add_no_push(monkeypatch, r, M, k):
    # every column k times, the copies scaled: each parallel class enters
    # the search as one weighted column, so the search makes the same
    # pushes of the same sizes and keys k times the columns.  Every
    # codeword's weight is k times, and so is d
    code = build_square_code(r, M).code
    field = code.field
    rng = Random(179 * k + 10 * r + M)
    columns = list(code.columns)
    for _ in range(k - 1):
        for col in code.columns:
            scale = rng.randrange(2, field.order)
            columns.append([field.mul(scale, x) for x in col])
    copies = LinearCode(field, k * code.n, M, columns)
    d, work = _distance_work(monkeypatch, code)
    d_copies, work_copies = _distance_work(monkeypatch, copies)
    assert d_copies == k * d == k * bound_square(code.n, M, r)
    assert work_copies["push"] == work["push"]
    assert work_copies["plane_points"] == work["plane_points"]
    assert work_copies["plane_lines"] == work["plane_lines"]
    calls, keyed = work["last"]
    assert work_copies["last"] == (calls, k * keyed)


def _plane_code(rng: Random, field: GF2m, n: int, D: int) -> LinearCode:
    """A random full-rank code that reaches every branch of the plane kernel.

    Zero columns, runs of parallel columns (scaled copies, which the
    depth-2 greedy test and the closures meet), columns that lead after
    coordinate 0, so that residues lead at coordinates 1 and 2 under
    pivots of every lead, and sparse columns.
    """
    q = field.order
    while True:
        cols: list[list[int]] = []
        for _ in range(n):
            kind = rng.random()
            if kind < 0.1:
                cols.append([0] * D)
            elif kind < 0.35 and cols:
                scale = rng.randrange(1, q)
                cols.append([field.mul(scale, x) for x in rng.choice(cols)])
            elif kind < 0.65:
                lead = rng.randrange(1, D)
                cols.append([0] * lead + [rng.randrange(1, q)] + [
                    rng.randrange(q) if rng.random() < 0.5 else rng.randrange(2)
                    for _ in range(D - lead - 1)
                ])
            else:
                cols.append([rng.randrange(q) if rng.random() < 0.5
                             else rng.randrange(2) for _ in range(D)])
        if matrix_rank(field, D, cols) == D:
            return LinearCode(field, n, D, cols)


def _check_hyperplane_certificate(code: LinearCode, d: int) -> None:
    """The generator-side search's hyperplane: a certificate that d is reached.

    Its mask has rank M-1 and n-d members, and each column outside it
    raises the rank to M, so it is a flat: a hyperplane, whose
    complement, of d columns, is the support of a codeword.
    """
    M = code.M
    size, mask = _largest_flat(code.field, code.columns, M - 1, M - 1, (1 << (M - 1)) - 1)
    assert size == mask.bit_count() == code.n - d
    assert code._rank(mask) == M - 1
    for j in range(code.n):
        if not mask >> j & 1:
            assert code._rank(mask | 1 << j) == M, (j, mask)


@pytest.mark.parametrize(
    "r, M", [(3, M) for M in range(4, 10)] + [(4, 5), (4, 16)]
)
def test_the_hyperplane_certifies_the_distance_of_square_codes(r, M):
    # the instances of the benchmark's distance workload, whose d the
    # paper's bound and the grid formula both give
    code = build_square_code(r, M).code
    d = bound_square(code.n, M, r)
    assert d == square_distance(r, M)
    _check_hyperplane_certificate(code, d)


def test_the_hyperplane_certifies_the_distance_of_random_codes():
    # parallel classes and zero columns, d from the brute-force scan
    rng = Random(181)
    for degree, D in ((1, 3), (4, 4), (9, 5)):
        field = GF2m(degree)
        while True:
            code = _plane_code(rng, field, rng.randrange(D + 5, 13), D)
            points = [_normalized(field, col) for col in code.columns]
            nonzero = [point for point in points if point is not None]
            if len(nonzero) < len(points) and len(set(nonzero)) < len(nonzero):
                break
        _check_hyperplane_certificate(code, naive_min_distance(code)[0])


@pytest.mark.parametrize("degree", [1, 2, 4, 9, 16, 17, "cold"])
def test_the_plane_kernel_agrees_with_the_oracle(degree):
    # the hyperplane search, rank D-1 on D-coordinate columns, runs its
    # last two levels on normalized points: D = 3 starts at depth 1, D = 4
    # at depth 2 and D = 5 one level above.  Size and lex-first witness,
    # with and without an incumbent and a limit.  Degree 16 has log
    # tables, degree 17 none, and a "cold" GF(2^16) has a few tableless
    # products left, so its tables fill part way through the search
    cold = degree == "cold"
    rng = Random(113 if cold else 113 + degree)
    field = GF2m(16 if cold else degree)
    fills = 0
    for trial in range(12):
        D = 3 + trial % 3
        n = rng.randrange(D + 2, 13)
        code = _plane_code(rng, field, n, D)
        size, witness = largest_flat(code, D - 1)
        mask = sum(1 << (i - 1) for i in witness)

        def search(*args, **kwargs):
            return _largest_flat(field, code.columns, D - 1, *args, **kwargs)

        if cold:
            searched = spend_allowance(GF2m(16), rng.choice([1, 4, 16, 64]))
            found = _largest_flat(searched, code.columns, D - 1, 0)
            assert found == (size, mask), code.columns
            fills += searched._exp is not None
        assert search(0) == (size, mask), (code.columns, degree)
        # an incumbent at least as large comes back unchanged, and one
        # just below the largest is replaced by it
        assert search(size, 5) == (size, 5)
        assert search(size - 1, 5) == (size, mask)
        for limit in range(1, n + 2):
            found = search(0, limit=limit)
            assert (found[0] >= limit) == (size >= limit), (code.columns, limit)
            if limit > size:
                assert found == (size, mask)
    if cold:
        assert fills
    elif degree > 16:
        assert field._exp is None


@pytest.mark.parametrize("degree", [1, 4, 16, 17])
def test_the_written_out_plane_push_is_the_general_push(degree):
    # 4-coordinate points under a pivot that leads at 0, none equal to
    # it: dense entries, so that a point leading at 0 rarely keeps a
    # leading 1 after the XOR and is scaled again, with or without log
    # tables
    rng = Random(167 + degree)
    field = spend_allowance(GF2m(degree)) if degree == 16 else GF2m(degree)
    q = field.order
    for _ in range(200):
        pivot = (1, *(rng.randrange(q) for _ in range(3)))
        points = []
        while len(points) < 8:
            point = _normalized(field, [rng.randrange(q) if rng.random() < 0.7 else 0
                                        for _ in range(4)])
            if point is not None and point != pivot:
                points.append(point)
        assert linear_code._plane_points(field, pivot, points) == (
            linear_code._push_normalized(field, points, pivot)), (pivot, points)


def test_a_last_level_pushes_no_column_it_closed_over(monkeypatch):
    # parallel columns are one class before the search starts, so the
    # closure comes from collinear columns: u + s.v lies on the line
    # through u and v, so once v is pushed, u and u + s.v share a point.
    # Rank 3 on 5 coordinates pushes at depth 3 and then visits depth 2,
    # which must get them as one class and push that class once
    rng = Random(173)
    field = GF2m(3)
    # per depth-2 visit, the pivots it pushed; the one running, or None
    levels: list = []
    level = None
    merged: list = []
    push = linear_code._push_normalized
    plane_points = linear_code._plane_points
    visit = linear_code._FlatSearch.visit

    def recording_push(field, points, pivot):
        if level is not None:
            level.append(pivot)
        return push(field, points, pivot)

    def recording_plane_points(field, pivot, points):
        if level is not None:
            level.append(pivot)
        return plane_points(field, pivot, points)

    def recording_visit(self, flat, left, classes, depth):
        nonlocal level
        if depth != 2:
            return visit(self, flat, left, classes, depth)
        level = []
        levels.append(level)
        merged.extend(mask.bit_count() for mask in classes.values())
        try:
            return visit(self, flat, left, classes, depth)
        finally:
            level = None

    monkeypatch.setattr(linear_code, "_push_normalized", recording_push)
    monkeypatch.setattr(linear_code, "_plane_points", recording_plane_points)
    monkeypatch.setattr(linear_code._FlatSearch, "visit", recording_visit)
    for _ in range(20):
        # 7 random columns, and 5 more each on the line through two of them
        base = [[rng.randrange(8) for _ in range(5)] for _ in range(7)]
        cols = [list(col) for col in base]
        for _ in range(5):
            u, v = rng.sample(base, 2)
            scale = rng.randrange(1, 8)
            cols.append([x ^ field.mul(scale, y) for x, y in zip(u, v)])
        rng.shuffle(cols)
        if matrix_rank(field, 5, cols) < 4:
            continue
        levels.clear()
        merged.clear()
        _largest_flat(field, cols, 3, 0)
        assert levels and all(len(set(level)) == len(level) for level in levels)
        assert max(map(len, levels)) > 1
        # some class entering depth 2 holds two collinear columns
        assert max(merged) > 1


def test_contraction_ranks_are_ranks_over_the_contracted_set():
    rng = Random(89)
    for degree in (1, 3):
        field = GF2m(degree)
        for _ in range(12):
            n = rng.randrange(2, 8)
            code = _cornered_code(rng, field, n, rng.randrange(1, n + 1))
            W = [i for i in range(1, n + 1) if rng.random() < 0.4]
            mask = sum(1 << (i - 1) for i in W)
            rest = [i for i in range(1, n + 1) if i not in W]
            columns = _contraction(field, code.columns, mask)
            assert len(columns) == len(rest)
            rank = code.M - subset_rank(code, W)
            assert all(len(col) == rank for col in columns)
            for size in range(len(rest) + 1):
                for S in combinations(range(len(rest)), size):
                    expected = (subset_rank(code, W + [rest[k] for k in S])
                                - subset_rank(code, W))
                    got = matrix_rank(field, rank, [columns[k] for k in S]) if rank else 0
                    assert got == expected, (code.columns, W, S)


@pytest.mark.parametrize("degree", [1, 3, 8, 16, 17])
def test_contraction_agrees_with_the_plain_elimination(degree):
    # the same coordinates, each column scaled to a leading 1, and a zero
    # residue is a zero tuple as long as the others
    rng = Random(151 + degree)
    field = GF2m(degree)
    for _ in range(30):
        M = rng.randrange(1, 7)
        n = rng.randrange(M, 12)
        code = _cornered_code(rng, field, n, M)
        mask = rng.getrandbits(n)
        expected = contraction(field, code.columns, mask)
        got = _contraction(field, code.columns, mask)
        assert got == [projective_point(field, col) or col for col in expected], (
            code.columns, mask)


def test_circuit_generator_stops_ranking_when_the_caller_stops():
    code = build_square_code(3, 6).code
    first = next(_iter_circuits(code, code.n))
    partial = len(code._rank_cache)
    full = _circuits(code, code.n)
    assert full[0] == first
    assert partial < len(code._rank_cache)


def test_min_distance_agrees_with_codeword_enumeration(square_r2_m3, square_r2_m4):
    # full enumeration of (2^4)^M messages; exact for full-rank linear codes
    for sc in (square_r2_m3, square_r2_m4):
        assert codeword_min_weight(sc.code) == min_distance(sc.code)
    rng = Random(47)
    field = GF2m(2)
    for _ in range(5):
        code = random_code(rng, field, n=6, M=3, require_repairable=False)
        assert codeword_min_weight(code) == min_distance(code)


def test_min_distance_refuses_large_instances(square_r2_m3):
    with pytest.raises(SearchCapExceeded):
        min_distance(square_r2_m3.code, search_cap=8)


@pytest.mark.parametrize(
    "cap, message",
    [
        pytest.param(0, "search cap must be >= 1, got 0", id="0"),
        pytest.param(-3, "search cap must be >= 1, got -3", id="-3"),
        pytest.param(2.5, "search cap must be an integer, got 2.5", id="2.5"),
        pytest.param(True, "search cap must be an integer, got True", id="True"),
    ],
)
def test_search_cap_must_be_a_positive_integer(square_r2_m3, cap, message):
    with pytest.raises(DomainError) as info:
        min_distance(square_r2_m3.code, search_cap=cap)
    assert str(info.value) == message
    assert not isinstance(info.value, SearchCapExceeded)
    # the smallest valid cap is still a cap, not a malformed one
    with pytest.raises(SearchCapExceeded):
        min_distance(square_r2_m3.code, search_cap=1)


def _coloop_code() -> LinearCode:
    # coordinate 4 alone reaches the third message symbol: a coloop
    field = GF2m(3)
    columns = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 2, 0]]
    return LinearCode(field, 5, 3, columns)


def _dual_test_codes(square_r2_m3, square_r2_m4) -> list[LinearCode]:
    """The oracle codes, a code with a coloop and six random GF(8) codes; M < n."""
    codes = oracle_codes(square_r2_m3.code, square_r2_m4.code, _coloop_code())
    rng = Random(59)
    field = GF2m(3)
    for _ in range(6):
        n = rng.randrange(3, 9)
        codes.append(random_code(rng, field, n, rng.randrange(1, n),
                                 require_repairable=False))
    return codes


def _is_orthogonal(code: LinearCode, dual: LinearCode) -> bool:
    mul = code.field.mul
    for g in range(code.M):
        for h in range(dual.M):
            s = 0
            for gen, par in zip(code.columns, dual.columns):
                s ^= mul(gen[g], par[h])
            if s:
                return False
    return True


@pytest.fixture(scope="module")
def square_r3_codes():
    field = GF2m(9)
    return [build_square_code(3, M, field=field).code for M in range(4, 10)]


def test_dual_is_orthogonal_with_rank_n_minus_M(
    square_r2_m3, square_r2_m4, square_r3_codes
):
    codes = _dual_test_codes(square_r2_m3, square_r2_m4) + square_r3_codes
    for code in codes:
        dual = _dual(code)
        assert (dual.n, dual.M, dual.field) == (code.n, code.n - code.M, code.field)
        assert _is_orthogonal(code, dual), code
        assert subset_rank(dual, range(1, code.n + 1)) == code.n - code.M


def test_dual_rank_is_the_dual_matroid_rank(square_r2_m3, square_r2_m4):
    # rank*(X) = |X| + rank(E \ X) - M, for every subset X
    for code in _dual_test_codes(square_r2_m3, square_r2_m4):
        dual = _dual(code)
        n, M = code.n, code.M
        for mask in range(1 << n):
            X = [i + 1 for i in range(n) if (mask >> i) & 1]
            rest = [i + 1 for i in range(n) if not (mask >> i) & 1]
            assert subset_rank(dual, X) == len(X) + subset_rank(code, rest) - M


def test_dual_turns_coloops_into_zero_columns():
    dual = _dual(_coloop_code())
    assert dual.columns[3] == (0, 0)
    assert min_distance(_coloop_code()) == 1


def test_dual_rejects_a_parity_check_that_is_not_orthogonal(monkeypatch):
    code = single_parity_code()
    real = linear_code._echelon

    def corrupted(code):
        rows, pivots = real(code)
        rows[0][-1] ^= 1
        return rows, pivots

    monkeypatch.setattr(linear_code, "_echelon", corrupted)
    with pytest.raises(InvariantError):
        _dual(code)


@pytest.mark.parametrize("degree", [1, 2, 4, 9, 16, 17])
def test_dual_equals_the_reference_dual(degree):
    # the echelon form is unique, so the packed elimination and the field
    # elimination give the same H; the codes have zero, repeated and
    # scaled columns, a leading column that is no pivot, and M = n - 1 at
    # n = 2, 4, 8.  _dual runs on a fresh field, which at degree 16 has
    # no tables, while building the codes fills them
    rng = Random(97 + degree)
    field = GF2m(degree)
    for n, M in ((2, 1), (4, 3), (6, 3), (8, 7), (10, 4), (12, 6)):
        base = _cornered_code(rng, field, n - 1, M).columns
        for cols in (
            [[0] * M, *base],
            [*base, rng.choice(base)],
            _cornered_code(rng, field, n, M).columns,
        ):
            code = LinearCode(field, n, M, cols)
            cold = LinearCode(GF2m(degree), n, M, cols)
            assert _dual(cold).columns == reference_dual(code).columns, cols


def test_a_cold_dual_distance_makes_no_tables():
    # r = 4, M = 16 is searched on the dual side: _dual spends 16
    # inversions and H's search fewer than the 256 of the allowance
    code = build_square_code(4, 16).code
    assert min_distance(code, 25) == bound_square(code.n, 16, 4)
    assert code.field._exp is None


def test_a_cold_primal_distance_fills_the_tables():
    # r = 4, M = 5's hyperplane search multiplies thousands of times, so
    # the allowance runs out early and the search finishes on tables
    code = build_square_code(4, 5).code
    assert min_distance(code, 25) == bound_square(code.n, 5, 4)
    assert code.field._exp is not None


def test_a_flat_search_that_fills_the_tables_part_way():
    # columns 2..k+1 span a hyperplane that column 1 is outside, so the
    # largest flat is found only after the first top-level push, and a
    # random change of basis keeps it off the coordinate axes.  Wherever
    # the fill lands, the answer is the warm field's: no push may read
    # row elements cached before the fill as logs
    rng = Random(107)
    warm = spend_allowance(GF2m(16))
    q = warm.order
    for n, M, k in ((10, 4, 7), (12, 5, 8)):
        while True:
            hidden = [[rng.randrange(q) for _ in range(M - 1)] + [0] for _ in range(k)]
            free = [[rng.randrange(1, q) for _ in range(M)] for _ in range(n - k)]
            basis = [[rng.randrange(q) for _ in range(M)] for _ in range(M)]
            cols = [[reduce(xor, map(warm.mul, row, col)) for row in basis]
                    for col in free[:1] + hidden + free[1:]]
            if matrix_rank(warm, M, cols) == M:
                break
        expected = (k, ((1 << k) - 1) << 1)
        assert _largest_flat(warm, cols, M - 1, 0) == expected
        for products in range(1, 60, 3):
            field = spend_allowance(GF2m(16), products)
            assert _largest_flat(field, cols, M - 1, 0) == expected, products


def _cold_and_warm_cases():
    """(degree, n, M, columns) of square r=3 M=8, r=4 M=16 and random codes."""
    for r, M in ((3, 8), (4, 16)):
        code = build_square_code(r, M).code
        yield r * r, code.n, M, code.columns
    rng = Random(101)
    for degree in (9, 16):
        field = GF2m(degree)
        for n, M in ((7, 2), (8, 5), (9, 3), (10, 8)):
            yield degree, n, M, _cornered_code(rng, field, n, M).columns


def test_answers_do_not_depend_on_when_the_tables_are_filled():
    # a search that starts without tables and fills them part way must
    # never read an element as a log: on a fresh field per answer, the
    # distance, rho and the exact profile, witnesses included, match the
    # answers on a field filled beforehand
    for degree, n, M, columns in _cold_and_warm_cases():
        warm = spend_allowance(GF2m(degree))
        answers = []
        for field_of in (lambda: GF2m(degree), lambda: warm):
            answers.append((
                min_distance(LinearCode(field_of(), n, M, columns), 25),
                rho(LinearCode(field_of(), n, M, columns), search_cap=25),
                phi_profile(LinearCode(field_of(), n, M, columns), search_cap=25),
            ))
        assert answers[0] == answers[1], columns


def test_min_distance_of_a_code_with_M_equal_n_builds_no_dual(monkeypatch):
    def refuse(code):
        raise AssertionError("M = n has no dual to build")

    monkeypatch.setattr(linear_code, "_dual", refuse)
    rng = Random(61)
    for n in (1, 3, 6):
        code = random_code(rng, GF2m(2), n, n, require_repairable=False)
        assert min_distance(code) == 1
        assert naive_min_distance(code)[0] == 1


def test_min_distance_with_M_equal_n_minus_1():
    rng = Random(67)
    for field in (GF2m(1), GF2m(2), GF2m(3)):
        for n in (2, 4, 7):
            code = random_code(rng, field, n, n - 1, require_repairable=False)
            d = min_distance(code)
            assert d == naive_min_distance(code)[0]
            assert d == _phi_walk(_dual(code), 1)[0]
    assert min_distance(single_parity_code()) == 2


def test_both_sides_of_duality_agree(square_r2_m3, square_r2_m4, square_r3_codes):
    codes = _dual_test_codes(square_r2_m3, square_r2_m4) + square_r3_codes
    for code in codes:
        # the generator side, whatever the rate
        hierarchy = _RankHierarchy(code)
        hierarchy.dual = None
        primal = hierarchy.distance()
        assert primal == _phi_walk(_dual(code), 1)[0] == min_distance(code), code


# (size, lex-first witness) of square r=3 M=4..9 over GF(2^9) and
# r=4 M=5, 6 over GF(2^16): too long for the naive scan
PINNED_MAX_DEFICIENT = {
    (3, 4): (4, (1, 2, 3, 4)),
    (3, 5): (5, (1, 2, 3, 4, 5)),
    (3, 6): (7, (1, 2, 3, 4, 5, 9, 13)),
    (3, 7): (8, (1, 2, 3, 4, 5, 6, 7, 8)),
    (3, 8): (10, (1, 2, 3, 4, 5, 6, 7, 8, 9, 13)),
    (3, 9): (12, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 14)),
    (4, 5): (5, (1, 2, 3, 4, 5)),
    (4, 6): (6, (1, 2, 3, 4, 5, 6)),
}


def test_max_deficient_pinned_on_square_codes(square_r3_codes):
    field = GF2m(16)
    codes = {(3, code.M): code for code in square_r3_codes}
    for M in (5, 6):
        codes[4, M] = build_square_code(4, M, field=field).code
    assert {key: _largest_deficient(code) for key, code in codes.items()} == (
        PINNED_MAX_DEFICIENT
    )


def test_distance_searches_leave_no_reference_cycles(square_r3_codes):
    # a cycle would keep each request's field tables alive until the
    # collector runs; M = 4 is searched on the primal side, M = 8 the dual
    gc.collect()
    gc.disable()
    try:
        for code in (square_r3_codes[0], square_r3_codes[4]):
            assert min_distance(code) in (12, 6)
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_smallest_circuit_leaves_the_rank_cache_alone(square_r3_m9):
    dual = _dual(square_r3_m9.code)
    before = dict(dual._rank_cache)
    assert _phi_walk(dual, 1)[0] == 4
    assert dual._rank_cache == before


def test_smallest_circuit_agrees_with_the_reference_circuits(
    square_r2_m3, square_r2_m4
):
    # on each code and its dual, so zero columns (a coloop's image in
    # the dual) and coloops are both covered; the oracle fills the rank
    # cache, so it runs on a fresh copy
    for code in _dual_test_codes(square_r2_m3, square_r2_m4):
        for side in (code, _dual(code)):
            fresh = LinearCode(side.field, side.n, side.M, side.columns)
            smallest = reference_circuits(fresh, side.n)[0].bit_count()
            assert _phi_walk(side, 1)[0] == smallest, side.columns


def test_high_rate_min_distance_agrees_with_the_oracles():
    # 2M >= n routes through the dual code; M = n included
    rng = Random(71)
    for field in (GF2m(1), GF2m(2)):
        for _ in range(12):
            n = rng.randrange(2, 8)
            M = rng.randrange((n + 1) // 2, n + 1)
            code = random_code(rng, field, n, M, require_repairable=False)
            d = min_distance(code)
            assert d == naive_min_distance(code)[0], code
            assert d == codeword_min_weight(code), code


def test_erasure_decodable_basics(square_r2_m3):
    code = square_r2_m3.code
    assert erasure_decodable(code, [])
    assert erasure_decodable(repetition_code(), [1, 2])
    rng = Random(53)
    # d = 6, so every pattern of 5 or fewer erasures is decodable
    for _ in range(50):
        failed = rng.sample(range(1, 10), 5)
        assert erasure_decodable(code, failed)


def test_erasure_tolerance_is_exactly_d_minus_1():
    for code in (repetition_code(), single_parity_code()):
        d = min_distance(code)
        for failed in combinations(range(1, code.n + 1), d - 1):
            assert erasure_decodable(code, failed)
        assert any(
            not erasure_decodable(code, failed)
            for failed in combinations(range(1, code.n + 1), d)
        )


def test_encode_matches_columns(square_r2_m3):
    code = square_r2_m3.code
    # unit message vectors read off generator rows
    for k in range(code.M):
        msg = [1 if i == k else 0 for i in range(code.M)]
        word = code.encode(msg)
        assert word == tuple(col[k] for col in code.columns)


def test_encode_rejects_a_message_of_the_wrong_length(square_r2_m3):
    code = square_r2_m3.code
    for length in (code.M - 1, code.M + 1):
        with pytest.raises(DomainError, match=f"message must have {code.M} symbols"):
            code.encode([1] * length)


@pytest.mark.parametrize("bad", ["bool", "order", "negative"])
def test_encode_checks_every_message_symbol(square_r2_m3, bad):
    # the products are unchecked, so the message is checked where it enters
    code = square_r2_m3.code
    value = {"bool": True, "order": code.field.order, "negative": -1}[bad]
    for k in range(code.M):
        message = [1] * code.M
        message[k] = value
        with pytest.raises(DomainError, match="is not an element"):
            code.encode(message)


def test_json_round_trip(square_r2_m3):
    obj = to_json_dict(square_r2_m3.code, metadata=square_r2_m3.metadata())
    code2, metadata = from_json_dict(obj)
    assert metadata == {"family": "square", "r": 2, "M": 3}
    assert code2.columns == square_r2_m3.code.columns
    assert code2.field == square_r2_m3.code.field
    assert min_distance(code2) == 6


def test_json_format_fields(square_r2_m3):
    obj = to_json_dict(square_r2_m3.code)
    assert obj["q"] == 2
    assert obj["m"] == 4
    assert obj["modulus_hex"] == "13"
    assert obj["n"] == 9 and obj["M"] == 3
    assert len(obj["columns"]) == 9
    assert all(len(col) == 3 for col in obj["columns"])
    # beta_{1,3} = 1 + z encodes as hex 3
    assert obj["columns"][2][0] == "3"


def test_dumps_is_deterministic(square_r2_m4):
    a = dumps(square_r2_m4.code, metadata=square_r2_m4.metadata())
    b = dumps(square_r2_m4.code, metadata=square_r2_m4.metadata())
    assert a == b
    code2, _ = loads(a)
    assert code2.columns == square_r2_m4.code.columns


@pytest.mark.parametrize(
    "case, message",
    [
        ("r-zero", "needs r >= 2, got 0"),
        ("r-one", "needs r >= 2, got 1"),
        ("n-not-square", "r=3 needs n=16, got n=9"),
        ("M-not-the-codes", "M=4 differs from the code's M=3"),
        ("M-below-range", "r=2 needs M in 3..4, got M=2"),
        ("M-above-range", "r=2 needs M in 3..4, got M=9"),
    ],
)
def test_loads_rejects_square_metadata_that_does_not_fit(case, message):
    # the CLI caps regenerating sets at the declared r+1, so r=0 on this
    # code used to report phi [0] and rho 0 (the true rho is 1)
    with pytest.raises(DomainError, match=f"square metadata {message}"):
        loads(mismatched_square_files()[case])


def test_loads_rejects_garbage():
    with pytest.raises(DomainError):
        loads("not json at all {")
    with pytest.raises(DomainError):
        loads(json.dumps({"q": 3, "m": 2, "modulus_hex": "7", "n": 1, "M": 1,
                          "columns": [["1"]]}))

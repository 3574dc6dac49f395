"""Square-code construction, grid relations, rank lemma, optimal distance."""

from __future__ import annotations

from random import Random

import pytest

from locrep import (
    DomainError,
    GF2m,
    LemmaCheck,
    LinearCode,
    build_square_code,
    check_rank_lemma,
    coordinate_of,
    grid_of,
    grid_regsets,
    min_distance,
    s_value,
    verify_grid_relations,
    verify_locality,
    verify_optimal_distance,
)

from locrep.linear_code import dumps, loads
from oracles import (
    gf2_rank,
    random_admissible_grid_subset,
    square_distance,
    square_oracle_applies,
    square_rank,
)


def test_grid_coordinate_bijection():
    for r in (2, 3, 5):
        seen = set()
        for i in range(1, r + 2):
            for j in range(1, r + 2):
                c = coordinate_of(r, i, j)
                assert grid_of(r, c) == (i, j)
                seen.add(c)
        assert seen == set(range(1, (r + 1) ** 2 + 1))
    with pytest.raises(DomainError):
        coordinate_of(2, 0, 1)
    with pytest.raises(DomainError):
        grid_of(2, 10)


@pytest.mark.parametrize(
    "call",
    [
        lambda: coordinate_of(2, 2.0, 1),
        lambda: coordinate_of(2, True, 1.0),
        lambda: coordinate_of(2, 1, "1"),
        lambda: grid_of(2, 2.0),
        lambda: grid_of(2, True),
        lambda: grid_of(2, 0),
    ],
)
def test_grid_helpers_take_only_integer_coordinates(call):
    # the rule LinearCode._coord_mask applies: an integer in range; a
    # float or a bool is not read as the integer it equals
    with pytest.raises(DomainError, match=r"is not in 1\.\."):
        call()


@pytest.mark.parametrize("r", [1, 0, 2.0, True, None])
def test_grid_helpers_check_the_square_shape(r):
    with pytest.raises(DomainError, match="square code"):
        coordinate_of(r, 1, 1)
    with pytest.raises(DomainError, match="square code"):
        grid_of(r, 1)


def test_build_square_r2_m3_betas(square_r2_m3):
    sc = square_r2_m3
    # first basis monomials inside, zero-sum boundary outside
    assert sc.betas[0][:2] == (1, 2)
    assert sc.betas[1][:2] == (4, 8)
    assert sc.betas[0][2] == 3  # 1 + z: characteristic-2 negation is identity
    assert sc.code.n == 9 and sc.code.M == 3
    assert sc.field.degree == 4


def test_build_rejects_bad_parameters():
    with pytest.raises(DomainError):
        build_square_code(1, 2)
    with pytest.raises(DomainError):
        build_square_code(2, 2)  # below r+1
    with pytest.raises(DomainError):
        build_square_code(2, 5)  # above r^2
    with pytest.raises(DomainError):
        build_square_code(2, 3, field=GF2m(3))  # degree < r^2


def test_build_rejects_a_float_locality():
    with pytest.raises(DomainError, match="square code parameter r must be an integer"):
        build_square_code(2.0, 3)


@pytest.mark.parametrize("M", [5, 6, 16])
def test_build_and_serialise_fill_no_tables(monkeypatch, M):
    # the columns are Frobenius orbits, squared without log tables
    def refuse(field):
        raise AssertionError(f"{field!r} filled its log tables")

    monkeypatch.setattr(GF2m, "_build_tables", refuse)
    sc = build_square_code(4, M)
    code, metadata = loads(dumps(sc.code, metadata=sc.metadata()))
    assert code.columns == sc.code.columns
    assert metadata == sc.metadata()
    assert verify_grid_relations(sc)


def test_build_accepts_larger_field():
    # the degree may exceed r^2; the construction only needs r^2
    # independent elements
    sc = build_square_code(2, 3, field=GF2m(5))
    assert verify_grid_relations(sc)
    assert verify_locality(sc.code, 2, 3)


def test_grid_relations_hold_by_construction(square_r2_m3, square_r2_m4, square_r3_m9):
    for sc in (square_r2_m3, square_r2_m4, square_r3_m9):
        assert verify_grid_relations(sc)


def test_grid_relations_detect_perturbation(square_r2_m3):
    sc = square_r2_m3
    cols = [list(col) for col in sc.code.columns]
    cols[4][0] ^= 1  # add a basis vector to one column
    broken = LinearCode(sc.field, sc.code.n, sc.code.M, cols)
    from locrep.square import SquareCode

    perturbed = SquareCode(
        r=sc.r, M=sc.M, field=sc.field, betas=sc.betas, code=broken
    )
    assert not verify_grid_relations(perturbed)


def test_grid_relations_detect_a_swap_within_a_grid_row(square_r2_m3):
    # every grid row still sums to zero; grid columns 1 and 2 do not
    sc = square_r2_m3
    cols = list(sc.code.columns)
    cols[0], cols[1] = cols[1], cols[0]
    swapped = LinearCode(sc.field, sc.code.n, sc.code.M, cols)
    from locrep.square import SquareCode

    perturbed = SquareCode(
        r=sc.r, M=sc.M, field=sc.field, betas=sc.betas, code=swapped
    )
    assert not verify_grid_relations(perturbed)


def test_grid_regsets_cell_11(square_r2_m3):
    row, col = grid_regsets(square_r2_m3, 1, 1)
    assert row.sorted_members() == (1, 2, 3)
    assert col.sorted_members() == (1, 4, 7)
    assert row.members & col.members == {1}


def test_grid_regsets_sizes_and_intersections(square_r3_m9):
    sc = square_r3_m9
    for i in range(1, sc.r + 2):
        for j in range(1, sc.r + 2):
            row, col = grid_regsets(sc, i, j)
            assert len(row.members) == sc.r + 1
            assert len(col.members) == sc.r + 1
            target = coordinate_of(sc.r, i, j)
            assert row.members & col.members == {target}


def test_rank_lemma_example_holds(square_r2_m3):
    # rows 1 and 2 minus one cell each, row 3 untouched
    X = {1, 2, 4, 5}
    assert check_rank_lemma(square_r2_m3, X) is LemmaCheck.HOLDS


def test_rank_lemma_hypotheses_unmet(square_r2_m3):
    assert check_rank_lemma(square_r2_m3, set()) is LemmaCheck.HYPOTHESES_UNMET
    # touches all three grid rows
    all_rows = {1, 4, 7}
    assert (
        check_rank_lemma(square_r2_m3, all_rows) is LemmaCheck.HYPOTHESES_UNMET
    )
    # one full row of r+1 cells exceeds the per-row cap
    full_row = {1, 2, 3, 4}
    assert (
        check_rank_lemma(square_r2_m3, full_row) is LemmaCheck.HYPOTHESES_UNMET
    )


@pytest.mark.parametrize("members", [[2.0, 3.0, 4.0], [1, 2, True], [1, 10]])
def test_rank_lemma_takes_only_coordinates_of_the_code(square_r2_m3, members):
    # [2.0, 3.0, 4.0] once raised TypeError from the grid-row count
    with pytest.raises(DomainError, match=r"is not in 1\.\.9"):
        check_rank_lemma(square_r2_m3, members)


def test_rank_lemma_counts_grid_rows_like_grid_of(square_r2_m4, square_r3_m9):
    # the per-row counts come from the coordinate mask; check the
    # outcome against counts made cell by cell with grid_of
    rng = Random(89)
    for sc in (square_r2_m4, square_r3_m9):
        for _ in range(300):
            X = set(rng.sample(range(1, sc.n + 1), rng.randrange(0, sc.n + 1)))
            per_row = [0] * (sc.r + 1)
            for c in X:
                per_row[grid_of(sc.r, c)[0] - 1] += 1
            admissible = len(X) >= sc.M and max(per_row) <= sc.r and min(per_row) == 0
            expected = (
                LemmaCheck.HOLDS if admissible else LemmaCheck.HYPOTHESES_UNMET
            )
            assert check_rank_lemma(sc, X) is expected, (sc.r, sc.M, sorted(X))


def test_rank_lemma_random_admissible_subsets(square_r2_m4, square_r3_m9):
    rng = Random(83)
    for sc in (square_r2_m4, square_r3_m9):
        for _ in range(200):
            X = random_admissible_grid_subset(rng, sc.r, sc.M)
            assert check_rank_lemma(sc, X) is LemmaCheck.HOLDS


def test_row_spaces_sum_directly():
    # dropping any one grid row leaves beta values spanning everything
    for r, M in ((2, 3), (3, 9)):
        sc = build_square_code(r, M)
        for omit in range(r + 1):
            vecs = [
                sc.betas[i][j]
                for i in range(r + 1)
                if i != omit
                for j in range(r + 1)
            ]
            assert gf2_rank(vecs) == r * r


def test_optimal_distance_r2(square_r2_m3, square_r2_m4):
    assert verify_optimal_distance(square_r2_m3)
    assert verify_optimal_distance(square_r2_m4)


def test_optimal_distance_r3_m9(square_r3_m9):
    # s = 4, so the distance must come out at 16 - 9 + 1 - 4 = 4
    assert s_value(9, 3) == 4
    assert verify_optimal_distance(square_r3_m9)


def test_built_codes_are_repairable(square_r2_m3, square_r3_m9):
    for sc in (square_r2_m3, square_r3_m9):
        assert min_distance(sc.code) >= 2


def test_locality_of_built_codes(square_r2_m3, square_r2_m4):
    for sc in (square_r2_m3, square_r2_m4):
        assert verify_locality(sc.code, sc.r, 3)


def test_closed_form_distance_meets_the_square_bound():
    # the paper's optimality claim, d = n - M + 1 - s, at every M for
    # r = 2..12, against the grid graph's distance
    for r in range(2, 13):
        n = (r + 1) ** 2
        for M in range(r + 1, r * r + 1):
            assert square_distance(r, M) == n - M + 1 - s_value(M, r), (r, M)


@pytest.mark.parametrize(
    "r, M", [(4, 5), (4, 9), (4, 12), (4, 15), (4, 16),
             (5, 6), (5, 12), (5, 20), (5, 25)]
)
def test_rank_matches_the_bond_matroid_oracle(r, M):
    # n = 25 and 36 are past the 2^n oracles; subsets of M-3..M+2r+4
    # cells straddle rank M, so about a fifth are deficient
    sc = build_square_code(r, M)
    field, code = sc.field, sc.code
    assert square_oracle_applies(sc)
    rng = Random(137 + 10 * r + M)
    deficient = 0
    for _ in range(100):
        size = rng.randrange(M - 3, min(code.n, M + 2 * r + 4) + 1)
        mask = sum(1 << i for i in rng.sample(range(code.n), size))
        expected = square_rank(r, M, mask)
        assert code._rank(mask) == expected, (r, M, mask)
        deficient += expected < M
    assert deficient >= 8

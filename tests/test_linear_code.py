"""Entropy oracle, brute-force distance, decodability, file format."""

from __future__ import annotations

import json
from itertools import combinations
from random import Random

import pytest

from locrep import (
    DomainError,
    GF2m,
    LinearCode,
    SearchCapExceeded,
    erasure_decodable,
    from_json_dict,
    min_distance,
    to_json_dict,
)
from locrep.linear_code import _max_deficient, dumps, loads

from oracles import (
    codeword_min_weight,
    naive_min_distance,
    random_code,
    repetition_code,
    single_parity_code,
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


def test_min_distance_agrees_with_naive_scan():
    rng = Random(43)
    field = GF2m(3)
    for _ in range(15):
        n = rng.randrange(4, 9)
        M = rng.randrange(1, min(n, 5))
        code = random_code(rng, field, n, M, require_repairable=False)
        d_naive, witness_naive = naive_min_distance(code)
        size, witness = _max_deficient(code)
        assert code.n - size == d_naive
        assert witness == witness_naive


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


def test_loads_rejects_garbage():
    with pytest.raises(DomainError):
        loads("not json at all {")
    with pytest.raises(DomainError):
        loads(json.dumps({"q": 3, "m": 2, "modulus_hex": "7", "n": 1, "M": 1,
                          "columns": [["1"]]}))

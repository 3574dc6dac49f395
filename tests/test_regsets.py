"""Regenerating sets, nontrivial unions, phi/rho, locality verification."""

from __future__ import annotations

from random import Random

import pytest

from locrep import (
    DomainError,
    GF2m,
    PhiUndefinedError,
    RegeneratingSet,
    SearchCapExceeded,
    bound_general,
    build_square_code,
    check_union_entropy,
    g_function,
    is_nontrivial_union,
    is_regenerating,
    min_distance,
    minimal_regsets,
    phi,
    phi_profile,
    repair_tolerance,
    rho,
    verify_locality,
)
from locrep.linear_code import _circuits

from oracles import (
    all_regenerating_sets,
    exhaustive_phi,
    locality_holds,
    random_code,
    random_nontrivial_chain,
    repetition_code,
    single_parity_code,
)


def _rs(target, members):
    return RegeneratingSet(target, frozenset(members))


def test_regenerating_set_requires_target_membership():
    with pytest.raises(DomainError):
        _rs(1, [2, 3])


def test_full_set_regenerates_every_coordinate(square_r2_m3):
    code = square_r2_m3.code
    everything = range(1, code.n + 1)
    for i in everything:
        assert is_regenerating(code, i, everything)


def test_grid_row_regenerates_its_cells(square_r2_m3):
    assert is_regenerating(square_r2_m3.code, 1, [1, 2, 3])


def test_single_parity_pair_does_not_regenerate():
    assert not is_regenerating(single_parity_code(), 1, [1, 2])


def test_is_regenerating_rejects_foreign_target(square_r2_m3):
    with pytest.raises(DomainError):
        is_regenerating(square_r2_m3.code, 4, [1, 2, 3])


def test_minimal_regsets_square(square_r2_m3):
    sets = minimal_regsets(square_r2_m3.code, 1, 3)
    members = [rs.sorted_members() for rs in sets]
    assert (1, 2, 3) in members  # grid row
    assert (1, 4, 7) in members  # grid column
    assert all(len(m) <= 3 for m in members)


def test_minimal_regsets_repetition():
    sets = minimal_regsets(repetition_code(), 1, 2)
    assert [rs.sorted_members() for rs in sets] == [(1, 2), (1, 3)]


def test_minimal_regsets_single_parity_empty_below_full_support():
    assert minimal_regsets(single_parity_code(), 1, 2) == []
    full = minimal_regsets(single_parity_code(), 1, 4)
    assert [rs.sorted_members() for rs in full] == [(1, 2, 3, 4)]


def test_minimal_regsets_are_inclusion_minimal(square_r2_m3):
    code = square_r2_m3.code
    for target in range(1, code.n + 1):
        sets = minimal_regsets(code, target, code.n)
        masks = [sum(1 << (i - 1) for i in rs.members) for rs in sets]
        for a in range(len(masks)):
            for b in range(len(masks)):
                if a != b:
                    assert masks[a] & masks[b] != masks[a], (
                        "one minimal set contains another"
                    )


def test_nontrivial_union_single_and_pairs(square_r2_m3):
    code = square_r2_m3.code
    row_13 = _rs(3, [1, 2, 3])  # grid row of cell (1,3)
    col_31 = _rs(7, [1, 4, 7])  # grid column of cell (3,1)
    row_11 = _rs(1, [1, 2, 3])
    assert is_nontrivial_union(code, [row_13])
    assert is_nontrivial_union(code, [row_13, col_31])
    assert not is_nontrivial_union(code, [row_13, row_11])


def test_nontrivial_union_rejects_non_regenerating_items():
    code = single_parity_code()
    with pytest.raises(DomainError):
        is_nontrivial_union(code, [_rs(1, [1, 2])])


def test_check_union_entropy_examples(square_r2_m3):
    code = square_r2_m3.code
    assert check_union_entropy(code, [])
    assert check_union_entropy(code, [_rs(1, [1, 2, 3])])
    pair = [_rs(3, [1, 2, 3]), _rs(7, [1, 4, 7])]
    # union has five coordinates, so entropy must be at most 3
    assert check_union_entropy(code, pair)


def test_check_union_entropy_requires_nontrivial_union(square_r2_m3):
    code = square_r2_m3.code
    with pytest.raises(DomainError):
        check_union_entropy(code, [_rs(3, [1, 2, 3]), _rs(1, [1, 2, 3])])


def test_union_entropy_holds_for_random_chains(square_r2_m3, square_r2_m4):
    rng = Random(61)
    field = GF2m(3)
    codes = [square_r2_m3.code, square_r2_m4.code]
    codes += [random_code(rng, field, 8, 4) for _ in range(3)]
    for code in codes:
        minsets = {
            t: minimal_regsets(code, t, code.n) for t in range(1, code.n + 1)
        }
        for _ in range(40):
            chain = random_nontrivial_chain(rng, code, minsets)
            assert is_nontrivial_union(code, chain)
            assert check_union_entropy(code, chain)


def test_phi_base_cases(square_r2_m3):
    code = square_r2_m3.code
    assert phi(code, 0) == 0
    assert phi(code, 1, size_cap=3) == 3
    assert phi(code, 2, size_cap=3) == 5


def test_phi_matches_unrestricted_search(square_r2_m3):
    # minimal-set search must agree with brute force over all
    # regenerating sets; this is the lemma behind the optimisation
    code = square_r2_m3.code
    for x in range(4):
        assert phi(code, x) == exhaustive_phi(code, x)
    rng = Random(67)
    field = GF2m(3)
    for _ in range(6):
        n = rng.randrange(4, 8)
        M = rng.randrange(1, min(n - 1, 4) + 1)
        code = random_code(rng, field, n, M)
        for x in range(3):
            try:
                value = phi(code, x)
            except PhiUndefinedError:
                value = None
            assert value == exhaustive_phi(code, x)


def test_phi_undefined_when_chains_run_out():
    code = repetition_code()
    with pytest.raises(PhiUndefinedError):
        phi(code, 3)  # after two sets every coordinate is covered


def test_phi_rejects_negative_x(square_r2_m3):
    with pytest.raises(DomainError):
        phi(square_r2_m3.code, -1)


def test_phi_respects_search_cap(square_r2_m3):
    with pytest.raises(SearchCapExceeded):
        phi(square_r2_m3.code, 1, search_cap=4)


def test_rho_square_codes(square_r2_m3, square_r2_m4):
    assert rho(square_r2_m3.code, size_cap=3) == 1
    assert rho(square_r2_m4.code, size_cap=3) == 2
    # the cap only prunes the search; the values are cap-independent here
    assert rho(square_r2_m3.code) == 1
    assert rho(square_r2_m4.code) == 2


def test_rho_repetition():
    # phi(1) = 2 and 2 - 1 = 1 is not strictly below M = 1
    code = repetition_code()
    assert rho(code) == 0
    assert min_distance(code) <= bound_general(code.n, code.M, 1, rho(code))


def test_rho_consistent_with_general_bound(square_r2_m3, square_r2_m4):
    for sc in (square_r2_m3, square_r2_m4):
        code = sc.code
        assert min_distance(code) <= bound_general(
            code.n, code.M, 1, rho(code, size_cap=3)
        )


def test_profile_monotone_and_witnessed(square_r2_m3):
    profile = phi_profile(square_r2_m3.code, x_max=3, size_cap=3)
    assert profile.phi == (0, 3, 5, 7)
    assert profile.rho == 1
    assert profile.size_cap == 3
    for x in range(len(profile.phi) - 1):
        assert profile.phi[x + 1] >= profile.phi[x] + 1
    # witnesses achieve the reported sizes and are valid chains
    code = square_r2_m3.code
    for x, chain in enumerate(profile.witnesses):
        assert len(chain) == x
        assert is_nontrivial_union(code, chain)
        union = set()
        for rs in chain:
            union |= rs.members
        assert len(union) == profile.phi[x]


def test_profile_uncapped_uses_larger_minimal_sets(square_r2_m3):
    # with no size cap the search may use minimal sets of four members,
    # which shaves the three-chain union from 7 to 6
    profile = phi_profile(square_r2_m3.code, x_max=3)
    assert profile.phi == (0, 3, 5, 6)


def test_profile_witnesses_leave_coordinates_for_small_x(square_r2_m3):
    profile = phi_profile(square_r2_m3.code, x_max=2, size_cap=3)
    for x in range(profile.rho + 1):
        union = set()
        for rs in profile.witnesses[x]:
            union |= rs.members
        assert len(union) < square_r2_m3.code.n


def test_profile_json_shape(square_r2_m3):
    obj = phi_profile(square_r2_m3.code, x_max=2, size_cap=3).to_json_dict()
    assert obj["phi"] == [0, 3, 5]
    assert obj["rho"] == 1
    assert obj["size_cap"] == 3
    assert obj["witnesses"][1] == [{"target": 1, "members": [1, 2, 3]}]


def test_square_phi_below_g_plus_x(square_r2_m3, square_r2_m4):
    # the 2r+1 alternating row/column chains cap phi(x) at g(x) + x
    for sc in (square_r2_m3, square_r2_m4):
        code = sc.code
        for x in range(2 * sc.r + 2):
            try:
                value = phi(code, x, size_cap=sc.r + 1)
            except PhiUndefinedError:
                break
            assert value <= g_function(x, sc.r) + x


def test_verify_locality_square(square_r2_m3, square_r2_m4):
    assert verify_locality(square_r2_m3.code, 2, 3)
    assert verify_locality(square_r2_m4.code, 2, 3)


def test_verify_locality_repetition():
    assert verify_locality(repetition_code(), 1, 3)


def test_verify_locality_single_parity_fails():
    assert not verify_locality(single_parity_code(), 2, 2)


def test_verify_locality_delta2_matches_small_set_existence(square_r2_m3):
    # with no extra erasures, locality r just means a small set exists
    rng = Random(71)
    field = GF2m(3)
    codes = [square_r2_m3.code, single_parity_code(), repetition_code()]
    codes += [random_code(rng, field, 6, 3) for _ in range(3)]
    for code in codes:
        for r in (1, 2, 3):
            expected = all(
                bool(minimal_regsets(code, i, r + 1))
                for i in range(1, code.n + 1)
            )
            assert verify_locality(code, r, 2) == expected


def test_verify_locality_guards():
    code = repetition_code()
    with pytest.raises(DomainError):
        verify_locality(code, 1, 1)
    with pytest.raises(SearchCapExceeded):
        verify_locality(code, 1, 5)


def _oracle_codes(square_r2_m3, square_r2_m4):
    rng = Random(73)
    field = GF2m(3)
    codes = [square_r2_m3.code, square_r2_m4.code]
    codes += [repetition_code(), repetition_code(5), single_parity_code()]
    for _ in range(4):
        n = rng.randrange(4, 9)
        M = rng.randrange(1, n)
        codes.append(random_code(rng, field, n, M, require_repairable=False))
    return codes


def _size_lex(sets):
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def test_circuit_scan_matches_the_regenerating_set_oracle(
    square_r2_m3, square_r2_m4
):
    # minimal regenerating sets are the inclusion-minimal members of the
    # brute-force collection; both scans must list all of them, in order
    for code in _oracle_codes(square_r2_m3, square_r2_m4):
        minimal_by_target = {}
        for t in range(1, code.n + 1):
            every = all_regenerating_sets(code, t)
            minimal_by_target[t] = _size_lex(
                R for R in every if not any(S < R for S in every)
            )
        for cap in range(1, code.n + 1):
            expected = set()
            for t, minimal in minimal_by_target.items():
                within = [R for R in minimal if len(R) <= cap]
                got = [rs.members for rs in minimal_regsets(code, t, cap)]
                assert got == within, (code, t, cap)
                expected.update(within)
            circuits = [
                frozenset(i + 1 for i in range(code.n) if (mask >> i) & 1)
                for mask in _circuits(code, cap)
            ]
            assert circuits == _size_lex(expected), (code, cap)


def test_locality_and_tolerance_match_the_oracle(square_r2_m3, square_r2_m4):
    for code in _oracle_codes(square_r2_m3, square_r2_m4):
        for r in (1, 2, 3):
            holds = {
                delta: locality_holds(code, r, delta) for delta in (2, 3, 4)
            }
            for delta, expected in holds.items():
                assert verify_locality(code, r, delta) == expected, (code, r, delta)
            t = 0
            while t + 2 in holds and holds[t + 2]:
                t += 1
            if t + 2 in holds:
                assert repair_tolerance(code, r) == t
            else:
                with pytest.raises(SearchCapExceeded):
                    repair_tolerance(code, r)


def _profile_dict(phi_values, rho_value, size_cap, chains):
    return {
        "phi": phi_values,
        "rho": rho_value,
        "size_cap": size_cap,
        "witnesses": [
            [{"target": t, "members": list(m)} for t, m in chain]
            for chain in chains
        ],
    }


# Frozen from the per-target search this scan replaced.  The witness
# chains depend on the order candidates are tried in, so they pin it.
_ROW_1 = (1, (1, 2, 3, 4))
_COL_5 = (5, (1, 5, 9, 13))
_COL_6 = (6, (2, 6, 10, 14))
_CHAINS_R3_CAP4 = [
    [],
    [_ROW_1],
    [_ROW_1, _COL_5],
    [_ROW_1, _COL_5, _COL_6],
    [_ROW_1, _COL_5, _COL_6, (7, (5, 6, 7, 8))],
    [_ROW_1, _COL_5, _COL_6, (7, (3, 7, 11, 15)), (8, (5, 6, 7, 8))],
]
_PINNED_R3_PROFILES = {
    (M, 4): _profile_dict(phi_values, rho_value, 4, _CHAINS_R3_CAP4[: len(phi_values)])
    for M, phi_values, rho_value in (
        (4, [0, 4, 7], 1),
        (5, [0, 4, 7], 1),
        (6, [0, 4, 7, 10], 2),
        (7, [0, 4, 7, 10], 2),
        (8, [0, 4, 7, 10, 12], 3),
        (9, [0, 4, 7, 10, 12, 14], 4),
    )
}
_PINNED_R3_PROFILES[4, None] = _profile_dict(
    [0, 4, 6], 1, 16, [[], [_ROW_1], [_ROW_1, (5, (1, 2, 3, 5, 6))]]
)


@pytest.mark.parametrize("M, size_cap", list(_PINNED_R3_PROFILES))
def test_square_r3_profiles_are_pinned(M, size_cap):
    code = build_square_code(3, M).code
    profile = phi_profile(code, size_cap=size_cap)
    assert profile.to_json_dict() == _PINNED_R3_PROFILES[M, size_cap]


def test_witness_takes_the_smallest_target_first(square_r2_m3):
    # phi(4) = 7 is also reached through the grid column {2, 5, 8}, a
    # circuit scanned before {4, 5, 6}; the witness still prefers the
    # chain whose targets are smaller (frozen from the per-target search)
    profile = phi_profile(square_r2_m3.code, x_max=4)
    assert profile.to_json_dict() == _profile_dict(
        [0, 3, 5, 6, 7], 1, 9,
        [
            [],
            [(1, (1, 2, 3))],
            [(1, (1, 2, 3)), (4, (1, 4, 7))],
            [(1, (1, 2, 3)), (4, (1, 4, 7)), (5, (1, 2, 4, 5))],
            [(1, (1, 2, 3)), (4, (1, 4, 7)), (5, (1, 2, 4, 5)), (6, (4, 5, 6))],
        ],
    )

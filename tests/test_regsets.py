"""Regenerating sets, nontrivial unions, phi/rho, locality verification."""

from __future__ import annotations

import gc
import hashlib
import json
import time
from random import Random

import pytest

from locrep import (
    DomainError,
    GF2m,
    LinearCode,
    PhiUndefinedError,
    RegeneratingSet,
    SearchCapExceeded,
    bound_general,
    build_square_code,
    check_union_entropy,
    g_function,
    is_nontrivial_union,
    is_regenerating,
    matrix_rank,
    min_distance,
    minimal_regsets,
    phi,
    phi_profile,
    repair_tolerance,
    rho,
    verify_locality,
)
from locrep import linear_code, regsets
from locrep.linear_code import (
    _circuits,
    _dual,
    _largest_flat,
    _phi_walk,
    _RankHierarchy,
    _Residues,
)
from locrep.regsets import _PhiSearch, _witness

from oracles import (
    all_regenerating_sets,
    codeword_min_weight,
    contraction,
    exhaustive_phi,
    locality_holds,
    nullity_phi,
    oracle_codes,
    projective_point,
    random_code,
    random_nontrivial_chain,
    reference_circuits,
    repetition_code,
    rho_from_phi,
    single_parity_code,
    square_distance,
    square_oracle_applies,
    square_phi,
    subset_rank,
    tamo_barg_code,
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


@pytest.mark.parametrize("target", [True, 1.0, 0, 10])
def test_a_target_that_is_not_a_coordinate_is_rejected(square_r2_m3, target):
    # True once counted as coordinate 1 and 1.0 raised TypeError.  A
    # hand-built RegeneratingSet refuses both, though True and 1.0 are
    # "in" {1, 2, 3}; one whose members hold 0 or 10 is refused by the
    # chain checks
    code = square_r2_m3.code
    with pytest.raises(DomainError, match=f"coordinate {target!r} is not in 1..9"):
        is_regenerating(code, target, [1, 2, 3])
    if isinstance(target, bool) or not isinstance(target, int):
        with pytest.raises(DomainError, match="target must be an integer"):
            RegeneratingSet(target, frozenset({1, 2, 3}))
        return
    chain = [RegeneratingSet(target, frozenset({1, 2, 3, target}))]
    for check in (is_nontrivial_union, check_union_entropy):
        with pytest.raises(DomainError, match=f"coordinate {target!r}"):
            check(code, chain)


@pytest.mark.parametrize("target", [True, False, 1.0, "1"])
def test_a_regenerating_set_target_must_be_an_integer(target):
    # True and 1.0 are "in" {1, 2, 3}, so the membership test alone let
    # both construct
    with pytest.raises(DomainError, match="regenerating set target must be an integer"):
        RegeneratingSet(target, frozenset({1, 2, 3}))


def test_union_checks_read_each_member_set_once(monkeypatch):
    code = build_square_code(2, 3).code
    chain = [_rs(3, [1, 2, 3]), _rs(7, [1, 4, 7])]
    calls = []
    coord_mask = LinearCode._coord_mask

    def counted(self, members):
        calls.append(tuple(members))
        return coord_mask(self, calls[-1])

    monkeypatch.setattr(LinearCode, "_coord_mask", counted)
    assert check_union_entropy(code, chain)
    # each set's members and its target, once each
    assert sorted(tuple(sorted(c)) for c in calls) == [(1, 2, 3), (1, 4, 7), (3,), (7,)]


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


@pytest.mark.parametrize("cap", [0, -5])
def test_minimal_regsets_rejects_a_size_cap_below_one(square_r2_m3, cap):
    with pytest.raises(DomainError, match="size cap must be >= 1"):
        minimal_regsets(square_r2_m3.code, 1, cap)


def test_minimal_regsets_rejects_a_bool_target(square_r2_m3):
    with pytest.raises(DomainError, match="coordinate True"):
        minimal_regsets(square_r2_m3.code, True, 3)


def test_minimal_regsets_has_the_locality_length_gate():
    # a random binary n=40 code once ran its circuit scan for minutes,
    # while phi_profile refused it at once
    code = random_code(Random(7), GF2m(1), 40, 20, require_repairable=False)
    start = time.perf_counter()
    with pytest.raises(SearchCapExceeded, match="n=40"):
        minimal_regsets(code, 1, 40)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(SearchCapExceeded, match="n=26"):
        minimal_regsets(repetition_code(26), 1, 2)
    assert len(minimal_regsets(repetition_code(25), 1, 2)) == 24


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


def test_phi_rejects_a_chain_length_that_is_not_an_integer(square_r2_m3):
    # a float once ran the search and reported no chain of 1.5 sets
    with pytest.raises(DomainError, match="chain length must be an integer"):
        phi(square_r2_m3.code, 1.5)


def test_phi_profile_rejects_an_x_max_that_is_not_an_integer(square_r2_m3):
    with pytest.raises(DomainError, match="x_max must be an integer"):
        phi_profile(square_r2_m3.code, x_max=1.5)


@pytest.mark.parametrize("cap", [2.5, "3", True])
def test_size_cap_must_be_an_integer(square_r2_m3, cap):
    # True once acted as cap 1; 2.5 and "3" raised TypeError
    code = square_r2_m3.code
    with pytest.raises(DomainError, match="size cap must be an integer"):
        minimal_regsets(code, 1, cap)
    with pytest.raises(DomainError, match="size cap must be an integer"):
        phi(code, 1, size_cap=cap)
    with pytest.raises(DomainError, match="size cap must be an integer"):
        phi_profile(code, size_cap=cap)


@pytest.mark.parametrize(
    ("r", "delta", "message"),
    [(2.5, 3, "locality must be an integer"),
     (2, 2.5, "repair parameter delta must be an integer")],
)
def test_verify_locality_rejects_parameters_that_are_not_integers(
    square_r2_m3, r, delta, message
):
    with pytest.raises(DomainError, match=message):
        verify_locality(square_r2_m3.code, r, delta)


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
        verify_locality(repetition_code(26), 1, 3)


@pytest.mark.parametrize(("r", "M"), [(2, 3), (2, 4), (3, 4), (3, 9), (4, 5), (4, 16)])
def test_square_locality_is_two_grid_stars(r, M):
    # the row and the column through a cell are its only circuits of at
    # most r+1 members, and they meet only in it: two more erasures, one
    # in each, cut it off
    code = build_square_code(r, M).code
    assert verify_locality(code, r, 3)
    assert not verify_locality(code, r, 4)
    assert repair_tolerance(code, r) == 2


def test_tolerance_is_d_minus_1_when_the_cap_prunes_no_circuit(monkeypatch):
    # every 5-set of the Reed-Solomon [15, 4] code is a circuit, so
    # hitting every circuit through i means holding a cocircuit; the
    # hitting set once passed its node budget here
    code = tamo_barg_code(4, 2, 4)
    monkeypatch.setattr(regsets, "_LOCALITY_NODE_BUDGET", 0)
    assert min_distance(code) == 12
    assert repair_tolerance(code, 4) == 11
    assert verify_locality(code, 4, 12)
    assert not verify_locality(code, 4, 13)


def test_tolerance_without_pruning_matches_the_minimum_weight():
    # r + 1 >= min(n, M + 1): the cap keeps every circuit
    rng = Random(107)
    for field in (GF2m(2), GF2m(3)):
        for _ in range(12):
            n = rng.randrange(2, 8)
            M = rng.randrange(1, min(n, 4) + 1)
            code = random_code(rng, field, n, M, require_repairable=False)
            expected = codeword_min_weight(code) - 1
            for r in range(min(n, M + 1) - 1, n):
                assert repair_tolerance(code, r) == expected, (code.columns, r)


def test_locality_search_keeps_a_node_budget(monkeypatch):
    # two blocks of six parallel columns: cap 2 is below M+1 = 3, so the
    # hitting set runs (under a cap that prunes no circuit, as on a
    # repetition code, the answer is d - 1 without a search); tolerance
    # 5 tries sizes 0..5 on every coordinate, about 170 nodes
    code = LinearCode(GF2m(4), 12, 2, [[1, 0]] * 6 + [[0, 1]] * 6)
    assert repair_tolerance(code, 1) == 5
    monkeypatch.setattr(regsets, "_LOCALITY_NODE_BUDGET", 100)
    with pytest.raises(SearchCapExceeded, match="passed 100 nodes"):
        repair_tolerance(code, 1)


def _size_lex(sets):
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def test_circuit_scan_matches_the_regenerating_set_oracle(
    square_r2_m3, square_r2_m4
):
    # minimal regenerating sets are the inclusion-minimal members of the
    # brute-force collection; both scans must list all of them, in order
    for code in oracle_codes(square_r2_m3.code, square_r2_m4.code):
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


def _check_against_the_superset_test_scan(code: LinearCode, caps) -> None:
    """The scan and each target's minimal regenerating sets, by the reference.

    Same circuits, and the same subsets ranked: the rank caches agree.
    A target's sets are the reference's scan through it, and filtering
    the all-circuit scan ranks nothing the scan did not.
    """
    ours, reference, through = (
        LinearCode(code.field, code.n, code.M, code.columns) for _ in range(3)
    )
    for cap in caps:
        assert _circuits(ours, cap) == reference_circuits(reference, cap), (code, cap)
        assert ours._rank_cache == reference._rank_cache, (code, cap)
        for target in range(1, code.n + 1):
            expected = reference_circuits(through, cap, target)
            got = [ours._coord_mask(rs.members) for rs in minimal_regsets(ours, target, cap)]
            assert got == expected, (code, cap, target)
            assert ours._rank_cache == reference._rank_cache, (code, cap, target)


def test_circuit_scan_matches_the_superset_test_scan(square_r2_m3, square_r2_m4):
    codes = oracle_codes(square_r2_m3.code, square_r2_m4.code)
    codes.append(build_square_code(3, 4).code)
    for code in codes:
        _check_against_the_superset_test_scan(code, sorted({1, 2, 3, 4, code.n}))


def _scan_test_codes() -> list[LinearCode]:
    """Small full-rank codes over GF(2), GF(2^8), GF(2^16) and GF(2^17).

    Dimensions 1, 2, 3, n-1 and n.  Where the rank allows, a code has a
    zero column and a scaled copy of another column; the copy is an
    exact one over GF(2).  GF(2^8) uses the AES modulus 0x11b and
    GF(2^17) has no log tables.
    """
    rng = Random(83)
    codes = []
    for field in (GF2m(1), GF2m(8, 0x11b), GF2m(16), GF2m(17)):
        # (n, M, zero column, scaled copy)
        for n, M, zero, copy in (
            (5, 1, True, True),
            (6, 2, True, True),
            (6, 3, True, True),
            (5, 4, True, False),
            (6, 5, False, True),
            (4, 4, False, False),
        ):
            while True:
                cols = [
                    [rng.randrange(field.order) for _ in range(M)]
                    for _ in range(n - zero - copy)
                ]
                if copy:
                    scale = rng.randrange(1, field.order)
                    source = cols[rng.randrange(len(cols))]
                    cols.insert(
                        rng.randrange(len(cols) + 1),
                        [field.mul(scale, x) for x in source],
                    )
                if zero:
                    cols.insert(rng.randrange(len(cols) + 1), [0] * M)
                if matrix_rank(field, M, cols) == M:
                    codes.append(LinearCode(field, n, M, cols))
                    break
    return codes


def test_circuit_scan_matches_the_superset_test_scan_on_odd_codes():
    # parallel and zero columns, M = 1, 2, n-1 and n, and fields with
    # and without log tables: same circuits, same rank caches
    for code in _scan_test_codes():
        _check_against_the_superset_test_scan(
            code, sorted({1, 2, 3, 4, code.M + 1, code.n})
        )


def test_circuit_scan_on_a_warm_rank_cache_builds_no_residues(monkeypatch):
    code = build_square_code(3, 5).code

    def scans():
        return [_circuits(code, 4), _circuits(code, code.n),
                minimal_regsets(code, 1, 4), minimal_regsets(code, 9, code.n)]

    first = scans()

    def refuse(code):
        raise AssertionError("residues built on a warm rank cache")

    monkeypatch.setattr(linear_code, "_Residues", refuse)
    assert scans() == first
    # a cold cache still needs them
    with pytest.raises(AssertionError, match="warm rank cache"):
        _circuits(build_square_code(3, 5).code, 4)


def _check_synced_residues(code, masks, expected) -> None:
    """Sync one residue stack to each mask in turn and check what it holds.

    Every residue above the pushed columns is the column's normalized
    image in the contraction by them (``oracles.contraction``'s plain
    elimination), and the span test, a nonzero residue other than the
    top's, holds exactly when the column raises the rank of the mask.
    ``expected`` caches the contractions, keyed by prefix.
    """
    field, n = code.field, code.n
    ranks = LinearCode(field, n, code.M, code.columns)
    residues = _Residues(code)
    for mask in masks:
        residues.sync(mask)
        top = mask.bit_length() - 1
        prefix = mask ^ (1 << top) if mask else 0
        low = prefix.bit_length()
        if prefix not in expected:
            contracted = contraction(field, code.columns, prefix)
            skipped = prefix.bit_count()
            expected[prefix] = [
                projective_point(field, contracted[j - skipped]) for j in range(low, n)
            ]
        assert residues.residues[low:] == expected[prefix], (code, mask)
        rank = ranks._rank(mask)
        for j in range(low, n):
            res = residues.residues[j]
            outside = res is not None and res != residues.top
            assert outside == (ranks._rank(mask | 1 << j) > rank), (code, mask, j)


def _sparse_codes(rng: Random) -> list[LinearCode]:
    """n = 7, M = 4 codes with half their entries 0, over GF(2^8), 2^16, 2^17.

    A pivot that leads after coordinate 0 meets residues that lead
    before it with an entry other than 1 there, which random dense
    columns almost never give.
    """
    codes = []
    for field in (GF2m(8, 0x11b), GF2m(16), GF2m(17)):
        for _ in range(2):
            while True:
                cols = [
                    [rng.randrange(1, field.order) if rng.random() < 0.5 else 0
                     for _ in range(4)]
                    for _ in range(7)
                ]
                if matrix_rank(field, 4, cols) == 4:
                    codes.append(LinearCode(field, 7, 4, cols))
                    break
    return codes


def test_residue_pushes_match_the_row_major_quotient():
    # lex order pushes tails; a shuffled order pops back and re-pushes
    rng = Random(97)
    codes = [
        (code, range(1 << code.n))
        for code in [*_scan_test_codes(), *_sparse_codes(rng)]
    ]
    for M in range(4, 10):
        code = build_square_code(3, M).code
        # every base of a cap-4 scan, and some deeper stacks
        small = [mask for mask in range(1 << code.n) if mask.bit_count() <= 3]
        deep = [rng.getrandbits(code.n) for _ in range(60)]
        codes.append((code, sorted({*small, *deep})))
    for code, masks in codes:
        expected: dict = {}
        shuffled = list(masks)
        rng.shuffle(shuffled)
        _check_synced_residues(code, masks, expected)
        _check_synced_residues(code, shuffled, expected)


def test_a_cold_scan_without_a_target_builds_one_residue_stack(monkeypatch):
    # one stack, synced once per base, answers every candidate's span test
    built = []
    real = linear_code._Residues

    def counting(code):
        built.append(code)
        return real(code)

    monkeypatch.setattr(linear_code, "_Residues", counting)
    for code in [build_square_code(3, 5).code, *_scan_test_codes()]:
        for cap in sorted({1, code.M + 1, code.n}):
            fresh = LinearCode(code.field, code.n, code.M, code.columns)
            built.clear()
            _circuits(fresh, cap)
            assert len(built) == 1, (code, cap)


def _dense_dependency_code() -> LinearCode:
    """GF(2^2), n = 10, M = 3: a zero column and nine in four parallel classes.

    Any three class directions are independent and all four are not, so
    the circuits are the zero column, the parallel pairs and one column
    from each class; most dependent candidates hold a smaller circuit.
    """
    field = GF2m(2)
    directions = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    rng = Random(89)
    cols = [[0, 0, 0]]
    for k in range(9):
        scale = rng.randrange(1, field.order)
        cols.append([field.mul(scale, x) for x in directions[k % 4]])
    rng.shuffle(cols)
    return LinearCode(field, len(cols), 3, cols)


def test_circuit_scan_matches_the_superset_test_scan_on_dense_dependencies(
    monkeypatch,
):
    def refuse(code):
        raise AssertionError("residues built on a warm rank cache")

    code = _dense_dependency_code()
    for cap in range(1, code.M + 2):
        ours, reference = (
            LinearCode(code.field, code.n, code.M, code.columns) for _ in range(2)
        )
        expected = reference_circuits(reference, cap)
        assert _circuits(ours, cap) == expected, cap
        assert ours._rank_cache == reference._rank_cache, cap
        with monkeypatch.context() as patch:
            patch.setattr(linear_code, "_Residues", refuse)
            assert _circuits(ours, cap) == expected, cap
        assert ours._rank_cache == reference._rank_cache, cap
    # one zero column, 3 + 1 + 1 + 1 parallel pairs, 3 * 2 * 2 * 2 quadruples
    sizes = [mask.bit_count() for mask in expected]
    assert sizes == [1] + [2] * 6 + [4] * 24


def test_phi_profile_leaves_no_reference_cycles():
    # a cycle through the scan's residue stacks would keep them, and the
    # field, alive until the collector runs
    code = build_square_code(3, 4).code
    gc.collect()
    gc.disable()
    try:
        phi_profile(code)
        assert gc.collect() == 0
    finally:
        gc.enable()


# Every circuit of square r=3 codes: the row and column circuits of the
# grid are the only ones with at most r+1 = 4 members.
_R3_CIRCUIT_COUNTS = {4: 4280, 5: 7488, 6: 9576, 7: 8514, 8: 4186, 9: 106}


def test_square_r3_circuit_counts_are_pinned():
    rng = Random(79)
    for M, count in _R3_CIRCUIT_COUNTS.items():
        code = build_square_code(3, M).code
        assert len(_circuits(code, 4)) == 8, M
        assert len(_circuits(code, code.n)) == count, M
        # a fixed sample of the cached ranks, against field-level elimination
        cache = code._rank_cache
        for mask in rng.sample(sorted(cache), 60):
            members = [i + 1 for i in range(code.n) if (mask >> i) & 1]
            assert cache[mask] == subset_rank(code, members), (M, members)


def test_exact_r3_profiles_within_budget():
    codes = [build_square_code(3, M).code for M in (4, 5)]
    start = time.perf_counter()
    for code in codes:
        phi_profile(code)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.5, f"took {elapsed:.2f}s, budget 1.5s"


def test_locality_and_tolerance_match_the_oracle(square_r2_m3, square_r2_m4):
    for code in oracle_codes(square_r2_m3.code, square_r2_m4.code):
        for r in (1, 2, 3):
            holds = [locality_holds(code, r, delta) for delta in range(2, 7)]
            for delta, expected in enumerate(holds, 2):
                assert verify_locality(code, r, delta) == expected, (code, r, delta)
            # the oracle's tolerance t: locality holds up to delta = t+1
            t = 0
            while t < code.n and (
                holds[t] if t < len(holds) else locality_holds(code, r, t + 2)
            ):
                t += 1
            assert repair_tolerance(code, r) == t, (code.columns, r)


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
# The exact default-range profiles of M = 5..9, frozen from the
# branch-and-bound over every circuit.  Only M = 6 differs from the
# capped values: its third set is a circuit of seven members.
_PINNED_R3_PROFILES[6, None] = _profile_dict(
    [0, 4, 7, 9], 2, 16,
    _CHAINS_R3_CAP4[:3] + [[_ROW_1, _COL_5, (6, (1, 2, 3, 5, 6, 7, 9))]],
)
for _M, _phi_values, _rho_value in (
    (5, [0, 4, 7], 1),
    (7, [0, 4, 7, 10], 2),
    (8, [0, 4, 7, 10, 12], 3),
    (9, [0, 4, 7, 10, 12, 14], 4),
):
    _PINNED_R3_PROFILES[_M, None] = _profile_dict(
        _phi_values, _rho_value, 16, _CHAINS_R3_CAP4[: len(_phi_values)]
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


def test_witnesses_try_no_circuit_above_the_goal_less_the_sets_left(
    monkeypatch, square_r2_m3
):
    # a set that leaves k more to place grows the union by at least k
    # more members, so a circuit above goal - k members cannot be taken,
    # by either engine
    cuts = []
    pulled = []
    for engine in (_PhiSearch, _RankHierarchy):
        scan, reaches = engine.scan, engine.reaches

        def recording(self, size_cap, scan=scan):
            for circuit in scan(self, size_cap):
                pulled[:] = [circuit]
                yield circuit

        def checked(self, grown, k, goal, reaches=reaches):
            # the last circuit pulled from the scan is the one tried
            assert pulled[0].bit_count() <= goal - k, (pulled[0], goal, k)
            cuts.append((type(self), goal - k))
            return reaches(self, grown, k, goal)

        monkeypatch.setattr(engine, "scan", recording)
        monkeypatch.setattr(engine, "reaches", checked)
    cases = [(square_r2_m3.code, 3), (build_square_code(3, 6).code, 6)]
    cases += [(code, code.n) for code in oracle_codes(square_r2_m3.code)]
    cut_short = set()
    for code, cap in cases:
        for search, scan_cap in ((_PhiSearch(code, cap), cap),
                                 (_RankHierarchy(code), code.n)):
            largest = max(c.bit_count() for c in _circuits(code, scan_cap))
            cuts.clear()
            values = search.values(search.rho() + 1)
            for x, goal in enumerate(values, 1):
                _witness(search, code.n, x, goal)
            cut_short.update(engine for engine, size in cuts if size < largest)
    # the bound did cut some scans short, on both engines
    assert cut_short == {_PhiSearch, _RankHierarchy}


def _random_exact_codes():
    """Oracle codes plus random ones with zero and scaled columns."""
    rng = Random(97)
    codes = []
    for degree in (1, 2, 3):
        field = GF2m(degree)
        for _ in range(5):
            n = rng.randrange(2, 9)
            M = rng.randrange(1, n + 1)
            code = random_code(rng, field, n, M, require_repairable=False)
            cols = [list(col) for col in code.columns]
            cols[rng.randrange(n)] = [0] * M
            src = rng.randrange(n)
            cols[rng.randrange(n)] = [field.mul(rng.randrange(1, field.order), x)
                                      for x in cols[src]]
            if matrix_rank(field, M, cols) == M:
                codes.append(LinearCode(field, n, M, cols))
    return codes


def test_exact_phi_matches_the_nullity_oracle(square_r2_m3):
    for code in oracle_codes(square_r2_m3.code) + _random_exact_codes():
        for x in range(code.n - code.M + 2):
            try:
                value = phi(code, x)
            except PhiUndefinedError:
                value = None
            assert value == (nullity_phi(code, x) if x else 0), (code.columns, x)


def test_parity_check_values_match_the_nullity_oracle(square_r2_m3):
    # 2M >= n takes phi from the parity-check code's flats, with and
    # without the distance known first
    codes = [code for code in oracle_codes(square_r2_m3.code) + _random_exact_codes()
             if code.M < code.n <= 2 * code.M]
    assert len(codes) >= 8
    for code in codes:
        expected = [nullity_phi(code, x) for x in range(1, code.n - code.M + 1)]
        for distance_first in (False, True):
            hierarchy = _RankHierarchy(code)
            assert hierarchy.dual is not None
            if distance_first:
                assert hierarchy.distance() == min_distance(code)
            assert hierarchy.values(code.n) == expected, code.columns


def _wei_test_codes():
    """Three random codes for each n = 9..14 over GF(4) and GF(8), with
    M drawn from 1..n-2, each with a zero column and a parallel pair."""
    rng = Random(103)
    codes = []
    for degree in (2, 3):
        field = GF2m(degree)
        for n in [*range(9, 15)] * 3:
            # a zero column and a parallel pair leave rank n-2 at most
            M = rng.randrange(1, n - 1)
            while True:
                code = random_code(rng, field, n, M, require_repairable=False)
                cols = [list(col) for col in code.columns]
                zero, src, dst = rng.sample(range(n), 3)
                cols[zero] = [0] * M
                scale = rng.randrange(1, field.order)
                cols[dst] = [field.mul(scale, x) for x in cols[src]]
                if matrix_rank(field, M, cols) == M:
                    codes.append(LinearCode(field, n, M, cols))
                    break
    return codes


def _generator_side(code):
    """A rank hierarchy that searches the generator whatever the rate."""
    hierarchy = _RankHierarchy(code)
    hierarchy.dual = None
    return hierarchy


def test_both_sides_of_wei_duality_agree_beyond_the_oracles():
    # n = 9..14 is past the 2^n oracles' reach: the generator side and
    # the parity-check side check each other
    for code in _wei_test_codes():
        n, M = code.n, code.M
        dual = _dual(code)
        primal_d = _generator_side(code).distance()
        assert primal_d == _phi_walk(dual, 1)[0], code.columns
        # the walk searches rank M-1 itself unless the hyperplane is supplied
        primal = _phi_walk(code, n - M)
        assert _phi_walk(code, n - M, lambda: n - primal_d) == primal
        from_dual = [
            n - _largest_flat(dual.field, dual.columns, n - M - x, n - M - x)[0]
            for x in range(1, n - M + 1)
        ]
        assert primal == from_dual, code.columns
        assert _RankHierarchy(code).values(n) == primal, code.columns
        # with d known, the ranks below d-1 are not searched
        hierarchy = _RankHierarchy(code)
        assert hierarchy.distance() == primal_d
        assert hierarchy.values(n) == primal, code.columns


def test_exact_phi_matches_the_unrestricted_search():
    for code in oracle_codes() + _random_exact_codes()[:6]:
        for x in range(1, 4):
            try:
                value = phi(code, x)
            except PhiUndefinedError:
                value = None
            assert value == exhaustive_phi(code, x), (code.columns, x)


def test_exact_profiles_match_the_branch_and_bound(square_r2_m3, square_r2_m4):
    # values, rho and witness chains, against the branch-and-bound over
    # every circuit walked in the same order
    codes = [square_r2_m3.code, square_r2_m4.code]
    for code in oracle_codes(*codes) + _random_exact_codes():
        search = _PhiSearch(code, code.n)
        for x_max in (None, 0, 2, 3, code.n - code.M, code.n):
            rho_value = search.rho()
            values = search.values(rho_value + 1 if x_max is None else x_max)
            profile = phi_profile(code, x_max=x_max)
            assert profile.phi == (0, *values), (code.columns, x_max)
            assert profile.rho == rho_value, (code.columns, x_max)
            assert profile.size_cap == code.n
            assert profile.witnesses == ((), *(
                _witness(search, code.n, x, v) for x, v in enumerate(values, 1)
            )), (code.columns, x_max)


def test_exact_rho_is_n_minus_m_plus_one_minus_d(square_r2_m3, square_r2_m4):
    for code in oracle_codes(square_r2_m3.code, square_r2_m4.code):
        expected = code.n - code.M + 1 - min_distance(code)
        assert rho(code) == expected
        assert phi_profile(code).rho == expected
        # and from its definition, over the nullity oracle
        passing = [x for x in range(1, code.n - code.M + 1)
                   if nullity_phi(code, x) - x < code.M]
        assert expected == max(passing, default=0)


def test_a_cap_no_circuit_exceeds_is_exact(square_r2_m3):
    code = square_r2_m3.code
    for cap in (code.M + 1, code.n):
        profile = phi_profile(code, x_max=4, size_cap=cap)
        assert profile.to_json_dict() == dict(
            phi_profile(code, x_max=4).to_json_dict(), size_cap=cap
        )
        assert rho(code, size_cap=cap) == rho(code)
        assert phi(code, 3, size_cap=cap) == phi(code, 3)


def test_exact_values_run_no_circuit_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("an exact value scanned circuits")

    for module, name in ((linear_code, "_circuits"), (linear_code, "_iter_circuits"),
                         (regsets, "_circuits")):
        monkeypatch.setattr(module, name, refuse)
    for M in (4, 6, 9):
        code = build_square_code(3, M).code
        for x in range(1, 4):
            phi(code, x)
        rho(code)
        _RankHierarchy(code).values(code.n)


def test_exact_witness_scans_stop_at_the_goal_less_the_sets_left(monkeypatch):
    # each step of an exact witness walk scans the circuits lazily, up
    # to the largest size the step can take
    scans = []
    iter_circuits = linear_code._iter_circuits

    def recording(code, size_cap):
        scans.append(size_cap)
        return iter_circuits(code, size_cap)

    witness = regsets._witness
    walks = []

    def walking(search, n, x, goal):
        scans.clear()
        chain = witness(search, n, x, goal)
        # targets are tried in increasing order, each with one scan
        caps = [goal - remaining for remaining in range(x - 1, -1, -1)]
        assert scans and sorted(scans) == scans, (x, goal, scans)
        assert set(scans) == set(caps), (x, goal, scans)
        walks.append(x)
        return chain

    monkeypatch.setattr(linear_code, "_iter_circuits", recording)
    monkeypatch.setattr(regsets, "_witness", walking)
    for M in (4, 6):
        code = build_square_code(3, M).code
        phi_profile(code)
        phi_profile(code, x_max=code.n - code.M)
    assert walks


@pytest.mark.parametrize(
    ("kwargs", "error"),
    [({"size_cap": 0}, "size cap must be >= 1"),
     ({"size_cap": 1.5}, "size cap must be an integer"),
     ({"search_cap": "x"}, "search cap must be an integer"),
     ({"search_cap": 0}, "search cap must be >= 1")],
)
def test_phi_of_zero_still_validates_its_caps(square_r2_m3, kwargs, error):
    # x = 0 once returned 0 before looking at either cap
    with pytest.raises(DomainError, match=error):
        phi(square_r2_m3.code, 0, **kwargs)
    with pytest.raises(DomainError, match=error):
        phi(square_r2_m3.code, 1, **kwargs)


def test_phi_of_zero_respects_the_search_cap(square_r2_m3):
    with pytest.raises(SearchCapExceeded):
        phi(square_r2_m3.code, 0, search_cap=4)


def test_exact_r3_answers_within_budget():
    codes = [build_square_code(3, M).code for M in range(4, 10)]
    start = time.perf_counter()
    for code in codes:
        phi_profile(code)
    profiles = time.perf_counter() - start
    start = time.perf_counter()
    for code in [build_square_code(3, M).code for M in range(4, 10)]:
        rho(code)
    rhos = time.perf_counter() - start
    # about 0.3 s and 0.06 s on a desktop core; the budgets leave room
    # for slower hosts
    assert profiles < 3.0, f"profiles took {profiles:.2f}s, budget 3s"
    assert rhos < 0.6, f"rho took {rhos:.2f}s, budget 0.6s"


# Exact profiles of square r=4 codes with no metadata, frozen from the
# generator side's rank hierarchy: phi, rho, and the SHA-256 of the
# witness chains' JSON.  n = 25 needs a search cap of 25.
_PINNED_R4_PROFILES = {
    15: ((0, 5, 9, 13, 16, 19, 21), 5,
         "a30e42e8433da2d03c70bb703697d4d047a7539ab5736d2d7ca5d09b8fd9b15d"),
    16: ((0, 5, 9, 13, 16, 19, 21, 23), 6,
         "7a3067dc394b53f9eb9a30066097da8da16cd94411a7a907fecd42fac425fb47"),
}


@pytest.mark.parametrize("M", sorted(_PINNED_R4_PROFILES))
def test_square_r4_high_rate_profiles_are_pinned(M):
    code = build_square_code(4, M).code
    profile = phi_profile(code, search_cap=25)
    witnesses = json.dumps(profile.to_json_dict()["witnesses"], sort_keys=True)
    digest = hashlib.sha256(witnesses.encode()).hexdigest()
    assert (profile.phi, profile.rho, digest) == _PINNED_R4_PROFILES[M]
    assert rho(code, search_cap=25) == profile.rho


def test_exact_profiles_match_the_grid_graph_phi():
    # the bond-matroid phi of oracles.square_phi, from the grid graph
    # alone: every r=3 code over the full range, and the pinned r=4
    # profiles
    for M in range(4, 10):
        sc = build_square_code(3, M)
        assert square_oracle_applies(sc)
        profile = phi_profile(sc.code, x_max=sc.code.n - M)
        expected = [square_phi(3, M, x) for x in range(sc.code.n - M + 1)]
        assert list(profile.phi) == [0, *expected[1:]], M
        assert profile.rho == max(x for x, v in enumerate(expected) if v - x < M)
    for M, (values, _, _) in _PINNED_R4_PROFILES.items():
        assert square_oracle_applies(build_square_code(4, M))
        assert list(values) == [0, *(square_phi(4, M, x) for x in range(1, len(values)))]


@pytest.mark.parametrize("M", [5, 6])
def test_r4_generator_side_matches_the_grid_graph(M):
    # 2M < n: the exact values are the ascending walk over the
    # generator's largest flats, at the default x_max = rho + 1
    sc = build_square_code(4, M)
    assert square_oracle_applies(sc)
    profile = phi_profile(sc.code, search_cap=25)
    assert profile.rho == rho_from_phi(lambda x: square_phi(4, M, x), M)
    assert len(profile.phi) == profile.rho + 2
    expected = [square_phi(4, M, x) for x in range(1, len(profile.phi))]
    assert list(profile.phi) == [0, *expected]


def test_r4_parity_side_matches_the_grid_graph():
    # 2M >= n: d is phi(1) of the parity-check code, the same ascending
    # walk over its largest flats, stopped at its first value
    sc = build_square_code(4, 14)
    assert square_oracle_applies(sc)
    d = square_distance(4, 14)
    assert min_distance(sc.code, search_cap=25) == d
    grid_rho = rho_from_phi(lambda x: square_phi(4, 14, x), 14)
    assert rho(sc.code, search_cap=25) == 25 - 14 + 1 - d == grid_rho

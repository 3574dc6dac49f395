"""Tamo-Barg codes, and the earlier locality concepts checked on codes.

Tamo-Barg codes meet the (r, delta) bound with equality, so they are a
second constructed family with known answers beside the square codes.
The paper's unification claim says the earlier locality concepts are
special cases of locality r with delta - 1 erasures: each is checked by
a brute-force predicate in ``oracles``, and wherever it holds
``verify_locality`` must hold and the distance must meet that concept's
bound.
"""

from __future__ import annotations

from random import Random

import pytest

from locrep import (
    GF2m,
    bound_lrc,
    bound_rdc,
    build_square_code,
    min_distance,
    phi_profile,
    repair_tolerance,
    verify_locality,
)

from oracles import (
    disjoint_repair_sets_hold,
    exhaustive_phi,
    nullity_phi,
    random_code,
    rdelta_locality_holds,
    tamo_barg_code,
)

# (r, delta, k) -> (d, repair_tolerance(code, r)) on the n = 15 code
TAMO_BARG = {
    (4, 2, 8): (7, 1),
    (3, 3, 6): (8, 2),
    (2, 2, 4): (11, 1),
    (2, 4, 4): (9, 3),
    (4, 2, 4): (12, 11),  # the Reed-Solomon [15, 4] code
}


@pytest.mark.parametrize("params", sorted(TAMO_BARG))
def test_tamo_barg_codes_meet_the_lrc_bound(params):
    r, delta, k = params
    d, tolerance = TAMO_BARG[params]
    code = tamo_barg_code(r, delta, k)
    assert (code.n, code.M) == (15, k)
    assert min_distance(code) == d == bound_lrc(15, k, 1, r, delta)
    assert verify_locality(code, r, delta)
    assert repair_tolerance(code, r) == tolerance
    assert rdelta_locality_holds(code, r, delta)


@pytest.mark.parametrize("params", sorted(TAMO_BARG))
def test_tamo_barg_codes_on_two_cosets(params):
    # any union of cosets keeps the construction's distance and locality
    r, delta, k = params
    code = tamo_barg_code(r, delta, k, groups=2)
    n = 2 * (r + delta - 1)
    assert code.n == n
    assert min_distance(code) == bound_lrc(n, k, 1, r, delta)
    assert verify_locality(code, r, delta)
    profile = phi_profile(code)
    assert list(profile.phi[1:]) == [
        nullity_phi(code, x) for x in range(1, len(profile.phi))
    ]


def test_tamo_barg_phi_matches_the_exhaustive_oracle():
    # the exhaustive oracle ranks every subset per target: n = 6 only
    code = tamo_barg_code(2, 2, 4, groups=2)
    profile = phi_profile(code, x_max=code.n - code.M)
    assert profile.phi == (0, 3, 6)
    assert list(profile.phi[1:]) == [exhaustive_phi(code, x) for x in (1, 2)]
    assert exhaustive_phi(code, 3) is None


def _unification_codes() -> list:
    rng = Random(101)
    codes = [tamo_barg_code(*params, groups=2) for params in sorted(TAMO_BARG)]
    codes += [build_square_code(2, M).code for M in (3, 4)]
    codes += [random_code(rng, GF2m(1), n, M) for n, M in ((7, 3), (8, 4), (8, 3))]
    return codes


def test_earlier_locality_concepts_are_special_cases():
    held = {"lrc": 0, "rdc": 0}
    for code in _unification_codes():
        d = min_distance(code)
        n, M = code.n, code.M
        for r in range(1, 5):
            for delta in range(2, 5):
                case = (n, M, code.columns, r, delta)
                if rdelta_locality_holds(code, r, delta):
                    held["lrc"] += 1
                    assert verify_locality(code, r, delta), case
                    assert d <= bound_lrc(n, M, 1, r, delta), case
                if disjoint_repair_sets_hold(code, r, delta):
                    held["rdc"] += 1
                    assert verify_locality(code, r, delta), case
                    # the disjoint-repair-set bound needs r >= 2
                    assert r < 2 or d <= bound_rdc(n, M, r, delta), case
    assert held == {"lrc": 38, "rdc": 40}


@pytest.mark.parametrize("r, M", [(2, 3), (2, 4)] + [(3, M) for M in range(4, 10)])
def test_square_codes_meet_the_rdc_bound_at_low_rate(r, M):
    # the grid row and column are two disjoint repair sets (delta = 3);
    # the disjoint-repair-set bound is tight at r = 2 and at r = 3 up to M = 7
    code = build_square_code(r, M).code
    assert disjoint_repair_sets_hold(code, r, 3)
    assert not disjoint_repair_sets_hold(code, r, 4)
    d, bound = min_distance(code), bound_rdc(code.n, M, r, 3)
    assert d == bound if M <= 7 else d == bound - 1

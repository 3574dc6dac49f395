"""Closed-form bound evaluators, the g/s machinery, comparison table."""

from __future__ import annotations

import csv
import io
from random import Random

import pytest

from locrep import (
    DomainError,
    bound_general,
    bound_locality_r,
    bound_lrc,
    bound_rdc,
    bound_report,
    bound_square,
    compare_table,
    compare_table_csv,
    g_function,
    rdc_mu,
    s_value,
)

from oracles import (
    codeword_min_weight,
    exhaustive_phi,
    fraction_ceil,
    oracle_codes,
    rho_from_phi,
)


def test_bound_general_values():
    assert bound_general(9, 3, 1, 1) == 6
    assert bound_general(9, 4, 1, 2) == 4
    assert bound_general(12, 1, 1, 0) == 12  # M=1, rho=0 gives n


def test_bound_general_rejects_bad_parameters():
    with pytest.raises(DomainError):
        bound_general(0, 1, 1, 0)
    with pytest.raises(DomainError):
        bound_general(5, 1, 1, -1)


def test_bound_locality_r_values():
    assert bound_locality_r(10, 6, 1, 3) == 4
    assert bound_locality_r(9, 4, 1, 2) == 5
    # r >= M collapses to the Singleton bound n - M + 1
    for n, M in ((10, 4), (7, 2)):
        assert bound_locality_r(n, M, 1, M) == n - M + 1
        assert bound_locality_r(n, M, 1, M + 3) == n - M + 1


def test_bound_lrc_values():
    assert bound_lrc(16, 6, 1, 3, 3) == 9
    assert bound_lrc(14, 6, 1, 3, 2) == 8


def test_bound_lrc_delta2_degenerates_to_locality_r():
    rng = Random(73)
    for _ in range(10_000):
        n = rng.randrange(1, 60)
        M = rng.randrange(1, n + 1)
        alpha = rng.randrange(1, 4)
        r = rng.randrange(1, 12)
        assert bound_lrc(n, M, alpha, r, 2) == bound_locality_r(n, M, alpha, r)


def test_bound_rdc_values():
    assert rdc_mu(6, 3, 3) == 2
    assert rdc_mu(9, 5, 3) == 1
    assert bound_rdc(36, 9, 5, 3) == 27
    # delta=2 and M<=r: one local group covers the file, mu = 0
    assert rdc_mu(3, 3, 2) == 0
    assert bound_rdc(8, 3, 3, 2) == 6


def test_bound_rdc_rejects_r1():
    with pytest.raises(DomainError):
        bound_rdc(10, 4, 1, 3)


def test_mu_matches_fraction_arithmetic():
    rng = Random(79)
    for _ in range(2000):
        M = rng.randrange(1, 40)
        r = rng.randrange(2, 10)
        delta = rng.randrange(2, 8)
        num = (M - 1) * (delta - 1) + 1
        den = (r - 1) * (delta - 1) + 1
        assert rdc_mu(M, r, delta) == fraction_ceil(num, den) - 1


def test_g_function_values():
    assert g_function(0, 3) == 0
    assert g_function(2, 5) == 9
    assert g_function(7, 5) == 23


def test_g_function_domain():
    with pytest.raises(DomainError):
        g_function(-1, 3)
    with pytest.raises(DomainError):
        g_function(8, 3)  # 2r+1 = 7


def test_g_is_nondecreasing_on_domain():
    for r in range(1, 12):
        values = [g_function(x, r) for x in range(2 * r + 2)]
        assert values == sorted(values)


def test_s_values():
    assert s_value(3, 2) == 1
    assert s_value(4, 2) == 2
    assert s_value(25, 5) == 8
    for r in range(2, 9):
        assert s_value(r + 1, r) == 1


def test_s_value_matches_the_g_function_scan():
    for r in range(2, 13):
        for M in range(r + 1, r * r + 1):
            scan = max(x for x in range(2 * r + 2) if g_function(x, r) < M)
            assert s_value(M, r) == scan, (r, M)


def test_s_value_domain():
    with pytest.raises(DomainError):
        s_value(2, 2)  # below r+1
    with pytest.raises(DomainError):
        s_value(5, 2)  # above r^2


def test_bound_square_values():
    assert bound_square(9, 3, 2) == 6
    assert bound_square(9, 4, 2) == 4
    assert bound_square(36, 25, 5) == 4


def test_bound_square_rejects_wrong_length():
    with pytest.raises(DomainError):
        bound_square(10, 3, 2)


def test_compare_table_shape_and_row():
    rows = compare_table(5)
    assert len(rows) == 20  # r^2 - r
    assert rows[0][0] == 6 and rows[-1][0] == 25
    rows2 = compare_table(2)
    assert rows2[0] == (3, 6, bound_rdc(9, 3, 2, 3))


def test_square_bound_never_looser_than_rdc():
    for r in range(2, 9):
        n = (r + 1) ** 2
        for M, b_sq, b_rdc in compare_table(r):
            assert b_sq <= b_rdc, (r, M)
            # each row is the two public bounds, delta = 3 for rdc
            assert (b_sq, b_rdc) == (bound_square(n, M, r), bound_rdc(n, M, r, 3))


def test_compare_table_csv_format():
    text = compare_table_csv(2)
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    assert rows[0] == ["M", "bound_square", "bound_rdc"]
    assert len(rows) == 3  # header + 2 rows
    assert rows[1] == ["3", "6", str(bound_rdc(9, 3, 2, 3))]


def test_chain_consistency_on_square_codes():
    # exact-rho general bound sits between the true distance and every
    # family bound, because family bounds only use a floor on rho
    from locrep import build_square_code, min_distance, rho

    for M in (3, 4):
        sc = build_square_code(2, M)
        d = min_distance(sc.code)
        general = bound_general(9, M, 1, rho(sc.code, size_cap=3))
        assert d <= general
        assert general <= bound_square(9, M, 2)
        assert general <= bound_rdc(9, M, 2, 3)
        assert general <= bound_locality_r(9, M, 1, 2)


def test_bound_report_dispatch():
    rep = bound_report("square", n=9, M=3, r=2)
    assert rep.value == 6 and rep.intermediate == {"s": 1}
    rep = bound_report("rdc", n=16, M=6, r=3, delta=3)
    assert rep.intermediate == {"mu": 2}
    rep = bound_report("general", n=9, M=3, rho=1)
    assert rep.value == 6
    with pytest.raises(DomainError):
        bound_report("general", n=9, M=3)  # rho missing
    with pytest.raises(DomainError):
        bound_report("nonsense", n=1, M=1)
    with pytest.raises(DomainError):
        bound_report("rdc", n=16, M=6, alpha=2, r=3, delta=3)


def test_bound_square_rejects_vector_codes():
    # the square bound, like rdc, is stated for scalar codes only
    with pytest.raises(DomainError, match="alpha"):
        bound_report("square", n=16, M=6, alpha=2, r=3)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: bound_general(16, 6, 1, 2.5), "rho"),
        (lambda: bound_report("general", n=16, M=6, rho=2.5), "rho"),
        (lambda: bound_general(16, 6, 1, True), "rho"),
        (lambda: bound_lrc(16, 6, 1, 3, 2.5), "delta"),
        (lambda: bound_lrc(16, 6, 1, 3, True), "delta"),
        (lambda: rdc_mu(6, 3, 2.5), "delta"),
        (lambda: g_function(1.5, 3), "x"),
        (lambda: g_function(True, 3), "x"),
        (lambda: rdc_mu(6, 2.5, 3), "r"),
        (lambda: bound_rdc(16, 6, 2.5, 3), "r"),
        (lambda: bound_rdc(16.0, 6, 3, 3), "n"),
        (lambda: bound_square(16.0, 6, 3), "n"),
        (lambda: compare_table(3.0), "r"),
        (lambda: s_value(6.5, 3), "M"),
        (lambda: bound_square(16, 6.5, 3), "M"),
        (lambda: bound_report("square", n=16, M=6.5, r=3), "M"),
        (lambda: bound_report("square", n=16, M=6, r=3, alpha=1.0), "alpha"),
        (lambda: bound_report("square", n=16, M=6, r=3, alpha=True), "alpha"),
        (lambda: bound_report("rdc", n=16, M=6, r=3, delta=3, alpha=1.0), "alpha"),
        (lambda: bound_report("rdc", n=16, M=6, r=3, delta=3, alpha=True), "alpha"),
        (lambda: rdc_mu(6, True, 3), "r"),
        (lambda: g_function(2.0, 3), "x"),
    ],
)
def test_bounds_reject_non_integer_parameters(call, name):
    # a float or a bool is not rounded or read as 0/1: no bound comes back
    with pytest.raises(DomainError, match=f"parameter {name} must be an integer"):
        call()


def test_out_of_range_integers_keep_their_messages():
    with pytest.raises(DomainError, match=r"rho must be >= 0, got -1"):
        bound_general(16, 6, 1, -1)
    with pytest.raises(DomainError, match=r"delta must be >= 2, got 1"):
        bound_lrc(16, 6, 1, 3, 1)
    with pytest.raises(DomainError, match=r"needs r >= 2 .* at r=1\)"):
        rdc_mu(6, 1, 3)
    with pytest.raises(DomainError, match=r"g is defined on 0\.\.7, got x=8"):
        g_function(8, 3)
    # the square-code shape has one check, shared with build_square_code
    # and the code-file reader
    with pytest.raises(DomainError, match=r"square code r=3 needs n=16, got n=15"):
        bound_square(15, 6, 3)
    with pytest.raises(DomainError, match=r"square code needs r >= 2, got 1"):
        compare_table(1)
    with pytest.raises(DomainError, match=r"square code r=3 needs M in 4\.\.9, got M=10"):
        s_value(10, 3)


# the benchmark's bounds requests at n=16, M=6, with the value and floor
# each prints
BENCH_BOUNDS = {
    "general": (dict(rho=2), 9, {"rho": 2}),
    "locality_r": (dict(r=3), 10, {"rho_lower": 1}),
    "lrc": (dict(r=3, delta=3), 9, {"rho_lower": 2}),
    "rdc": (dict(r=3, delta=3), 9, {"mu": 2}),
    "square": (dict(r=3), 9, {"s": 2}),
}


@pytest.mark.parametrize("theorem", sorted(BENCH_BOUNDS))
def test_bound_report_values_and_floors(theorem):
    kwargs, value, floor = BENCH_BOUNDS[theorem]
    rep = bound_report(theorem, n=16, M=6, **kwargs)
    assert (rep.value, rep.intermediate) == (value, floor)


@pytest.mark.parametrize(
    "theorem, extra",
    [
        (theorem, extra)
        for theorem, (kwargs, _, _) in sorted(BENCH_BOUNDS.items())
        for extra in ("r", "delta", "rho")
        if extra not in kwargs
    ],
)
def test_bound_report_rejects_parameters_the_theorem_does_not_take(theorem, extra):
    kwargs = {**BENCH_BOUNDS[theorem][0], extra: 3}
    with pytest.raises(DomainError, match=f"the {theorem} bound does not take {extra}"):
        bound_report(theorem, n=16, M=6, **kwargs)


def _random_report(rng: Random, theorem: str):
    if theorem in ("rdc", "square"):
        r = rng.randrange(2, 9)
        if theorem == "square":
            n = (r + 1) ** 2
            return bound_report(theorem, n=n, M=rng.randrange(r + 1, r * r + 1), r=r)
        n = rng.randrange(1, 60)
        M = rng.randrange(1, n + 1)
        return bound_report(theorem, n=n, M=M, r=r, delta=rng.randrange(2, 7))
    n = rng.randrange(1, 60)
    M = rng.randrange(1, n + 1)
    alpha = rng.randrange(1, 4)
    if theorem == "general":
        return bound_report(theorem, n=n, M=M, alpha=alpha, rho=rng.randrange(0, n))
    kwargs = dict(r=rng.randrange(1, 12))
    if theorem == "lrc":
        kwargs["delta"] = rng.randrange(2, 7)
    return bound_report(theorem, n=n, M=M, alpha=alpha, **kwargs)


@pytest.mark.parametrize("theorem", sorted(BENCH_BOUNDS))
def test_every_bound_is_the_general_bound_at_its_floor(theorem):
    # the uniform form: each theorem only supplies a floor on rho
    rng = Random(83)
    for _ in range(2000):
        rep = _random_report(rng, theorem)
        (floor,) = rep.intermediate.values()
        n, M, alpha = rep.params["n"], rep.params["M"], rep.params.get("alpha", 1)
        assert rep.value == bound_general(n, M, alpha, floor), rep


def test_general_bound_at_exact_rho_is_the_distance():
    # exact rho = n - M + 1 - d, from two brute-force oracles and no
    # engine: rho from the chains over all regenerating sets, d from
    # the lightest nonzero codeword
    for code in oracle_codes():
        n, M = code.n, code.M
        exact_rho = rho_from_phi(lambda x: exhaustive_phi(code, x), M)
        assert bound_general(n, M, 1, exact_rho) == codeword_min_weight(code), (
            code.columns
        )

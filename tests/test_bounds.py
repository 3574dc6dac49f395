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

from oracles import fraction_ceil


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
        for M, b_sq, b_rdc in compare_table(r):
            assert b_sq <= b_rdc, (r, M)


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

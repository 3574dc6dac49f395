"""Field arithmetic, irreducibility, independence and rank."""

from __future__ import annotations

from random import Random

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irred_p_ben_or

from locrep import (
    DomainError,
    GF2m,
    default_modulus,
    is_irreducible,
    linearly_independent,
    matrix_rank,
    solve_column,
)
from locrep.gf2m import MAX_DEGREE, poly_mod
from oracles import poly_mul, trial_division_irreducible

GF16 = GF2m(4)  # modulus z^4 + z + 1
Z = 2  # the element z


def _sympy_irreducible(poly: int) -> bool:
    # Ben-Or's test, an algorithm independent of the Rabin test under test
    m = poly.bit_length() - 1
    coeffs = [(poly >> (m - i)) & 1 for i in range(m + 1)]
    return gf_irred_p_ben_or(coeffs, 2, ZZ)


def test_default_modulus_gf16_is_z4_z_1():
    assert default_modulus(4) == 0b10011


def test_default_moduli_are_irreducible_and_lex_minimal():
    for m in range(1, 65):
        mod = default_modulus(m)
        assert mod.bit_length() == m + 1
        assert _sympy_irreducible(mod)
        # nothing smaller of the same degree is irreducible
        for cand in range(1 << m, mod):
            if m > 1 and (cand & 1 == 0 or cand.bit_count() % 2 == 0):
                continue  # divisible by z, or by z + 1 (an even term count)
            assert not _sympy_irreducible(cand)


@pytest.mark.parametrize(
    "degree, modulus",
    [
        (16, 0x1002B),
        (25, 0x2000009),
        (36, 0x1000000035),
        (49, 0x2000000000071),
        (64, 0x1000000000000001B),
    ],
)
def test_default_modulus_pinned(degree, modulus):
    # the first three are the moduli of the benchmark's golden files
    assert default_modulus(degree) == modulus


def test_is_irreducible_agrees_with_sympy():
    rng = Random(7)
    for _ in range(300):
        m = rng.randrange(2, 65)
        poly = (1 << m) | rng.randrange(1 << m)
        assert is_irreducible(poly) == _sympy_irreducible(poly)


def test_is_irreducible_agrees_with_trial_division_up_to_degree_12():
    for poly in range(1 << 13):
        assert is_irreducible(poly) == trial_division_irreducible(poly), hex(poly)


def test_product_of_the_irreducible_cubics_is_caught_by_the_gcd_step():
    cubic_a, cubic_b = 0b1011, 0b1101  # z^3 + z + 1, z^3 + z^2 + 1
    assert is_irreducible(cubic_a) and is_irreducible(cubic_b)
    poly = poly_mul(cubic_a, cubic_b)
    assert poly == 0b1111111
    # both cubics divide z^8 - z, hence z^(2^6) - z: the Frobenius step
    # passes, and only gcd(f, z^(2^3) - z) = f exposes the factors
    assert poly_mod(1 << 64, poly) == Z
    assert not is_irreducible(poly)


def test_product_of_two_degree_18_irreducibles_rejected_at_degree_36():
    low = default_modulus(18)
    high = next(
        cand for cand in range(low + 1, 1 << 19) if is_irreducible(cand)
    )
    assert _sympy_irreducible(high)
    poly = poly_mul(low, high)
    assert poly.bit_length() == 37
    with pytest.raises(DomainError):
        GF2m(36, modulus=poly)


def _field_tables_are_exact(field, rng):
    q = field.order
    exp, log = field._exp, field._log
    # exp runs once round the multiplicative group, twice over
    assert len(exp) == 2 * (q - 1)
    assert exp[: q - 1] == exp[q - 1 :]
    assert sorted(exp[: q - 1]) == list(range(1, q))
    assert all(log[exp[i]] == i for i in range(q - 1))
    for _ in range(200):
        a, b = rng.randrange(1, q), rng.randrange(q)
        assert field.mul(a, b) == field._polymul(a, b)
        assert field._polymul(a, field.inv(a)) == 1


@pytest.mark.parametrize("degree", range(1, 17))
def test_default_field_tables(degree):
    _field_tables_are_exact(GF2m(degree), Random(degree))


@pytest.mark.parametrize("degree, modulus", [(16, 0x1002B), (8, 0x11B)])
def test_tables_when_z_is_not_primitive(degree, modulus):
    field = GF2m(degree, modulus)
    order_of_z, x = 1, Z
    while x != 1:
        x = field.mul(x, Z)
        order_of_z += 1
    assert order_of_z < field.order - 1
    assert field._exp[1] != Z
    _field_tables_are_exact(field, Random(modulus))


def test_reducible_modulus_rejected():
    assert not _sympy_irreducible(0b10001)  # z^4 + 1 = (z + 1)^4
    with pytest.raises(DomainError):
        GF2m(4, modulus=0b10001)


def test_wrong_degree_modulus_rejected():
    with pytest.raises(DomainError):
        GF2m(4, modulus=0b1011)  # degree 3


def test_field_degree_is_bounded():
    # the largest accepted degree still builds, over its default modulus
    assert GF2m(MAX_DEGREE).modulus == (1 << MAX_DEGREE) | 0x125
    for degree in (0, MAX_DEGREE + 1, 20000):
        with pytest.raises(DomainError):
            GF2m(degree)
        with pytest.raises(DomainError):
            GF2m(degree, modulus=(1 << degree) | 0b1011)
        with pytest.raises(DomainError):
            default_modulus(degree)


def test_mul_z3_by_z_wraps_to_z_plus_1():
    # z^4 = z + 1 modulo z^4 + z + 1 (polynomial long division)
    assert GF16.mul(8, Z) == 0b0011


def test_addition_is_xor_and_involutive():
    for a in range(16):
        assert GF16.add(a, a) == 0
        assert GF16.add(a, 0) == a


def test_multiplicative_identity_and_inverse():
    for a in range(1, 16):
        assert GF16.mul(a, 1) == a
        assert GF16.mul(a, GF16.inv(a)) == 1


def test_inverse_of_zero_fails():
    with pytest.raises(DomainError):
        GF16.inv(0)


def test_out_of_range_elements_rejected():
    with pytest.raises(DomainError):
        GF16.add(16, 1)
    with pytest.raises(DomainError):
        GF16.mul(3, -1)


def test_field_axioms_randomized():
    rng = Random(11)
    for field in (GF16, GF2m(5), GF2m(9)):
        q = field.order
        for _ in range(100):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert field.mul(a, b) == field.mul(b, a)
            assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
            assert field.mul(a, field.add(b, c)) == field.add(
                field.mul(a, b), field.mul(a, c)
            )


def test_degree_one_field_works():
    # GF(2) itself: degree 1 with modulus z
    gf2 = GF2m(1)
    assert gf2.mul(1, 1) == 1
    assert gf2.inv(1) == 1
    assert gf2.add(1, 1) == 0
    assert gf2.frobenius(1, 5) == 1
    assert matrix_rank(gf2, 2, [[1, 0], [1, 1], [0, 1]]) == 2


def test_untabled_field_inverse_roundtrip():
    # degree 17 exceeds the lookup-table threshold, exercising the
    # shift-and-xor multiplication path
    field = GF2m(17)
    rng = Random(3)
    for _ in range(50):
        a = rng.randrange(1, field.order)
        b = rng.randrange(field.order)
        assert field.mul(field.inv(a), field.mul(a, b)) == b


def test_frobenius_identity_power():
    for a in range(16):
        assert GF16.frobenius(a, 0) == a


def test_frobenius_z_squared_twice():
    # z^(2^2) = z^4 = z + 1
    assert GF16.frobenius(Z, 2) == 0b0011


def test_frobenius_is_additive():
    rng = Random(23)
    for _ in range(100):
        a, b = rng.randrange(16), rng.randrange(16)
        assert GF16.frobenius(a ^ b, 1) == GF16.frobenius(a, 1) ^ GF16.frobenius(b, 1)


def test_frobenius_order_divides_degree():
    for field in (GF16, GF2m(3), GF2m(6)):
        for a in range(field.order):
            assert field.frobenius(a, field.degree) == a


def test_freshmans_dream():
    rng = Random(5)
    for field in (GF16, GF2m(9)):
        for _ in range(200):
            a = rng.randrange(field.order)
            b = rng.randrange(field.order)
            lhs = field.mul(a ^ b, a ^ b)
            rhs = field.mul(a, a) ^ field.mul(b, b)
            assert lhs == rhs


def test_linear_independence_basis_monomials():
    assert linearly_independent(GF16, [1, Z, Z**2, 8])


def test_linear_independence_repeats_and_sums():
    assert not linearly_independent(GF16, [Z, Z, 4])
    assert not linearly_independent(GF16, [1, Z, 1 ^ Z])


def test_more_elements_than_degree_is_false_not_error():
    assert not linearly_independent(GF16, [1, 2, 4, 8, 3])


def test_matrix_rank_zero_and_identity():
    assert matrix_rank(GF16, 3, [[0, 0, 0], [0, 0, 0]]) == 0
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert matrix_rank(GF16, 3, ident) == 3


def test_matrix_rank_rejects_ragged_columns():
    with pytest.raises(DomainError):
        matrix_rank(GF16, 3, [[1, 0, 0], [1, 0]])


def test_matrix_rank_of_square_code_columns():
    from locrep import build_square_code

    sc = build_square_code(2, 3)
    assert matrix_rank(sc.field, 3, sc.code.columns) == 3


def test_matrix_rank_invariant_under_permutation_and_scaling():
    rng = Random(17)
    for _ in range(50):
        ncols = rng.randrange(1, 6)
        nrows = rng.randrange(1, 5)
        cols = [
            [rng.randrange(16) for _ in range(nrows)] for _ in range(ncols)
        ]
        base = matrix_rank(GF16, nrows, cols)
        shuffled = cols[:]
        rng.shuffle(shuffled)
        assert matrix_rank(GF16, nrows, shuffled) == base
        scaled = [
            [GF16.mul(rng.randrange(1, 16), x) for x in col] for col in cols
        ]
        assert matrix_rank(GF16, nrows, scaled) == base


def _dot(field, u, v):
    out = 0
    for a, b in zip(u, v):
        out ^= field.mul(a, b)
    return out


def _combine(field, coeffs, cols, nrows):
    return [_dot(field, coeffs, [col[i] for col in cols]) for i in range(nrows)]


def test_solve_column_reproduces_target():
    rng = Random(29)
    for field in (GF16, GF2m(1), GF2m(17)):
        q = field.order
        for _ in range(50):
            nrows = rng.randrange(1, 5)
            ncols = rng.randrange(1, 6)
            cols = []
            for _ in range(ncols):
                if cols and rng.random() < 0.3:
                    # an explicit combination of earlier columns is free
                    w = [rng.randrange(q) for _ in cols]
                    cols.append(_combine(field, w, cols, nrows))
                else:
                    cols.append([rng.randrange(q) for _ in range(nrows)])
            weights = [rng.randrange(q) for _ in range(ncols)]
            rhs = _combine(field, weights, cols, nrows)
            coeffs = solve_column(field, nrows, cols, rhs)
            assert coeffs is not None
            assert _combine(field, coeffs, cols, nrows) == rhs
            # only leftmost pivots carry weight: a column in the span of
            # the columns before it is a free variable, set to zero
            for j, c in enumerate(coeffs):
                if matrix_rank(field, nrows, cols[: j + 1]) == matrix_rank(
                    field, nrows, cols[:j]
                ):
                    assert c == 0


def test_solve_column_detects_inconsistency():
    cols = [[1, 0], [0, 0]]
    assert solve_column(GF16, 2, cols, [0, 1]) is None
    # random systems whose columns lie in the kernel of a functional f
    # that does not vanish on the rhs
    rng = Random(31)
    for field in (GF16, GF2m(1), GF2m(17)):
        q = field.order
        for _ in range(50):
            nrows = rng.randrange(1, 5)
            f = [rng.randrange(q) for _ in range(nrows)]
            p = rng.randrange(nrows)
            f[p] = rng.randrange(1, q)
            cols = []
            for _ in range(rng.randrange(0, 6)):
                col = [rng.randrange(q) for _ in range(nrows)]
                col[p] = 0
                col[p] = field.mul(field.inv(f[p]), _dot(field, f, col))
                cols.append(col)
            rhs = [rng.randrange(q) for _ in range(nrows)]
            rhs[p] = 0
            miss = _dot(field, f, rhs) ^ rng.randrange(1, q)
            rhs[p] = field.mul(field.inv(f[p]), miss)
            assert solve_column(field, nrows, cols, rhs) is None

"""Field arithmetic, irreducibility, independence and rank."""

from __future__ import annotations

import signal
import sys
import threading
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
from oracles import poly_mul, spend_allowance, trial_division_irreducible

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


def test_default_modulus_matches_a_plain_irreducibility_scan():
    # the scan skips the candidates z or z + 1 divides; at degree 1 z
    # itself is the answer
    for m in range(1, 41):
        plain = next(c for c in range(1 << m, 2 << m) if is_irreducible(c))
        assert default_modulus(m) == plain, m


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
    # the product that spends the allowance fills the tables, equal to a
    # fill from scratch
    spend_allowance(field)
    exp, log = field._exp, field._log
    assert (exp, log) == field._build_tables()
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


def test_construction_fills_no_tables():
    field = GF2m(16)
    assert field._exp is None and field._log is None
    # above the table degree there are none to fill
    assert GF2m(17)._tables() == (None, None)


@pytest.mark.parametrize(
    "degree, allowance", [(1, 0), (7, 0), (8, 1), (9, 2), (12, 16), (16, 256)]
)
def test_tables_are_filled_by_the_product_that_spends_the_allowance(
    degree, allowance
):
    # 2^m >> 8 products and inverses are made without tables; the one
    # that spends the last unit fills them, and below degree 8 the first
    field = GF2m(degree)
    rng = Random(degree)
    for k in range(allowance - 1):
        a = rng.randrange(1, field.order)
        if k % 2:
            assert field._polymul(a, field.inv(a)) == 1
        else:
            assert field.mul(a, a) == field._square(a)
        assert field._tables() == (None, None)
    # zero operands and squaring spend nothing
    assert field.mul(0, 1) == field.mul(1, 0) == 0
    field.frobenius(field.order - 1, 1)
    assert field._exp is None
    field.mul(1, 1)
    assert field._exp is not None and field._tables()[0] is field._exp


@pytest.mark.parametrize("op", ["mul", "inv"])
def test_a_stale_count_makes_the_last_product_without_tables(monkeypatch, op):
    # a thread spends the last unit while another, switched out after
    # reading the count as 2, writes back 1: the fill does not happen,
    # and the product that spent the unit is made without tables
    field = GF2m(9)
    field.mul(3, 5)
    fill = GF2m._tables

    def stale(self):
        object.__setattr__(self, "_allowance", 1)
        monkeypatch.setattr(GF2m, "_tables", fill)
        return fill(self)

    monkeypatch.setattr(GF2m, "_tables", stale)
    if op == "mul":
        assert field.mul(300, 77) == field._polymul(300, 77)
    else:
        assert field._polymul(300, field.inv(300)) == 1
    assert field._exp is None
    field.mul(1, 1)
    assert field._exp is not None


def _threads_share_fresh_fields(degree):
    """Four threads multiply on each of 400 fresh fields at once."""
    rng = Random(12)
    fields = [GF2m(degree) for _ in range(400)]
    q = fields[0].order
    pairs = [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(20)]
    expected = [fields[0]._polymul(a, b) for a, b in pairs]
    workers = 4
    start = threading.Barrier(workers)
    errors, wrong = [], []

    def work():
        try:
            for field in fields:
                start.wait(timeout=10)
                if [field.mul(a, b) for a, b in pairs] != expected:
                    wrong.append(field)
        except Exception as exc:  # reported below; the others stop waiting
            errors.append(exc)
            start.abort()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and wrong == []
    for field in fields:
        # a race on the count may leave some of the allowance unspent
        spend_allowance(field)
    assert all((f._exp, f._log) == fields[0]._tables() for f in fields)


def test_threads_that_multiply_first_share_one_field():
    # on each fresh field every thread may find the tables empty and fill
    # them; a reader must never see _exp filled and _log still empty
    _threads_share_fresh_fields(6)


def test_threads_that_spend_the_allowance_share_one_field():
    # the threads also count down the allowance of 4 together
    _threads_share_fresh_fields(10)


@pytest.mark.parametrize(
    "degree, modulus", [(d, None) for d in range(1, 11)] + [(8, 0x11B)]
)
def test_table_free_squaring_on_every_element(degree, modulus):
    field = GF2m(degree, modulus)
    elements = range(field.order)
    squares = [field._square(v) for v in elements]
    assert field._exp is None  # squaring filled no tables
    assert squares == [field.mul(v, v) for v in elements]


@pytest.mark.parametrize("degree", [16, 25, 36])
def test_table_free_squaring_on_samples(degree):
    field = GF2m(degree)
    rng = Random(degree)
    samples = [0, 1, field.order - 1] + [rng.randrange(field.order) for _ in range(300)]
    squares = [field._square(v) for v in samples]
    assert field._exp is None
    assert squares == [field.mul(v, v) for v in samples]


def test_reducible_modulus_rejected():
    assert not _sympy_irreducible(0b10001)  # z^4 + 1 = (z + 1)^4
    with pytest.raises(DomainError):
        GF2m(4, modulus=0b10001)


def test_wrong_degree_modulus_rejected():
    with pytest.raises(DomainError):
        GF2m(4, modulus=0b1011)  # degree 3


@pytest.mark.parametrize(
    "modulus, message",
    [
        (19.0, "field modulus must be an integer, got 19.0"),
        ("13", "field modulus must be an integer, got '13'"),
        (True, "field modulus must be an integer, got True"),
        # reduction by a negative int never ends
        (-19, "field modulus must be >= 0, got -19"),
    ],
)
def test_modulus_must_be_a_nonnegative_integer(modulus, message):
    # 19.0 and "13" once raised AttributeError, and -19 hung the constructor
    with pytest.raises(DomainError, match=message):
        GF2m(4, modulus)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: is_irreducible(-19), "polynomial must be >= 0, got -19"),
        (lambda: is_irreducible(19.0), "polynomial must be an integer, got 19.0"),
        (lambda: is_irreducible(True), "polynomial must be an integer, got True"),
        (lambda: poly_mod(-5, 3), "polynomial must be >= 0, got -5"),
        (lambda: poly_mod(5, -3), "polynomial must be >= 0, got -3"),
        (lambda: poly_mod(5.0, 3), "polynomial must be an integer, got 5.0"),
        (lambda: poly_mod(5, True), "polynomial must be an integer, got True"),
    ],
)
def test_polynomial_arguments_are_checked(call, message):
    # is_irreducible(-19) once never returned: reducing by a negative int
    # never ends.  An alarm on this process turns a hang into a failure
    def hang(signum, frame):
        raise TimeoutError("no answer within 5 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(DomainError, match=message):
            call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


@pytest.mark.parametrize("degree", [4.0, True])
def test_field_degree_must_be_an_integer(degree):
    # a float degree used to fail later with TypeError, and True built
    # GF(2^True)
    with pytest.raises(DomainError, match="field degree must be an integer"):
        GF2m(degree)


def test_pow_exponent_must_be_an_integer():
    with pytest.raises(DomainError, match="exponent must be an integer"):
        GF16.pow(3, 2.5)


def test_frobenius_power_must_be_an_integer():
    with pytest.raises(DomainError, match="frobenius power must be an integer"):
        GF16.frobenius(3, 1.5)


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


def test_pow_is_repeated_multiplication():
    for field in (GF16, GF2m(3), GF2m(8)):
        for a in range(field.order):
            acc = 1
            for e in range(20):
                assert field.pow(a, e) == acc, (field.degree, a, e)
                acc = field.mul(acc, a)
            if a:
                assert field.pow(a, field.order - 1) == 1
    assert GF16.pow(0, 0) == 1
    with pytest.raises(DomainError):
        GF16.pow(3, -1)


def test_out_of_range_elements_rejected():
    with pytest.raises(DomainError):
        GF16.add(16, 1)
    with pytest.raises(DomainError):
        GF16.mul(3, -1)


def test_bools_are_not_field_elements():
    # JSON true/false load as bool, a subclass of int
    for call in (
        lambda: GF16.add(True, False),
        lambda: GF16.mul(3, True),
        lambda: GF16.mul(False, 3),
        lambda: GF16.inv(True),
        lambda: GF16.pow(True, 2),
    ):
        with pytest.raises(DomainError, match="is not an element of GF"):
            call()


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


@pytest.mark.parametrize("degree", range(1, 13))
def test_euclid_inverse_is_the_table_inverse_on_every_element(degree):
    field = GF2m(degree)
    spend_allowance(field)
    for a in range(1, field.order):
        assert field._euclid_inv(a) == field._inv(a), a


@pytest.mark.parametrize("degree", [16, 17, 36, 64])
def test_tableless_inverse_on_samples(degree):
    # degree 16 while its allowance lasts, the others always
    field = GF2m(degree)
    rng = Random(degree)
    samples = [1, 2, field.order - 1] + [rng.randrange(1, field.order) for _ in range(100)]
    for a in samples:
        inverse = field.inv(a)
        assert 0 < inverse < field.order
        assert field._polymul(a, inverse) == 1
    assert field._exp is None


@pytest.mark.parametrize("degree", [1, 4, 9, 17])
def test_unchecked_mul_and_inv_agree_with_the_checked_ones(degree):
    # degree 17 has no log tables: shift-and-xor and extended Euclid
    field = GF2m(degree)
    rng = Random(41)
    for _ in range(100):
        a, b = rng.randrange(field.order), rng.randrange(field.order)
        assert field._mul(a, b) == field.mul(a, b)
        if a:
            # inv is _inv behind the argument check, so check the inverse
            assert field.inv(a) == field._inv(a)
            assert field.mul(a, field._inv(a)) == 1


def test_elimination_checks_each_entry_once(monkeypatch):
    field = GF2m(9)
    rng = Random(43)
    cols = [[rng.randrange(field.order) for _ in range(4)] for _ in range(7)]
    checked = []
    real = GF2m._check

    def counting(self, a):
        checked.append(a)
        return real(self, a)

    monkeypatch.setattr(GF2m, "_check", counting)
    assert matrix_rank(field, 4, cols) == 4
    assert len(checked) == 4 * 7
    cols[3][2] = field.order
    with pytest.raises(DomainError):
        matrix_rank(field, 4, cols)


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


@pytest.mark.parametrize("nrows", [True, 1.0, -1, "1"])
def test_matrix_rank_row_count_must_be_a_nonnegative_integer(nrows):
    # a bool was taken for 1, and a float reached range() as a TypeError
    with pytest.raises(DomainError, match="row count must be"):
        matrix_rank(GF16, nrows, [[1]])


@pytest.mark.parametrize("nrows", [True, 2.0, 2.5, -1])
def test_solve_column_row_count_must_be_a_nonnegative_integer(nrows):
    # checked before the rhs length, which read "rhs must have 2.5 entries"
    with pytest.raises(DomainError, match="row count must be"):
        solve_column(GF16, nrows, [[1, 0]], [1, 0])


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

"""Arithmetic in GF(2^m) with polynomial-basis bit-vector elements.

A field element is an int in [0, 2^m) whose bit i is the coefficient of
z^i in the basis {1, z, ..., z^(m-1)}.  Addition is XOR; multiplication
reduces modulo a monic irreducible polynomial, itself encoded as an int
with bit m set.  Linear-algebra helpers (independence over GF(2), rank
and column solving over GF(2^m)) live here as well.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import DomainError, InvariantError

# Log/antilog tables make multiplication a couple of list lookups but
# take 2^m ints of memory and, at degree 16, milliseconds to fill, so
# a field fills them only at its (2^m >> 8)-th product or inverse, and
# large degrees always multiply by shift-and-xor.
_TABLE_DEGREE_MAX = 16

#: Largest field degree accepted.  Rabin's test on a given modulus takes
#: m squarings, each reduced bit by bit, and the default-modulus search
#: runs it on many candidates; this bound keeps both within seconds.
MAX_DEGREE = 512


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(value, low: Optional[int], what: str) -> None:
    """Raise :class:`DomainError` unless ``value`` is an integer >= ``low``.

    A ``low`` of None tests the type alone, for a caller whose range
    test has its own message.
    """
    if not _is_int(value):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise DomainError(f"{what} must be >= {low}, got {value}")


def _check_degree(degree: int) -> None:
    if not _is_int(degree) or not 1 <= degree <= MAX_DEGREE:
        raise DomainError(
            f"field degree must be an integer in 1..{MAX_DEGREE}, got {degree!r}"
        )


def poly_degree(p: int) -> int:
    """Degree of a GF(2)[z] polynomial bit-vector (-1 for the zero poly)."""
    return p.bit_length() - 1


def poly_mod(a: int, b: int) -> int:
    """Remainder of a modulo b in GF(2)[z]; b must be nonzero."""
    # a negative int has a bit length too, but reducing by it never ends
    _check_int(a, 0, "polynomial")
    _check_int(b, 0, "polynomial")
    if b == 0:
        raise DomainError("polynomial division by zero")
    return _poly_mod(a, b)


def _poly_mod(a: int, b: int) -> int:
    """:func:`poly_mod` of two polynomials already known to be valid."""
    nb = b.bit_length()
    while (na := a.bit_length()) >= nb:
        a ^= b << (na - nb)
    return a


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _poly_square(a: int) -> int:
    # squaring is linear in characteristic 2: sum a_i z^i -> sum a_i z^(2i),
    # i.e. the binary digits of a read as base-4 digits
    return int(format(a, "b"), 4)


def _prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n >= 1, by trial division (n is small)."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def is_irreducible(poly: int) -> bool:
    """Whether a GF(2)[z] polynomial is irreducible.

    Rabin's test (Rabin, "Probabilistic algorithms in finite fields",
    SIAM J. Comput. 1980): f of degree m >= 2 is irreducible exactly
    when z^(2^m) = z mod f and gcd(f, z^(2^(m/p)) - z) = 1 for every
    prime p dividing m.  The powers z^(2^k) come from m squarings
    modulo f, so the cost is polynomial in m.  Degree-1 polynomials are
    irreducible; constants are not.
    """
    _check_int(poly, 0, "polynomial")
    m = poly_degree(poly)
    if m < 1:
        return False
    if m == 1:
        return True
    frob = [2]  # frob[k] = z^(2^k) mod poly
    for _ in range(m):
        frob.append(_poly_mod(_poly_square(frob[-1]), poly))
    if frob[m] != 2:
        return False
    return all(_poly_gcd(poly, frob[m // p] ^ 2) == 1 for p in _prime_factors(m))


@lru_cache(maxsize=None)
def default_modulus(degree: int) -> int:
    """Lexicographically smallest monic irreducible polynomial of the degree.

    Candidates z^m + L are scanned for L = 0, 1, 2, ... and the first
    irreducible one wins, so every run and every machine picks the same
    modulus (e.g. z^4 + z + 1 for degree 4).
    """
    _check_degree(degree)
    if degree == 1:
        return 0b10
    # from degree 2 up, z divides a candidate with no constant term and
    # z + 1 one with an even number of terms, so Rabin's test is skipped
    for low in range(1, 1 << degree, 2):
        cand = (1 << degree) | low
        if cand.bit_count() & 1 and is_irreducible(cand):
            return cand
    raise InvariantError(f"no irreducible polynomial of degree {degree}")


class GF2m:
    """The field GF(2^m) for a fixed modulus.

    Parameters
    ----------
    degree : int
        Extension degree 1 <= m <= :data:`MAX_DEGREE`; the field has 2^m
        elements.
    modulus : int or None
        Monic irreducible polynomial as a bit-vector with bit ``degree``
        set.  ``None`` selects :func:`default_modulus`.

    Up to degree 16 multiplication and inversion go through log/antilog
    tables of 2^m entries each.  They are not filled by the constructor,
    so a field that is only built, squared or serialised never pays for
    them.  A field has an allowance of ``2^m >> 8`` products and
    inverses (256 at degree 16, 1 at degree 8, none below).  Each one
    made without tables, by shift-and-xor or by extended Euclid, spends
    one unit, and the one that spends the last unit fills them and
    answers from them.  The allowance costs a few
    percent of a fill (about 0.6 ms against 14 ms at degree 16), so a
    field that needs many products loses little, and one that needs
    few never fills.

    The public element operations (:meth:`add`, :meth:`mul`,
    :meth:`inv`, :meth:`pow`, :meth:`frobenius`) check their operands
    and serve library users.  The package checks each outside value once,
    where it enters (a code's columns, a message, a codeword, a repair
    plan's coefficients), and then multiplies and inverts with the
    unchecked ``_mul`` and ``_inv``.

    Instances are immutable in value and safe to share between threads;
    all element operations are pure functions on ints.  Two threads that
    multiply at the same time may count down the allowance from stale
    values or both fill the tables.  A race on the count costs a few more
    or fewer products without tables, two fills are identical, and
    either may be kept: every answer is the same either way.
    """

    __slots__ = ("degree", "modulus", "order", "_exp", "_log", "_allowance")

    def __init__(self, degree: int, modulus: Optional[int] = None):
        _check_degree(degree)
        if modulus is None:
            # irreducible by construction; not tested again
            modulus = default_modulus(degree)
        else:
            # a negative int has a bit length too, but reducing by it
            # never ends
            _check_int(modulus, 0, "field modulus")
            if poly_degree(modulus) != degree:
                raise DomainError(
                    f"modulus {modulus:#x} is not monic of degree {degree}"
                )
            if not is_irreducible(modulus):
                raise DomainError(f"modulus {modulus:#x} is reducible over GF(2)")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "order", 1 << degree)
        object.__setattr__(self, "_exp", None)
        object.__setattr__(self, "_log", None)
        # products and inverses left to make without tables
        object.__setattr__(self, "_allowance", self.order >> 8)

    def __setattr__(self, name, value):
        raise AttributeError("GF2m is immutable")

    def _tables(self):
        """The log/antilog tables, filled once the allowance is spent.

        Returns (exp, log), or (None, None) above the table degree and
        while the allowance lasts.
        """
        exp = self._exp
        if exp is not None:
            # _log is written first, so it is filled too
            return exp, self._log
        if self.degree > _TABLE_DEGREE_MAX or self._allowance > 0:
            return None, None
        exp, log = self._build_tables()
        # _log first: whoever sees _exp filled finds _log filled too
        object.__setattr__(self, "_log", log)
        object.__setattr__(self, "_exp", exp)
        return exp, log

    def _build_tables(self):
        # z itself need not generate the multiplicative group (it does not
        # for the AES polynomial), so take the smallest g whose order is
        # q - 1: g^((q-1)/p) != 1 for every prime p dividing q - 1.
        q = self.order
        if q == 2:
            return [1, 1], [0, 0]
        n = q - 1
        cofactors = [n // p for p in _prime_factors(n)]
        for g in range(2, q):
            if all(self._polypow(g, e) != 1 for e in cofactors):
                break
        else:
            raise InvariantError("no generator found; modulus cannot be irreducible")
        # x -> x*g is GF(2)-linear, so it is the XOR of the images of x's
        # low byte and of its higher bits, each looked up in a table
        lo, hi = [0], [0]
        v = g
        for k in range(self.degree):
            half = lo if k < 8 else hi
            half += [t ^ v for t in half]
            v <<= 1
            if v & q:
                v ^= self.modulus
        # both halves of exp are written here: copying the first half
        # afterwards would briefly hold a second list of q - 1 entries
        exp = [0] * (2 * n)
        log = [0] * q
        x = 1
        for i in range(n):
            exp[i] = exp[i + n] = x
            log[x] = i
            x = lo[x & 0xFF] ^ hi[x >> 8]
        return exp, log

    def _polymul(self, a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if (a >> self.degree) & 1:
                a ^= self.modulus
        return r

    def _tableless(self) -> bool:
        """Whether the next product or inverse is made without tables.

        Called only while the field has none: above the table degree it
        never will; otherwise one unit of the allowance is spent, and the
        call that spends the last one fills the tables.  A thread that
        wrote back a stale count may have raised the allowance again
        after this call spent the last unit; then nothing is filled and
        this product, too, is made without tables.
        """
        if self.degree > _TABLE_DEGREE_MAX:
            return True
        left = self._allowance - 1
        object.__setattr__(self, "_allowance", max(left, 0))
        if left > 0:
            return True
        return self._tables()[0] is None

    def _mul(self, a: int, b: int) -> int:
        """Product of two elements already known to lie in the field."""
        if a == 0 or b == 0:
            return 0
        if self._exp is None and self._tableless():
            return self._polymul(a, b)
        return self._exp[self._log[a] + self._log[b]]

    def _inv(self, a: int) -> int:
        """Inverse of a nonzero element already known to lie in the field."""
        if self._exp is None and self._tableless():
            return self._euclid_inv(a)
        return self._exp[self.order - 1 - self._log[a]]

    def _euclid_inv(self, a: int) -> int:
        # extended Euclid in GF(2)[z], keeping g * a = u and h * a = v
        # modulo the modulus; the degrees of u and v fall until u = 1
        u, v = a, self.modulus
        g, h = 1, 0
        while u != 1:
            shift = u.bit_length() - v.bit_length()
            if shift < 0:
                u, v, g, h = v, u, h, g
                shift = -shift
            u ^= v << shift
            g ^= h << shift
        return g

    def _square(self, a: int) -> int:
        """Square of an element already known to lie in the field.

        Squaring is GF(2)-linear: a's bits spread to the even powers and
        reduced once, so no tables are needed.
        """
        return _poly_mod(_poly_square(a), self.modulus)

    def _polypow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._polymul(r, a)
            a = self._polymul(a, a)
            e >>= 1
        return r

    def _check(self, a: int) -> int:
        # one type test, not _is_int's two: it runs on every entry of a
        # code's columns; JSON true/false, a bool, is not an element
        if type(a) is not int or a < 0 or a >= self.order:
            raise DomainError(f"{a!r} is not an element of GF(2^{self.degree})")
        return a

    def add(self, a: int, b: int) -> int:
        """Add two elements (coefficientwise XOR; also subtraction)."""
        return self._check(a) ^ self._check(b)

    def mul(self, a: int, b: int) -> int:
        """Multiply two elements, reducing modulo the field modulus."""
        return self._mul(self._check(a), self._check(b))

    def inv(self, a: int) -> int:
        """Multiplicative inverse; zero has none."""
        self._check(a)
        if a == 0:
            raise DomainError("zero has no multiplicative inverse")
        return self._inv(a)

    def pow(self, a: int, e: int) -> int:
        """a raised to a nonnegative integer power (square and multiply)."""
        self._check(a)
        _check_int(e, 0, "exponent")
        return self._polypow(a, e)

    def frobenius(self, a: int, k: int) -> int:
        """a^(2^k), by squaring k times.

        The map has order dividing the degree, so k is reduced mod m.
        """
        self._check(a)
        _check_int(k, 0, "frobenius power")
        r = a
        for _ in range(k % self.degree):
            r = self._square(r)
        return r

    def __eq__(self, other):
        return (
            isinstance(other, GF2m)
            and self.degree == other.degree
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.degree, self.modulus))

    def __repr__(self):
        return f"GF2m(degree={self.degree}, modulus={self.modulus:#x})"


def _reduce(pivots: list[int], v: int) -> int:
    """``v`` reduced against an echelon: 0 exactly when v is in its span.

    ``pivots[p]`` is the echelon vector whose leading bit is p, or 0.
    """
    while v:
        w = pivots[v.bit_length() - 1]
        if not w:
            return v
        v ^= w
    return 0


def linearly_independent(field: GF2m, elems: Iterable[int]) -> bool:
    """Whether field elements are linearly independent over GF(2).

    Gaussian elimination on the coefficient bit-vectors.  More elements
    than the degree can never be independent, so that case is False
    rather than an error.
    """
    vecs = [field._check(a) for a in elems]
    if len(vecs) > field.degree:
        return False
    pivots = [0] * field.degree
    for v in vecs:
        v = _reduce(pivots, v)
        if not v:
            return False
        pivots[v.bit_length() - 1] = v
    return True


def _eliminate(
    field: GF2m, nrows: int, columns: Sequence[Sequence[int]]
) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of a matrix given by its columns.

    Pivots are taken on the leftmost usable column, each normalised
    with an exact field inversion.  Returns the reduced rows and the
    pivot column indices in increasing order.
    """
    _check_int(nrows, 0, "row count")
    for col in columns:
        if len(col) != nrows:
            raise DomainError(
                f"ragged column: expected {nrows} entries, got {len(col)}"
            )
    rows = [[field._check(col[i]) for col in columns] for i in range(nrows)]
    # every entry is checked once above; the elimination multiplies unchecked
    mul = field._mul
    pivot_cols: list[int] = []
    r = 0
    for c in range(len(columns)):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = field._inv(rows[r][c])
        rows[r] = [mul(scale, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x ^ mul(f, y) for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    return rows, pivot_cols


def matrix_rank(field: GF2m, nrows: int, columns: Sequence[Sequence[int]]) -> int:
    """Rank over GF(2^m) of a matrix given by its columns.

    Plain field elimination with no floating point; the package ranks
    through :class:`~locrep.linear_code.LinearCode`, and this stays as
    the independent reference the tests compare against.
    """
    return len(_eliminate(field, nrows, columns)[1])


def solve_column(
    field: GF2m,
    nrows: int,
    columns: Sequence[Sequence[int]],
    rhs: Sequence[int],
) -> Optional[list[int]]:
    """Coefficients c with sum(c_j * columns[j]) = rhs, or None.

    Elimination pivots on the leftmost usable column, and free variables
    are set to zero, so the returned combination is deterministic.  The
    system is inconsistent exactly when the rhs column becomes a pivot.
    """
    _check_int(nrows, 0, "row count")
    if len(rhs) != nrows:
        raise DomainError(f"rhs must have {nrows} entries, got {len(rhs)}")
    k = len(columns)
    rows, pivot_cols = _eliminate(field, nrows, list(columns) + [rhs])
    if pivot_cols and pivot_cols[-1] == k:
        return None
    coeffs = [0] * k
    for row_idx, c in enumerate(pivot_cols):
        coeffs[c] = rows[row_idx][k]
    return coeffs

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
# take 2^m ints of memory, so large degrees fall back to shift-and-xor.
_TABLE_DEGREE_MAX = 16

#: Largest field degree accepted.  Rabin's test on a given modulus takes
#: m squarings, each reduced bit by bit, and the default-modulus search
#: runs it on many candidates; this bound keeps both within seconds.
MAX_DEGREE = 512


def _check_degree(degree: int) -> None:
    if not 1 <= degree <= MAX_DEGREE:
        raise DomainError(
            f"field degree must be in 1..{MAX_DEGREE}, got {degree}"
        )


def poly_degree(p: int) -> int:
    """Degree of a GF(2)[z] polynomial bit-vector (-1 for the zero poly)."""
    return p.bit_length() - 1


def poly_mod(a: int, b: int) -> int:
    """Remainder of a modulo b in GF(2)[z]; b must be nonzero."""
    if b == 0:
        raise DomainError("polynomial division by zero")
    nb = b.bit_length()
    while (na := a.bit_length()) >= nb:
        a ^= b << (na - nb)
    return a


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
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
    m = poly_degree(poly)
    if m < 1:
        return False
    if m == 1:
        return True
    frob = [2]  # frob[k] = z^(2^k) mod poly
    for _ in range(m):
        frob.append(poly_mod(_poly_square(frob[-1]), poly))
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
    for low in range(1 << degree):
        cand = (1 << degree) | low
        if is_irreducible(cand):
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

    Instances are immutable and safe to share between threads; all
    element operations are pure functions on ints.
    """

    __slots__ = ("degree", "modulus", "order", "_exp", "_log")

    def __init__(self, degree: int, modulus: Optional[int] = None):
        _check_degree(degree)
        if modulus is None:
            # irreducible by construction; not tested again
            modulus = default_modulus(degree)
        elif poly_degree(modulus) != degree:
            raise DomainError(
                f"modulus {modulus:#x} is not monic of degree {degree}"
            )
        elif not is_irreducible(modulus):
            raise DomainError(f"modulus {modulus:#x} is reducible over GF(2)")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "order", 1 << degree)
        exp, log = (None, None)
        if degree <= _TABLE_DEGREE_MAX:
            exp, log = self._build_tables()
        object.__setattr__(self, "_exp", exp)
        object.__setattr__(self, "_log", log)

    def __setattr__(self, name, value):
        raise AttributeError("GF2m is immutable")

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

    def _polypow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._polymul(r, a)
            a = self._polymul(a, a)
            e >>= 1
        return r

    def _check(self, a: int) -> int:
        if not isinstance(a, int) or a < 0 or a >= self.order:
            raise DomainError(f"{a!r} is not an element of GF(2^{self.degree})")
        return a

    def add(self, a: int, b: int) -> int:
        """Add two elements (coefficientwise XOR; also subtraction)."""
        return self._check(a) ^ self._check(b)

    def mul(self, a: int, b: int) -> int:
        """Multiply two elements, reducing modulo the field modulus."""
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._polymul(a, b)

    def inv(self, a: int) -> int:
        """Multiplicative inverse; zero has none."""
        self._check(a)
        if a == 0:
            raise DomainError("zero has no multiplicative inverse")
        if self._exp is not None:
            return self._exp[self.order - 1 - self._log[a]]
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        """a raised to a nonnegative integer power (square and multiply)."""
        self._check(a)
        if e < 0:
            raise DomainError("negative exponents are not supported; use inv")
        r = 1
        base = a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    def frobenius(self, a: int, k: int) -> int:
        """a^(2^k), by squaring k times.

        The map has order dividing the degree, so k is reduced mod m.
        """
        self._check(a)
        if k < 0:
            raise DomainError(f"frobenius power must be >= 0, got {k}")
        r = a
        for _ in range(k % self.degree):
            r = self.mul(r, r)
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


def linearly_independent(field: GF2m, elems: Iterable[int]) -> bool:
    """Whether field elements are linearly independent over GF(2).

    Gaussian elimination on the coefficient bit-vectors.  More elements
    than the degree can never be independent, so that case is False
    rather than an error.
    """
    vecs = [field._check(a) for a in elems]
    if len(vecs) > field.degree:
        return False
    pivots: dict[int, int] = {}  # leading bit -> reduced vector
    for v in vecs:
        inserted = False
        while v:
            lead = v.bit_length() - 1
            w = pivots.get(lead)
            if w is None:
                pivots[lead] = v
                inserted = True
                break
            v ^= w
        if not inserted:
            return False
    return True


def _eliminate(
    field: GF2m, nrows: int, columns: Sequence[Sequence[int]]
) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of a matrix given by its columns.

    Pivots are taken on the leftmost usable column, each normalised
    with an exact field inversion.  Returns the reduced rows and the
    pivot column indices in increasing order.
    """
    if nrows < 0:
        raise DomainError(f"row count must be >= 0, got {nrows}")
    for col in columns:
        if len(col) != nrows:
            raise DomainError(
                f"ragged column: expected {nrows} entries, got {len(col)}"
            )
    rows = [[field._check(col[i]) for col in columns] for i in range(nrows)]
    pivot_cols: list[int] = []
    r = 0
    for c in range(len(columns)):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = field.inv(rows[r][c])
        rows[r] = [field.mul(scale, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x ^ field.mul(f, y) for x, y in zip(rows[i], rows[r])]
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

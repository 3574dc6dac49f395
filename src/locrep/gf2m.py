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

from .errors import DomainError

# Log/antilog tables make multiplication a couple of list lookups but
# take 2^m ints of memory, so large degrees fall back to shift-and-xor.
_TABLE_DEGREE_MAX = 16


def poly_degree(p: int) -> int:
    """Degree of a GF(2)[z] polynomial bit-vector (-1 for the zero poly)."""
    return p.bit_length() - 1


def poly_mod(a: int, b: int) -> int:
    """Remainder of a modulo b in GF(2)[z]; b must be nonzero."""
    if b == 0:
        raise DomainError("polynomial division by zero")
    db = poly_degree(b)
    while a and poly_degree(a) >= db:
        a ^= b << (poly_degree(a) - db)
    return a


def is_irreducible(poly: int) -> bool:
    """Whether a GF(2)[z] polynomial is irreducible.

    Decided by trial division against every monic polynomial of degree
    between 1 and deg(poly)/2.  Degree-1 polynomials are irreducible;
    constants are not.
    """
    m = poly_degree(poly)
    if m < 1:
        return False
    for d in range(1, m // 2 + 1):
        for low in range(1 << d):
            if poly_mod(poly, (1 << d) | low) == 0:
                return False
    return True


@lru_cache(maxsize=None)
def default_modulus(degree: int) -> int:
    """Lexicographically smallest monic irreducible polynomial of the degree.

    Candidates z^m + L are scanned for L = 0, 1, 2, ... and the first
    irreducible one wins, so every run and every machine picks the same
    modulus (e.g. z^4 + z + 1 for degree 4).
    """
    if degree < 1:
        raise DomainError(f"field degree must be >= 1, got {degree}")
    for low in range(1 << degree):
        cand = (1 << degree) | low
        if is_irreducible(cand):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {degree}")


class GF2m:
    """The field GF(2^m) for a fixed modulus.

    Parameters
    ----------
    degree : int
        Extension degree m >= 1; the field has 2^m elements.
    modulus : int or None
        Monic irreducible polynomial as a bit-vector with bit ``degree``
        set.  ``None`` selects :func:`default_modulus`.

    Instances are immutable and safe to share between threads; all
    element operations are pure functions on ints.
    """

    __slots__ = ("degree", "modulus", "order", "_exp", "_log")

    def __init__(self, degree: int, modulus: Optional[int] = None):
        if degree < 1:
            raise DomainError(f"field degree must be >= 1, got {degree}")
        if modulus is None:
            # irreducible by construction; trial division is not repeated
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
        # for the AES polynomial), so try successive candidates.
        q = self.order
        if q == 2:
            return [1, 1], [0, 0]
        for g in range(2, q):
            exp = [0] * (2 * (q - 1))
            log = [0] * q
            x = 1
            ok = True
            for i in range(q - 1):
                if x == 1 and i > 0:
                    ok = False
                    break
                exp[i] = x
                log[x] = i
                x = self._polymul(x, g)
            if ok and x == 1:
                for i in range(q - 1, 2 * (q - 1)):
                    exp[i] = exp[i - (q - 1)]
                return exp, log
        raise AssertionError("no generator found; modulus cannot be irreducible")

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

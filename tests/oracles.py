"""Independent reference implementations used to freeze expected values.

Everything here recomputes quantities from their definitions with the
dumbest possible enumeration, deliberately avoiding the search engines
under test.  Rank queries go through the public field-level
elimination (``matrix_rank``), never through the packed GF(2) engine
behind ``LinearCode.entropy`` and ``min_distance``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from random import Random

from locrep import GF2m, LinearCode, matrix_rank
from locrep.gf2m import poly_mod


def trial_division_irreducible(poly: int) -> bool:
    """Irreducibility over GF(2) by trial division.

    Divides by every monic polynomial of degree 1 .. deg(poly)/2, so the
    cost is exponential in the degree; use it only for small degrees.
    Degree-1 polynomials are irreducible; constants are not.
    """
    m = poly.bit_length() - 1
    if m < 1:
        return False
    for d in range(1, m // 2 + 1):
        for low in range(1 << d):
            if poly_mod(poly, (1 << d) | low) == 0:
                return False
    return True


def poly_mul(a: int, b: int) -> int:
    """Product in GF(2)[z] of two bit-vector polynomials (no reduction)."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def repetition_code(n: int = 3, field: GF2m | None = None) -> LinearCode:
    field = field or GF2m(4)
    return LinearCode(field, n, 1, [[1]] * n)


def single_parity_code(field: GF2m | None = None) -> LinearCode:
    # columns e1, e2, e3, e1+e2+e3
    field = field or GF2m(4)
    return LinearCode(
        field, 4, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    )


def random_code(
    rng: Random, field: GF2m, n: int, M: int, require_repairable: bool = True
) -> LinearCode:
    """A random full-rank code; optionally one where d >= 2."""
    while True:
        cols = [
            [rng.randrange(field.order) for _ in range(M)] for _ in range(n)
        ]
        if matrix_rank(field, M, cols) != M:
            continue
        code = LinearCode(field, n, M, cols)
        if not require_repairable:
            return code
        # d >= 2 iff every single coordinate is redundant
        if all(
            subset_rank(code, [j for j in range(1, n + 1) if j != i]) == M
            for i in range(1, n + 1)
        ):
            return code


def subset_rank(code: LinearCode, members) -> int:
    """Rank of selected columns via the public elimination only."""
    cols = [code.columns[i - 1] for i in members]
    return matrix_rank(code.field, code.M, cols)


def naive_min_distance(code: LinearCode) -> tuple[int, tuple[int, ...]]:
    """Distance by scanning subset sizes downward, plus the lex-first witness.

    Direct transcription of the definition: d = n - max{|E| : rank(E) < M},
    stopping at the first deficient subset of the first size that has one.
    """
    n, M = code.n, code.M
    for size in range(n - 1, -1, -1):
        for E in combinations(range(1, n + 1), size):
            if subset_rank(code, E) < M:
                return n - size, E
    raise AssertionError("even the empty set should be deficient for M >= 1")


def codeword_min_weight(code: LinearCode) -> int:
    """Minimum Hamming weight over all nonzero codewords (full enumeration).

    Only feasible for tiny (2^m)^M message spaces; agrees with the
    subset-rank distance for full-rank linear codes.
    """
    n, M = code.n, code.M
    q = code.field.order
    best = n + 1
    for msg in product(range(q), repeat=M):
        if not any(msg):
            continue
        weight = sum(1 for sym in code.encode(msg) if sym)
        if weight < best:
            best = weight
    return best


def all_regenerating_sets(code: LinearCode, target: int) -> list[frozenset[int]]:
    """Every regenerating set of a coordinate, straight from the definition."""
    n = code.n
    others = [j for j in range(1, n + 1) if j != target]
    out = []
    for size in range(0, n):
        for extra in combinations(others, size):
            members = frozenset((target,) + extra)
            if subset_rank(code, members) == subset_rank(code, extra):
                out.append(members)
    return out


def locality_holds(code: LinearCode, r: int, delta: int) -> bool:
    """Locality r with delta-2 extra erasures, straight from the definition.

    Every coordinate i and every erasure pattern E containing i with
    |E| < delta need some regenerating set of i with at most r+1
    members that meets E only in i.
    """
    n = code.n
    for i in range(1, n + 1):
        small = [R for R in all_regenerating_sets(code, i) if len(R) <= r + 1]
        others = [j for j in range(1, n + 1) if j != i]
        for extra in range(delta - 1):
            for blocked in combinations(others, extra):
                erased = {i, *blocked}
                if not any(R & erased == {i} for R in small):
                    return False
    return True


def exhaustive_phi(code: LinearCode, x: int) -> int | None:
    """Minimum nontrivial-union size over ALL regenerating sets (no minimality).

    Memoised recursion on (union bitmask, sets remaining); returns None
    when no chain of the requested length exists.
    """
    n = code.n
    regsets_by_target = [
        [sum(1 << (i - 1) for i in R) for R in all_regenerating_sets(code, t)]
        for t in range(1, n + 1)
    ]

    @lru_cache(maxsize=None)
    def best(union_mask: int, k: int) -> int:
        if k == 0:
            return union_mask.bit_count()
        out = n + 1
        for t in range(n):
            if (union_mask >> t) & 1:
                continue
            for mask in regsets_by_target[t]:
                v = best(union_mask | mask, k - 1)
                if v < out:
                    out = v
        return out

    v = best(0, x)
    return None if v > n else v


def fraction_ceil(a: int, b: int) -> int:
    """Ceiling of a/b via divmod, as an independent check of ceil arithmetic."""
    q, rem = divmod(a, b)
    return q + (1 if rem else 0)


def random_nontrivial_chain(rng: Random, code, minsets, max_len: int = 3):
    """A random valid chain: targets outside the running union.

    ``minsets`` maps each coordinate to its minimal regenerating sets;
    chosen sets are sometimes inflated with extra coordinates, which
    preserves the regenerating property (supersets regenerate too).
    """
    from locrep import RegeneratingSet

    union: set[int] = set()
    chain = []
    for _ in range(rng.randrange(1, max_len + 1)):
        outside = [t for t in range(1, code.n + 1) if t not in union]
        if not outside:
            break
        target = rng.choice(outside)
        options = minsets[target]
        if not options:
            continue
        members = set(rng.choice(options).members)
        for extra in rng.sample(range(1, code.n + 1), rng.randrange(0, 3)):
            members.add(extra)
        chain.append(RegeneratingSet(target, frozenset(members)))
        union |= members
    return chain


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of int bit-vectors, by leading-bit reduction."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            lead = v.bit_length() - 1
            w = pivots.get(lead)
            if w is None:
                pivots[lead] = v
                break
            v ^= w
    return len(pivots)


def random_admissible_grid_subset(rng: Random, r: int, M: int) -> set[int]:
    """A coordinate set meeting the structural rank-check hypotheses.

    One grid row stays empty, every other row contributes at most r
    cells, and the total is at least M.
    """
    size = r + 1
    while True:
        empty_row = rng.randrange(1, size + 1)
        chosen: set[int] = set()
        for i in range(1, size + 1):
            if i == empty_row:
                continue
            count = rng.randrange(0, r + 1)
            for j in rng.sample(range(1, size + 1), count):
                chosen.add((i - 1) * size + j)
        if len(chosen) >= M:
            return chosen

"""Independent reference implementations used to freeze expected values.

Everything here recomputes quantities from their definitions with the
dumbest possible enumeration, deliberately avoiding the search engines
under test.  Rank queries go through the public field-level
elimination (``matrix_rank``), never through the packed GF(2) engine
behind ``LinearCode.entropy`` and ``min_distance``; the one exception,
``reference_circuits``, ranks through that engine on purpose, to pin
which subsets the circuit scan ranks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from random import Random

from locrep import GF2m, LinearCode, build_square_code, matrix_rank
from locrep.linear_code import dumps
from locrep.gf2m import _eliminate, poly_mod


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


def mismatched_square_files() -> dict[str, str]:
    """Code files whose square metadata does not fit the code, by case.

    Each case breaks one rule: r >= 2, n = (r+1)^2, the code's own M,
    and M in r+1..r^2 (the last with the rest consistent).
    """
    code = build_square_code(2, 3).code
    below = LinearCode(code.field, 9, 2, [col[:2] for col in code.columns])
    above = LinearCode(
        code.field, 9, 9, [[int(i == j) for i in range(9)] for j in range(9)]
    )

    def text(c: LinearCode, r: int, M: int) -> str:
        return dumps(c, metadata={"family": "square", "r": r, "M": M})

    return {
        "r-zero": text(code, 0, 3),
        "r-one": text(code, 1, 3),
        "n-not-square": text(code, 3, 3),
        "M-not-the-codes": text(code, 2, 4),
        "M-below-range": text(below, 2, 2),
        "M-above-range": text(above, 2, 9),
    }


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


def oracle_codes(*codes: LinearCode) -> list[LinearCode]:
    """The given codes plus a fixed set of small ones with odd corners.

    Two repetition codes, the single-parity code, a GF(8) code whose
    coordinate 2 is a zero column (a circuit on its own) and four
    random GF(8) codes with n <= 8 (seed 73), for the tests that check
    an engine against a brute-force oracle.
    """
    rng = Random(73)
    field = GF2m(3)
    out = list(codes)
    out += [repetition_code(), repetition_code(5), single_parity_code()]
    out.append(LinearCode(field, 4, 2, [[1, 0], [0, 0], [0, 1], [1, 1]]))
    for _ in range(4):
        n = rng.randrange(4, 9)
        M = rng.randrange(1, n)
        out.append(random_code(rng, field, n, M, require_repairable=False))
    return out


def reference_dual(code: LinearCode) -> LinearCode:
    """The parity-check code, from the field elimination's echelon form.

    Row i of the reduced generator is e_i on the pivot columns and a_i
    on the free ones; H's column at pivot p_i is a_i, and at the k-th
    free column e_k.  Needs M < n.
    """
    n = code.n
    rows, pivots = _eliminate(code.field, code.M, code.columns)
    free = [j for j in range(n) if j not in pivots]
    columns = [[int(i == k) for i in range(len(free))] for k in range(len(free))]
    columns = dict(zip(free, columns))
    for row, p in zip(rows, pivots):
        columns[p] = [row[f] for f in free]
    return LinearCode(code.field, n, n - code.M, [columns[j] for j in range(n)])


def spend_allowance(field: GF2m, left: int = 0) -> GF2m:
    """``field`` after products that leave ``left`` more to fill its tables.

    Each product spends a unit of the tableless allowance, and the one
    that spends the last unit (below degree 8, the first) fills the log
    tables; with ``left = 0`` they are filled.  Above degree 16 there
    are none, and nothing is spent.
    """
    while field._exp is None and field.degree <= 16 and max(field._allowance, 1) > left:
        field.mul(1, 1)
    return field


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


def reference_circuits(
    code: LinearCode, size_cap: int, target: int | None = None
) -> list[int]:
    """Circuit bitmasks by size then lex, by the plain superset-test scan.

    Visits every subset of up to min(size_cap, n, M+1) coordinates
    (through ``target``, if given), skips those containing a circuit
    already found, and accepts one when dropping its pivot (the target,
    or else its lowest member) keeps its rank.  It ranks through
    ``code._rank``, so it leaves in the rank cache exactly the subsets
    this scan ranks, for comparison with ``linear_code._circuits``.
    """
    size_cap = min(size_cap, code.n, code.M + 1)
    fixed = 0 if target is None else 1 << (target - 1)
    free = [1 << i for i in range(code.n) if 1 << i != fixed]
    found: list[int] = []
    for size in range(1, size_cap + 1):
        for extra in combinations(free, size - (fixed != 0)):
            mask = fixed + sum(extra)
            if any(c & mask == c for c in found):
                continue
            if code._rank(mask) == code._rank(mask ^ (fixed or mask & -mask)):
                found.append(mask)
    return found


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


def nullity_phi(code: LinearCode, x: int) -> int | None:
    """min{|U| : |U| - rank(U) >= x} over all coordinate subsets.

    Independent of chains and circuits: a nontrivial chain of x
    regenerating sets of a scalar code has a union of nullity at least
    x, and a set of nullity x holds such a chain, so this is phi(x).
    Scans sizes upward; None when no subset has nullity x.
    """
    n = code.n
    for size in range(x, n + 1):
        for U in combinations(range(1, n + 1), size):
            if size - subset_rank(code, U) >= x:
                return size
    return None


def rho_from_phi(phi, M: int) -> int:
    """The largest x with phi(x) - x < M, or 0; phi(x) is None past the last chain."""
    x = 0
    while (v := phi(x + 1)) is not None and v - x - 1 < M:
        x += 1
    return x


def largest_flat(code: LinearCode, rank: int) -> tuple[int, tuple[int, ...]]:
    """Size and lex-first witness of a largest subset of rank <= ``rank``.

    Scans sizes downward and stops at the first subset of the first
    size that has one; for rank < M that subset is a flat of that rank.
    """
    n = code.n
    for size in range(n, -1, -1):
        for X in combinations(range(1, n + 1), size):
            if subset_rank(code, X) <= rank:
                return size, X
    raise AssertionError("the empty set has rank 0")


def contraction(field: GF2m, columns, mask: int) -> list[tuple[int, ...]]:
    """The columns outside ``mask`` modulo the span of those in it.

    Plain elimination, one column of ``mask`` at a time, in order: with
    p the first nonzero coordinate of its residue, every residue v
    becomes v - (v[p] / w[p]) * w and coordinate p is deleted.  The
    others keep their order, so the coordinates are those of the
    package's pushes, up to each column's scale.  Products go through
    the checked public ``mul`` and ``inv``.
    """
    residues = [list(col) for col in columns]
    for j in range(len(columns)):
        if not mask >> j & 1:
            continue
        pivot = residues[j]
        p = next((k for k, x in enumerate(pivot) if x), None)
        if p is None:
            continue
        scale = field.inv(pivot[p])
        for i, v in enumerate(residues):
            f = field.mul(v[p], scale)
            v = [x ^ field.mul(f, w) for x, w in zip(v, pivot)]
            del v[p]
            residues[i] = v
    return [tuple(v) for j, v in enumerate(residues) if not mask >> j & 1]


def projective_point(field: GF2m, vector) -> tuple[int, ...] | None:
    """``vector`` over its first nonzero entry, or None when it is zero."""
    lead = next((x for x in vector if x), None)
    if lead is None:
        return None
    scale = field.inv(lead)
    return tuple(field.mul(scale, x) for x in vector)


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


def square_rank(r: int, M: int, mask: int) -> int:
    """Rank of a square code's columns, from its grid graph alone.

    Cell (i, j), bit (i-1)(r+1) + j-1 of ``mask``, is the edge between
    row vertex i and column vertex j of K_{r+1,r+1}.  The cell values
    are r^2 free ones plus zero row and column sums, so over GF(2) they
    form the bond (cographic) matroid of that graph: a set S of edges
    has rank |S| + 1 - c(E - S), with c counting the components on all
    2r+2 vertices, here by union-find.  The columns are Moore rows of
    the cell values, and with M <= m a Moore matrix truncates that
    rank at M (Lidl & Niederreiter, "Finite Fields", Lemma 3.51).
    """
    size = r + 1
    parent = list(range(2 * size))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    components = 2 * size
    for cell in range(size * size):
        if mask >> cell & 1:
            continue
        a, b = find(cell // size), find(size + cell % size)
        if a != b:
            parent[a] = b
            components -= 1
    return min(M, mask.bit_count() + 1 - components)


def square_distance(r: int, M: int) -> int:
    """Minimum distance of the square code, from its grid graph alone.

    d is the fewest erased cells T whose complement has rank below M.
    By :func:`square_rank` that asks for a cycle rank |T| - (2r+2) +
    c(T) of at least rho = r^2 + 1 - M.  A smallest such T is connected,
    on a row and b column vertices, with rho + a + b - 1 <= ab edges:
    (a-1)(b-1) >= rho.
    """
    rho = r * r + 1 - M
    return min(
        rho + a + b - 1
        for a in range(1, r + 2)
        for b in range(1, r + 2)
        if (a - 1) * (b - 1) >= rho
    )


def square_phi(r: int, M: int, x: int) -> int | None:
    """phi(x) of the square code, from its grid graph alone.

    phi(x) is the smallest set U of nullity |U| - rank(U) >= x.  By
    :func:`square_rank`, a U of rank M has nullity |U| - M, and any
    other U has nullity c(E - U) - 1.  So phi(x) = min(M + x, n - e(x+1))
    with e(k) the most edges of a spanning subgraph of K_{r+1,r+1} with
    k components; None past n - M, where no chain of x sets exists.
    e(k) splits the r+1 row and r+1 column vertices into k parts, each
    a lone vertex or a complete bipartite graph on a >= 1 row and
    b >= 1 column vertices, and takes the largest sum of a*b.
    """
    size = r + 1
    n = size * size
    if x > n - M:
        return None

    @lru_cache(maxsize=None)
    def edges(k: int, rows: int, cols: int) -> int | None:
        # the most edges on rows + cols vertices in exactly k components
        if k == 0:
            return 0 if rows == cols == 0 else None
        best = None
        parts = [(1, 0), (0, 1)]
        parts += [(a, b) for a in range(1, rows + 1) for b in range(1, cols + 1)]
        for a, b in parts:
            if a <= rows and b <= cols:
                rest = edges(k - 1, rows - a, cols - b)
                if rest is not None and (best is None or a * b + rest > best):
                    best = a * b + rest
        return best

    most = edges(x + 1, size, size)
    return M + x if most is None else min(M + x, n - most)


def square_oracle_applies(sc) -> bool:
    """The hypotheses of the graph oracles for a built square code.

    M <= m, and every column is the Frobenius orbit of its cell value:
    then the columns are Moore rows and :func:`square_rank` holds.
    """
    r, field, code = sc.r, sc.field, sc.code
    return sc.M <= field.degree and all(
        col[0] == sc.betas[k // (r + 1)][k % (r + 1)]
        and all(b == field.frobenius(a, 1) for a, b in zip(col, col[1:]))
        for k, col in enumerate(code.columns)
    )


def tamo_barg_code(r: int, delta: int, k: int, groups: int | None = None) -> LinearCode:
    """A Tamo-Barg code over GF(16): locality (r, delta), dimension k.

    Tamo and Barg, "A family of optimal locally recoverable codes" (IEEE
    Trans. IT 60(8), 2014).  With g = r + delta - 1 dividing 15 and r
    dividing k, the local groups are the cosets of the subgroup of order
    g of GF(16)*, on which x^g is constant, and a message is
    f = sum a_ij x^i (x^g)^j for i < r, j < k/r: the column at x holds
    those monomials.  On a coset f is a polynomial of degree below r, a
    [g, r, delta] Reed-Solomon code, and f has degree at most
    (r-1) + g(k/r - 1), so d = n - k + 1 - (k/r - 1)(delta - 1), which
    is ``bound_lrc``.  The points are all of GF(16)* (n = 15), coset by
    coset, or the first ``groups`` cosets only.  (4, 2, 4) is the
    Reed-Solomon [15, 4] code.
    """
    field = GF2m(4)
    g = r + delta - 1
    if 15 % g or k % r:
        raise ValueError(f"needs g = r + delta - 1 dividing 15 and r dividing k")
    cosets: dict[int, list[int]] = {}
    for x in range(1, 16):
        cosets.setdefault(field.pow(x, g), []).append(x)
    points = [x for coset in list(cosets.values())[:groups] for x in coset]
    columns = [
        [field.pow(x, i + g * j) for j in range(k // r) for i in range(r)]
        for x in points
    ]
    return LinearCode(field, len(points), k, columns)


def _masked_rank(code: LinearCode):
    """subset_rank on bitmasks (bit i-1 = coordinate i), memoised."""

    @lru_cache(maxsize=None)
    def rank(mask: int) -> int:
        return subset_rank(code, [i + 1 for i in range(code.n) if mask >> i & 1])

    return rank


def rdelta_locality_holds(code: LinearCode, r: int, delta: int) -> bool:
    """(r, delta) locality, straight from the definition.

    Prakash, Kamath, Lalitha and Kumar (ISIT 2012): every coordinate
    lies in a set S of at most r + delta - 1 coordinates with rank(S) <=
    r whose punctured code C|S has distance >= delta, that is, erasing
    any delta - 1 members of S leaves its rank (the zero code of a set
    of zero columns counts).  Scans every S up to that size.
    """
    rank = _masked_rank(code)
    uncovered = (1 << code.n) - 1
    for size in range(1, r + delta):
        for S in combinations([1 << i for i in range(code.n)], size):
            mask = sum(S)
            if not mask & uncovered or rank(mask) > r:
                continue
            erasures = combinations(S, min(delta - 1, size))
            if all(rank(mask - sum(E)) == rank(mask) for E in erasures):
                uncovered &= ~mask
                if not uncovered:
                    return True
    return False


def disjoint_repair_sets_hold(code: LinearCode, r: int, delta: int) -> bool:
    """delta - 1 repair sets per coordinate, disjoint apart from it.

    Coordinate i needs delta - 1 regenerating sets of at most r + 1
    members that meet pairwise only in i: a packing of the circuits
    through i, less i (shrinking a set to a circuit keeps it disjoint
    from the others).  A zero column regenerates from the empty set,
    which packs with itself.  Lists every regenerating set up to that
    size, then searches the packings.
    """
    rank = _masked_rank(code)
    for i in range(code.n):
        bit = 1 << i
        others = [1 << j for j in range(code.n) if j != i]
        helpers = [
            mask
            for size in range(r + 1)
            for R in combinations(others, size)
            if rank((mask := sum(R)) | bit) == rank(mask)
        ]
        if 0 in helpers:
            continue

        def packs(start: int, used: int, k: int) -> bool:
            return k == 0 or any(
                packs(s + 1, used | helpers[s], k - 1)
                for s in range(start, len(helpers))
                if not helpers[s] & used
            )

        if not packs(0, 0, delta - 1):
            return False
    return True

"""Linear scalar codes over GF(2^m) given by generator columns.

A code of length n and dimension M is the set of words (u . g_1, ...,
u . g_n) for messages u in GF(2^m)^M, where g_i is the i-th generator
column.  Coordinates are numbered 1..n throughout the public API.  The
joint entropy of a coordinate subset (in 2^m-ary symbol units) equals
the rank of the corresponding columns, which is the single oracle every
higher-level query goes through; minimum distance is the exact
subset-rank quantity n - max{|E| : rank(E) < M}, which is also the
size of the smallest circuit of the parity-check code.  It is searched
on whichever side of that duality has the smaller rank: the generator
for low-rate codes, the parity-check code when 2M >= n.
:class:`_RankHierarchy` makes that choice once per code, and is the one
source of d, exact rho and exact phi.

Single ranks and the full-rank check are taken over GF(2): a column
and its multiples z^t * column (t < m) are packed into m integers,
whose GF(2)-span equals the GF(2^m)-span of the column, so rank is
tracked with integer XOR alone.  The scans that rank many columns
against one span work in GF(2^m) instead: the circuit scan, and the
search over flats for the largest flat of a given rank.  That one
search gives the generator's largest hyperplane, and one ascending
walk of it over the ranks (:func:`_phi_walk`) gives both the
parity-check code's smallest circuit, its phi(1), and the generator's
exact phi.  Each scan keeps, for each column, its coordinates in the
quotient by the current span, scaled to a leading 1: a point of
projective space, or None for the zero residue.  Two nonzero residues
are dependent exactly when their points are equal, so a span test, or
the test of which columns a push closes over, is one tuple
comparison.  Pushing a column is one elimination step in the log
domain, :func:`_push_normalized`: one table lookup per coordinate (a
multiplication where the field has no log tables yet) where the packed
images would need m XOR passes, and a plain XOR for a residue that
leads where the pivot does.  The circuit scan, the flat search
and the contraction behind exact witnesses all push through it.  The
flat search has one level loop, which picks each pivot's kernel by the
length of its point.  Only a hyperplane search, whose target rank is
one below the residues' dimension, meets points of projective 3-space
and then of a projective plane: a 4-coordinate pivot that leads at 0
pushes through a written-out kernel, and a 3-coordinate pivot keys the
line through it and each other point by their XOR difference, with no
product.
"""

from __future__ import annotations

import json
from functools import reduce
from itertools import islice
from operator import xor
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import gf2m
from .bounds import _check_square_shape
from .gf2m import _check_int, _is_int, _reduce
from .errors import DomainError, InvariantError, SearchCapExceeded

#: Largest code length accepted by exhaustive subset scans by default.
DEFAULT_SEARCH_CAP = 24


def _pack(m: int, entries: Iterable[int]) -> int:
    """A vector bit-packed: entry i occupies bits i*m .. i*m+m-1."""
    packed = 0
    for i, x in enumerate(entries):
        packed |= x << (i * m)
    return packed


def _images(field: gf2m.GF2m, packed: int, length: int) -> list[int]:
    """The m GF(2) images z^t * v, t = 0..m-1, of a packed vector.

    Multiplying every entry by z at once is a shift within each of the
    ``length`` slots, plus the reduction polynomial in every slot whose
    top bit overflowed.
    """
    m = field.degree
    # the top bit of every slot
    top = ((1 << (length * m)) - 1) // ((1 << m) - 1) << (m - 1)
    reduction = field.modulus ^ (1 << m)
    images = [packed]
    for _ in range(m - 1):
        packed = ((packed & ~top) << 1) ^ ((packed & top) >> (m - 1)) * reduction
        images.append(packed)
    return images


def _times(images: Sequence[int], x: int) -> int:
    """x * v from v's images z^t * v: their XOR over the set bits t of x."""
    total = 0
    t = 0
    while x:
        if x & 1:
            total ^= images[t]
        x >>= 1
        t += 1
    return total


def _combination(code: LinearCode, coeffs: Iterable[int], coords: Iterable[int]) -> int:
    """The packed column sum(x * g_i) over the pairs of coeffs and coords."""
    total = 0
    for x, i in zip(coeffs, coords):
        total ^= _times(code._packed[i - 1], x)
    return total


class LinearCode:
    """An (n, M) linear code over GF(2^m), stored as generator columns.

    The generator must have full rank M (otherwise the n coordinates
    would not determine an M-symbol file).  Instances are immutable;
    entropy queries are cached per coordinate subset.
    """

    __slots__ = ("field", "n", "M", "columns", "_packed", "_rank_cache")

    def __init__(
        self, field: gf2m.GF2m, n: int, M: int, columns: Sequence[Sequence[int]]
    ):
        _check_int(n, None, "code length n")
        _check_int(M, None, "code dimension M")
        if not 1 <= M <= n:
            raise DomainError(f"need 1 <= M <= n, got M={M}, n={n}")
        if len(columns) != n:
            raise DomainError(f"expected {n} columns, got {len(columns)}")
        cols = tuple(tuple(field._check(x) for x in col) for col in columns)
        for col in cols:
            if len(col) != M:
                raise DomainError(
                    f"ragged column: expected {M} entries, got {len(col)}"
                )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "columns", cols)
        # each column's m images z^t * column, bit-packed
        object.__setattr__(self, "_packed", tuple(
            tuple(_images(field, _pack(field.degree, col), M)) for col in cols
        ))
        object.__setattr__(self, "_rank_cache", {0: 0})
        if self._rank((1 << n) - 1) != M:
            raise DomainError("generator columns must have full rank M")

    def __setattr__(self, name, value):
        raise AttributeError("LinearCode is immutable")

    def _coord_mask(self, members: Iterable[int]) -> int:
        mask = 0
        for i in members:
            if not _is_int(i) or not 1 <= i <= self.n:
                raise DomainError(f"coordinate {i!r} is not in 1..{self.n}")
            mask |= 1 << (i - 1)
        return mask

    def _rank(self, mask: int) -> int:
        """GF(2^m) rank of the columns selected by a bitmask (bit i-1 = i).

        Taken over GF(2) on the packed images: a column outside the span
        of the ones before it adds all m of its images to an echelon.
        The last column, and every column once the rank is M, is only
        tested.  An echelon of one scaled GF(2^m) vector per column, in
        place of m images, does field arithmetic on every reduction: it
        ran the full-rank check at m = 36, where the field has no log
        tables, 2-3x slower.
        """
        cached = self._rank_cache.get(mask)
        if cached is not None:
            return cached
        M = self.M
        # pivots[p]: the echelon vector whose leading bit is p, or 0
        pivots = [0] * (M * self.field.degree)
        rank = 0
        rest = mask
        while rest:
            col = rest & -rest
            rest ^= col
            images = self._packed[col.bit_length() - 1]
            v = _reduce(pivots, images[0])
            if not v:
                continue
            rank += 1
            if not rest or rank == M:
                break
            pivots[v.bit_length() - 1] = v
            for u in images[1:]:
                u = _reduce(pivots, u)
                pivots[u.bit_length() - 1] = u
        self._rank_cache[mask] = rank
        return rank

    def entropy(self, members: Iterable[int]) -> int:
        """Joint entropy of a coordinate subset, in 2^m-ary symbols.

        Realised as the rank of the selected generator columns; 0 for
        the empty set and M for the full coordinate set.
        """
        return self._rank(self._coord_mask(members))

    def encode(self, message: Sequence[int]) -> tuple[int, ...]:
        """Codeword for an M-symbol message."""
        if len(message) != self.M:
            raise DomainError(f"message must have {self.M} symbols")
        message = [self.field._check(u) for u in message]
        mul = self.field._mul
        return tuple(reduce(xor, map(mul, message, col), 0) for col in self.columns)

    def __repr__(self):
        return (
            f"LinearCode(n={self.n}, M={self.M}, "
            f"field=GF(2^{self.field.degree}))"
        )


class _Residues:
    """The span test of the circuit scan, from normalized residues.

    ``sync(mask)`` pushes every member of the mask but the highest, its
    top column, and keeps, for each column above the last one pushed,
    its GF(2^m) coordinates in the quotient by the pushed columns'
    span, scaled to a leading 1 (None for the zero residue).  Two
    nonzero residues are dependent exactly when they are equal, so a
    column j above every pushed one lies outside the span of the mask
    exactly when j's residue is nonzero and differs from the top's: one
    tuple comparison.  The top column itself is never pushed.

    Pushes follow the mask as a stack: ``sync`` pops back to the lowest
    column where the new mask differs from the last, so walking masks in
    lex order re-pushes only the tails in which they differ.  A push is
    one :func:`_push_normalized` of the residues above the pushed
    column, column by column, with no transposition.
    """

    __slots__ = ("field", "top", "residues", "_prefix", "_stack")

    def __init__(self, code: LinearCode):
        self.field = code.field
        # the synced mask's top column's residue
        self.top: Optional[tuple[int, ...]] = None
        self.residues = [_normalized(self.field, col) for col in code.columns]
        # the pushed columns
        self._prefix = 0
        # (column bit, residues before it), per push
        self._stack: list[tuple[int, list]] = []

    def sync(self, mask: int) -> None:
        """Push every column of ``mask`` but its top one, and read the top."""
        top = mask.bit_length() - 1
        prefix = mask ^ (1 << top) if mask else 0
        diff = self._prefix ^ prefix
        if diff:
            low = diff & -diff
            stack = self._stack
            while stack and stack[-1][0] >= low:
                _, self.residues = stack.pop()
            rest = prefix & -low
            while rest:
                col = rest & -rest
                rest ^= col
                stack.append((col, self.residues))
                self._push(col.bit_length() - 1)
            self._prefix = prefix
        self.top = self.residues[top] if mask else None

    def _push(self, j: int) -> None:
        """Quotient the residues above column j by j's; none if j's is zero."""
        residues = self.residues
        pivot = residues[j]
        if pivot is not None:
            self.residues = [None] * (j + 1) + _push_normalized(
                self.field, islice(residues, j + 1, None), pivot
            )


def _push_normalized(
    field: gf2m.GF2m,
    residues: Iterable[Optional[tuple[int, ...]]],
    pivot: tuple[int, ...],
) -> list[Optional[tuple[int, ...]]]:
    """Normalized residues in the quotient by a normalized pivot's span.

    Each residue is scaled to a leading 1, or None when zero, and so is
    each result.  The pivot's leading coordinate p is dropped.  A
    residue that is 0 at p only loses that coordinate.  One that leads
    at p has a 1 there, as the pivot does, so the pivot is XORed in and
    the result scaled to a leading 1 again; it is None when the two are
    equal.  One that leads before p keeps its leading 1 and adds c times
    the pivot, c its entry at p, through the log tables.  The other
    coordinates keep their order.
    """
    # p is the pivot's leading coordinate, and its entry there is 1
    p = pivot.index(1)
    tail = pivot[p + 1:]
    exp, log = field._tables()
    period = field.order - 1
    tail_logs = None
    news: list = []
    for old in residues:
        c = old[p] if old is not None else 0
        if not c:
            news.append(old and old[:p] + old[p + 1:])
        elif c == 1:
            # old - pivot: a residue that led at p lost its leading 1
            new = old[:p] + tuple(map(xor, old[p + 1:], tail))
            lead = next(filter(None, new), 0)
            if lead == 1:
                news.append(new)
            elif lead and log:
                # _normalized, with the tables bound once per push
                shift = period - log[lead]
                news.append(tuple([exp[log[x] + shift] if x else 0 for x in new]))
            else:
                news.append(_normalized(field, new))
        else:
            # old leads before p, as every leading entry is 1, and
            # keeps its lead: old - c * pivot
            if log:
                if tail_logs is None:
                    tail_logs = [log[a] if a else None for a in tail]
                lc = log[c]
                new = [
                    u if la is None else u ^ exp[la + lc]
                    for u, la in zip(old[p + 1:], tail_logs)
                ]
            else:
                mul = field._mul
                new = [u ^ mul(a, c) if a else u for u, a in zip(old[p + 1:], tail)]
            news.append(old[:p] + tuple(new))
    return news


def _check_search_cap(code: LinearCode, search_cap: Optional[int]) -> None:
    cap = DEFAULT_SEARCH_CAP if search_cap is None else search_cap
    _check_int(cap, 1, "search cap")
    if code.n > cap:
        raise SearchCapExceeded(
            f"instance too large: n={code.n} exceeds the exhaustive-search "
            f"cap of {cap} coordinates"
        )


def _largest_flat(
    field: gf2m.GF2m,
    columns: Sequence[Sequence[int]],
    rank: int,
    size: int,
    mask: int = 0,
    limit: Optional[int] = None,
) -> tuple[int, int]:
    """Size and mask of the lex-first largest flat of rank ``rank``.

    ``columns`` are bare vectors of one length that span a space of
    dimension greater than ``rank``; a code's generator columns or a
    contraction's residues both qualify.  ``size`` and ``mask`` are the
    incumbent: a flat replaces it only when strictly larger, and the
    incumbent comes back unchanged when none is.  With ``limit`` the
    search stops at the first set of at least that many columns that it
    counts.  That set may lie strictly inside a flat (see
    :class:`_FlatSearch`), so the size that comes back reaches
    ``limit`` exactly when some flat does, but it is then only a lower
    bound on the largest; a size below ``limit`` is exact.

    Each column is scaled to a leading 1 once (:func:`_normalized`), a
    point of projective space, and the zero columns are the loops.  The
    other columns are filed by point once, into parallel classes, each a
    point and a mask of columns; the search handles a class as one
    weighted column.  Rank 0 is the set of loops.  Otherwise every flat
    of rank t is a flat of rank t-1 plus the classes whose residues over
    it are one point, so :class:`_FlatSearch` visits the flats of rank
    t-1 and files the classes outside each one by point, starting at the
    loops with all ``rank`` to add.
    """
    loops = 0
    # the nonzero columns' parallel classes, in the order of their lowest
    # columns: point -> mask
    classes: dict = {}
    for j, col in enumerate(columns):
        point = _normalized(field, col)
        if point is None:
            loops |= 1 << j
        else:
            classes[point] = classes.get(point, 0) | 1 << j
    if rank == 0:
        return (loops.bit_count(), loops) if loops.bit_count() > size else (size, mask)
    search = _FlatSearch(field, size, mask, len(columns) + 1 if limit is None else limit)
    search.visit(loops, len(columns) - loops.bit_count(), classes, rank)
    return search.size, search.mask


def _normalized(field: gf2m.GF2m, res: Sequence[int]) -> Optional[tuple[int, ...]]:
    """``res`` over its leading nonzero entry, or None if it is zero."""
    lead = next(filter(None, res), 0)
    if lead == 1:
        return tuple(res)
    if not lead:
        return None
    exp, log = field._tables()
    if log:
        shift = field.order - 1 - log[lead]
        return tuple([exp[log[x] + shift] if x else 0 for x in res])
    scale, mul = field._inv(lead), field._mul
    return tuple([mul(x, scale) for x in res])


def _plane_points(
    field: gf2m.GF2m, pivot: tuple[int, ...], points: Iterable[tuple[int, ...]]
) -> list[tuple[int, int, int]]:
    """:func:`_push_normalized` of 4-coordinate points by a pivot that leads at 0.

    None of the points equals the pivot.  A point that leads at 0 too is
    XORed with the pivot and scaled to a leading 1 again; the others
    only lose coordinate 0.  Written out for the 4 coordinates of a
    plane search's depth 3, where most pivots lead at 0.
    """
    exp, log = field._tables()
    period = field.order - 1
    _, a, b, c = pivot
    child = []
    for v0, v1, v2, v3 in points:
        if not v0:
            child.append((v1, v2, v3))
            continue
        x, y, z = v1 ^ a, v2 ^ b, v3 ^ c
        lead = x or y or z
        if lead != 1:
            if log:
                shift = period - log[lead]
                x, y, z = (
                    x and exp[log[x] + shift],
                    y and exp[log[y] + shift],
                    z and exp[log[z] + shift],
                )
            else:
                x, y, z = _normalized(field, (x, y, z))
        child.append((x, y, z))
    return child


def _plane_lines(
    field: gf2m.GF2m, pivot: tuple[int, int, int], items: Iterable[tuple[tuple, int]]
) -> dict:
    """The classes ``items``, points of the projective plane, keyed by line.

    Each point is scaled to a leading 1, and none equals the pivot j.
    Pushing j maps each point v to a 2-vector whose direction is the line
    through j and v.  With j = (1, a, b) that is (v1, v2) XOR v0 * (a, b),
    and v0 is 0 or 1, so no product is made; with j = (0, 1, b) it is
    (v0, v2 + v1 * b), a product only when v leads at 0; with j = (0, 0,
    1) it is (v0, v1).  Lines are keyed by log x - log y (or x = 0, or y
    = 0), and each maps to the mask of its classes; no vector is zero.
    """
    j0, j1, j2 = pivot
    mul = field._mul
    period = field.order - 1
    log = field._tables()[1]
    lines: dict = {}
    get = lines.get
    for (v0, v1, v2), c in items:
        if j0:
            if v0:
                x, y = v1 ^ j1, v2 ^ j2
            else:
                x, y = v1, v2
        elif j1:
            x, y = v0, v2 ^ (mul(v1, j2) if v0 else v1 and j2)
        else:
            x, y = v0, v1
        # the line through the point: x/y as a log, -2 for x = 0
        # and -1 for y = 0
        if not y:
            key = -1
        elif not x:
            key = -2
        elif log:
            key = (log[x] - log[y]) % period
        else:
            key = mul(x, field._inv(y))
        lines[key] = get(key, 0) | c
    return lines


class _FlatSearch:
    """Depth-first search over flats for the largest flat of one rank.

    The search works on parallel classes.  It carries, for each class
    outside the flat, the residue of its columns in the quotient by the
    flat's span, in GF(2^m), scaled to a leading 1: a point of
    projective space.  Scaling changes no span, and two residues are
    parallel exactly when their points are equal, so a class is one
    point and one mask of columns, and every size is a mask's bit count.
    A node's classes are in the order of their lowest columns, and no
    two share a point: :func:`_largest_flat` files the columns into
    classes once, and after a push the classes whose new points are
    equal are merged into one class of the child (:func:`_classes`).  So
    a push zeroes no residue.

    Pushing a class writes only the classes above it, at every depth.
    The greedy test is local to the node: a class that shares its point
    with an earlier one has merged into it, so it is never a pivot and
    joins the flat with the earlier one.  A flat is counted in full on
    the path of its own greedy basis, where each basis column is the
    lowest column of the flat outside the span of the ones before it:
    every column of the flat outside that span lies above it, and so is
    still carried.  Any other path leaves out a column below one of its
    pivots, so the set it counts lies strictly inside the flat it spans,
    which is counted in full on its own path: such a set never ties the
    best, and with ``limit`` it reaches the limit only when that flat
    does.  Every set counted below a pivot lies within the flat and the
    classes from the pivot on.  ``left``, the number of columns those
    classes hold, bounds the branch; each node passes its child the
    count it has left, so nothing is recounted.  :meth:`visit` is the
    one level loop and the one place the branch is cut.

    At depth 1 the flat has rank t-1, and each class outside it is
    keyed by its point: each point is the flat of rank t that its
    classes add (:meth:`_count`).

    Of two flats of one rank and size, the lex-first holds the lowest
    column of their symmetric difference, so its greedy basis is the
    lex-first too, and so is the flat it is counted at; at one flat,
    points are met in the order of their lowest columns.  The search
    visits flats in the lex order of their bases, so the first largest
    flat it meets is the lex-first one: a later one replaces it only
    when strictly larger, and a branch is cut when it cannot be.  Once
    the best reaches ``limit`` every branch is cut.

    A pivot's kernel is chosen by the length of its point, as the
    points at depth k have at least k+1 coordinates.  A plane search, one
    whose target rank is one below the residues' dimension (the
    hyperplane of the columns' span, and of any contraction), has
    4-coordinate points at depth 3 and then the points of a projective
    plane at depth 2; no other search has 3-coordinate pivots.  A
    4-coordinate pivot that leads at 0 pushes through the written-out
    :func:`_plane_points`, which gives the points :func:`_push_normalized`
    would, and a 3-coordinate pivot keys the lines through it by scalars
    (:func:`_plane_lines`), which stand for the depth-1 classes.  Points
    are field elements with or without log tables, so a fill in the
    middle of a search mixes nothing.
    """

    __slots__ = ("field", "size", "mask", "limit")

    def __init__(self, field: gf2m.GF2m, size: int, mask: int, limit: int):
        self.field = field
        self.size = size
        self.mask = mask
        self.limit = limit

    def visit(self, flat: int, left: int, classes: dict, depth: int) -> None:
        """Search the flats above ``flat`` for ``depth`` more rank.

        ``classes`` maps the normalized residue of each parallel class
        outside the flat to its mask, in the order of their lowest
        columns, and ``left`` is the number of columns they hold.  At
        depth 1 each class adds one flat of one more rank.  Otherwise each
        pivot's kernel goes by its point's length, and the child's classes
        are the new points of the classes above the pivot, merged.
        """
        if depth == 1:
            self._count(flat, classes)
            return
        field = self.field
        size = flat.bit_count()
        items = classes.items()
        for pos, (pivot, grown) in enumerate(items):
            # every set counted below lies within the flat and the classes
            # from pos on
            if size + left <= self.size or self.size >= self.limit:
                break
            left -= grown.bit_count()
            grown |= flat
            if len(pivot) == 3:
                # only a plane search has 3-coordinate points, at depth 2
                lines = _plane_lines(field, pivot, islice(items, pos + 1, None))
                self._count(grown, lines)
                continue
            above = islice(classes, pos + 1, None)
            if len(pivot) == 4 and pivot[0]:
                points = _plane_points(field, pivot, above)
            else:
                points = _push_normalized(field, above, pivot)
            self.visit(grown, left, _classes(points, classes, pos), depth - 1)

    def _count(self, flat: int, lines: dict) -> None:
        """Count the flat each line adds; the first largest is lex-first."""
        size = flat.bit_count()
        for line in lines.values():
            total = size + line.bit_count()
            if total > self.size:
                self.size, self.mask = total, flat | line


def _classes(points: list[tuple[int, ...]], classes: dict, pos: int) -> dict:
    """The classes above ``pos`` filed by their new points, merged, in order."""
    merged = dict(zip(points, islice(classes.values(), pos + 1, None)))
    if len(merged) < len(points):
        # some points are shared: merge their masks
        merged = {}
        get = merged.get
        for point, mask in zip(points, islice(classes.values(), pos + 1, None)):
            merged[point] = get(point, 0) | mask
    return merged


def _circuits(code: LinearCode, size_cap: int) -> list[int]:
    """Every circuit mask :func:`_iter_circuits` yields, as a list."""
    return list(_iter_circuits(code, size_cap))


def _facets_in(level: set, mask: int, members: int) -> bool:
    """Whether ``mask`` less any one of ``members`` lies in ``level``."""
    while members:
        low = members & -members
        if mask ^ low not in level:
            return False
        members ^= low
    return True


def _iter_circuits(code: LinearCode, size_cap: int) -> Iterator[int]:
    """Every circuit of at most ``size_cap`` members, by size then lex.

    The circuits through i are its minimal regenerating sets; none has
    more than M+1 members.  The scan is level-wise.  A level holds the
    independent sets of one size, and a candidate of the next size
    extends a level set, its base, by one column j above the base's
    members.  base + j is independent exactly when j lies outside the
    span of the base, and then every facet of base + j is independent
    too, as a subset of an independent set: it joins the next level
    with no facet test.  Only a dependent candidate runs the facet
    test, and it is a circuit iff every facet is in the level.  The
    candidates whose ranks are cached are those of a scan over all
    subsets by size, then lex, that skips supersets of the circuits
    found.  Circuits are yielded as they are found, so a caller that
    stops early ranks no more subsets.

    The span test is one :class:`_Residues` stack, synced once per base:
    j lies outside the base's span when j's residue is nonzero and
    differs from the top's.  The stack follows the bases in lex order,
    so a base re-pushes only the columns in which it differs from the
    last one.  An independent set of M columns spans every column, so
    the candidates on such a base need no stack.  The rank of a
    candidate that holds a smaller circuit is never cached.  A base
    whose candidates the cache holds needs no stack either, and a miss
    before the stack exists runs the facet test first: on a warm cache
    only a candidate that holds a smaller circuit misses, so such a
    scan builds none.
    """
    n = code.n
    cache = code._rank_cache
    residues: Optional[_Residues] = None
    level = [0]
    for size in range(min(size_cap, n, code.M + 1)):
        in_level = set(level)
        if size == code.M:
            # a basis spans every column: each candidate is dependent
            for base in level:
                for j in range(base.bit_length(), n):
                    mask = base | 1 << j
                    if _facets_in(in_level, mask, base):
                        cache[mask] = size
                        yield mask
            return
        grown: list[int] = []
        for base in level:
            j = base.bit_length()
            # cached candidates first, until one needs the stack
            while j < n:
                mask = base | 1 << j
                rank = cache.get(mask)
                if rank is None:
                    if residues is not None or _facets_in(in_level, mask, base):
                        break
                elif rank > size:
                    grown.append(mask)
                elif _facets_in(in_level, mask, base):
                    yield mask
                j += 1
            if j == n:
                continue
            if residues is None:
                residues = _Residues(code)
            residues.sync(base)
            top = residues.top
            for j, res in enumerate(residues.residues[j:], j):
                mask = base | 1 << j
                if res is not None and res != top:
                    cache[mask] = size + 1
                    grown.append(mask)
                elif _facets_in(in_level, mask, base):
                    cache[mask] = size
                    yield mask
        level = grown


def _contraction(
    field: gf2m.GF2m, columns: Sequence[Sequence[int]], mask: int
) -> list[tuple[int, ...]]:
    """The columns outside ``mask`` in the quotient by the span of those in it.

    These are the columns of the contraction by ``mask``, in order, each
    scaled to a leading 1; a column in the span becomes zero.  The
    columns in ``mask`` are pushed in order, each nonzero one with
    :func:`_push_normalized`, so the results have one coordinate per
    dimension left: when ``columns`` span their space, the length of
    each is the contraction's rank.
    """
    inside = [_normalized(field, col) for j, col in enumerate(columns) if mask >> j & 1]
    outside = [
        _normalized(field, col) for j, col in enumerate(columns) if not mask >> j & 1
    ]
    residues = inside + outside
    dim = len(columns[0]) if columns else 0
    for k in range(len(inside)):
        pivot = residues[k]
        if pivot is not None:
            residues[k + 1:] = _push_normalized(field, residues[k + 1:], pivot)
            dim -= 1
    zero = (0,) * dim
    return [res or zero for res in residues[len(inside):]]


def _echelon(code: LinearCode) -> tuple[list[list[int]], list[int]]:
    """The generator's reduced row echelon form, with no field product.

    The same rows and pivot columns as :func:`gf2m._eliminate` on the
    code's columns, which the form being unique makes equal entry for
    entry.  Each row is packed once into n m-bit slots.  A pivot row is
    scaled to a leading 1 with one field inversion, applied as the XOR
    of its images z^t * row, and then gets its own m images; every
    other row with an entry f in the pivot column subtracts f * row, the
    XOR of those images over the set bits of f.
    """
    field, n = code.field, code.n
    m = field.degree
    mask = field.order - 1
    rows = [_pack(m, row) for row in zip(*code.columns)]
    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        if r == len(rows):
            break
        shift = c * m
        pivot = next((i for i in range(r, len(rows)) if rows[i] >> shift & mask), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = field._inv(rows[r] >> shift & mask)
        images = _images(field, _times(_images(field, rows[r], n), scale), n)
        rows[r] = images[0]
        for i, row in enumerate(rows):
            f = row >> shift & mask
            if f and i != r:
                rows[i] = row ^ _times(images, f)
        pivot_cols.append(c)
        r += 1
    return [[row >> (j * m) & mask for j in range(n)] for row in rows], pivot_cols


def _dual(code: LinearCode) -> LinearCode:
    """The parity-check code: its columns are dual to the generator's.

    From the reduced row echelon form of the generator
    (:func:`_echelon`), with pivot columns P and free columns F, row i
    is the unit vector e_i on P and some a_i on F.  The parity-check
    column at pivot p_i is a_i, and at the k-th free column it is e_k:
    in characteristic 2, -A^T = A^T.  Its column matroid is the dual of
    the generator's, so its circuits are the generator's cocircuits.
    Needs M < n.  Neither step multiplies in the field: building H
    makes only the M pivot inversions, so on a field without tables it
    spends M units of the tableless allowance.

    G.H^T = 0 is checked on the packed images: parity-check row h
    weights generator column j by H[h][j], with no field product.
    """
    n = code.n
    rows, pivot_cols = _echelon(code)
    free = [j for j in range(n) if j not in pivot_cols]
    columns: list[list[int]] = [[]] * n
    for k, f in enumerate(free):
        columns[f] = [int(i == k) for i in range(len(free))]
    for row, p in zip(rows, pivot_cols):
        columns[p] = [row[f] for f in free]
    for h in range(len(free)):
        if _combination(code, [col[h] for col in columns], range(1, n + 1)):
            raise InvariantError("parity-check rows are not orthogonal to G")
    return LinearCode(code.field, n, n - code.M, columns)


def _phi_walk(
    code: LinearCode, x_max: int, hyperplane: Optional[Callable[[], int]] = None
) -> list[int]:
    """phi(1..x_max) from the largest flat of each rank, rank by rank upwards.

    With best[t] the size of a largest flat of rank t, best[t] - t never
    falls and phi(x) = x + min{t : best[t] - t >= x}, so phi(1) is the
    smallest circuit.  Each rank is one :func:`_largest_flat` search
    from the incumbent best[t-1] + 1, stopped once it settles phi(x_max).
    best[M] is n; ``hyperplane``, if given, supplies best[M-1] = n - d,
    and only when the walk gets that far.  No rank is cached.
    """
    n, M = code.n, code.M
    out: list[int] = []
    best = -1
    t = 0
    while len(out) < x_max:
        if t == M:
            best = n
        elif t == M - 1 and hyperplane is not None:
            best = hyperplane()
        else:
            best, _ = _largest_flat(
                code.field, code.columns, t, best + 1, limit=x_max + t
            )
        while len(out) < x_max and best - t > len(out):
            out.append(len(out) + 1 + t)
        t += 1
    return out


class _RankHierarchy:
    """Exact d, rho and phi from the largest flats of each rank.

    For a scalar code a nontrivial chain of x regenerating sets has a
    union U of nullity |U| - rank(U) >= x, and every such U holds one:
    the fundamental circuits of x elements of U outside a basis of U.
    So phi(x) = min{|U| : nullity(U) >= x}, Wei's x-th generalized
    Hamming weight of the dual code.  On the generator side the values
    come from the one ascending walk over the largest flat of each rank,
    best[t] (:func:`_phi_walk`); best[M-1] is n - d, taken from the
    distance only if the walk gets that far.  By Wei's duality theorem
    the phi values and the numbers best[t] + 1 for t < M split 1..n
    between them.

    The constructor makes the one duality choice: ``dual`` is the
    parity-check code H when it has the smaller rank, 0 < n - M <= M,
    and None otherwise.  H is built once per hierarchy and serves both
    d and phi.  With best*[t] the size of H's largest flat of rank t,
    Wei's duality gives phi(x) = n - best*[n-M-x], searched rank by rank
    downwards, and d is phi(1) of H: the ascending walk on H, stopped at
    its first value.  Without H, d is n minus the size of a hyperplane,
    the largest flat of rank M-1, searched from the first M-1 columns
    as incumbent; when M = n every coordinate is a coloop and d = 1.

    A witness chain is one continuation test away, on the generator
    side whichever side gave the values.  Adding circuits to a union W
    raises its nullity by at least one each, and the fundamental
    circuits of k elements outside a basis give back any gain of k, so
    the smallest union k more sets can reach from W is |W| + phi of the
    contraction by W at k: the columns outside W modulo the span of W's.
    """

    def __init__(self, code: LinearCode):
        self.code = code
        self.dual = _dual(code) if code.M < code.n <= 2 * code.M else None
        self._d: Optional[int] = None

    def distance(self) -> int:
        """Minimum distance, on the side the constructor chose; searched once."""
        if self._d is None:
            code = self.code
            n, M = code.n, code.M
            if self.dual is not None:
                self._d = _phi_walk(self.dual, 1)[0]
            elif M == n:
                self._d = 1
            else:
                size, _ = _largest_flat(
                    code.field, code.columns, M - 1, M - 1, (1 << (M - 1)) - 1
                )
                self._d = n - size
        return self._d

    def rho(self) -> int:
        """n - M + 1 - d: a set of nullity x has rank below M iff x <= rho."""
        return self.code.n - self.code.M + 1 - self.distance()

    def values(self, x_max: int) -> list[int]:
        """phi(1), ..., phi(x_max), cut short where chains run out."""
        n, M = self.code.n, self.code.M
        x_max = min(x_max, n - M)
        dual = self.dual
        if dual is None:
            return _phi_walk(self.code, x_max, lambda: n - self.distance())
        # phi rises strictly, so best*[t] < best*[t+1]; below rank d-1
        # every flat of H is independent
        out: list[int] = []
        best = n
        for t in range(n - M - 1, n - M - 1 - x_max, -1):
            if self._d is not None and t < self._d - 1:
                best = t
            else:
                best, _ = _largest_flat(dual.field, dual.columns, t, t, limit=best - 1)
            out.append(n - best)
        return out

    def scan(self, size_cap: int) -> Iterable[int]:
        """The circuits of up to ``size_cap`` members by size then lex, lazily."""
        return _iter_circuits(self.code, size_cap)

    def reaches(self, grown: int, k: int, goal: int) -> bool:
        """Whether k more sets can end on a union of at most ``goal``.

        That is phi(k) <= goal - |grown| in the contraction by
        ``grown``.  As best[t] - t never falls, it holds iff at the
        largest useful rank, t = goal - |grown| - k, a flat has at least
        k + t columns; at the contraction's full rank every column
        counts.
        """
        t = goal - grown.bit_count() - k
        if k == 0 or t < 0:
            return t >= 0
        code = self.code
        columns = _contraction(code.field, code.columns, grown)
        rank = len(columns[0]) if columns else 0
        if t >= rank:
            return len(columns) - rank >= k
        found, _ = _largest_flat(code.field, columns, t, k + t - 1, limit=k + t)
        return found >= k + t


def min_distance(code: LinearCode, search_cap: Optional[int] = None) -> int:
    """Exact minimum distance, searched on the cheaper side of duality.

    d is n minus the largest deficient subset size (a subset is
    deficient when its joint entropy falls below M); equivalently, it
    is the smallest cocircuit of the column matroid, the smallest
    circuit of the parity-check code's.  Both sides run the flat search:
    the primal one visits flats of rank up to M-2, the dual one flats of
    rank below d-1 <= n-M, so a high-rate code is searched on the dual
    side (:class:`_RankHierarchy`).  Both counts can grow exponentially
    with n, so the code length is gated by ``search_cap`` (default
    :data:`DEFAULT_SEARCH_CAP`).
    """
    _check_search_cap(code, search_cap)
    return _RankHierarchy(code).distance()


def erasure_decodable(code: LinearCode, failed: Iterable[int]) -> bool:
    """Whether the surviving coordinates still determine the whole file."""
    failed_mask = code._coord_mask(failed)
    survivors = [i + 1 for i in range(code.n) if not (failed_mask >> i) & 1]
    return code.entropy(survivors) == code.M


# ---------------------------------------------------------------------------
# JSON code file format

def _elem_from_hex(s: str) -> int:
    try:
        v = int(s, 16)
    except (TypeError, ValueError):
        raise DomainError(f"invalid hex symbol {s!r}") from None
    if v < 0:
        raise DomainError(f"invalid hex symbol {s!r}")
    return v


def to_json_dict(code: LinearCode, metadata: Optional[dict] = None) -> dict:
    """Serializable dict in the code file format.

    Hex strings encode coefficient bit-vectors with bit i holding the
    z^i coefficient (little-endian bit order).
    """
    obj = {
        "q": 2,
        "m": code.field.degree,
        "modulus_hex": format(code.field.modulus, "x"),
        "n": code.n,
        "M": code.M,
        "columns": [[format(x, "x") for x in col] for col in code.columns],
    }
    if metadata is not None:
        obj["metadata"] = metadata
    return obj


def _check_square_metadata(metadata: dict, n: int, M: int) -> None:
    # the CLI caps regenerating sets at r+1 on the declared r, so a
    # declaration that does not fit the code would truncate its answers
    what = "malformed code file: square metadata"
    meta_M = metadata.get("M")
    if not _is_int(meta_M) or meta_M != M:
        raise DomainError(f"{what} M={meta_M!r} differs from the code's M={M}")
    _check_square_shape(metadata.get("r"), M, n, what)


def from_json_dict(obj: dict) -> tuple[LinearCode, Optional[dict]]:
    """Rebuild a code (and optional metadata block) from the file format."""
    try:
        q = obj["q"]
        m = obj["m"]
        modulus = _elem_from_hex(obj["modulus_hex"])
        n = obj["n"]
        M = obj["M"]
        raw_columns = obj["columns"]
    except (KeyError, TypeError, DomainError) as exc:
        raise DomainError(f"malformed code file: {exc}") from None
    for key, value in (("q", q), ("m", m), ("n", n), ("M", M)):
        if not _is_int(value):
            raise DomainError(
                f"malformed code file: {key} must be an integer, got {value!r}"
            )
    if not isinstance(raw_columns, list) or not all(
        isinstance(col, list) for col in raw_columns
    ):
        raise DomainError("malformed code file: columns must be a list of lists")
    metadata = obj.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise DomainError("malformed code file: metadata must be an object")
    if metadata and metadata.get("family") == "square":
        _check_square_metadata(metadata, n, M)
    try:
        if q != 2:
            raise DomainError(f"only base field GF(2) is supported, got q={q}")
        field = gf2m.GF2m(m, modulus)
        columns = [[_elem_from_hex(x) for x in col] for col in raw_columns]
        code = LinearCode(field, n, M, columns)
    except DomainError as exc:
        raise DomainError(f"malformed code file: {exc}") from None
    return code, metadata


def dumps(code: LinearCode, metadata: Optional[dict] = None) -> str:
    """Deterministic JSON text for a code file."""
    return json.dumps(to_json_dict(code, metadata), indent=2, sort_keys=True)


def loads(text: str) -> tuple[LinearCode, Optional[dict]]:
    """Parse a code file from JSON text."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        # a syntax error, or an integer past the interpreter's digit limit
        raise DomainError(f"malformed code file: {exc}") from None
    except RecursionError:
        raise DomainError("malformed code file: JSON nested too deeply") from None
    return from_json_dict(obj)

"""Linear scalar codes over GF(2^m) given by generator columns.

A code of length n and dimension M is the set of words (u . g_1, ...,
u . g_n) for messages u in GF(2^m)^M, where g_i is the i-th generator
column.  Coordinates are numbered 1..n throughout the public API.  The
joint entropy of a coordinate subset (in 2^m-ary symbol units) equals
the rank of the corresponding columns, which is the single oracle every
higher-level query goes through; minimum distance is the exact
subset-rank quantity n - max{|E| : rank(E) < M}.

Every rank is taken over GF(2): a column and its multiples z^t * column
(t < m) are packed into m integers, whose GF(2)-span equals the
GF(2^m)-span of the column, so rank is tracked with integer XOR alone.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Iterable, Optional, Sequence

from . import gf2m
from .errors import DomainError, InvariantError, SearchCapExceeded

#: Largest code length accepted by exhaustive subset scans by default.
DEFAULT_SEARCH_CAP = 24


def _pack_column(field: gf2m.GF2m, col: Sequence[int]) -> tuple[int, ...]:
    """The m GF(2) images z^t * column, t = 0..m-1, each bit-packed.

    Entry i of the column occupies bits i*m .. i*m+m-1.  Multiplying
    every entry by z at once is a shift within each slot, plus the
    reduction polynomial in every slot whose top bit overflowed.
    """
    m = field.degree
    packed = top = 0
    for i, x in enumerate(col):
        packed |= x << (i * m)
        top |= 1 << (i * m + m - 1)
    reduction = field.modulus ^ (1 << m)
    images = [packed]
    for _ in range(m - 1):
        packed = ((packed & ~top) << 1) ^ ((packed & top) >> (m - 1)) * reduction
        images.append(packed)
    return tuple(images)


class LinearCode:
    """An (n, M) linear code over GF(2^m), stored as generator columns.

    The generator must have full rank M (otherwise the n coordinates
    would not determine an M-symbol file).  Instances are immutable;
    entropy queries are cached per coordinate subset.
    """

    __slots__ = ("field", "n", "M", "alpha", "columns", "_packed", "_rank_cache")

    def __init__(
        self,
        field: gf2m.GF2m,
        n: int,
        M: int,
        columns: Sequence[Sequence[int]],
        alpha: int = 1,
    ):
        if not 1 <= M <= n:
            raise DomainError(f"need 1 <= M <= n, got M={M}, n={n}")
        if alpha != 1:
            raise DomainError("concrete codes here are scalar (alpha = 1)")
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
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(
            self, "_packed", tuple(_pack_column(field, col) for col in cols)
        )
        object.__setattr__(self, "_rank_cache", {0: 0})
        if self._rank((1 << n) - 1) != M:
            raise DomainError("generator columns must have full rank M")

    def __setattr__(self, name, value):
        raise AttributeError("LinearCode is immutable")

    def _coord_mask(self, members: Iterable[int]) -> int:
        mask = 0
        for i in members:
            if not isinstance(i, int) or not 1 <= i <= self.n:
                raise DomainError(f"coordinate {i!r} is not in 1..{self.n}")
            mask |= 1 << (i - 1)
        return mask

    def _rank(self, mask: int) -> int:
        """GF(2^m) rank of the columns selected by a bitmask (bit i-1 = i)."""
        cached = self._rank_cache.get(mask)
        if cached is not None:
            return cached
        M = self.M
        # pivots[p]: the echelon vector whose leading bit is p, or 0
        pivots = [0] * (M * self.field.degree)
        rank = 0
        rest = mask
        while rest and rank < M:
            low = rest & -rest
            rest ^= low
            images = self._packed[low.bit_length() - 1]
            v = images[0]
            while v:
                w = pivots[v.bit_length() - 1]
                if not w:
                    break
                v ^= w
            if not v:
                continue
            rank += 1
            if rest and rank < M:
                # a column outside the span adds all m of its images
                for u in images:
                    while u:
                        p = u.bit_length() - 1
                        w = pivots[p]
                        if not w:
                            pivots[p] = u
                            break
                        u ^= w
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
        mul = self.field.mul
        word = []
        for col in self.columns:
            s = 0
            for u, g in zip(message, col):
                s ^= mul(u, g)
            word.append(s)
        return tuple(word)

    def __repr__(self):
        return (
            f"LinearCode(n={self.n}, M={self.M}, "
            f"field=GF(2^{self.field.degree}))"
        )


def _check_search_cap(code: LinearCode, search_cap: Optional[int]) -> None:
    cap = DEFAULT_SEARCH_CAP if search_cap is None else search_cap
    if code.n > cap:
        raise SearchCapExceeded(
            f"instance too large: n={code.n} exceeds the exhaustive-search "
            f"cap of {cap} coordinates"
        )


def _max_deficient(code: LinearCode) -> tuple[int, tuple[int, ...]]:
    """Largest rank-deficient coordinate subset and its lex-first witness.

    Depth-first scan over subsets in lexicographic order, keeping an
    incremental GF(2) echelon of the packed columns.  Two prunes keep
    it exact but fast: a subset that already has full rank cannot sit
    inside a deficient one, and a branch that cannot exceed the best
    size found so far is dropped.  The result (and witness) match a
    naive size-descending scan that stops at the first deficient subset
    of each size.
    """
    n, M = code.n, code.M
    m = code.field.degree
    packed = code._packed
    pivots = [0] * (M * m)
    # Any M-1 columns are trivially deficient, so that is the floor and
    # the first M-1 coordinates are its lex-first witness.
    best_size = M - 1
    best_set = tuple(range(1, M))
    path: list[int] = []

    def dfs(start: int, size: int, rank: int) -> None:
        nonlocal best_size, best_set
        for j in range(start, n):
            if size + (n - j) <= best_size:
                break
            vecs = packed[j]
            v = vecs[0]
            while v:
                p = v.bit_length() - 1
                w = pivots[p]
                if not w:
                    break
                v ^= w
            if v:
                # column independent of the current span
                if rank + 1 < M:
                    added = []
                    for vec in vecs:
                        u = vec
                        while u:
                            p = u.bit_length() - 1
                            w = pivots[p]
                            if not w:
                                pivots[p] = u
                                added.append(p)
                                break
                            u ^= w
                    if len(added) != m:
                        raise InvariantError("GF(2) expansion lost dimensions")
                    path.append(j)
                    if size + 1 > best_size:
                        best_size = size + 1
                        best_set = tuple(c + 1 for c in path)
                    dfs(j + 1, size + 1, rank + 1)
                    path.pop()
                    for p in added:
                        pivots[p] = 0
                # rank would reach M: every superset is full-rank, skip
            else:
                path.append(j)
                if size + 1 > best_size:
                    best_size = size + 1
                    best_set = tuple(c + 1 for c in path)
                dfs(j + 1, size + 1, rank)
                path.pop()

    dfs(0, 0, 0)
    return best_size, best_set


def _circuits(
    code: LinearCode, size_cap: int, target: Optional[int] = None
) -> list[int]:
    """Circuit bitmasks (through ``target``, if given), by size then lex.

    The circuits through i are its minimal regenerating sets; none has
    more than M+1 members.  A candidate containing a found circuit is
    skipped; any other is a circuit iff dropping its pivot (the target,
    or else its lowest member) keeps its rank.
    """
    size_cap = min(size_cap, code.n, code.M + 1)
    fixed = 0 if target is None else 1 << (target - 1)
    free = [1 << i for i in range(code.n) if 1 << i != fixed]
    rank = code._rank
    found: list[int] = []
    for size in range(1, size_cap + 1):
        for extra in combinations(free, size - (fixed != 0)):
            # distinct bits, so the sum is their union
            mask = fixed + sum(extra)
            if any(c & mask == c for c in found):
                continue
            if rank(mask) == rank(mask ^ (fixed or mask & -mask)):
                found.append(mask)
    return found


def min_distance(code: LinearCode, search_cap: Optional[int] = None) -> int:
    """Exact minimum distance: n minus the largest deficient subset size.

    A subset is deficient when its joint entropy falls below M.  The
    scan is exhaustive over subsets, so the code length is gated by
    ``search_cap`` (default :data:`DEFAULT_SEARCH_CAP`).
    """
    _check_search_cap(code, search_cap)
    size, _ = _max_deficient(code)
    return code.n - size


def erasure_decodable(code: LinearCode, failed: Iterable[int]) -> bool:
    """Whether the surviving coordinates still determine the whole file."""
    failed_mask = code._coord_mask(failed)
    survivors = [i + 1 for i in range(code.n) if not (failed_mask >> i) & 1]
    return code.entropy(survivors) == code.M


# ---------------------------------------------------------------------------
# JSON code file format

def _elem_to_hex(v: int) -> str:
    return format(v, "x")


def _elem_from_hex(s: str) -> int:
    try:
        v = int(s, 16)
    except (TypeError, ValueError):
        raise DomainError(f"invalid hex symbol {s!r}") from None
    if v < 0:
        raise DomainError(f"invalid hex symbol {s!r}")
    return v


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def to_json_dict(code: LinearCode, metadata: Optional[dict] = None) -> dict:
    """Serializable dict in the code file format.

    Hex strings encode coefficient bit-vectors with bit i holding the
    z^i coefficient (little-endian bit order).
    """
    obj = {
        "q": 2,
        "m": code.field.degree,
        "modulus_hex": _elem_to_hex(code.field.modulus),
        "n": code.n,
        "M": code.M,
        "columns": [[_elem_to_hex(x) for x in col] for col in code.columns],
    }
    if metadata is not None:
        obj["metadata"] = metadata
    return obj


def from_json_dict(obj: dict) -> tuple[LinearCode, Optional[dict]]:
    """Rebuild a code (and optional metadata block) from the file format."""
    try:
        q = obj["q"]
        m = obj["m"]
        modulus = _elem_from_hex(obj["modulus_hex"])
        n = obj["n"]
        M = obj["M"]
        raw_columns = obj["columns"]
    except (KeyError, TypeError) as exc:
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
        for key in ("r", "M"):
            if not _is_int(metadata.get(key)):
                raise DomainError(
                    f"malformed code file: square metadata needs an integer {key}"
                )
    if q != 2:
        raise DomainError(f"only base field GF(2) is supported, got q={q}")
    field = gf2m.GF2m(m, modulus)
    columns = [[_elem_from_hex(x) for x in col] for col in raw_columns]
    code = LinearCode(field, n, M, columns)
    return code, metadata


def dumps(code: LinearCode, metadata: Optional[dict] = None) -> str:
    """Deterministic JSON text for a code file."""
    return json.dumps(to_json_dict(code, metadata), indent=2, sort_keys=True)


def loads(text: str) -> tuple[LinearCode, Optional[dict]]:
    """Parse a code file from JSON text."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed code file: {exc}") from None
    return from_json_dict(obj)

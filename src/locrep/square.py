"""Square codes: grid-structured codes with two small repair sets per node.

A square code of locality r has length n = (r+1)^2; its generator
columns sit on an (r+1) x (r+1) grid in which every row of columns and
every column of columns sums to zero.  Each grid cell is therefore
recoverable from the r other cells of its row, or of its column, which
gives two size-(r+1) regenerating sets meeting only in the cell.

The construction takes r^2 field elements that are linearly independent
over GF(2) (here: the basis monomials z^0 .. z^(r^2-1)), completes the
boundary row and column with zero-sum constraints, and stacks the
iterated squares beta, beta^2, beta^4, ... of each cell value into its
generator column.  The dimension M may be anything in r+1 .. r^2 and
the resulting distance meets the square-code bound exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

from . import gf2m, regsets
from .bounds import _check_square_shape, bound_general, s_value
from .errors import DomainError, InvariantError
from .gf2m import _is_int
from .linear_code import LinearCode, min_distance
from .regsets import RegeneratingSet


def coordinate_of(r: int, i: int, j: int) -> int:
    """Coordinate in 1..(r+1)^2 of grid cell (i, j), both 1-based."""
    _check_square_shape(r)
    if not (_is_int(i) and _is_int(j) and 1 <= i <= r + 1 and 1 <= j <= r + 1):
        raise DomainError(f"grid cell ({i!r}, {j!r}) is not in 1..{r + 1}")
    return (i - 1) * (r + 1) + j


def grid_of(r: int, coord: int) -> tuple[int, int]:
    """Grid cell (i, j) of a coordinate; inverse of :func:`coordinate_of`."""
    _check_square_shape(r)
    if not _is_int(coord) or not 1 <= coord <= (r + 1) ** 2:
        raise DomainError(f"coordinate {coord!r} is not in 1..{(r + 1) ** 2}")
    return (coord - 1) // (r + 1) + 1, (coord - 1) % (r + 1) + 1


def _grid_lines(r: int, i: int, j: int) -> tuple[list[int], list[int]]:
    """The coordinates of grid row i and of grid column j."""
    cells = range(1, r + 2)
    return (
        [coordinate_of(r, i, jj) for jj in cells],
        [coordinate_of(r, ii, j) for ii in cells],
    )


class LemmaCheck(enum.Enum):
    """Outcome of a structural rank check: the hypotheses may simply not apply."""

    HOLDS = "holds"
    VIOLATED = "violated"
    HYPOTHESES_UNMET = "hypotheses unmet"


@dataclass(frozen=True)
class SquareCode:
    """A constructed square code plus the grid data behind its columns."""

    r: int
    M: int
    field: gf2m.GF2m
    betas: tuple[tuple[int, ...], ...]
    code: LinearCode

    @property
    def n(self) -> int:
        return self.code.n

    def metadata(self) -> dict:
        return {"family": "square", "r": self.r, "M": self.M}


def build_square_code(
    r: int, M: int, field: Optional[gf2m.GF2m] = None
) -> SquareCode:
    """Construct the square code of locality r and dimension M.

    The field defaults to GF(2^(r^2)), the smallest degree for which
    r^2 independent elements exist; any field of degree >= r^2 works
    and may be passed explicitly.
    """
    _check_square_shape(r, M)
    if field is None:
        field = gf2m.GF2m(r * r)
    betas, columns = square_columns(r, M, field)
    code = LinearCode(field, len(columns), M, columns)
    return SquareCode(r=r, M=M, field=field, betas=betas, code=code)


def square_columns(
    r: int, M: int, field: gf2m.GF2m
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The grid's cell values and the generator columns they give.

    Builds no :class:`LinearCode`, so a caller that already holds the
    code, such as one read from a file, can compare its columns with
    the construction's without a second full-rank check.
    """
    _check_square_shape(r, M)
    if field.degree < r * r:
        raise DomainError(
            f"field degree {field.degree} is too small; need >= {r * r} "
            f"for {r * r} independent elements"
        )
    size = r + 1
    betas = [[0] * size for _ in range(size)]
    # the first r^2 basis monomials are independent over GF(2) by construction
    for i in range(r):
        for j in range(r):
            betas[i][j] = 1 << (i * r + j)
    # zero-sum boundary: in characteristic 2 negation is the identity
    for j in range(r):
        acc = 0
        for i in range(r):
            acc ^= betas[i][j]
        betas[r][j] = acc
    for i in range(size):
        acc = 0
        for j in range(r):
            acc ^= betas[i][j]
        betas[i][r] = acc
    # each column is the Frobenius orbit of its cell value; squaring
    # needs no log tables, so building a code never fills them
    square = field._square
    columns = []
    for i in range(size):
        for j in range(size):
            col = [betas[i][j]]
            for _ in range(M - 1):
                col.append(square(col[-1]))
            columns.append(tuple(col))
    return tuple(tuple(row) for row in betas), tuple(columns)


def verify_grid_relations(sc: SquareCode) -> bool:
    """Whether every grid row and grid column of columns sums to zero.

    Squaring distributes over sums in characteristic 2, so the zero sums
    of the cell values propagate to every generator row.
    """
    cols = sc.code.columns
    for k in range(1, sc.r + 2):
        for line in _grid_lines(sc.r, k, k):
            acc = [0] * sc.M
            for c in line:
                acc = [a ^ x for a, x in zip(acc, cols[c - 1])]
            if any(acc):
                return False
    return True


def grid_regsets(
    sc: SquareCode, i: int, j: int
) -> tuple[RegeneratingSet, RegeneratingSet]:
    """The grid-row and grid-column regenerating sets of cell (i, j).

    Both have size r+1 and intersect exactly in the cell itself; both
    are checked against the entropy oracle before being returned.
    """
    target = coordinate_of(sc.r, i, j)
    row, col = (
        RegeneratingSet(target, frozenset(line)) for line in _grid_lines(sc.r, i, j)
    )
    for rs in (row, col):
        if not regsets.is_regenerating(sc.code, rs.target, rs.members):
            raise InvariantError(
                f"grid set {rs.sorted_members()} fails to regenerate {target}"
            )
    return row, col


def check_rank_lemma(sc: SquareCode, members: Iterable[int]) -> LemmaCheck:
    """Rank check for subsets that avoid one grid row and never fill another.

    Hypotheses: |X| >= M, every grid row contributes at most r cells,
    and some grid row contributes none.  Under them the selected
    columns must span everything; a VIOLATED return would mean the
    construction itself is broken.
    """
    mask = sc.code._coord_mask(members)
    if mask.bit_count() < sc.M:
        return LemmaCheck.HYPOTHESES_UNMET
    size = sc.r + 1
    row = (1 << size) - 1
    per_row = [(mask >> (i * size) & row).bit_count() for i in range(size)]
    if max(per_row) > sc.r or min(per_row) > 0:
        return LemmaCheck.HYPOTHESES_UNMET
    if sc.code._rank(mask) == sc.M:
        return LemmaCheck.HOLDS
    return LemmaCheck.VIOLATED


def verify_optimal_distance(sc: SquareCode, search_cap: Optional[int] = None) -> bool:
    """Whether brute-force distance equals n - M + 1 - s exactly."""
    expected = bound_general(sc.n, sc.M, 1, s_value(sc.M, sc.r))
    return min_distance(sc.code, search_cap=search_cap) == expected

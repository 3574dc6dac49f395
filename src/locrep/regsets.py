"""Regenerating sets, nontrivial unions, and the phi/rho combinatorics.

A regenerating set of coordinate i is a subset R containing i whose
other members already determine the value at i (equal joint entropy
with and without i).  Chains of regenerating sets whose targets stay
outside the union of the earlier sets ("nontrivial unions") drive the
distance bounds: phi(x) is the smallest union such a chain of x sets
can have, and rho is the largest x for which phi(x) - x still falls
short of M.  The minimal regenerating sets of i are the circuits
through i of the column matroid.  Everything here talks to the code
through bitmask ranks, ``LinearCode._rank``, the circuit scan
``linear_code._circuits`` and the exact engine
``linear_code._RankHierarchy``; the searches keep sets as bitmasks.
The circuit scan is the one enumeration of regenerating sets: a
target's minimal regenerating sets are the circuits it lists that hold
the target.

Exact phi is Wei's generalized Hamming weight of the dual code,
min{|U| : |U| - rank(U) >= x}, and exact rho is n - M + 1 - d; both
come from the rank hierarchy.  Only a size cap that leaves circuits
out runs the branch-and-bound over the capped circuits.  Both kinds of
profile share one witness walk, on the generator side.  Locality and
repair tolerance are one minimum hitting set of the circuits of up to
r+1 members.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from typing import Iterable, Optional, Sequence

from .errors import (
    DomainError,
    InvariantError,
    PhiUndefinedError,
    SearchCapExceeded,
)
from .gf2m import _check_int
from .linear_code import LinearCode, _RankHierarchy, _check_search_cap, _circuits

# Locality answers and repair plans scan the circuits of up to r+1
# members, which grows exponentially with the length.
_LOCALITY_N_CAP = 25
# The hitting-set search branches at most n-1 ways.  A tolerance of at
# most 2 (locality with delta <= 4) tries sizes 0, 1, 2 per coordinate:
# at most 25 * (3 + 2*24 + 24**2) = 15,675 nodes, well inside 2^16.
_LOCALITY_NODE_BUDGET = 1 << 16


@dataclass(frozen=True)
class RegeneratingSet:
    """A coordinate together with a set of coordinates that determine it."""

    target: int
    members: frozenset[int]

    def __post_init__(self):
        # True and 1.0 are "in" {1, 2, 3}
        _check_int(self.target, None, "regenerating set target")
        if self.target not in self.members:
            raise DomainError(
                f"target {self.target} must belong to its regenerating set"
            )

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def to_json_dict(self) -> dict:
        return {"target": self.target, "members": list(self.sorted_members())}


@dataclass(frozen=True)
class PhiProfile:
    """phi values 0..x, the derived rho, and one witness chain per x.

    ``size_cap`` records the regenerating-set size cap the search ran
    under, so a profile is reproducible from its own data.
    """

    phi: tuple[int, ...]
    rho: int
    witnesses: tuple[tuple[RegeneratingSet, ...], ...]
    size_cap: int

    def to_json_dict(self) -> dict:
        return {
            "phi": list(self.phi),
            "rho": self.rho,
            "size_cap": self.size_cap,
            "witnesses": [
                [rs.to_json_dict() for rs in chain] for chain in self.witnesses
            ],
        }


def _coords(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def _regset_mask(
    code: LinearCode, target: int, members: Iterable[int]
) -> tuple[int, bool]:
    """The members' mask, and whether they regenerate ``target``.

    Members and target are checked as coordinates, and the target must
    be a member.
    """
    mask = code._coord_mask(members)
    bit = code._coord_mask([target])
    if not mask & bit:
        raise DomainError(
            f"target {target} is not a member of {sorted(_coords(mask))}"
        )
    return mask, code._rank(mask) == code._rank(mask ^ bit)


def is_regenerating(code: LinearCode, target: int, members: Iterable[int]) -> bool:
    """Whether ``members`` is a regenerating set of ``target``.

    True iff dropping the target does not lower the joint entropy, i.e.
    the rest of the set already determines the target's value.
    """
    return _regset_mask(code, target, members)[1]


def minimal_regsets(
    code: LinearCode, target: int, size_cap: int
) -> list[RegeneratingSet]:
    """All inclusion-minimal regenerating sets of ``target`` up to a size cap.

    These are the circuits through ``target``, listed by size, then
    lexicographically: the gated circuit scan :func:`_local_circuits`,
    filtered by the target.  Supersets of regenerating sets regenerate
    too, so the minimal ones form the floor of the whole collection.  A
    size cap that is not an integer >= 1 is a :class:`DomainError`, and
    a code longer than n = 25 raises :class:`SearchCapExceeded`.
    """
    bit = code._coord_mask([target])  # validates the target
    cap = _resolve_size_cap(code, size_cap)
    return [
        RegeneratingSet(target, _coords(mask))
        for mask in _local_circuits(code, cap)
        if mask & bit
    ]


def _nontrivial_union(
    code: LinearCode, sequence: Sequence[RegeneratingSet]
) -> Optional[int]:
    """The union's mask, or None when a target lies in an earlier set."""
    union = 0
    ok = True
    for rs in sequence:
        mask, regenerates = _regset_mask(code, rs.target, rs.members)
        if not regenerates:
            raise DomainError(
                f"set {rs.sorted_members()} does not regenerate {rs.target}"
            )
        if (union >> (rs.target - 1)) & 1:
            ok = False
        union |= mask
    return union if ok else None


def is_nontrivial_union(
    code: LinearCode, sequence: Sequence[RegeneratingSet]
) -> bool:
    """Whether every target lies outside the union of the earlier sets.

    Each item must individually be a regenerating set; a sequence with
    a non-regenerating item is rejected as a usage error rather than
    returning False.
    """
    return _nontrivial_union(code, sequence) is not None


def check_union_entropy(
    code: LinearCode, sequence: Sequence[RegeneratingSet]
) -> bool:
    """Entropy of the union is at most its size less the chain length.

    The sequence must have a nontrivial union.  The inequality is a
    theorem for such chains, so a False return signals a bug in the
    entropy oracle or in the caller's sets, not a property of the code.
    """
    union = _nontrivial_union(code, sequence)
    if union is None:
        raise DomainError("sequence does not have a nontrivial union")
    return code._rank(union) <= union.bit_count() - len(sequence)


class _PhiSearch:
    """Branch-and-bound for phi over circuits up to a size cap.

    Only inclusion-minimal regenerating sets are branched on: every
    regenerating set contains a minimal one with the same target, and
    shrinking a chain's sets keeps the targets-outside-prefix property
    while never growing the union.  Those are the circuits, and every
    target of one circuit grows the union to the same set, so a step
    branches on circuits: a circuit can extend the chain exactly when
    it has a member outside the union.  States (union, sets-remaining)
    are memoised; within a state, a circuit whose optimistic completion
    (current union plus one new element per remaining set) cannot beat
    the incumbent is pruned.  A cap below M+1 (and below n) leaves some
    circuits out, so the answer can exceed the exact phi; an exact
    question goes to :class:`_RankHierarchy` instead.
    """

    def __init__(self, code: LinearCode, size_cap: int):
        self.code = code
        self.n = code.n
        self.circuits = _circuits(code, size_cap)
        self._memo: dict[tuple[int, int], int] = {}

    def completion(self, union_mask: int, k: int) -> int:
        """Smallest final union size reachable with k more sets."""
        if k == 0:
            return union_mask.bit_count()
        key = (union_mask, k)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        best = self.n + 1
        for circuit in self.circuits:
            grown = union_mask | circuit
            if grown == union_mask or grown.bit_count() + (k - 1) >= best:
                continue
            v = self.completion(grown, k - 1)
            if v < best:
                best = v
        self._memo[key] = best
        return best

    def values(self, x_max: int) -> list[int]:
        """phi(1), ..., phi(x_max), cut short where chains run out."""
        out: list[int] = []
        while len(out) < x_max and (v := self.completion(0, len(out) + 1)) <= self.n:
            out.append(v)
        return out

    def rho(self) -> int:
        """Largest x with phi(x) - x < M, 0 when no chain helps.

        phi(x) - x never decreases, so the first x that fails settles it.
        """
        x = 0
        while (v := self.completion(0, x + 1)) <= self.n and v - x - 1 < self.code.M:
            x += 1
        return x

    def scan(self, size_cap: int) -> list[int]:
        """The circuits by size then lex, the witness walk's to cut at ``size_cap``."""
        return self.circuits

    def reaches(self, grown: int, k: int, goal: int) -> bool:
        """Whether k more sets can end on a union of at most ``goal``."""
        return self.completion(grown, k) <= goal


def _witness(
    search, n: int, x: int, goal: int
) -> tuple[RegeneratingSet, ...]:
    """The first chain of x sets with union size ``goal``.

    Each step tries targets outside the union in increasing order, then
    the circuits through each in (size, lex) order, and takes the first
    circuit after which the rest of the chain can still end on ``goal``
    members.  That order decides which minimising chain comes back.  A
    set that leaves k more to place grows the union by at least k more
    members, so circuits above ``goal`` minus k members are never
    tried.  ``search`` supplies the continuation test and its circuit
    scan in (size, lex) order, which this walk filters by the target
    and cuts at that size: the branch-and-bound's capped list and memo
    under a size cap, the lazy scan and the rank hierarchy without one.
    """
    chain: list[RegeneratingSet] = []
    union_mask = 0
    for remaining in range(x - 1, -1, -1):
        size = goal - remaining
        step = next(
            (
                (target, circuit)
                for target in range(n)
                if not (union_mask >> target) & 1
                for circuit in takewhile(
                    lambda c: c.bit_count() <= size, search.scan(size)
                )
                if (circuit >> target) & 1
                and search.reaches(union_mask | circuit, remaining, goal)
            ),
            None,
        )
        if step is None:
            raise InvariantError("witness reconstruction diverged")
        target, circuit = step
        chain.append(RegeneratingSet(target + 1, _coords(circuit)))
        union_mask |= circuit
    return tuple(chain)


def _resolve_size_cap(code: LinearCode, size_cap: Optional[int]) -> int:
    if size_cap is None:
        return code.n
    _check_int(size_cap, 1, "size cap")
    return min(size_cap, code.n)


def _prunes_no_circuit(code: LinearCode, cap: int) -> bool:
    """Whether a size cap keeps every circuit (none has over min(n, M+1) members)."""
    return cap >= min(code.n, code.M + 1)


def _search(code: LinearCode, cap: int):
    """The phi engine for a resolved size cap.

    The rank hierarchy when the cap prunes no circuit, else the
    branch-and-bound within it.
    """
    if _prunes_no_circuit(code, cap):
        return _RankHierarchy(code)
    return _PhiSearch(code, cap)


def phi(
    code: LinearCode,
    x: int,
    size_cap: Optional[int] = None,
    search_cap: Optional[int] = None,
) -> int:
    """Minimum union size of a nontrivial chain of x regenerating sets.

    A size cap keeps only the regenerating sets within it; :func:`_search`
    picks the engine.
    """
    _check_int(x, 0, "chain length")
    _check_search_cap(code, search_cap)
    cap = _resolve_size_cap(code, size_cap)
    if x == 0:
        return 0
    values = _search(code, cap).values(x)
    if len(values) < x:
        raise PhiUndefinedError(
            f"no nontrivial chain of {x} regenerating sets exists"
        )
    return values[-1]


def _check_union_not_exhaustive(
    code: LinearCode, chain: Sequence[RegeneratingSet]
) -> None:
    # For x <= rho a minimising union must leave some coordinate out,
    # otherwise the whole file would have deficient entropy.
    union = code._coord_mask(i for rs in chain for i in rs.members)
    if union.bit_count() >= code.n:
        raise InvariantError(
            "minimising union covers every coordinate below the rho threshold"
        )


def rho(
    code: LinearCode,
    size_cap: Optional[int] = None,
    search_cap: Optional[int] = None,
) -> int:
    """Largest x with phi(x) - x < M (0 when no chain helps).

    Exactly, phi(x) - x < M holds while a set of nullity x has rank
    below M, so rho = max{nullity(U) : rank(U) < M} = n - M + 1 - d:
    one distance search, and no witness.  Under a size cap that prunes
    circuits it comes from the capped profile.
    """
    _check_search_cap(code, search_cap)
    cap = _resolve_size_cap(code, size_cap)
    return _search(code, cap).rho()


def phi_profile(
    code: LinearCode,
    x_max: Optional[int] = None,
    size_cap: Optional[int] = None,
    search_cap: Optional[int] = None,
) -> PhiProfile:
    """Compute phi(0..x_max), rho, and witness chains in one search.

    With ``x_max=None`` the profile extends just past the rho
    threshold.  If chains run out before the threshold, the profile
    simply ends at the last feasible x.  Exact profiles take their
    values and rho from the rank hierarchy and the distance, and list
    no circuit for them: only the witness steps scan circuits, each
    lazily and only up to the largest size the step can take.
    """
    _check_search_cap(code, search_cap)
    if x_max is not None:
        _check_int(x_max, 0, "x_max")
    cap = _resolve_size_cap(code, size_cap)
    search = _search(code, cap)
    rho_val = search.rho()
    values = search.values(rho_val + 1 if x_max is None else x_max)
    witnesses = [_witness(search, code.n, x, v) for x, v in enumerate(values, 1)]
    for chain in witnesses[:rho_val]:
        _check_union_not_exhaustive(code, chain)
    return PhiProfile(
        phi=(0, *values),
        rho=rho_val,
        witnesses=((), *witnesses),
        size_cap=cap,
    )


def _local_circuits(code: LinearCode, size_cap: int) -> list[int]:
    """The circuits of up to ``size_cap`` members, behind the n <= 25 gate.

    Listed by size then lex.  Under locality r the cap is r+1 and these
    are the local repair groups; the locality answers, repair plans and
    :func:`minimal_regsets` all read this one gated scan.
    """
    _check_search_cap(code, _LOCALITY_N_CAP)
    return _circuits(code, size_cap)


def _tolerance(code: LinearCode, r: int, limit: int) -> int:
    """min tau_i over the coordinates i, capped at ``limit``.

    i keeps locality r under erasures E containing i while a circuit
    through i with at most r+1 members meets E only in i, so tau_i, the
    fewest other erasures that cut i off, is a smallest hitting set of
    F_i = {C - {i}}; a zero column, a circuit alone, is never cut off.
    When r+1 prunes no circuit, a set hits every circuit through i
    exactly when it holds a cocircuit through i, less i, so the answer
    is d - 1.  Otherwise, after one circuit scan, sizes 0, 1, 2, ... are
    tried across all coordinates, each by a bounded search tree that
    branches on the members of the smallest set not yet hit.  Past the
    length gate (checked first on both paths) or the node budget it
    raises :class:`SearchCapExceeded`.
    """
    if _prunes_no_circuit(code, r + 1):
        _check_search_cap(code, _LOCALITY_N_CAP)
        return min(_RankHierarchy(code).distance() - 1, limit)
    circuits = _local_circuits(code, r + 1)
    families = [
        [c ^ (1 << i) for c in circuits if c >> i & 1]
        for i in range(code.n) if 1 << i not in circuits
    ]
    nodes = 0

    def hits(sets: list[int], k: int) -> bool:
        # whether k coordinates meet every set; the sets stay in size
        # order, and one member of the first is in any answer
        nonlocal nodes
        nodes += 1
        if nodes > _LOCALITY_NODE_BUDGET:
            raise SearchCapExceeded(
                f"locality search passed {_LOCALITY_NODE_BUDGET} nodes"
            )
        if not sets:
            return True
        members = sets[0] if k else 0
        while members:
            low = members & -members
            if hits([s for s in sets if not s & low], k - 1):
                return True
            members ^= low
        return False

    for k in range(limit):
        if any(hits(sets, k) for sets in families):
            return k
    return limit


def verify_locality(code: LinearCode, r: int, delta: int) -> bool:
    """Whether every coordinate keeps locality r under delta-2 extra erasures.

    For each coordinate i and each erasure pattern E containing i with
    |E| < delta, some regenerating set of size <= r+1 must meet E in
    exactly {i}.  Minimal regenerating sets suffice: shrinking a
    qualifying set keeps both conditions.  So it holds iff every
    tau_i >= delta - 1 (:func:`_tolerance`).
    """
    _check_int(r, 1, "locality")
    _check_int(delta, 2, "repair parameter delta")
    return _tolerance(code, r, delta - 1) == delta - 1

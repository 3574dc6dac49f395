"""Regenerating sets, nontrivial unions, and the phi/rho combinatorics.

A regenerating set of coordinate i is a subset R containing i whose
other members already determine the value at i (equal joint entropy
with and without i).  Chains of regenerating sets whose targets stay
outside the union of the earlier sets ("nontrivial unions") drive the
distance bounds: phi(x) is the smallest union such a chain of x sets
can have, and rho is the largest x for which phi(x) - x still falls
short of M/alpha.  The minimal regenerating sets of i are the circuits
through i of the column matroid.  Everything here talks to the code
through bitmask ranks, ``LinearCode._rank``, and the circuit scan
``linear_code._circuits``; the searches keep sets as bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import (
    DomainError,
    InvariantError,
    PhiUndefinedError,
    SearchCapExceeded,
)
from .linear_code import LinearCode, _check_int, _check_search_cap, _circuits

# verify_locality enumerates all erasure patterns of size < delta, which
# is only practical for small tolerance and desk-scale lengths.
_LOCALITY_DELTA_CAP = 4
_LOCALITY_N_CAP = 25


@dataclass(frozen=True)
class RegeneratingSet:
    """A coordinate together with a set of coordinates that determine it."""

    target: int
    members: frozenset[int]

    def __post_init__(self):
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


def is_regenerating(code: LinearCode, target: int, members: Iterable[int]) -> bool:
    """Whether ``members`` is a regenerating set of ``target``.

    True iff dropping the target does not lower the joint entropy, i.e.
    the rest of the set already determines the target's value.
    """
    mask = code._coord_mask(members)
    mset = _coords(mask)
    if target not in mset:
        raise DomainError(f"target {target} is not a member of {sorted(mset)}")
    return code._rank(mask) == code._rank(mask ^ (1 << (target - 1)))


def minimal_regsets(
    code: LinearCode, target: int, size_cap: int
) -> list[RegeneratingSet]:
    """All inclusion-minimal regenerating sets of ``target`` up to a size cap.

    These are the circuits through ``target``, listed by size, then
    lexicographically.  Supersets of regenerating sets regenerate too,
    so the minimal ones form the floor of the whole collection.  A size
    cap that is not an integer >= 1 is a :class:`DomainError`.
    """
    code._coord_mask([target])  # validates the target
    cap = _resolve_size_cap(code, size_cap)
    return [
        RegeneratingSet(target, _coords(mask))
        for mask in _circuits(code, cap, target)
    ]


def is_nontrivial_union(
    code: LinearCode, sequence: Sequence[RegeneratingSet]
) -> bool:
    """Whether every target lies outside the union of the earlier sets.

    Each item must individually be a regenerating set; a sequence with
    a non-regenerating item is rejected as a usage error rather than
    returning False.
    """
    union = 0
    ok = True
    for rs in sequence:
        if not is_regenerating(code, rs.target, rs.members):
            raise DomainError(
                f"set {rs.sorted_members()} does not regenerate {rs.target}"
            )
        if (union >> (rs.target - 1)) & 1:
            ok = False
        union |= code._coord_mask(rs.members)
    return ok


def check_union_entropy(
    code: LinearCode, sequence: Sequence[RegeneratingSet]
) -> bool:
    """Entropy of the union is at most alpha * (union size - chain length).

    The sequence must have a nontrivial union.  The inequality is a
    theorem for such chains, so a False return signals a bug in the
    entropy oracle or in the caller's sets, not a property of the code.
    """
    if not is_nontrivial_union(code, sequence):
        raise DomainError("sequence does not have a nontrivial union")
    union = code._coord_mask(i for rs in sequence for i in rs.members)
    bound = code.alpha * (union.bit_count() - len(sequence))
    return code._rank(union) <= bound


class _PhiSearch:
    """Exact branch-and-bound for minimum nontrivial-union sizes.

    Only inclusion-minimal regenerating sets are branched on: every
    regenerating set contains a minimal one with the same target, and
    shrinking a chain's sets keeps the targets-outside-prefix property
    while never growing the union.  Those are the circuits, and every
    target of one circuit grows the union to the same set, so a step
    branches on circuits: a circuit can extend the chain exactly when
    it has a member outside the union.  States (union, sets-remaining)
    are memoised; within a state, a circuit whose optimistic completion
    (current union plus one new element per remaining set) cannot beat
    the incumbent is pruned.  :meth:`witness` tries targets, then the
    circuits through each, and that order decides which minimising
    chain it returns.
    """

    def __init__(self, code: LinearCode, size_cap: int):
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

    def value(self, x: int) -> Optional[int]:
        v = self.completion(0, x)
        return None if v > self.n else v

    def witness(self, x: int) -> tuple[RegeneratingSet, ...]:
        """Lexicographically smallest minimizing chain (targets, then members).

        Only called for an x whose chains exist.
        """
        goal = self.completion(0, x)
        chain: list[RegeneratingSet] = []
        union_mask = 0
        for remaining in range(x - 1, -1, -1):
            target, circuit = self._next_step(union_mask, remaining, goal)
            chain.append(RegeneratingSet(target + 1, _coords(circuit)))
            union_mask |= circuit
        return tuple(chain)

    def _next_step(
        self, union_mask: int, remaining: int, goal: int
    ) -> tuple[int, int]:
        """First (target, circuit) outside the union that still reaches goal."""
        for target in range(self.n):
            if (union_mask >> target) & 1:
                continue
            for circuit in self.circuits:
                if (circuit >> target) & 1 and (
                    self.completion(union_mask | circuit, remaining) == goal
                ):
                    return target, circuit
        raise InvariantError("witness reconstruction diverged")


def _resolve_size_cap(code: LinearCode, size_cap: Optional[int]) -> int:
    if size_cap is None:
        return code.n
    _check_int(size_cap, 1, "size cap")
    return min(size_cap, code.n)


def phi(
    code: LinearCode,
    x: int,
    size_cap: Optional[int] = None,
    search_cap: Optional[int] = None,
) -> int:
    """Minimum union size of a nontrivial chain of x regenerating sets."""
    _check_int(x, 0, "chain length")
    if x == 0:
        return 0
    _check_search_cap(code, search_cap)
    v = _PhiSearch(code, _resolve_size_cap(code, size_cap)).value(x)
    if v is None:
        raise PhiUndefinedError(
            f"no nontrivial chain of {x} regenerating sets exists"
        )
    return v


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
    """Largest x with phi(x) - x < M/alpha (0 when no chain helps)."""
    return phi_profile(code, x_max=None, size_cap=size_cap, search_cap=search_cap).rho


def phi_profile(
    code: LinearCode,
    x_max: Optional[int] = None,
    size_cap: Optional[int] = None,
    search_cap: Optional[int] = None,
) -> PhiProfile:
    """Compute phi(0..x_max), rho, and witness chains in one search.

    With ``x_max=None`` the profile extends just past the rho
    threshold.  If chains run out before the threshold, the profile
    simply ends at the last feasible x.
    """
    _check_search_cap(code, search_cap)
    if x_max is not None:
        _check_int(x_max, 0, "x_max")
    cap = _resolve_size_cap(code, size_cap)
    search = _PhiSearch(code, cap)
    phis: list[int] = [0]
    witnesses: list[tuple[RegeneratingSet, ...]] = [()]
    rho_val = 0
    x = 1
    while True:
        v = search.value(x)
        if v is None:
            break
        passing = code.alpha * (v - x) < code.M
        chain = search.witness(x)
        if x_max is None or x <= x_max:
            phis.append(v)
            witnesses.append(chain)
        if passing:
            rho_val = x
            _check_union_not_exhaustive(code, chain)
        # phi(x) - x never decreases, so the first failing x settles rho;
        # keep going past it only to fill the requested profile range.
        more_profile = x_max is not None and x < x_max
        if not passing and not more_profile:
            break
        x += 1
    return PhiProfile(
        phi=tuple(phis),
        rho=rho_val,
        witnesses=tuple(witnesses),
        size_cap=cap,
    )


def verify_locality(code: LinearCode, r: int, delta: int) -> bool:
    """Whether every coordinate keeps locality r under delta-2 extra erasures.

    For each coordinate i and each erasure pattern E containing i with
    |E| < delta, some regenerating set of size <= r+1 must meet E in
    exactly {i}.  Minimal regenerating sets suffice: shrinking a
    qualifying set keeps both conditions.
    """
    _check_int(r, 1, "locality")
    _check_int(delta, 2, "repair parameter delta")
    if delta > _LOCALITY_DELTA_CAP or code.n > _LOCALITY_N_CAP:
        raise SearchCapExceeded(
            f"locality verification is exhaustive and limited to "
            f"delta <= {_LOCALITY_DELTA_CAP} and n <= {_LOCALITY_N_CAP} "
            f"(got delta={delta}, n={code.n})"
        )
    circuits = _circuits(code, r + 1)
    bits = [1 << i for i in range(code.n)]
    for i_bit in bits:
        set_masks = [c for c in circuits if c & i_bit]
        if not set_masks:
            return False
        others = [b for b in bits if b != i_bit]
        for extra in range(delta - 1):
            for blocked in combinations(others, extra):
                e_mask = i_bit + sum(blocked)
                if not any(sm & e_mask == i_bit for sm in set_masks):
                    return False
    return True

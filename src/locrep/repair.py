"""Erasure injection and local repair planning/execution.

A repair plan fixes failed coordinates one at a time: each step names a
regenerating set that avoids the still-failed coordinates and the exact
field coefficients that rebuild the target symbol from the set's other
members.  Earlier repairs become available to later steps (peeling),
which is never worse than requiring simultaneous repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DomainError, InvariantError, RepairError
from .gf2m import _check_int, _is_int, solve_column
from .linear_code import LinearCode, _combination
# bench/tracing.py wraps minimal_regsets and verify_locality under this
# module's name too
from .regsets import _coords, _local_circuits, _tolerance
from .regsets import minimal_regsets, verify_locality


@dataclass(frozen=True)
class RepairStep:
    """Rebuild ``target`` as sum(coefficients[k] * symbol(helpers[k]))."""

    target: int
    members: tuple[int, ...]  # sorted, includes the target
    coefficients: tuple[int, ...]  # aligned with members minus the target

    @property
    def helpers(self) -> tuple[int, ...]:
        return tuple(m for m in self.members if m != self.target)

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "members": list(self.members),
            "coefficients": [format(c, "x") for c in self.coefficients],
        }


@dataclass(frozen=True)
class RepairPlan:
    """An ordered list of repair steps tied to the code they were built for."""

    code: LinearCode
    steps: tuple[RepairStep, ...]

    def targets(self) -> tuple[int, ...]:
        return tuple(step.target for step in self.steps)

    def to_json_dict(self) -> dict:
        return {"steps": [step.to_json_dict() for step in self.steps]}


def _solve_step(code: LinearCode, target: int, members: frozenset[int]) -> RepairStep:
    helpers = sorted(members - {target})
    cols = [code.columns[h - 1] for h in helpers]
    coeffs = solve_column(code.field, code.M, cols, code.columns[target - 1])
    if coeffs is None:
        raise InvariantError(
            f"regenerating set {sorted(members)} cannot express column {target}"
        )
    # the plan is self-validating: the combination must reproduce the column
    if not _rebuilds(code, target, helpers, coeffs):
        raise InvariantError("repair coefficients fail to reproduce the column")
    return RepairStep(
        target=target,
        members=tuple(sorted(members)),
        coefficients=tuple(coeffs),
    )


def _rebuilds(
    code: LinearCode, target: int, helpers: Sequence[int], coeffs: Sequence[int]
) -> bool:
    """Whether sum(c_h * g_h) over the helpers is the target's column.

    An XOR of the helpers' packed images (:func:`_combination`), with
    no field product; the coefficients must already be field elements.
    """
    return _combination(code, coeffs, helpers) == code._packed[target - 1][0]


def plan_repair(
    code: LinearCode, failed: Iterable[int], locality_cap: int
) -> RepairPlan:
    """Greedy sequential plan repairing every failed coordinate.

    Repeatedly picks the lowest-index failed coordinate that has a
    regenerating set of size <= locality_cap + 1 meeting the remaining
    failures only in itself: the first such circuit in the (size, lex)
    list of circuits of up to locality_cap + 1 members.  Repaired
    coordinates count as available afterwards.  Raises
    :class:`RepairError` naming the stuck coordinate when no progress is
    possible, and :class:`SearchCapExceeded` past the locality length
    gate (n = 25), as the circuit scan does.
    """
    _check_int(locality_cap, 1, "locality cap")
    remaining = code._coord_mask(failed)
    circuits = _local_circuits(code, locality_cap + 1)
    steps: list[RepairStep] = []
    while remaining:
        # a circuit meeting the failures in one coordinate can rebuild it;
        # min keeps the first circuit listed for the lowest such target
        lone = [c for c in circuits if (c & remaining).bit_count() == 1]
        if not lone:
            stuck = _coords(remaining)
            raise RepairError(min(stuck), stuck)
        circuit = min(lone, key=lambda c: c & remaining)
        target = circuit & remaining
        steps.append(_solve_step(code, target.bit_length(), _coords(circuit)))
        remaining ^= target
    return RepairPlan(code=code, steps=tuple(steps))


def execute_repair(
    codeword: Sequence[Optional[int]], plan: RepairPlan
) -> list[int]:
    """Fill in the erased symbols of a codeword by running the plan.

    Erasures are ``None`` entries and must coincide with the plan's
    targets; any mismatch is a usage error, and so is a symbol or a
    coefficient that is not a field element.  A plan is public input, so
    every step is checked before any runs: its members are coordinates
    and hold its target, it has one coefficient per helper, its helpers
    are not erased when it runs, and its coefficients rebuild the
    target's column from the helpers' (:func:`_rebuilds`).  The input is
    not modified.
    """
    code = plan.code
    if len(codeword) != code.n:
        raise DomainError(
            f"codeword has {len(codeword)} symbols, expected {code.n}"
        )
    erased = {i + 1 for i, sym in enumerate(codeword) if sym is None}
    if erased != set(plan.targets()):
        raise DomainError(
            f"erased positions {sorted(erased)} do not match plan targets "
            f"{sorted(plan.targets())}"
        )
    # every outside value is checked once here; the products are unchecked
    check, mul = code.field._check, code.field._mul
    symbols = [None if sym is None else check(sym) for sym in codeword]
    missing = code._coord_mask(erased)
    runs = []
    for step in plan.steps:
        target, coeffs = step.target, step.coefficients
        members = code._coord_mask(step.members)
        # the target is erased, so an int one is a coordinate
        if not _is_int(target) or not members >> (target - 1) & 1:
            raise DomainError(f"target {target!r} is not a member of its step")
        helpers = step.helpers
        if len(coeffs) != len(helpers):
            raise DomainError(
                f"step for target {target} has {len(coeffs)} "
                f"coefficients for {len(helpers)} helpers"
            )
        still = missing & members & ~(1 << (target - 1))
        if still:
            raise DomainError(
                f"helper {(still & -still).bit_length()} for target {target} "
                "is still erased"
            )
        for coeff in coeffs:
            check(coeff)
        if not _rebuilds(code, target, helpers, coeffs):
            raise DomainError(
                f"the coefficients for target {target} do not rebuild its column"
            )
        missing &= ~(1 << (target - 1))
        runs.append((target - 1, helpers, coeffs))
    for t, helpers, coeffs in runs:
        acc = 0
        for coeff, helper in zip(coeffs, helpers):
            acc ^= mul(coeff, symbols[helper - 1])
        symbols[t] = acc
    return symbols


def repair_tolerance(code: LinearCode, locality_cap: int) -> int:
    """Largest t such that locality holds with t simultaneous erasures.

    That is the fewest erasures besides some coordinate that leave it
    no regenerating set of size <= locality_cap + 1 clear of them
    (``regsets._tolerance``), so 0 when a single failure cannot be
    repaired locally.  Past n = 25 or the search's node budget it
    raises :class:`SearchCapExceeded`.
    """
    _check_int(locality_cap, 1, "locality cap")
    return _tolerance(code, locality_cap, code.n)

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
from .gf2m import solve_column
from .linear_code import LinearCode, _check_int, _check_search_cap
# bench/tracing.py wraps verify_locality under this module's name too
from .regsets import _LOCALITY_N_CAP, _tolerance, minimal_regsets, verify_locality


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
    rhs = code.columns[target - 1]
    coeffs = solve_column(code.field, code.M, cols, rhs)
    if coeffs is None:
        raise InvariantError(
            f"regenerating set {sorted(members)} cannot express column {target}"
        )
    # the plan is self-validating: the combination must reproduce the column
    mul = code.field.mul
    for row in range(code.M):
        acc = 0
        for c, col in zip(coeffs, cols):
            acc ^= mul(c, col[row])
        if acc != rhs[row]:
            raise InvariantError("repair coefficients fail to reproduce the column")
    return RepairStep(
        target=target,
        members=tuple(sorted(members)),
        coefficients=tuple(coeffs),
    )


def plan_repair(
    code: LinearCode, failed: Iterable[int], locality_cap: int
) -> RepairPlan:
    """Greedy sequential plan repairing every failed coordinate.

    Repeatedly picks the lowest-index failed coordinate that has a
    regenerating set of size <= locality_cap + 1 meeting the remaining
    failures only in itself; repaired coordinates count as available
    afterwards.  Raises :class:`RepairError` naming the stuck coordinate
    when no progress is possible, and :class:`SearchCapExceeded` past
    the locality length gate (n = 25), as its circuit scans are.
    """
    _check_int(locality_cap, 1, "locality cap")
    remaining = set(failed)
    code._coord_mask(remaining)  # validates the coordinate range
    _check_search_cap(code, _LOCALITY_N_CAP)
    steps: list[RepairStep] = []
    candidates = {
        i: minimal_regsets(code, i, locality_cap + 1) for i in sorted(remaining)
    }
    while remaining:
        chosen = None
        for target in sorted(remaining):
            others = remaining - {target}
            for rs in candidates[target]:
                if rs.members & others:
                    continue
                chosen = (target, rs.members)
                break
            if chosen:
                break
        if chosen is None:
            stuck = min(remaining)
            raise RepairError(stuck, frozenset(remaining))
        target, members = chosen
        steps.append(_solve_step(code, target, members))
        remaining.discard(target)
    return RepairPlan(code=code, steps=tuple(steps))


def execute_repair(
    codeword: Sequence[Optional[int]], plan: RepairPlan
) -> list[int]:
    """Fill in the erased symbols of a codeword by running the plan.

    Erasures are ``None`` entries and must coincide with the plan's
    targets; any mismatch is a usage error.  The input is not modified.
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
    symbols: list[Optional[int]] = list(codeword)
    mul = code.field.mul
    for step in plan.steps:
        acc = 0
        for coeff, helper in zip(step.coefficients, step.helpers):
            value = symbols[helper - 1]
            if value is None:
                raise DomainError(
                    f"helper {helper} for target {step.target} is still erased"
                )
            acc ^= mul(coeff, value)
        symbols[step.target - 1] = acc
    return [code.field._check(s) for s in symbols]


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

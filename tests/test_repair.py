"""Repair planning, execution round-trips, and tolerance measurement."""

from __future__ import annotations

from random import Random

import pytest

from itertools import combinations

from locrep import (
    DomainError,
    GF2m,
    InvariantError,
    LinearCode,
    RepairError,
    RepairPlan,
    RepairStep,
    SearchCapExceeded,
    build_square_code,
    execute_repair,
    min_distance,
    minimal_regsets,
    phi_profile,
    plan_repair,
    repair_tolerance,
    verify_locality,
)
from locrep import repair

from oracles import random_code, repetition_code, single_parity_code


def test_empty_pattern_gives_empty_plan(square_r2_m3):
    plan = plan_repair(square_r2_m3.code, [], 2)
    assert plan.steps == ()
    word = square_r2_m3.code.encode((1, 2, 3))
    assert execute_repair(list(word), plan) == list(word)


def test_single_failure_uses_row_or_column(square_r2_m3):
    plan = plan_repair(square_r2_m3.code, [1], 2)
    assert plan.targets() == (1,)
    assert plan.steps[0].members in ((1, 2, 3), (1, 4, 7))


def test_row_pair_repaired_via_column_then_peeling(square_r2_m3):
    # both failures share a grid row, so the first step must take the
    # column; once coordinate 1 is back it may help repair coordinate 2,
    # and the deterministic order picks the row set
    plan = plan_repair(square_r2_m3.code, [1, 2], 2)
    assert plan.targets() == (1, 2)
    assert plan.steps[0].members == (1, 4, 7)
    assert plan.steps[1].members == (1, 2, 3)


def test_plan_respects_remaining_failures(square_r3_m9):
    code = square_r3_m9.code
    rng = Random(89)
    for _ in range(30):
        failed = rng.sample(range(1, 17), 2)
        plan = plan_repair(code, failed, 3)
        pending = set(failed)
        for step in plan.steps:
            assert set(step.members) & pending == {step.target}
            pending.discard(step.target)
        assert not pending


def test_row_repair_coefficients_are_unit(square_r2_m3):
    # a zero-sum row rebuilds its cell as the plain sum of the others
    code = square_r2_m3.code
    plan = plan_repair(code, [1], 2)
    step = plan.steps[0]
    assert step.coefficients == (1, 1)


def test_unrepairable_pattern_names_stuck_coordinate():
    code = single_parity_code()
    with pytest.raises(RepairError) as err:
        plan_repair(code, [1, 2], 3)
    assert err.value.stuck == 1
    assert err.value.residual == frozenset({1, 2})


def test_repair_roundtrip_random_messages(square_r2_m3):
    code = square_r2_m3.code
    rng = Random(97)
    plan = plan_repair(code, [3, 7], 2)
    for _ in range(100):
        msg = tuple(rng.randrange(16) for _ in range(code.M))
        word = code.encode(msg)
        erased = [None if i + 1 in (3, 7) else s for i, s in enumerate(word)]
        assert tuple(execute_repair(erased, plan)) == word


def test_execute_rejects_mismatched_erasures(square_r2_m3):
    code = square_r2_m3.code
    plan = plan_repair(code, [1], 2)
    word = list(code.encode((1, 2, 3)))
    with pytest.raises(DomainError):
        execute_repair(word, plan)  # nothing erased
    word[0] = None
    word[4] = None
    with pytest.raises(DomainError):
        execute_repair(word, plan)  # extra erasure not in the plan


def test_bool_symbols_and_columns_are_rejected(square_r2_m3):
    # True once came back as a repaired word's symbol, and as a column entry
    code = square_r2_m3.code
    plan = plan_repair(code, [1], 2)
    word = list(code.encode((1, 2, 3)))
    word[0] = None
    helper = plan.steps[0].helpers[0]
    word[helper - 1] = True
    with pytest.raises(DomainError, match="True is not an element"):
        execute_repair(word, plan)
    columns = [list(col) for col in code.columns]
    columns[0][0] = True
    with pytest.raises(DomainError, match="True is not an element"):
        LinearCode(code.field, code.n, code.M, columns)


def _erase_first(code):
    """A plan repairing coordinate 1, and a codeword with it erased."""
    word = list(code.encode((1, 2, 3)))
    word[0] = None
    return plan_repair(code, [1], 2), word


@pytest.mark.parametrize("bad", ["bool", "order"])
@pytest.mark.parametrize("where", ["helper", "bystander"])
def test_execute_checks_every_codeword_symbol(square_r2_m3, bad, where):
    # the products are unchecked, so the codeword is checked where it
    # enters; a symbol the plan never reads is checked too
    code = square_r2_m3.code
    plan, word = _erase_first(code)
    step = plan.steps[0]
    if where == "helper":
        pos = step.helpers[0]
    else:
        pos = min(set(range(1, code.n + 1)) - set(step.members))
    word[pos - 1] = True if bad == "bool" else code.field.order
    with pytest.raises(DomainError, match="is not an element"):
        execute_repair(word, plan)


@pytest.mark.parametrize("bad", ["bool", "order"])
def test_execute_checks_every_plan_coefficient(square_r2_m3, bad):
    # a RepairPlan is public input: its coefficients are outside values
    code = square_r2_m3.code
    plan, word = _erase_first(code)
    step = plan.steps[0]
    coefficient = True if bad == "bool" else code.field.order
    forged = RepairStep(
        step.target, step.members, (coefficient, *step.coefficients[1:])
    )
    with pytest.raises(DomainError, match="is not an element"):
        execute_repair(word, RepairPlan(code=code, steps=(forged,)))


def test_a_wrong_coefficient_fails_the_plan_self_check(square_r2_m3, monkeypatch):
    # the self-check XORs the helpers' packed images against the target's
    solve_column = repair.solve_column

    def flipped(*args):
        coeffs = solve_column(*args)
        coeffs[0] ^= 1
        return coeffs

    monkeypatch.setattr(repair, "solve_column", flipped)
    with pytest.raises(InvariantError, match="fail to reproduce the column"):
        plan_repair(square_r2_m3.code, [1], 2)


def _answers(r, M, m):
    """Every library answer that multiplies, on a freshly built code."""
    code = build_square_code(r, M, None if m is None else GF2m(m)).code
    word = code.encode(list(range(1, M + 1)))
    plans = []
    for failed in [(t,) for t in range(1, code.n + 1)] + [(1, 2), (1, code.n)]:
        plan = plan_repair(code, failed, r)
        erased = [None if i + 1 in failed else x for i, x in enumerate(word)]
        assert execute_repair(erased, plan) == list(word)
        plans.append(plan.to_json_dict())
    return (
        word,
        plans,
        repair_tolerance(code, r),
        verify_locality(code, r, 3),
        min_distance(code),
        phi_profile(code, size_cap=r + 1).to_json_dict(),
        phi_profile(code).to_json_dict(),
    )


@pytest.mark.parametrize("r, M, m", [(2, 3, None), (3, 6, None), (3, 5, 17)])
def test_the_package_makes_no_checked_field_operation(monkeypatch, r, M, m):
    # GF2m's checked methods serve library users; inside the package each
    # outside value is checked once and products go through _mul/_inv.
    # GF(2^17) has no log tables, so its products take the tableless path.
    expected = _answers(r, M, m)

    def refuse(*args):
        raise AssertionError("a checked GF2m method ran inside the package")

    for name in ("add", "mul", "inv"):
        monkeypatch.setattr(GF2m, name, refuse)
    assert _answers(r, M, m) == expected


def test_execute_rejects_wrong_length(square_r2_m3):
    plan = plan_repair(square_r2_m3.code, [], 2)
    with pytest.raises(DomainError):
        execute_repair([0] * 5, plan)


def test_execute_rejects_a_step_whose_helper_is_still_erased(square_r2_m3):
    # each step alone is sound, but the first reads the second's target
    code = square_r2_m3.code
    first = plan_repair(code, [1], 2).steps[0]
    second = plan_repair(code, [2], 2).steps[0]
    assert 2 in first.helpers
    plan = RepairPlan(code=code, steps=(first, second))
    word = list(code.encode((1, 2, 3)))
    word[0] = word[1] = None
    with pytest.raises(DomainError, match="helper 2 for target 1 is still erased"):
        execute_repair(word, plan)


@pytest.mark.parametrize(
    "members, coefficients, message",
    [
        # each once returned a wrong symbol with no error: 5 where the
        # codeword holds 0, symbols[-1] read for helper 0, and a helper
        # dropped by zip
        ((1, 2, 3), (1, 3), "coefficients for target 1 do not rebuild its column"),
        ((0, 1, 3), (1, 1), "coordinate 0 is not in 1..9"),
        ((1, 2, 3), (1,), "1 coefficients for 2 helpers"),
        ((1, 2, 3), (1, 1, 1), "3 coefficients for 2 helpers"),
        ((2, 3, 4), (1, 1), "target 1 is not a member of its step"),
        ((1, 2, 10), (1, 1), "coordinate 10 is not in 1..9"),
    ],
)
def test_execute_checks_every_step_before_it_runs_one(
    square_r2_m3, monkeypatch, members, coefficients, message
):
    code = square_r2_m3.code
    word = list(code.encode((5, 2, 7)))
    erased = [None, *word[1:]]
    plan = plan_repair(code, [1], 2)
    assert plan.steps == (RepairStep(1, (1, 2, 3), (1, 1)),)
    assert execute_repair(erased, plan) == word
    forged = RepairPlan(code=code, steps=(RepairStep(1, members, coefficients),))
    with pytest.raises(DomainError, match=message):
        execute_repair(erased, forged)
    # a forged second step is refused before the first one multiplies
    good = plan_repair(code, [9], 2).steps[0]
    assert 1 not in good.members
    erased[8] = None
    two = RepairPlan(code=code, steps=(good, RepairStep(1, members, coefficients)))

    def refuse(*args):
        raise AssertionError("a step ran before every step was checked")

    monkeypatch.setattr(GF2m, "_mul", refuse)
    with pytest.raises(DomainError, match=message):
        execute_repair(erased, two)


def test_locality_cap_must_be_an_integer(square_r2_m3):
    code = square_r2_m3.code
    with pytest.raises(DomainError, match="locality cap must be an integer"):
        plan_repair(code, [1], 2.5)
    with pytest.raises(DomainError, match="locality cap must be an integer"):
        repair_tolerance(code, 2.5)
    with pytest.raises(DomainError, match="locality cap must be >= 1, got 0"):
        plan_repair(code, [1], 0)


def test_plan_repair_rejects_a_bool_coordinate(square_r2_m3):
    # True is an int, but not coordinate 1
    with pytest.raises(DomainError, match="coordinate True"):
        plan_repair(square_r2_m3.code, [True], 2)


def test_repair_tolerance_square(square_r2_m3, square_r2_m4):
    assert repair_tolerance(square_r2_m3.code, 2) == 2
    assert repair_tolerance(square_r2_m4.code, 2) == 2


def test_repair_tolerance_repetition():
    assert repair_tolerance(repetition_code(), 1) == 2


def test_repair_tolerance_single_parity():
    assert repair_tolerance(single_parity_code(), 3) == 1


def test_repair_tolerance_zero_when_no_small_sets():
    assert repair_tolerance(single_parity_code(), 2) == 0


def test_repetition_code_tolerance_is_n_minus_1():
    # at cap 1 the circuits are the pairs, so a coordinate keeps a
    # helper until all n-1 others are erased
    for n in (3, 5, 6, 12, 25):
        assert repair_tolerance(repetition_code(n), 1) == n - 1


def test_plan_repair_gates_the_length():
    code = repetition_code(26)
    with pytest.raises(SearchCapExceeded):
        plan_repair(code, [1], 1)
    assert plan_repair(repetition_code(25), [1], 1).targets() == (1,)


def test_patterns_within_tolerance_always_plannable(square_r2_m3):
    code = square_r2_m3.code
    t = repair_tolerance(code, 2)
    assert t == 2
    n = code.n
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            failed = {a, b}
            plan = plan_repair(code, failed, 2)
            assert set(plan.targets()) == failed


def _greedy_over_regsets(code, failed, cap):
    """The plan, as steps (target, members), or the stuck (coordinate, residual).

    Picks like :func:`plan_repair`, but over each target's own
    ``minimal_regsets`` list rather than one shared circuit list.
    """
    remaining = set(failed)
    candidates = {i: minimal_regsets(code, i, cap + 1) for i in remaining}
    steps = []
    while remaining:
        step = next(
            (
                (target, rs.sorted_members())
                for target in sorted(remaining)
                for rs in candidates[target]
                if not rs.members & (remaining - {target})
            ),
            None,
        )
        if step is None:
            return min(remaining), frozenset(remaining)
        steps.append(step)
        remaining.discard(step[0])
    return steps


def _plan_or_stuck(code, failed, cap):
    try:
        plan = plan_repair(code, failed, cap)
    except RepairError as err:
        return err.stuck, err.residual
    return [(step.target, step.members) for step in plan.steps]


def test_plan_matches_the_greedy_over_per_target_regsets():
    # square r = 2, 3 codes and random small codes with zero and
    # parallel columns, at caps 1-3 with 1-3 erasures, stuck ones too
    rng = Random(131)
    codes = [build_square_code(2, M).code for M in (3, 4)]
    codes += [build_square_code(3, M, field=GF2m(9)).code for M in (4, 6, 9)]
    for degree in (1, 2, 3):
        field = GF2m(degree)
        for _ in range(5):
            n = rng.randrange(4, 9)
            code = random_code(rng, field, n, rng.randrange(1, n), require_repairable=False)
            codes.append(code)
    stuck = 0
    for code in codes:
        patterns = [
            failed
            for size in (1, 2, 3)
            for failed in combinations(range(1, code.n + 1), size)
        ]
        for failed in rng.sample(patterns, min(len(patterns), 60)):
            for cap in (1, 2, 3):
                expected = _greedy_over_regsets(code, failed, cap)
                stuck += isinstance(expected, tuple)
                assert _plan_or_stuck(code, failed, cap) == expected, (
                    code.columns, failed, cap
                )
    assert stuck >= 100

"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with plain ``pytest``; the verdict lines bypass output capture so a
normal run shows one PASS/FAIL line per criterion, including the
measured wall time wherever a budget applies.
"""

from __future__ import annotations

import json
import time
from itertools import combinations
from random import Random

from locrep import (
    GF2m,
    bound_general,
    bound_locality_r,
    bound_lrc,
    build_square_code,
    check_rank_lemma,
    check_union_entropy,
    compare_table,
    execute_repair,
    is_nontrivial_union,
    min_distance,
    minimal_regsets,
    phi,
    phi_profile,
    plan_repair,
    repair_tolerance,
    rho,
    s_value,
    verify_locality,
    LemmaCheck,
)
from locrep.cli import main as cli_main

from oracles import (
    random_admissible_grid_subset,
    random_code,
    random_nontrivial_chain,
    repetition_code,
    single_parity_code,
)


def _verdict(capsys, name: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}{detail}")


def test_criterion_1_square_tightness_r2(capsys):
    name = "criterion 1: square tightness r=2 (d=6 for M=3, d=4 for M=4)"
    start = time.perf_counter()
    results = {}
    for M in (3, 4):
        sc = build_square_code(2, M)
        expected = sc.n - M + 1 - s_value(M, 2)
        results[M] = (min_distance(sc.code), expected)
    elapsed = time.perf_counter() - start
    ok = (
        results[3] == (6, 6)
        and results[4] == (4, 4)
        and elapsed < 1.0
    )
    _verdict(capsys, name, ok, f" ({elapsed:.2f}s)")
    assert results[3] == (6, 6), results
    assert results[4] == (4, 4), results
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_2_square_tightness_r3(capsys):
    name = "criterion 2: square tightness r=3 (M=4..9 over n=16)"
    start = time.perf_counter()
    field = GF2m(9)
    mismatches = []
    for M in range(4, 10):
        sc = build_square_code(3, M, field=field)
        expected = 16 - M + 1 - s_value(M, 3)
        d = min_distance(sc.code)
        if d != expected:
            mismatches.append((M, d, expected))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 30.0
    _verdict(capsys, name, ok, f" ({elapsed:.2f}s)")
    assert not mismatches, mismatches
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"


def test_criterion_2_square_tightness_r4(capsys, tmp_path, monkeypatch):
    name = "criterion 2: square tightness r=4 (M=15,16 over n=25, dual side)"
    start = time.perf_counter()
    field = GF2m(16)
    mismatches = []
    for M in (15, 16):
        sc = build_square_code(4, M, field=field)
        expected = 25 - M + 1 - s_value(M, 4)
        d = min_distance(sc.code, search_cap=25)
        if d != expected:
            mismatches.append((M, d, expected))
    elapsed = time.perf_counter() - start
    # n = 25 is one over the default cap, so the CLI needs the env override
    path = tmp_path / "square_r4_M16.json"
    assert cli_main(["build", "--family", "square", "--r", "4", "--M", "16",
                     "-o", str(path)]) == 0
    monkeypatch.setenv("LOCREP_SEARCH_CAP", "25")
    rc = cli_main(["distance", str(path)])
    cli_ok = rc == 0 and json.loads(capsys.readouterr().out) == {"d": 4}
    ok = not mismatches and cli_ok and elapsed < 2.0
    _verdict(capsys, name, ok, f" ({elapsed:.2f}s)")
    assert not mismatches, mismatches
    assert cli_ok
    assert elapsed < 2.0, f"took {elapsed:.2f}s, budget 2s"


def test_criterion_2_square_tightness_r4_primal(capsys):
    name = "criterion 2: square tightness r=4 (M=5,6,7 over n=25, primal side)"
    start = time.perf_counter()
    field = GF2m(16)
    mismatches = []
    for M in (5, 6, 7):
        sc = build_square_code(4, M, field=field)
        expected = 25 - M + 1 - s_value(M, 4)
        d = min_distance(sc.code, search_cap=25)
        if d != expected:
            mismatches.append((M, d, expected))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 3.0
    _verdict(capsys, name, ok, f" ({elapsed:.2f}s)")
    assert not mismatches, mismatches
    assert elapsed < 3.0, f"took {elapsed:.2f}s, budget 3s"


def test_criterion_3_comparison_table(capsys):
    name = "criterion 3: table --r 5 rows and square <= rdc for r in 2..8"
    rc = cli_main(["table", "--r", "5"])
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    rows_ok = (
        rc == 0
        and lines[0] == "M,bound_square,bound_rdc"
        and len(lines) == 21
    )
    table_ok = True
    for line in lines[1:]:
        _, b_sq, b_rdc = (int(tok) for tok in line.split(","))
        if b_sq > b_rdc:
            table_ok = False
    sweep_ok = all(
        b_sq <= b_rdc
        for r in range(2, 9)
        for _, b_sq, b_rdc in compare_table(r)
    )
    ok = rows_ok and table_ok and sweep_ok
    _verdict(capsys, name, ok)
    assert rows_ok, lines[:2]
    assert table_ok
    assert sweep_ok


def test_criterion_4_union_entropy_property(capsys):
    name = "criterion 4: union entropy bound on random chains"
    rng = Random(101)
    codes = [build_square_code(2, 3).code, build_square_code(2, 4).code,
             build_square_code(3, 9).code]
    field = GF2m(3)
    for _ in range(4):
        n = rng.randrange(6, 13)
        M = rng.randrange(2, min(n - 1, 6) + 1)
        codes.append(random_code(rng, field, n, M))
    checked = 0
    violations = 0
    per_code = {}
    for code in codes:
        per_code[code] = {
            t: minimal_regsets(code, t, code.n) for t in range(1, code.n + 1)
        }
    while checked < 520:
        code = codes[checked % len(codes)]
        chain = random_nontrivial_chain(rng, code, per_code[code])
        if not chain:
            continue
        assert is_nontrivial_union(code, chain)
        if not check_union_entropy(code, chain):
            violations += 1
        checked += 1
    ok = checked >= 500 and violations == 0
    _verdict(capsys, name, ok, f" ({checked} chains, {violations} violations)")
    assert checked >= 500
    assert violations == 0


def test_criterion_5_phi_rho_consistency(capsys):
    name = "criterion 5: phi/rho on square r=2 and general-bound sanity"
    start = time.perf_counter()
    sc3 = build_square_code(2, 3)
    sc4 = build_square_code(2, 4)
    phi_ok = (
        phi(sc3.code, 1, size_cap=3) == 3
        and phi(sc3.code, 2, size_cap=3) == 5
    )
    rho3 = rho(sc3.code, size_cap=3)
    rho4 = rho(sc4.code, size_cap=3)
    rho_ok = rho3 == s_value(3, 2) == 1 and rho4 == s_value(4, 2) == 2
    rng = Random(103)
    tested = [
        (sc3.code, rho3),
        (sc4.code, rho4),
        (repetition_code(), None),
        (single_parity_code(), None),
    ]
    field = GF2m(3)
    for _ in range(3):
        tested.append((random_code(rng, field, 7, 3), None))
    bound_ok = True
    for code, known_rho in tested:
        exact_rho = rho(code) if known_rho is None else known_rho
        if min_distance(code) > bound_general(code.n, code.M, 1, exact_rho):
            bound_ok = False
    elapsed = time.perf_counter() - start
    ok = phi_ok and rho_ok and bound_ok and elapsed < 5.0
    _verdict(capsys, name, ok, f" ({elapsed:.2f}s)")
    assert phi_ok
    assert rho_ok, (rho3, rho4)
    assert bound_ok
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_6_locality_and_tolerance(capsys):
    name = "criterion 6: locality r^(2) and repair tolerance 2"
    start = time.perf_counter()
    built = [
        build_square_code(2, 3),
        build_square_code(2, 4),
        build_square_code(3, 6),
        build_square_code(3, 9),
    ]
    locality_ok = all(verify_locality(sc.code, sc.r, 3) for sc in built)
    tolerance_ok = all(repair_tolerance(sc.code, sc.r) == 2 for sc in built)
    elapsed = time.perf_counter() - start
    ok = locality_ok and tolerance_ok and elapsed < 10.0
    _verdict(capsys, name, ok, f" ({elapsed:.2f}s)")
    assert locality_ok
    assert tolerance_ok
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"


def test_criterion_7_rank_lemma_property(capsys):
    name = "criterion 7: rank lemma on 1000 random admissible subsets"
    rng = Random(107)
    squares = [build_square_code(2, 4), build_square_code(2, 3),
               build_square_code(3, 9), build_square_code(3, 5)]
    violations = 0
    for trial in range(1000):
        sc = squares[trial % len(squares)]
        X = random_admissible_grid_subset(rng, sc.r, sc.M)
        if check_rank_lemma(sc, X) is not LemmaCheck.HOLDS:
            violations += 1
    ok = violations == 0
    _verdict(capsys, name, ok, f" ({violations} violations)")
    assert violations == 0


def test_criterion_8_degenerations(capsys):
    name = "criterion 8: lrc delta=2 degeneration and phi monotonicity"
    rng = Random(109)
    sweep_ok = True
    for _ in range(10_000):
        n = rng.randrange(1, 80)
        M = rng.randrange(1, n + 1)
        alpha = rng.randrange(1, 5)
        r = rng.randrange(1, 15)
        if bound_lrc(n, M, alpha, r, 2) != bound_locality_r(n, M, alpha, r):
            sweep_ok = False
    profiles = [
        phi_profile(build_square_code(2, 3).code, x_max=3, size_cap=3),
        phi_profile(build_square_code(2, 3).code, x_max=3),
        phi_profile(build_square_code(2, 4).code, x_max=3, size_cap=3),
        phi_profile(repetition_code(), x_max=2),
        phi_profile(single_parity_code(), x_max=1),
    ]
    field = GF2m(3)
    for _ in range(3):
        profiles.append(phi_profile(random_code(rng, field, 7, 3), x_max=2))
    mono_ok = all(
        all(p.phi[x + 1] >= p.phi[x] + 1 for x in range(len(p.phi) - 1))
        for p in profiles
    )
    ok = sweep_ok and mono_ok
    _verdict(capsys, name, ok)
    assert sweep_ok
    assert mono_ok


def test_criterion_9_repair_round_trip(capsys):
    name = "criterion 9: repair round-trip for all patterns of size <= 2"
    rng = Random(113)
    failures = 0
    trials = 0
    for r, M in ((2, 3), (3, 9)):
        sc = build_square_code(r, M)
        code = sc.code
        n = code.n
        messages = [
            tuple(rng.randrange(code.field.order) for _ in range(M))
            for _ in range(100)
        ]
        words = [code.encode(msg) for msg in messages]
        patterns = [(i,) for i in range(1, n + 1)]
        patterns += list(combinations(range(1, n + 1), 2))
        for pattern in patterns:
            plan = plan_repair(code, pattern, r)
            for word in words:
                erased = [
                    None if i + 1 in pattern else s for i, s in enumerate(word)
                ]
                if tuple(execute_repair(erased, plan)) != word:
                    failures += 1
                trials += 1
    ok = failures == 0
    _verdict(capsys, name, ok, f" ({trials} repairs, {failures} failures)")
    assert failures == 0

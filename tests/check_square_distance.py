"""Exact d and phi(1..2) of the square codes r = 4 and 5, against formulas.

``min_distance`` must equal the paper's bound n - M + 1 - s
(``bound_square``) and the grid-graph formula (``oracles.square_distance``),
and exact phi(1..2) from a fresh rank hierarchy must equal the grid-graph
``oracles.square_phi``.  A square code is a Moore code, so it is searched
on int points: its binary matroid B at r = 4, M = 5..7, and B's dual B*
at every M where n - k <= M + 1 (r = 4, M = 8..16 and r = 5, M =
10..25).  r = 5, M = 6..9 take the B side, on a matroid of rank 25, and
are left out.  Each r = 4, M = 8..13 code is checked again through a
column-scaled copy (``oracles.scaled_copy``), which is no Moore code and
runs the GF(2^m) engine, independent of B*, and both must give the same
values.  These instances take seconds each, too slow for the tier-1
suite, so the file is not a test module; CI runs it as its own step,
from the repository root:

    PYTHONPATH=src:tests python tests/check_square_distance.py

It prints one line per code and engine and exits 1 if any value differs.
"""

from __future__ import annotations

import sys
import time
from random import Random

from locrep import bound_square, build_square_code, min_distance
from locrep.linear_code import _RankHierarchy
from oracles import scaled_copy, square_distance, square_phi

# r -> the Ms whose square code is checked, and those also checked
# through a column-scaled copy
CASES = {4: (range(5, 17), range(8, 14)), 5: (range(10, 26), range(0))}


def main() -> int:
    failed = 0
    checked = 0
    start = time.perf_counter()
    rng = Random(211)
    for r, (Ms, scaled) in CASES.items():
        for M in Ms:
            square = build_square_code(r, M).code
            bound, grid = bound_square(square.n, M, r), square_distance(r, M)
            grid_phi = [square_phi(r, M, x) for x in (1, 2)]
            engines = [("binary", square)]
            if M in scaled:
                engines.append(("GF(2^m)", scaled_copy(square, rng)))
            for engine, code in engines:
                began = time.perf_counter()
                d = min_distance(code, search_cap=code.n)
                took = time.perf_counter() - began
                began = time.perf_counter()
                phi = _RankHierarchy(code).values(2)
                took_phi = time.perf_counter() - began
                ok = d == bound == grid and phi == grid_phi
                failed += not ok
                checked += 1
                print(f"r={r} M={M} {engine}: d={d} bound={bound} grid={grid} "
                      f"{took:.2f} s; phi={phi} grid={grid_phi} {took_phi:.2f} s "
                      f"{'ok' if ok else 'MISMATCH'}", flush=True)
    print(f"{checked - failed} of {checked} ok in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

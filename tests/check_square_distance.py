"""Exact d and phi(1..2) of the square codes r = 4, M = 8..13, against formulas.

``min_distance`` must equal the paper's bound n - M + 1 - s
(``bound_square``) and the grid-graph formula (``oracles.square_distance``),
and exact phi(1..2) from a fresh rank hierarchy must equal the grid-graph
``oracles.square_phi``.  A square code is a Moore code, so the generator
side searches its binary points; each code is checked again through a
column-scaled copy (``oracles.scaled_copy``), which is no Moore code and
runs the GF(2^m) engine, and both must give the same values.  These
instances take seconds each, too slow for the tier-1 suite, so the file
is not a test module; CI runs it as its own step, from the repository
root:

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

R = 4
MS = range(8, 14)


def main() -> int:
    failed = 0
    checked = 0
    start = time.perf_counter()
    rng = Random(211)
    for M in MS:
        square = build_square_code(R, M).code
        bound, grid = bound_square(square.n, M, R), square_distance(R, M)
        grid_phi = [square_phi(R, M, x) for x in (1, 2)]
        for engine, code in (("binary", square), ("GF(2^m)", scaled_copy(square, rng))):
            began = time.perf_counter()
            d = min_distance(code, search_cap=25)
            took = time.perf_counter() - began
            began = time.perf_counter()
            phi = _RankHierarchy(code).values(2)
            took_phi = time.perf_counter() - began
            ok = d == bound == grid and phi == grid_phi
            failed += not ok
            checked += 1
            print(f"r={R} M={M} {engine}: d={d} bound={bound} grid={grid} "
                  f"{took:.2f} s; phi={phi} grid={grid_phi} {took_phi:.2f} s "
                  f"{'ok' if ok else 'MISMATCH'}", flush=True)
    print(f"{checked - failed} of {checked} ok in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

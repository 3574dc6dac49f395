"""Exact d of the square codes r = 4, M = 8..13, against two independent formulas.

``min_distance`` must equal the paper's bound n - M + 1 - s
(``bound_square``) and the grid-graph formula (``oracles.square_distance``).
These instances take seconds each, too slow for the tier-1 suite, so the
file is not a test module; CI runs it as its own step, from the
repository root:

    PYTHONPATH=src:tests python tests/check_square_distance.py

It prints one line per code and exits 1 if any distance differs.
"""

from __future__ import annotations

import sys
import time

from locrep import bound_square, build_square_code, min_distance
from oracles import square_distance

R = 4
MS = range(8, 14)


def main() -> int:
    failed = 0
    start = time.perf_counter()
    for M in MS:
        code = build_square_code(R, M).code
        began = time.perf_counter()
        d = min_distance(code, search_cap=25)
        took = time.perf_counter() - began
        bound, grid = bound_square(code.n, M, R), square_distance(R, M)
        ok = d == bound == grid
        failed += not ok
        print(f"r={R} M={M}: d={d} bound={bound} grid={grid} "
              f"{took:.2f} s {'ok' if ok else 'MISMATCH'}", flush=True)
    print(f"{len(MS) - failed} of {len(MS)} ok in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

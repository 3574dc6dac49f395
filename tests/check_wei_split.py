"""Wei's split on codes of length 22 to 24, past tier-1's reach.

The check of ``tests/test_wei_split.py``: the numbers best[t] + 1 for
t < M, from the generator's largest flats, and phi(1..n-M), from the
parity-check code's, must be 1..n, each once.  Random codes over
GF(2), GF(2^9) and GF(2^4), and a GF(2^9) code with 16 of its 22
columns in a subspace of rank 3, take seconds each, too slow for the
tier-1 suite, so the file is not a test module; CI runs it as its own
step, from the repository root:

    PYTHONPATH=src:tests python tests/check_wei_split.py

It prints one line per code and exits 1 if any split fails.
"""

from __future__ import annotations

import sys
import time
from random import Random

from locrep import GF2m
from oracles import random_code
from test_wei_split import planted_code, wei_numbers


def _cases():
    """(name, code) of the length-22 to 24 split checks."""
    rng = Random(227)
    yield "GF(2) n=22 M=10", random_code(rng, GF2m(1), 22, 10, require_repairable=False)
    yield "GF(2^9) n=22 M=11", random_code(rng, GF2m(9), 22, 11, require_repairable=False)
    yield "GF(2^4) n=24 M=12", random_code(rng, GF2m(4), 24, 12, require_repairable=False)
    yield "GF(2^9) n=22 M=7, 16 columns of rank 3", planted_code(
        rng, GF2m(9), 22, 7, flat=(16, 3))


def main() -> int:
    failed = 0
    checked = 0
    start = time.perf_counter()
    for name, code in _cases():
        began = time.perf_counter()
        numbers = wei_numbers(code)
        took = time.perf_counter() - began
        ok = sorted(numbers) == list(range(1, code.n + 1))
        failed += not ok
        checked += 1
        print(f"{name}: best+1 {numbers[:code.M]} phi {numbers[code.M:]} "
              f"{took:.2f} s {'ok' if ok else 'SPLIT FAILS'}", flush=True)
    print(f"{checked - failed} of {checked} ok in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Closed-form upper bounds on minimum distance for locality families.

Every bound has one form, d <= n - ceil(M/alpha) + 1 - rho, written
once in :func:`bound_general`; each locality concept only supplies a
floor on rho: (ceil(M/(r*alpha)) - 1)(delta - 1) for locality r with
delta - 1 repair sets, mu for disjoint repair sets and s for square
codes.  All evaluators are pure integer functions of the code
parameters; none of them inspects a concrete code.  Ceilings are
computed exactly as (a + b - 1) // b, never through floats.
"""

from __future__ import annotations

import io
import csv
from bisect import bisect
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError
from .gf2m import _check_int, _is_int


def _ceil_div(a: int, b: int) -> int:
    return (a + b - 1) // b


def _require_positive(**params: int) -> None:
    for name, value in params.items():
        if not _is_int(value) or value < 1:  # build the message only on failure
            _check_int(value, 1, f"parameter {name}")


def _require_scalar(theorem: str, alpha: int) -> None:
    # the integer 1: alpha=1.0 or True is a usage error, not a scalar code
    _check_int(alpha, None, "parameter alpha")
    if alpha != 1:
        raise DomainError(f"the {theorem} bound applies to scalar codes (alpha=1)")


@dataclass(frozen=True)
class BoundReport:
    """An evaluated bound with the inputs and intermediates that produced it."""

    theorem: str
    params: dict
    value: int
    intermediate: dict


def bound_general(n: int, M: int, alpha: int, rho: int) -> int:
    """d <= n - ceil(M/alpha) + 1 - rho, for any code with that rho."""
    _require_positive(n=n, M=M, alpha=alpha)
    _check_int(rho, 0, "parameter rho")
    return n - _ceil_div(M, alpha) + 1 - rho


def _rho_floor(M: int, alpha: int, r: int, delta: int = 2) -> int:
    """The rho guaranteed by locality r with delta - 1 repair sets.

    (ceil(M/(r*alpha)) - 1)(delta - 1); delta = 2 is plain locality r.
    """
    return (_ceil_div(M, r * alpha) - 1) * (delta - 1)


def bound_locality_r(n: int, M: int, alpha: int, r: int) -> int:
    """d <= n - ceil(M/alpha) - ceil(M/(r*alpha)) + 2 for all-symbol locality r.

    The lrc bound at delta = 2: rho >= ceil(M/(r*alpha)) - 1, the
    guaranteed floor when every coordinate has a regenerating set of
    size at most r+1.
    """
    return bound_lrc(n, M, alpha, r, 2)


def bound_lrc(n: int, M: int, alpha: int, r: int, delta: int) -> int:
    """d <= n - ceil(M/alpha) + 1 - (ceil(M/(r*alpha)) - 1)(delta - 1)."""
    _require_positive(n=n, M=M, alpha=alpha, r=r)
    _check_int(delta, 2, "parameter delta")
    return bound_general(n, M, alpha, _rho_floor(M, alpha, r, delta))


def rdc_mu(M: int, r: int, delta: int) -> int:
    """mu = ceil(((M-1)(delta-1)+1) / ((r-1)(delta-1)+1)) - 1."""
    _require_positive(M=M)
    _check_int(r, None, "parameter r")
    if r < 2:
        raise DomainError(
            f"disjoint-repair-set bound needs r >= 2 (denominator "
            f"(r-1)(delta-1)+1 degenerates at r={r})"
        )
    _check_int(delta, 2, "parameter delta")
    return _mu(M, r, delta)


def _mu(M: int, r: int, delta: int) -> int:
    num = (M - 1) * (delta - 1) + 1
    den = (r - 1) * (delta - 1) + 1
    return _ceil_div(num, den) - 1


def bound_rdc(n: int, M: int, r: int, delta: int) -> int:
    """d <= n - M + 1 - mu for scalar codes with disjoint repair sets."""
    _require_positive(n=n)
    return bound_general(n, M, 1, rdc_mu(M, r, delta))


def g_function(x: int, r: int) -> int:
    """x*r - x^2/4 for even x, x*r - (x^2-1)/4 for odd x; defined on [0, 2r+1]."""
    _require_positive(r=r)
    _check_int(x, None, "parameter x")
    if not 0 <= x <= 2 * r + 1:
        raise DomainError(f"g is defined on 0..{2 * r + 1}, got x={x}")
    if x % 2 == 0:
        return x * r - x * x // 4
    return x * r - (x * x - 1) // 4


def _check_square_shape(
    r: int, M: Optional[int] = None, n: Optional[int] = None, what: str = "square code"
) -> None:
    """The square-code shape, the domain of :func:`bound_square`.

    r an integer >= 2 and, where given, n = (r+1)^2 and M an integer in
    r+1..r^2.  ``what`` starts every message.
    """
    for name, value in (("r", r), ("n", n), ("M", M)):
        # n and M are optional, r is not
        if not _is_int(value) and (name == "r" or value is not None):
            raise DomainError(
                f"{what} parameter {name} must be an integer, got {value!r}"
            )
    if r < 2:
        raise DomainError(f"{what} needs r >= 2, got {r}")
    if n is not None and n != (r + 1) ** 2:
        raise DomainError(f"{what} r={r} needs n={(r + 1) ** 2}, got n={n}")
    if M is not None and not r + 1 <= M <= r * r:
        raise DomainError(f"{what} r={r} needs M in {r + 1}..{r * r}, got M={M}")


def s_value(M: int, r: int) -> int:
    """Largest x in [0, 2r+1] with g(x) < M, for r+1 <= M <= r^2."""
    _check_square_shape(r, M)
    return _s(M, r)


def _s(M: int, r: int) -> int:
    # g(x) inline: x*r - floor(x^2/4) is the same value for odd and even
    # x; g never falls on [0, 2r+1], so s is found by bisection
    return bisect(range(2 * r + 2), M - 1, key=lambda x: x * r - x * x // 4) - 1


def bound_square(n: int, M: int, r: int) -> int:
    """d <= n - M + 1 - s for square codes (n must be (r+1)^2)."""
    _check_square_shape(r, M, n)
    return bound_general(n, M, 1, _s(M, r))


def compare_table(r: int) -> list[tuple[int, int, int]]:
    """Rows (M, square bound, disjoint-repair-set bound at delta=3).

    Covers the whole square-code dimension range M = r+1 .. r^2, so the
    table has r^2 - r rows.
    """
    _check_square_shape(r)
    n = (r + 1) ** 2
    # every row's n, M, r and delta are valid: the two bounds are the
    # general bound at their floors, which need no checks
    return [
        (M, bound_general(n, M, 1, _s(M, r)), bound_general(n, M, 1, _mu(M, r, 3)))
        for M in range(r + 1, r * r + 1)
    ]


def compare_table_csv(r: int) -> str:
    """CSV text of :func:`compare_table` with header M,bound_square,bound_rdc."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["M", "bound_square", "bound_rdc"])
    writer.writerows(compare_table(r))
    return buf.getvalue()


# theorem -> (its bound, the parameters it takes besides n, M and
# alpha, whether it holds only for scalar codes, the name of its rho
# floor, and that floor from (M, alpha, *parameters)).  The general
# bound's floor is its parameter rho, reported as the floor only.
_THEOREMS = {
    "general": (bound_general, ("rho",), False, "rho", lambda M, alpha, rho: rho),
    "locality_r": (bound_locality_r, ("r",), False, "rho_lower", _rho_floor),
    "lrc": (bound_lrc, ("r", "delta"), False, "rho_lower", _rho_floor),
    "rdc": (bound_rdc, ("r", "delta"), True, "mu", lambda M, alpha, r, d: _mu(M, r, d)),
    "square": (bound_square, ("r",), True, "s", lambda M, alpha, r: _s(M, r)),
}
THEOREMS = tuple(_THEOREMS)


def bound_report(
    theorem: str,
    n: Optional[int] = None,
    M: Optional[int] = None,
    alpha: int = 1,
    r: Optional[int] = None,
    delta: Optional[int] = None,
    rho: Optional[int] = None,
) -> BoundReport:
    """Evaluate one named bound, collecting parameters and intermediates.

    Any of r, delta and rho that the theorem does not take is a
    :class:`DomainError`, not silently dropped.
    """
    if theorem not in THEOREMS:
        raise DomainError(f"unknown bound {theorem!r}; expected one of {THEOREMS}")
    missing = [name for name, value in (("n", n), ("M", M)) if value is None]
    if missing:
        raise DomainError(f"bound {theorem!r} requires parameters {missing}")
    bound, names, scalar, floor_name, floor = _THEOREMS[theorem]
    given = {"r": r, "delta": delta, "rho": rho}
    values = [given.pop(name) for name in names]
    if None in values:
        raise DomainError(f"the {theorem} bound requires {' and '.join(names)}")
    extra = [name for name, value in given.items() if value is not None]
    if extra:
        raise DomainError(f"the {theorem} bound does not take {' or '.join(extra)}")
    params = {"n": n, "M": M}
    if scalar:
        _require_scalar(theorem, alpha)
        value = bound(n, M, *values)
    else:
        params["alpha"] = alpha
        value = bound(n, M, alpha, *values)
    params.update((name, v) for name, v in zip(names, values) if name != floor_name)
    return BoundReport(theorem, params, value, {floor_name: floor(M, alpha, *values)})

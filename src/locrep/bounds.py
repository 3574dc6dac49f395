"""Closed-form upper bounds on minimum distance for locality families.

All evaluators are pure integer functions of the code parameters; none
of them inspects a concrete code.  Ceilings are computed exactly as
(a + b - 1) // b, never through floats.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError

THEOREMS = ("general", "locality_r", "lrc", "rdc", "square")


def _ceil_div(a: int, b: int) -> int:
    return (a + b - 1) // b


def _require_positive(**params: int) -> None:
    for name, value in params.items():
        if value < 1:
            raise DomainError(f"parameter {name} must be >= 1, got {value}")


@dataclass(frozen=True)
class BoundReport:
    """An evaluated bound with the inputs and intermediates that produced it."""

    theorem: str
    params: dict
    value: int
    intermediate: dict

    def to_json_dict(self) -> dict:
        out = {"theorem": self.theorem, "value": self.value}
        out.update(self.params)
        out.update(self.intermediate)
        return out


def bound_general(n: int, M: int, alpha: int, rho: int) -> int:
    """d <= n - ceil(M/alpha) + 1 - rho, for any code with that rho."""
    _require_positive(n=n, M=M, alpha=alpha)
    if rho < 0:
        raise DomainError(f"parameter rho must be >= 0, got {rho}")
    return n - _ceil_div(M, alpha) + 1 - rho


def bound_locality_r(n: int, M: int, alpha: int, r: int) -> int:
    """d <= n - ceil(M/alpha) - ceil(M/(r*alpha)) + 2 for all-symbol locality r.

    Uses rho >= ceil(M/(r*alpha)) - 1, the guaranteed floor when every
    coordinate has a regenerating set of size at most r+1.
    """
    _require_positive(n=n, M=M, alpha=alpha, r=r)
    rho_floor = _ceil_div(M, r * alpha) - 1
    return bound_general(n, M, alpha, rho_floor)


def bound_lrc(n: int, M: int, alpha: int, r: int, delta: int) -> int:
    """d <= n - ceil(M/alpha) + 1 - (ceil(M/(r*alpha)) - 1)(delta - 1)."""
    _require_positive(n=n, M=M, alpha=alpha, r=r)
    if delta < 2:
        raise DomainError(f"parameter delta must be >= 2, got {delta}")
    rho_floor = (_ceil_div(M, r * alpha) - 1) * (delta - 1)
    return bound_general(n, M, alpha, rho_floor)


def rdc_mu(M: int, r: int, delta: int) -> int:
    """mu = ceil(((M-1)(delta-1)+1) / ((r-1)(delta-1)+1)) - 1."""
    _require_positive(M=M)
    if r < 2:
        raise DomainError(
            f"disjoint-repair-set bound needs r >= 2 (denominator "
            f"(r-1)(delta-1)+1 degenerates at r={r})"
        )
    if delta < 2:
        raise DomainError(f"parameter delta must be >= 2, got {delta}")
    num = (M - 1) * (delta - 1) + 1
    den = (r - 1) * (delta - 1) + 1
    return _ceil_div(num, den) - 1


def bound_rdc(n: int, M: int, r: int, delta: int) -> int:
    """d <= n - M + 1 - mu for scalar codes with disjoint repair sets."""
    _require_positive(n=n)
    return n - M + 1 - rdc_mu(M, r, delta)


def g_function(x: int, r: int) -> int:
    """x*r - x^2/4 for even x, x*r - (x^2-1)/4 for odd x; defined on [0, 2r+1]."""
    _require_positive(r=r)
    if not 0 <= x <= 2 * r + 1:
        raise DomainError(f"g is defined on 0..{2 * r + 1}, got x={x}")
    if x % 2 == 0:
        return x * r - x * x // 4
    return x * r - (x * x - 1) // 4


def s_value(M: int, r: int) -> int:
    """Largest x in [0, 2r+1] with g(x) < M, for r+1 <= M <= r^2."""
    _require_positive(r=r)
    if not r + 1 <= M <= r * r:
        raise DomainError(
            f"square-code dimension must lie in {r + 1}..{r * r}, got {M}"
        )
    best = 0
    for x in range(2 * r + 2):
        if g_function(x, r) < M:
            best = x
    return best


def bound_square(n: int, M: int, r: int) -> int:
    """d <= n - M + 1 - s for square codes (n must be (r+1)^2)."""
    _require_positive(r=r)
    if n != (r + 1) ** 2:
        raise DomainError(
            f"square codes have length (r+1)^2 = {(r + 1) ** 2}, got n={n}"
        )
    return n - M + 1 - s_value(M, r)


def compare_table(r: int) -> list[tuple[int, int, int]]:
    """Rows (M, square bound, disjoint-repair-set bound at delta=3).

    Covers the whole square-code dimension range M = r+1 .. r^2, so the
    table has r^2 - r rows.
    """
    if r < 2:
        raise DomainError(f"comparison table needs r >= 2, got {r}")
    n = (r + 1) ** 2
    return [
        (M, bound_square(n, M, r), bound_rdc(n, M, r, 3))
        for M in range(r + 1, r * r + 1)
    ]


def compare_table_csv(r: int) -> str:
    """CSV text of :func:`compare_table` with header M,bound_square,bound_rdc."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["M", "bound_square", "bound_rdc"])
    writer.writerows(compare_table(r))
    return buf.getvalue()


def bound_report(
    theorem: str,
    n: Optional[int] = None,
    M: Optional[int] = None,
    alpha: int = 1,
    r: Optional[int] = None,
    delta: Optional[int] = None,
    rho: Optional[int] = None,
) -> BoundReport:
    """Evaluate one named bound, collecting parameters and intermediates."""
    if theorem not in THEOREMS:
        raise DomainError(f"unknown bound {theorem!r}; expected one of {THEOREMS}")
    missing = [
        name
        for name, value in (("n", n), ("M", M))
        if value is None
    ]
    if missing:
        raise DomainError(f"bound {theorem!r} requires parameters {missing}")

    if theorem == "general":
        if rho is None:
            raise DomainError("the general bound requires rho")
        value = bound_general(n, M, alpha, rho)
        return BoundReport(
            theorem, {"n": n, "M": M, "alpha": alpha}, value, {"rho": rho}
        )
    if theorem == "locality_r":
        if r is None:
            raise DomainError("the locality_r bound requires r")
        value = bound_locality_r(n, M, alpha, r)
        rho_floor = _ceil_div(M, r * alpha) - 1
        return BoundReport(
            theorem,
            {"n": n, "M": M, "alpha": alpha, "r": r},
            value,
            {"rho_lower": rho_floor},
        )
    if theorem == "lrc":
        if r is None or delta is None:
            raise DomainError("the lrc bound requires r and delta")
        value = bound_lrc(n, M, alpha, r, delta)
        rho_floor = (_ceil_div(M, r * alpha) - 1) * (delta - 1)
        return BoundReport(
            theorem,
            {"n": n, "M": M, "alpha": alpha, "r": r, "delta": delta},
            value,
            {"rho_lower": rho_floor},
        )
    if theorem == "rdc":
        if r is None or delta is None:
            raise DomainError("the rdc bound requires r and delta")
        if alpha != 1:
            raise DomainError("the rdc bound applies to scalar codes (alpha=1)")
        value = bound_rdc(n, M, r, delta)
        return BoundReport(
            theorem,
            {"n": n, "M": M, "r": r, "delta": delta},
            value,
            {"mu": rdc_mu(M, r, delta)},
        )
    # square
    if r is None:
        raise DomainError("the square bound requires r")
    if alpha != 1:
        raise DomainError("the square bound applies to scalar codes (alpha=1)")
    value = bound_square(n, M, r)
    return BoundReport(
        theorem, {"n": n, "M": M, "r": r}, value, {"s": s_value(M, r)}
    )

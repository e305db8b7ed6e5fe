"""Closed-form burning-number bounds, evaluated in exact integer arithmetic.

Every ceiling/floor of a square-root expression is rewritten as an integer
threshold search (smallest k whose square clears the radicand), so bound
values are exact at perfect-square boundaries where naive floating point
silently rounds the wrong way.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt


def ceil_sqrt(x: int) -> int:
    """Smallest k >= 0 with k*k >= x."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    s = isqrt(x)
    return s if s * s == x else s + 1


def margin(total: int) -> int:
    """Largest m >= 0 with m*(m+1)+1 <= total.

    Equivalently the smallest m with (m+1)*(m+2) >= total, and equal to
    ceil(sqrt(total + 1/4) - 3/2); the subtrahend inside the refined bound.
    """
    if total < 1:
        raise ValueError("total must be positive")
    m = max(0, isqrt(total) - 2)
    while (m + 1) * (m + 2) < total:
        m += 1
    return m


def refined_bound(n: int, n2: int) -> int:
    """ceil_sqrt(n + n2 - margin(n + n2)): the bound this package constructs
    burning sequences to, for a tree of order n with n2 degree-2 vertices."""
    if n < 1 or n2 < 0 or n2 > n:
        raise ValueError("need n >= 1 and 0 <= n2 <= n")
    total = n + n2
    return ceil_sqrt(total - margin(total))


def conjecture_guaranteed(n: int, n2: int) -> bool:
    """True iff n2 <= isqrt(n - 1), in which case the refined bound is
    at most ceil_sqrt(n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return n2 <= isqrt(n - 1)


def murakami_bound(total: int) -> int:
    """ceil_sqrt(n + n2): the degree-2-augmented conjecture bound."""
    return ceil_sqrt(total)


def bessy_bound(total: int) -> int:
    """ceil(sqrt(n + n2 + 1/4) + 1/2) == smallest k with k*(k-1) >= n + n2."""
    k = max(1, isqrt(total))
    while k * (k - 1) < total:
        k += 1
    return k


def land_lu_bound(n: int) -> int:
    """ceil((-3 + sqrt(24n + 33)) / 4) == smallest k with (4k+3)^2 >= 24n + 33."""
    radicand = 24 * n + 33
    k = max(0, (isqrt(radicand) - 3) // 4 - 1)
    while (4 * k + 3) ** 2 < radicand:
        k += 1
    return k


def bastide_floor(n: int) -> int:
    """floor(sqrt(4n/3) + 1): integer floor of the real-valued bound."""
    return isqrt(4 * n // 3) + 1


def bonato_2016_bound(n: int) -> int:
    """2*ceil_sqrt(n) - 1: the original general upper bound."""
    return 2 * ceil_sqrt(n) - 1


@dataclass(frozen=True)
class BoundTable:
    """All closed-form bounds for one (n, n2) pair."""

    n: int
    n2: int
    m: int
    conjecture: int
    refined: int
    murakami: int
    bessy: int
    land_lu: int
    bastide_floor: int
    bonato_2016: int
    conjecture_guaranteed: bool

    def as_dict(self) -> dict:
        return dict(vars(self))


def bound_table(n: int, n2: int) -> BoundTable:
    if n < 1 or n2 < 0 or n2 > n:
        raise ValueError("need n >= 1 and 0 <= n2 <= n")
    total = n + n2
    return BoundTable(
        n=n,
        n2=n2,
        m=margin(total),
        conjecture=ceil_sqrt(n),
        refined=refined_bound(n, n2),
        murakami=murakami_bound(total),
        bessy=bessy_bound(total),
        land_lu=land_lu_bound(n),
        bastide_floor=bastide_floor(n),
        bonato_2016=bonato_2016_bound(n),
        conjecture_guaranteed=conjecture_guaranteed(n, n2),
    )

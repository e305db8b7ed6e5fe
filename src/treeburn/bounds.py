"""Closed-form burning-number bounds, evaluated in exact integer arithmetic.

Every ceiling/floor of a square-root expression is one `math.isqrt`
identity, read off the integer inequality that defines the value, so bound
values are exact at perfect-square boundaries and near 2**53, where naive
floating point silently rounds the wrong way.
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
    """Largest m >= 0 with m*(m+1)+1 <= total, equal to ceil(sqrt(total +
    1/4) - 3/2): the subtrahend inside the refined bound.  The inequality is
    (2m+1)**2 <= 4*total - 3, so 2m+1 <= isqrt(4*total - 3)."""
    if total < 1:
        raise ValueError("total must be positive")
    return (isqrt(4 * total - 3) - 1) // 2


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
    """ceil(sqrt(n + n2 + 1/4) + 1/2) == smallest k with k*(k-1) >= n + n2,
    that is (2k-1)**2 >= 4(n + n2) + 1, so 2k-1 >= ceil_sqrt(4(n + n2) + 1)."""
    return (ceil_sqrt(4 * total + 1) + 2) // 2


def land_lu_bound(n: int) -> int:
    """ceil((-3 + sqrt(24n + 33)) / 4) == smallest k with (4k+3)**2 >=
    24n + 33, that is 4k+3 >= ceil_sqrt(24n + 33)."""
    return ceil_sqrt(24 * n + 33) // 4


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

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeburn.bounds import (
    bastide_floor,
    bessy_bound,
    bonato_2016_bound,
    bound_table,
    ceil_sqrt,
    conjecture_guaranteed,
    land_lu_bound,
    margin,
    murakami_bound,
    refined_bound,
)


# Each value meets its defining inequality at k and fails it at k - 1.
def assert_margin_identity(total):
    m = margin(total)
    assert m * (m + 1) + 1 <= total < (m + 1) * (m + 2) + 1


def assert_bessy_identity(total):
    k = bessy_bound(total)
    assert k >= 1 and k * (k - 1) >= total
    assert k == 1 or total > (k - 1) * (k - 2)


def assert_land_lu_identity(n):
    k = land_lu_bound(n)
    assert (4 * k + 3) ** 2 >= 24 * n + 33 > (4 * k - 1) ** 2


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: margin(0), "total must be positive"),
        (lambda: refined_bound(0, 0), "need n >= 1 and 0 <= n2 <= n"),
        (lambda: conjecture_guaranteed(0, 0), "need n >= 1"),
    ],
    ids=["margin", "refined_bound", "conjecture_guaranteed"],
)
def test_bounds_refuse_an_empty_tree(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value).startswith(message)


class TestCeilSqrt:
    def test_values(self):
        assert ceil_sqrt(0) == 0
        assert ceil_sqrt(9) == 3
        assert ceil_sqrt(10) == 4

    def test_square_boundaries(self):
        for k in range(10_001):
            assert ceil_sqrt(k * k) == k
            assert ceil_sqrt(k * k + 1) == k + 1

    def test_negative(self):
        with pytest.raises(ValueError):
            ceil_sqrt(-1)


class TestMargin:
    def test_values(self):
        assert margin(1) == 0
        assert margin(16) == 3
        assert margin(50) == 6
        for total in range(1, 1_000_001):
            assert_margin_identity(total)

    @given(st.integers(1, 10**9))
    def test_against_exact_rational_definition(self, total):
        # independent route: smallest k >= 0 with k + 3/2 >= sqrt(total + 1/4)
        m = margin(total)
        assert (Fraction(m) + Fraction(3, 2)) ** 2 >= total + Fraction(1, 4)
        if m > 0:
            assert (Fraction(m - 1) + Fraction(3, 2)) ** 2 < total + Fraction(1, 4)

    @given(st.integers(1, 10**18))
    def test_side_contract(self, total):
        assert_margin_identity(total)

    def test_float_evaluation_agrees_up_to_a_million(self):
        # regression list: values where ceil(sqrt(N + 0.25) - 1.5) in floats
        # disagrees with the exact integer evaluation; empty on this range
        disagreements = [
            total
            for total in range(1, 1_000_001)
            if max(0, math.ceil(math.sqrt(total + 0.25) - 1.5)) != margin(total)
        ]
        assert disagreements == []

    def test_float_evaluation_breaks_at_scale(self):
        # first-found counterexamples near 2**53; exact integers stay correct
        for total, wrong in [
            (9007198471906383, 94906260),
            (9007198661718907, 94906261),
        ]:
            assert max(0, math.ceil(math.sqrt(total + 0.25) - 1.5)) == wrong
            m = margin(total)
            assert m == wrong + 1
            assert m * (m + 1) + 1 <= total < (m + 1) * (m + 2) + 1

    def test_naive_ceil_sqrt_breaks_at_scale(self):
        x = 94906266**2 + 1
        assert math.ceil(math.sqrt(x)) == 94906266
        assert ceil_sqrt(x) == 94906267


class TestRefinedBound:
    def test_values(self):
        assert refined_bound(50, 0) == 7
        assert refined_bound(6, 0) == 3
        assert refined_bound(9, 7) == 4

    def test_beats_plain_square_root_at_50(self):
        assert refined_bound(50, 0) < ceil_sqrt(50) == 8

    @given(st.integers(1, 10**6), st.integers(0, 10**6))
    def test_never_exceeds_murakami(self, n, n2):
        n2 = min(n2, n)
        assert refined_bound(n, n2) <= murakami_bound(n + n2)


class TestConjectureGuaranteed:
    def test_values(self):
        assert conjecture_guaranteed(10, 3) is True
        assert conjecture_guaranteed(10, 4) is False
        assert conjecture_guaranteed(1, 0) is True

    @given(st.integers(2, 200_000))
    def test_implies_conjecture_bound(self, n):
        n2 = math.isqrt(n - 1)
        assert conjecture_guaranteed(n, n2)
        assert refined_bound(n, n2) <= ceil_sqrt(n)


class TestBoundTable:
    def test_row_n50(self):
        t = bound_table(50, 0)
        assert t.conjecture == 8
        assert t.refined == 7
        assert t.murakami == 8
        assert t.bessy == 8
        assert t.land_lu == 9
        assert t.bastide_floor == 9
        assert t.bonato_2016 == 15
        assert t.m == 6
        assert t.conjecture_guaranteed is True

    def test_row_n1(self):
        t = bound_table(1, 0)
        assert t.conjecture == 1
        assert t.refined == 1
        assert t.murakami == 1

    def test_row_n9(self):
        t = bound_table(9, 0)
        assert t.conjecture == 3
        assert t.murakami == 3
        assert t.refined == ceil_sqrt(9 - margin(9)) == 3

    BOUND_COLUMNS = (
        "conjecture", "refined", "murakami", "bessy",
        "land_lu", "bastide_floor", "bonato_2016",
    )

    def test_all_bounds_positive(self):
        for n in (1, 2, 3, 10, 99, 100):
            row = bound_table(n, 0).as_dict()
            assert all(row[k] >= 1 for k in self.BOUND_COLUMNS)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            bound_table(0, 0)
        with pytest.raises(ValueError):
            bound_table(3, 4)


class TestPriorBoundFormulas:
    def test_bessy_small(self):
        assert bessy_bound(1) == 2
        assert bessy_bound(2) == 2
        assert bessy_bound(3) == 3
        for total in range(1_000_001):
            assert_bessy_identity(total)

    def test_land_lu_small(self):
        assert land_lu_bound(1) == 2
        # spot-check against the real-valued formula on a range where floats
        # are exact
        for n in range(1, 5000):
            real = (-3 + math.sqrt(24 * n + 33)) / 4
            assert land_lu_bound(n) == math.ceil(real)
        for n in range(1_000_001):
            assert_land_lu_identity(n)

    @given(st.integers(0, 10**18))
    def test_identities_at_scale(self, x):
        assert_bessy_identity(x)
        assert_land_lu_identity(x)

    def test_bastide(self):
        assert bastide_floor(50) == 9
        assert bastide_floor(3) == 3

    def test_bonato(self):
        assert bonato_2016_bound(50) == 15
        assert bonato_2016_bound(1) == 1

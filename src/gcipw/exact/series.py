"""Truncated power series: univariate (PSeries) and v-graded bivariate
(Series2).

A Series2 holds a series in (u, v) by its first v-slices, each a PSeries
in u of its own length.  The partial-wave layer keeps slice j to u-degree
order - j, the entries a total-degree truncation at `order` keeps, and
only as many slices as the twist recursion reads.

A PSeries holds integer numerators over one positive denominator: the
coefficient of x^k is num[k] / den.  The denominator is not reduced, so
equal series may hold different (num, den) pairs.  Only the public
constructor `PSeries(coeffs)` takes rationals, since that is where
outside values enter; the package kernels build integer rows and wrap
them with `PSeries._raw`.  Every PSeries operation returns fresh lists, and
`coeffs` and `[k]` build Fractions only when asked.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Tuple

ZERO = Fraction(0)


def common_denominator(coeffs: List[Fraction]) -> Tuple[List[int], int]:
    """The integer numerators of `coeffs` over the lcm D of their
    denominators, and D."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


class PSeries:
    """Univariate truncated series sum_k (num[k] / den) x^k."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: List[Fraction]):
        self.num, self.den = common_denominator([Fraction(c) for c in coeffs])

    @classmethod
    def _raw(cls, num: List[int], den: int) -> "PSeries":
        """Wrap `num`, a fresh list of ints, over the positive int `den`."""
        s = object.__new__(cls)
        s.num = num
        s.den = den
        return s

    @property
    def coeffs(self) -> List[Fraction]:
        """The coefficients as Fractions, built on each access."""
        den = self.den
        return [Fraction(n, den) for n in self.num]

    @property
    def order(self) -> int:
        return len(self.num) - 1

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.num):
            return Fraction(self.num[k], self.den)
        return ZERO

    def shift(self, k: int) -> "PSeries":
        """Multiply by x^k (k may be negative if low coefficients vanish)."""
        if k >= 0:
            return PSeries._raw([0] * k + self.num, self.den)
        if any(self.num[:-k]):
            raise ValueError("shift would drop nonzero low-order coefficients")
        return PSeries._raw(self.num[-k:], self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __repr__(self):
        return f"PSeries({self.coeffs!r})"


def unit_row(m: int, order: int) -> List[int]:
    """The integer coefficients of (1 - x)^m to the given order, any integer m."""
    if m >= 0:
        return [(-1) ** a * math.comb(m, a) for a in range(order + 1)]
    return [math.comb(a - m - 1, a) for a in range(order + 1)]


Key = Tuple[int, int]


class Series2:
    """Bivariate series in (u, v) held by its first v-slices: slices[j] is
    the coefficient of v^j, a PSeries in u."""

    __slots__ = ("slices",)

    def __init__(self, slices: List[PSeries]):
        self.slices = list(slices)

    def __getitem__(self, key: Key) -> Fraction:
        i, j = key
        return self.slices[j][i] if 0 <= j < len(self.slices) else ZERO

    @property
    def coeffs(self) -> Dict[Key, Fraction]:
        """The nonzero coefficients, {(i, j): coefficient of u^i v^j}."""
        return {
            (i, j): c
            for j, sl in enumerate(self.slices)
            for i, c in enumerate(sl.coeffs)
            if c
        }

    def rows(self) -> Tuple[List[List[int]], int]:
        """The slices' numerators over their common denominator D, and D; a
        slice already over D gives its own list, which callers must not change."""
        den = math.lcm(*(sl.den for sl in self.slices))
        scale = lambda sl: sl.num if sl.den == den else [n * (den // sl.den) for n in sl.num]
        return [scale(sl) for sl in self.slices], den

    def is_zero(self) -> bool:
        return all(sl.is_zero() for sl in self.slices)

    def __repr__(self):
        return f"Series2({self.slices!r})"


def div_u_minus_v(num: Series2) -> Series2:
    """The exact quotient of a v-graded series by (u - v).

    (u - v) f = num reads f_j = (num_j + f_{j-1}) / u slice by slice, so
    quotient slice j is one u-degree shorter than slice j of num.  The
    slices are integer rows over the common denominator of num's slices,
    and each division by u must leave no remainder (ValueError otherwise),
    which makes (u - v) f = num hold exactly on every retained slice.
    """
    rows, den = num.rows()
    out: List[List[int]] = []
    for j, row in enumerate(rows):
        if out:
            row = [a + b for a, b in zip(row, out[-1])]
        if row and row[0]:
            raise ValueError(f"slice v^{j} leaves a remainder on division by u")
        out.append(row[1:])
    return Series2([PSeries._raw(row, den) for row in out])

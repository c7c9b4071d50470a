"""Truncated power series as integer numerators over one positive
denominator: univariate (PSeries) and v-graded bivariate (Series2).

PSeries(num, den) is sum_k (num[k] / den) x^k.  Series2(rows, den) is a
series in (u, v) held by its first v-slices: rows[j] holds the numerators
of the coefficient of v^j, a series in u, all over the one den.  The
partial-wave layer keeps slice j to u-degree order - j, the entries a
total-degree truncation at `order` keeps, and only as many slices as the
twist recursion reads.

The kernels build the integer rows themselves and hand over fresh lists.
No denominator is reduced, so equal series may hold different numerators;
`coeffs` builds Fractions only when asked.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Collection, Dict, List, Tuple

ZERO = Fraction(0)


def common_denominator(coeffs: Collection[Fraction]) -> Tuple[List[int], int]:
    """The integer numerators of `coeffs` (Fractions or ints) over the lcm
    D of their denominators, and D; ([], 1) for none.  The one place that
    clears denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


class PSeries:
    """Univariate truncated series sum_k (num[k] / den) x^k."""

    __slots__ = ("num", "den")

    def __init__(self, num: List[int], den: int):
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> List[Fraction]:
        """The coefficients as Fractions, built on each access."""
        den = self.den
        return [Fraction(n, den) for n in self.num]

    @property
    def order(self) -> int:
        return len(self.num) - 1

    def __repr__(self):
        return f"PSeries({self.num!r}, {self.den!r})"


def unit_row(m: int, order: int) -> List[int]:
    """The integer coefficients of (1 - x)^m to the given order, any integer m."""
    if m >= 0:
        return [(-1) ** a * math.comb(m, a) for a in range(order + 1)]
    return [math.comb(a - m - 1, a) for a in range(order + 1)]


Key = Tuple[int, int]


class Series2:
    """Bivariate series sum (rows[j][i] / den) u^i v^j."""

    __slots__ = ("rows", "den")

    def __init__(self, rows: List[List[int]], den: int):
        self.rows = rows
        self.den = den

    @property
    def coeffs(self) -> Dict[Key, Fraction]:
        """The nonzero coefficients, {(i, j): coefficient of u^i v^j}."""
        den = self.den
        return {
            (i, j): Fraction(n, den)
            for j, row in enumerate(self.rows)
            for i, n in enumerate(row)
            if n
        }

    def __repr__(self):
        return f"Series2({self.rows!r}, {self.den!r})"


def div_u_minus_v(num: Series2) -> Series2:
    """The exact quotient of a v-graded series by (u - v), over num's
    denominator.

    (u - v) f = num reads f_j = (num_j + f_{j-1}) / u row by row, so
    quotient row j is one u-degree shorter than row j of num.  Each
    division by u must leave no remainder (ValueError otherwise), which
    makes (u - v) f = num hold exactly on every retained slice.
    """
    out: List[List[int]] = []
    for j, row in enumerate(num.rows):
        if out:
            row = [a + b for a, b in zip(row, out[-1])]
        if row and row[0]:
            raise ValueError(f"slice v^{j} leaves a remainder on division by u")
        out.append(row[1:])
    return Series2(out, num.den)

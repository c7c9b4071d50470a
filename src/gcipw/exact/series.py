"""Truncated power series: univariate (PSeries) and v-graded bivariate
(Series2).

A Series2 holds a series in (u, v) by its first v-slices, each a PSeries
in u of its own length.  The partial-wave layer keeps slice j to u-degree
order - j, the entries a total-degree truncation at `order` keeps, and
only as many slices as the twist recursion reads.  All coefficients are
exact Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Tuple


class PSeries:
    """Univariate truncated series: coeffs[k] is the coefficient of x^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: List[Fraction]):
        self.coeffs = [Fraction(c) for c in coeffs]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def truncate(self, order: int) -> "PSeries":
        c = self.coeffs[: order + 1]
        c += [Fraction(0)] * (order + 1 - len(c))
        return PSeries(c)

    def __add__(self, other: "PSeries") -> "PSeries":
        n = min(self.order, other.order)
        return PSeries([self[k] + other[k] for k in range(n + 1)])

    def __sub__(self, other: "PSeries") -> "PSeries":
        n = min(self.order, other.order)
        return PSeries([self[k] - other[k] for k in range(n + 1)])

    def __mul__(self, other):
        if isinstance(other, PSeries):
            n = min(self.order, other.order)
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs[: n + 1]):
                if not a:
                    continue
                for j in range(0, n + 1 - i):
                    b = other[j]
                    if b:
                        out[i + j] += a * b
            return PSeries(out)
        return PSeries([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __neg__(self):
        return PSeries([-c for c in self.coeffs])

    def shift(self, k: int) -> "PSeries":
        """Multiply by x^k (k may be negative if low coefficients vanish)."""
        if k >= 0:
            return PSeries([Fraction(0)] * k + self.coeffs)
        if any(self.coeffs[i] for i in range(min(-k, len(self.coeffs)))):
            raise ValueError("shift would drop nonzero low-order coefficients")
        return PSeries(self.coeffs[-k:])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return f"PSeries({self.coeffs!r})"


def unit_power(m: int, order: int) -> PSeries:
    """(1 - x)^m to the given order, for any integer m."""
    if m >= 0:
        return PSeries([Fraction((-1) ** a * math.comb(m, a)) for a in range(order + 1)])
    return PSeries([Fraction(math.comb(a - m - 1, a)) for a in range(order + 1)])


Key = Tuple[int, int]


class Series2:
    """Bivariate series in (u, v) held by its first v-slices: slices[j] is
    the coefficient of v^j, a PSeries in u."""

    __slots__ = ("slices",)

    def __init__(self, slices: List[PSeries]):
        self.slices = list(slices)

    def __getitem__(self, key: Key) -> Fraction:
        i, j = key
        return self.slices[j][i] if 0 <= j < len(self.slices) else Fraction(0)

    @property
    def coeffs(self) -> Dict[Key, Fraction]:
        """The nonzero coefficients, {(i, j): coefficient of u^i v^j}."""
        return {
            (i, j): c
            for j, sl in enumerate(self.slices)
            for i, c in enumerate(sl.coeffs)
            if c
        }

    def is_zero(self) -> bool:
        return all(sl.is_zero() for sl in self.slices)

    def __repr__(self):
        return f"Series2({self.slices!r})"


def div_u_minus_v(num: Series2) -> Series2:
    """The exact quotient of a v-graded series by (u - v).

    (u - v) f = num reads f_j = (num_j + f_{j-1}) / u slice by slice, so
    quotient slice j is one u-degree shorter than slice j of num.  Each
    division by u must leave no remainder (PSeries.shift raises ValueError
    otherwise), which makes (u - v) f = num hold exactly on every retained
    slice.
    """
    out: List[PSeries] = []
    for nj in num.slices:
        out.append((nj + out[-1] if out else nj).shift(-1))
    return Series2(out)

"""Truncated power series: univariate (PSeries) and v-graded bivariate
(Series2).

A Series2 holds a series in (u, v) by its first v-slices, each a PSeries
in u of its own length.  The partial-wave layer keeps slice j to u-degree
order - j, the entries a total-degree truncation at `order` keeps, and
only as many slices as the twist recursion reads.

All coefficients are exact Fractions.  Only the public constructor
`PSeries(coeffs)` coerces its input, since that is where outside values
enter.  The operations below, and the package kernels that build fresh
Fraction lists themselves (`chiral_slices`, `hypergeom_series` and the
f_k numerators of `twist_extract`), wrap their results with
`PSeries._trusted`, without re-wrapping each coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Tuple

ZERO = Fraction(0)


class PSeries:
    """Univariate truncated series: coeffs[k] is the coefficient of x^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: List[Fraction]):
        self.coeffs = [Fraction(c) for c in coeffs]

    @classmethod
    def _trusted(cls, coeffs: List[Fraction]) -> "PSeries":
        """Wrap `coeffs`, a fresh list of Fractions, without coercion."""
        s = object.__new__(cls)
        s.coeffs = coeffs
        return s

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO

    def truncate(self, order: int) -> "PSeries":
        c = self.coeffs[: order + 1]
        c += [ZERO] * (order + 1 - len(c))
        return PSeries._trusted(c)

    def __add__(self, other: "PSeries") -> "PSeries":
        return PSeries._trusted([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "PSeries") -> "PSeries":
        return PSeries._trusted([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, PSeries):
            n = min(self.order, other.order)
            out = [ZERO] * (n + 1)
            rhs = other.coeffs
            for i, a in enumerate(self.coeffs[: n + 1]):
                if not a:
                    continue
                for j in range(0, n + 1 - i):
                    b = rhs[j]
                    if b:
                        out[i + j] += a * b
            return PSeries._trusted(out)
        k = Fraction(other)
        return PSeries._trusted([c * k for c in self.coeffs])

    __rmul__ = __mul__

    def __neg__(self):
        return PSeries._trusted([-c for c in self.coeffs])

    def shift(self, k: int) -> "PSeries":
        """Multiply by x^k (k may be negative if low coefficients vanish)."""
        if k >= 0:
            return PSeries._trusted([ZERO] * k + self.coeffs)
        if any(self.coeffs[: -k]):
            raise ValueError("shift would drop nonzero low-order coefficients")
        return PSeries._trusted(self.coeffs[-k:])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __repr__(self):
        return f"PSeries({self.coeffs!r})"


def common_denominator(coeffs: List[Fraction]) -> Tuple[List[int], int]:
    """The integer numerators of `coeffs` over the lcm D of their
    denominators, and D."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


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

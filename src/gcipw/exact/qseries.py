"""q-series with half-integer exponents and exact rational coefficients.

Exponents are stored doubled: the key k stands for q^(k/2), so integer
powers use even keys and half-odd powers use odd keys.  This lets the
Weyl-type series q^(n+1/2) coexist with ordinary q-expansions without a
fraction type in the keys.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Dict


class QSeries:
    """Truncated series sum_k c_k q^(k/2), with keys in [min_exp, max_exp]."""

    __slots__ = ("coeffs", "min_exp", "max_exp")

    def __init__(self, coeffs: Dict[int, Fraction], max_exp: int, min_exp: int = 0):
        self.min_exp = min_exp
        self.max_exp = max_exp
        self.coeffs: Dict[int, Fraction] = {
            k: c if isinstance(c, Fraction) else Fraction(c)
            for k, c in coeffs.items()
            if c and min_exp <= k <= max_exp
        }

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs.get(k, Fraction(0))

    def coeff_q(self, n: Fraction) -> Fraction:
        """Coefficient of q^n for half-integer n."""
        k = Fraction(n) * 2
        if k.denominator != 1:
            raise ValueError("exponent must be a half-integer")
        return self[int(k)]

    def is_integral(self) -> bool:
        """True iff only integer powers of q appear."""
        return all(k % 2 == 0 for k in self.coeffs)

    def _merge(self, other: "QSeries", sign: int) -> "QSeries":
        max_exp = min(self.max_exp, other.max_exp)
        min_exp = max(self.min_exp, other.min_exp)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, 0) + (c if sign > 0 else -c)
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return QSeries(out, max_exp, min_exp)

    def __add__(self, other: "QSeries") -> "QSeries":
        return self._merge(other, 1)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self._merge(other, -1)

    def __neg__(self) -> "QSeries":
        return QSeries({k: -c for k, c in self.coeffs.items()}, self.max_exp, self.min_exp)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            max_exp = min(self.max_exp, other.max_exp)
            out: Dict[int, Fraction] = {}
            for k1, c1 in self.coeffs.items():
                for k2, c2 in other.coeffs.items():
                    k = k1 + k2
                    if k > max_exp:
                        continue
                    s = out.get(k, Fraction(0)) + c1 * c2
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
            return QSeries(out, max_exp)
        return QSeries(
            {k: c * other for k, c in self.coeffs.items()}, self.max_exp, self.min_exp
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        max_exp = min(self.max_exp, other.max_exp)
        a = {k: c for k, c in self.coeffs.items() if k <= max_exp}
        b = {k: c for k, c in other.coeffs.items() if k <= max_exp}
        return a == b

    def __hash__(self):
        raise TypeError("QSeries is unhashable")

    def truncate(self, max_exp: int) -> "QSeries":
        return QSeries(self.coeffs, max_exp, self.min_exp)

    def halfperiod_substitute(self) -> "QSeries":
        """Apply q -> -q^(1/2) exactly.

        Requires an integer-exponent input; the image of q^n is
        (-1)^n q^(n/2), so doubled keys 2n map to keys n.
        """
        if not self.is_integral():
            raise ValueError("q -> -q^(1/2) needs an integer-exponent series")
        out = {}
        for k, c in self.coeffs.items():
            n = k // 2
            out[n] = c if n % 2 == 0 else -c
        return QSeries(out, self.max_exp // 2, self.min_exp // 2)

    def eval(self, tau: complex) -> tuple[complex, float]:
        """Numeric value at q = exp(2*pi*i*tau), with a truncation bound.

        Returns (value, bound) where bound estimates the magnitude of the
        omitted tail as |last kept scale| * r / (1 - r) with r = |q^(1/2)|.
        """
        if tau.imag <= 0:
            raise ValueError("need Im tau > 0")
        qh = cmath.exp(1j * cmath.pi * tau)  # q^(1/2)
        r = abs(qh)
        total = 0j
        for k in sorted(self.coeffs):
            total += complex(self.coeffs[k]) * qh**k
        # tail estimate: coefficients of the series used here grow at most
        # polynomially, so a geometric majorant anchored at the window edge
        # is a safe order-of-magnitude bound
        edge = max((abs(complex(c)) for c in self.coeffs.values()), default=1.0)
        bound = edge * r ** (self.max_exp + 1) / (1 - r) if r < 1 else float("inf")
        return total, bound

    def __repr__(self):
        items = {Fraction(k, 2): c for k, c in sorted(self.coeffs.items())}
        return f"QSeries({items!r}, max q^{Fraction(self.max_exp, 2)})"


def lambert_series(const, terms, sign: int, max_exp: int) -> QSeries:
    """const + sum w q^(n2/2) / (1 - sign q^(n2/2)) over the pairs (n2, w).

    n2 is the doubled exponent of a term's leading power and w an integer
    weight.  The coefficients are summed as integers over the window (w at
    key n2, sign*w at 2*n2, ...).
    """
    acc: Dict[int, int] = {}
    for n2, w in terms:
        if n2 <= 0:
            raise ValueError("need a positive leading exponent")
        for k in range(n2, max_exp + 1, n2):
            acc[k] = acc.get(k, 0) + w
            w *= sign
    return QSeries({**acc, 0: const}, max_exp)

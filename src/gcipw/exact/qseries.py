"""q-series with half-integer exponents and exact rational coefficients.

Exponents are stored doubled: the key k stands for q^(k/2), so integer
powers use even keys and half-odd powers use odd keys.  This lets the
Weyl-type series q^(n+1/2) coexist with ordinary q-expansions without a
fraction type in the keys.

Coefficients are integer numerators over one positive denominator: the
coefficient at key k is num[k] / den, keys ascending; `num` is read-only
after construction.  The denominator is not reduced, so equal series may
hold different (num, den) pairs.  All arithmetic stays on integers;
`coeffs` and `[k]` build Fractions only when asked.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, islice
from numbers import Rational
from typing import Dict


class QSeries:
    """Truncated series sum_k (num[k] / den) q^(k/2), with keys in [0, max_exp]."""

    __slots__ = ("num", "den", "max_exp", "_keys", "_peaks")

    def __init__(self, num: Dict[int, int], den: int, max_exp: int):
        if den <= 0:
            raise ValueError("need a positive denominator")
        self.num: Dict[int, int] = {k: n for k, n in sorted(num.items()) if n and 0 <= k <= max_exp}
        self.den = den
        self.max_exp = max_exp
        self._keys = self._peaks = None

    def prefix(self, max_exp: int) -> "QSeries":
        """The keys up to max_exp as a fresh series.  The ascending key list
        and the largest |num[k]| up to each key are found once per series
        and cut with it, the peaks for `tail_bound`."""
        if self._peaks is None:
            self._keys = list(self.num)
            self._peaks = list(accumulate(map(abs, self.num.values()), max))
        n = bisect_right(self._keys, max_exp)
        cut = QSeries({}, self.den, max_exp)
        cut.num = dict(islice(self.num.items(), n))
        cut._keys, cut._peaks = self._keys[:n], self._peaks[:n]
        return cut

    @property
    def coeffs(self) -> Dict[int, Fraction]:
        """The nonzero coefficients as Fractions, built on each access."""
        return {k: Fraction(n, self.den) for k, n in self.num.items()}

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self.num.get(k, 0), self.den)

    def _merge(self, other: "QSeries", sign: int) -> "QSeries":
        max_exp = min(self.max_exp, other.max_exp)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = {k: n * fa for k, n in self.num.items() if k <= max_exp}
        for k, n in other.num.items():
            if k <= max_exp:
                out[k] = out.get(k, 0) + n * fb
        return QSeries(out, den, max_exp)

    def __add__(self, other: "QSeries") -> "QSeries":
        return self._merge(other, 1)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self._merge(other, -1)

    def __neg__(self) -> "QSeries":
        return QSeries({k: -n for k, n in self.num.items()}, self.den, self.max_exp)

    def __mul__(self, other):
        """Scale by an int or Fraction."""
        if not isinstance(other, Rational):
            return NotImplemented
        a = other.numerator
        return QSeries(
            {k: n * a for k, n in self.num.items()}, self.den * other.denominator, self.max_exp
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        max_exp = min(self.max_exp, other.max_exp)
        a = {k: n * other.den for k, n in self.num.items() if k <= max_exp}
        b = {k: n * self.den for k, n in other.num.items() if k <= max_exp}
        return a == b

    def halfperiod_substitute(self) -> "QSeries":
        """Apply q -> -q^(1/2) exactly.

        Requires an integer-exponent input; the image of q^n is
        (-1)^n q^(n/2), so doubled keys 2n map to keys n.
        """
        if any(k % 2 for k in self.num):
            raise ValueError("q -> -q^(1/2) needs an integer-exponent series")
        out = {k // 2: -n if k % 4 else n for k, n in self.num.items()}
        return QSeries(out, self.den, self.max_exp // 2)

    def eval(self, tau: complex) -> tuple[complex, float]:
        """Numeric value at q = exp(2*pi*i*tau), with its `tail_bound`.

        Each num[k] / den is one correctly rounded integer division, the
        same float as float(Fraction); ValueError, naming the key, if one
        it reads is past the float range.

        The keys are summed in ascending order up to the first whose power
        qh**k (qh = q^(1/2)) is exactly zero; the terms after it would
        leave the sum unchanged.  Above k = 100, CPython forms qh**k as
        pow(|qh|, k) times a phase, which does not grow with k, so every
        later power is zero too.  At k <= 100 it multiplies repeated
        squares instead: a zero there needs |qh|^k, and so |qh|^100, to be
        about the smallest float 2^-1074 or less, so |qh| < 2^-10, and each
        later power is at least 2^10 times smaller, too small for any of
        the four float products of a complex product to round away from
        zero.  Each skipped term
        is then a finite coefficient times a signed zero, and adding a
        signed zero changes no component of the sum, which starts at +0
        and so is never -0.
        """
        qh = _half_nome(tau)
        num, den = self.num, self.den
        total = 0j
        try:
            for k in num:
                power = qh**k
                if not power:
                    break
                total += (num[k] / den) * power
        except OverflowError:  # only the division can overflow
            raise ValueError(f"the coefficient at key {k} is past the float range") from None
        return total, self._tail(abs(qh))

    def tail_bound(self, tau: complex) -> float:
        """The bound `eval` returns at tau, without summing the series.

        It estimates the magnitude of the omitted tail as (largest
        |coefficient| in the window) * r^(max_exp+1) / (1 - r) with
        r = |q^(1/2)|; inf if r rounds to 1 or that coefficient is past
        the float range.
        """
        return self._tail(abs(_half_nome(tau)))

    def _tail(self, r: float) -> float:
        # coefficients of the series used here grow at most polynomially,
        # so a geometric majorant scaled by the largest kept coefficient
        # is a safe order-of-magnitude bound; a `prefix` cut carries its peaks
        peaks = self._peaks or [max(map(abs, self.num.values()), default=self.den)]
        try:
            edge = peaks[-1] / self.den
        except OverflowError:
            return float("inf")
        return edge * r ** (self.max_exp + 1) / (1 - r) if r < 1 else float("inf")

    def __repr__(self):
        items = {Fraction(k, 2): c for k, c in sorted(self.coeffs.items())}
        return f"QSeries({items!r}, max q^{Fraction(self.max_exp, 2)})"


def _half_nome(tau: complex) -> complex:
    """q^(1/2) = exp(pi*i*tau); ValueError unless Im tau > 0."""
    if tau.imag <= 0:
        raise ValueError("need Im tau > 0")
    return cmath.exp(1j * cmath.pi * tau)


def lambert_series(const, terms, sign: int, max_exp: int) -> QSeries:
    """const + sum w q^(n2/2) / (1 - sign q^(n2/2)) over the pairs (n2, w).

    n2 is the doubled exponent of a term's leading power, w an integer
    weight and sign +1 or -1; const is an int or Fraction.  The coefficients are summed as
    integers over the window (w at key n2, sign*w at 2*n2, ...) and put
    over const's denominator.
    """
    acc = [0] * (max(max_exp, 0) + 1)
    for n2, w in terms:
        if n2 <= 0:
            raise ValueError("need a positive leading exponent")
        if sign > 0:
            for k in range(n2, max_exp + 1, n2):
                acc[k] += w
        else:  # w at the odd multiples of n2, -w at the even ones
            for k in range(n2, max_exp + 1, 2 * n2):
                acc[k] += w
            for k in range(2 * n2, max_exp + 1, 2 * n2):
                acc[k] -= w
    den = const.denominator
    acc[0] = const.numerator
    acc[1:] = [c * den for c in acc[1:]]
    return QSeries(dict(enumerate(acc)), den, max_exp)

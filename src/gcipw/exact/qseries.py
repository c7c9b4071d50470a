"""q-series with half-integer exponents and exact rational coefficients.

Exponents are stored doubled: the key k stands for q^(k/2), so integer
powers use even keys and half-odd powers use odd keys.  This lets the
Weyl-type series q^(n+1/2) coexist with ordinary q-expansions without a
fraction type in the keys.

Coefficients are integer numerators over one positive denominator: the
coefficient at key k is num[k] / den.  A series holds its nonzero keys
ascending, their numerators and the running peak of |numerator| as
immutable tuples, and a window length n: the first n keys are its own.
`prefix` shares the tuples and bisects for its n, so a cut copies nothing;
`num` and `coeffs` build a fresh dict on each access.  The denominator is
not reduced, so equal series may hold different (num, den) pairs.  All
arithmetic stays on integers; `coeffs` and `[k]` build Fractions only
when asked.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, islice
from numbers import Rational
from typing import Dict, Sequence


class QSeries:
    """Truncated series sum_k (num[k] / den) q^(k/2), with keys in [0, max_exp]."""

    __slots__ = ("den", "max_exp", "_keys", "_nums", "_peaks", "_n")

    def __init__(self, num: Dict[int, int], den: int, max_exp: int):
        if den <= 0:
            raise ValueError("need a positive denominator")
        self._keys = tuple(sorted(k for k, n in num.items() if n and 0 <= k <= max_exp))
        self._nums = tuple(map(num.__getitem__, self._keys))
        self._peaks = tuple(accumulate(map(abs, self._nums), max))
        self._n = len(self._keys)
        self.den = den
        self.max_exp = max_exp

    def prefix(self, max_exp: int) -> "QSeries":
        """The keys up to max_exp, cut by one bisection and sharing the tuples;
        never past self.max_exp, beyond which the coefficients are unknown."""
        cut = QSeries.__new__(QSeries)
        cut._keys, cut._nums, cut._peaks, cut.den = self._keys, self._nums, self._peaks, self.den
        cut.max_exp = min(max_exp, self.max_exp)
        cut._n = bisect_right(self._keys, cut.max_exp, 0, self._n)
        return cut

    def _items(self):  # the window's (key, numerator) pairs, keys ascending
        return zip(islice(self._keys, self._n), self._nums)

    @property
    def num(self) -> Dict[int, int]:
        """The nonzero numerators by key, built on each access."""
        return dict(self._items())

    @property
    def coeffs(self) -> Dict[int, Fraction]:
        """The nonzero coefficients as Fractions, built on each access."""
        return {k: Fraction(n, self.den) for k, n in self._items()}

    def __getitem__(self, k: int) -> Fraction:
        i = bisect_left(self._keys, k, 0, self._n)
        return Fraction(self._nums[i] if i < self._n and self._keys[i] == k else 0, self.den)

    def _merge(self, other: "QSeries", sign: int) -> "QSeries":
        max_exp = min(self.max_exp, other.max_exp)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = {k: n * fa for k, n in self._items() if k <= max_exp}
        for k, n in other._items():
            if k <= max_exp:
                out[k] = out.get(k, 0) + n * fb
        return QSeries(out, den, max_exp)

    def __add__(self, other: "QSeries") -> "QSeries":
        return self._merge(other, 1)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self._merge(other, -1)

    def __neg__(self) -> "QSeries":
        return QSeries({k: -n for k, n in self._items()}, self.den, self.max_exp)

    def __mul__(self, other):
        """Scale by an int or Fraction."""
        if not isinstance(other, Rational):
            return NotImplemented
        a = other.numerator
        return QSeries(
            {k: n * a for k, n in self._items()}, self.den * other.denominator, self.max_exp
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        max_exp = min(self.max_exp, other.max_exp)
        a = {k: n * other.den for k, n in self._items() if k <= max_exp}
        b = {k: n * self.den for k, n in other._items() if k <= max_exp}
        return a == b

    def halfperiod_substitute(self) -> "QSeries":
        """Apply q -> -q^(1/2) exactly.

        Requires an integer-exponent input; the image of q^n is
        (-1)^n q^(n/2), so doubled keys 2n map to keys n.
        """
        if any(k % 2 for k in islice(self._keys, self._n)):
            raise ValueError("q -> -q^(1/2) needs an integer-exponent series")
        out = {k // 2: -n if k % 4 else n for k, n in self._items()}
        return QSeries(out, self.den, self.max_exp // 2)

    def eval(self, tau: complex) -> tuple[complex, float]:
        """Numeric value at q = exp(2*pi*i*tau), with its `tail_bound`.

        Each num[k] / den is one correctly rounded integer division, the
        same float as float(Fraction); ValueError, naming the key, if one
        it reads is past the float range.

        The keys are summed in ascending order, and the sum stops before
        the first key k at which either

        * `settled` holds for the running sum and the majorant
          peak * |qh**k| (qh = q^(1/2), peak the largest |coefficient| in
          the window): twice the majorant is below a quarter ulp of each
          component of the sum.  Every later term is a coefficient of at
          most peak times a power of modulus at most |qh|^k, so none can
          change the sum; the factor 2 covers the rounding of qh**k and of
          the product.  A component that is 0.0 never licenses this stop.
          The running peaks are found once, with the tuples.  If the peak
          is past the float range the majorant is inf and never stops the
          sum, so the ValueError for the key still fires when the sum
          reaches it; or

        * the power qh**k is exactly zero.  Above k = 100, CPython forms
          qh**k as pow(|qh|, k) times a phase, which does not grow with k,
          so every later power is zero too.  At k <= 100 it multiplies
          repeated squares instead: a zero there needs |qh|^k, and so
          |qh|^100, to be about the smallest float 2^-1074 or less, so
          |qh| < 2^-10, and each later power is at least 2^10 times
          smaller, too small for any of the four float products of a
          complex product to round away from zero.  Each skipped term is
          then a finite coefficient times a signed zero, and adding a
          signed zero changes no component of the sum, which starts at +0
          and so is never -0.  This stop is the one left where a component
          of the sum is 0.0, as at pure-imaginary tau for a real series.

        Either way the float sum is the one the full loop over every key
        gives, bit for bit.
        """
        qh = _half_nome(tau)
        nums, den = self._nums, self.den
        edge = self._edge()
        total = 0j
        try:
            for i, k in enumerate(islice(self._keys, self._n)):
                power = qh**k
                if not power or settled((total,), edge * abs(power)):
                    break
                total += (nums[i] / den) * power
        except OverflowError:  # only the division can overflow
            raise ValueError(f"the coefficient at key {k} is past the float range") from None
        return total, self._tail(abs(qh), edge)

    def tail_bound(self, tau: complex) -> float:
        """The bound `eval` returns at tau, without summing the series.

        It estimates the magnitude of the omitted tail as (largest
        |coefficient| in the window) * r^(max_exp+1) / (1 - r) with
        r = |q^(1/2)|; inf if r rounds to 1 or that coefficient is past
        the float range.
        """
        return self._tail(abs(_half_nome(tau)), self._edge())

    def _edge(self) -> float:
        """The largest |coefficient| in the window (1 if it is empty), inf
        past the float range."""
        if not self._n:
            return 1.0
        try:
            return self._peaks[self._n - 1] / self.den
        except OverflowError:
            return float("inf")

    def _tail(self, r: float, edge: float) -> float:
        # coefficients of the series used here grow at most polynomially,
        # so a geometric majorant scaled by the largest kept coefficient
        # is a safe order-of-magnitude bound
        if r >= 1 or edge == float("inf"):
            return float("inf")
        return edge * r ** (self.max_exp + 1) / (1 - r)

    def __repr__(self):
        items = {Fraction(k, 2): c for k, c in sorted(self.coeffs.items())}
        return f"QSeries({items!r}, max q^{Fraction(self.max_exp, 2)})"


def _half_nome(tau: complex) -> complex:
    """q^(1/2) = exp(pi*i*tau); ValueError unless Im tau > 0."""
    if tau.imag <= 0:
        raise ValueError("need Im tau > 0")
    return cmath.exp(1j * cmath.pi * tau)


def settled(totals: Sequence[complex], majorant: float) -> bool:
    """Whether float sums may stop: True when no term whose exact modulus
    is at most majorant can change any of the float totals.

    Twice the majorant must be below a quarter ulp of each component of
    each total.  The factor 2 covers the rounding of the float term against
    its exact value.  A float t with |t| < ulp(x)/4 leaves x + t rounding
    to x: the floats next to x lie at least ulp(x)/2 away, the half being
    the spacing just below a power of two.  So the total is unchanged, and
    if the majorant bounds every term still to come, the total stays fixed
    through all of them and the sum may stop here, bit for bit.  A
    component that is 0.0 (or subnormal) has ulp(x)/4 == 0 and never
    licenses a stop, since a signed zero or a tiny term could still move
    it; an inf or nan majorant never does either.
    """
    bound = 2 * majorant
    for total in totals:
        if not (bound < math.ulp(total.real) / 4 and bound < math.ulp(total.imag) / 4):
            return False
    return True


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
        for k in range(n2, max_exp + 1, n2):
            acc[k] += w
            w *= sign
    den = const.denominator
    acc[0] = const.numerator
    acc[1:] = [c * den for c in acc[1:]]
    return QSeries(dict(enumerate(acc)), den, max_exp)

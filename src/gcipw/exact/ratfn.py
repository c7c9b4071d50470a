"""Rational functions num/den over sparse polynomials, with a monomial
denominator.

Globally conformal invariant correlators have poles only where a squared
interval vanishes, so every function of the cross-ratios handled here is a
polynomial over a monomial c s^a t^b; a denominator of two or more terms
raises ValueError.  Normalization is joint content reduction plus a
positive denominator coefficient, and the operations divide the common
monomial out of their results, so num and den share no monomial factor
there.  Equality is decided by cross-multiplication.  The maps are
evaluation at a rational point and partial derivatives.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .mpoly import MPoly, cancel_monomial


def _joint_content(*polys: MPoly) -> Fraction:
    """gcd of all numerators over lcm of all denominators across the polys."""
    num_g = 0
    den_l = 1
    for p in polys:
        for c in p.coefficients():
            num_g = gcd(num_g, c.numerator)
            den_l = den_l * c.denominator // gcd(den_l, c.denominator)
    if num_g == 0:
        return Fraction(1)
    return Fraction(num_g, den_l)


class RatFn:
    """Polynomial over a monomial in a fixed number of variables.  The
    constructor keeps num and den up to content and sign; the operations
    divide the common monomial out of their results, so chains keep their
    degrees low."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly | None = None):
        if den is None:
            den = MPoly.const(num.arity, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.arity != den.arity:
            raise ValueError("arity mismatch between num and den")
        if len(den.coefficients()) != 1:
            raise ValueError(f"denominator {den!r} is not a monomial")
        if num.is_zero():
            den = MPoly.const(num.arity, 1)
        else:
            c = _joint_content(num, den)
            if c != 1:
                num = num.map_coeff(lambda x: x / c)
                den = den.map_coeff(lambda x: x / c)
            if next(iter(den.coefficients())) < 0:
                num, den = -num, -den
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, arity: int, c) -> "RatFn":
        return cls(MPoly.const(arity, Fraction(c)))

    @classmethod
    def var(cls, arity: int, i: int) -> "RatFn":
        return cls(MPoly.var(arity, i))

    @property
    def arity(self) -> int:
        return self.num.arity

    # -- field operations -------------------------------------------------

    def _coerce(self, other) -> "RatFn":
        if isinstance(other, RatFn):
            if other.arity != self.arity:
                raise ValueError("arity mismatch")
            return other
        if isinstance(other, MPoly):
            return RatFn(other)
        return RatFn.const(self.arity, other)

    def __add__(self, other):
        other = self._coerce(other)
        return RatFn(*cancel_monomial(
            self.num * other.den + other.num * self.den, self.den * other.den
        ))

    __radd__ = __add__

    def __neg__(self):
        return RatFn(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFn(*cancel_monomial(self.num * other.num, self.den * other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFn(*cancel_monomial(self.num * other.den, self.den * other.num))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        return RatFn(self.num**n, self.den**n)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_poly(self) -> MPoly:
        """num/den as a polynomial; ValueError if the monomial den does not
        divide num."""
        num, den = cancel_monomial(self.num, self.den)
        if den.total_degree() != 0:
            raise ValueError(f"not a polynomial: {den!r} does not divide the numerator")
        (c,) = den.coefficients()
        return num if c == 1 else num.map_coeff(lambda x: x / c)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MPoly)):
            other = self._coerce(other)
        if not isinstance(other, RatFn):
            return NotImplemented
        if other.arity != self.arity:
            raise ValueError("arity mismatch")
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RatFn is unhashable (equality is cross-multiplicative)")

    # -- maps ----------------------------------------------------------------

    def eval(self, point: Sequence[Fraction]) -> Fraction:
        d = self.den.eval(point)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.eval(point) / d

    def deriv(self, i: int) -> "RatFn":
        """Partial derivative via the quotient rule."""
        return RatFn(*cancel_monomial(
            self.num.deriv(i) * self.den - self.num * self.den.deriv(i),
            self.den * self.den,
        ))

    def __repr__(self):
        return f"RatFn({self.num!r} / {self.den!r})"

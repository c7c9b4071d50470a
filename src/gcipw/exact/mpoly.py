"""Sparse multivariate polynomials with exact coefficients.

Coefficients are Fractions by default but any ring type works (e.g. plain
ints), as long as it supports +, -, *, == 0 and bool().
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Sequence, Tuple

Expo = Tuple[int, ...]


class MPoly:
    """Polynomial in `arity` variables, stored as {exponent tuple: coeff}.

    Zero coefficients are never stored; all exponent tuples have length
    equal to the arity and nonnegative entries.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Dict[Expo, object] | None = None):
        self.arity = arity
        self.terms: Dict[Expo, object] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != arity:
                    raise ValueError(f"exponent {e} has wrong length for arity {arity}")
                if any(k < 0 for k in e):
                    raise ValueError(f"negative exponent in {e}")
                if c:
                    self.terms[tuple(e)] = c

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "MPoly":
        return cls(arity)

    @classmethod
    def const(cls, arity: int, c) -> "MPoly":
        c = Fraction(c) if isinstance(c, int) else c
        p = cls(arity)
        if c:
            p.terms[(0,) * arity] = c
        return p

    @classmethod
    def var(cls, arity: int, i: int) -> "MPoly":
        if not 0 <= i < arity:
            raise ValueError(f"variable index {i} out of range")
        e = [0] * arity
        e[i] = 1
        return cls(arity, {tuple(e): Fraction(1)})

    @classmethod
    def variables(cls, arity: int) -> Sequence["MPoly"]:
        return [cls.var(arity, i) for i in range(arity)]

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            if other.arity != self.arity:
                raise ValueError("arity mismatch")
            return other
        return MPoly.const(self.arity, other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return MPoly(self.arity, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            if not other:
                return MPoly(self.arity)
            return MPoly(self.arity, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        terms: Dict[Expo, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return MPoly(self.arity, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.const(self.arity, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def coeff(self, e: Expo):
        return self.terms.get(tuple(e), Fraction(0))

    def constant_term(self):
        return self.terms.get((0,) * self.arity, Fraction(0))

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.arity == other.arity and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return (self - other).is_zero()
        return NotImplemented

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    # -- maps ----------------------------------------------------------

    def eval(self, point: Sequence):
        """Evaluate at a point (entries in any commutative ring)."""
        if len(point) != self.arity:
            raise ValueError("point has wrong length")
        total = Fraction(0)
        for e, c in self.terms.items():
            m = c
            for x, k in zip(point, e):
                for _ in range(k):
                    m = m * x
            total = total + m
        return total

    def subs_poly(self, images: Sequence["MPoly"]) -> "MPoly":
        """Substitute a polynomial for each variable."""
        if len(images) != self.arity:
            raise ValueError("need one image per variable")
        arity = images[0].arity
        total = MPoly.zero(arity)
        for e, c in self.terms.items():
            m = MPoly.const(arity, c)
            for img, k in zip(images, e):
                if k:
                    m = m * img**k
            total = total + m
        return total

    def deriv(self, i: int) -> "MPoly":
        terms: Dict[Expo, object] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            terms[tuple(e2)] = c * e[i]
        return MPoly(self.arity, terms)

    def map_coeff(self, f) -> "MPoly":
        terms = {}
        for e, c in self.terms.items():
            v = f(c)
            if v:
                terms[e] = v
        return MPoly(self.arity, terms)

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        parts = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"x{i}^{k}" if k > 1 else f"x{i}" for i, k in enumerate(e) if k
            )
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "MPoly(" + " + ".join(parts) + ")"


def divide_exact(num: MPoly, den: MPoly, main_var: int = 0) -> MPoly:
    """Exact division num/den for den monic-leading in `main_var`.

    Raises ValueError if the division leaves a remainder.
    """
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    ddeg = den.degree_in(main_var)
    lead = {
        e: c for e, c in den.terms.items() if e[main_var] == ddeg
    }
    if len(lead) != 1:
        raise ValueError("divisor leading form in main_var is not a monomial")
    (le, lc), = lead.items()
    rem = num
    quo = MPoly.zero(num.arity)
    while not rem.is_zero():
        rdeg = rem.degree_in(main_var)
        if rdeg < ddeg:
            raise ValueError("inexact polynomial division")
        cand = {e: c for e, c in rem.terms.items() if e[main_var] == rdeg}
        # peel one leading term of the remainder per pass
        e, c = next(iter(cand.items()))
        qe = tuple(a - b for a, b in zip(e, le))
        if any(k < 0 for k in qe):
            raise ValueError("inexact polynomial division")
        qt = MPoly(num.arity, {qe: c / lc})
        quo = quo + qt
        rem = rem - qt * den
    return quo

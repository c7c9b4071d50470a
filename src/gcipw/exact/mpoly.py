"""Sparse multivariate polynomials with exact coefficients.

Coefficients are Fractions by default but any ring type works (e.g. plain
ints), as long as it supports +, -, *, == 0 and bool().

Invariant: no stored coefficient is zero, and every exponent is a tuple of
length `arity` with nonnegative entries.  Only the public constructor
`MPoly(arity, terms)` checks it, since that is where outside input enters;
the ring operations and maps below build terms that satisfy it by
construction and wrap them with `MPoly._trusted`, without re-checking.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Dict, Sequence, Tuple

Expo = Tuple[int, ...]


class MPoly:
    """Polynomial in `arity` variables, stored as {exponent tuple: coeff}."""

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

    @classmethod
    def _trusted(cls, arity: int, terms: Dict[Expo, object]) -> "MPoly":
        """Wrap `terms`, which already satisfy the invariant, without checks."""
        p = object.__new__(cls)
        p.arity = arity
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "MPoly":
        return cls._trusted(arity, {})

    @classmethod
    def const(cls, arity: int, c) -> "MPoly":
        c = Fraction(c) if isinstance(c, int) else c
        return cls._trusted(arity, {(0,) * arity: c} if c else {})

    @classmethod
    def var(cls, arity: int, i: int) -> "MPoly":
        if not 0 <= i < arity:
            raise ValueError(f"variable index {i} out of range")
        e = [0] * arity
        e[i] = 1
        return cls._trusted(arity, {tuple(e): Fraction(1)})

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

    def _combine(self, other, op) -> "MPoly":
        """self op other for op in (add, sub), in one pass over other."""
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = op(terms.get(e, 0), c)
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return MPoly._trusted(self.arity, terms)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._trusted(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return self._coerce(other)._combine(self, sub)

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            terms = {e: v for e, c in self.terms.items() if (v := c * other)}
            return MPoly._trusted(self.arity, terms)
        other = self._coerce(other)
        terms: Dict[Expo, object] = {}
        get = terms.get
        others = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in others:
                e = tuple(map(add, e1, e2))
                terms[e] = get(e, 0) + c1 * c2
        return MPoly._trusted(self.arity, {e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """Repeated squaring from the base itself, so the coefficient ring
        is kept (int coefficients stay int); p ** 0 is the constant 1."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return MPoly.const(self.arity, 1)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

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
        """Substitute a polynomial for each variable.

        Each power images[i] ** k is formed once per call, and every scaled
        monomial image is added into one dict.  Integer coefficients of self
        enter as Fractions, as constants do in `const`.
        """
        if len(images) != self.arity:
            raise ValueError("need one image per variable")
        arity = images[0].arity
        if any(g.arity != arity for g in images):
            raise ValueError("images have mixed arity")
        one = MPoly._trusted(arity, {(0,) * arity: 1})
        powers = [[one, g] for g in images]
        terms: Dict[Expo, object] = {}
        get = terms.get
        for e, c in self.terms.items():
            if isinstance(c, int):
                c = Fraction(c)
            m = None
            for ps, k in zip(powers, e):
                if k:
                    while len(ps) <= k:
                        ps.append(ps[-1] * ps[1])
                    m = ps[k] if m is None else m * ps[k]
            for e2, v in (one if m is None else m).terms.items():
                terms[e2] = get(e2, 0) + c * v
        return MPoly._trusted(arity, {e: c for e, c in terms.items() if c})

    def deriv(self, i: int) -> "MPoly":
        terms: Dict[Expo, object] = {}
        for e, c in self.terms.items():
            k = e[i]
            if k and (v := c * k):
                terms[e[:i] + (k - 1,) + e[i + 1 :]] = v
        return MPoly._trusted(self.arity, terms)

    def map_coeff(self, f) -> "MPoly":
        terms = {e: v for e, c in self.terms.items() if (v := f(c))}
        return MPoly._trusted(self.arity, terms)

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

"""Quaternions a + b i + c j + d k over any commutative coefficient ring.

The slash matrices slash(z) = z4 + z.Q with Q_j = -i sigma_j realize the
quaternion z4 + z1 i + z2 j + z3 k: the 2x2 matrix product is the Hamilton
product, the matrix trace is 2 Re, and the matrix transpose flips the sign
of the j part (sigma_2 is the only antisymmetric Pauli matrix).
"""

from __future__ import annotations

from functools import reduce
from operator import mul
from typing import Sequence


class Quaternion:
    """Components (a, b, c, d) in any ring with +, - and *: Fractions for
    numeric traces, int-coefficient MPoly for symbolic ones."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __add__(self, o: "Quaternion") -> "Quaternion":
        return Quaternion(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, o: "Quaternion") -> "Quaternion":
        return self + -o

    def __iter__(self):
        return iter((self.a, self.b, self.c, self.d))

    def __mul__(self, o) -> "Quaternion":
        """Hamilton product with a quaternion; componentwise with a scalar."""
        if not isinstance(o, Quaternion):
            return Quaternion(self.a * o, self.b * o, self.c * o, self.d * o)
        a, b, c, d = self.a, self.b, self.c, self.d
        return Quaternion(
            a * o.a - b * o.b - c * o.c - d * o.d,
            a * o.b + b * o.a + c * o.d - d * o.c,
            a * o.c - b * o.d + c * o.a + d * o.b,
            a * o.d + b * o.c - c * o.b + d * o.a,
        )

    def trace_mul(self, o: "Quaternion"):
        """2 Re(self o), the matrix trace of the product, without forming it."""
        return 2 * (self.a * o.a - self.b * o.b - self.c * o.c - self.d * o.d)

    def __eq__(self, o):
        if not isinstance(o, Quaternion):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)

    def __repr__(self):
        return f"Quaternion({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


def slash(z: Sequence, conjugate: bool = False) -> Quaternion:
    """z-slash (or its quaternion conjugate) for entries of any ring."""
    z1, z2, z3, z4 = z
    if conjugate:
        return Quaternion(z4, -z1, -z2, -z3)
    return Quaternion(z4, z1, z2, z3)


def chain_trace(factors: Sequence[Quaternion]):
    """2 Re(q1 q2 ... qn), the matrix trace of the product, for n >= 2.

    The two halves L = q1 ... qh and R = q(h+1) ... qn, h = n // 2, are
    multiplied separately, and only the scalar part of L R is formed.  That
    takes n - 2 full products, as a left-to-right chain does, but keeps
    polynomial factors balanced: for n = 6 linear factors the last step
    multiplies two cubic halves instead of a quintic by a linear factor.
    """
    h = len(factors) // 2
    left = reduce(mul, factors[:h])
    right = reduce(mul, factors[h:])
    return left.trace_mul(right)

"""Chiral-variable bridge: s = u*v, t = (1-u)(1-v).

chiral_slices expands a polynomial in s and t^(+-1) as a v-graded series
in (u, v) about the origin; symmetric_reduce rewrites a symmetric
polynomial in (u, v) through the elementary symmetric functions
e1 = u+v, e2 = uv.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from .mpoly import MPoly
from .series import PSeries, Series2, unit_power


def chiral_slices(terms: Dict[Tuple[int, int], Fraction], order: int, depth: int) -> Series2:
    """Expand sum c s^a t^b, given as {(a, b): c}, in the chiral variables.

    s^a t^b = [u^a (1-u)^b] [v^a (1-v)^b] for any integer b, so a term adds
    c u^a (1-u)^b, times the v^j coefficient of v^a (1-v)^b, to slice j.
    The first `depth` v-slices are kept, slice j to u-degree order - j.
    """
    slices = [PSeries([Fraction(0)] * (order - j + 1)) for j in range(depth)]
    for (a, b), c in terms.items():
        if a < 0:
            raise ZeroDivisionError("a negative power of s has a pole at the chiral origin")
        w = unit_power(b, order)
        row = (c * w).shift(a)
        for j in range(a, depth):
            if w[j - a]:
                slices[j] = slices[j] + w[j - a] * row
    return Series2(slices)


def is_symmetric_uv(p: MPoly) -> bool:
    return all(p.coeff((b, a)) == c for (a, b), c in p.terms.items())


def symmetric_reduce(p: MPoly) -> MPoly:
    """Rewrite a symmetric bivariate polynomial in terms of (e1, e2).

    Classical elimination: repeatedly subtract c * e1^(a-b) * e2^b matching
    the lex-leading term c * u^a v^b (a >= b by symmetry).
    """
    if p.arity != 2:
        raise ValueError("symmetric_reduce needs a bivariate polynomial")
    if not is_symmetric_uv(p):
        raise ValueError("polynomial is not symmetric under u <-> v")
    u, v = MPoly.variables(2)
    e1uv, e2uv = u + v, u * v
    out = MPoly.zero(2)  # in (e1, e2)
    work = p
    while not work.is_zero():
        (a, b) = max(work.terms)
        c = work.terms[(a, b)]
        if a < b:
            raise AssertionError("lex-leading term of a symmetric poly has a >= b")
        out = out + MPoly(2, {(a - b, b): c})
        work = work - c * e1uv ** (a - b) * e2uv**b
    return out

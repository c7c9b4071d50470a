"""Chiral-variable bridge: s = u*v, t = (1-u)(1-v).

chiral_slices expands a polynomial in s and t^(+-1) as a v-graded series
in (u, v) about the origin; symmetric_reduce rewrites a symmetric
polynomial in (u, v) through the elementary symmetric functions
e1 = u+v, e2 = uv.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .mpoly import MPoly
from .series import Series2, common_denominator, unit_row


def chiral_slices(terms: Dict[Tuple[int, int], Fraction], order: int, depth: int) -> Series2:
    """Expand sum c s^a t^b, given as {(a, b): c}, in the chiral variables.

    s^a t^b = [u^a (1-u)^b] [v^a (1-v)^b] for any integer b, so a term adds
    c w_b[j-a] w_b[i-a] to the u^i v^j coefficient, w_b the integer row of
    (1-x)^b.  The first `depth` v-slices are kept, slice j to u-degree
    order - j.  The rows are integers over D, the lcm of the term
    denominators.
    """
    if any(a < 0 for a, _ in terms):
        raise ZeroDivisionError("a negative power of s has a pole at the chiral origin")
    scaled, D = common_denominator([Fraction(c) for c in terms.values()])
    nums = [[0] * (order - j + 1) for j in range(depth)]
    rows: Dict[int, List[int]] = {}
    for (a, b), c in zip(terms, scaled):
        if not c:
            continue
        if b not in rows:
            rows[b] = unit_row(b, order)
        w = rows[b]
        for j in range(a, min(depth, order + 1)):
            cj = c * w[j - a]
            if cj:
                out = nums[j]
                for i in range(a, order - j + 1):
                    out[i] += cj * w[i - a]
    return Series2(nums, D)


def is_symmetric_uv(p: MPoly) -> bool:
    u, v = MPoly.variables(2)
    return p.subs_poly([v, u]) == p


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
        (a, b), c = work.lex_leading()
        if a < b:
            raise AssertionError("lex-leading term of a symmetric poly has a >= b")
        out = out + MPoly(2, {(a - b, b): c})
        work = work - c * e1uv ** (a - b) * e2uv**b
    return out

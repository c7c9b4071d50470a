"""Chiral-variable bridge: s = u*v, t = (1-u)(1-v).

chiral_slices expands a polynomial in s and t^(+-1) as a v-graded series
in (u, v) about the origin.  The way back, from a symmetric function of
(u, v) to (s, t), goes through e1 = u+v = 1+s-t and e2 = uv = s; the one
such function, the twist-2 profile, is written in (e1, e2) directly by
`partialwave.f1_rational`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

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

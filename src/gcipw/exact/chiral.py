"""Chiral-variable bridge: s = u*v, t = (1-u)(1-v).

chiral_slices expands a polynomial in s and t^(+-1) as a v-graded series
in (u, v) about the origin, each slice a short polynomial summed e times
for the factor t^(-e).  The way back, from a symmetric function of (u, v)
to (s, t), goes through e1 = u+v = 1+s-t and e2 = uv = s; the one such
function, the twist-2 profile, is written in (e1, e2) directly by
`partialwave.f1_rational`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Tuple

from .series import Series2, common_denominator, unit_row


def chiral_slices(
    terms: Dict[Tuple[int, int], Fraction], order: int, depth: int, den: int = 1
) -> Series2:
    """Expand sum (c / den) s^a t^b, given as {(a, b): c} with int or
    Fraction c, in the chiral variables.

    s^a t^b = [u^a (1-u)^b] [v^a (1-v)^b] for any integer b, so v-slice j
    is sum_b P_jb(u) (1-u)^b with P_jb = sum_(a <= j) c w_b[j-a] u^a, w_b
    the integer row of (1-x)^b.  With e = max(0, -min b), the slice is the
    polynomial sum_b P_jb(u) (1-u)^(b+e), kept to u-degree order - j, then
    divided by (1-u)^e as e running sums.  The first `depth` v-slices are
    kept.  The rows are integers over the lcm of the reduced denominators
    of the c / den; int c make no Fraction.
    """
    if any(a < 0 for a, _ in terms):
        raise ZeroDivisionError("a negative power of s has a pole at the chiral origin")
    scaled, D = common_denominator(list(terms.values()))
    D *= den
    g = math.gcd(D, *scaled)
    D //= g
    e = max(0, -min((b for _, b in terms), default=0))
    top = min(depth, order + 1)  # the slices that can be nonzero
    rows = [[0] * (order - j + 1) for j in range(depth)]
    for (a, b), c in zip(terms, scaled):
        if not c:
            continue
        w, binom = unit_row(b, top - 1), unit_row(b + e, b + e)
        c //= g
        for j in range(a, min(top, order - a + 1)):  # u^a fits slice j
            cj = c * w[j - a]
            if cj:
                out = rows[j]
                for i, x in enumerate(binom[: order - j - a + 1], a):
                    out[i] += cj * x
    for _ in range(e):
        rows = [list(accumulate(row)) for row in rows]
    return Series2(rows, D)

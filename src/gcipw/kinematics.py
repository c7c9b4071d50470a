"""Point configurations, squared intervals, cross-ratios, the S3 crossing
action on polynomials in the cross-ratios, and seeded random configurations.

Crossing acts on polynomials of total degree at most 2d-3, the numerators
of the truncated 4-point functions, by permuting the exponents of their
monomials; it substitutes nothing.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Tuple

from .exact import MPoly
from .exact.series import common_denominator

Vec4 = Tuple[Fraction, Fraction, Fraction, Fraction]


class DegenerateConfiguration(Exception):
    """A squared interval needed in a denominator vanishes."""


def exact_rational(x) -> Fraction:
    """x as a Fraction, for an int, Fraction or str.  A float or complex
    raises TypeError: its binary fraction is not the rational meant."""
    if isinstance(x, (float, complex)):
        raise TypeError(f"{x!r} is inexact; pass an int, Fraction or str")
    return x if isinstance(x, Fraction) else Fraction(x)


def vec4(*coords) -> Vec4:
    if len(coords) != 4:
        raise ValueError("points live in four dimensions")
    return tuple(map(exact_rational, coords))


def integer_form(points: Sequence[Sequence]) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """The lcm L of the denominators of rational coordinates, and the
    integer vectors L z."""
    nums, scale = common_denominator([c for p in points for c in p])
    it = iter(nums)
    return scale, tuple(tuple(itertools.islice(it, len(p))) for p in points)


@dataclass(frozen=True)
class PointConfig:
    """A finite sequence of rational 4-vectors (Euclidean-chart points).

    `points` holds the Fraction coordinates.  The integer form is built
    once with them: `scale` is a common multiple L of every coordinate
    denominator (their lcm, or for a `subset` the scale of the parent
    configuration, whose integer rows it relabels), `int_points` are the
    integer vectors L z_i, `int_rho[i][j]` is the integer squared interval
    L^2 rho_ij, summed for i < j and mirrored, and `flat_rho` is that table
    row-major, entry i * len + j.  The free-field correlators are
    homogeneous in the coordinates, so their kernels run on the integer form
    and rescale their result exactly by a power of L once per call.  Only
    `points` takes part in equality and hashing.
    """

    points: Tuple[Vec4, ...]
    scale: int = field(compare=False, repr=False)
    int_points: Tuple[Tuple[int, ...], ...] = field(compare=False, repr=False)
    int_rho: Tuple[Tuple[int, ...], ...] = field(compare=False, repr=False)
    flat_rho: Tuple[int, ...] = field(compare=False, repr=False)

    def __init__(self, points: Sequence[Sequence]):
        pts = tuple(vec4(*p) for p in points)
        scale, ipts = integer_form(pts)
        rows = [[0] * len(ipts) for _ in ipts]
        for i, j in itertools.combinations(range(len(ipts)), 2):
            d0, d1, d2, d3 = map(operator.sub, ipts[i], ipts[j])
            rows[i][j] = rows[j][i] = d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3
        self._set(pts, scale, ipts, tuple(map(tuple, rows)))

    def _set(self, points, scale, int_points, int_rho) -> None:
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "int_points", int_points)
        object.__setattr__(self, "int_rho", int_rho)
        object.__setattr__(self, "flat_rho", tuple(itertools.chain.from_iterable(int_rho)))

    def __len__(self):
        return len(self.points)

    def rho(self, i: int, j: int) -> Fraction:
        """rho_ij = sum_mu (z_i - z_j)_mu^2, read from the integer table."""
        n = len(self.points)
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError("point index out of range")
        return Fraction(self.int_rho[i][j], self.scale**2)

    def pole(self, pairs) -> int:
        """prod L^2 rho_ij over the pairs (i, j), on the integer table;
        DegenerateConfiguration if one vanishes."""
        prod = math.prod(self.int_rho[i][j] for i, j in pairs)
        if prod == 0:
            raise DegenerateConfiguration("coincident points on a pole pair")
        return prod

    def is_nondegenerate(self) -> bool:
        return self.flat_rho.count(0) == len(self.points)  # the diagonal's zeros only

    def subset(self, indices: Sequence[int]) -> "PointConfig":
        """The points at `indices`, with this integer form's rows relabeled."""
        if len(indices) > 1:
            pick = operator.itemgetter(*indices)
        else:  # an itemgetter of one index returns the item, not a tuple
            pick = lambda row: tuple(row[i] for i in indices)
        sub = object.__new__(PointConfig)
        sub._set(pick(self.points), self.scale, pick(self.int_points),
                 tuple(map(pick, pick(self.int_rho))))
        return sub


def dot4(z: Vec4, w: Vec4) -> Fraction:
    return sum(a * b for a, b in zip(z, w))


def vsub(z: Vec4, w: Vec4) -> Vec4:
    return tuple(map(operator.sub, z, w))


@dataclass(frozen=True)
class CrossRatios:
    s: Fraction
    t: Fraction


def cross_ratios(config: PointConfig) -> CrossRatios:
    """s = rho12 rho34 / (rho13 rho24), t = rho14 rho23 / (rho13 rho24)."""
    if len(config) != 4:
        raise ValueError("cross ratios need exactly four points")
    r = config.rho
    d = r(0, 2) * r(1, 3)
    if d == 0:
        raise DegenerateConfiguration("rho13 * rho24 = 0")
    return CrossRatios(s=r(0, 1) * r(2, 3) / d, t=r(0, 3) * r(1, 2) / d)


# -- S3 crossing action -----------------------------------------------------


def s3_action(gen: str, p: MPoly, d: int) -> MPoly:
    """Apply a crossing generator to a polynomial in the cross-ratios.

    s12: P -> t^w P(s/t, 1/t);  s23: P -> s^w P(1/s, t/s), with w = 2d-3.
    Both are involutions and (s12 s23) has order three.

    Each permutes exponent triples: s^a t^b is the triple (a, b, w-a-b),
    s12 swaps its 2nd and 3rd slots and s23 its 1st and 3rd.  A term of
    total degree above w has no polynomial image and raises ValueError.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if p.arity != 2:
        raise ValueError("s3_action acts on polynomials in (s, t)")
    w = 2 * d - 3
    if p.total_degree() > w:
        raise ValueError(f"degree {p.total_degree()} is above 2d-3 = {w}")
    if gen == "s12":
        move = lambda a, b: (a, w - a - b)
    elif gen == "s23":
        move = lambda a, b: (w - a - b, b)
    else:
        raise ValueError(f"unknown generator {gen!r} (use 's12' or 's23')")
    return MPoly(2, {move(a, b): c for (a, b), c in p.terms.items()})


def s3_symmetrize(p: MPoly, d: int) -> MPoly:
    """(1 + s23 + s13) P, with s13 = s12 s23 s12."""
    s23p = s3_action("s23", p, d)
    s13p = s3_action("s12", s3_action("s23", s3_action("s12", p, d), d), d)
    return p + s23p + s13p


# -- seeded random configurations ---------------------------------------------


def random_config(rng: random.Random, n_points: int) -> PointConfig:
    """A non-degenerate configuration of rational points, reproducibly.

    Coordinates have numerators in [-9, 9] and denominators in {1, 2, 3};
    configurations with any vanishing pairwise interval are rejected and
    redrawn, up to 2000 times.
    """
    for _ in range(2000):
        pts = [
            [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(4)]
            for _ in range(n_points)
        ]
        config = PointConfig(pts)
        if config.is_nondegenerate():
            return config
    raise RuntimeError("could not draw a non-degenerate configuration")

"""Exact arithmetic substrate: rationals, polynomials, rational functions,
truncated power series (univariate, and bivariate held by v-slices),
half-integer q-series and quaternions.

Plain `fractions.Fraction` is the rational scalar type, except in `PSeries`
and `QSeries`: they hold integer numerators over one denominator, making
Fractions on access.
"""

from fractions import Fraction as Rat

from .mpoly import MPoly, divide_exact
from .qseries import QSeries, lambert_series
from .quaternion import Quaternion, chain_trace
from .ratfn import RatFn
from .series import PSeries, Series2, div_u_minus_v, unit_row

__all__ = [
    "Rat",
    "MPoly",
    "divide_exact",
    "RatFn",
    "PSeries",
    "Series2",
    "div_u_minus_v",
    "unit_row",
    "QSeries",
    "lambert_series",
    "Quaternion",
    "chain_trace",
]

"""Exact arithmetic substrate: polynomials, truncated power series
(univariate, and bivariate held by v-slices), half-integer q-series and
quaternions.

`fractions.Fraction` is the rational scalar type.  The series types
`PSeries`, `Series2` and `QSeries` instead hold integer numerators over
one denominator and build Fractions only on access.
"""

from .mpoly import MPoly
from .qseries import QSeries, lambert_series, settled
from .quaternion import Quaternion, chain_trace, slash
from .series import PSeries, Series2, div_u_minus_v, unit_row

__all__ = [
    "MPoly",
    "PSeries",
    "Series2",
    "div_u_minus_v",
    "unit_row",
    "QSeries",
    "lambert_series",
    "settled",
    "Quaternion",
    "chain_trace",
    "slash",
]

"""Crossing-symmetric truncated 4-point functions of a dimension-4 scalar.

The five-parameter family is assembled from three twist-2 basis
polynomials J_nu and two higher-twist blocks st*(Q1 - 2Q2), st*Q2.  The
companion twist-2 channel functions j_nu have poles only at t = 0, so
each is held as the polynomial t^3 j_nu over t^3 (`OverT`); under the
weighted S3 symmetrization the t^3 j_nu generate the J_nu, with
eigenvalues (1, 1, 1/2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Tuple

from .exact import MPoly
from .exact.series import common_denominator
from .kinematics import (
    DegenerateConfiguration,
    PointConfig,
    cross_ratios,
    exact_rational,
    s3_action,
    s3_symmetrize,
)

S, T = MPoly.variables(2)
ONE = MPoly.const(2, 1)


@dataclass(frozen=True)
class PWParams:
    """The (a0, a1, a2, b, c) 4-point parameters and the 2-point norm B.

    Each is an int, Fraction or str; a float or complex raises TypeError.
    The integer form of a0..c is built once with them: `num` holds their
    numerators over the lcm `den` of their denominators.  The two are
    plain attributes, not fields, so equality, hashing, `fields`,
    `asdict` and `replace` see only the six parameters.
    """

    a0: Fraction = Fraction(0)
    a1: Fraction = Fraction(0)
    a2: Fraction = Fraction(0)
    b: Fraction = Fraction(0)
    c: Fraction = Fraction(0)
    B: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("a0", "a1", "a2", "b", "c", "B"):
            object.__setattr__(self, name, exact_rational(getattr(self, name)))
        if self.B < 0:
            raise ValueError("the 2-point normalization B must be >= 0")
        num, den = common_denominator([self.a0, self.a1, self.a2, self.b, self.c])
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    @classmethod
    def unit(cls, name: str) -> "PWParams":
        return cls(**{name: Fraction(1)})


@functools.cache
def basis_J(nu: int) -> MPoly:
    """The three crossing-symmetric twist-2 polynomials, built once per nu;
    callers share the result and never change it."""
    s, t = S, T
    if nu == 0:
        return s**2 * (1 + s) + t**2 * (1 + t) + s**2 * t**2 * (s + t)
    if nu == 1:
        return (
            s * (1 - s) * (1 - s**2)
            + t * (1 - t) * (1 - t**2)
            + s * t * ((s - t) * (s**2 - t**2) - 2 * basis_Q(1))
        )
    if nu == 2:
        return (
            (ONE + t**3) * ((1 + s - t) ** 2 - s)
            - 3 * s * (1 - t)
            + s**3 * ((1 + t - s) ** 2 - t)
        )
    raise ValueError("nu must be 0, 1 or 2")


@functools.cache
def basis_Q(j: int) -> MPoly:
    """Q1 = 1 + s^2 + t^2, Q2 = s + t + st, built once per j."""
    s, t = S, T
    if j == 1:
        return ONE + s**2 + t**2
    if j == 2:
        return s + t + s * t
    raise ValueError("j must be 1 or 2")


class OverT(NamedTuple):
    """The function num / den of (s, t), den a monomial c t^k: j_nu, f1
    and their conformal Laplacians.  No operations and no normalization."""

    num: MPoly
    den: MPoly

    def eval(self, point: Sequence[Fraction]) -> Fraction:
        return self.num.eval(point) / self.den.eval(point)


def basis_j_small(nu: int) -> OverT:
    """The twist-2 channel functions j_nu(s, t), as t^3 j_nu over t^3:

        j0 = 1 + 1/t,
        j1 = ((1 - t)/t)^2 (1 + t - s) - 2s/t,
        j2 = (1 + 1/t^3) ((1 + s - t)^2 - s) - 3s (1 - t)/t^3.
    """
    s, t = S, T
    if nu == 0:
        num = t**3 + t**2
    elif nu == 1:
        num = t * (1 - t) ** 2 * (1 + t - s) - 2 * s * t**2
    elif nu == 2:
        num = (1 + t**3) * ((1 + s - t) ** 2 - s) - 3 * s * (1 - t)
    else:
        raise ValueError("nu must be 0, 1 or 2")
    return OverT(num, t**3)


EIGENVALUES = (Fraction(1), Fraction(1), Fraction(1, 2))
GAP_ORDERS = (2, 1, 3)


@functools.cache
def basis_P4() -> Tuple[MPoly, ...]:
    """The five int polynomials J0, J1, J2, st(Q1 - 2Q2), st Q2 that the
    parameters a0, a1, a2, b, c multiply in P4, built once and shared."""
    st = S * T
    return (*(basis_J(nu) for nu in range(3)), st * (basis_Q(1) - 2 * basis_Q(2)), st * basis_Q(2))


def P4_numerator(p: PWParams) -> MPoly:
    """den P4 as an int polynomial, den = `p.den`: the sum of the
    parameters' integer numerators `p.num` times the `basis_P4` polynomials,
    accumulated in one dict."""
    return MPoly.sum_of_products(2, [(n, b, ONE) for n, b in zip(p.num, basis_P4()) if n])


def assemble_P4(p: PWParams) -> MPoly:
    """P4 = sum a_nu J_nu + st*(b*(Q1 - 2Q2) + c*Q2), every coefficient one
    Fraction: the int `P4_numerator` over `p.den`."""
    den = p.den
    return P4_numerator(p).map_coeff(lambda n: Fraction(n, den))


def crossing_check(poly: MPoly, d: int) -> bool:
    """True iff the polynomial is invariant under both S3 generators.

    A polynomial of total degree above 2d-3 is not: each generator would
    give it a pole at s = 0 or t = 0."""
    if d < 2:
        raise ValueError("need d >= 2")
    if poly.total_degree() > 2 * d - 3:
        return False
    return s3_action("s12", poly, d) == poly and s3_action("s23", poly, d) == poly


def crossing_dimension(d: int) -> int:
    """Number of independent crossing-symmetric polynomials: floor(d^2/3)."""
    if d < 2:
        raise ValueError("need d >= 2")
    return d * d // 3


class BasisIdentityError(Exception):
    """The eigenfunction identity failed (a basis implementation bug)."""


def eigen_check(nu: int) -> Tuple[Fraction, int, MPoly]:
    """Verify the symmetrization eigen-relation for channel nu.

    Checks J_nu = lambda_nu (1 + s23 + s13)[t^3 j_nu] exactly and returns
    (lambda_nu, sigma_nu, q_nu) where

        lambda_nu (1 + s23 + s13)[t^3 j_nu] - t^3 j_nu = s^sigma_nu q_nu

    with q_nu(0, t) != 0: sigma_nu is the least power of s in the
    difference, and q_nu the difference with every s-exponent lowered by
    sigma_nu.
    """
    lam = EIGENVALUES[nu]
    t3j = basis_j_small(nu).num
    sym = lam * s3_symmetrize(t3j, 4)
    if sym != basis_J(nu):
        raise BasisIdentityError(f"symmetrization of t^3 j_{nu} is not J_{nu}")
    diff = (sym - t3j).terms
    sigma = min((a for a, _ in diff), default=0)
    q = MPoly(2, {(a - sigma, b): c for (a, b), c in diff.items()})
    if sigma != GAP_ORDERS[nu]:
        raise BasisIdentityError(
            f"sigma_{nu} = {sigma}, expected {GAP_ORDERS[nu]}"
        )
    return lam, sigma, q


def truncated_4pt_value(poly: MPoly, config: PointConfig, d: int) -> Fraction:
    """(rho13 rho24)^(d-2) (rho12 rho23 rho34 rho14)^(1-d) P(s, t)."""
    if len(config) != 4:
        raise ValueError("need a 4-point configuration")
    r = config.rho
    ring = r(0, 1) * r(1, 2) * r(2, 3) * r(0, 3)
    diag = r(0, 2) * r(1, 3)
    if ring == 0 or diag == 0:
        raise DegenerateConfiguration("vanishing squared interval")
    cr = cross_ratios(config)
    return diag ** (d - 2) * ring ** (1 - d) * poly.eval([cr.s, cr.t])

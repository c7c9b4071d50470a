"""Thermal (Gibbs) expectation values: Eisenstein series and energy mean
values as exact q-series, elliptic two-point functions, and numeric
modular / KMS verification.

Series coefficients are exact rationals throughout; only the evaluation
at a modular parameter tau uses complex floating arithmetic.

Sign conventions.  Two displayed formulas in the source material are
internally inconsistent and are corrected here, with the checks that
pin the correction down kept in the test suite:

* the modular combination for the Weyl energy mean is
  (1/4) { 8 G4(tau) - G4((tau+1)/2) + G2((tau+1)/2) - 2 G2(tau) }
  (the overall sign of the braces is flipped relative to the printed
  form), which matches the manifestly positive Fermi occupation series
  term by term and gives the vacuum constant E0 = +17/960 -- also the
  zeta-regularized value of the half-summed mode energies;

* the doubly-periodic Weyl two-point function carries the translate-sum
  normalizations p1^{11}/pi and p2^{11}/pi^2 (the printed form underweights
  the p1 terms by pi relative to p2), fixed by requiring the q -> 0 limit
  to reproduce the vacuum two-point function.

A third correction is derived rather than read off a display, and lives in
the partial-wave layer: the disconnected 2-point tail of the twist
expansion is B^2 s^3 (1 + t^-4), entering at twist 8, pinned by a
generalized-free-field oracle test (see the partialwave module docstring).

Series windows.  Each exact series builder keeps the longest series it has
built in this process (one per builder and weight k or dimension D) and
cuts every request of the same or a lower order from it; only a longer
request builds again, and its series replaces the stored one.  A window is
the same series a fresh build gives, integers and denominator alike: a
Lambert term w q^(n2/2) / (1 - sign q^(n2/2)) touches only keys >= n2, so
the terms a longer build adds leave the shorter window alone; the
denominator is the vacuum constant's, which does not depend on the order;
and the derived series keep the smaller window of what they merge.  The
stored series holds its keys in ascending order in immutable tuples, so a
window is a prefix of it: it shares those tuples and is cut by index, one
bisection for its length.  Callers never share mutable state, since `num`
and `coeffs` build a fresh dict on each access.

Stopping the float sums.  Every float q-expansion loop -- `QSeries.eval`
(see its docstring), the p1 sums behind `elliptic_p1` and
`gibbs_scalar_2pt`, and `gibbs_scalar_modes` -- stops before term n once
`exact.settled` holds: twice a majorant of every remaining term is below a
quarter ulp of each component of the running sum.  No such term can change
the float sum (the floats next to x lie at least ulp(x)/2 away, the half
being the spacing just below a power of two), so the sum is fixed from n
on and the result is the full loop's, bit for bit; the factor 2 covers the
rounding of the term against its exact value.  A component that is 0.0
never licenses a stop, so at pure-imaginary tau and real zeta, where one
component of p1 stays 0.0, the loops run to the end as before.  The
majorant of the n-th p1 term is 4 pi |q|^n e^(2 pi n y) / (1 - |q|), with
y = max |Im zeta|, from |sin(x + iy)| <= e^|y| and |1 - q^n| >= 1 - |q|;
that of the mode sum is 2 |q|^n e^(2 pi n y) / ((1 - |q|) |sin 2 pi alpha|).
Both fall with n only while y < Im tau, outside which the expansions
diverge: there the functions raise ValueError before summing.  Inside,
sin or cos(2 pi n zeta) alone can pass the float range while q^n times it
is tiny, so such a term is formed as q^n e^(+-2 pi i n zeta) instead.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, Dict, Sequence

from .exact import QSeries, Quaternion, lambert_series, settled, slash

TWO_PI = 2 * math.pi


# -- exact series ---------------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(n):
        total += math.comb(n + 1, j) * bernoulli(j)
    return -total / (n + 1)


# the longest series each builder has made, by builder and weight or dimension
_SERIES: Dict[tuple, QSeries] = {}


def _window(key: tuple, max_exp: int, build: Callable[[], QSeries]) -> QSeries:
    """The series build() gives to key max_exp, cut by index from the
    longest one stored under key and sharing its immutable storage; build()
    runs only if that one is shorter, and its series is stored in its
    place.  The cut is `QSeries.prefix`."""
    s = _SERIES.get(key)
    if s is None or s.max_exp < max_exp:
        s = _SERIES[key] = build()
    return s.prefix(max_exp)


def eisenstein_G(k: int, order: int) -> QSeries:
    """G_{2k} = -B_{2k}/(4k) + sum_{n>=1} n^(2k-1) q^n/(1-q^n), to q^order."""
    if k < 1 or order < 1:
        raise ValueError("need k >= 1 and order >= 1")

    def build():
        terms = ((2 * n, n ** (2 * k - 1)) for n in range(1, order + 1))
        return lambert_series(-bernoulli(2 * k) / (4 * k), terms, 1, 2 * order)

    return _window(("eisenstein_G", k), 2 * order, build)


WEYL_VACUUM_ENERGY = Fraction(17, 960)


def harmonic_dimension(m: int, D: int) -> int:
    """Dimension of degree-m homogeneous harmonic polynomials in D variables."""
    if m < 0 or D < 2:
        raise ValueError("need m >= 0 and D >= 2")
    return math.comb(m + D - 1, D - 1) - math.comb(m + D - 3, D - 1)


def _scalar_vacuum_constant(D: int) -> Fraction:
    """The constant term of sum_j c_j G_{2j+2}, where sum_j c_j n^(2j+1) =
    n harmonic_dimension(n - d0, D) = [2/(2 d0)!] n prod_{i < d0} (n^2 - i^2)."""
    d0 = (D - 2) // 2
    poly = [Fraction(2, math.factorial(2 * d0))]  # coefficients in n^2
    for i in range(d0):
        poly = [a - i * i * b for a, b in zip([0, *poly], [*poly, 0])]
    return sum(c * -bernoulli(2 * j + 2) / (4 * (j + 1)) for j, c in enumerate(poly))


def energy_mean_scalar(D: int, order: int) -> QSeries:
    """Energy mean value of a free scalar in D (even) dimensions.

    E(d0) + sum_{n >= d0} [2/(2 d0)!] n^2 (n^2-1) ... (n^2-(d0-1)^2)
    n q^n/(1-q^n), with d0 = (D-2)/2.  The weight of n q^n/(1-q^n) is the
    integer harmonic_dimension(n - d0, D): the energy-n modes are the
    degree-(n - d0) spherical harmonics.  Written as sum_j c_j n^(2j+1),
    the series is sum_j c_j G_{2j+2}, so the vacuum constant is
    E(d0) = sum_j c_j (-B_{2j+2} / (4 (j+1))), the zeta-regularized Casimir
    energy on R x S^(D-1): 1/240 at D = 4, -31/60480 at D = 6,
    289/3628800 at D = 8, derived with each build.
    """
    if D % 2 or D < 4:
        raise ValueError("only even D >= 4 is supported")
    if order < 1:
        raise ValueError("need order >= 1")
    d0 = (D - 2) // 2

    def build():
        terms = ((2 * n, n * harmonic_dimension(n - d0, D)) for n in range(d0, order + 1))
        return lambert_series(_scalar_vacuum_constant(D), terms, 1, 2 * order)

    return _window(("energy_mean_scalar", D), 2 * order, build)


def energy_mean_weyl(order2: int) -> QSeries:
    """Energy mean value of the free Weyl field, as a q^(1/2)-series.

    E0 + sum_{n>=1} (2n+1) n (n+1) q^(n+1/2) / (1 + q^(n+1/2)), with the
    vacuum constant E0 = 17/960 fixed by the modular-combination identity
    (equivalently by zeta regularization of the mode sum).  `order2` is
    the doubled exponent window (coefficients through q^(order2/2)).
    """
    if order2 < 1:
        raise ValueError("need order2 >= 1")

    def build():
        terms = ((2 * n + 1, (2 * n + 1) * n * (n + 1)) for n in range(1, (order2 + 1) // 2))
        return lambert_series(WEYL_VACUUM_ENERGY, terms, -1, order2)

    return _window(("energy_mean_weyl",), order2, build)


def weyl_modular_combination(order2: int) -> QSeries:
    """(1/4){8 G4(tau) - G4((tau+1)/2) + G2((tau+1)/2) - 2 G2(tau)}.

    The displayed (internally inconsistent) variant is its negation; see
    the module docstring.
    """
    if order2 < 1:
        raise ValueError("need order2 >= 1")

    def build():
        g4 = eisenstein_G(2, order2)  # to q^order2, so that G((tau+1)/2) reaches key order2
        g2 = eisenstein_G(1, order2)
        g4_half = g4.halfperiod_substitute()
        g2_half = g2.halfperiod_substitute()
        # each sum keeps the smaller window, the half-period images' key order2
        return (Fraction(8) * g4 - g4_half + g2_half - Fraction(2) * g2) * Fraction(1, 4)

    return _window(("weyl_modular_combination",), order2, build)


def theta_form_F(order: int) -> QSeries:
    """F = 2 G2(tau) - G2((tau+1)/2), a weight-2 form for the theta group."""
    if order < 1:
        raise ValueError("need order >= 1")

    def build():
        g2 = eisenstein_G(1, order)
        return Fraction(2) * g2 - g2.halfperiod_substitute()

    return _window(("theta_form_F",), order, build)


# -- numeric modular checks -------------------------------------------------------


def _modular_residuals(f: QSeries, w: int, tau: complex, h: int, anomaly: complex = 0):
    """The S and T^h residuals of the weight-w series f at tau:
    |tau^-w f(-1/tau) - f(tau) - anomaly/tau| and |f(tau + h) - f(tau)|."""
    base, _ = f.eval(tau)
    s_val, _ = f.eval(-1 / tau)
    t_val, _ = f.eval(tau + h)
    return abs(tau ** (-w) * s_val - base - anomaly / tau), abs(t_val - base)


def modular_check_G(k: int, tau: complex, order: int) -> float:
    """Max residual of the weight-2k transformation law for gamma = S, T."""
    return max(_modular_residuals(eisenstein_G(k, order), 2 * k, tau, 1))


def g2_anomaly_check(tau: complex, order: int) -> float:
    """Residual of tau^-2 G2(-1/tau) = G2(tau) + i/(4 pi tau)."""
    return _modular_residuals(eisenstein_G(1, order), 2, tau, 1, 1j / (4 * math.pi))[0]


def theta_form_checks(tau: complex, order: int) -> dict:
    """S and T^2 residuals for the weight-2 theta-group form F."""
    return dict(zip(("S", "T2"), _modular_residuals(theta_form_F(order), 2, tau, 2)))


# -- stable elementary functions ---------------------------------------------------


def _cot(z: complex) -> complex:
    """cot(z), exponentially stable for large |Im z|."""
    if z.imag >= 0:
        w = cmath.exp(2j * z)
        return 1j * (w + 1) / (w - 1)
    w = cmath.exp(-2j * z)
    return 1j * (1 + w) / (1 - w)


def _csc(z: complex) -> complex:
    """1/sin(z), exponentially stable for large |Im z|."""
    if z.imag >= 0:
        w = cmath.exp(1j * z)
        return 2j * w / (w * w - 1)
    w = cmath.exp(-1j * z)
    return -2j * w / (w * w - 1)


# -- elliptic functions --------------------------------------------------------------


def _nome(tau: complex) -> complex:
    """q = exp(2 pi i tau).  ValueError unless the float |q| is below 1:
    Im tau <= 0, or below about 1e-17, where |q| rounds to 1 and 1 - q^n
    in a q-expansion can vanish."""
    q = cmath.exp(2j * math.pi * tau)
    if abs(q) >= 1:
        raise ValueError(f"tau={tau}: |q| is not below 1, so the q-expansion diverges")
    return q


def _decay(zetas: Sequence[complex], tau: complex) -> tuple:
    """q, and the ratio rho = |q| e^(2 pi y), y = max |Im zeta|, by which a
    bound on the n-th term of a q-expansion in sin or cos(2 pi n zeta)
    falls with n.  ValueError unless rho < 1, that is y < Im tau: the
    expansion diverges otherwise."""
    q = _nome(tau)
    y = max(abs(zeta.imag) for zeta in zetas)
    if y >= tau.imag:
        raise ValueError(
            f"|Im zeta|={y} is not below Im tau={tau.imag}, so the q-expansion diverges"
        )
    return q, math.exp(TWO_PI * (y - tau.imag))


def _qn_exp_pair(n: int, tau: complex, z: complex, sign: int) -> complex:
    """q^n (e^(iz) + sign e^(-iz)) / 2: q^n cos z for sign 1 and i q^n sin z
    for sign -1.  Both exponentials have modulus below 1 while |Im z| <
    2 pi n Im tau, so this holds where cmath.sin or cos of z overflows."""
    a = 1j * TWO_PI * n * tau
    return (cmath.exp(a + 1j * z) + sign * cmath.exp(a - 1j * z)) / 2


def _p1_sums(zetas: Sequence[complex], tau: complex, order: int) -> list:
    """p1 at each of zetas by its q-expansion, forming q^n and
    4 pi q^n/(1-q^n) once per n for all of them; the sum stops once every
    total is `settled` (see the module docstring)."""
    q, rho = _decay(zetas, tau)
    scale = 4 * math.pi / (1 - abs(q))
    totals = [math.pi * _cot(math.pi * zeta) for zeta in zetas]
    indices = range(len(zetas))
    for n in range(1, order + 1):
        if settled(totals, scale * rho**n):
            break
        qn = q**n
        weight, angle = 4 * math.pi * qn / (1 - qn), TWO_PI * n
        for i in indices:
            try:
                term = weight * cmath.sin(angle * zetas[i])
            except OverflowError:
                term = 4 * math.pi / (1 - qn) * -1j * _qn_exp_pair(n, tau, angle * zetas[i], -1)
            totals[i] += term
    return totals


def elliptic_p1(zeta: complex, tau: complex, order: int) -> complex:
    """p1(zeta, tau) by its q-expansion:
    pi cot(pi zeta) + 4 pi sum_n q^n/(1-q^n) sin(2 pi n zeta)."""
    return _p1_sums((zeta,), tau, order)[0]


def _lattice_sum(f, zeta: complex, tau: complex, window: int, sign: int = 1) -> complex:
    """f(zeta) + sum_{n=1}^{window} sign^n (f(zeta + n tau) + f(zeta - n tau))."""
    total = f(zeta)
    for n in range(1, window + 1):
        total += sign**n * (f(zeta + n * tau) + f(zeta - n * tau))
    return total


def p1_lattice(zeta: complex, tau: complex, m_window: int) -> complex:
    """Symmetric lattice partial sum for p1: rows of Euler cotangents."""
    return _lattice_sum(lambda z: math.pi * _cot(math.pi * z), zeta, tau, m_window)


def elliptic_p1_11(zeta: complex, tau: complex, window: int) -> complex:
    """p1^{11}(zeta, tau) = pi sum_n (-1)^n / sin(pi (zeta + n tau))."""
    return _lattice_sum(lambda z: math.pi * _csc(math.pi * z), zeta, tau, window, -1)


def elliptic_p2_11(zeta: complex, tau: complex, window: int) -> complex:
    """p2^{11} = -d/dzeta p1^{11}, summed termwise."""

    def term(z):
        return math.pi**2 * _cot(math.pi * z) * _csc(math.pi * z)

    return _lattice_sum(term, zeta, tau, window, -1)


# -- Gibbs two-point functions ---------------------------------------------------------


def scalar_vacuum_2pt(zeta: complex, alpha: float) -> complex:
    """-1 / (4 sin(pi zeta+) sin(pi zeta-)), zeta+- = zeta +- alpha."""
    zp, zm = zeta + alpha, zeta - alpha
    return -0.25 * _csc(math.pi * zp) * _csc(math.pi * zm)


def _angle_sine(alpha: float) -> float:
    """sin(2 pi alpha), which the scalar Gibbs functions divide by;
    ValueError where it vanishes, at alpha a multiple of 1/2."""
    sa = math.sin(TWO_PI * alpha)
    if abs(sa) < 1e-14:
        raise ValueError("sin(2 pi alpha) = 0 is a degenerate angle")
    return sa


def gibbs_scalar_2pt(zeta: complex, alpha: float, tau: complex, order: int) -> complex:
    """(p1(zeta+) - p1(zeta-)) / (4 pi sin(2 pi alpha))."""
    sa = _angle_sine(alpha)
    p1p, p1m = _p1_sums((zeta + alpha, zeta - alpha), tau, order)
    return (p1p - p1m) / (4 * math.pi * sa)


def gibbs_scalar_modes(zeta: complex, alpha: float, tau: complex, order: int) -> complex:
    """Mode-sum representation: vacuum + Planck-weighted angular cosines;
    the sum stops once it is `settled` (see the module docstring)."""
    sa = _angle_sine(alpha)
    q, rho = _decay((zeta,), tau)
    scale = 2 / ((1 - abs(q)) * abs(sa))
    total = scalar_vacuum_2pt(zeta, alpha)
    for n in range(1, order + 1):
        if settled((total,), scale * rho**n):
            break
        qn = q**n
        angle = TWO_PI * n
        try:
            term = 2 * qn / (1 - qn) * math.sin(angle * alpha) / sa * cmath.cos(angle * zeta)
        except OverflowError:
            pair = _qn_exp_pair(n, tau, angle * zeta, 1)
            term = 2 / (1 - qn) * math.sin(angle * alpha) / sa * pair
        total += term
    return total


def solve_isotropic(u1: Sequence[float], u2: Sequence[float], alpha: float):
    """Solve u1 = e^{i pi a} v + e^{-i pi a} vbar, u2 = e^{-i pi a} v + e^{i pi a} vbar.

    ValueError unless sin(2 pi alpha) != 0 and the frame is two unit
    vectors with u1.u2 = cos(2 pi alpha), each within 1e-12; the solutions
    then satisfy v.v = 0 = vbar.vbar and 2 v.vbar = 1.
    """
    ep = cmath.exp(1j * math.pi * alpha)
    em = cmath.exp(-1j * math.pi * alpha)
    det = ep * ep - em * em  # 2i sin(2 pi alpha)
    if abs(det) < 1e-14:
        raise ValueError("sin(2 pi alpha) = 0 is a degenerate angle: collinear frame vectors")
    dot = sum(a * b for a, b in zip(u1, u2))
    misfits = (math.hypot(*u1) - 1, math.hypot(*u2) - 1, dot - math.cos(TWO_PI * alpha))
    if not all(abs(x) <= 1e-12 for x in misfits):  # a nan misfits too
        raise ValueError("the frame needs unit vectors u1, u2 with u1.u2 = cos(2 pi alpha)")
    v = tuple((ep * a - em * b) / det for a, b in zip(u1, u2))
    vbar = tuple((ep * b - em * a) / det for a, b in zip(u1, u2))
    return v, vbar


def _max_abs(q: Quaternion) -> float:
    return max(map(abs, q))


def _slash_comb(coef_v: complex, v, coef_vb: complex, vbar) -> Quaternion:
    return slash(v, True) * coef_v + slash(vbar, True) * coef_vb


def weyl_vacuum_2pt(zeta: complex, alpha: float, u1, u2) -> Quaternion:
    """Vacuum Weyl two-point function in the split-frame representation,
    as the quaternion of its 2x2 slash matrix."""
    v, vbar = solve_isotropic(u1, u2, alpha)
    zp, zm = zeta + alpha, zeta - alpha
    pref = 1j / 8 * _csc(math.pi * zm) * _csc(math.pi * zp)
    return _slash_comb(pref * _csc(math.pi * zm), v, pref * _csc(math.pi * zp), vbar)


def gibbs_weyl_2pt(
    zeta: complex, alpha: float, u1, u2, tau: complex, window: int
) -> Quaternion:
    """Doubly (anti)periodic Weyl two-point function, as a quaternion.

    Assembled from the translate-sum normalized elliptic functions
    p1^{11}/pi and p2^{11}/pi^2 (see the module docstring for the
    normalization note); the q -> 0 limit is the vacuum matrix.  The
    translate sums converge only for Im tau > 0: ValueError otherwise, as
    `_nome` raises, and on a bad frame or degenerate angle (`solve_isotropic`).
    """
    _nome(tau)
    v, vbar = solve_isotropic(u1, u2, alpha)
    sa = math.sin(TWO_PI * alpha)
    ca = _cot(complex(TWO_PI * alpha))
    zp, zm = zeta + alpha, zeta - alpha
    p1m = elliptic_p1_11(zm, tau, window) / math.pi
    p1p = elliptic_p1_11(zp, tau, window) / math.pi
    p2m = elliptic_p2_11(zm, tau, window) / math.pi**2
    p2p = elliptic_p2_11(zp, tau, window) / math.pi**2
    coef_v = p2m - ca * p1m + p1p / sa
    coef_vb = -(p2p + ca * p1p - p1m / sa)
    pref = 1j / (8 * sa)
    return _slash_comb(pref * coef_v, v, pref * coef_vb, vbar)


# -- KMS translate-sum checks ------------------------------------------------------------


def kms_translate_sum_check(
    model: str,
    zeta: complex,
    alpha: float,
    tau: complex,
    window: int,
    u1=None,
    u2=None,
) -> dict:
    """Rebuild the Gibbs function as a sum of vacuum translates and compare.

    Scalar: w_q(zeta) = sum_k w0(zeta + k tau); Weyl: alternating signs.
    Returns the max residual against the closed form, the (anti)periodicity
    residuals, and the edge-term bound that should dominate them.  Both
    models raise ValueError, before any evaluation, unless Im tau > 0
    (`_nome`); the Weyl model also on a bad frame (`solve_isotropic`).
    """
    q_abs = abs(_nome(tau))
    if model == "scalar":
        sign, norm, frame = 1, abs, ()
        vacuum, closed_form, order = scalar_vacuum_2pt, gibbs_scalar_2pt, 4 * window + 40
    elif model == "weyl4":
        if u1 is None or u2 is None:
            raise ValueError("the Weyl check needs the frame vectors")
        sign, norm, frame = -1, _max_abs, (u1, u2)
        vacuum, closed_form, order = weyl_vacuum_2pt, gibbs_weyl_2pt, 2 * window + 20
    else:
        raise ValueError(f"unknown model {model!r}")

    terms = [  # sign^|k| w0(zeta + k tau) for |k| <= window + 1
        vacuum(zeta + k * tau, alpha, *frame) * sign ** abs(k)
        for k in range(-window - 1, window + 2)
    ]
    total = reduce(operator.add, terms[1:-1])
    closed = closed_form(zeta, alpha, *frame, tau, order)
    residual = norm(total - closed)
    # zeta -> zeta + 1 on the closed form is exact trigonometry; zeta -> zeta + tau
    # reads the translates one index on (sign^|k - 1| = sign sign^|k|, and sign
    # drops out of the norm), so both are controlled by the same edge estimate
    # (plus the floating floor)
    per_1 = norm(closed_form(zeta + 1, alpha, *frame, tau, order) - closed * sign)
    per_tau = norm(reduce(operator.add, terms[2:]) - total)
    scale = max(map(norm, terms[1:-1]))
    edge = 4 * (norm(terms[-1]) + norm(terms[0])) / max(1 - q_abs, 1e-12)
    bound = edge + 1e-13 * max(scale, norm(closed), 1.0)
    return {
        "residual": residual,
        "periodicity_residual": max(per_1, per_tau),
        "edge_bound": bound,
        "edge_term": edge,
        "passed": residual <= bound and max(per_1, per_tau) <= bound,
    }

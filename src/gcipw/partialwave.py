"""Conformal partial-wave machinery for the d=4 family.

The expansion  t^-3 P4(s,t) + B^2 s^3 (1 + t^-4) = sum_k s^(k-1) f_k(s,t)
is driven in the chiral variables (u, v), held by its first max_twist
v-slices; each twist sector contributes through a one-variable profile
g_k(u) = u f_k(0, 1-u) whose coefficients carry the structure constants,
with the universal hypergeometric kernels F(a, a; 2a; u) at a = 2l+k
(`hypergeom_series`, the only Gauss series the package needs: the twist
recursion reads the same kernel at a = k-1).

The expansion is linear in theta = (a0, a1, a2, b, c, B^2), and so is the
twist recursion, so each g_k is sum theta_i times the g_k of a unit point.
The recursion runs only on the six unit points, once per
(max_twist, order), its tower kept for the 32 most recent keys; a first
call at a key pays for six recursions, one per unit point.  `twist_extract`
then forms every g_k as one integer combination of the unit rows and
builds f_k from that g_k.

The 2-point tail is derived, not read off a displayed formula: with the
normalization of fourpoint.truncated_4pt_value, (rho12 rho34)^4 times the
full 4-point function is B^2 (1 + s^4 + s^4 t^-4) + s t^-3 P4, and the
common factor s leaves B^2 s^3 (1 + t^-4).  The tail therefore enters at
kappa = 4 (twist 8, the double-trace twist of the dimension-4 field),
where the structure constants are the generalized-free-field ones,
2 (4)_L^2 / (L! (L+7)_L) at even spin L.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

from .exact import MPoly, PSeries, Series2, div_u_minus_v
from .exact.chiral import chiral_slices
from .exact.series import ZERO, common_denominator
from .fourpoint import OverT, PWParams, P4_numerator, S, T


class InconsistentExpansion(Exception):
    """The input is not in the expected family or the truncation is too small."""


def pochhammer(a: int, n: int) -> Fraction:
    out = Fraction(1)
    for k in range(n):
        out *= a + k
    return out


# F(a, a; 2a; x) per a: an integer row and its denominator
_GAUSS: Dict[int, Tuple[List[int], int]] = {}


def hypergeom_series(a: int, order: int) -> PSeries:
    """The kernel F(a, a; 2a; x) to the given order, exactly, as a fresh
    PSeries: its terms are (a)_n^2 / ((2a)_n n!), each the last times
    (a + n)^2 / ((n + 1)(2a + n)).

    At a >= 1 no factor of that ratio vanishes; a = 0 is the constant 1.
    Each a is stored once, as integer numerators over the lcm of its
    terms' denominators.  A longer order extends it from its last stored
    term and puts the whole row over the new lcm, so the stored row is the
    one a fresh build would give.
    """
    if a < 0 or order < 0:
        raise ValueError(f"need a >= 0 and order >= 0, got a={a}, order={order}")
    if a == 0:
        return PSeries([1] + [0] * order, 1)
    row, den = _gauss_row(a, order)
    return PSeries(row[: order + 1], den)


def _gauss_row(a: int, order: int) -> Tuple[List[int], int]:
    """The stored integer row of F(a, a; 2a; x) at a >= 1, at least to the
    given order, and its denominator (see `hypergeom_series`).  The row is
    the stored list itself: callers read it and never change it."""
    row, den = _GAUSS.get(a, ([1], 1))
    if len(row) <= order:
        terms = [Fraction(x, den) for x in row]
        term = terms[-1]
        for n in range(len(row) - 1, order):
            term = Fraction(term.numerator * (a + n) ** 2, term.denominator * (n + 1) * (2 * a + n))
            terms.append(term)
        row, den = _GAUSS[a] = common_denominator(terms)
    return row, den


def lhs_series(p: PWParams, order: int, depth: int) -> Series2:
    """t^-3 P4 + B^2 s^3 (1 + t^-4) in the chiral variables, by its first
    `depth` v-slices (slice j to u-degree order - j): the int
    `P4_numerator` over `p.den`, with B^2 p.den added to the two tail terms."""
    terms = {(a, b - 3): c for (a, b), c in P4_numerator(p).terms.items()}
    if p.B:
        for key in ((3, 0), (3, -4)):
            terms[key] = terms.get(key, 0) + p.B * p.B * p.den
    return chiral_slices(terms, order, depth, p.den)


@dataclass
class TwistTower:
    """The twist sectors k = 1..max_twist that `twist_extract` found.

    g[k] is the profile u f_k(0, 1-u); the structure-constant solve reads
    its numerators past the first, the boundary value f_k(0, 1-u).  Its
    denominator is the lcm of its coefficients' reduced denominators.
    f[k] is f_k by its v-slices j <= max_twist - k, the ones the recursion
    reads, formed from g[k] by `_profile_quotient`.  Every list in a tower
    is its own, so a caller may change it.
    """

    g: Dict[int, PSeries] = field(default_factory=dict)
    f: Dict[int, Series2] = field(default_factory=dict)


def _profile_quotient(G: List[int], den: int, k: int, depth: int) -> Series2:
    """f_k by its first `depth` v-slices from g_k = G / den, by
    (u - v) f_k = g_k(u) F(v) - F(u) g_k(v), F = F(k-1, k-1; 2k-2; x):
    the numerator held over den dF, dF the denominator of F's integer row,
    and its exact quotient by (u - v), over the same den dF."""
    work = len(G) - 1  # the degree of g_k
    hyp = hypergeom_series(k - 1, work)
    F = hyp.num
    numerator = Series2(
        [[G[n] * F[i] - F[n] * G[i] for n in range(work - i + 1)] for i in range(depth)],
        den * hyp.den,
    )
    try:
        return div_u_minus_v(numerator)
    except ValueError as err:
        raise InconsistentExpansion(f"(u - v) does not divide the f_{k} numerator") from err


def _twist_recursion(lhs: Series2) -> TwistTower:
    """g_k and f_k for k = 1..len(lhs.rows), by the remainder recursion on
    the expansion `lhs` of `lhs_series`.

    The remainder after removing the first k-1 sectors must vanish below
    v^(k-1); its v^(k-1) slice, divided by u^(k-1), is the boundary value
    f_k(0, 1-u), and g_k = u f_k(0, 1-u); f_k follows by
    `_profile_quotient`.  The remainder is held as integer rows over one
    running denominator R: g_k is over R, and f_k and the updated
    remainder over R dF.  The rows still to be read are then divided by
    their gcd with R dF, which is the next R.
    """
    max_twist = len(lhs.rows)
    tower = TwistTower()
    remainder, den = lhs.rows, lhs.den
    for k in range(1, max_twist + 1):
        for j in range(k - 1):
            if any(remainder[j]):
                raise InconsistentExpansion(
                    f"remainder has a nonzero v^{j} slice at twist step {k}"
                )
        low = remainder[k - 1]
        if any(low[: k - 1]):
            raise InconsistentExpansion(f"v^{k - 1} slice not divisible by u^{k - 1}")
        G = [0, *low[k - 1 :]]
        f_k = _profile_quotient(G, den, k, max_twist - k + 1)
        dF = f_k.den // den
        tower.g[k] = PSeries(G, den)
        tower.f[k] = f_k
        for m, row in enumerate(f_k.rows, k - 1):  # s^(k-1) f_k: slice j at v^(j+k-1)
            remainder[m] = [x * dF - y for x, y in zip(remainder[m], [0] * (k - 1) + row)]
        r = math.gcd(f_k.den, *(x for row in remainder[k:] for x in row))
        if r > 1:  # keep R from growing as the product of every dF
            remainder[k:] = [[x // r for x in row] for row in remainder[k:]]
        den = f_k.den // r
    return tower


# theta = (a0, a1, a2, b, c, B^2): the family is linear in it
_UNITS = ("a0", "a1", "a2", "b", "c", "B")


@functools.lru_cache(maxsize=32)
def _unit_tower(max_twist: int, order: int) -> List[Tuple[List[List[int]], int]]:
    """For k = 1..max_twist, g_k of the six unit points `PWParams.unit`
    (a0..c and B = 1, in `_UNITS` order) as six integer rows over one
    denominator, the lcm of theirs.  Each unit runs `_twist_recursion`,
    which checks its expansion.  The 32 most recently used
    (max_twist, order) are kept; callers read the rows and never change
    them."""
    units = [lhs_series(PWParams.unit(name), order, max_twist) for name in _UNITS]
    towers = [_twist_recursion(lhs) for lhs in units]
    out = []
    for k in range(1, max_twist + 1):
        gs = [tower.g[k] for tower in towers]
        den = math.lcm(*(g.den for g in gs))
        out.append(([[x * (den // g.den) for x in g.num] for g in gs], den))
    return out


def twist_extract(p: PWParams, max_twist: int, order: int) -> TwistTower:
    """f_k and g_k for k = 1..max_twist, as integer combinations of the
    six unit towers.

    The expansion `lhs_series` is linear in theta = (a0, a1, a2, b, c, B^2),
    and so is every step of `_twist_recursion` (each g_k and f_k reads the
    remainder linearly, and the remainder update subtracts them), so g_k
    is sum theta_i times g_k of the i-th unit point, and p's remainder is
    the same combination of the unit remainders.  The vanishing and
    divisibility checks of the recursion therefore run once, on the units:
    when they pass there, they pass for every p.

    The units' rows come from `_unit_tower`, built once per
    (max_twist, order) and kept for the 32 most recent keys; the first
    call at a key costs six recursions, one per unit point.  Every call then
    forms each g_k in one integer pass, sum c_i row_i with
    c = (p.num Bd^2, Bn^2 p.den) over p.den Bd^2 (B = Bn / Bd) times the
    rows' denominator, reduced by one gcd, and f_k from that g_k by
    `_profile_quotient`, whose (u - v) division is checked on every call.
    """
    if max_twist < 1:
        raise ValueError(f"need max_twist >= 1, got {max_twist}")
    if order < 2 * max_twist + 4:
        raise ValueError("series order too small for the requested twist depth")
    Bn, Bd = p.B.numerator, p.B.denominator
    c0, c1, c2, c3, c4 = (n * Bd * Bd for n in p.num)
    c5, scale = Bn * Bn * p.den, p.den * Bd * Bd
    tower = TwistTower()
    for k, (rows, den) in enumerate(_unit_tower(max_twist, order), 1):
        G = [
            c0 * x0 + c1 * x1 + c2 * x2 + c3 * x3 + c4 * x4 + c5 * x5
            for x0, x1, x2, x3, x4, x5 in zip(*rows)
        ]
        D = den * scale
        r = math.gcd(D, *G)
        G, D = [x // r for x in G], D // r
        tower.g[k] = PSeries(G, D)
        tower.f[k] = _profile_quotient(G, D, k, max_twist - k + 1)
    return tower


def f1_rational(p: PWParams) -> OverT:
    """The twist-2 profile as its numerator over t^3.

    f1 is the divided difference (g1(u) - g1(v)) / (u - v) of
    g1(x) = a(x) / b(x), with a = x P4(0, 1-x) and b = (1-x)^3, so its
    denominator is b(u) b(v) = t^3.  With a = sum a_i x^i and
    b = sum b_j x^j, and (u^i v^j - u^j v^i) / (u - v) = e2^j h_(i-j-1),
    the numerator is

        sum_(i > j) (a_i b_j - a_j b_i) e2^j h_(i-j-1)(e1, e2),

    where h_0 = 1, h_1 = e1 and h_k = e1 h_(k-1) - e2 h_(k-2) are the
    complete symmetric polynomials of (u, v), taken at e1 = u + v = 1+s-t
    and e2 = uv = s.  The sum runs on integers: P4 is read as the int
    `P4_numerator` over D = `p.den`, so the a_i, the h_k, the s^j and the
    accumulated numerator N = D num are int polynomials.  It is returned
    as L num over L t^3, L the lcm of the coefficient denominators of num,
    which is D / G for G the gcd of D and the coefficients of N; so the
    numerator coefficients are the integers N / G, one Fraction each.
    f1 = 0 is returned as 0 over 1.
    """
    D = p.den
    x = MPoly.var(1, 0)
    a = x * P4_numerator(p).subs_poly([MPoly.zero(1), 1 - x])
    n = max(a.total_degree(), 3) + 1
    ac = [a.coeff((i,)) for i in range(n)]
    bc = [1, -3, 3, -1] + [0] * (n - 4)  # (1 - x)^3
    s, t = S, T
    e1 = 1 + s - t
    h = [s**0, e1]
    while len(h) < n:
        h.append(e1 * h[-1] - s * h[-2])
    s_pow = [s**j for j in range(n)]
    num = MPoly.sum_of_products(
        2,
        [
            (c, s_pow[j], h[i - j - 1])
            for j in range(n)
            for i in range(j + 1, n)
            if (c := ac[i] * bc[j] - ac[j] * bc[i])
        ],
    )
    if num.is_zero():
        return OverT(num, MPoly.const(2, Fraction(1)))
    G = math.gcd(D, *num.coefficients())
    return OverT(num.map_coeff(lambda c: Fraction(c // G)), T**3 * Fraction(D // G))


def laplace_st(f: OverT) -> OverT:
    """The conformal Laplacian s f_ss + t f_tt + (s + t - 1) f_st + 2 (f_s + f_t)
    of f = P / (c t^k), exactly, by one polynomial formula:

        t^(k+1) lap(P t^-k) = t lap0(P) - 2k t P_t - k (s + t - 1) P_s + k (k - 1) P,

    over c t^(k+1), lap0 being the same operator on polynomials.
    ValueError if the denominator is not c t^k.
    """
    if f.den.arity != 2 or len(f.den.coefficients()) != 1 or f.den.degree_in(0):
        raise ValueError(f"denominator {f.den!r} is not c t^k")
    k = f.den.degree_in(1)
    s, t, P = S, T, f.num
    Ps, Pt = P.deriv(0), P.deriv(1)
    lap0 = s * Ps.deriv(0) + t * Pt.deriv(1) + (s + t - 1) * Ps.deriv(1) + 2 * (Ps + Pt)
    num = t * lap0 - 2 * k * t * Pt - k * (s + t - 1) * Ps + k * (k - 1) * P
    return OverT(num, f.den * t)


def default_order(max_spin: int, max_twist: int) -> int:
    """The default `twist_extract` order for solving spins up to max_spin
    at twists up to max_twist: 2 max_spin + 2 max_twist + 8."""
    return 2 * max_spin + 2 * max_twist + 8


def solve_structure_constants(g: PSeries, kappa: int, max_spin: int) -> List[Fraction]:
    """Solve g(u) = u sum_l B_l u^(2l) F(2l+k, 2l+k; 4l+2k; u) for B_l.

    One in-place forward substitution over ascending powers of g/u, held
    as integer numerators over a common denominator D (g's own row to
    start): the power 2l reads B_l and subtracts B_l u^(2l) F from the
    powers above it, F read in place as the stored integer row of
    `hypergeom_series` over its denominator e, D becoming the lcm of D and
    the denominator of B_l / e.  The odd powers carry no new unknowns and
    must be reproduced exactly.
    """
    if kappa < 1 or max_spin < 0:
        raise ValueError(f"need kappa >= 1 and max_spin >= 0, got {kappa}, {max_spin}")
    if g.order < 2 * max_spin + 1:
        raise ValueError("series too short for the requested spin range")
    if g.num[0]:
        raise ValueError("g has a nonzero constant term, so g/u is not a series")
    num, den = g.num[1 : 2 * max_spin + 3], g.den  # g/u, a copy, never padded
    top = len(num) - 1
    out: List[Fraction] = []
    for power in range(top + 1):
        val = Fraction(num[power], den) if num[power] else ZERO
        if power % 2:
            if val:
                raise InconsistentExpansion(
                    f"odd power u^{power} of g/u not reproduced (residual {val})"
                )
            continue
        out.append(val)
        if val:
            F, e = _gauss_row(power + kappa, top - power)
            step = val.denominator * e
            new = math.lcm(den, step)
            up, scaled = new // den, val.numerator * (new // step)
            for n in range(1, top - power + 1):
                num[power + n] = num[power + n] * up - scaled * F[n]
            den = new
    return out


def closed_form_B(kappa: int, ell: int, p: PWParams) -> Fraction:
    """Closed-form structure constants for twists 2, 4, 6: each an integer
    linear form in the parameters' numerators over their lcm D (the
    integer form `p.num` over `p.den`), divided by D times the binomial in
    one Fraction."""
    if ell < 0:
        raise ValueError("need ell >= 0")
    (a0, a1, a2, b, c), D = p.num, p.den
    if kappa == 1:
        n = 2 * a0 + 2 * ell * (2 * ell + 1) * (2 * a1 + (2 * ell - 1) * (ell + 1) * a2)
        return Fraction(n, D * math.comb(4 * ell, 2 * ell))
    if kappa == 2:
        n = ell * (2 * ell + 3) * ((ell + 1) * (2 * ell + 1) * a1 + 2 * b) + c
        return Fraction(n, D * math.comb(4 * ell + 1, 2 * ell))
    if kappa == 3:
        n = (ell + 1) * (2 * ell + 3) * ((ell + 2) * (2 * ell + 1) * (2 * a0 + a1) - 6 * b + 4 * c)
        n -= c
        return Fraction(n, 2 * D * math.comb(4 * ell + 3, 2 * ell + 1))
    raise ValueError("closed forms exist only for kappa in {1, 2, 3}")


# -- positivity ---------------------------------------------------------------


@dataclass
class PositivityReport:
    admissible: bool
    trivial: bool
    first_violation: str | None


# necessary; at twist <= 6 also sufficient, at every spin (`positivity_check`)
NECESSARY_CONDITIONS = (
    ("a0 >= 0", lambda p: p.a0),
    ("a1 >= 0", lambda p: p.a1),
    ("a2 >= 0", lambda p: p.a2),
    ("3 a1 + b >= 0", lambda p: 3 * p.a1 + p.b),
    ("c >= 0", lambda p: p.c),
    ("6 (2 a0 + a1 - 3 b) + 11 c >= 0", lambda p: 6 * (2 * p.a0 + p.a1 - 3 * p.b) + 11 * p.c),
)


def _violations(p: PWParams, scan_spin: int, solver_twist: int) -> Iterator[str]:
    """The name of every failed inequality, in the order `positivity_check`
    states."""
    for name, expr in NECESSARY_CONDITIONS:
        if expr(p) < 0:
            yield name
    if solver_twist >= 4:
        tower = twist_extract(p, solver_twist, default_order(scan_spin, solver_twist))
        for kappa in range(4, solver_twist + 1):
            for ell, val in enumerate(solve_structure_constants(tower.g[kappa], kappa, scan_spin)):
                if val < 0:
                    yield f"B[{kappa},{ell}] < 0"


def positivity_check(p: PWParams, scan_spin: int = 20, solver_twist: int = 0) -> PositivityReport:
    """Necessary positivity conditions plus an optional solver scan; the
    first failed inequality decides.

    In order: the six `NECESSARY_CONDITIONS`, which decide B[kappa, ell] >= 0
    for twists 2, 4, 6 (kappa = 1..3) at every spin ell; and, when
    `solver_twist` >= 4, B[kappa, ell] >= 0 from the solver for
    4 <= kappa <= `solver_twist` and ell <= `scan_spin` (these see the
    2-point normalization B).  Nothing after the first failure is
    evaluated, so the solver runs only on a point that passes the six
    conditions.  `trivial` means P4 = 0, that is a0 = a1 = a2 = b = c = 0.

    Why the conditions suffice at kappa <= 3: the denominators of
    `closed_form_B` are positive, so only its numerators matter.
    kappa = 1: 2 a0 + 2l(2l+1)(2 a1 + (2l-1)(l+1) a2) is >= 0 term by term
    (at l = 0 the a2 term has the factor l).
    kappa = 2: c >= 0 at l = 0; for l >= 1, (l+1)(2l+1) a1 + 2b >=
    2(3 a1 + b) >= 0.  kappa = 3: (l+1)(2l+3) X(l) - c, where
    X(l) = (l+2)(2l+1)(2 a0 + a1) - 6b + 4c does not decrease in l and
    3 X(0) - c is the sixth condition; so X(0) >= c/3 >= 0 and the
    numerator is >= 3 X(0) - c >= 0.
    """
    if scan_spin < 0:
        raise ValueError(f"need scan_spin >= 0, got {scan_spin}")
    first = next(_violations(p, scan_spin, solver_twist), None)
    return PositivityReport(first is None, not any(p.num), first)


# -- kernel Taylor coefficients -------------------------------------------------


def beta_int(a: int, b: int) -> Fraction:
    """Euler Beta at positive integers: (a-1)! (b-1)! / (a+b-1)!."""
    if a < 1 or b < 1:
        raise ValueError("beta_int needs positive integers")
    return Fraction(math.factorial(a - 1) * math.factorial(b - 1), math.factorial(a + b - 1))


def kernel_coeff(kappa: int, ell: int, m: int, n: int) -> Fraction:
    """Taylor coefficient of t1^m t2^n of the OPE kernel for (kappa, ell)."""
    if kappa < 1 or ell < 0 or m < 0 or n < 0:
        raise ValueError("bad kernel indices")
    lk = ell + kappa
    sign = -1 if n % 2 else 1
    return (
        sign
        * beta_int(lk + n + m, lk + n)
        / (
            Fraction(4**n)
            * beta_int(lk, lk)
            * math.factorial(m)
            * math.factorial(n)
            * pochhammer(2 * lk - 1, n)
        )
    )


def kernel_coeff_quadrature(kappa: int, ell: int, m: int, n: int) -> float:
    """Independent oracle for kernel_coeff: numeric quadrature, at 30
    digits, of the defining integral (the alpha-moment of
    [alpha(1-alpha)]^(l+k+n-1))."""
    import mpmath

    lk = ell + kappa
    with mpmath.workdps(30):
        integral = mpmath.quad(
            lambda a: a ** (lk + n - 1 + m) * (1 - a) ** (lk + n - 1), [0, 1]
        )
        beta0 = beta_int(lk, lk)
        poch = pochhammer(2 * lk - 1, n)
        pre = mpmath.mpf(-1) ** n / (
            mpmath.mpf(4) ** n
            * (mpmath.mpf(beta0.numerator) / beta0.denominator)
            * mpmath.factorial(m)
            * mpmath.factorial(n)
            * (mpmath.mpf(poch.numerator) / poch.denominator)
        )
        return float(pre * integral)

"""Partial-wave machinery: hypergeometric kernels, the twist recursion,
structure constants, positivity and the OPE kernel coefficients."""

import math
import random
from dataclasses import astuple
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from gcipw import partialwave
from gcipw.exact import MPoly, PSeries, unit_row
from gcipw.exact.chiral import chiral_slices
from gcipw.fourpoint import OverT, PWParams, assemble_P4, basis_j_small
from gcipw.partialwave import (
    InconsistentExpansion,
    closed_form_B,
    f1_rational,
    hypergeom_series,
    kernel_coeff,
    kernel_coeff_quadrature,
    laplace_st,
    lhs_series,
    pochhammer,
    positivity_check,
    solve_structure_constants,
    twist_extract,
)


S, T = MPoly.variables(2)


def rand_params(rng, with_B=False):
    r = lambda: F(rng.randint(-8, 8), rng.randint(1, 4))
    return PWParams(r(), r(), r(), r(), r(), abs(r()) if with_B else 0)


class TestHypergeom:
    def test_degenerate_convention(self):
        f = hypergeom_series(0, 8)
        assert f.coeffs[0] == 1 and all(c == 0 for c in f.coeffs[1:])
        with pytest.raises(ValueError):
            hypergeom_series(-1, 4)

    @pytest.mark.parametrize("a", [0, 3])
    def test_negative_order_rejected(self, a):
        with pytest.raises(ValueError):
            hypergeom_series(a, -1)

    def test_value_at_zero(self):
        assert hypergeom_series(3, 6).coeffs[0] == 1

    def test_log_series(self):
        f = hypergeom_series(1, 10)
        assert f.coeffs == [F(1, n + 1) for n in range(11)]

    def test_memo_is_not_aliased(self):
        # a caller that mutates its result must not change later results
        first = hypergeom_series(5, 12)
        want = list(first.coeffs)
        tower = twist_extract(PWParams(a0=1, a2=F(1, 3)), 3, 2 * 6 + 2 * 3 + 8)
        sol = solve_structure_constants(tower.g[3], 3, 6)
        first.num[3] = -7
        first.num.append(1)
        assert hypergeom_series(5, 12).coeffs == want
        assert hypergeom_series(5, 6).coeffs == want[:7]
        assert solve_structure_constants(tower.g[3], 3, 6) == sol
        for ell in range(7):
            f = hypergeom_series(2 * ell + 3, 20)
            f.num[:] = [0] * len(f.num)
        assert solve_structure_constants(tower.g[3], 3, 6) == sol

    def test_extension_matches_a_fresh_series(self):
        # a longer order extends the stored prefix; its coefficients are
        # the closed form (a)_n^2 / ((2a)_n n!)
        short = hypergeom_series(7, 3).coeffs
        long = hypergeom_series(7, 15).coeffs
        assert long[:4] == short
        assert long == [
            pochhammer(7, n) ** 2 / (pochhammer(14, n) * math.factorial(n)) for n in range(16)
        ]

    @pytest.mark.parametrize("abc", [(7, 7, 14), (5, 5, 10), (0, 0, 0), (3, 3, 6), (1, 1, 2)])
    def test_short_then_long_is_a_fresh_build(self, abc, monkeypatch):
        # the stored row of F(a, a; 2a) = F(a, b; c), extended and put over
        # the new lcm, is the row a fresh build gives: the same integers over
        # the same denominator, and the Gauss terms (a)_n (b)_n / ((c)_n n!)
        a, b, c = abc
        monkeypatch.setattr(partialwave, "_GAUSS", {})
        short = hypergeom_series(a, 3)
        long = hypergeom_series(a, 17)
        monkeypatch.setattr(partialwave, "_GAUSS", {})
        fresh = hypergeom_series(a, 17)
        assert (long.num, long.den) == (fresh.num, fresh.den)
        assert long.coeffs[:4] == short.coeffs == fresh.coeffs[:4]
        assert long.den == math.lcm(*(x.denominator for x in fresh.coeffs))
        assert all(type(x) is F for x in long.coeffs)
        if a:
            gauss = [
                pochhammer(a, n) * pochhammer(b, n) / (pochhammer(c, n) * math.factorial(n))
                for n in range(18)
            ]
        else:
            gauss = [1] + [0] * 17  # F(0, 0; 0; x) = 1
        assert long.coeffs == gauss


def retained(series):
    """The (i, j) entries a v-graded series keeps, zero or not."""
    return [(i, j) for j, row in enumerate(series.rows) for i in range(len(row))]


def fraction_rows(series):
    """The v-slices of a v-graded series as lists of Fractions."""
    return [[F(n, series.den) for n in row] for row in series.rows]


def as_poly(series):
    return MPoly(2, series.coeffs)


def in_var(series, var):
    """A univariate series as a polynomial in u (var 0) or v (var 1)."""
    return MPoly(2, {(i, 0) if var == 0 else (0, i): c for i, c in enumerate(series.coeffs)})


class TestLhsSeries:
    def test_zero_params(self):
        assert lhs_series(PWParams(), 8, 4).coeffs == {}

    def test_constant_term_j0(self):
        assert lhs_series(PWParams(a0=1), 8, 4).coeffs[(0, 0)] == 2

    def test_substitution_oracle_order6(self):
        # independent oracle: expand 1/t^3 as a geometric series in
        # w = u + v - uv with polynomial arithmetic, no series division
        rng = random.Random(11)
        p = rand_params(rng, with_B=True)
        order, depth = 6, 5
        u, v = MPoly.variables(2)
        w = u + v - u * v
        inv_t3 = sum((math.comb(m + 2, 2) * w**m for m in range(order + 1)), MPoly.zero(2))
        expected = assemble_P4(p).subs_poly([u * v, (1 - u) * (1 - v)]) * inv_t3
        if p.B:
            inv_t4 = sum((math.comb(m + 3, 3) * w**m for m in range(order + 1)), MPoly.zero(2))
            expected = expected + (p.B * p.B) * (u * v) ** 3 * (1 + inv_t4)
        series = lhs_series(p, order, depth)
        assert [len(row) for row in series.rows] == [order - j + 1 for j in range(depth)]
        coeffs = series.coeffs
        for key in retained(series):
            assert coeffs.get(key, 0) == expected.coeff(key)

    def test_integer_terms_match_the_fraction_expansion(self):
        # on the benchmark's grid (twist 3-6, spin 10-24): t^-3 P4 + B^2
        # s^3 (1 + t^-4) from assemble_P4's Fractions, expanded term by term
        # in Fractions; the rows are the integers over the lcm of the term
        # denominators
        rng = random.Random(17)
        for twist in range(3, 7):
            for spin in (10, 15, 20, 24):
                p = rand_params(rng, with_B=spin % 2 == 0)
                order = partialwave.default_order(spin, twist)
                terms = {(a, b - 3): c for (a, b), c in assemble_P4(p).terms.items()}
                for key in ((3, 0), (3, -4)):
                    terms[key] = terms.get(key, 0) + p.B * p.B
                want = [[F(0)] * (order - j + 1) for j in range(twist)]
                for (a, b), c in terms.items():
                    w = unit_row(b, order)
                    for j in range(a, twist):
                        for i in range(a, order - j + 1):
                            want[j][i] += c * w[j - a] * w[i - a]
                den = math.lcm(*(F(c).denominator for c in terms.values()))
                got = lhs_series(p, order, twist)
                assert got.den == den
                assert got.rows == [[int(x * den) for x in row] for row in want]


class TestIntegerFrontEnd:
    """P4 and its chiral slices are built on integers: the only Fractions
    are the coefficients that assemble_P4 returns (and B^2, when B != 0)."""

    @pytest.fixture
    def fractions_built(self, monkeypatch):
        count = [0]
        new = F.__new__

        def counting(cls, *args, **kwargs):
            count[0] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", staticmethod(counting))
        return count

    def test_assemble_builds_one_fraction_per_term(self, fractions_built):
        p = PWParams(a0=F(1, 2), a1=3, a2=F(-2, 3), b=F(1, 6), c=5)
        fractions_built[0] = 0
        P4 = assemble_P4(p)
        assert fractions_built[0] == len(P4.terms) > 0

    def test_slices_of_integers_build_none(self, fractions_built):
        p = PWParams(a0=F(1, 2), a1=3, a2=F(-2, 3), b=F(1, 6), c=5)
        fractions_built[0] = 0
        chiral_slices({(0, -3): 4, (2, 1): -6, (1, 0): 0}, 20, 4, 6)
        lhs_series(p, 30, 6)
        assert fractions_built[0] == 0


def gauss_fractions(a, b, c, order):
    """F(a, b; c; x) to x^order as Fractions, term by term; a vanishing
    numerator terminates the series."""
    out = [F(1)]
    for n in range(order):
        num = (a + n) * (b + n)
        out.append(out[-1] * num / ((n + 1) * (c + n)) if out[-1] and num else F(0))
    return out


def fraction_twist_extract(p, max_twist, order):
    """The twist recursion on Fraction slices, an independent reference for
    the integer rows: (g, f) as {k: list} and {k: list of slices}."""
    remainder = fraction_rows(lhs_series(p, order, max_twist))
    g, f = {}, {}
    for k in range(1, max_twist + 1):
        assert not any(c for j in range(k - 1) for c in remainder[j])
        assert not any(remainder[k - 1][: k - 1])
        phi = remainder[k - 1][k - 1 :]
        work = order - 2 * k + 3
        gk = [F(0)] + phi
        hyp = gauss_fractions(k - 1, k - 1, 2 * k - 2, work)
        quotient, prev = [], []
        for i in range(max_twist - k + 1):
            row = [gk[n] * hyp[i] - hyp[n] * gk[i] for n in range(work - i + 1)]
            if i:
                row = [x + y for x, y in zip(row, prev)]
            assert row[0] == 0
            prev = row[1:]
            quotient.append(prev)
        g[k], f[k] = gk, quotient
        for j, sl in enumerate(quotient):
            rem = remainder[j + k - 1]
            remainder[j + k - 1] = rem[: k - 1] + [x - y for x, y in zip(rem[k - 1 :], sl)]
    return g, f


class TestTwistExtract:
    def test_g1_for_j0(self):
        tower = twist_extract(PWParams(a0=1), 1, 12)
        # g1(u) = u (2 - u)/(1 - u): coefficients 0, 2, 1, 1, 1, ...
        expected = [0, 2] + [1] * (tower.g[1].order - 1)
        assert tower.g[1].coeffs[: len(expected)] == [F(x) for x in expected]

    def test_zero_params(self):
        tower = twist_extract(PWParams(), 3, 14)
        assert not any(n for g in tower.g.values() for n in g.num)

    def test_pure_c_profile(self):
        tower = twist_extract(PWParams(c=1), 2, 14)
        assert tower.f[1].coeffs == {}
        # g2 = u f2(0, 1-u) = u/(1-u)
        g = tower.g[2]
        assert g.coeffs == [0, *unit_row(-1, g.order - 1)]

    def test_f1_matches_rational_route(self):
        # D(uv, (1-u)(1-v)) f1 = N(uv, (1-u)(1-v)) on every retained entry
        rng = random.Random(12)
        u, v = MPoly.variables(2)
        chiral = [u * v, (1 - u) * (1 - v)]
        for _ in range(3):
            p = rand_params(rng)
            f1 = twist_extract(p, 4, 16).f[1]
            assert len(f1.rows) == 4
            rat = f1_rational(p)
            lhs = rat.den.subs_poly(chiral) * as_poly(f1)
            rhs = rat.num.subs_poly(chiral)
            for key in retained(f1):
                assert lhs.coeff(key) == rhs.coeff(key)

    def test_fk_antisymmetric_quotient(self):
        # (u - v) f_k = g_k(u) F(v) - F(u) g_k(v) on the retained slices
        rng = random.Random(16)
        tower = twist_extract(rand_params(rng, with_B=True), 4, 20)
        u, v = MPoly.variables(2)
        for k in (2, 3):
            g, f_k = tower.g[k], tower.f[k]
            hyp = hypergeom_series(k - 1, g.order)
            rhs = in_var(g, 0) * in_var(hyp, 1) - in_var(hyp, 0) * in_var(g, 1)
            lhs = (u - v) * as_poly(f_k)
            assert len(f_k.rows) == 4 - k + 1
            keys = [(i, j) for j in range(len(f_k.rows)) for i in range(g.order + 1 - j)]
            assert any(rhs.coeff(key) for key in keys)
            for key in keys:
                assert lhs.coeff(key) == rhs.coeff(key)

    def test_f2_log_reconstruction(self):
        # f2 series equals [F(1,1;2;v) g2(u) - F(1,1;2;u) g2(v)]/(u - v)
        # with the closed-form g2 of the twist-4 line
        # g2(u) = u [a1 u ((1-u)^-3 - 1) + b u^2 (1-u)^-2 + c (1-u)^-1],
        # summed on plain Fraction lists
        rng = random.Random(13)
        p = rand_params(rng)
        tower = twist_extract(p, 2, 16)
        order = tower.g[2].order
        inv1, inv2, inv3 = (unit_row(-m, order) for m in (1, 2, 3))
        g2_closed = [F(0)] * (order + 1)
        for n in range(1, order + 1):
            m = n - 1  # the power inside the bracket
            g2_closed[n] = p.c * inv1[m]
            if m >= 1:
                g2_closed[n] += p.a1 * (inv3[m - 1] - (m == 1))
            if m >= 2:
                g2_closed[n] += p.b * inv2[m - 2]
        assert tower.g[2].coeffs == g2_closed

    @pytest.mark.parametrize("max_twist", range(1, 9))
    def test_matches_the_fraction_recursion(self, max_twist):
        # entry for entry against the recursion on Fraction lists and the
        # integer recursion run on p itself, at the least order and a
        # longer one, with B = 0 and B != 0
        rng = random.Random(40 + max_twist)
        for with_B in (False, True):
            p = rand_params(rng, with_B)
            for order in (2 * max_twist + 4, 2 * max_twist + 13):
                tower = twist_extract(p, max_twist, order)
                g, f = fraction_twist_extract(p, max_twist, order)
                direct = partialwave._twist_recursion(lhs_series(p, order, max_twist))
                for k in range(1, max_twist + 1):
                    coeffs = tower.g[k].coeffs
                    assert coeffs == g[k] == direct.g[k].coeffs
                    # the combination is reduced by one gcd, so den is the lcm
                    assert tower.g[k].den == math.lcm(*(c.denominator for c in coeffs))
                    assert fraction_rows(tower.f[k]) == f[k] == fraction_rows(direct.f[k])

    @pytest.mark.parametrize("p", [PWParams.unit("a0"), rand_params(random.Random(17), True)])
    def test_a_changed_tower_leaves_the_next_call_alone(self, p):
        first = twist_extract(p, 4, 20)
        want = {k: (g.coeffs, fraction_rows(first.f[k])) for k, g in first.g.items()}
        for k, g in first.g.items():
            g.num[:] = [7] * len(g.num)
            g.num.append(1)
            for row in first.f[k].rows:
                row[:] = [-1] * len(row)
            first.f[k].rows.append([1])
        again = twist_extract(p, 4, 20)
        assert {k: (g.coeffs, fraction_rows(again.f[k])) for k, g in again.g.items()} == want

    @pytest.mark.parametrize("max_twist, order", [(0, 12), (-1, 40), (5, 13), (3, 0)])
    def test_invalid_arguments_add_no_cache_entry(self, max_twist, order):
        partialwave._unit_tower.cache_clear()
        with pytest.raises(ValueError):
            twist_extract(PWParams(a0=1), max_twist, order)
        info = partialwave._unit_tower.cache_info()
        assert (info.currsize, info.misses) == (0, 0)

    def test_remainder_diagnostics(self):
        # feeding a non-family series must raise: fake it by breaking the
        # order-inflation precondition instead (too-small order)
        with pytest.raises(ValueError):
            twist_extract(PWParams(a0=1), 5, 8)

    def test_max_twist_below_one_rejected(self):
        with pytest.raises(ValueError):
            twist_extract(PWParams(a0=1), 0, 12)

    def test_B_enters_at_twist_eight(self):
        # the 2-point tail B^2 s^3 (1 + t^-4) starts at kappa = 4: the first
        # three profiles agree, the fourth differs
        p0 = PWParams(a0=1, a1=1, c=1)
        p1 = PWParams(a0=1, a1=1, c=1, B=3)
        t0 = twist_extract(p0, 4, 18)
        t1 = twist_extract(p1, 4, 18)
        for k in range(1, 4):
            assert t0.g[k].coeffs == t1.g[k].coeffs
        assert t0.g[4].coeffs != t1.g[4].coeffs


def f1_fraction_reference(p):
    """f1_rational's divided difference summed in Fraction arithmetic,
    then put over L t^3, L the lcm of the numerator's denominators."""
    x = MPoly.var(1, 0)
    a = x * assemble_P4(p).subs_poly([MPoly.zero(1), 1 - x])
    b = (1 - x) ** 3
    n = max(a.total_degree(), b.total_degree()) + 1
    ac = [a.coeff((i,)) for i in range(n)]
    bc = [b.coeff((i,)) for i in range(n)]
    e1 = 1 + S - T
    h = [MPoly.const(2, F(1)), e1]
    while len(h) < n:
        h.append(e1 * h[-1] - S * h[-2])
    num = MPoly.zero(2)
    for j in range(n):
        row = MPoly.zero(2)
        for i in range(j + 1, n):
            if c := ac[i] * bc[j] - ac[j] * bc[i]:
                row = row + c * h[i - j - 1]
        num = num + S**j * row
    if num.is_zero():
        return OverT(num, MPoly.const(2, F(1)))
    L = math.lcm(*(c.denominator for c in num.coefficients()))
    return OverT(num * L, T**3 * L)


class TestF1Rational:
    def test_matches_the_fraction_reference(self):
        rng = random.Random(26)
        for p in [PWParams(), *(rand_params(rng) for _ in range(200))]:
            got, want = f1_rational(p), f1_fraction_reference(p)
            for part in ("num", "den"):
                g, w = getattr(got, part), getattr(want, part)
                assert g.terms == w.terms
                assert all(type(c) is F for c in g.coefficients())

    def test_unit_directions(self):
        for nu, name in ((0, "a0"), (1, "a1"), (2, "a2")):
            f, j = f1_rational(PWParams.unit(name)), basis_j_small(nu)
            assert f.num * j.den == j.num * f.den

    def test_zero(self):
        assert f1_rational(PWParams()).num.is_zero()

    def test_keeps_its_t_cubed_denominator(self):
        # at a2 = 0 the numerator is divisible by t; the returned form is
        # still num / (c t^3), as f1_rational divides out no monomial
        p = PWParams(F(1), F(-4, 3), F(0), F(-5, 3), F(-5, 4), F(0))
        f1 = f1_rational(p)
        assert f1.den == 3 * MPoly.var(2, 1) ** 3
        assert all(e[1] >= 1 for e in f1.num.terms)

    def test_crossing_symmetry_weighted(self):
        # s12 f1 = t^-1 f1(s/t, 1/t) = f1, by evaluation at rational points
        rng = random.Random(14)
        f1 = f1_rational(rand_params(rng))
        for s, t in ((F(1, 3), F(2, 5)), (F(-2), F(7, 3)), (F(5, 4), F(-1, 2))):
            assert f1.eval([s / t, 1 / t]) / t == f1.eval([s, t])


def quotient_deriv(f, i):
    """(num, den) of the partial derivative of num/den by the quotient rule."""
    num, den = f
    return num.deriv(i) * den - num * den.deriv(i), den * den


def quotient_laplace(num, den):
    """s f_ss + t f_tt + (s + t - 1) f_st + 2 (f_s + f_t) of f = num/den,
    as (num, den), by the quotient rule and cross-multiplied sums."""
    fs, ft = quotient_deriv((num, den), 0), quotient_deriv((num, den), 1)
    terms = [
        (S, quotient_deriv(fs, 0)),
        (T, quotient_deriv(ft, 1)),
        (S + T - 1, quotient_deriv(fs, 1)),
        (2, fs),
        (2, ft),
    ]
    out = (MPoly.zero(2), MPoly.const(2, 1))
    for w, (n, d) in terms:
        out = (out[0] * d + w * n * out[1], out[1] * d)
    return out


class TestLaplace:
    def test_j_channels_harmonic(self):
        for nu in range(3):
            assert laplace_st(basis_j_small(nu)).num.is_zero()

    def test_s_not_harmonic(self):
        lap = laplace_st(OverT(S, MPoly.const(2, 1)))
        assert lap.num == 2 * lap.den

    @pytest.mark.parametrize("k", range(5))
    def test_matches_the_quotient_rule(self, k):
        rng = random.Random(40 + k)
        for _ in range(8):
            terms = {
                (rng.randint(0, 4), rng.randint(0, 4)): F(rng.randint(-9, 9), rng.randint(1, 5))
                for _ in range(rng.randint(1, 6))
            }
            f = OverT(MPoly(2, terms), F(rng.randint(1, 7), rng.choice((1, -1, 3))) * T**k)
            lap = laplace_st(f)
            num, den = quotient_laplace(f.num, f.den)
            assert lap.num * den == num * lap.den
            assert lap.den == f.den * T

    @pytest.mark.parametrize(
        "den", [S * T**3, S, T**3 + S, MPoly.zero(2)], ids=["s t^3", "s", "t^3 + s", "0"]
    )
    def test_denominator_must_be_c_t_to_the_k(self, den):
        with pytest.raises(ValueError):
            laplace_st(OverT(T, den))


class TestSolver:
    def test_j0_direction(self):
        tower = twist_extract(PWParams(a0=1), 1, 12)
        assert solve_structure_constants(tower.g[1], 1, 2) == [2, F(1, 3), F(1, 35)]

    def test_zero_series(self):
        zeros = PSeries([0] * 12, 1)
        assert solve_structure_constants(zeros, 1, 3) == [0, 0, 0, 0]

    def test_pure_c_twist4(self):
        tower = twist_extract(PWParams(c=1), 2, 14)
        assert solve_structure_constants(tower.g[2], 2, 1)[0] == 1

    def test_nonzero_constant_term_rejected(self):
        # g/u must be a power series: the solve reads g's numerators past the first
        for g in (PSeries([1] + [0] * 9, 1), PSeries([3, 0, 1] + [0] * 7, 6)):
            with pytest.raises(ValueError, match="constant term"):
                solve_structure_constants(g, 1, 3)

    def test_leaves_g_alone(self):
        # the substitution runs in place on a copy of g's numerators
        tower = twist_extract(PWParams(a0=1, a2=F(1, 3)), 3, 2 * 6 + 2 * 3 + 8)
        g = tower.g[3]
        num = list(g.num)
        sol = solve_structure_constants(g, 3, 6)
        assert g.num == num and solve_structure_constants(g, 3, 6) == sol

    @settings(max_examples=40)
    @given(
        st.integers(1, 4),
        st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 12)), min_size=1, max_size=4),
        st.integers(0, 3),
        st.integers(1, 4),
    )
    def test_recovers_the_coefficients_of_a_built_g(self, kappa, B, extra, scale):
        # g = u sum_l B_l u^(2l) F(2l+k, 2l+k; 4l+2k; u) to u^(top + 1), over
        # an unreduced denominator, solves back to the B_l
        top = 2 * len(B) - 2 + extra
        over_u = [F(0)] * (top + 1)
        for ell, b in enumerate(B):
            for n, c in enumerate(hypergeom_series(2 * ell + kappa, top - 2 * ell).coeffs):
                over_u[2 * ell + n] += b * c
        den = math.lcm(*(c.denominator for c in over_u)) * scale
        g = PSeries([0] + [int(c * den) for c in over_u], den)
        assert solve_structure_constants(g, kappa, len(B) - 1) == B

    def test_inconsistent_odd_power(self):
        g = PSeries([0, 1, 1] + [0] * 8, 1)  # g/u = 1 + u
        with pytest.raises(InconsistentExpansion):
            solve_structure_constants(g, 1, 3)

    def test_kappa_below_one_rejected(self):
        g = twist_extract(PWParams(a0=1), 1, 12).g[1]
        with pytest.raises(ValueError):
            solve_structure_constants(g, 0, 2)

    def test_negative_max_spin_rejected(self):
        g = twist_extract(PWParams(a0=1), 1, 12).g[1]
        with pytest.raises(ValueError):
            solve_structure_constants(g, 1, -1)

    def test_matches_closed_forms(self):
        rng = random.Random(15)
        for _ in range(4):
            p = rand_params(rng, with_B=True)
            tower = twist_extract(p, 3, 2 * 10 + 2 * 3 + 8)
            for kappa, top in ((1, 10), (2, 10), (3, 8)):
                sol = solve_structure_constants(tower.g[kappa], kappa, top)
                assert sol == [closed_form_B(kappa, l, p) for l in range(top + 1)]

    def test_shortest_series(self):
        # g.order == 2 max_spin + 1: g/u ends at u^(2 max_spin), and no
        # zero may be padded in at the odd power above it
        p = PWParams(a0=1)
        tower = twist_extract(p, 1, 8)
        assert tower.g[1].order == 9
        sol = solve_structure_constants(tower.g[1], 1, 4)
        assert sol == [closed_form_B(1, l, p) for l in range(5)]
        rng = random.Random(23)
        for kappa in (1, 2, 3):
            p = rand_params(rng, with_B=True)
            tower = twist_extract(p, kappa, 2 * kappa + 4)
            assert tower.g[kappa].order == 2 * 3 + 1
            sol = solve_structure_constants(tower.g[kappa], kappa, 3)
            assert sol == [closed_form_B(kappa, l, p) for l in range(4)]

    def test_outputs_are_fractions(self):
        # integer rows and numerators must not leak out as bare ints
        rng = random.Random(17)
        for with_B in (False, True):
            p = rand_params(rng, with_B)
            tower = twist_extract(p, 5, 2 * 6 + 2 * 5 + 8)
            for k in range(1, 6):
                coeffs = tower.g[k].coeffs + list(tower.f[k].coeffs.values())
                assert all(type(c) is F for c in coeffs)
            for k in range(1, 4):
                assert all(type(v) is F for v in solve_structure_constants(tower.g[k], k, 6))
        zeros = solve_structure_constants(PSeries([0] * 12, 1), 2, 4)
        assert zeros == [0] * 5 and all(type(v) is F for v in zeros)


class TestMeanField:
    def test_B_tail_is_the_generalized_free_field(self):
        # PWParams(B=1) is the disconnected B^2 term alone.  At kappa = 4 its
        # constants are the generalized-free-field ones 2 (4)_L^2/(L! (L+7)_L)
        # at spin L = 2l (Fitzpatrick-Kaplan, arXiv:1111.6972)
        tower = twist_extract(PWParams(B=1), 8, 2 * 10 + 2 * 8 + 8)
        assert not any(n for k in (1, 2, 3) for n in tower.g[k].num)
        sol = solve_structure_constants(tower.g[4], 4, 10)
        assert sol[:4] == [2, F(40, 9), F(350, 143), F(168, 221)]
        assert sol == [
            2 * pochhammer(4, 2 * l) ** 2 / (math.factorial(2 * l) * pochhammer(2 * l + 7, 2 * l))
            for l in range(11)
        ]
        for kappa in range(5, 9):
            assert all(x >= 0 for x in solve_structure_constants(tower.g[kappa], kappa, 10))

    def test_positivity_through_twist_eight(self):
        assert positivity_check(PWParams(B=1), solver_twist=8).admissible


class TestClosedForms:
    def test_spot_values(self):
        assert closed_form_B(1, 0, PWParams(a0=1)) == 2
        assert closed_form_B(2, 0, PWParams(c=1)) == 1
        p = PWParams(a0=1, a1=1, a2=1)
        assert closed_form_B(1, 1, p) == F(1, 3) + 2 + 2

    def test_matches_the_fraction_formulas(self):
        # the displayed forms evaluated in Fraction arithmetic, to spin 29
        rng = random.Random(18)
        for _ in range(6):
            a0, a1, a2, b, c, _ = astuple(p := rand_params(rng, with_B=True))
            for ell in range(30):
                assert closed_form_B(1, ell, p) == (
                    2 * a0 + 2 * ell * (2 * ell + 1) * (2 * a1 + (2 * ell - 1) * (ell + 1) * a2)
                ) / math.comb(4 * ell, 2 * ell)
                assert closed_form_B(2, ell, p) == (
                    ell * (2 * ell + 3) * ((ell + 1) * (2 * ell + 1) * a1 + 2 * b) + c
                ) / math.comb(4 * ell + 1, 2 * ell)
                assert closed_form_B(3, ell, p) == (
                    (ell + 1)
                    * (2 * ell + 3)
                    * ((ell + 2) * (2 * ell + 1) * (2 * a0 + a1) - 6 * b + 4 * c)
                    - c
                ) / (2 * math.comb(4 * ell + 3, 2 * ell + 1))
                assert all(type(closed_form_B(k, ell, p)) is F for k in (1, 2, 3))

    def test_no_closed_form_above_twist_six(self):
        with pytest.raises(ValueError):
            closed_form_B(4, 0, PWParams())


class TestPositivity:
    def test_gauge_boundary(self):
        assert positivity_check(PWParams(a1=1, b=F(1, 3))).admissible
        assert not positivity_check(PWParams(a1=1, b=1)).admissible
        assert positivity_check(PWParams(a1=1, b=-3)).admissible
        assert not positivity_check(PWParams(a1=1, b=F(-31, 10))).admissible

    def test_trivial_flag(self):
        rep = positivity_check(PWParams())
        assert rep.admissible and rep.trivial
        assert not positivity_check(PWParams(b=-4)).trivial
        assert not positivity_check(PWParams(a1=1, a2=-1, b=5)).trivial

    def test_negative_a0_rejected(self):
        # the sixth condition and B[1,0] fail too; the first named wins
        rep = positivity_check(PWParams(a0=-1))
        assert not rep.admissible
        assert rep.first_violation == "a0 >= 0"

    def test_solver_twist_finds_what_the_closed_forms_miss(self):
        # a2 = 1/3 passes the six conditions and the closed forms, yet at B = 0
        # B[5,0] < 0: the default verdict is wrong here, and this pins it
        assert positivity_check(PWParams(a2=F(1, 3))).admissible
        rep = positivity_check(PWParams(a2=F(1, 3)), solver_twist=8)
        assert not rep.admissible and rep.first_violation == "B[5,0] < 0"

    def test_stops_at_the_first_failure(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the solver ran after a failed condition")

        monkeypatch.setattr(partialwave, "twist_extract", unreachable)
        rep = positivity_check(PWParams(a0=-1), solver_twist=8)
        assert rep.first_violation == "a0 >= 0"

    def test_solver_scan_above_twist_six(self):
        rep = positivity_check(
            PWParams(a0=1, a1=1, B=1), scan_spin=2, solver_twist=4
        )
        assert rep.admissible

    def test_negative_scan_spin_rejected(self):
        with pytest.raises(ValueError):
            positivity_check(PWParams(a0=1, B=1), scan_spin=-1, solver_twist=4)


def _positive_params(a0, a1, a2, c, b_at_top):
    """A point that passes the six conditions, with b at an end of
    [-3 a1, (2 (2 a0 + a1) + 11 c / 3) / 6], where the conditions are tight."""
    hi = (2 * (2 * a0 + a1) + F(11, 3) * c) / 6
    return PWParams(a0, a1, a2, hi if b_at_top else -3 * a1, c)


def _all_closed_forms_nonnegative(p, max_ell=60):
    return all(closed_form_B(k, ell, p) >= 0 for k in (1, 2, 3) for ell in range(max_ell + 1))


nonnegative = st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=8, max_denominator=6))


class TestConditionsDecideTwistSix:
    """The six conditions imply every closed form B[kappa, ell] >= 0 for
    kappa <= 3 (the proof is in `positivity_check`), so the verdict needs
    no spin scan below twist 8."""

    @given(nonnegative, nonnegative, nonnegative, nonnegative, st.booleans())
    @settings(max_examples=120, deadline=None)
    @example(F(0), F(0), F(0), F(0), True)
    @example(F(0), F(1), F(0), F(0), False)
    @example(F(0), F(1), F(0), F(0), True)
    @example(F(0), F(0), F(1), F(1), True)
    def test_conditions_imply_the_closed_forms(self, a0, a1, a2, c, b_at_top):
        p = _positive_params(a0, a1, a2, c, b_at_top)
        assert positivity_check(p).admissible
        assert _all_closed_forms_nonnegative(p)

    def test_conditions_imply_the_closed_forms_seeded(self):
        rng = random.Random(24)
        r = lambda: F(rng.randint(0, 9), rng.randint(1, 5)) if rng.random() < 0.8 else F(0)
        for _ in range(60):
            p = _positive_params(r(), r(), r(), r(), rng.random() < 0.5)
            assert positivity_check(p).admissible
            assert _all_closed_forms_nonnegative(p)

    def test_spin_zero_identities(self):
        rng = random.Random(25)
        units = [PWParams.unit(k) for k in ("a0", "a1", "a2", "b", "c")]
        for p in units + [rand_params(rng) for _ in range(40)]:
            a0, a1, _, b, c, _ = astuple(p)
            assert closed_form_B(1, 0, p) == 2 * a0
            assert closed_form_B(2, 0, p) == c
            assert 6 * closed_form_B(3, 0, p) == 6 * (2 * a0 + a1 - 3 * b) + 11 * c

    @staticmethod
    def scanning_reference(p, scan_spin, solver_twist=0):
        """The verdict with the kappa <= 3 spin scan between the six
        conditions and the solver: (admissible, first_violation)."""
        failed = [name for name, expr in partialwave.NECESSARY_CONDITIONS if expr(p) < 0]
        failed += [
            f"B[{k},{ell}] < 0"
            for k in (1, 2, 3)
            for ell in range(scan_spin + 1)
            if closed_form_B(k, ell, p) < 0
        ]
        if not failed and solver_twist >= 4:
            order = partialwave.default_order(scan_spin, solver_twist)
            tower = twist_extract(p, solver_twist, order)
            failed = [
                f"B[{k},{ell}] < 0"
                for k in range(4, solver_twist + 1)
                for ell, v in enumerate(solve_structure_constants(tower.g[k], k, scan_spin))
                if v < 0
            ]
        return not failed, (failed[0] if failed else None)

    def test_same_verdicts_as_the_spin_scan(self):
        rng = random.Random(26)
        points = [rand_params(rng, with_B=i % 2) for i in range(1200)]
        r = lambda: F(rng.randint(0, 6), rng.randint(1, 3))
        # near the tight ends of b, on both sides
        for _ in range(800):
            p = _positive_params(r(), r(), r(), r(), rng.random() < 0.5)
            nudge = F(rng.choice((-1, 0, 1)), rng.randint(1, 50))
            points.append(PWParams(p.a0, p.a1, p.a2, p.b + nudge, p.c))
        admissible = 0
        for scan_spin in (0, 12, 20):
            for p in points:
                rep = positivity_check(p, scan_spin=scan_spin)
                assert (rep.admissible, rep.first_violation) == self.scanning_reference(p, scan_spin)
                admissible += rep.admissible
        assert 0 < admissible < 3 * len(points)

    def test_same_verdicts_with_the_solver(self):
        rng = random.Random(27)
        r = lambda: F(rng.randint(0, 6), rng.randint(1, 3))
        points = [rand_params(rng, with_B=True) for _ in range(12)]
        for i in range(24):
            p = _positive_params(r(), r(), r(), r(), rng.random() < 0.5)
            points.append(PWParams(*astuple(p)[:5], r() if i % 2 else 0))
        verdicts = set()
        for p in points:
            rep = positivity_check(p, scan_spin=4, solver_twist=8)
            assert (rep.admissible, rep.first_violation) == self.scanning_reference(p, 4, 8)
            verdicts.add(rep.admissible)
        assert verdicts == {True, False}


class TestKernel:
    def test_spot_values(self):
        assert kernel_coeff(1, 1, 0, 0) == 1
        assert kernel_coeff(1, 1, 1, 0) == F(1, 2)
        assert kernel_coeff(1, 1, 0, 1) == F(-1, 60)

    def test_quadrature_oracle(self):
        for kappa, ell in ((1, 0), (1, 1), (2, 0)):
            for m in range(4):
                for n in range(4):
                    exact = float(kernel_coeff(kappa, ell, m, n))
                    quad = kernel_coeff_quadrature(kappa, ell, m, n)
                    assert abs(exact - quad) < 1e-12

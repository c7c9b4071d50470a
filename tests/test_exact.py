"""Exact-arithmetic substrate tests: ring/field axioms, normalized
rational functions, truncated series, chiral expansion and q-series."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gcipw.exact import (
    MPoly,
    PSeries,
    QSeries,
    RatFn,
    Series2,
    divide_exact,
    geometric_block,
    series2_div_antisym,
    series2_div_unit,
)
from gcipw.exact.chiral import (
    back_substitute,
    expand_to_chiral,
    poly_to_chiral,
    symmetric_reduce,
)

rationals = st.builds(F, st.integers(-50, 50), st.integers(1, 9))


def poly2(draw_terms):
    return MPoly(2, {e: c for e, c in draw_terms.items() if c})


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.builds(F, st.integers(-9, 9), st.integers(1, 4)),
    max_size=5,
).map(poly2)


class TestRationals:
    @given(rationals, rationals, rationals)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    def test_normalization(self):
        x = F(6, -4)
        assert x.denominator > 0
        assert x == F(-3, 2)


class TestMPoly:
    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=40)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)

    def test_no_zero_coefficients_stored(self):
        p = MPoly(2, {(1, 0): F(1)}) - MPoly(2, {(1, 0): F(1)})
        assert p.terms == {}

    def test_divide_exact(self):
        u, v = MPoly.variables(2)
        q = divide_exact(u**3 - v**3, u - v, 0)
        assert q == u**2 + u * v + v**2
        with pytest.raises(ValueError):
            divide_exact(u**2 + v, u - v, 0)


class TestRatFn:
    def test_eq_identity(self):
        s, t = MPoly.variables(2)
        assert RatFn(s, t) == RatFn(s, t)

    def test_eq_common_factor(self):
        s, t = MPoly.variables(2)
        assert RatFn(s**2 * t, s * t) == RatFn(s)

    def test_eq_distinct(self):
        s, t = MPoly.variables(2)
        assert RatFn(1 + s, t) != RatFn(1 + t, t)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            RatFn(MPoly.var(2, 0)) == RatFn(MPoly.var(3, 0))

    def test_denominator_sign_canonical(self):
        s, t = MPoly.variables(2)
        f = RatFn(s, -t)
        lead = max(f.den.terms)
        assert f.den.terms[lead] > 0

    @given(rationals, rationals)
    def test_field_ops(self, a, b):
        s, t = MPoly.variables(2)
        f = RatFn(a * s + 1, t)
        g = RatFn(t + b, s + 1)
        assert (f + g) - g == f
        if not g.is_zero():
            assert (f / g) * g == f


class TestSeries2:
    def test_div_antisym_difference_of_squares(self):
        u, v = MPoly.variables(2)
        g = series2_div_antisym(Series2.from_poly(u**2 - v**2, 6))
        assert g == Series2.from_poly(u + v, 5)

    def test_div_antisym_linear(self):
        u, v = MPoly.variables(2)
        g = series2_div_antisym(Series2.from_poly(u - v, 6))
        assert g == Series2.const(5, 1)

    def test_div_antisym_cubic(self):
        # direct long division oracle: (u^3 v - u v^3)/(u - v) = uv(u + v)
        u, v = MPoly.variables(2)
        oracle = divide_exact(u**3 * v - u * v**3, u - v, 0)
        assert oracle == u * v * (u + v)
        g = series2_div_antisym(Series2.from_poly(u**3 * v - u * v**3, 8))
        assert g == Series2.from_poly(oracle, 7)

    def test_div_antisym_rejects_symmetric(self):
        u, v = MPoly.variables(2)
        with pytest.raises(ValueError):
            series2_div_antisym(Series2.from_poly(u + v, 6))

    @given(small_polys, small_polys)
    @settings(max_examples=30)
    def test_product_truncation_consistent(self, p, q):
        order = 5
        exact = Series2.from_poly(p * q, order)
        truncated = Series2.from_poly(p, order) * Series2.from_poly(q, order)
        assert exact == truncated

    def test_div_unit(self):
        u, v = MPoly.variables(2)
        one = MPoly.const(2, 1)
        f = Series2.from_poly(one - u * v, 8)
        g = series2_div_unit(Series2.const(8, 1), f)
        assert (g * f) == Series2.const(8, 1)
        with pytest.raises(ZeroDivisionError):
            series2_div_unit(Series2.const(4, 1), Series2.from_poly(u, 4))


class TestSymmetricReduce:
    def test_newton(self):
        u, v = MPoly.variables(2)
        e1, e2 = MPoly.variables(2)
        assert symmetric_reduce(u**2 + v**2) == e1**2 - 2 * e2

    def test_product(self):
        u, v = MPoly.variables(2)
        assert symmetric_reduce(u * v) == MPoly.var(2, 1)

    def test_cubic(self):
        # expand-and-compare oracle: e1^3 - 3 e1 e2 backsubstitutes to u^3+v^3
        u, v = MPoly.variables(2)
        e1, e2 = MPoly.variables(2)
        candidate = e1**3 - 3 * e1 * e2
        assert back_substitute(candidate) == u**3 + v**3
        assert symmetric_reduce(u**3 + v**3) == candidate

    def test_rejects_asymmetric(self):
        u, v = MPoly.variables(2)
        with pytest.raises(ValueError):
            symmetric_reduce(u**2 + v)

    @given(small_polys)
    @settings(max_examples=30)
    def test_roundtrip(self, p):
        sym = p + MPoly(2, {(b, a): c for (a, b), c in p.terms.items()})
        assert back_substitute(symmetric_reduce(sym)) == sym


class TestExpandToChiral:
    def test_s_becomes_uv(self):
        f = RatFn.var(2, 0)
        assert expand_to_chiral(f, 6) == Series2.from_poly(
            MPoly.var(2, 0) * MPoly.var(2, 1), 6
        )

    def test_inverse_t_geometric(self):
        # geometric-series product oracle: 1/t = sum_{a,b} u^a v^b
        f = 1 / RatFn.var(2, 1)
        expected = Series2(
            6, {(a, b): F(1) for a in range(7) for b in range(7 - a)}
        )
        assert expand_to_chiral(f, 6) == expected

    def test_t_polynomial(self):
        f = RatFn.var(2, 1)
        u, v = MPoly.variables(2)
        assert expand_to_chiral(f, 5) == Series2.from_poly((1 - u) * (1 - v), 5)

    def test_pole_at_origin(self):
        with pytest.raises(ZeroDivisionError):
            expand_to_chiral(1 / RatFn.var(2, 0), 4)

    @given(small_polys, small_polys)
    @settings(max_examples=20)
    def test_respects_products(self, p, q):
        s, t = MPoly.variables(2)
        f = RatFn(p, t**2)
        g = RatFn(q, t)
        order = 6
        lhs = expand_to_chiral(f * g, order)
        rhs = expand_to_chiral(f, order) * expand_to_chiral(g, order)
        assert lhs == rhs


class TestQSeries:
    def test_halfperiod_examples(self):
        q = QSeries({2: F(1)}, 20)
        assert q.halfperiod_substitute().coeffs == {1: F(-1)}
        const = QSeries({0: F(5)}, 20)
        assert const.halfperiod_substitute().coeffs == {0: F(5)}
        q2 = QSeries({4: F(1)}, 20)
        assert q2.halfperiod_substitute().coeffs == {2: F(1)}

    def test_halfperiod_rejects_half_integers(self):
        with pytest.raises(ValueError):
            QSeries({1: F(1)}, 10).halfperiod_substitute()

    def test_geometric_block(self):
        g = geometric_block(2, 1, F(1), 8)
        assert g.coeffs == {2: F(1), 4: F(1), 6: F(1), 8: F(1)}
        h = geometric_block(3, -1, F(1), 12)
        assert h.coeffs == {3: F(1), 6: F(-1), 9: F(1), 12: F(-1)}

    def test_eval_constant(self):
        val, bound = QSeries.const(F(1, 3), 10).eval(1.5j)
        assert abs(val - 1 / 3) < 1e-15

    def test_eval_geometric_closed_form(self):
        import cmath

        tau = 1j
        q = cmath.exp(2j * cmath.pi * tau)
        series = geometric_block(2, 1, F(1), 80)  # q/(1-q)
        val, bound = series.eval(tau)
        assert abs(val - q / (1 - q)) <= max(bound, 1e-15)

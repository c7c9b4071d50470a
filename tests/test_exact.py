"""Exact-arithmetic substrate tests: ring/field axioms, normalized
rational functions, v-graded series, chiral expansion and q-series."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gcipw.exact import (
    MPoly,
    PSeries,
    QSeries,
    RatFn,
    Series2,
    div_u_minus_v,
    divide_exact,
    lambert_series,
)
from gcipw.exact.chiral import chiral_slices, symmetric_reduce

rationals = st.builds(F, st.integers(-50, 50), st.integers(1, 9))


def poly2(draw_terms):
    return MPoly(2, {e: c for e, c in draw_terms.items() if c})


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.builds(F, st.integers(-9, 9), st.integers(1, 4)),
    max_size=5,
).map(poly2)


def poly3(coeffs):
    """Arity-3 polynomials with coefficients drawn from `coeffs`."""
    return st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        coeffs,
        max_size=4,
    ).map(lambda terms: MPoly(3, terms))


@st.composite
def same_ring_polys3(draw, n):
    """n arity-3 polynomials, all over int or all over Fraction coefficients."""
    coeffs = draw(
        st.sampled_from([st.integers(-3, 3), st.builds(F, st.integers(-3, 3), st.integers(1, 3))])
    )
    return [draw(poly3(coeffs)) for _ in range(n)]


def assert_invariant(p, arity):
    """No zero coefficient; every exponent a full-length nonnegative tuple."""
    assert p.arity == arity
    for e, c in p.terms.items():
        assert c
        assert type(e) is tuple and len(e) == arity and min(e) >= 0


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

    @given(same_ring_polys3(5), st.integers(0, 3), st.integers(0, 2))
    @settings(max_examples=60)
    def test_operations_keep_the_invariant(self, polys, k, i):
        p, q, *imgs = polys
        results = [
            p + q, p - q, p - p, -p, p * q, p * 3, p * F(-2, 3), p * 0,
            p**k, p.deriv(i), p.map_coeff(lambda c: c - 1), p.subs_poly(imgs),
        ]
        for r in results:
            assert_invariant(r, 3)
        assert p - q == p + (-q)

    @given(same_ring_polys3(4), st.lists(rationals, min_size=3, max_size=3))
    @settings(max_examples=40)
    def test_subs_poly_matches_evaluation(self, polys, x):
        p, *imgs = polys
        assert p.subs_poly(imgs).eval(x) == p.eval([g.eval(x) for g in imgs])

    def test_subs_poly_rejects_mixed_arity(self):
        x, _ = MPoly.variables(2)
        with pytest.raises(ValueError):
            x.subs_poly([MPoly.var(3, 0), MPoly.var(2, 1)])

    def test_constructor_validates_exponents(self):
        with pytest.raises(ValueError):
            MPoly(2, {(1,): F(1)})
        with pytest.raises(ValueError):
            MPoly(2, {(1, -1): F(1)})

    def test_pow_keeps_int_coefficients(self):
        p = MPoly(1, {(1,): 1, (0,): 1})  # x + 1 over the integers
        cube = p**3
        assert cube.terms == {(3,): 1, (2,): 3, (1,): 3, (0,): 1}
        assert all(type(c) is int for c in cube.terms.values())
        assert p**0 == MPoly.const(1, 1)

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


def graded(p, order, depth):
    """The first `depth` v-slices of a polynomial, slice j to u-degree order - j."""
    return Series2(
        [PSeries([p.coeff((i, j)) for i in range(order - j + 1)]) for j in range(depth)]
    )


class TestSeries2:
    def test_div_antisym_difference_of_squares(self):
        u, v = MPoly.variables(2)
        g = div_u_minus_v(graded(u**2 - v**2, 6, 4))
        assert g.coeffs == (u + v).terms
        assert [len(sl.coeffs) for sl in g.slices] == [6, 5, 4, 3]

    def test_div_antisym_linear(self):
        u, v = MPoly.variables(2)
        g = div_u_minus_v(graded(u - v, 6, 7))
        assert g.coeffs == {(0, 0): 1}

    def test_div_antisym_cubic(self):
        # direct long division oracle: (u^3 v - u v^3)/(u - v) = uv(u + v)
        u, v = MPoly.variables(2)
        oracle = divide_exact(u**3 * v - u * v**3, u - v, 0)
        assert oracle == u * v * (u + v)
        g = div_u_minus_v(graded(u**3 * v - u * v**3, 8, 5))
        assert g.coeffs == oracle.terms

    def test_div_antisym_rejects_symmetric(self):
        u, v = MPoly.variables(2)
        with pytest.raises(ValueError):
            div_u_minus_v(graded(u + v, 6, 3))


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
        assert candidate.subs_poly([u + v, u * v]) == u**3 + v**3
        assert symmetric_reduce(u**3 + v**3) == candidate

    def test_rejects_asymmetric(self):
        u, v = MPoly.variables(2)
        with pytest.raises(ValueError):
            symmetric_reduce(u**2 + v)

    @given(small_polys)
    @settings(max_examples=30)
    def test_roundtrip(self, p):
        u, v = MPoly.variables(2)
        sym = p + MPoly(2, {(b, a): c for (a, b), c in p.terms.items()})
        assert symmetric_reduce(sym).subs_poly([u + v, u * v]) == sym


class TestExpandToChiral:
    def test_s_becomes_uv(self):
        assert chiral_slices({(1, 0): F(1)}, 6, 7).coeffs == {(1, 1): 1}

    def test_inverse_t_geometric(self):
        # geometric-series product oracle: 1/t = sum_{a,b} u^a v^b
        expected = {(a, b): F(1) for a in range(7) for b in range(7 - a)}
        assert chiral_slices({(0, -1): F(1)}, 6, 7).coeffs == expected

    def test_t_polynomial(self):
        u, v = MPoly.variables(2)
        assert chiral_slices({(0, 1): F(1)}, 5, 6).coeffs == ((1 - u) * (1 - v)).terms

    def test_pole_at_origin(self):
        with pytest.raises(ZeroDivisionError):
            chiral_slices({(-1, 0): F(1)}, 4, 5)

    @given(small_polys, small_polys)
    @settings(max_examples=20)
    def test_respects_products(self, p, q):
        # f = p / t^2 and g = q / t: the product of the two expansions, as
        # polynomials, agrees with the expansion of f g on its entries
        order, depth = 6, 4
        f = chiral_slices({(a, b - 2): c for (a, b), c in p.terms.items()}, order, depth)
        g = chiral_slices({(a, b - 1): c for (a, b), c in q.terms.items()}, order, depth)
        fg = chiral_slices({(a, b - 3): c for (a, b), c in (p * q).terms.items()}, order, depth)
        product = MPoly(2, f.coeffs) * MPoly(2, g.coeffs)
        for j, sl in enumerate(fg.slices):
            for i in range(len(sl.coeffs)):
                assert fg[(i, j)] == product.coeff((i, j))


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
        g = lambert_series(0, [(2, 1)], 1, 8)
        assert g.coeffs == {2: F(1), 4: F(1), 6: F(1), 8: F(1)}
        h = lambert_series(0, [(3, 1)], -1, 12)
        assert h.coeffs == {3: F(1), 6: F(-1), 9: F(1), 12: F(-1)}

    def test_eval_constant(self):
        val, bound = QSeries({0: F(1, 3)}, 10).eval(1.5j)
        assert abs(val - 1 / 3) < 1e-15

    def test_eval_geometric_closed_form(self):
        import cmath

        tau = 1j
        q = cmath.exp(2j * cmath.pi * tau)
        series = lambert_series(0, [(2, 1)], 1, 80)  # q/(1-q)
        val, bound = series.eval(tau)
        assert abs(val - q / (1 - q)) <= max(bound, 1e-15)

"""Exact-arithmetic substrate tests: ring axioms, v-graded series, chiral
expansion and q-series."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from gcipw.exact import (
    MPoly,
    PSeries,
    QSeries,
    Series2,
    div_u_minus_v,
    lambert_series,
    unit_row,
)
from gcipw.exact.chiral import chiral_slices
from gcipw.exact.mpoly import MAX_EXP
from gcipw.exact.series import common_denominator
from gcipw.thermal import eisenstein_G

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

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            st.builds(F, st.integers(-9, 9), st.integers(1, 6)),
            max_size=6,
        ),
        st.lists(st.one_of(st.integers(-5, 5), rationals), min_size=3, max_size=3),
    )
    @example(terms={}, x=[F(1, 3), 2, 0])
    @example(terms={(3, 1, 0): F(1), (0, 2, 0): F(-1, 2), (0, 0, 0): F(5, 3)}, x=[0, F(-3, 7), 2])
    @settings(max_examples=80)
    def test_eval_matches_fraction_reference(self, terms, x):
        # the integer path: non-homogeneous polynomials, the zero polynomial,
        # mixed int/Fraction points and zero entries, over Fraction and int
        # coefficients
        p = MPoly(3, terms)
        for q in (p, p.map_coeff(lambda c: c.numerator)):
            got = q.eval(x)
            assert type(got) is F and got == ref_eval(q.terms, x)

    def test_repeated_eval_matches_the_reference(self):
        # the decoded terms are kept after the first eval and reused
        p = MPoly(3, {(3, 1, 0): F(1, 2), (0, 2, 0): -3, (0, 0, 0): F(5, 3), (1, 1, 1): 2})
        for x in ([F(1, 3), 2, 0], [F(-2, 7), F(5, 3), F(1, 2)], [1, 1, 1], [0, 0, F(9, 4)]):
            assert p.eval(x) == ref_eval(p.terms, x)
        bad = MPoly(2, {(1, 0): 0.5})
        for _ in range(2):
            with pytest.raises(TypeError):
                bad.eval([F(1), F(2)])

    def test_eval_rejects_non_rational_types(self):
        p = MPoly.var(2, 0) + 1
        for bad in (0.5, 1j, MPoly.var(2, 1)):
            with pytest.raises(TypeError):
                p.eval([bad, F(1)])
            with pytest.raises(TypeError):
                MPoly(2, {(1, 0): bad}).eval([F(1), F(2)])

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

    def test_subs_poly_keeps_the_coefficient_ring(self):
        u, v = MPoly.variables(2)
        images = [u + v, u - 2 * v]
        over_ints = u * u - 3 * u * v + 2
        got = over_ints.subs_poly(images)
        assert all(type(c) is int for c in got.coefficients())
        frac = over_ints.map_coeff(F).subs_poly(images)
        assert all(type(c) is F for c in frac.coefficients())
        assert got == frac == (u + v) ** 2 - 3 * (u + v) * (u - 2 * v) + 2

    def test_variables_and_absent_coefficients_are_ints(self):
        x, y = MPoly.variables(2)
        for p in (x, y, MPoly.var(2, 1)):
            assert [type(c) for c in p.coefficients()] == [int]
        assert x.coeff((1, 0)) == 1 and type(x.coeff((1, 0))) is int
        assert x.coeff((0, 1)) == 0 and type(x.coeff((0, 1))) is int
        assert type(MPoly(1, {(1,): F(1, 2)}).coeff((0,))) is int

    def test_int_scalars_keep_the_ring(self):
        x, y = MPoly.variables(2)
        for p in (1 - x, x - 1, x + 2, 2 + x * y, 3 * x, x * 0 + 5, MPoly.const(2, 7), x**0):
            assert p.coefficients() and all(type(c) is int for c in p.coefficients())
        assert (1 - x).terms == {(0, 0): 1, (1, 0): -1}
        assert 1 - x == MPoly(2, {(0, 0): F(1), (1, 0): F(-1)})

    def test_subs_poly_without_variables_raises(self):
        with pytest.raises(ValueError):
            MPoly(0, {(): 3}).subs_poly([])

    @given(same_ring_polys3(1), st.sets(st.integers(0, 2)), st.integers(0, 2))
    @settings(max_examples=40)
    def test_parity_split(self, polys, chosen, i):
        (p,) = polys
        even, odd = p.parity_split(chosen)
        assert even + odd == p
        for part, parity in ((even, 0), (odd, 1)):
            assert all(sum(e[j] for j in chosen) % 2 == parity for e in part.terms)
        # a factor odd in the chosen variables moves every term across
        x = MPoly.var(3, i)
        want = (odd * x, even * x) if i in chosen else (even * x, odd * x)
        assert (p * x).parity_split(chosen) == want


# -- a tuple-keyed reference for the packed-key kernels -----------------------------


def ref_add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_one(arity):
    return {(0,) * arity: F(1)}


def ref_pow(p, n, arity):
    out = ref_one(arity)
    for _ in range(n):
        out = ref_mul(out, p)
    return out


def ref_deriv(p, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in p.items() if e[i]}


def ref_eval(p, x):
    total = F(0)
    for e, c in p.items():
        for xi, k in zip(x, e):
            c *= xi**k
        total += c
    return total


def ref_subs(p, images, arity):
    out = {}
    for e, c in p.items():
        m = {(0,) * arity: c}
        for g, k in zip(images, e):
            m = ref_mul(m, ref_pow(g, k, arity))
        out = ref_add(out, m)
    return out


def termwise_subs(p, images):
    """subs_poly term by term: each monomial image multiplied out from the
    image powers, scaled by its coefficient and added up."""
    arity = images[0].arity
    out = MPoly.zero(arity)
    for e, c in p.terms.items():
        m = MPoly.const(arity, c)
        for g, k in zip(images, e):
            if k:
                m = m * g**k
        out = out + m
    return out


def sparse_terms(arity, max_exp=2, max_vars=2, max_terms=3):
    """Tuple-keyed term dicts with at most max_vars variables per monomial."""
    expo = st.dictionaries(st.integers(0, arity - 1), st.integers(1, max_exp), max_size=max_vars)
    return st.dictionaries(
        expo.map(lambda d: tuple(d.get(i, 0) for i in range(arity))),
        st.builds(F, st.integers(-4, 4), st.integers(1, 3)),
        max_size=max_terms,
    )


class TestPackedKeys:
    @pytest.mark.parametrize("arity, img_arity", [(2, 24), (24, 2)])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_kernels_match_tuple_reference(self, arity, img_arity, data):
        p, q = data.draw(st.lists(sparse_terms(arity), min_size=2, max_size=2))
        P, Q = MPoly(arity, p), MPoly(arity, q)
        p, q = ref_add({}, p), ref_add({}, q)
        assert P.terms == p
        assert (P + Q).terms == ref_add(p, q)
        assert (P - Q).terms == ref_add(p, q, -1)
        assert (P * Q).terms == ref_mul(p, q)
        k = data.draw(st.integers(0, 3))
        assert (P**k).terms == ref_pow(p, k, arity)
        i = data.draw(st.integers(0, arity - 1))
        assert P.deriv(i).terms == ref_deriv(p, i)
        x = data.draw(st.lists(rationals, min_size=arity, max_size=arity))
        assert P.eval(x) == ref_eval(p, x)
        image = sparse_terms(img_arity, 1, 2, 2)
        images = data.draw(st.lists(image, min_size=arity, max_size=arity))
        got = P.subs_poly([MPoly(img_arity, g) for g in images])
        assert got.terms == ref_subs(p, [ref_add({}, g) for g in images], img_arity)

    @pytest.mark.parametrize("ring", [int, F])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_horner_subs_matches_termwise(self, ring, data):
        # exponents up to 3, constant terms and variables that occur in no
        # term, over int and over Fraction coefficients
        coeffs = st.integers(-4, 4)
        if ring is F:
            coeffs = st.builds(F, coeffs, st.integers(1, 3))
        expo = st.tuples(*[st.integers(0, 3)] * 3, st.just(0))  # variable 3 never occurs
        p = MPoly(4, data.draw(st.dictionaries(expo, coeffs, max_size=6)))
        image = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), st.integers(-3, 3), max_size=3)
        images = [MPoly(3, g) for g in data.draw(st.lists(image, min_size=4, max_size=4))]
        got = p.subs_poly(images)
        assert got == termwise_subs(p, images)
        assert all(type(c) is ring for c in got.coefficients())
        assert MPoly.zero(4).subs_poly(images).terms == {}

    def test_subs_poly_exponent_past_the_field_raises(self):
        # the partial product y^(2 MAX_EXP) of x1 x2 sets a guard bit; one
        # more factor y^MAX_EXP would carry it into z and clear it
        y = MPoly(2, {(MAX_EXP, 0): 1})
        with pytest.raises(ValueError):
            MPoly(3, {(1, 1, 1): 1}).subs_poly([y, y, y])
        with pytest.raises(ValueError):
            MPoly(1, {(2,): 1}).subs_poly([y])
        assert MPoly(3, {(1, 0, 0): 1, (0, 0, 1): 2}).subs_poly([y, y, y]) == 3 * y

    @given(
        st.lists(st.tuples(st.integers(-3, 3), small_polys, small_polys), max_size=4),
        small_polys,
        small_polys,
    )
    @settings(max_examples=40)
    def test_sum_of_products(self, triples, p, q):
        want = MPoly.zero(2)
        for c, f, g in triples:
            want = want + c * f * g
        assert MPoly.sum_of_products(2, triples) == want
        # a sum that cancels to zero stores no term
        assert MPoly.sum_of_products(2, [(2, p, q), (-1, q, p), (-1, p, q)]).terms == {}

    def test_sum_of_products_rejects_mixed_arity(self):
        x = MPoly.var(2, 0)
        with pytest.raises(ValueError):
            MPoly.sum_of_products(2, [(1, x, MPoly.var(3, 0))])

    @pytest.mark.parametrize("i", [0, 1])
    def test_exponent_past_the_field_raises(self, i):
        def mono(k):
            return {tuple(k if j == i else 0 for j in range(2)): 1}

        with pytest.raises(ValueError):
            MPoly(2, mono(MAX_EXP + 1))
        x, top = MPoly(2, mono(1)), MPoly(2, mono(MAX_EXP))
        assert x**MAX_EXP == top
        with pytest.raises(ValueError):
            top * x
        with pytest.raises(ValueError):
            x ** (MAX_EXP + 1)

    @pytest.mark.parametrize("i", [-1, 2])
    def test_variable_index_out_of_range_raises(self, i):
        u = MPoly.var(2, 0)
        with pytest.raises(ValueError):
            MPoly.var(2, i)
        with pytest.raises(ValueError):
            u.deriv(i)
        with pytest.raises(ValueError):
            u.degree_in(i)

    def test_repr(self):
        p = MPoly(3, {(2, 0, 1): F(1, 2), (0, 1, 0): F(-3), (0, 0, 0): F(7), (1, 1, 1): F(2, 3)})
        assert repr(p) == "MPoly(1/2*x0^2*x2 + 2/3*x0*x1*x2 + -3*x1 + 7)"
        assert repr(MPoly.zero(2)) == "MPoly(0)"
        assert repr(MPoly.const(2, 5)) == "MPoly(5)"
        u, v = MPoly.variables(2)
        assert repr((u - v) ** 2) == "MPoly(1*x0^2 + -2*x0*x1 + 1*x1^2)"

    def test_repr_reads_the_terms_once(self, monkeypatch):
        # each read of `terms` unpacks every key, so one read keeps repr linear
        reads = []
        terms = MPoly.terms

        def counted(self):
            reads.append(1)
            return terms.fget(self)

        monkeypatch.setattr(MPoly, "terms", property(counted))
        u, v = MPoly.variables(2)
        repr((u + v + 1) ** 6)
        assert len(reads) == 1

    def test_terms_is_a_stable_read_only_view(self):
        u, v = MPoly.variables(2)
        p = (u + 2 * v) ** 2
        want = {(2, 0): 1, (1, 1): 4, (0, 2): 4}
        assert p.terms == want
        for _ in (p + u, p - p, p * p, p**3, -p, 3 * p, p.deriv(0), p.subs_poly([v, u])):
            assert p.terms == want
        with pytest.raises(TypeError):
            p.terms[(0, 0)] = F(1)


def ref_pseries(coeffs, length):
    """A plain {k: Fraction} reference, kept to x^(length-1) with no zeros."""
    return {k: F(c) for k, c in coeffs.items() if c and 0 <= k < length}


def to_pseries(coeffs, length, scale=1):
    """The reference as a PSeries over its least common denominator times
    `scale`, so scale > 1 gives an unreduced denominator."""
    den = math.lcm(*(c.denominator for c in coeffs.values())) * scale
    return PSeries([int(coeffs.get(k, 0) * den) for k in range(length)], den)


def assert_pseries(series, coeffs, length):
    """The integer form holds exactly the reference: a positive int den,
    int numerators, and Fractions on `coeffs`."""
    assert type(series.den) is int and series.den > 0
    assert all(type(n) is int for n in series.num)
    assert len(series.coeffs) == length and series.order == length - 1
    assert all(type(c) is F for c in series.coeffs)
    assert {k: c for k, c in enumerate(series.coeffs) if c} == coeffs


pseries_refs = st.tuples(
    st.dictionaries(st.integers(0, 9), st.builds(F, st.integers(-9, 9), st.integers(1, 12))),
    st.integers(1, 10),
    st.integers(1, 4),
)


class TestPSeriesIntegerForm:
    """Every PSeries operation against a plain {k: Fraction} reference."""

    @settings(max_examples=40)
    @given(pseries_refs)
    def test_constructor_and_access(self, a):
        coeffs, length, scale = a
        assert_pseries(to_pseries(coeffs, length, scale), ref_pseries(coeffs, length), length)

    def test_unreduced_denominator(self):
        half = PSeries([3, -6, 0, 2], 6)  # 1/2 - x + x^3/3, over 6
        assert half.coeffs == [F(1, 2), F(-1), F(0), F(1, 3)]
        assert PSeries([0, 0], 35).coeffs == [0, 0]


def to_series2(coeffs, order, depth, scale=1):
    """A {(i, j): Fraction} reference by its first `depth` v-slices, slice j
    to u-degree order - j, over its least common denominator times `scale`."""
    den = math.lcm(*(F(c).denominator for c in coeffs.values())) * scale
    rows = [[int(coeffs.get((i, j), 0) * den) for i in range(order - j + 1)] for j in range(depth)]
    return Series2(rows, den)


def graded(p, order, depth):
    """The first `depth` v-slices of a polynomial, slice j to u-degree order - j."""
    return to_series2(p.terms, order, depth)


class TestSeries2:
    def test_coeffs_over_one_denominator(self):
        g = Series2([[5, 10], [9], []], 30)
        assert g.coeffs == {(0, 0): F(1, 6), (1, 0): F(1, 3), (0, 1): F(3, 10)}
        assert all(type(c) is F for c in g.coeffs.values())
        assert Series2([[0, 0], [0]], 7).coeffs == {}

    def test_div_antisym_difference_of_squares(self):
        u, v = MPoly.variables(2)
        g = div_u_minus_v(graded(u**2 - v**2, 6, 4))
        assert g.coeffs == (u + v).terms
        assert [len(row) for row in g.rows] == [6, 5, 4, 3]

    def test_div_antisym_linear(self):
        u, v = MPoly.variables(2)
        g = div_u_minus_v(graded(u - v, 6, 7))
        assert g.coeffs == {(0, 0): 1}

    def test_div_antisym_cubic(self):
        # oracle by multiplying back: (u - v) q == u^3 v - u v^3
        u, v = MPoly.variables(2)
        num = u**3 * v - u * v**3
        q = MPoly(2, div_u_minus_v(graded(num, 8, 5)).coeffs)
        assert (u - v) * q == num
        assert q == u * v * (u + v)

    def test_div_antisym_rejects_symmetric(self):
        u, v = MPoly.variables(2)
        with pytest.raises(ValueError):
            div_u_minus_v(graded(u + v, 6, 3))

    @settings(max_examples=40)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 6), st.integers(0, 4)),
            st.builds(F, st.integers(-9, 9), st.integers(1, 12)),
        ),
        st.integers(1, 4),
    )
    def test_div_matches_a_fraction_reference(self, f, scale):
        # num = (u - v) f on Fraction dicts, over an unreduced denominator;
        # the quotient recovers f on every kept entry, over the same one
        order, depth = 7, 5
        num = {}
        for (i, j), c in f.items():
            num[(i + 1, j)] = num.get((i + 1, j), 0) + c
            num[(i, j + 1)] = num.get((i, j + 1), 0) - c
        series = to_series2(num, order, depth, scale)
        got = div_u_minus_v(series)
        assert got.den == series.den
        for j, row in enumerate(got.rows):
            want = {i: c for (i, jj), c in f.items() if jj == j and c and i < order - j}
            assert_pseries(PSeries(row, got.den), want, order - j)

    def test_div_cancels_to_zero(self):
        zero = Series2([[0, 0, 0], [0, 0]], 21)
        got = div_u_minus_v(zero)
        assert got.coeffs == {} and got.rows == [[0, 0], [0]]
        # u/2 - v/2 over the denominator 6 divides to 1/2
        half = Series2([[0, 3, 0], [-3, 0]], 6)
        assert div_u_minus_v(half).coeffs == {(0, 0): F(1, 2)}
        with pytest.raises(ValueError):
            div_u_minus_v(Series2([[0, 3, 0], [-1, 0]], 6))


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

    def test_mixed_terms_against_termwise_reference(self):
        # Fraction reference: (1-x)^b by repeated products with (1 - x) or
        # with the geometric series, then c u^a v^a (1-u)^b (1-v)^b term by term
        order, depth = 9, 4

        def unit(b):
            out = [F(1)] + [F(0)] * order
            factor = [F(1), F(-1)] if b >= 0 else [F(1)] * (order + 1)
            for _ in range(abs(b)):
                out = [sum((out[k - m] * f for m, f in enumerate(factor) if m <= k), F(0))
                       for k in range(order + 1)]
            return out

        terms = {(0, -3): F(1, 2), (2, 1): 3, (1, 0): F(-5, 6), (3, -1): 0,
                 (0, 2): F(7, 4), (1, -2): F(2, 9), (0, 0): -2}
        ref = {}
        for (a, b), c in terms.items():
            w = unit(b)
            for j in range(a, depth):
                for i in range(a, order - j + 1):
                    ref[(i, j)] = ref.get((i, j), F(0)) + c * w[j - a] * w[i - a]
        got = chiral_slices(terms, order, depth)
        assert [len(row) for row in got.rows] == [10, 9, 8, 7]
        assert type(got.den) is int and all(type(n) is int for row in got.rows for n in row)
        for j, row in enumerate(got.rows):
            for i, n in enumerate(row):
                assert F(n, got.den) == ref.get((i, j), 0)
        assert all(type(c) is F for c in got.coeffs.values())
        zero = chiral_slices({(2, 5): 0, (1, -1): F(0)}, order, depth)
        assert zero.coeffs == {}
        assert zero.rows == [[0] * (order - j + 1) for j in range(depth)]

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 12), st.integers(-7, 6)),
            st.one_of(st.just(0), st.integers(-30, 30), rationals),
            max_size=8,
        ),
        st.integers(0, 12),
        st.integers(0, 16),
        st.integers(1, 60),
    )
    @example({(9, -7): F(1, 3), (0, 6): 0, (2, -1): 5}, 6, 15, 4)  # a > depth and order
    @example({(1, 0): 0, (0, -3): F(0)}, 3, 2, 6)
    @settings(max_examples=120)
    def test_running_sums_match_termwise_expansion(self, terms, order, depth, den):
        # the term-by-term integer expansion: each c s^a t^b added to every
        # slice it reaches through the full rows of (1-x)^b
        def termwise(terms, den=1):
            scaled, D = common_denominator([F(c, den) for c in terms.values()])
            nums = [[0] * (order - j + 1) for j in range(depth)]
            for (a, b), c in zip(terms, scaled):
                w = unit_row(b, order)
                for j in range(a, min(depth, order + 1)):
                    for i in range(a, order - j + 1):
                        nums[j][i] += c * w[j - a] * w[i - a]
            return nums, D

        got = chiral_slices(terms, order, depth)
        assert (got.rows, got.den) == termwise(terms)
        ints = {key: F(c).numerator for key, c in terms.items()}
        got = chiral_slices(ints, order, depth, den)
        assert (got.rows, got.den) == termwise(ints, den)

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
        coeffs = fg.coeffs
        for j, row in enumerate(fg.rows):
            for i in range(len(row)):
                assert coeffs.get((i, j), 0) == product.coeff((i, j))


def ref_qseries(coeffs, max_exp):
    """A plain {key: Fraction} reference, kept to the window with no zeros."""
    return {k: F(c) for k, c in coeffs.items() if c and 0 <= k <= max_exp}


def to_qseries(coeffs, max_exp, scale=1):
    """The reference as a QSeries over its least common denominator times
    `scale`, so scale > 1 gives an unreduced denominator."""
    den = math.lcm(*(c.denominator for c in coeffs.values())) * scale
    return QSeries({k: int(c * den) for k, c in coeffs.items()}, den, max_exp)


def assert_matches(series, coeffs, max_exp):
    """The integer form holds exactly the reference: positive den, nonzero
    integer numerators, the same Fractions and window."""
    assert type(series.den) is int and series.den > 0
    assert all(type(n) is int and n for n in series.num.values())
    assert series.coeffs == coeffs and series.max_exp == max_exp


qseries_refs = st.tuples(
    st.dictionaries(st.integers(0, 14), st.builds(F, st.integers(-9, 9), st.integers(1, 12))),
    st.integers(0, 14),
    st.integers(1, 4),
)


class TestQSeries:
    def test_halfperiod_examples(self):
        q = QSeries({2: 1}, 1, 20)
        assert q.halfperiod_substitute().coeffs == {1: F(-1)}
        const = QSeries({0: 5}, 1, 20)
        assert const.halfperiod_substitute().coeffs == {0: F(5)}
        q2 = QSeries({4: 1}, 1, 20)
        assert q2.halfperiod_substitute().coeffs == {2: F(1)}

    def test_halfperiod_rejects_half_integers(self):
        with pytest.raises(ValueError):
            QSeries({1: 1}, 1, 10).halfperiod_substitute()

    def test_geometric_block(self):
        g = lambert_series(0, [(2, 1)], 1, 8)
        assert g.coeffs == {2: F(1), 4: F(1), 6: F(1), 8: F(1)}
        h = lambert_series(0, [(3, 1)], -1, 12)
        assert h.coeffs == {3: F(1), 6: F(-1), 9: F(1), 12: F(-1)}

    def test_eval_constant(self):
        val, bound = QSeries({0: 1}, 3, 10).eval(1.5j)
        assert abs(val - 1 / 3) < 1e-15

    def test_eval_geometric_closed_form(self):
        import cmath

        tau = 1j
        q = cmath.exp(2j * cmath.pi * tau)
        series = lambert_series(0, [(2, 1)], 1, 80)  # q/(1-q)
        val, bound = series.eval(tau)
        assert abs(val - q / (1 - q)) <= max(bound, 1e-15)

    def test_rejects_a_nonpositive_denominator(self):
        for den in (0, -3):
            with pytest.raises(ValueError):
                QSeries({2: 1}, den, 10)


WINDOW_TAUS = (0.1 + 1.2j, 0.45 + 0.9j, 1.1j)


def assert_same_window(got, want):
    """got and want hold the same series and window, down to the floats
    `eval` and `tail_bound` give."""
    assert (got.num, got.den, got.max_exp) == (want.num, want.den, want.max_exp)
    assert got.coeffs == want.coeffs
    assert all(got[k] == want[k] for k in range(-2, want.max_exp + 3))
    assert got == want and want == got
    for tau in WINDOW_TAUS:
        assert repr(got.eval(tau)) == repr(want.eval(tau)), tau
        assert repr(got.tail_bound(tau)) == repr(want.tail_bound(tau)), tau


class TestQSeriesWindows:
    """A `prefix` cut shares its series' storage and is cut by index; it must
    be exactly the series a fresh construction over its window gives."""

    SERIES = QSeries({3: 1, 5: -2, 6: 4, 9: -8}, 7, 10)

    def test_a_cut_shares_the_storage(self):
        s = self.SERIES
        for m in (-1, 2, 5, 8, 10, 14):
            cut = s.prefix(m)
            assert cut._keys is s._keys and cut._nums is s._nums and cut._peaks is s._peaks
            assert cut.prefix(m - 1)._nums is s._nums

    def test_nested_cuts(self):
        s = self.SERIES
        for a in range(-1, 12):
            for b in range(-1, a + 1):
                want = QSeries(s.num, s.den, min(b, s.max_exp))
                assert_same_window(s.prefix(a).prefix(b), want)

    def test_cuts_below_the_first_key_and_past_the_window(self):
        s = self.SERIES
        for m in (-3, 0, 2):
            low = s.prefix(m)
            assert low.num == {} and low.max_exp == m and low.eval(1j)[0] == 0
            assert_same_window(low, QSeries({}, s.den, m))
        # a cut never widens: past max_exp the coefficients are unknown
        for m in (10, 11, 13, 40):
            assert_same_window(s.prefix(m), s)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("tau", [0.6j, *WINDOW_TAUS])
    def test_the_bound_of_a_cut_past_the_window_holds(self, k, tau):
        # G_2k to q^5, asked for a window to q^40, keeps its own: the bound
        # is the uncut series', and G_2k to q^40 lies within it
        short = eisenstein_G(k, 5)
        value, bound = short.prefix(80).eval(tau)
        assert (value, bound) == short.eval(tau)
        assert abs(value - eisenstein_G(k, 40).eval(tau)[0]) <= bound

    @settings(max_examples=60)
    @given(qseries_refs, st.integers(-2, 16), st.integers(-2, 16))
    def test_a_cut_is_a_fresh_series(self, a, m, inner):
        coeffs, max_exp, scale = a
        s = to_qseries(coeffs, max_exp, scale)
        assert_same_window(s.prefix(m), QSeries(s.num, s.den, min(m, max_exp)))
        inner = min(inner, m)
        want = QSeries(s.num, s.den, min(inner, max_exp))
        assert_same_window(s.prefix(m).prefix(inner), want)


class TestQSeriesIntegerForm:
    """Every QSeries operation against a plain {key: Fraction} reference."""

    @settings(max_examples=60)
    @given(qseries_refs, qseries_refs)
    def test_add_and_sub(self, a, b):
        (ca, ma, sa), (cb, mb, sb) = a, b
        x, y = to_qseries(ca, ma, sa), to_qseries(cb, mb, sb)
        window = min(ma, mb)
        for sign, got in ((1, x + y), (-1, x - y)):
            want = {k: ca.get(k, 0) + sign * cb.get(k, 0) for k in {*ca, *cb}}
            assert_matches(got, ref_qseries(want, window), window)

    @settings(max_examples=40)
    @given(qseries_refs, st.builds(F, st.integers(-6, 6), st.integers(1, 6)))
    def test_negation_and_scaling(self, a, scalar):
        coeffs, max_exp, scale = a
        x = to_qseries(coeffs, max_exp, scale)
        assert_matches(-x, ref_qseries({k: -c for k, c in coeffs.items()}, max_exp), max_exp)
        want = ref_qseries({k: c * scalar for k, c in coeffs.items()}, max_exp)
        assert_matches(x * scalar, want, max_exp)
        assert_matches(scalar * x, want, max_exp)
        assert_matches(x * 3, ref_qseries({k: 3 * c for k, c in coeffs.items()}, max_exp), max_exp)

    @settings(max_examples=40)
    @given(qseries_refs)
    def test_halfperiod_substitute(self, a):
        coeffs, max_exp, scale = a
        x = to_qseries(coeffs, max_exp, scale)
        kept = ref_qseries(coeffs, max_exp)
        if any(k % 2 for k in kept):
            with pytest.raises(ValueError):
                x.halfperiod_substitute()
            return
        want = {k // 2: c * (-1) ** (k // 2) for k, c in kept.items()}
        assert_matches(x.halfperiod_substitute(), want, max_exp // 2)

    @settings(max_examples=40)
    @given(qseries_refs, st.integers(1, 4))
    def test_equality_across_denominators(self, a, other_scale):
        coeffs, max_exp, scale = a
        x, y = to_qseries(coeffs, max_exp, scale), to_qseries(coeffs, max_exp, other_scale)
        assert x == y and not x != y
        assert x.coeffs == y.coeffs
        bumped = dict(coeffs)
        bumped[max_exp] = bumped.get(max_exp, 0) + F(1, 7)
        assert x != to_qseries(bumped, max_exp, other_scale)
        # keys past the shorter window do not count
        assert x == to_qseries({**coeffs, max_exp + 1: F(5)}, max_exp + 1, other_scale)

    def test_unreduced_and_reduced_denominators(self):
        half = QSeries({2: 3, 4: -6}, 6, 10)  # (q - 2 q^2) / 2, over 6
        assert half.den == 6 and half == QSeries({2: 1, 4: -2}, 2, 10)
        assert half.coeffs == {2: F(1, 2), 4: F(-1)} and half[2] == F(1, 2)
        assert half[3] == 0 and half[4] == -1
        assert half != QSeries({2: 1, 4: -2}, 3, 10)

    def test_sums_that_cancel_to_zero(self):
        x = QSeries({0: 1, 3: -5, 8: 7}, 12, 10)
        y = QSeries({0: 2, 3: -10, 8: 14}, 24, 10)
        for zero in (x - y, x + -y, -x + y, x * 0, x * F(0)):
            assert_matches(zero, {}, 10)
            assert zero == QSeries({}, 1, 10)
            assert zero.eval(0.5j)[0] == 0

    def test_mixed_denominators(self):
        x = QSeries({2: 1, 4: 1}, 6, 10)  # 1/6, 1/6
        y = QSeries({2: 1, 6: 1}, 10, 8)  # 1/10, 1/10
        total = x + y
        assert total.den == 30 and total.max_exp == 8
        assert total.coeffs == {2: F(4, 15), 4: F(1, 6), 6: F(1, 10)}
        assert (x - y).coeffs == {2: F(1, 15), 4: F(1, 6), 6: F(-1, 10)}

    def test_rejects_a_float_scalar(self):
        with pytest.raises(TypeError):
            QSeries({2: 1}, 1, 10) * 0.5

    @settings(max_examples=40)
    @given(
        st.lists(st.tuples(st.integers(1, 7), st.integers(-20, 20)), max_size=5),
        st.sampled_from([1, -1]),
        st.builds(F, st.integers(-9, 9), st.integers(1, 12)),
        st.integers(0, 30),
    )
    def test_lambert_series(self, terms, sign, const, max_exp):
        want = {0: const}
        for n2, w in terms:
            for k in range(n2, max_exp + 1, n2):
                want[k] = want.get(k, 0) + w
                w *= sign
        got = lambert_series(const, terms, sign, max_exp)
        assert_matches(got, ref_qseries(want, max_exp), max_exp)
        assert got.den == const.denominator

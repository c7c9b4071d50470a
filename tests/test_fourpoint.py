"""The d = 4 crossing-symmetric family: bases, assembly, eigen-relations
and configuration-level values."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from gcipw.exact import MPoly
from gcipw.fourpoint import (
    EIGENVALUES,
    GAP_ORDERS,
    PWParams,
    assemble_P4,
    basis_J,
    basis_P4,
    basis_Q,
    basis_j_small,
    crossing_check,
    crossing_dimension,
    eigen_check,
    truncated_4pt_value,
)
from gcipw.kinematics import (
    DegenerateConfiguration,
    PointConfig,
    cross_ratios,
    random_config,
)

S, T = MPoly.variables(2)
ONE = MPoly.const(2, 1)


class TestBases:
    def test_J_values(self):
        assert basis_J(0).eval([F(1), F(1)]) == 6
        assert basis_J(1).eval([F(0), F(1)]) == 0
        assert basis_J(2).eval([F(0), F(0)]) == 1

    def test_Q_values(self):
        assert basis_Q(1).eval([F(1), F(1)]) == 3
        assert basis_Q(2).eval([F(1), F(1)]) == 3

    def test_Q_identity(self):
        assert basis_Q(1) - 2 * basis_Q(2) == (ONE - S - T) ** 2 - 4 * S * T

    def test_j_values(self):
        j0 = basis_j_small(0)
        for s in (F(0), F(1), F(-3, 2)):
            assert j0.eval([s, F(1)]) == 2
        j1 = basis_j_small(1)
        for t in (F(1, 3), F(2), F(-5, 4)):
            assert j1.eval([F(0), t]) == ((1 - t) / t) ** 2 * (1 + t)
        # direct evaluation of the displayed formula at (0, 1); the
        # bracket (1+s-t)^2 - s vanishes there, so the value is 0
        assert basis_j_small(2).eval([F(0), F(1)]) == 0

    def test_j_matches_the_displayed_formulas(self):
        def displayed(nu, s, t):
            if nu == 0:
                return 1 + 1 / t
            if nu == 1:
                return ((1 - t) / t) ** 2 * (1 + t - s) - 2 * s / t
            return (1 + 1 / t**3) * ((1 + s - t) ** 2 - s) - 3 * s * (1 - t) / t**3

        rng = random.Random(21)
        for _ in range(20):
            s = F(rng.randint(-9, 9), rng.randint(1, 6))
            t = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
            for nu in range(3):
                assert basis_j_small(nu).eval([s, t]) == displayed(nu, s, t)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            basis_J(3)
        with pytest.raises(ValueError):
            basis_Q(0)

    def test_built_once_and_left_unchanged(self):
        assert basis_J(1) is basis_J(1)
        assert basis_Q(2) is basis_Q(2)
        before = [dict(basis_J(nu).terms) for nu in range(3)]
        p = PWParams(a0=F(2, 3), a1=-1, a2=F(1, 2), b=F(-1, 3), c=5)
        first = assemble_P4(p)
        assert assemble_P4(p) == first
        assert [basis_J(nu).terms for nu in range(3)] == before
        # the displayed polynomials, built afresh
        s, t = S, T
        q1, q2 = ONE + s**2 + t**2, s + t + s * t
        j0 = s**2 * (1 + s) + t**2 * (1 + t) + s**2 * t**2 * (s + t)
        j1 = (
            s * (1 - s) * (1 - s**2)
            + t * (1 - t) * (1 - t**2)
            + s * t * ((s - t) * (s**2 - t**2) - 2 * q1)
        )
        j2 = (
            (ONE + t**3) * ((1 + s - t) ** 2 - s)
            - 3 * s * (1 - t)
            + s**3 * ((1 + t - s) ** 2 - t)
        )
        expected = (
            p.a0 * j0 + p.a1 * j1 + p.a2 * j2
            + s * t * (p.b * (q1 - 2 * q2) + p.c * q2)
        )
        assert first == expected


class TestAssemble:
    def test_zero(self):
        assert assemble_P4(PWParams()).is_zero()

    def test_basis_recovery(self):
        assert assemble_P4(PWParams(a0=1)) == basis_J(0)

    def test_b_direction(self):
        expected = S * T * (ONE - S - T) ** 2 - 4 * S**2 * T**2
        assert assemble_P4(PWParams(b=1)) == expected

    def test_linearity(self):
        rng = random.Random(0)

        def rand():
            return PWParams(
                *[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(5)]
            )

        p, q = rand(), rand()
        total = PWParams(
            p.a0 + q.a0, p.a1 + q.a1, p.a2 + q.a2, p.b + q.b, p.c + q.c
        )
        assert assemble_P4(total) == assemble_P4(p) + assemble_P4(q)

    def test_degree_bound(self):
        rng = random.Random(1)
        p = PWParams(*[F(rng.randint(-5, 5)) for _ in range(5)])
        assert assemble_P4(p).total_degree() <= 5

    @given(
        st.lists(
            st.one_of(st.integers(-9, 9), st.builds(F, st.integers(-40, 40), st.integers(1, 12))),
            min_size=5,
            max_size=5,
        )
    )
    @example([0, 0, 0, 0, 0])
    @example([3, -1, 0, 2, 7])
    @example([F(1, 2), F(-1, 3), F(5, 4), F(2, 7), 0])
    @settings(max_examples=60)
    def test_integer_form_matches_the_fraction_sum(self, values):
        # the parameters times the bases in Fraction arithmetic, term by term
        # and coefficient by coefficient, types included
        p = PWParams(*values)
        q1, q2 = basis_Q(1), basis_Q(2)
        want = (
            p.a0 * basis_J(0) + p.a1 * basis_J(1) + p.a2 * basis_J(2)
            + S * T * (p.b * (q1 - 2 * q2) + p.c * q2)
        )
        got = assemble_P4(p)
        assert got.terms == want.terms
        assert all(type(c) is F for c in got.coefficients())
        assert basis_P4() is basis_P4()
        assert all(type(c) is int for b in basis_P4() for c in b.coefficients())

    def test_negative_B_rejected(self):
        with pytest.raises(ValueError):
            PWParams(B=-1)

    @pytest.mark.parametrize("x", [0.1, 2.0, 1j])
    def test_inexact_parameters_rejected(self, x):
        for name in ("a0", "c", "B"):
            with pytest.raises(TypeError):
                PWParams(**{name: x})

    def test_exact_parameters_accepted(self):
        p = PWParams(a0=2, a1=F(1, 3), b="-1/4", B="0.5")
        assert (p.a0, p.a1, p.b, p.B) == (2, F(1, 3), F(-1, 4), F(1, 2))


class TestCrossing:
    def test_all_bases(self):
        for nu in range(3):
            assert crossing_check(basis_J(nu), 4)
        assert crossing_check(assemble_P4(PWParams(b=1)), 4)
        assert crossing_check(assemble_P4(PWParams(c=1)), 4)

    def test_random_parameters(self):
        rng = random.Random(2)
        for _ in range(5):
            p = PWParams(*[F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(5)])
            assert crossing_check(assemble_P4(p), 4)

    def test_asymmetric_rejected(self):
        assert not crossing_check(S, 4)

    def test_degree_above_bound_rejected(self):
        # no polynomial of degree above 2d - 3 is crossing symmetric
        assert crossing_check(S**6, 4) is False

    def test_d2_family(self):
        assert crossing_check(3 * (ONE + S + T), 2)

    def test_rejects_d_below_two(self):
        with pytest.raises(ValueError):
            crossing_check(ONE + S + T, 1)

    def test_rejects_non_bivariate(self):
        with pytest.raises(ValueError):
            crossing_check(MPoly.var(3, 0), 4)

    def test_dimension_count(self):
        assert crossing_dimension(2) == 1
        assert crossing_dimension(4) == 5
        assert crossing_dimension(5) == 8
        # closed form floor(d^2/3) = n(2d - 3n) on the stated band
        for n in range(0, 4):
            for d in range(max(2, 3 * n - 1), 3 * n + 2):
                assert crossing_dimension(d) == n * (2 * d - 3 * n)


class TestEigen:
    def test_eigen_data(self):
        for nu in range(3):
            lam, sigma, q = eigen_check(nu)
            assert lam == EIGENVALUES[nu]
            assert sigma == GAP_ORDERS[nu]
            assert q.total_degree() <= 5 - sigma


class TestValues:
    def test_zero_polynomial(self):
        cfg = random_config(random.Random(3), 4)
        assert truncated_4pt_value(MPoly.zero(2), cfg, 4) == 0

    def test_permutation_invariance(self):
        import itertools

        rng = random.Random(4)
        poly = assemble_P4(PWParams(a0=1, a1=F(1, 2), a2=2, b=F(-1, 3), c=1))
        cfg = random_config(rng, 4)
        base = truncated_4pt_value(poly, cfg, 4)
        for perm in itertools.permutations(range(4)):
            permuted = PointConfig([cfg.points[i] for i in perm])
            assert truncated_4pt_value(poly, permuted, 4) == base

    def test_d2_three_loop_sum(self):
        rng = random.Random(5)
        cfg = random_config(rng, 4)
        r = cfg.rho
        val = truncated_4pt_value(ONE + S + T, cfg, 2)
        loops = (
            1 / (r(0, 1) * r(1, 2) * r(2, 3) * r(0, 3))
            + 1 / (r(0, 2) * r(1, 2) * r(1, 3) * r(0, 3))
            + 1 / (r(0, 1) * r(0, 2) * r(1, 3) * r(2, 3))
        )
        assert val == loops

    def test_degenerate(self):
        cfg = PointConfig([(0, 0, 0, 0)] * 2 + [(1, 0, 0, 0), (0, 1, 0, 0)])
        with pytest.raises(DegenerateConfiguration):
            truncated_4pt_value(ONE, cfg, 4)

"""Point configurations, cross-ratios, the crossing action, random
configurations and the harmonic-polynomial dimension (the mode count
behind the thermal energy weights)."""

import random
from fractions import Fraction as F

import pytest

from gcipw.exact import MPoly
from gcipw.kinematics import (
    DegenerateConfiguration,
    PointConfig,
    cross_ratios,
    random_config,
    s3_action,
    vec4,
)
from gcipw.thermal import harmonic_dimension

E1 = (1, 0, 0, 0)
E2 = (0, 1, 0, 0)
E3 = (0, 0, 1, 0)
E4 = (0, 0, 0, 1)
ORIGIN = (0, 0, 0, 0)


class TestSquaredInterval:
    def test_unit(self):
        cfg = PointConfig([ORIGIN, E1])
        assert cfg.rho(0, 1) == 1

    def test_coincident(self):
        cfg = PointConfig([E1, E1])
        assert cfg.rho(0, 1) == 0

    def test_two_units(self):
        cfg = PointConfig([ORIGIN, E1, E2])
        assert cfg.rho(1, 2) == 2

    def test_symmetry_and_diagonal(self):
        rng = random.Random(3)
        cfg = random_config(rng, 3)
        assert cfg.rho(0, 1) == cfg.rho(1, 0)
        assert cfg.rho(2, 2) == 0

    def test_index_error(self):
        with pytest.raises(IndexError):
            PointConfig([E1]).rho(0, 1)


class TestIntegerForm:
    def test_rho_matches_direct_sum(self):
        rng = random.Random(21)
        for m in (2, 5, 8):
            cfg = random_config(rng, m)
            for i in range(m):
                for j in range(m):
                    direct = sum((a - b) ** 2 for a, b in zip(cfg.points[i], cfg.points[j]))
                    assert cfg.rho(i, j) == direct
                    assert cfg.int_rho[i][j] == cfg.scale**2 * direct

    def test_scale_is_lcm_of_denominators(self):
        cfg = PointConfig([(F(1, 4), 0, F(2, 3), 5), (F(-7, 6), 1, 0, F(1, 9))])
        assert cfg.scale == 36
        assert cfg.int_points == ((9, 0, 24, 180), (-42, 36, 0, 4))
        assert PointConfig([E1, E2]).scale == 1

    @pytest.mark.parametrize("x", [0.1, 1.0, 0.5j])
    def test_inexact_coordinates_rejected(self, x):
        with pytest.raises(TypeError):
            vec4(x, 0, 0, 0)
        with pytest.raises(TypeError):
            PointConfig([ORIGIN, (0, 0, x, 0)])

    def test_exact_coordinates_accepted(self):
        assert vec4(1, F(2, 3), "-5/7", "0.25") == (1, F(2, 3), F(-5, 7), F(1, 4))

    def test_equality_ignores_integer_form(self):
        cfg = random_config(random.Random(22), 6)
        sub = cfg.subset([4, 1, 3])
        direct = PointConfig([cfg.points[4], cfg.points[1], cfg.points[3]])
        # the subset keeps its parent's scale, a multiple of its own lcm
        assert sub.scale == cfg.scale and direct.scale <= sub.scale
        assert sub == direct and hash(sub) == hash(direct)
        assert all(sub.rho(i, j) == direct.rho(i, j) for i in range(3) for j in range(3))

    @pytest.mark.parametrize("m", [0, 1, 2, 6, 8])
    def test_table_is_the_mirrored_sum_of_squares(self, m):
        rng = random.Random(40 + m)
        pts = [[F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(4)] for _ in range(m)]
        if m > 2:
            pts[-1] = pts[0]  # a coincident pair, off the diagonal
        cfg = PointConfig(pts)
        ints = [[cfg.scale * c for c in p] for p in pts]
        assert len(cfg.int_rho) == m
        for i in range(m):
            assert cfg.int_rho[i][i] == 0
            for j in range(m):
                direct = sum((a - b) ** 2 for a, b in zip(ints[i], ints[j]))
                assert cfg.int_rho[i][j] == cfg.int_rho[j][i] == direct
        assert cfg.flat_rho == tuple(r for row in cfg.int_rho for r in row)

    @pytest.mark.parametrize(
        "indices",
        [[5, 0, 3, 1, 4, 2], [3], [2, 2, 4], []],
        ids=["permutation", "single", "repeated", "empty"],
    )
    def test_subset_relabels_the_parent_rows(self, indices):
        cfg = random_config(random.Random(23), 6)
        sub = cfg.subset(indices)
        assert sub.scale == cfg.scale
        assert sub.points == tuple(cfg.points[i] for i in indices)
        assert sub.int_points == tuple(cfg.int_points[i] for i in indices)
        assert sub.int_rho == tuple(tuple(cfg.int_rho[i][j] for j in indices) for i in indices)
        size = len(indices)
        assert sub.flat_rho == tuple(sub.int_rho[k // size][k % size] for k in range(size**2))


class TestCrossRatios:
    def test_unit_tetrad(self):
        cfg = PointConfig([ORIGIN, E1, E2, E3])
        cr = cross_ratios(cfg)
        assert (cr.s, cr.t) == (1, 1)

    def test_coincident_first_pair(self):
        cfg = PointConfig([ORIGIN, ORIGIN, E2, E3])
        cr = cross_ratios(cfg)
        assert (cr.s, cr.t) == (0, 1)

    def test_degenerate(self):
        cfg = PointConfig([ORIGIN, E1, ORIGIN, E3])
        with pytest.raises(DegenerateConfiguration):
            cross_ratios(cfg)

    def test_swap_12(self):
        rng = random.Random(5)
        for _ in range(10):
            cfg = random_config(rng, 4)
            cr = cross_ratios(cfg)
            swapped = PointConfig(
                [cfg.points[1], cfg.points[0], cfg.points[2], cfg.points[3]]
            )
            cr2 = cross_ratios(swapped)
            assert (cr2.s, cr2.t) == (cr.s / cr.t, 1 / cr.t)

    def test_translation_invariance(self):
        rng = random.Random(6)
        cfg = random_config(rng, 4)
        shift = (F(1, 3), F(-2), F(5, 2), F(7))
        moved = PointConfig(
            [tuple(a + b for a, b in zip(p, shift)) for p in cfg.points]
        )
        assert cross_ratios(moved) == cross_ratios(cfg)

    def test_rotation_invariance(self):
        # rational rotation in the (1,2)-plane preserves sums of squares
        rng = random.Random(7)
        cfg = random_config(rng, 4)
        c, s = F(3, 5), F(4, 5)

        def rot(p):
            return (c * p[0] - s * p[1], s * p[0] + c * p[1], p[2], p[3])

        assert cross_ratios(PointConfig([rot(p) for p in cfg.points])) == cross_ratios(cfg)


def random_poly(rng, d) -> MPoly:
    """A random polynomial in (s, t) of total degree at most 2d - 3."""
    w = 2 * d - 3
    terms = {}
    for _ in range(4):
        a = rng.randint(0, w)
        terms[a, rng.randint(0, w - a)] = F(rng.randint(-5, 5), rng.randint(1, 3))
    return MPoly(2, terms)


class TestS3Action:
    def test_d2_invariant_polynomial(self):
        s, t = MPoly.variables(2)
        f = 1 + s + t
        assert s3_action("s12", f, 2) == f
        assert s3_action("s23", f, 2) == f

    def test_involutions(self):
        rng = random.Random(9)
        for d in (2, 4):
            for _ in range(8):
                f = random_poly(rng, d)
                for gen in ("s12", "s23"):
                    assert s3_action(gen, s3_action(gen, f, d), d) == f

    def test_braid_relation(self):
        rng = random.Random(10)
        for d in (2, 4):
            f = random_poly(rng, d)
            g = f
            for _ in range(3):
                g = s3_action("s23", s3_action("s12", g, d), d)
            assert g == f

    def test_degree_above_bound_raises(self):
        # t^(2d-2) has no polynomial image: s12 sends it to t^(-1)
        s, t = MPoly.variables(2)
        for d in (2, 4):
            for gen in ("s12", "s23"):
                assert s3_action(gen, s ** (2 * d - 3), d).total_degree() <= 2 * d - 3
                with pytest.raises(ValueError):
                    s3_action(gen, t ** (2 * d - 2), d)
                with pytest.raises(ValueError):
                    s3_action(gen, 1 + s * t ** (2 * d - 3), d)

    def test_s23_substitution_oracle(self):
        # the definitions, by evaluation at rational points:
        # (s12 f)(s,t) = t^(2d-3) f(s/t, 1/t), (s23 f)(s,t) = s^(2d-3) f(1/s, t/s)
        rng = random.Random(12)
        points = [(F(3, 2), F(5, 7)), (F(-2, 3), F(4)), (F(7, 5), F(-1, 6))]
        for d in (2, 4):
            w = 2 * d - 3
            for f in [MPoly.var(2, 0) ** w] + [random_poly(rng, d) for _ in range(8)]:
                for s0, t0 in points:
                    assert s3_action("s12", f, d).eval([s0, t0]) == t0**w * f.eval([s0 / t0, 1 / t0])
                    assert s3_action("s23", f, d).eval([s0, t0]) == s0**w * f.eval([1 / s0, t0 / s0])

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            s3_action("s13", MPoly.const(2, 1), 4)


class TestHarmonicDimension:
    def test_constants(self):
        assert harmonic_dimension(0, 4) == 1

    def test_squares_in_four_dimensions(self):
        assert harmonic_dimension(2, 4) == 9
        for n in range(1, 21):
            assert harmonic_dimension(n - 1, 4) == n * n

    def test_six_dimensions(self):
        assert harmonic_dimension(1, 6) == 6

    def test_product_form(self):
        # cross-check against the energy-mean weight 2/(2 d0)! prod_i (n^2 - i^2)
        import math

        for d0, D in ((1, 4), (2, 6), (3, 8), (4, 10)):
            for n in range(d0, 15):
                prod = F(2, math.factorial(2 * d0))
                for i in range(d0):
                    prod *= n * n - i * i
                assert harmonic_dimension(n - d0, D) == prod


class TestRandomConfig:
    def test_reproducible_and_nondegenerate(self):
        a = random_config(random.Random(42), 6)
        b = random_config(random.Random(42), 6)
        assert a.points == b.points
        assert a.is_nondegenerate()

    def test_coordinate_ranges(self):
        cfg = random_config(random.Random(1), 4)
        for p in cfg.points:
            for c in p:
                assert abs(c) <= 9
                assert c.denominator in (1, 2, 3)

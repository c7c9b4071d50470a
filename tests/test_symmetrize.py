"""The symmetrization ansatz: patterns, truncated bilocal functions and
lambda fitting."""

import itertools
import random
from fractions import Fraction as F

import pytest

from gcipw.fourpoint import basis_J, basis_j_small, truncated_4pt_value
from gcipw.freefield import (
    l0_truncated_npoint,
    l1_truncated_npoint,
    v1_scalar_npoint,
    v1_weyl_npoint,
)
from gcipw.kinematics import PointConfig, cross_ratios, random_config
from gcipw.symmetrize import (
    NotSymmetrizable,
    double_factorial_odd,
    enumerate_patterns,
    fit_lambda,
    symmetrized_wt,
    w1_full,
    w1_truncated,
)


class TestPatterns:
    def test_counts(self):
        for n in range(1, 7):
            assert len(enumerate_patterns(n)) == double_factorial_odd(n)

    def test_n2_explicit(self):
        assert enumerate_patterns(2) == (
            ((0, 1), (2, 3)),
            ((0, 2), (1, 3)),
            ((0, 3), (1, 2)),
        )

    def test_constraints(self):
        for n in (3, 4):
            for pat in enumerate_patterns(n):
                firsts = [p[0] for p in pat]
                assert pat[0][0] == 0
                assert firsts == sorted(firsts)
                assert all(a < b for a, b in pat)
                assert sorted(x for p in pat for x in p) == list(range(2 * n))

    def test_n1(self):
        assert enumerate_patterns(1) == (((0, 1),),)

    def test_computed_once_per_n(self):
        # a shared tuple, so no caller can change what the next one reads
        assert enumerate_patterns(4) is enumerate_patterns(4)
        assert isinstance(enumerate_patterns(4), tuple)


class TestW1:
    def test_prefactor(self):
        rng = random.Random(0)
        cfg = random_config(rng, 4)
        pat = ((0, 1), (2, 3))
        val = w1_full(v1_scalar_npoint, cfg, pat)
        r = cfg.rho
        assert val == v1_scalar_npoint(cfg) / (r(0, 1) * r(2, 3)) ** 3

    def test_no_subtraction_below_four_pairs(self):
        rng = random.Random(1)
        cfg = random_config(rng, 6)
        pat = enumerate_patterns(3)[0]
        assert w1_truncated(3, v1_scalar_npoint, cfg, pat) == w1_full(
            v1_scalar_npoint, cfg, pat
        )

    def test_subtraction_removes_disconnected_part_at_n4(self):
        # the three pair-of-pairs products cancel exactly, leaving the
        # prefactored connected 8-point function; for a purely
        # disconnected input the truncated value is therefore zero
        from gcipw.freefield import v1_scalar_connected

        rng = random.Random(2)
        cfg = random_config(rng, 8)
        pat = enumerate_patterns(4)[0]
        val = w1_truncated(4, v1_scalar_npoint, cfg, pat)
        pref = F(1)
        for i, j in pat:
            pref /= cfg.rho(i, j) ** 3
        idx = [p for pair in pat for p in pair]
        assert val == pref * v1_scalar_connected(cfg.subset(idx))

        def disconnected_full(c):
            # full function of a bilocal whose connected part vanishes
            # above two blocks: only the pair products survive
            n = len(c) // 2
            if n == 2:
                return v1_scalar_connected(c)
            from gcipw.symmetrize import _all_partitions_min2

            total = F(0)
            for partition in _all_partitions_min2(list(range(n))):
                if any(len(part) != 2 for part in partition):
                    continue
                prod = F(1)
                for part in partition:
                    sub = [p for b in part for p in (2 * b, 2 * b + 1)]
                    prod *= v1_scalar_connected(c.subset(sub))
                total += prod
            return total

        assert w1_truncated(4, disconnected_full, cfg, pat) == 0

    def test_scalar_w1_equals_prefactored_j0(self):
        rng = random.Random(3)
        cfg = random_config(rng, 4)
        pat = ((0, 1), (2, 3))
        r = cfg.rho
        cr = cross_ratios(cfg)
        expected = (
            basis_j_small(0).eval([cr.s, cr.t])
            / (r(0, 2) * r(1, 3))
            / (r(0, 1) * r(2, 3)) ** 3
        )
        assert w1_full(v1_scalar_npoint, cfg, pat) == expected


class TestSymmetrizedWt:
    def test_zero_lambda(self):
        rng = random.Random(4)
        cfg = random_config(rng, 4)
        assert symmetrized_wt(2, F(0), v1_scalar_npoint, cfg) == 0

    def test_reproduces_J0_assembly(self):
        rng = random.Random(5)
        for _ in range(5):
            cfg = random_config(rng, 4)
            lhs = symmetrized_wt(2, F(1), v1_scalar_npoint, cfg)
            rhs = truncated_4pt_value(basis_J(0), cfg, 4)
            assert lhs == rhs

    def test_full_permutation_invariance_n2(self):
        rng = random.Random(6)
        cfg = random_config(rng, 4)
        base = symmetrized_wt(2, F(1), v1_scalar_npoint, cfg)
        for perm in itertools.permutations(range(4)):
            permuted = PointConfig([cfg.points[i] for i in perm])
            assert symmetrized_wt(2, F(1), v1_scalar_npoint, permuted) == base

    def test_full_permutation_invariance_n3_sampled(self):
        rng = random.Random(7)
        cfg = random_config(rng, 6)
        base = symmetrized_wt(3, F(1), v1_weyl_npoint, cfg)
        perms = [
            (1, 0, 2, 3, 4, 5),
            (0, 2, 1, 3, 4, 5),
            (5, 1, 2, 3, 4, 0),
            (3, 4, 5, 0, 1, 2),
        ]
        for perm in perms:
            permuted = PointConfig([cfg.points[i] for i in perm])
            assert symmetrized_wt(3, F(1), v1_weyl_npoint, permuted) == base


class TestFitLambda:
    def _ref(self, nu):
        J = basis_J(nu)
        return lambda cfg: truncated_4pt_value(J, cfg, 4)

    def test_channel_lambdas(self):
        rng = random.Random(8)
        configs = [random_config(rng, 4) for _ in range(4)]
        lam0 = fit_lambda(2, self._ref(0), v1_scalar_npoint, configs)
        lam1 = fit_lambda(2, self._ref(1), v1_weyl_npoint, configs)

        def pw2(cfg):
            cr = cross_ratios(cfg)
            return basis_j_small(2).eval([cr.s, cr.t]) / (cfg.rho(0, 2) * cfg.rho(1, 3))

        lam2 = fit_lambda(2, self._ref(2), pw2, configs)
        assert (lam0, lam1, lam2) == (1, 1, F(1, 2))

    def test_n3_ratio_constancy(self):
        rng = random.Random(9)
        configs = [random_config(rng, 6) for _ in range(3)]
        lam = fit_lambda(3, l1_truncated_npoint, v1_weyl_npoint, configs)
        assert lam == 2

    def test_n3_scalar_channel(self):
        rng = random.Random(10)
        configs = [random_config(rng, 6) for _ in range(3)]
        lam = fit_lambda(3, l0_truncated_npoint, v1_scalar_npoint, configs)
        assert lam == 1

    def test_zero_reference(self):
        rng = random.Random(11)
        configs = [random_config(rng, 4) for _ in range(3)]
        with pytest.raises(ValueError):
            fit_lambda(2, lambda c: F(0), v1_scalar_npoint, configs)

    def test_nonconstant_ratio(self):
        rng = random.Random(12)
        configs = [random_config(rng, 4) for _ in range(4)]
        # a reference that is not proportional to the symmetrized sum
        ref = lambda c: c.rho(0, 1)
        with pytest.raises(NotSymmetrizable):
            fit_lambda(2, ref, v1_scalar_npoint, configs)

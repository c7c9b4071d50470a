"""The symmetrization ansatz: patterns, truncated bilocal functions and
lambda fitting."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from gcipw.exact import chain_trace
from gcipw.fourpoint import basis_J, basis_j_small, truncated_4pt_value
from gcipw.freefield import (
    l0_truncated_npoint,
    l1_truncated_npoint,
    links_of,
    orbit_enumerate,
    slash,
    v1_scalar_connected,
    v1_weyl_connected,
)
from gcipw.kinematics import (
    DegenerateConfiguration,
    PointConfig,
    cross_ratios,
    random_config,
    vsub,
)
from gcipw.symmetrize import (
    NotSymmetrizable,
    double_factorial_odd,
    enumerate_patterns,
    fit_lambda,
    symmetrized_wt,
)


# -- the cumulant round trip, kept as the reference ------------------------------


def partitions_min2(blocks):
    """All partitions (including the trivial one) with parts of size >= 2."""
    if not blocks:
        yield []
        return
    first, rest = blocks[0], blocks[1:]
    for k in range(1, len(rest) + 1):
        for mates in itertools.combinations(rest, k):
            remaining = [b for b in rest if b not in mates]
            for tail in partitions_min2(remaining):
                yield [[first, *mates]] + tail


def full_from(conn_eval):
    """The full 2n-point function: products of connected functions over
    the partitions of the blocks into parts of at least two."""

    def full(config):
        total = F(0)
        for partition in partitions_min2(list(range(len(config) // 2))):
            prod = F(1)
            for part in partition:
                idx = [p for b in part for p in (2 * b, 2 * b + 1)]
                prod *= conn_eval(config.subset(idx))
            total += prod
        return total

    return full


# -- the per-walk Wick enumeration, kept as the reference of l1 and l0 -----------


def walks(m):
    """Each (closed cycle (0, ..., 0), parity) of the composite loops: the
    directed Hamiltonian cycles from point 0, each with both kinds of
    first edge; there are 2 (m-1)!."""
    for tail in itertools.permutations(range(1, m)):
        for parity in (0, 1):
            yield (0, *tail, 0), parity


def propagator_tables(cfg):
    """The psi and chi contractions on the integer form, keyed (field
    vertex, conjugate vertex): (slash+ or slash of the difference, sign
    flipped when the conjugate's slot comes first, and rho^2 or rho^3)."""
    pts, rho = cfg.int_points, cfg.int_rho
    return [
        {
            (a, b): (slash(vsub(pts[a], pts[b]), conj) * (1 if a < b else -1), rho[a][b] ** power)
            for a, b in itertools.permutations(range(len(cfg)), 2)
        }
        for conj, power in ((True, 2), (False, 3))
    ]


def l1_walk_terms(cfg):
    """The terms of the fermionic Wick sum on the integer form, one per
    walk: loop sign -(-1)^descents times the trace over the weights."""
    tables = propagator_tables(cfg)
    out = Counter()
    for cyc, parity in walks(len(cfg)):
        steps = list(zip(cyc, cyc[1:]))
        quats, weights = zip(*(tables[(k + parity) % 2][step] for k, step in enumerate(steps)))
        sign = -((-1) ** sum(b < a for a, b in steps))
        out[F(sign * chain_trace(quats), math.prod(weights))] += 1
    return out


def l0_walk_terms(cfg):
    """The scalar composite's terms on the integer form: each undirected
    cycle once (the two-point cycle is its own reverse), 1/rho and 1/rho^3
    alternating from either kind."""
    rho = cfg.int_rho
    out = Counter()
    for cyc, parity in walks(len(cfg)):
        if cyc[1] <= cyc[-2]:
            weights = [rho[a][b] ** (3 if (k + parity) % 2 else 1)
                       for k, (a, b) in enumerate(zip(cyc, cyc[1:]))]
            out[F(1, math.prod(weights))] += 1
    return out


def w1(v1_eval, config, pattern):
    """w1 of one pattern: v1_eval on the pattern's points over the cubed
    intervals of its pairs, from the Fraction intervals; a coincident
    pair raises DegenerateConfiguration from `PointConfig.pole`."""
    pole = F(config.pole(pattern), config.scale ** (2 * len(pattern)))
    return v1_eval(config.subset([p for pair in pattern for p in pair])) / pole**3


def w1_truncated_reference(n, v1_eval, config, pattern):
    """w1 of the full function v1_eval, with the products over the
    partitions of the n pairs into groups of at least two subtracted."""
    total = w1(v1_eval, config, pattern)
    for partition in partitions_min2(list(range(n))):
        if len(partition) == 1:
            continue
        prod = F(1)
        for part in partition:
            sub_pattern = tuple(pattern[k] for k in part)
            prod *= w1_truncated_reference(len(part), v1_eval, config, sub_pattern)
        total -= prod
    return total


CONNECTED = {"scalar": v1_scalar_connected, "weyl": v1_weyl_connected}


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
        val = w1(v1_scalar_connected, cfg, pat)
        r = cfg.rho
        assert val == v1_scalar_connected(cfg) / (r(0, 1) * r(2, 3)) ** 3

    def test_no_subtraction_below_four_pairs(self):
        rng = random.Random(1)
        cfg = random_config(rng, 6)
        pat = enumerate_patterns(3)[0]
        full = full_from(v1_scalar_connected)
        assert w1_truncated_reference(3, full, cfg, pat) == w1(full, cfg, pat)
        # below eight points the full function is the connected one
        assert full(cfg) == v1_scalar_connected(cfg)

    def test_subtraction_removes_disconnected_part_at_n4(self):
        # the three pair-of-pairs products cancel exactly, leaving the
        # prefactored connected 8-point function; for a purely
        # disconnected input the truncated value is therefore zero
        rng = random.Random(2)
        cfg = random_config(rng, 8)
        pat = enumerate_patterns(4)[0]
        val = w1_truncated_reference(4, full_from(v1_scalar_connected), cfg, pat)
        pref = F(1)
        for i, j in pat:
            pref /= cfg.rho(i, j) ** 3
        idx = [p for pair in pat for p in pair]
        assert val == pref * v1_scalar_connected(cfg.subset(idx))

        def pairs_only(c):
            # a connected part that vanishes above two blocks
            return v1_scalar_connected(c) if len(c) == 4 else F(0)

        assert w1_truncated_reference(4, full_from(pairs_only), cfg, pat) == 0

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind", sorted(CONNECTED))
    def test_connected_w1_equals_truncated_reference(self, kind, n):
        # the prefactor is a product over the pairs, so truncating w1 of
        # the full function gives w1 of the connected one, pattern by pattern
        conn = CONNECTED[kind]
        full = full_from(conn)
        cfg = random_config(random.Random(20 + n), 2 * n)
        for pat in enumerate_patterns(n):
            assert w1(conn, cfg, pat) == w1_truncated_reference(n, full, cfg, pat)

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
        assert w1(v1_scalar_connected, cfg, pat) == expected

    def test_coincident_pattern_pair_raises(self):
        # points 0 and 1 coincide: a pattern that pairs them has a zero
        # prefactor pole, and one that splits them does not
        cfg = PointConfig([(0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 0, 0)])
        with pytest.raises(DegenerateConfiguration):
            w1(lambda c: F(1), cfg, ((0, 1), (2, 3)))
        assert w1(lambda c: F(1), cfg, ((0, 2), (1, 3))) == F(1, 64)  # 1 / (rho02 rho13)^3
        # every pair is in some pattern, so the sum raises before any division
        with pytest.raises(DegenerateConfiguration):
            symmetrized_wt(2, F(1), lambda c: F(1), cfg)


class TestSymmetrizedWt:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", sorted(CONNECTED))
    def test_sum_of_pattern_w1s(self, kind, n):
        # one integer sum over one denominator against one Fraction per pattern
        cfg = random_config(random.Random(110 + n), 2 * n)
        assert cfg.scale > 1
        lam = F(-5, 3)
        expected = lam * sum(w1(CONNECTED[kind], cfg, pat) for pat in enumerate_patterns(n))
        assert symmetrized_wt(n, lam, CONNECTED[kind], cfg) == expected

    def test_zero_lambda(self):
        rng = random.Random(4)
        cfg = random_config(rng, 4)
        assert symmetrized_wt(2, F(0), v1_scalar_connected, cfg) == 0

    def test_reproduces_J0_assembly(self):
        rng = random.Random(5)
        for _ in range(5):
            cfg = random_config(rng, 4)
            lhs = symmetrized_wt(2, F(1), v1_scalar_connected, cfg)
            rhs = truncated_4pt_value(basis_J(0), cfg, 4)
            assert lhs == rhs

    def test_full_permutation_invariance_n2(self):
        rng = random.Random(6)
        cfg = random_config(rng, 4)
        base = symmetrized_wt(2, F(1), v1_scalar_connected, cfg)
        for perm in itertools.permutations(range(4)):
            permuted = PointConfig([cfg.points[i] for i in perm])
            assert symmetrized_wt(2, F(1), v1_scalar_connected, permuted) == base

    def test_full_permutation_invariance_n3_sampled(self):
        rng = random.Random(7)
        cfg = random_config(rng, 6)
        base = symmetrized_wt(3, F(1), v1_weyl_connected, cfg)
        perms = [
            (1, 0, 2, 3, 4, 5),
            (0, 2, 1, 3, 4, 5),
            (5, 1, 2, 3, 4, 0),
            (3, 4, 5, 0, 1, 2),
        ]
        for perm in perms:
            permuted = PointConfig([cfg.points[i] for i in perm])
            assert symmetrized_wt(3, F(1), v1_weyl_connected, permuted) == base


class TestFitLambda:
    def _ref(self, nu):
        J = basis_J(nu)
        return lambda cfg: truncated_4pt_value(J, cfg, 4)

    def test_channel_lambdas(self):
        rng = random.Random(8)
        configs = [random_config(rng, 4) for _ in range(4)]
        lam0 = fit_lambda(2, self._ref(0), v1_scalar_connected, configs)
        lam1 = fit_lambda(2, self._ref(1), v1_weyl_connected, configs)

        def pw2(cfg):
            cr = cross_ratios(cfg)
            return basis_j_small(2).eval([cr.s, cr.t]) / (cfg.rho(0, 2) * cfg.rho(1, 3))

        lam2 = fit_lambda(2, self._ref(2), pw2, configs)
        assert (lam0, lam1, lam2) == (1, 1, F(1, 2))

    def test_n3_ratio_constancy(self):
        rng = random.Random(9)
        configs = [random_config(rng, 6) for _ in range(3)]
        lam = fit_lambda(3, l1_truncated_npoint, v1_weyl_connected, configs)
        assert lam == 2

    def test_n3_scalar_channel(self):
        rng = random.Random(10)
        configs = [random_config(rng, 6) for _ in range(3)]
        lam = fit_lambda(3, l0_truncated_npoint, v1_scalar_connected, configs)
        assert lam == 1

    def test_zero_reference(self):
        rng = random.Random(11)
        configs = [random_config(rng, 4) for _ in range(3)]
        with pytest.raises(ValueError):
            fit_lambda(2, lambda c: F(0), v1_scalar_connected, configs)

    def test_nonconstant_ratio(self):
        rng = random.Random(12)
        configs = [random_config(rng, 4) for _ in range(4)]
        # a reference that is not proportional to the symmetrized sum
        ref = lambda c: c.rho(0, 1)
        with pytest.raises(NotSymmetrizable):
            fit_lambda(2, ref, v1_scalar_connected, configs)


class TestWhyLambda:
    """The (pattern, block cycle, orientation) triples of the symmetrized
    sum are the (cycle, parity) walks of the composites' Wick sums, term
    by term; on the integer form of a configuration both sides are plain
    integer ratios, so the terms are compared as multisets."""

    @staticmethod
    def triples(cfg, weyl):
        n = len(cfg) // 2
        pts, rho = cfg.int_points, cfg.int_rho
        out = Counter()
        for pat in enumerate_patterns(n):
            flat = [p for pair in pat for p in pair]
            pref = math.prod(rho[i][j] ** 3 for i, j in pat)
            for seq in orbit_enumerate(n):
                s = [flat[k] for k in seq]
                links = links_of(s)
                if not weyl:
                    out[F(1, pref * math.prod(rho[i][j] for i, j in links))] += 1
                    continue
                den = pref * math.prod(rho[i][j] ** 2 for i, j in links)
                diffs = [vsub(pts[a], pts[b]) for a, b in zip(s, s[1:] + s[:1])]
                fwd = [slash(d, conjugate=(k % 2 == 1)) for k, d in enumerate(diffs)]
                for chain in (fwd, [fwd[0]] + fwd[1:][::-1]):
                    out[F(-chain_trace(chain), den)] += 1
        return out

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_weyl_triples_are_l1_walks(self, n):
        cfg = random_config(random.Random(30 + n), 2 * n)
        terms = self.triples(cfg, weyl=True)
        assert sum(terms.values()) == 2 * math.factorial(2 * n - 1)
        assert terms == l1_walk_terms(cfg)
        # the terms are those of the two sides of c08, on the integer form
        ints = PointConfig(cfg.int_points)
        total = sum(t * k for t, k in terms.items())
        assert total == 2 * symmetrized_wt(n, F(1), v1_weyl_connected, ints)
        assert total == l1_truncated_npoint(ints)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_scalar_triples_are_l0_walks(self, n):
        cfg = random_config(random.Random(40 + n), 2 * n)
        terms = self.triples(cfg, weyl=False)
        assert sum(terms.values()) == math.factorial(2 * n - 1)
        assert terms == l0_walk_terms(cfg)
        ints = PointConfig(cfg.int_points)
        total = sum(t * k for t, k in terms.items())
        assert total == symmetrized_wt(n, F(1), v1_scalar_connected, ints)
        assert total == l0_truncated_npoint(ints)

    def test_scalar_ratio_is_one_at_n5(self):
        # the scalar composite equals the ansatz with lambda_5 = 1: 945
        # patterns of 384 pole structures each, about 1 s on one core
        cfg = random_config(random.Random(130), 10)
        assert l0_truncated_npoint(cfg) == symmetrized_wt(5, F(1), v1_scalar_connected, cfg)


class TestWalkReference:
    """The subset-DP kernels against the per-walk enumeration, with the
    L^(4m) rescaling of configurations off the integer lattice."""

    def test_moving_the_start_point_keeps_both_sums(self):
        # every DP walk starts at point 0, so a relabeling that moves it
        # changes every state but neither sum (10 points, about 0.2 s)
        cfg = random_config(random.Random(120), 10)
        perm = (3, 7, 0, 9, 1, 5, 2, 8, 6, 4)
        moved = PointConfig([cfg.points[i] for i in perm])
        assert l1_truncated_npoint(moved) == l1_truncated_npoint(cfg)
        assert l0_truncated_npoint(moved) == l0_truncated_npoint(cfg)

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_l1_equals_walk_sum(self, m):
        cfg = random_config(random.Random(90 + m), m)
        assert cfg.scale > 1
        terms = l1_walk_terms(cfg)
        assert sum(terms.values()) == 2 * math.factorial(m - 1)
        total = sum(t * k for t, k in terms.items())
        assert l1_truncated_npoint(cfg) == total * cfg.scale ** (4 * m)

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_l0_equals_walk_sum(self, m):
        cfg = random_config(random.Random(95 + m), m)
        assert cfg.scale > 1
        terms = l0_walk_terms(cfg)
        assert sum(terms.values()) == (math.factorial(m - 1) if m > 2 else 2)
        total = sum(t * k for t, k in terms.items())
        assert l0_truncated_npoint(cfg) == total * cfg.scale ** (4 * m)

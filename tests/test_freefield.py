"""Quaternion traces, elementary pole structures, Wick numerators and
the free-field correlator oracles."""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction as F

import pytest

from gcipw.exact import Quaternion, chain_trace
from gcipw.fourpoint import basis_J, basis_j_small, truncated_4pt_value
from gcipw.freefield import (
    _sym_points,
    anticommutation_symbolic,
    cycle_trace_2n,
    cycle_trace_numerator,
    cycle_trace_numerator_symbolic,
    crossing_sign,
    det4,
    fit_cycle_constant,
    interval_identities,
    interval_identities_symbolic,
    l0_truncated_npoint,
    l1_truncated_npoint,
    links_of,
    orbit_enumerate,
    rho_point,
    rho_symbolic,
    slash,
    trace4,
    trace4_identity_check,
    trace4_identity_symbolic,
    v1_scalar_npoint,
    v1_weyl_4pt,
    v1_weyl_npoint,
    wick_numerator,
)
from gcipw.kinematics import (
    DegenerateConfiguration,
    PointConfig,
    cross_ratios,
    dot4,
    random_config,
    vsub,
)

E1 = (F(1), F(0), F(0), F(0))
E2 = (F(0), F(1), F(0), F(0))
E3 = (F(0), F(0), F(1), F(0))
E4 = (F(0), F(0), F(0), F(1))


def paper_slash(z, conjugate=False):
    """The paper's slash(z) = z4 + z.Q, Q_j = -i sigma_j, as a 2x2 matrix of
    exact Gaussian integers (re, im)."""
    z1, z2, z3, z4 = z
    s = -1 if conjugate else 1
    return (
        ((z4, -s * z3), (-s * z2, -s * z1)),
        ((s * z2, -s * z1), (z4, s * z3)),
    )


def as_matrix(q):
    return paper_slash((q.b, q.c, q.d, q.a))


def gauss_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gauss_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def matrix_product(m, n):
    return tuple(
        tuple(gauss_add(gauss_mul(m[i][0], n[0][j]), gauss_mul(m[i][1], n[1][j])) for j in range(2))
        for i in range(2)
    )


class TestSlash:
    def test_e4_is_identity(self):
        assert slash(E4) == Quaternion(1, 0, 0, 0)

    def test_e3_is_minus_i_sigma3(self):
        assert paper_slash(E3) == (((0, -1), (0, 0)), ((0, 0), (0, 1)))
        assert as_matrix(slash(E3)) == paper_slash(E3)

    def test_anticommutation_unit(self):
        zs, zc = slash(E1), slash(E1, True)
        assert zs * zc + zs * zc == Quaternion(2, 0, 0, 0)

    def test_anticommutation_symbolic(self):
        assert anticommutation_symbolic()

    def test_linear(self):
        rng = random.Random(0)
        z = tuple(F(rng.randint(-5, 5)) for _ in range(4))
        w = tuple(F(rng.randint(-5, 5)) for _ in range(4))
        zw = tuple(a + b for a, b in zip(z, w))
        assert slash(zw) == slash(z) + slash(w)

    def test_realizes_the_2x2_slash_matrices(self):
        # product, trace and transpose of the paper's matrices map to the
        # Hamilton product, 2 Re and the j-flip
        rng = random.Random(18)
        vecs = [E1, E2, E3, E4] + [
            tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(12)
        ]
        for z in vecs:
            for conjugate in (False, True):
                q = slash(z, conjugate)
                assert as_matrix(q) == paper_slash(z, conjugate)
                assert as_matrix(q.transpose()) == tuple(zip(*as_matrix(q)))
            for w in vecs:
                p, q = slash(z), slash(w, True)
                pq = matrix_product(as_matrix(p), as_matrix(q))
                assert as_matrix(p * q) == pq
                assert gauss_add(pq[0][0], pq[1][1]) == (2 * (p * q).a, 0)
                assert chain_trace([p, q]) == 2 * (p * q).a


class TestDet4:
    def test_unit_tetrad(self):
        assert det4(E1, E2, E3, E4) == 1

    def test_repeated_argument(self):
        assert det4(E1, E1, E3, E4) == 0

    def test_transposition(self):
        assert det4(E2, E1, E3, E4) == -1


class TestTrace4:
    def test_all_e4(self):
        assert trace4(E4, E4, E4, E4) == 2
        assert trace4_identity_check(E4, E4, E4, E4)

    def test_unit_tetrad(self):
        assert trace4(E1, E2, E3, E4) == 2
        assert trace4_identity_check(E1, E2, E3, E4)

    def test_random_quadruples(self):
        rng = random.Random(1)
        for _ in range(50):
            pts = random_config(rng, 4).points
            assert trace4_identity_check(*pts)

    def test_symbolic(self):
        assert trace4_identity_symbolic()

    def test_reduction_to_dots(self):
        # the two-orientation combination drops the determinant term
        rng = random.Random(2)
        pts = random_config(rng, 4).points
        z12 = vsub(pts[0], pts[1])
        z23 = vsub(pts[1], pts[2])
        z34 = vsub(pts[2], pts[3])
        z14 = vsub(pts[0], pts[3])
        lhs = chain_trace(
            [slash(z12), slash(z23, True), slash(z34), slash(z14, True)]
        ) + chain_trace([slash(z12), slash(z14, True), slash(z34), slash(z23, True)])
        rhs = 4 * (
            dot4(z12, z23) * dot4(z34, z14)
            - dot4(z12, z34) * dot4(z14, z23)
            + dot4(z12, z14) * dot4(z23, z34)
        )
        assert lhs == rhs


class TestIntervalIdentities:
    def test_random_configs(self):
        rng = random.Random(3)
        for _ in range(100):
            assert interval_identities(random_config(rng, 4).points)

    def test_collinear(self):
        cfg = PointConfig([(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0)])
        assert interval_identities(cfg.points)

    def test_symbolic(self):
        assert interval_identities_symbolic()


class TestWeylBilocal:
    def test_matches_j1(self):
        rng = random.Random(4)
        j1 = basis_j_small(1)
        for _ in range(100):
            cfg = random_config(rng, 4)
            cr = cross_ratios(cfg)
            lhs = v1_weyl_4pt(cfg) * cfg.rho(0, 2) * cfg.rho(1, 3)
            assert lhs == j1.eval([cr.s, cr.t])

    def test_block_swap_symmetry(self):
        rng = random.Random(5)
        cfg = random_config(rng, 4)
        swapped = PointConfig(
            [cfg.points[1], cfg.points[0], cfg.points[2], cfg.points[3]]
        )
        assert v1_weyl_4pt(cfg) == v1_weyl_4pt(swapped)

    def test_degenerate(self):
        cfg = PointConfig([(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0)])
        with pytest.raises(DegenerateConfiguration):
            v1_weyl_4pt(cfg)


def w_sixpoint(c):
    r = c.rho
    br = (
        r(0, 1) * (r(2, 3) * r(4, 5) - r(2, 4) * r(3, 5) + r(2, 5) * r(3, 4))
        - r(0, 2) * (r(1, 3) * r(4, 5) - r(1, 4) * r(3, 5) + r(1, 5) * r(3, 4))
        + r(0, 3) * (r(1, 2) * r(4, 5) - r(1, 4) * r(2, 5) + r(1, 5) * r(2, 4))
        - r(0, 4) * (r(1, 2) * r(3, 5) - r(1, 3) * r(2, 5) + r(1, 5) * r(2, 3))
        + r(0, 5) * (r(1, 2) * r(3, 4) - r(1, 3) * r(2, 4) + r(1, 4) * r(2, 3))
    )
    return br / (r(0, 5) * r(1, 2) * r(3, 4)) ** 2


def chain_trace_reference(factors):
    """2 Re(q1 ... qn) from the plain left-to-right product."""
    return 2 * functools.reduce(operator.mul, factors).a


class TestChainTrace:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_left_to_right_product(self, n):
        rng = random.Random(100 + n)
        for _ in range(5):
            qs = [
                Quaternion(*(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)))
                for _ in range(n)
            ]
            assert chain_trace(qs) == chain_trace_reference(qs)

    @pytest.mark.parametrize("n", [4, 6])
    def test_symbolic_matches_left_to_right_product(self, n):
        qs = [slash(z, conjugate=i % 2 == 1) for i, z in enumerate(_sym_points(n))]
        assert chain_trace(qs) == chain_trace_reference(qs)


class TestCycleTraces:
    def test_n2_reduces_to_first_elementary_term(self):
        rng = random.Random(6)
        cfg = random_config(rng, 4)
        r = cfg.rho
        elementary = (
            2
            * (r(0, 2) * r(1, 3) - r(0, 1) * r(2, 3) - r(0, 3) * r(1, 2))
            / (r(0, 3) ** 2 * r(1, 2) ** 2)
        )
        assert cycle_trace_2n(cfg, (0, 1, 2, 3)) == elementary

    def test_n3_matches_braces(self):
        rng = random.Random(7)
        for _ in range(25):
            cfg = random_config(rng, 6)
            assert cycle_trace_2n(cfg, (0, 1, 2, 3, 4, 5)) == w_sixpoint(cfg)

    def test_reversal_invariance(self):
        # (0,1,2,3) and (1,0,3,2) represent the same orbit element
        rng = random.Random(8)
        cfg = random_config(rng, 4)
        assert cycle_trace_2n(cfg, (0, 1, 2, 3)) == cycle_trace_2n(cfg, (1, 0, 3, 2))

    def test_links(self):
        assert links_of((0, 1, 2, 3)) == [(1, 2), (3, 0)]


class TestOrbits:
    def test_counts(self):
        assert len(orbit_enumerate(2)) == 2
        assert len(orbit_enumerate(3)) == 8
        assert len(orbit_enumerate(4)) == 48

    def test_n2_structures(self):
        assert orbit_enumerate(2) == [(0, 1, 2, 3), (0, 1, 3, 2)]


class TestWickNumerator:
    def test_pairing_count(self):
        assert len(wick_numerator(2).terms) == 3
        assert len(wick_numerator(3).terms) == 15

    def test_n2_reproduces_elementary_numerator(self):
        rng = random.Random(9)
        cfg = random_config(rng, 4)
        c2 = fit_cycle_constant(2, cfg)
        assert c2 == -2
        r = cfg.rho
        value = c2 * wick_numerator(2).eval(rho_point(cfg))
        expected = 2 * (r(0, 2) * r(1, 3) - r(0, 1) * r(2, 3) - r(0, 3) * r(1, 2))
        assert value == expected

    def test_symbolic_identities(self):
        rng = random.Random(10)
        c2 = fit_cycle_constant(2, random_config(rng, 4))
        assert cycle_trace_numerator_symbolic((0, 1, 2, 3), 4) == c2 * (
            wick_numerator(2, (0, 1, 2, 3)).subs_poly(rho_symbolic(4))
        )

    @pytest.mark.parametrize("seq", orbit_enumerate(3))
    def test_symbolic_identities_n3(self, seq):
        c3 = fit_cycle_constant(3, random_config(random.Random(13), 6))
        assert cycle_trace_numerator_symbolic(seq, 6) == c3 * (
            wick_numerator(3, seq).subs_poly(rho_symbolic(6))
        )

    def test_n4_numeric(self):
        rng = random.Random(11)
        c4 = fit_cycle_constant(4, random_config(rng, 8))
        assert c4 == F(-1, 2)
        wick4 = wick_numerator(4)
        for _ in range(10):
            cfg = random_config(rng, 8)
            lhs = cycle_trace_numerator(tuple(range(8)), cfg.points)
            assert lhs == c4 * wick4.eval(rho_point(cfg))


class TestScalarBilocal:
    def test_4pt_wick_contraction(self):
        rng = random.Random(12)
        cfg = random_config(rng, 4)
        r = cfg.rho
        assert v1_scalar_npoint(cfg) == 1 / (r(0, 2) * r(1, 3)) + 1 / (
            r(0, 3) * r(1, 2)
        )

    def test_matches_j0(self):
        rng = random.Random(13)
        cfg = random_config(rng, 4)
        cr = cross_ratios(cfg)
        j0 = basis_j_small(0)
        assert v1_scalar_npoint(cfg) * cfg.rho(0, 2) * cfg.rho(1, 3) == j0.eval(
            [cr.s, cr.t]
        )

    def test_coincident_outer_points(self):
        cfg = PointConfig([(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0)])
        with pytest.raises(DegenerateConfiguration):
            v1_scalar_npoint(cfg)

    def test_block_swap_invariance(self):
        rng = random.Random(14)
        cfg = random_config(rng, 4)
        swapped = PointConfig(
            [cfg.points[1], cfg.points[0], cfg.points[2], cfg.points[3]]
        )
        assert v1_scalar_npoint(cfg) == v1_scalar_npoint(swapped)


def all_matchings_l1(config):
    """The fermionic Wick sum over every psi and chi matching of every
    split A, keeping the single loops: the brute-force reference that
    `l1_truncated_npoint` replaces by a direct cycle enumeration.

    Edge matrices are indexed (earlier vertex, later vertex) in slot
    order and the loop is walked from an adjacency list, so only the
    final value is shared with the library code.  Valid for m >= 4,
    where no two loop edges join the same pair of points.
    """
    m = len(config)
    n = m // 2
    pts = config.points

    def edge(kind, fv, cv, f_slot, c_slot):
        z = vsub(pts[fv], pts[cv])
        r = dot4(z, z)
        mat = slash(z, conjugate=(kind == "psi")) * (1 / (r**2 if kind == "psi" else r**3))
        return (mat, fv, cv) if f_slot < c_slot else (-mat.transpose(), cv, fv)

    def single_loop(pair_a, pair_b):
        cur, use_a = 0, True
        for step in range(m):
            cur = pair_a[cur] if use_a else pair_b[cur]
            use_a = not use_a
            if cur == 0:
                return step == m - 1
        return False

    def contract(mats):
        adj = {}
        for _, ev, lv in mats:
            adj.setdefault(ev, []).append(lv)
            adj.setdefault(lv, []).append(ev)
        oriented = {(ev, lv): mat for mat, ev, lv in mats}
        cur, prev, steps = 0, None, []
        for _ in range(m):
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            if (cur, nxt) in oriented:
                steps.append(oriented[(cur, nxt)])
            else:
                steps.append(oriented[(nxt, cur)].transpose())
            prev, cur = cur, nxt
        return chain_trace(steps)

    total = F(0)
    for a_set in itertools.combinations(range(m), n):
        rest = [v for v in range(m) if v not in a_set]
        # A vertices write (psi+ chi), the rest (chi+ psi)
        for psi_match in itertools.permutations(a_set):
            for chi_match in itertools.permutations(rest):
                psi_pair = {**dict(zip(rest, psi_match)), **dict(zip(psi_match, rest))}
                chi_pair = {**dict(zip(a_set, chi_match)), **dict(zip(chi_match, a_set))}
                if not single_loop(psi_pair, chi_pair):
                    continue
                chords, mats = [], []
                for kind, fvs, cvs in (("psi", rest, psi_match), ("chi", a_set, chi_match)):
                    for v, w in zip(fvs, cvs):
                        chords.append((2 * v + 1, 2 * w))
                        mats.append(edge(kind, v, w, 2 * v + 1, 2 * w))
                total += crossing_sign(chords, range(2 * m)) * contract(mats)
    return total


def undirected_cycles_l0(config):
    """The scalar composite's cycle sum, each undirected Hamiltonian
    cycle once with both alternations of 1/rho and 1/rho^3."""
    m = len(config)
    total = F(0)
    for tail in itertools.permutations(range(1, m)):
        if tail[0] > tail[-1]:
            continue
        cyc = (0, *tail, 0)
        rs = [config.rho(cyc[k], cyc[k + 1]) for k in range(m)]
        total += sum(
            math.prod(r ** (1 if (k + p) % 2 == 0 else 3) for k, r in enumerate(rs)) ** -1
            for p in (0, 1)
        )
    return total


class TestCompositeNetworks:
    @pytest.mark.parametrize("m", [4, 6])
    def test_l1_equals_all_matchings_sum(self, m):
        rng = random.Random(40 + m)
        for _ in range(3):
            cfg = random_config(rng, m)
            assert l1_truncated_npoint(cfg) == all_matchings_l1(cfg)

    @pytest.mark.parametrize("m", [4, 6])
    def test_l0_equals_undirected_cycle_sum(self, m):
        rng = random.Random(50 + m)
        for _ in range(3):
            cfg = random_config(rng, m)
            assert l0_truncated_npoint(cfg) == undirected_cycles_l0(cfg)

    def test_two_point_functions(self):
        # both loops of the two-point network are the same pair of points,
        # one with psi first and one with chi first
        cfg = random_config(random.Random(18), 2)
        r = cfg.rho(0, 1)
        assert l1_truncated_npoint(cfg) == 4 / r**4
        assert l0_truncated_npoint(cfg) == 2 / r**4

    def test_l1_proportional_to_J1(self):
        rng = random.Random(15)
        ratios = set()
        for _ in range(5):
            cfg = random_config(rng, 4)
            ratios.add(
                l1_truncated_npoint(cfg) / truncated_4pt_value(basis_J(1), cfg, 4)
            )
        assert len(ratios) == 1

    def test_l0_proportional_to_J0(self):
        rng = random.Random(16)
        ratios = set()
        for _ in range(5):
            cfg = random_config(rng, 4)
            ratios.add(
                l0_truncated_npoint(cfg) / truncated_4pt_value(basis_J(0), cfg, 4)
            )
        assert len(ratios) == 1

    def test_weyl_full_includes_disconnected_at_n4(self):
        # full = connected + pair products; spot-check the partition logic
        rng = random.Random(17)
        cfg = random_config(rng, 8)
        from gcipw.freefield import v1_weyl_connected

        full = v1_weyl_npoint(cfg)
        conn = v1_weyl_connected(cfg)
        pairs = 0
        blocks = [(0, 1), (2, 3), (4, 5), (6, 7)]
        for split in [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]:
            prod = F(1)
            for part in split:
                idx = [p for b in part for p in blocks[b]]
                prod *= v1_weyl_connected(cfg.subset(idx))
            pairs += prod
        assert full == conn + pairs

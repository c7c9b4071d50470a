"""Quaternion traces, elementary pole structures, Wick numerators and
the free-field correlator oracles."""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction as F

import pytest

from gcipw.exact import MPoly, Quaternion, chain_trace
from gcipw.fourpoint import basis_J, basis_j_small, truncated_4pt_value
from gcipw.freefield import (
    anticommutation_symbolic,
    cycle_trace_2n,
    cycle_trace_numerator,
    cycle_trace_numerator_symbolic,
    cycle_constant,
    cycle_pfaffians,
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
    v1_scalar_connected,
    v1_weyl_4pt,
    v1_weyl_connected,
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
from gcipw.symmetrize import double_factorial_odd, signed_pairings, symmetrized_wt

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


def j_flip(q):
    """The image of the 2x2 matrix transpose: the sign of the j part flips."""
    return Quaternion(q.a, q.b, -q.c, q.d)


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
                assert as_matrix(j_flip(q)) == tuple(zip(*as_matrix(q)))
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


def interval(cfg, i, j):
    """rho_ij from the Fraction coordinates, bypassing the integer form."""
    d = vsub(cfg.points[i], cfg.points[j])
    return dot4(d, d)


def w_sixpoint(c):
    r = functools.partial(interval, c)
    br = (
        r(0, 1) * (r(2, 3) * r(4, 5) - r(2, 4) * r(3, 5) + r(2, 5) * r(3, 4))
        - r(0, 2) * (r(1, 3) * r(4, 5) - r(1, 4) * r(3, 5) + r(1, 5) * r(3, 4))
        + r(0, 3) * (r(1, 2) * r(4, 5) - r(1, 4) * r(2, 5) + r(1, 5) * r(2, 4))
        - r(0, 4) * (r(1, 2) * r(3, 5) - r(1, 3) * r(2, 5) + r(1, 5) * r(2, 3))
        + r(0, 5) * (r(1, 2) * r(3, 4) - r(1, 3) * r(2, 4) + r(1, 4) * r(2, 3))
    )
    return br / (r(0, 5) * r(1, 2) * r(3, 4)) ** 2


def sym_points(n):
    """n symbolic 4-vectors over 4n integer-coefficient variables."""
    xs = MPoly.variables(4 * n)
    return [xs[4 * i : 4 * i + 4] for i in range(n)]


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
        qs = [slash(z, conjugate=i % 2 == 1) for i, z in enumerate(sym_points(n))]
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

    @pytest.mark.parametrize(
        "seq", [(), (0,), (0, 1, 2), (0, 1, 1, 2), (0, 0), (0, 1, 2, 4), (0, 1, 2, -1)]
    )
    def test_rejects_sequences_that_are_not_cycles(self, seq):
        cfg = random_config(random.Random(5), 4)
        with pytest.raises(ValueError):
            cycle_trace_numerator(seq, cfg.points)
        with pytest.raises(ValueError):
            cycle_trace_numerator_symbolic(seq, 4)
        with pytest.raises(ValueError):
            cycle_trace_2n(cfg, seq)

    @pytest.mark.parametrize("seq", [(0, 1), (2, 0), (3, 2, 1, 0)])
    def test_accepts_cycles_of_distinct_points(self, seq):
        cfg = random_config(random.Random(5), 4)
        value = cycle_trace_numerator(seq, cfg.points)
        assert cycle_trace_numerator_symbolic(seq, 4).eval(flat(cfg.points)) == value


def flat(points):
    """The coordinates of the points, in the variable order of the
    symbolic traces."""
    return [x for p in points for x in p]


def orientation_traces(seq, points):
    """(tr fwd, tr rev) over the alternating slash cycle of `seq`."""
    m = len(seq)
    fwd = [slash(vsub(points[seq[k]], points[seq[(k + 1) % m]]), k % 2 == 1) for k in range(m)]
    return chain_trace(fwd), chain_trace([fwd[0], *fwd[:0:-1]])


class TestOrientations:
    """The symbolic kernel multiplies out one orientation: the reversed
    trace at x is the forward trace at the spatially reflected points."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reversed_trace_is_forward_trace_at_reflected_points(self, n):
        rng = random.Random(110 + n)
        chiral = 0  # cycles whose two orientations differ
        for _ in range(3):
            pts = random_config(rng, 2 * n).points
            mirrored = [(-z1, -z2, -z3, z4) for z1, z2, z3, z4 in pts]
            for seq in orbit_enumerate(n):
                fwd, rev = orientation_traces(seq, pts)
                assert rev == orientation_traces(seq, mirrored)[0]
                assert cycle_trace_numerator(seq, pts) == -(fwd + rev)
                chiral += fwd != rev
        # at n = 2 the four steps sum to zero, so the det term of trace4
        # vanishes and the two orientations agree
        assert (chiral > 0) == (n > 2)

    @pytest.mark.parametrize("seq", orbit_enumerate(2) + orbit_enumerate(3))
    def test_symbolic_trace_matches_both_orientations(self, seq):
        poly = cycle_trace_numerator_symbolic(seq, len(seq))
        rng = random.Random(120 + len(seq))
        for _ in range(3):
            pts = random_config(rng, len(seq)).points
            assert poly.eval(flat(pts)) == cycle_trace_numerator(seq, pts)


class TestOrbits:
    def test_counts(self):
        assert len(orbit_enumerate(2)) == 2
        assert len(orbit_enumerate(3)) == 8
        assert len(orbit_enumerate(4)) == 48

    def test_n2_structures(self):
        assert orbit_enumerate(2) == ((0, 1, 2, 3), (0, 1, 3, 2))

    def test_computed_once_per_n(self):
        assert orbit_enumerate(4) is orbit_enumerate(4)
        assert isinstance(orbit_enumerate(4), tuple)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_canonicalized_block_sequences(self, n):
        # every (n-1)! 2^n block sequence from block 0, reduced to the
        # least of its rotations and reversals
        def least(seq):
            blocks = [seq[i : i + 2] for i in range(0, 2 * n, 2)]
            images = []
            for bs in (blocks, [b[::-1] for b in blocks[::-1]]):
                for k in range(n):
                    images.append(sum(bs[k:] + bs[:k], ()))
            return min(images)

        classes = set()
        for perm in itertools.permutations(range(1, n)):
            for flips in itertools.product((False, True), repeat=n):
                seq = ()
                for b, fl in zip((0, *perm), flips):
                    seq += (2 * b + 1, 2 * b) if fl else (2 * b, 2 * b + 1)
                classes.add(least(seq))
        assert orbit_enumerate(n) == tuple(sorted(classes))


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

    def test_symbolic_identity_n4(self):
        # exact at eight points, 234624 terms: trace = c4 * Wick, compared
        # over the integers as den(c4) * trace = num(c4) * Wick
        c4 = fit_cycle_constant(4, random_config(random.Random(11), 8))
        trace = cycle_trace_numerator_symbolic(tuple(range(8)), 8)
        assert len(trace.coefficients()) == 234624
        wick = wick_numerator(4).subs_poly(rho_symbolic(8))
        assert trace * c4.denominator == c4.numerator * wick

    def test_symbolic_kernels_keep_int_coefficients(self):
        rho4 = rho_symbolic(4)
        polys = [
            wick_numerator(2),
            *rho4,
            wick_numerator(2).subs_poly(rho4),
            cycle_trace_numerator_symbolic((0, 1, 2, 3), 4),
        ]
        for p in polys:
            assert p.coefficients() and all(type(c) is int for c in p.coefficients())

    def test_n4_numeric(self):
        rng = random.Random(11)
        c4 = fit_cycle_constant(4, random_config(rng, 8))
        assert c4 == F(-1, 2)
        wick4 = wick_numerator(4)
        for _ in range(10):
            cfg = random_config(rng, 8)
            lhs = cycle_trace_numerator(tuple(range(8)), cfg.points)
            assert lhs == c4 * wick4.eval(rho_point(cfg))

    def test_closed_form_constants_are_the_fitted_ones(self):
        rng = random.Random(12)
        assert [cycle_constant(n) for n in range(2, 7)] == [-2, 1, F(-1, 2), F(1, 4), F(-1, 8)]
        for n in range(2, 6):
            assert fit_cycle_constant(n, random_config(rng, 2 * n)) == cycle_constant(n)
        with pytest.raises(ValueError):
            cycle_constant(1)


def chord_parity(pairing, ordering):
    """(-1)^(chord crossings) of a pairing drawn along `ordering`: chords
    at positions a < b and c < d cross when exactly one of c, d lies
    strictly between a and b."""
    pos = {p: k for k, p in enumerate(ordering)}
    chords = [sorted((pos[i], pos[j])) for i, j in pairing]
    pairs = itertools.combinations(chords, 2)
    return (-1) ** sum((a < c < b) != (a < d < b) for (a, b), (c, d) in pairs)


class TestLaplaceSign:
    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
    def test_laplace_sign_is_the_chord_crossing_parity(self, m):
        # the fact that lets `cycle_pfaffians` share sub-Pfaffians between
        # rotated and reflected cycles
        rng = random.Random(90 + m)
        orderings = [tuple(range(m))] + [tuple(rng.sample(range(m), m)) for _ in range(3)]
        for ordering in orderings:
            signed = list(signed_pairings(ordering))
            assert len({frozenset(p) for _, p in signed}) == double_factorial_odd(m // 2)
            for sign, pairing in signed:
                assert sign == chord_parity(pairing, ordering)

    @pytest.mark.parametrize("ordering", [(0, 1, 2), (0, 1, 2, 2), (0, 1, 2, 4)])
    def test_wick_numerator_needs_an_ordering_of_its_points(self, ordering):
        with pytest.raises(ValueError):
            wick_numerator(2, ordering)


def pfaffian_reference(cfg, seq):
    """Pf of the rho_ij read along seq, by the Laplace expansion along the
    first point, on Fraction intervals."""
    if not seq:
        return F(1)
    return sum(
        (-1) ** (j - 1) * interval(cfg, seq[0], seq[j])
        * pfaffian_reference(cfg, seq[1:j] + seq[j + 1 :])
        for j in range(1, len(seq))
    )


class TestCyclePfaffians:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_each_is_the_signed_pairing_sum_of_its_cycle(self, n):
        cfg = config_over(random.Random(70 + n), 2 * n, (7, 11))
        pfaffians = cycle_pfaffians(cfg)
        assert all(type(pf) is int for pf in pfaffians)
        scale = cfg.scale ** (2 * n)
        for seq, pf in zip(orbit_enumerate(n), pfaffians, strict=True):
            assert pf == scale * wick_numerator(n, seq).eval(rho_point(cfg))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rotation_and_reflection_keep_the_pfaffian(self, n):
        rng = random.Random(75 + n)
        cfg = random_config(rng, 2 * n)
        for seq in rng.sample(orbit_enumerate(n), 2):
            pf = pfaffian_reference(cfg, seq)
            assert pf == wick_numerator(n, seq).eval(rho_point(cfg)) != 0
            for k in range(2 * n):
                turned = seq[k:] + seq[:k]
                assert pfaffian_reference(cfg, turned) == pf
                assert pfaffian_reference(cfg, turned[::-1]) == pf


class TestScalarBilocal:
    def test_4pt_wick_contraction(self):
        rng = random.Random(12)
        cfg = random_config(rng, 4)
        r = cfg.rho
        assert v1_scalar_connected(cfg) == 1 / (r(0, 2) * r(1, 3)) + 1 / (
            r(0, 3) * r(1, 2)
        )

    def test_matches_j0(self):
        rng = random.Random(13)
        cfg = random_config(rng, 4)
        cr = cross_ratios(cfg)
        j0 = basis_j_small(0)
        assert v1_scalar_connected(cfg) * cfg.rho(0, 2) * cfg.rho(1, 3) == j0.eval(
            [cr.s, cr.t]
        )

    def test_coincident_outer_points(self):
        cfg = PointConfig([(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0)])
        with pytest.raises(DegenerateConfiguration):
            v1_scalar_connected(cfg)

    def test_block_swap_invariance(self):
        rng = random.Random(14)
        cfg = random_config(rng, 4)
        swapped = PointConfig(
            [cfg.points[1], cfg.points[0], cfg.points[2], cfg.points[3]]
        )
        assert v1_scalar_connected(cfg) == v1_scalar_connected(swapped)


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
        return (mat, fv, cv) if f_slot < c_slot else (-j_flip(mat), cv, fv)

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
                steps.append(j_flip(oriented[(nxt, cur)]))
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
                total += chord_parity(chords, range(2 * m)) * contract(mats)
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
        rs = [interval(config, cyc[k], cyc[k + 1]) for k in range(m)]
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


def config_over(rng, m, dens):
    """A non-degenerate m-point configuration whose coordinates have
    numerators in [-9, 9] and denominators drawn from `dens`."""
    while True:
        cfg = PointConfig(
            [[F(rng.randint(-9, 9), rng.choice(dens)) for _ in range(4)] for _ in range(m)]
        )
        if cfg.is_nondegenerate():
            return cfg


def dilated(cfg, lam):
    return PointConfig([[lam * c for c in p] for p in cfg.points])


class TestIntegerForm:
    """The kernels run on integer coordinates L z and rescale by a power
    of L; these pin each power and compare against references that work
    on the Fraction coordinates."""

    # (correlator, number of points, degree -d of homogeneity)
    HOMOGENEOUS = {
        "cycle_trace_2n(n=2)": (lambda c: cycle_trace_2n(c, (0, 1, 3, 2)), 4, 4),
        "cycle_trace_2n(n=3)": (lambda c: cycle_trace_2n(c, (0, 1, 2, 3, 5, 4)), 6, 6),
        "v1_weyl_4pt": (v1_weyl_4pt, 4, 4),
        "v1_scalar_connected(4)": (v1_scalar_connected, 4, 4),
        "v1_scalar_connected(6)": (v1_scalar_connected, 6, 6),
        "l1_truncated_npoint(4)": (l1_truncated_npoint, 4, 16),
        "l1_truncated_npoint(6)": (l1_truncated_npoint, 6, 24),
        "l0_truncated_npoint(4)": (l0_truncated_npoint, 4, 16),
        "l0_truncated_npoint(6)": (l0_truncated_npoint, 6, 24),
        "symmetrized_wt(3)": (lambda c: symmetrized_wt(3, F(1), v1_weyl_connected, c), 6, 24),
    }

    @pytest.mark.parametrize("name", sorted(HOMOGENEOUS))
    def test_homogeneity(self, name):
        f, m, d = self.HOMOGENEOUS[name]
        lam = F(7, 3)
        rng = random.Random(60 + m)
        for _ in range(2):
            cfg = random_config(rng, m)
            value = f(cfg)
            assert value != 0
            big = dilated(cfg, lam)
            assert big.scale != cfg.scale
            assert f(big) == lam ** -d * value

    @pytest.mark.parametrize("dens", [(1,), (7, 11)], ids=["L=1", "L=77"])
    @pytest.mark.parametrize("m", [4, 6])
    def test_composites_match_references(self, m, dens):
        rng = random.Random(70 + m)
        cfg = config_over(rng, m, dens)
        assert cfg.scale == math.lcm(*dens)
        assert l1_truncated_npoint(cfg) == all_matchings_l1(cfg)
        assert l0_truncated_npoint(cfg) == undirected_cycles_l0(cfg)

    @pytest.mark.parametrize("dens", [(1,), (7, 11)], ids=["L=1", "L=77"])
    def test_cycle_trace_matches_braces(self, dens):
        rng = random.Random(80)
        for _ in range(5):
            cfg = config_over(rng, 6, dens)
            assert cfg.scale == math.lcm(*dens)
            assert cycle_trace_2n(cfg, (0, 1, 2, 3, 4, 5)) == w_sixpoint(cfg)

    @pytest.mark.parametrize(
        "f",
        [
            l1_truncated_npoint,
            l0_truncated_npoint,
            v1_weyl_npoint,
            v1_weyl_connected,
            v1_scalar_connected,
        ],
        ids=lambda f: f.__name__,
    )
    def test_coincident_points_raise(self, f):
        pts = [(F(1, 2), 0, 0, 0), (0, F(1, 3), 0, 0), (0, 0, 1, 0), (F(1, 2), 0, 0, 0)]
        with pytest.raises(DegenerateConfiguration):
            f(PointConfig(pts))

    @pytest.mark.parametrize(
        "f", [l1_truncated_npoint, l0_truncated_npoint], ids=lambda f: f.__name__
    )
    def test_coincident_pair_raises(self, f):
        # the pole R is formed from the one interval, which vanishes
        with pytest.raises(DegenerateConfiguration):
            f(PointConfig([(F(1, 2), 0, 0, 0), (F(1, 2), 0, 0, 0)]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_common_denominator_sums_match_per_structure_sums(self, n):
        # one Fraction over D against one Fraction per pole structure
        cfg = random_config(random.Random(85 + n), 2 * n)
        structures = orbit_enumerate(n)
        weyl = sum(cycle_trace_2n(cfg, seq) for seq in structures) / 2
        scalar = sum(
            1 / math.prod(cfg.rho(i, j) for i, j in links_of(seq)) for seq in structures
        )
        assert v1_weyl_connected(cfg) == weyl
        assert v1_scalar_connected(cfg) == scalar

    def test_coincident_points_in_a_block_are_no_pole(self):
        # points 0 and 1 share a block: no link joins them
        pts = [(F(1, 2), 0, 0, 0), (F(1, 2), 0, 0, 0), (0, 0, 1, 0), (0, F(2, 3), 0, 0)]
        cfg = PointConfig(pts)
        structures = orbit_enumerate(2)
        assert v1_weyl_connected(cfg) == sum(cycle_trace_2n(cfg, s) for s in structures) / 2
        assert v1_scalar_connected(cfg) != 0

    def test_vanishing_pole_pair_raises(self):
        # points 1 and 2 coincide: a link of (0, 1, 2, 3) but not of (0, 1, 3, 2)
        pts = [(0, 0, 0, 0), (F(1, 7), 0, 0, 0), (F(1, 7), 0, 0, 0), (0, F(2, 11), 0, 0)]
        cfg = PointConfig(pts)
        with pytest.raises(DegenerateConfiguration):
            cycle_trace_2n(cfg, (0, 1, 2, 3))
        assert cycle_trace_2n(cfg, (0, 1, 3, 2)) != 0

    @pytest.mark.parametrize(
        "f",
        [
            v1_weyl_connected,
            v1_scalar_connected,
            lambda c: symmetrized_wt(3, F(1), v1_weyl_connected, c),
        ],
        ids=["v1_weyl_connected", "v1_scalar_connected", "symmetrized_wt"],
    )
    def test_coincident_cross_pair_raises(self, f):
        # points 1 and 4 lie in different blocks: a link of some structures
        cfg = random_config(random.Random(44), 6)
        pts = list(cfg.points)
        pts[4] = pts[1]
        with pytest.raises(DegenerateConfiguration):
            f(PointConfig(pts))


class TestPointCounts:
    @pytest.mark.parametrize("m", [5, 7, 9])
    @pytest.mark.parametrize(
        "f",
        [
            v1_weyl_connected,
            v1_scalar_connected,
            v1_weyl_npoint,
            cycle_pfaffians,
            l1_truncated_npoint,
            l0_truncated_npoint,
        ],
        ids=lambda f: f.__name__,
    )
    def test_an_odd_count_is_a_value_error(self, f, m):
        # a plan for n = m // 2 would read the stride-m table with stride 2n
        with pytest.raises(ValueError, match="even number of points"):
            f(random_config(random.Random(m), m))

    @pytest.mark.parametrize(
        "f", [l1_truncated_npoint, l0_truncated_npoint], ids=lambda f: f.__name__
    )
    def test_no_points_is_a_value_error(self, f):
        with pytest.raises(ValueError, match="even number of points"):
            f(PointConfig([]))


def hamilton(p, q):
    """The Hamilton product of 4-tuples (a, b, c, d) = a + b i + c j + d k."""
    a, b, c, d = p
    e, f, g, h = q
    return (
        a * e - b * f - c * g - d * h,
        a * f + b * e + c * h - d * g,
        a * g - b * h + c * e + d * f,
        a * h + b * g - c * f + d * e,
    )


def cycle_trace_reference(seq, points):
    """-(tr fwd + tr rev) over the alternating slash cycle of `seq`, each
    orientation multiplied left to right on Fraction 4-tuples."""
    m = len(seq)
    fwd = []
    for k in range(m):
        z1, z2, z3, z4 = (x - y for x, y in zip(points[seq[k]], points[seq[(k + 1) % m]]))
        fwd.append((z4, -z1, -z2, -z3) if k % 2 else (z4, z1, z2, z3))
    rev = [fwd[0], *fwd[:0:-1]]
    return -2 * (functools.reduce(hamilton, fwd)[0] + functools.reduce(hamilton, rev)[0])


def weyl_connected_reference(cfg):
    """One Fraction term per pole structure: its cycle trace over the
    squared link intervals, halved."""
    total = F(0)
    for seq in orbit_enumerate(len(cfg) // 2):
        pole = math.prod(interval(cfg, a, b) for a, b in links_of(seq))
        total += cycle_trace_reference(seq, cfg.points) / pole**2
    return total / 2


class TestIntegerTraces:
    """Traces at Fraction coordinates are formed on integer quaternions;
    these compare them with Fraction references."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cycle_trace_numerator_matches_fraction_reference(self, n):
        rng = random.Random(90 + n)
        for dens in [(1,), (7, 11), (2, 3, 5)]:
            cfg = config_over(rng, 2 * n, dens)
            for seq in [tuple(range(2 * n)), *rng.sample(orbit_enumerate(n), 2)]:
                got = cycle_trace_numerator(seq, cfg.points)
                assert type(got) is F
                assert got == cycle_trace_reference(seq, cfg.points)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_weyl_connected_matches_orbit_reference(self, n):
        # proved for n <= 4 by the symbolic identities; checked here at n = 5
        rng = random.Random(95 + n)
        for dens in [(1,), (7, 11)] if n < 5 else [(7, 11)]:
            cfg = config_over(rng, 2 * n, dens)
            assert v1_weyl_connected(cfg) == weyl_connected_reference(cfg)

    def test_numeric_kernels_multiply_integers(self, monkeypatch):
        # no Fraction may enter a quaternion product of the numeric kernels
        mul = Quaternion.__mul__
        calls = []

        def int_only(self, o):
            parts = [*self, *(o if isinstance(o, Quaternion) else (o,))]
            assert all(type(x) is int for x in parts), parts
            calls.append(1)
            return mul(self, o)

        monkeypatch.setattr(Quaternion, "__mul__", int_only)
        with pytest.raises(AssertionError):
            Quaternion(F(1, 2), 0, 0, 0) * Quaternion(1, 0, 0, 0)
        rng = random.Random(99)
        for n in (2, 3, 4):
            cfg = config_over(rng, 2 * n, (7, 11))
            cycle_trace_numerator(tuple(range(2 * n)), cfg.points)
            # the Weyl function sums integer Pfaffians: no quaternion product
            assert all(type(pf) is int for pf in cycle_pfaffians(cfg))
            before = len(calls)
            v1_weyl_connected(cfg)
            assert len(calls) == before
        assert calls

"""Quaternion realization of 4-vectors and exact correlator oracles for
the scalar and Weyl bilocal fields.

slash(z) = z4 + z.Q with Q_j = -i sigma_j is the quaternion
z4 + z1 i + z2 j + z3 k, and the trace of a product of slash matrices is
2 Re of the quaternion product.  Components are integers, rationals or,
for the symbolic identity checks, integer polynomials, so every value here
is an exact rational number.

The numeric correlators run on the integer form of a `PointConfig`: its
coordinates scaled by the lcm L of their denominators, and its one table
of integer squared intervals L^2 rho_ij, read by flat index (`flat_rho`)
and relabeled by `subset`.  Numerators and pole products are then plain
integers.  Each correlator is homogeneous of a known degree -d in the
coordinates, so its value is L^d times its value on the integer form: one
exact rescaling per call.  Traces at rational coordinates given as a
point list (`cycle_trace_numerator`) are formed on the same integer form
of those points.

The connected 2n-point function of the Weyl bilocal sums, over the pole
structures of a cycle (`orbit_enumerate`), its two-orientation trace over
its squared link poles.  Each such trace is c_n Pf(A_seq), with
c_n = -2 (-1/2)^(n-2) (`cycle_constant`) and A_seq the antisymmetric
matrix of the rho_ij read in the cycle's order, whose Pfaffian is the
signed pairing sum `wick_numerator(n, seq)`.  The identity is proved for
n <= 4 by the symbolic identity tests (the n = 4 one has 234624 terms)
and is only measured for n >= 5.  Every Pfaffian here is expanded by
one Laplace step, `symmetrize.laplace_step`, of sign (-1)^(j-1):
`wick_numerator` runs it to the end, into signed pairings, and
`cycle_pfaffians` takes one step per shared node.  The step gives each
pairing the sign (-1)^(chord crossings) along the order, so a Pfaffian
read along a cyclic order does not change when the order is rotated or
reflected, and the cycles share their sub-Pfaffians.  `v1_weyl_connected`
and `v1_scalar_connected` sum over the pole structures on integers by one
sum, `_pole_structure_sum`.  The quaternion traces (`cycle_trace_2n`,
`cycle_trace_numerator`, `l1_truncated_npoint`) are the oracles.

The composites psi+ chi + chi+ psi (`l1_truncated_npoint`) and its
commuting scalar analogue (`l0_truncated_npoint`) are summed over their
single-loop Wick contractions.  Each loop is walked once as a (cycle from
0, parity) pair: a directed Hamiltonian cycle from point 0 and the kind
of its first edge, which fixes the points that carry psi+ chi, since the
two kinds alternate along the loop; 2 (m - 1)! walks in all.  A closed
fermion loop carries -1 on every walk: the product of the chord-crossing
sign -(-1)^d of its contraction pattern, d the walk's descents, and the
(-1)^d of the d contractions whose conjugate's slot comes first, which
locality flips.  A subset DP over (points visited, last point) sums the
walks on integers, each state scaled by the cubed intervals of the pairs
it visited, so only the closing step divides, exactly (`_walk_sums`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import List, Sequence, Tuple

from .exact import MPoly, Quaternion, chain_trace, slash
from .kinematics import DegenerateConfiguration, PointConfig, Vec4, dot4, integer_form, vsub
from .symmetrize import laplace_step, signed_pairings


def det4(a: Vec4, b: Vec4, c: Vec4, d: Vec4):
    """Determinant of the 4x4 matrix with columns a, b, c, d, by the
    Leibniz formula: a permutation is odd when its inversions are."""
    total = 0
    for p in itertools.permutations(range(4)):
        prod = a[p[0]] * b[p[1]] * c[p[2]] * d[p[3]]
        odd = sum(p[i] > p[j] for i, j in itertools.combinations(range(4), 2)) % 2
        total = total - prod if odd else total + prod
    return total


def trace4(a: Vec4, b: Vec4, c: Vec4, d: Vec4) -> Fraction:
    """tr(slash(a) slash+(b) slash(c) slash+(d)) as an exact rational."""
    return chain_trace([slash(a), slash(b, True), slash(c), slash(d, True)])


def trace4_identity_check(a: Vec4, b: Vec4, c: Vec4, d: Vec4) -> bool:
    """tr(a b+ c d+) = 2[(ab)(cd) - (ac)(bd) + (ad)(bc) + det(a,b,c,d)]."""
    lhs = trace4(a, b, c, d)
    rhs = 2 * (
        dot4(a, b) * dot4(c, d)
        - dot4(a, c) * dot4(b, d)
        + dot4(a, d) * dot4(b, c)
        + det4(a, b, c, d)
    )
    return lhs == rhs


def interval_identities(points: Sequence[Vec4]) -> bool:
    """The dot-product/interval relations used to reduce the traces.

    2 z_ij . z_kl = rho_il + rho_jk - rho_ik - rho_jl, checked on all
    index quadruples of the points (rationals or symbolic coordinates).
    """
    diff = [[vsub(p, q) for q in points] for p in points]
    rho = [[dot4(z, z) for z in row] for row in diff]
    for i, j, k, l in itertools.product(range(len(points)), repeat=4):
        lhs = 2 * dot4(diff[i][j], diff[k][l])
        if lhs != rho[i][l] + rho[j][k] - rho[i][k] - rho[j][l]:
            return False
    return True


# -- symbolic identity checks ----------------------------------------------------


@functools.cache
def _sym_points(n_points: int) -> Tuple[Tuple[MPoly, ...], ...]:
    """n_points symbolic 4-vectors over 4*n_points coordinate variables.

    Coefficients are plain integers, and the traces, intervals and Wick
    substitutions built from them keep int coefficients throughout.
    """
    xs = MPoly.variables(4 * n_points)
    return tuple(tuple(xs[4 * i : 4 * i + 4]) for i in range(n_points))


def anticommutation_symbolic() -> bool:
    """slash(z) slash+(w) + slash(w) slash+(z) = 2 (z.w) * 1, symbolically."""
    z, w = _sym_points(2)
    lhs = slash(z) * slash(w, True) + slash(w) * slash(z, True)
    zero = MPoly.zero(8)
    return lhs == Quaternion(2 * dot4(z, w), zero, zero, zero)


def trace4_identity_symbolic() -> bool:
    """The four-slash trace formula as a polynomial identity in 16 variables."""
    return trace4_identity_check(*_sym_points(4))


def interval_identities_symbolic() -> bool:
    """The interval reductions as identities in 16 coordinate variables."""
    return interval_identities(_sym_points(4))


# -- cycle structures and their traces -------------------------------------------


CycleSeq = Tuple[int, ...]  # 0-based point sequence (p1, p2 | p3, p4 | ...)


@functools.cache
def orbit_enumerate(n: int) -> Tuple[CycleSeq, ...]:
    """All pole structures of a length-2n bilocal cycle, canonically.

    These are cyclic block sequences with per-block orientations, up to
    the Z_n x Z_2 stabilizer; there are 2^(n-1) (n-1)! of them.  Rotation
    puts block 0 first and reversal orients it (0, 1), which leaves every
    order and orientation of blocks 1..n-1.  Computed once per n.
    """
    if n < 2:
        raise ValueError("need at least two blocks")
    seqs = []
    for perm in itertools.permutations(range(1, n)):
        for flips in itertools.product((False, True), repeat=n - 1):
            seq = [0, 1]
            for b, fl in zip(perm, flips):
                seq.extend((2 * b + 1, 2 * b) if fl else (2 * b, 2 * b + 1))
            seqs.append(tuple(seq))
    return tuple(sorted(seqs))


def links_of(seq: CycleSeq) -> List[Tuple[int, int]]:
    """The inter-block (propagator) pairs of a cycle sequence."""
    n2 = len(seq)
    return [(seq[i], seq[(i + 1) % n2]) for i in range(1, n2, 2)]


def cycle_trace_numerator(seq: CycleSeq, points: Sequence[Vec4]) -> Fraction:
    """Two-orientation symmetric trace over the alternating slash cycle,
    at rational coordinates.

    Forward product: slash(z_p1 - z_p2) slash+(z_p2 - z_p3) ... ; the
    reverse orientation keeps the first factor and reverses the rest.
    The uniform difference-vector orientation used here flips the sign
    relative to the conventional two-term and braces forms of the n = 2, 3
    elementary contributions, so the total is negated to match them.
    The trace is homogeneous of degree 2n = len(seq) in the coordinates,
    so it is formed on integer quaternions from the points over the lcm L
    of their denominators and divided by L^(2n) once.
    """
    scale, ints = integer_form(points)
    return Fraction(_loop_trace(_cycle_factors(seq, ints)), scale ** len(seq))


def _cycle_factors(seq: CycleSeq, points) -> List[Quaternion]:
    """The forward factors slash(z_p1 - z_p2), slash+(z_p2 - z_p3), ... of
    a cycle, in the ring of the coordinates.

    ValueError unless `seq` is an even-length (>= 2) sequence of distinct
    indices of the points.
    """
    m = len(seq)
    if m < 2 or m % 2 or len(set(seq)) < m or not set(seq) <= set(range(len(points))):
        raise ValueError(f"{seq} is not a cycle of distinct points among {len(points)}")
    steps = enumerate(zip(seq, seq[1:] + seq[:1]))
    return [slash(vsub(points[a], points[b]), k % 2 == 1) for k, (a, b) in steps]


def _loop_trace(fwd: Sequence[Quaternion]):
    """-(tr fwd + tr rev) of `cycle_trace_numerator`, from the forward factors.

    slash+(z) = conj slash(z) = slash(Pz), P the reflection of z1, z2 and
    z3, so every factor of the conjugated reversed product is the forward
    factor at the reflected points.  The real part is conjugation invariant
    and cyclic, so tr rev at x is tr fwd at Px.  Numbers cannot be split
    by parity in the coordinates, so both orientations are multiplied here;
    this is the independent oracle of `cycle_trace_numerator_symbolic`,
    which forms only the reflection-even half of one orientation.
    """
    return -(chain_trace(fwd) + chain_trace([fwd[0], *fwd[:0:-1]]))


def cycle_trace_2n(config: PointConfig, seq: CycleSeq) -> Fraction:
    """Elementary contribution: cycle trace over its squared link poles.

    The trace has degree 2n in the coordinates and the poles degree 4n,
    so the integer-form ratio is rescaled by L^(2n).
    """
    num = _loop_trace(_cycle_factors(seq, config.int_points))
    den = config.pole(links_of(seq)) ** 2
    return Fraction(num * config.scale ** len(seq), den)


# -- signed pairing (Wick) numerators ----------------------------------------------


def wick_numerator(n: int, ordering: CycleSeq | None = None) -> MPoly:
    """Signed sum over perfect pairings of products of rho variables.

    The pairings and their signs are `signed_pairings` along the cycle
    ordering (default: 1, 2, ..., 2n), so the sum is the Pfaffian of the
    rho_ij read in that order.  The result is a polynomial in the C(2n, 2)
    interval variables rho_ij, numbered in the `itertools.combinations`
    order of `rho_point` and `rho_symbolic`; a cycle's trace is c_n times
    it (`cycle_constant`).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    m = 2 * n
    ordering = tuple(range(m)) if ordering is None else tuple(ordering)
    if sorted(ordering) != list(range(m)):
        raise ValueError(f"{ordering} is not an ordering of {m} points")
    index = {pair: k for k, pair in enumerate(itertools.combinations(range(m), 2))}
    arity = len(index)
    terms = {}  # distinct pairings are distinct monomials
    for sign, pairing in signed_pairings(ordering):
        e = [0] * arity
        for i, j in pairing:
            e[index[min(i, j), max(i, j)]] += 1
        terms[tuple(e)] = sign
    return MPoly(arity, terms)


def rho_point(config: PointConfig) -> List[Fraction]:
    """All rho_ij of a configuration, ordered like the rho variables."""
    return [config.rho(i, j) for i, j in itertools.combinations(range(len(config)), 2)]


def rho_symbolic(n_points: int) -> List[MPoly]:
    """The rho_ij as polynomials in the 4*n coordinate variables."""
    pts = _sym_points(n_points)
    diffs = (vsub(pts[i], pts[j]) for i, j in itertools.combinations(range(n_points), 2))
    return [dot4(d, d) for d in diffs]


def cycle_trace_numerator_symbolic(seq: CycleSeq, n_points: int) -> MPoly:
    """The two-orientation trace as an int polynomial in the coordinates.

    By the reflection identity of `_loop_trace` it is -(T(x) + T(Px)), T
    the forward trace, which is -2 times the part of T even in the spatial
    coordinates; so one orientation is multiplied out.  T = 2 Re(L R) over
    the halves L, R of `chain_trace`, and the even part of each component
    product L_c R_c is Le Re + Lo Ro over the even and odd parts of the
    factors: half-size products that form no odd term.  The 8 signed
    products are accumulated into one dict by `MPoly.sum_of_products`.
    """
    fwd = _cycle_factors(seq, _sym_points(n_points))
    h = len(fwd) // 2
    left, right = (functools.reduce(operator.mul, part) for part in (fwd[:h], fwd[h:]))
    spatial = [i for i in range(4 * n_points) if i % 4 != 3]
    products = []
    for sign, lc, rc in zip((-4, 4, 4, 4), left, right):  # -2 trace_mul, by component
        (l_even, l_odd), (r_even, r_odd) = lc.parity_split(spatial), rc.parity_split(spatial)
        products += [(sign, l_even, r_even), (sign, l_odd, r_odd)]
    return MPoly.sum_of_products(4 * n_points, products)


def fit_cycle_constant(n: int, config: PointConfig) -> Fraction:
    """Exact ratio of the canonical cycle trace numerator to the signed
    pairing sum, at one non-degenerate configuration."""
    seq = tuple(range(2 * n))
    num = cycle_trace_numerator(seq, config.points)
    ws = wick_numerator(n, seq).eval(rho_point(config))
    if ws == 0:
        raise ValueError("pairing sum vanishes at this configuration; redraw")
    return num / ws


# -- correlator oracles ------------------------------------------------------------


def v1_weyl_4pt(config: PointConfig) -> Fraction:
    """4-point function of the Weyl bilocal, `v1_weyl_connected` at n = 2.

    Equals j_1(s, t) / (rho13 rho24) at any non-degenerate configuration;
    the raw two-trace combination with the unit spinor 2-point function is
    twice this, and the 1/2 pins the bilocal normalization to f_1 = j_1.
    """
    if len(config) != 4:
        raise ValueError("need four points")
    return v1_weyl_connected(config)


def _pole_structure_sum(config: PointConfig, nums, p: int, a: int, b: int) -> Fraction:
    """a/b times the sum of num / prod over links of rho^p, over the
    numerators `nums` of the `orbit_enumerate(n)` pole structures of 2n
    points, of degree -2n in the coordinates: as integers over D^p, D the
    product of rho_ij over the pairs in different blocks (the possible
    links), then rescaled by L^(2n) and weighted in one Fraction.  Every
    product reads `PointConfig.flat_rho` by the flat indices of
    `_pfaffian_plan`; D comes first, so a coincident link raises."""
    _, roots, cross = _pfaffian_plan(len(config))
    rho = config.flat_rho.__getitem__
    den = math.prod(map(rho, cross))
    if not den:
        raise DegenerateConfiguration("coincident points on a pole pair")
    den **= p
    total = 0
    for num, (_, links) in zip(nums, roots):
        total += num * (den // math.prod(map(rho, links)) ** p)
    return Fraction(total * a * config.scale ** len(config), b * den)


def v1_scalar_connected(config: PointConfig) -> Fraction:
    """Connected 2n-point function of the scalar bilocal: one-loop cycles
    with propagator 1/rho over each pole structure's links, summed by
    `_pole_structure_sum`."""
    return _pole_structure_sum(config, itertools.repeat(1), 1, 1, 1)


@functools.cache
def cycle_constant(n: int) -> Fraction:
    """c_n = -2 (-1/2)^(n-2), the ratio of a cycle's trace to its Pfaffian.

    `cycle_trace_numerator(seq, points)` is c_n Pf(A_seq), A_seq the
    antisymmetric matrix of the rho_ij with i, j read in the order of seq:
    the signed pairing sum `wick_numerator(n, seq)`.  It is a polynomial
    identity in the coordinates, and relabeling the points carries it from
    one cycle to every other, so the symbolic tests of the identity for
    the cycle (0, 1, ..., 2n - 1) prove it for n <= 4.  For n >= 5 it is
    measured at seeded configurations only (`fit_cycle_constant`).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return -2 * Fraction(-1, 2) ** (n - 2)


def _dihedral_key(seq: CycleSeq) -> CycleSeq:
    """The representative of a cyclic sequence up to rotation and
    reflection: rotated to start at its lowest point, and read towards the
    lower of that point's two neighbours."""
    k = seq.index(min(seq))
    rot = seq[k:] + seq[:k]
    return rot if rot[1] <= rot[-1] else (rot[0], *rot[:0:-1])


@functools.cache
def _pfaffian_plan(m: int):
    """Pf(A_seq) of every `orbit_enumerate(n)` cycle as one shared Laplace
    expansion, built once per point count m = 2n; ValueError on an odd m.

    A sub-Pfaffian is the Pfaffian of a cyclic subsequence L, and it
    depends on L only up to rotation and reflection: the `laplace_step`
    sign of each pairing is (-1)^(chord crossings), and whether two chords
    of a circle cross depends on neither the cut point nor the direction.
    So each node is keyed by `_dihedral_key` and expanded by one
    `laplace_step` along its first, lowest point:
    Pf(L) = sum_j (-1)^(j-1) rho_{L0 Lj} Pf(L without L0, Lj).  A node is a
    tuple of terms (sign, flat rho index L0 * 2n + Lj, child slot).  Slot 0
    holds the empty sequence, whose Pfaffian is 1, and node k fills slot
    k + 1 after its children.  That is 24 nodes with 76 terms at n = 3 and
    168 with 836 at n = 4.  Returns the nodes, per cycle its root slot and
    the flat indices i * 2n + j of its links in `PointConfig.flat_rho`, and
    the flat indices of the pairs in different blocks.
    """
    if m % 2:
        raise ValueError(f"need an even number of points, not {m}")
    slots = {(): 0}
    nodes = []

    def visit(seq: CycleSeq) -> int:
        key = _dihedral_key(seq) if seq else seq
        if key not in slots:
            steps = laplace_step(key)
            nodes.append(tuple((sign, a * m + b, visit(rest)) for sign, (a, b), rest in steps))
            slots[key] = len(nodes)
        return slots[key]

    pairs = itertools.combinations(range(m), 2)
    cycles = orbit_enumerate(m // 2)
    roots = tuple((visit(seq), tuple(i * m + j for i, j in links_of(seq))) for seq in cycles)
    return tuple(nodes), roots, tuple(i * m + j for i, j in pairs if i // 2 != j // 2)


def cycle_pfaffians(config: PointConfig) -> List[int]:
    """Pf(A_seq) of each `orbit_enumerate(n)` cycle in order, on
    the integer intervals L^2 rho_ij of a configuration of 2n points, so
    the Pfaffian is L^(2n) times the signed pairing sum
    `wick_numerator(n, seq)` at the configuration.  The nodes of
    `_pfaffian_plan` are evaluated in order on integers."""
    nodes, roots, _ = _pfaffian_plan(len(config))
    flat = config.flat_rho
    values = [1]
    for terms in nodes:
        value = 0
        for sign, k, child in terms:
            if sign > 0:
                value += flat[k] * values[child]
            else:
                value -= flat[k] * values[child]
        values.append(value)
    return [values[slot] for slot, _ in roots]


def v1_weyl_connected(config: PointConfig) -> Fraction:
    """Connected 2n-point function of the Weyl bilocal via cycle traces.

    Normalized so that the 4-point value is j_1(s, t)/(rho13 rho24)
    exactly; with the unit-normalized spinor 2-point function the raw
    trace sum is twice this at every n, a constant the lambda fits of the
    symmetrization ansatz would otherwise simply absorb.  The value is the
    sum over `orbit_enumerate(n)` of the `cycle_trace_2n` terms, halved.
    Each cycle's trace is c_n Pf(A_seq) (`cycle_constant`; proved for
    n <= 4, measured above), so the sum is (c_n / 2) sum Pf(A_seq) / prod
    over its links of rho^2.  The Pfaffians are formed on the integer
    intervals with shared sub-Pfaffians (`cycle_pfaffians`) and summed
    over their squared link poles by `_pole_structure_sum`.
    No quaternion is multiplied: `cycle_trace_2n` keeps the traces as the
    oracle.
    """
    c = cycle_constant(len(config) // 2)
    return _pole_structure_sum(config, cycle_pfaffians(config), 2, c.numerator, 2 * c.denominator)


def v1_weyl_npoint(config: PointConfig) -> Fraction:
    """Full 2n-point function of the Weyl bilocal, which has no 1-point
    part: the sum, over the parts P of at least two blocks that hold block
    0, of the connected function on P times the full function on the other
    blocks (1 on none, 0 on one).  Below eight points P holds every block,
    so it is `v1_weyl_connected`, which also rejects an odd point count."""
    n = len(config) // 2
    if 1 < n < 4 or len(config) % 2:
        return v1_weyl_connected(config)

    def full(blocks: Tuple[int, ...]):
        if not blocks:
            return 1
        first, others = blocks[0], blocks[1:]
        total = 0
        for k in range(1, len(others) + 1):
            for mates in itertools.combinations(others, k):
                rest = tuple(b for b in others if b not in mates)
                if len(rest) != 1:
                    part = [p for b in (first, *mates) for p in (2 * b, 2 * b + 1)]
                    total += v1_weyl_connected(config.subset(part)) * full(rest)
        return total

    return Fraction(full(tuple(range(n))))


# -- first-principles Wick network for the composite scalars ------------------------


def _fermion_tables(config: PointConfig) -> List[List[List[tuple]]]:
    """The psi and chi Wick contractions between a field operator (at
    vertex fv) and its conjugate (at vertex cv), as matrices indexed
    (fv, cv), filled in one pass over the pairs (no walk reads the diagonal).
    Entry (fv, cv) is the slash quaternion, as an int 4-tuple, times rho^(3 - p):
    psi: <psi(x) psi+(y)> = slash+(x - y) / rho^2, p = 2;
    chi: <chi(x) chi+(y)> = slash(x - y) / rho^3, p = 3.
    No entry carries a sign: the loop's -1 is applied once to the sum."""
    pts, rho = config.int_points, config.int_rho
    psi, chi = [[None] * len(pts) for _ in pts], [[None] * len(pts) for _ in pts]
    for i, j in itertools.combinations(range(len(pts)), 2):
        (x0, x1, x2, x3), r = vsub(pts[i], pts[j]), rho[i][j]
        chi[i][j], chi[j][i] = (x3, x0, x1, x2), (-x3, -x0, -x1, -x2)
        y0, y1, y2, y3 = x3 * r, x0 * r, x1 * r, x2 * r
        psi[i][j], psi[j][i] = (y0, -y1, -y2, -y3), (-y0, y1, y2, y3)
    return [psi, chi]


def _quaternion_sum(terms) -> tuple:
    """Sum of state * entry * factor over the terms, on int 4-tuples."""
    sa = sb = sc = sd = 0
    for (a, b, c, d), (w, x, y, z), f in terms:
        sa += (a * w - b * x - c * y - d * z) * f
        sb += (a * x + b * w + c * z - d * y) * f
        sc += (a * y - b * z + c * w + d * x) * f
        sd += (a * z + b * y - c * x + d * w) * f
    return sa, sb, sc, sd


def _walk_sums(config: PointConfig, tables, combine, close) -> Tuple[int, int]:
    """R of `l1_truncated_npoint` and the sum over its walks, by a subset
    DP (Held-Karp).  Step k of a walk (cycle from 0, parity) takes an entry
    value * rho^(3 - p) of table (k + parity) mod 2, p its pole power.  State
    (S, u), S a bitmask of the points 1..m-1 and u the last, sums over the
    walks from 0 through S to u their value products times W_S / weight,
    W_S = prod rho^3 over the pairs in S and 0: an integer, as a walk joins
    a pair at most once.  Step u -> x multiplies W by M(S, x) = prod rho_ix^3
    over i in S and 0 and divides by rho_ux^p: `combine` sums the terms
    (state, entry, M(S - u, x)).  Closing at u divides by rho_u0^3 exactly:
    above two points no walk ending at u used (u, 0).  The full W is
    R = prod_{i<j} rho_ij^3 (rho^5 at m = 2, the sum lifted by rho^2); M
    reads a table of rho^3 cubed once.  ValueError unless m is even, >= 2."""
    m, rho = len(config), config.int_rho
    if m < 2 or m % 2:
        raise ValueError(f"need an even number of points, at least two, not {m}")
    lift = rho[0][1] ** 2 if m == 2 else 1
    pole = config.pole(itertools.combinations(range(m), 2)) ** 3 * lift
    size, bit = 1 << (m - 1), [1 << i >> 1 for i in range(m)]
    members = [[u for u in range(1, m) if s & bit[u]] for s in range(size)]
    cube = [[r**3 for r in row] for row in rho]
    cubed = [[cube[0][x]] for x in range(m)]  # cubed[x][S] = M(S, x)
    for s in range(1, size):
        prev, row = s ^ bit[members[s][0]], cube[members[s][0]]
        for x, col in enumerate(cubed):
            col.append(col[prev] * row[x])
    total = 0
    for parity in (0, 1):
        kinds = [tables[(k + parity) % 2] for k in range(m)]
        states = [[None] * m for _ in range(size)]
        for t in range(1, size):
            for x in members[t]:
                s, table, col = t ^ bit[x], kinds[len(members[t]) - 1], cubed[x]
                terms = [(states[s][u], table[u][x], col[s ^ bit[u]]) for u in members[s]]
                states[t][x] = combine(terms) if s else table[0][x]
        for u in members[-1]:
            total += close(states[-1][u], kinds[-1][u][0]) * lift // cubed[u][0]
    return pole, total


def l1_truncated_npoint(config: PointConfig) -> Fraction:
    """Truncated 2n-point function of the composite psi+ chi + chi+ psi.

    Direct fermionic Wick sum over the single-loop contraction patterns,
    walked as the (cycle from 0, parity) pairs of the module docstring:
    each step runs from a field to its conjugate, so two tables filled in
    one pass hold every propagator, the spinor indices contract to the
    trace along the walk, and the closed loop gives each walk the sign -1.
    The walks are summed by the subset DP of `_walk_sums` on integer
    quaternion 4-tuples, as integers over R = prod_{i<j} rho_ij^3 (rho^5
    at m = 2), and closed by the trace 2 Re(state entry).  Each loop has
    m/2 edges of each kind, of degrees -3 and -5 in the coordinates, so the
    integer-form sum is rescaled by L^(4m).
    Serves as the independent reference correlator for the
    symmetrization ansatz, and is why lambda_n = 2 at every n: each walk
    is, term by term, one (pattern, block cycle, orientation) triple of
    `symmetrized_wt`, with the chi edges on the pattern pairs and the psi
    edges on the links, and the loop's -1 is the overall minus of
    `cycle_trace_numerator`.  No Pfaffian enters, so the two sides of c08
    stay independent.  An odd or zero point count is a ValueError.
    """
    m = len(config)
    tables = _fermion_tables(config)
    trace = lambda s, q: 2 * (s[0] * q[0] - s[1] * q[1] - s[2] * q[2] - s[3] * q[3])
    pole, total = _walk_sums(config, tables, _quaternion_sum, trace)
    return Fraction(-total * config.scale ** (4 * m), pole)


def l0_truncated_npoint(config: PointConfig) -> Fraction:
    """Truncated 2n-point function of the composite of two commuting free
    scalars of dimensions 1 and 3.

    Connected diagrams are Hamiltonian cycles through the points with the
    two propagators 1/rho and 1/rho^3 alternating along the cycle.  They
    are summed as the walks of `l1_truncated_npoint` on ints, entries rho^2
    and 1, over the same R: reversing a walk and switching its parity keeps
    its weight, so above two points every diagram is walked twice, while at
    m = 2 the one cycle is its own reverse.  The sum, of degree -4m in the
    coordinates, is rescaled by L^(4m).  An odd or zero point count is a ValueError.
    """
    m, rho = len(config), config.int_rho
    tables = [[[r ** (3 - p) for r in row] for row in rho] for p in (1, 3)]
    combine = lambda terms: sum(s * e * f for s, e, f in terms)
    pole, total = _walk_sums(config, tables, combine, operator.mul)
    return Fraction(total * config.scale ** (4 * m), pole * (2 if m > 2 else 1))

"""The acceptance checks, as a registry shared by the CLI and the tests.

A check body only computes: it takes the seed and returns
`(passed, detail)`, or `(passed, detail, residuals)` when it has numeric
residuals (a list of floats) for a tolerance override to judge.
`_check(id, budget)` registers the body as CHECKS[id], wrapped in the one
runner.  The runner times the body and returns the result dict with keys
id, passed, detail and elapsed, plus residuals where the body gave them.
A body that raises fails its check: the detail is "<Type>: <message> (at
file:line in function)" of the exception and its innermost frame, and
elapsed is still set.  A check with a time budget (seconds, next to its
id) fails when elapsed reaches it; the other checks are never judged on
time.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
import traceback
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from . import fourpoint, freefield, kinematics, partialwave, symmetrize, thermal
from .exact import MPoly
from .fourpoint import PWParams

CHECKS: Dict[str, Callable[[int], dict]] = {}


def _check(key: str, budget: Optional[float] = None):
    """Register a check body as CHECKS[key], run under the budget."""

    def register(body):
        def run(seed: int) -> dict:
            t0 = time.perf_counter()
            try:
                passed, detail, *residuals = body(seed)
            except Exception as err:
                passed, detail, residuals = False, _error_detail(err), []
            elapsed = time.perf_counter() - t0
            result = {
                "id": key,
                "passed": passed and (budget is None or elapsed < budget),
                "detail": detail,
                "elapsed": elapsed,
            }
            if residuals:
                result["residuals"] = residuals[0]
            return result

        CHECKS[key] = run
        return body

    return register


def _error_detail(err: Exception) -> str:
    """The detail of a check body that raised: its type and message, and
    the innermost frame of the traceback, where it was raised."""
    frame = traceback.extract_tb(err.__traceback__)[-1]
    where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
    return f"{type(err).__name__}: {err} (at {where})"


def random_params(rng: random.Random) -> PWParams:
    r = lambda: Fraction(rng.randint(-8, 8), rng.randint(1, 4))
    return PWParams(r(), r(), r(), r(), r(), abs(r()))


def _positive_params(rng: random.Random) -> PWParams:
    """A parameter set satisfying the necessary positivity inequalities."""
    nn = lambda: Fraction(rng.randint(0, 8), rng.randint(1, 3))
    a0, a1, a2, c = nn(), nn(), nn(), nn()
    lo = -3 * a1
    hi = (2 * (2 * a0 + a1) + Fraction(11, 3) * c) / 6
    b = lo + (hi - lo) * Fraction(rng.randint(0, 12), 12)
    return PWParams(a0, a1, a2, b, c)


@_check("c01_structure_constants", budget=60)
def _structure_constants(seed: int):
    """Criterion 1: solver B's equal the closed forms, exactly.

    The five unit sets read the unit towers that the twist recursion
    builds; the 20 random sets read their integer combination."""
    rng = random.Random(seed)
    params = [PWParams.unit(k) for k in ("a0", "a1", "a2", "b", "c")]
    params += [random_params(rng) for _ in range(20)]
    failures = []
    for i, p in enumerate(params):
        tower = partialwave.twist_extract(p, 3, partialwave.default_order(10, 3))
        for kappa, max_ell in ((1, 10), (2, 10), (3, 8)):
            sol = partialwave.solve_structure_constants(tower.g[kappa], kappa, max_ell)
            clo = [partialwave.closed_form_B(kappa, l, p) for l in range(max_ell + 1)]
            if sol != clo:
                failures.append((i, kappa))
    return not failures, f"{len(params)} parameter sets, kappa<=3; failures={failures}"


@_check("c02_harmonicity", budget=10)
def _harmonicity(seed: int):
    """Criterion 2: conformal Laplace equation and the palindromic profile."""
    rng = random.Random(seed + 1)
    problems = []
    for nu in range(3):
        if not partialwave.laplace_st(fourpoint.basis_j_small(nu)).num.is_zero():
            problems.append(("laplace", f"j{nu}"))
    for i in range(20):
        p = random_params(rng)
        f1 = partialwave.f1_rational(p)
        if not partialwave.laplace_st(f1).num.is_zero():
            problems.append(("laplace", i))
        prof = _boundary_profile(p)
        if prof.degree_in(0) > 5:
            problems.append(("degree", i))
        if any(prof.coeff((5 - k,)) != prof.coeff((k,)) for k in range(3)):
            problems.append(("palindrome", i))
    return not problems, f"problems={problems}"


def _boundary_profile(p: PWParams):
    """p(t) = t^3 f1(0, t) = P4(0, t) as a polynomial in t."""
    p4 = fourpoint.assemble_P4(p)
    t = MPoly.var(1, 0)
    return p4.subs_poly([MPoly.zero(1), t])


@_check("c03_eigenfunction", budget=5)
def _eigenfunction(_seed: int):
    """Criterion 3: the weighted symmetrization eigen-relations."""
    detail = []
    for nu in range(3):
        lam, sigma, _ = fourpoint.eigen_check(nu)
        detail.append((nu, str(lam), sigma))
    return True, f"(nu, lambda, sigma) = {detail}"


def _partitions3(w: int) -> List[tuple]:
    """The partitions a >= b >= c >= 0 of w into at most three parts."""
    triples = ((a, b, w - a - b) for a in range(w + 1) for b in range(a + 1))
    return [p for p in triples if 0 <= p[2] <= p[1]]


def _rank(rows: List[List[Fraction]]) -> int:
    """The rank of a matrix over Q, by Gaussian elimination in Fractions
    (int entries too, so that no quotient is a float)."""
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = Fraction(rows[i][col], top[col])
            rows[i] = [x - f * y for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def _substitution_oracle(poly: MPoly, points, w: int) -> int:
    """How many of P(s, t) = t^w P(s/t, 1/t) and P(s, t) = s^w P(1/s, t/s),
    the definitions of s12 and s23, hold at the points."""
    held = 0
    for s, t in points:
        value = poly.eval([s, t])
        held += value == t**w * poly.eval([s / t, 1 / t])
        held += value == s**w * poly.eval([1 / s, t / s])
    return held


@_check("c04_crossing")
def _crossing(seed: int):
    """Criterion 4: crossing symmetry of the family, checked by
    `crossing_check` and against the definitions of s12 and s23 by
    evaluation at seeded rational points, and the dimension count against
    an independent one.  s12 and s23 permute the exponent triples
    (a, b, 2d-3-a-b) of s^a t^b, so the crossing-symmetric polynomials are
    spanned by the S3 orbit sums, one per partition of 2d-3 into at most
    three parts."""
    rng = random.Random(seed + 2)
    polys = [fourpoint.basis_J(nu) for nu in range(3)]
    polys += [fourpoint.assemble_P4(random_params(rng)) for _ in range(5)]
    ok = all(fourpoint.crossing_check(p, 4) for p in polys)
    ok = ok and not fourpoint.crossing_check(fourpoint.S, 4)
    nonzero = lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
    points = [(nonzero(), nonzero()) for _ in range(3)]
    held = sum(_substitution_oracle(p, points, 5) for p in polys)
    total = 2 * len(points) * len(polys)
    s_held = _substitution_oracle(fourpoint.S, points, 5)
    oracle_ok = held == total and s_held < 2 * len(points)
    counts_ok = all(
        len(_partitions3(2 * d - 3)) == fourpoint.crossing_dimension(d) for d in range(2, 11)
    )
    parts = _partitions3(5)  # 2d - 3 at d = 4
    orbits = [MPoly(2, {e[:2]: Fraction(1) for e in itertools.permutations(p)}) for p in parts]
    orbits_ok = all(fourpoint.crossing_check(o, 4) for o in orbits)
    family = fourpoint.basis_P4()
    rows = [[f.coeff(p[:2]) for p in parts] for f in family]
    spanned = all(
        sum((c * o for c, o in zip(row, orbits)), MPoly.zero(2)) == f
        for row, f in zip(rows, family)
    )
    rank = _rank(rows) if spanned else None
    return ok and oracle_ok and counts_ok and orbits_ok and rank == 5, (
        f"substitution oracle: {held}/{total} identities hold for J0-J2 and 5 random P4, "
        f"{s_held}/{2 * len(points)} for S; "
        f"partition counts = crossing_dimension for d=2..10: {counts_ok}, "
        f"d=4 orbit sums crossing-symmetric: {orbits_ok}, family rank in orbit basis={rank}"
    )


@_check("c05_appendix_oracle")
def _appendix_oracle(seed: int):
    """Criterion 5: the quaternion-trace realization of the j1 channel.

    `v1_weyl_4pt` sums Pfaffians, so the quaternion cycle traces of its two
    pole structures are compared with it as well."""
    rng = random.Random(seed + 3)
    j1 = fourpoint.basis_j_small(1)
    bad = 0
    for _ in range(100):
        cfg = kinematics.random_config(rng, 4)
        cr = kinematics.cross_ratios(cfg)
        v4 = freefield.v1_weyl_4pt(cfg)
        traces = sum(freefield.cycle_trace_2n(cfg, s) for s in freefield.orbit_enumerate(2))
        if v4 * cfg.rho(0, 2) * cfg.rho(1, 3) != j1.eval([cr.s, cr.t]) or 2 * v4 != traces:
            bad += 1
    sym_ok = (
        freefield.trace4_identity_symbolic()
        and freefield.interval_identities_symbolic()
        and freefield.anticommutation_symbolic()
    )
    return bad == 0 and sym_ok, f"mismatches={bad}/100, symbolic identities={sym_ok}"


def _w_sixpoint_braces(c) -> Fraction:
    r = c.rho
    br = (
        r(0, 1) * (r(2, 3) * r(4, 5) - r(2, 4) * r(3, 5) + r(2, 5) * r(3, 4))
        - r(0, 2) * (r(1, 3) * r(4, 5) - r(1, 4) * r(3, 5) + r(1, 5) * r(3, 4))
        + r(0, 3) * (r(1, 2) * r(4, 5) - r(1, 4) * r(2, 5) + r(1, 5) * r(2, 4))
        - r(0, 4) * (r(1, 2) * r(3, 5) - r(1, 3) * r(2, 5) + r(1, 5) * r(2, 3))
        + r(0, 5) * (r(1, 2) * r(3, 4) - r(1, 3) * r(2, 4) + r(1, 4) * r(2, 3))
    )
    return br / (r(0, 5) * r(1, 2) * r(3, 4)) ** 2


@_check("c06_sixpoint_oracle")
def _sixpoint_oracle(seed: int):
    """Criterion 6: elementary contributions and the Wick pairing structure."""
    rng = random.Random(seed + 4)
    bad = 0
    for _ in range(25):
        cfg = kinematics.random_config(rng, 6)
        if freefield.cycle_trace_2n(cfg, (0, 1, 2, 3, 4, 5)) != _w_sixpoint_braces(cfg):
            bad += 1
    # the closed-form constants, fitted at one config each (n = 2..5) and
    # reverified symbolically (n = 2, 3) and numerically (n = 4)
    c = {n: freefield.cycle_constant(n) for n in (2, 3, 4, 5)}
    fit = freefield.fit_cycle_constant
    fitted = all(fit(n, kinematics.random_config(rng, 2 * n)) == c[n] for n in c)
    sym = [
        freefield.cycle_trace_numerator_symbolic(tuple(range(2 * n)), 2 * n)
        == c[n] * freefield.wick_numerator(n).subs_poly(freefield.rho_symbolic(2 * n))
        for n in (2, 3)
    ]
    wick4 = freefield.wick_numerator(4)
    num_ok = 0
    for _ in range(10):
        cc = kinematics.random_config(rng, 8)
        lhs = freefield.cycle_trace_numerator((0, 1, 2, 3, 4, 5, 6, 7), cc.points)
        if lhs == c[4] * wick4.eval(freefield.rho_point(cc)):
            num_ok += 1
    return bad == 0 and fitted and all(sym) and num_ok == 10, (
        f"braces mismatches={bad}/25, c2={c[2]}, c3={c[3]}, c4={c[4]}, c5={c[5]}, "
        f"fitted=closed form (n=2..5): {fitted}, "
        f"symbolic(n=2,3)=({sym[0]},{sym[1]}), numeric n=4: {num_ok}/10"
    )


@_check("c07_combinatorics")
def _combinatorics(_seed: int):
    """Criterion 7: pairing and orbit counting."""
    ok = all(
        len(symmetrize.enumerate_patterns(n)) == symmetrize.double_factorial_odd(n)
        for n in range(1, 7)
    )
    orbit_sizes = tuple(len(freefield.orbit_enumerate(n)) for n in (2, 3, 4))
    ok = ok and orbit_sizes == (2, 8, 48)
    n3 = len(symmetrize.enumerate_patterns(3)) * len(freefield.orbit_enumerate(3))
    ok = ok and n3 == 120
    # (pattern, block cycle, orientation) triples against the 2 (2n-1)!
    # (cycle, parity) walks of the l1 Wick sum: why lambda_n = 2 at every n
    walks_ok = all(
        symmetrize.double_factorial_odd(n) * len(freefield.orbit_enumerate(n)) * 2
        == 2 * math.factorial(2 * n - 1)
        for n in range(2, 6)
    )
    return ok and walks_ok, (
        f"orbits={orbit_sizes}, n=3 elementary contributions={n3}, "
        f"triples=walks for n=2..5: {walks_ok}"
    )


@_check("c08_symmetrizability")
def _symmetrizability(seed: int):
    """Criterion 8: fitted lambdas and the n = 3 and n = 4 ratios of both
    composites."""
    rng = random.Random(seed + 5)
    configs = [kinematics.random_config(rng, 4) for _ in range(6)]

    def ref(nu):
        J = fourpoint.basis_J(nu)
        return lambda cfg: fourpoint.truncated_4pt_value(J, cfg, 4)

    def pw_eval(nu):
        j = fourpoint.basis_j_small(nu)

        def ev(cfg):
            cr = kinematics.cross_ratios(cfg)
            return j.eval([cr.s, cr.t]) / (cfg.rho(0, 2) * cfg.rho(1, 3))

        return ev

    lam0 = symmetrize.fit_lambda(2, ref(0), freefield.v1_scalar_connected, configs)
    lam1 = symmetrize.fit_lambda(2, ref(1), freefield.v1_weyl_connected, configs)
    lam2 = symmetrize.fit_lambda(2, ref(2), pw_eval(2), configs)
    lam_ok = lam0 == lam1 == 2 * lam2
    larger = {
        3: [kinematics.random_config(rng, 6) for _ in range(20)],
        4: [kinematics.random_config(rng, 8) for _ in range(4)],
    }

    def ratio(n, reference, v1_eval):
        try:
            return symmetrize.fit_lambda(n, reference, v1_eval, larger[n])
        except symmetrize.NotSymmetrizable:
            return None

    ff = freefield
    weyl = {n: ratio(n, ff.l1_truncated_npoint, ff.v1_weyl_connected) for n in larger}
    scalar = {n: ratio(n, ff.l0_truncated_npoint, ff.v1_scalar_connected) for n in larger}
    ratios = ", ".join(
        f"n={n} weyl ratio={weyl[n]}, n={n} scalar ratio={scalar[n]}" for n in larger
    )
    return (
        lam_ok and all(weyl[n] == 2 and scalar[n] == 1 for n in larger),
        f"lambda2=({lam0},{lam1},{lam2}), {ratios}",
    )


@_check("c09_thermal_series", budget=30)
def _thermal_series(_seed: int):
    """Criterion 9: energy mean values as exact q-series."""
    problems = []
    # the low orders, and the top of the benchmark's order range
    for n in (100, 600):
        e4 = thermal.energy_mean_scalar(4, n)
        if e4 != thermal.eisenstein_G(2, n) or e4[0] != Fraction(1, 240):
            problems.append(f"scalar4 at order {n}")
        e6 = thermal.energy_mean_scalar(6, n)
        combo6 = (thermal.eisenstein_G(3, n) - thermal.eisenstein_G(2, n)) * Fraction(1, 12)
        if e6 != combo6 or e6[0] != Fraction(-31, 12 * math.factorial(7)):
            problems.append(f"scalar6 at order {n}")
    block = lambda n: Fraction(n**3 * (n * n - 1), 12)
    if (block(3), block(4)) != (18, 80):
        problems.append("scalar6 displayed blocks")
    if block(2) != 2:  # the displayed expansion omits this term
        problems.append("scalar6 n=2 flag")
    for n in (50, 600):
        w = thermal.energy_mean_weyl(n)
        combo = thermal.weyl_modular_combination(n)
        if w != combo:
            problems.append(f"weyl two-line (sign-corrected) at order {n}")
        if w[0] != Fraction(17, 960):
            problems.append(f"weyl E0 at order {n}")
        if -combo == w:
            problems.append(f"printed (negated) form matches the Fermi series at order {n}")
    return not problems, (
        "E0=+17/960 with sign-corrected combination; printed form is its "
        f"negation (constant -17/960) and disagrees with the Fermi series; n=2 block "
        f"weight 2 omitted from the displayed D=6 expansion; problems={problems}"
    )


@_check("c10_modular_numerics", budget=10)
def _modular_numerics(_seed: int):
    """Criterion 10: weight-4 law, weight-2 anomaly, theta-group form."""
    r1 = thermal.modular_check_G(2, 1.1j, 200)
    r2 = thermal.modular_check_G(2, 0.3 + 1.2j, 200)
    r3 = thermal.g2_anomaly_check(1.3j, 300)
    theta = thermal.theta_form_checks(1.3j, 300)
    r4, r5 = theta["S"], theta["T2"]
    return (
        r1 < 1e-10 and r2 < 1e-10 and r3 < 1e-10 and r4 < 1e-8 and r5 < 1e-10,
        f"residuals: G4@1.1i={r1:.2e}, G4@0.3+1.2i={r2:.2e}, "
        f"G2-anomaly={r3:.2e}, theta-S={r4:.2e}, theta-T2={r5:.2e}",
        [r1, r2, r3, r4, r5],
    )


@_check("c11_gibbs")
def _gibbs(_seed: int):
    """Criterion 11: Gibbs two-point representations and KMS residuals."""
    za, aa, ta = 0.13, 0.37, 1.5j
    rep_diff = abs(
        thermal.gibbs_scalar_2pt(za, aa, ta, 60) - thermal.gibbs_scalar_modes(za, aa, ta, 60)
    )
    lattice = max(
        abs(thermal.elliptic_p1(z, ta, 60) - thermal.p1_lattice(z, ta, 25))
        for z in (za + aa, za - aa)
    )
    kms = thermal.kms_translate_sum_check("scalar", za, aa, ta, 8)
    u1 = (0.0, 0.0, 0.0, 1.0)
    u2 = (math.sin(2 * math.pi * aa), 0.0, 0.0, math.cos(2 * math.pi * aa))
    wq = thermal.gibbs_weyl_2pt(za, aa, u1, u2, 10j, 30)
    wv = thermal.weyl_vacuum_2pt(za, aa, u1, u2)
    vac = max(map(abs, wq - wv))
    kms_w = thermal.kms_translate_sum_check("weyl4", za, aa, ta, 8, u1, u2)
    anti = kms_w["periodicity_residual"]
    passed = (
        rep_diff < 1e-12
        and lattice < 1e-12
        and kms["passed"]
        and kms_w["passed"]
        and vac < 1e-10
    )
    return (
        passed,
        f"p1-vs-modes={rep_diff:.2e}, scalar KMS residual={kms['residual']:.2e} "
        f"(bound {kms['edge_bound']:.2e}), weyl antiperiodicity={anti:.2e}, "
        f"weyl vacuum match={vac:.2e}, p1-vs-lattice={lattice:.2e}",
        [rep_diff, kms["residual"], kms_w["residual"], anti, vac, lattice],
    )


@_check("c12_kernel")
def _kernel(_seed: int):
    """Criterion 12: kernel Taylor coefficients against quadrature."""
    residuals = []
    for kappa, ell in ((1, 0), (1, 1), (2, 0)):
        for m in range(4):
            for n in range(4):
                exact = float(partialwave.kernel_coeff(kappa, ell, m, n))
                quad = partialwave.kernel_coeff_quadrature(kappa, ell, m, n)
                residuals.append(abs(exact - quad))
    worst = max(residuals)
    return worst < 1e-12, f"worst |exact - quadrature| = {worst:.2e}", residuals


@_check("c13_positivity")
def _positivity(seed: int):
    """Criterion 13: the admissibility box and the positivity of the scans."""
    problems = []
    # boundary flips along b at a1 = 1, a2 = 0, a0 = c = 0
    for b, expect in [
        (Fraction(-31, 10), False),
        (Fraction(-3), True),
        (Fraction(1, 3), True),
        (Fraction(1, 3) + Fraction(1, 30), False),
        (Fraction(1), False),
    ]:
        rep = partialwave.positivity_check(PWParams(a1=1, b=b))
        if rep.admissible != expect:
            problems.append(f"b={b}")
    trivial = partialwave.positivity_check(PWParams())
    if not (trivial.admissible and trivial.trivial):
        problems.append("trivial flag")
    # the six conditions imply every twist <= 6 closed form is >= 0
    rng = random.Random(seed + 6)
    for i in range(20):
        p = _positive_params(rng)
        rep = partialwave.positivity_check(p)
        if not rep.admissible:
            problems.append(f"scan {i}: {rep.first_violation}")
        problems += [
            f"scan {i}: B[{kappa},{ell}] < 0"
            for kappa in (1, 2, 3)
            for ell in range(51)
            if partialwave.closed_form_B(kappa, ell, p) < 0
        ]
    return not problems, f"problems={problems}"

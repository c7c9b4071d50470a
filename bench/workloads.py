"""The four benchmark workloads: seeded inputs, the op each input drives,
and the independent oracle each op is checked against.

Inputs are plain data drawn from the seed by this file alone, so they do
not change when the library changes.  An op makes only library calls,
each through `call(name, fn, *args)` so that a traced run puts a span
around it; it stores what the calls return in `out` as it goes, so a
failed op still leaves its partial outputs.  The checks, the oracle
arithmetic and the digest lines run outside the op timer.

Inputs come in blocks.  A block is stratified over the properties the
op cost depends on (twist depth, spin, model, series order), and runs
always stop at a block boundary, so every run sees the same mix.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Tuple

Point = Tuple[Fraction, Fraction, Fraction, Fraction]


class CheckFailed(Exception):
    """An op returned a value that disagrees with its oracle."""


def fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def rho(p: Point, q: Point) -> Fraction:
    return sum((a - b) ** 2 for a, b in zip(p, q))


def random_points(rng: random.Random, n: int) -> Tuple[Point, ...]:
    """n rational 4-vectors with no vanishing pairwise interval."""
    while True:
        pts = tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(4))
            for _ in range(n)
        )
        if all(rho(pts[i], pts[j]) for i in range(n) for j in range(i + 1, n)):
            return pts


def random_params(rng: random.Random, with_B: bool) -> Tuple[Fraction, ...]:
    """(a0, a1, a2, b, c, B); B > 0 exactly when with_B."""
    r = lambda: Fraction(rng.randint(-8, 8), rng.randint(1, 4))
    B = Fraction(rng.randint(1, 8), rng.randint(1, 4)) if with_B else Fraction(0)
    return (r(), r(), r(), r(), r(), B)


class Workload:
    name = ""
    block_size = 1
    # wall time of one block at the seed on a 2-core machine; sizes the
    # fixed prefix of blocks that the traced run and the digest cover
    nominal_block_s = 1.0
    # inputs drawn at set-up; a run that uses them all ends early
    max_blocks = 1

    def generate(self, rng: random.Random, lib) -> List[list]:
        return [self.block(rng) for _ in range(self.max_blocks)]

    def block(self, rng: random.Random) -> list:
        raise NotImplementedError

    def references(self, lib) -> dict:
        return {}

    def op(self, lib, refs: dict, inp, call: Callable, out: dict) -> None:
        raise NotImplementedError

    def check(self, refs: dict, inp, out: dict) -> None:
        raise NotImplementedError

    def expected_failure(self, inp, exc: Exception, lib) -> bool:
        """True for a failure that is a known, documented defect."""
        return False

    def exact_outputs(self, inp, out: dict) -> Iterable[str]:
        raise NotImplementedError

    def counts(self, inp, out: dict) -> Dict[str, int]:
        return {}


# -- decompose ------------------------------------------------------------------


@dataclass(frozen=True)
class DecomposeInput:
    params: Tuple[Fraction, ...]
    max_twist: int
    max_spin: int

    @property
    def order(self) -> int:  # the CLI default 2L + 2T + 8
        return 2 * self.max_spin + 2 * self.max_twist + 8


# max_spin ranges per max_twist: twists 3 and 6 take both ends of 10..24,
# twists 4 and 5 the middle, so the blocks hold the high-spin, low-twist
# corner where ROADMAP item 4 gains most and the corners where it gains least
SPINS = {3: ((10, 11), (23, 24)), 4: ((14, 15), (19, 20)), 5: ((14, 15), (19, 20)), 6: ((10, 11), (23, 24))}


class Decompose(Workload):
    """Twist decomposition and structure constants, as `gcipw decompose`
    and `gcipw positivity` run them.

    A block of 8 ops has each max_twist in 3..6 twice, once with each of
    its two max_spin ranges, and B != 0 on exactly one of the two.  Every
    block has this same design, so every run has the same mix of costs
    whatever its length; the seed draws the values within it.
    """

    name = "decompose"
    block_size = 8
    nominal_block_s = 4.0
    max_blocks = 64

    def block(self, rng):
        ops = []
        for twist, spins in SPINS.items():
            with_B = rng.sample([False, True], 2)
            for (lo, hi), b in zip(spins, with_B):
                ops.append(DecomposeInput(random_params(rng, b), twist, rng.randint(lo, hi)))
        rng.shuffle(ops)
        return ops

    def op(self, lib, refs, inp, call, out):
        pw, fp = lib.partialwave, lib.fourpoint
        p = fp.PWParams(*inp.params)
        out["P4"] = call("fourpoint.assemble_P4", fp.assemble_P4, p)
        tower = call("partialwave.twist_extract", pw.twist_extract, p, inp.max_twist, inp.order)
        out["tower"] = tower
        out["B"] = {}
        for kappa in range(1, inp.max_twist + 1):
            out["B"][kappa] = call(
                "partialwave.solve_structure_constants",
                pw.solve_structure_constants, tower.g[kappa], kappa, inp.max_spin,
            )
        out["closed"] = {
            kappa: [
                call("partialwave.closed_form_B", pw.closed_form_B, kappa, ell, p)
                for ell in range(inp.max_spin + 1)
            ]
            for kappa in (1, 2, 3)
        }
        out["positivity"] = call(
            "partialwave.positivity_check", pw.positivity_check, p, scan_spin=inp.max_spin
        )

    def check(self, refs, inp, out):
        for kappa in (1, 2, 3):
            if out["B"][kappa] != out["closed"][kappa]:
                raise CheckFailed(f"solver B differs from the closed form at kappa={kappa}")
        a0, a1, a2, b, c, _ = inp.params
        conditions = (a0, a1, a2, 3 * a1 + b, c, 6 * (2 * a0 + a1 - 3 * b) + 11 * c)
        admissible = all(v >= 0 for v in conditions) and all(
            v >= 0 for vals in out["closed"].values() for v in vals
        )
        if out["positivity"].admissible != admissible:
            raise CheckFailed("positivity verdict differs from the inequalities and scan")

    def expected_failure(self, inp, exc, lib):
        # ROADMAP item 1: with B != 0 the B^2 tail sits one twist too high,
        # so the kappa = 5 solve finds an odd power it cannot reproduce
        return (
            isinstance(exc, lib.partialwave.InconsistentExpansion)
            and inp.params[5] != 0
            and inp.max_twist >= 5
        )

    def exact_outputs(self, inp, out):
        if "P4" in out:
            yield "P4 " + " ".join(f"{e}:{fmt(c)}" for e, c in sorted(out["P4"].terms.items()))
        if "tower" in out:
            for kappa, g in sorted(out["tower"].g.items()):
                yield f"g{kappa} " + " ".join(fmt(c) for c in g.coeffs)
        for kappa, vals in sorted(out.get("B", {}).items()):
            yield f"B{kappa} " + " ".join(fmt(v) for v in vals)
        if "positivity" in out:
            rep = out["positivity"]
            yield f"admissible {rep.admissible} {rep.first_violation}"

    def counts(self, inp, out):
        if "tower" not in out:
            return {}
        f = out["tower"].f
        stored = sum(len(fk.coeffs) for fk in f.values())
        useful = sum(
            1 for k, fk in f.items() for (_, j) in fk.coeffs if j <= inp.max_twist - k
        )
        return {"f_coeffs": stored, "f_coeffs_useful": useful}


# -- wick -------------------------------------------------------------------------


@dataclass(frozen=True)
class WickInput:
    six: Tuple[Point, ...]
    eight: Tuple[Point, ...]
    four: Tuple[Point, ...]


SIX = (0, 1, 2, 3, 4, 5)
EIGHT = (0, 1, 2, 3, 4, 5, 6, 7)


def braces_sixpoint(pts: Tuple[Point, ...]) -> Fraction:
    """The displayed braces formula for the canonical 6-point contribution."""
    r = lambda i, j: rho(pts[i], pts[j])
    br = (
        r(0, 1) * (r(2, 3) * r(4, 5) - r(2, 4) * r(3, 5) + r(2, 5) * r(3, 4))
        - r(0, 2) * (r(1, 3) * r(4, 5) - r(1, 4) * r(3, 5) + r(1, 5) * r(3, 4))
        + r(0, 3) * (r(1, 2) * r(4, 5) - r(1, 4) * r(2, 5) + r(1, 5) * r(2, 4))
        - r(0, 4) * (r(1, 2) * r(3, 5) - r(1, 3) * r(2, 5) + r(1, 5) * r(2, 3))
        + r(0, 5) * (r(1, 2) * r(3, 4) - r(1, 3) * r(2, 4) + r(1, 4) * r(2, 3))
    )
    return br / (r(0, 5) * r(1, 2) * r(3, 4)) ** 2


# fixed configurations for the fitted constants, the same for every seed
REFERENCE_SEED = "gcipw-bench/references"


class Wick(Workload):
    """The numeric free-field oracles of `gcipw oracle` and check c08:
    one 6-point, one 8-point and one 4-point configuration per op."""

    name = "wick"
    block_size = 4
    nominal_block_s = 3.2
    max_blocks = 64

    def block(self, rng):
        return [
            WickInput(random_points(rng, 6), random_points(rng, 8), random_points(rng, 4))
            for _ in range(self.block_size)
        ]

    def references(self, lib):
        ff, kin = lib.freefield, lib.kinematics
        rng = random.Random(REFERENCE_SEED)
        six = [kin.PointConfig(random_points(rng, 6)) for _ in range(2)]
        return {
            "c4": ff.fit_cycle_constant(4, kin.PointConfig(random_points(rng, 8))),
            "wick4": ff.wick_numerator(4),
            "lambda3": lib.symmetrize.fit_lambda(
                3, ff.l1_truncated_npoint, ff.v1_weyl_npoint, six
            ),
            "j1": lib.fourpoint.basis_j_small(1),
        }

    def op(self, lib, refs, inp, call, out):
        ff, kin = lib.freefield, lib.kinematics
        c6 = kin.PointConfig(inp.six)
        c8 = kin.PointConfig(inp.eight)
        c4 = kin.PointConfig(inp.four)

        def weyl(cfg):
            return call("freefield.v1_weyl_npoint", ff.v1_weyl_npoint, cfg)

        out["trace6"] = call("freefield.cycle_trace_2n", ff.cycle_trace_2n, c6, SIX)
        out["l1"] = call("freefield.l1_truncated_npoint", ff.l1_truncated_npoint, c6)
        out["wt"] = call(
            "symmetrize.symmetrized_wt", lib.symmetrize.symmetrized_wt, 3, Fraction(1), weyl, c6
        )
        out["trace8"] = call(
            "freefield.cycle_trace_numerator", ff.cycle_trace_numerator, EIGHT, c8.points
        )
        rho8 = call("freefield.rho_point", ff.rho_point, c8)
        out["wick8"] = call("exact.mpoly.eval", refs["wick4"].eval, rho8)
        out["v4"] = call("freefield.v1_weyl_4pt", ff.v1_weyl_4pt, c4)
        cr = call("kinematics.cross_ratios", kin.cross_ratios, c4)
        out["j1"] = call("exact.ratfn.eval", refs["j1"].eval, [cr.s, cr.t])

    def check(self, refs, inp, out):
        if out["trace6"] != braces_sixpoint(inp.six):
            raise CheckFailed("6-point cycle trace differs from the braces formula")
        if out["wt"] == 0 or out["l1"] != refs["lambda3"] * out["wt"]:
            raise CheckFailed("l1 / symmetrized w_t differs from lambda_3")
        if out["trace8"] != refs["c4"] * out["wick8"]:
            raise CheckFailed("8-point cycle trace differs from c4 * Wick numerator")
        p = inp.four
        if out["v4"] * rho(p[0], p[2]) * rho(p[1], p[3]) != out["j1"]:
            raise CheckFailed("Weyl 4-point function differs from the j1 oracle")

    def exact_outputs(self, inp, out):
        for key in ("trace6", "l1", "wt", "trace8", "wick8", "v4", "j1"):
            if key in out:
                yield f"{key} {fmt(out[key])}"


# -- symbolic ----------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicInput:
    seq: Tuple[int, ...]
    params: Tuple[Fraction, ...]


class Symbolic(Workload):
    """The symbolic MPoly/RatFn paths: the n = 3 Wick identity for one
    orbit sequence, as `gcipw oracle` checks it, and the harmonicity and
    crossing of f1 on one parameter set, as checks c02 and c04 do.

    Each of the 8 sequences is visited at most once per process, as the
    CLI computes each trace once per process.
    """

    name = "symbolic"
    nominal_block_s = 4.5
    max_blocks = 8

    def generate(self, rng, lib):
        seqs = sorted(lib.freefield.orbit_enumerate(3))
        rng.shuffle(seqs)
        return [[SymbolicInput(tuple(s), random_params(rng, False))] for s in seqs]

    def references(self, lib):
        rng = random.Random(REFERENCE_SEED)
        cfg = lib.kinematics.PointConfig(random_points(rng, 6))
        return {"c3": lib.freefield.fit_cycle_constant(3, cfg)}

    def op(self, lib, refs, inp, call, out):
        ff, pw, fp = lib.freefield, lib.partialwave, lib.fourpoint
        out["trace"] = call(
            "freefield.cycle_trace_numerator_symbolic",
            ff.cycle_trace_numerator_symbolic, inp.seq, 6,
        )
        wick = call("freefield.wick_numerator", ff.wick_numerator, 3, inp.seq)
        rho6 = call("freefield.rho_symbolic", ff.rho_symbolic, 6)
        out["wick"] = call("exact.mpoly.subs_poly", wick.subs_poly, rho6)
        p = fp.PWParams(*inp.params)
        out["f1"] = call("partialwave.f1_rational", pw.f1_rational, p)
        out["laplace"] = call("partialwave.laplace_st", pw.laplace_st, out["f1"])
        p4 = call("fourpoint.assemble_P4", fp.assemble_P4, p)
        out["crossing"] = call("fourpoint.crossing_check", fp.crossing_check, p4, 4)

    def check(self, refs, inp, out):
        c3 = refs["c3"]
        scaled = {e: c3 * c for e, c in out["wick"].terms.items()}
        if out["trace"].terms != {e: c for e, c in scaled.items() if c}:
            raise CheckFailed(f"symbolic trace differs from c3 * Wick for {inp.seq}")
        if out["laplace"].num.terms:
            raise CheckFailed("conformal Laplacian of f1 is not zero")
        if out["crossing"] is not True:
            raise CheckFailed("P4 is not crossing symmetric")

    def exact_outputs(self, inp, out):
        if "trace" in out:
            terms = sorted(out["trace"].terms.items())
            yield "trace " + " ".join(f"{e}:{fmt(c)}" for e, c in terms)
        if "f1" in out:
            for part in ("num", "den"):
                terms = sorted(getattr(out["f1"], part).terms.items())
                yield f"f1.{part} " + " ".join(f"{e}:{fmt(c)}" for e, c in terms)
        if "crossing" in out:
            yield f"crossing {out['crossing']}"

    def counts(self, inp, out):
        return {"trace_terms": len(out["trace"].terms)} if "trace" in out else {}


# -- thermal -------------------------------------------------------------------------


@dataclass(frozen=True)
class ThermalInput:
    model: str
    order: int
    tau: complex


# series order ranges per model, one low and one high, spread over 200..600
ORDERS = {"scalar4": ((200, 249), (550, 600)), "scalar6": ((300, 349), (450, 499)), "weyl": ((250, 299), (500, 549))}
TOLERANCE = 1e-10  # absolute, as the thermal CLI's default


class Thermal(Workload):
    """Exact energy series and their numeric modular and KMS checks, as
    `gcipw thermal energy|modular|kms` and checks c09 to c11 run them.

    A block of 6 ops has each model twice, once with each of its two
    ranges of the series order N; every block has this same design.  Im tau stays in [0.8, 2]: at
    smaller Im tau double precision cannot meet the absolute tolerance
    (ROADMAP item 1), which is not a speed question.  For the Weyl model
    the order counts half-integer powers, coefficients through q^(N/2).
    """

    name = "thermal"
    block_size = 6
    nominal_block_s = 4.4
    max_blocks = 64

    def block(self, rng):
        ops = [
            ThermalInput(
                model,
                rng.randint(lo, hi),
                complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0)),
            )
            for model, orders in ORDERS.items()
            for lo, hi in orders
        ]
        rng.shuffle(ops)
        return ops

    def op(self, lib, refs, inp, call, out):
        th = lib.thermal
        n = inp.order
        if inp.model == "weyl":
            out["E"] = call("thermal.energy_mean", th.energy_mean_weyl, n)
            out["combo"] = call("thermal.weyl_modular_combination", th.weyl_modular_combination, n)
        else:
            out["E"] = call("thermal.energy_mean", th.energy_mean_scalar, int(inp.model[-1]), n)
            out["G4"] = call("thermal.eisenstein_G", th.eisenstein_G, 2, n)
            if inp.model == "scalar6":
                out["G6"] = call("thermal.eisenstein_G", th.eisenstein_G, 3, n)
        out["value"], out["bound"] = call("exact.qseries.eval", out["E"].eval, inp.tau)
        k = 3 if inp.model == "scalar6" else 2
        out["modular"] = call("thermal.modular_check_G", th.modular_check_G, k, inp.tau, n)
        out["kms"] = call(
            "thermal.kms_translate_sum_check", th.kms_translate_sum_check,
            "scalar", 0.13, 0.37, inp.tau, 8,
        )

    def check(self, refs, inp, out):
        E = out["E"]
        if inp.model == "scalar4":
            want, window, const = out["G4"].coeffs, out["G4"].max_exp, Fraction(1, 240)
        elif inp.model == "scalar6":
            g4, g6 = out["G4"], out["G6"]
            diff = {k: (g6[k] - g4[k]) / 12 for k in set(g4.coeffs) | set(g6.coeffs)}
            want = {k: c for k, c in diff.items() if c}
            window, const = g4.max_exp, Fraction(-31, 12 * math.factorial(7))
        else:
            want, window, const = out["combo"].coeffs, out["combo"].max_exp, Fraction(17, 960)
        if E.max_exp != window or E.coeffs != want or E[0] != const:
            raise CheckFailed(f"{inp.model} energy series differs from its Eisenstein form")
        if not cmath.isfinite(out["value"]) or not out["bound"] <= TOLERANCE:
            raise CheckFailed(f"E(tau) tail bound {out['bound']} exceeds {TOLERANCE}")
        if not out["modular"] <= TOLERANCE:
            raise CheckFailed(f"modular residual {out['modular']} exceeds {TOLERANCE}")
        kms = out["kms"]
        if not (kms["passed"] and kms["residual"] <= kms["edge_bound"]):
            raise CheckFailed(f"KMS residual {kms['residual']} exceeds its bound")

    def exact_outputs(self, inp, out):
        if "E" in out:
            E = out["E"]
            yield f"E {E.max_exp} " + " ".join(f"{k}:{fmt(c)}" for k, c in sorted(E.coeffs.items()))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (Decompose(), Wick(), Symbolic(), Thermal())}

# every span the ops open, grouped by the layer (package module) called
SPAN_NAMES = (
    "fourpoint.assemble_P4",
    "fourpoint.crossing_check",
    "partialwave.twist_extract",
    "partialwave.solve_structure_constants",
    "partialwave.closed_form_B",
    "partialwave.positivity_check",
    "partialwave.f1_rational",
    "partialwave.laplace_st",
    "freefield.cycle_trace_2n",
    "freefield.l1_truncated_npoint",
    "freefield.v1_weyl_npoint",
    "freefield.cycle_trace_numerator",
    "freefield.rho_point",
    "freefield.v1_weyl_4pt",
    "freefield.cycle_trace_numerator_symbolic",
    "freefield.wick_numerator",
    "freefield.rho_symbolic",
    "symmetrize.symmetrized_wt",
    "kinematics.cross_ratios",
    "exact.mpoly.eval",
    "exact.mpoly.subs_poly",
    "exact.ratfn.eval",
    "exact.qseries.eval",
    "thermal.energy_mean",
    "thermal.eisenstein_G",
    "thermal.weyl_modular_combination",
    "thermal.modular_check_G",
    "thermal.kms_translate_sum_check",
)
LAYERS = ("exact", "kinematics", "fourpoint", "partialwave", "freefield", "symmetrize", "thermal")

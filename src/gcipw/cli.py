"""Command-line surface: decomposition tables, positivity scans, oracle
runs, thermal tables and the full verification suite.

Flags override a JSON document given with --config, which overrides the
one table DEFAULTS.  Each subcommand takes --config and only the flags
it reads:

  decompose        --a0 --a1 --a2 --b --c --B --max-twist --max-spin --order --csv-dir
  positivity       --a0 --a1 --a2 --b --c --B --csv-dir --axis --lo --hi --steps
  oracle           --seed --json
  verify-all       --seed --json
  thermal energy   --model --order --csv-dir
  thermal modular  --k --tau --csv-dir
  thermal kms      --tau --csv-dir

The document's keys are setting names: "params" (an object over a0, a1,
a2, b, c, B), "max_twist", "max_spin", "series_order", "seed",
"tau_points" (a list) and "tolerances" (over "modular", "kms", "numeric").
An unknown key is a config error; a key the subcommand does not read is
ignored, so one document can serve several subcommands.  `positivity`
sweeps the --axis parameter, so a flag for that parameter is an error.
`thermal modular` takes no --order: it works out its truncation order
from each tau and the tolerance (`modular_order`).

Rationals are read and written as "p/q" strings so no float ever
contaminates an exact value; an argument that starts like a negative
number (-1/3, -0.5+1i) is a value, not a flag.  Exit codes: 0 pass,
1 verification failure (a check that raises fails), 2 usage/config error,
an input the computation cannot take (an inconsistent expansion, or a
`thermal modular` tau where the G_2k tail bound is not finite: a
coefficient past the float range, or |q| rounding to 1) or an output path
that cannot be written, each reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import dataclasses
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Sequence

from . import partialwave, thermal, verify
from .fourpoint import PWParams

USAGE_ERROR = 2
CHECK_FAILED = 1
# `thermal modular` doubles its truncation order up to this ceiling
MODULAR_MAX_ORDER = 12800
# `thermal kms` doubles its translate window up to this ceiling
KMS_MAX_WINDOW = 4096
# `thermal energy` truncates here without --order
THERMAL_ORDER = 100
# the checks `gcipw oracle` runs
ORACLE_CHECKS = ("c05_appendix_oracle", "c06_sixpoint_oracle")
# the 4-point parameters and the 2-point norm, in PWParams order
PARAM_NAMES = tuple(f.name for f in dataclasses.fields(PWParams))
TOLERANCE_NAMES = ("modular", "kms", "numeric")

# every setting with its default; series_order None means the command's own
DEFAULTS = {
    **dataclasses.asdict(PWParams()),
    "max_twist": 3, "max_spin": 10, "series_order": None, "seed": 20240801,
    "tolerances": {}, "tau_points": [1.5j], "csv_dir": None, "json": None,
    "axis": "b", "lo": Fraction(-4), "hi": Fraction(1), "steps": 20,
    "model": "scalar4", "k_weight": 2,
}


def parse_rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({err})")


def parse_tau(text: str) -> complex:
    """Parse 'a+bi' / 'bi' / 'a' into a complex tau with Im > 0."""
    t = text.strip().replace(" ", "")
    if t.endswith("i") and not t.endswith("j"):
        t = t[:-1] + "j"
    try:
        value = complex(t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a modular parameter: {text!r}")
    if not cmath.isfinite(value) or value.imag <= 0:
        raise argparse.ArgumentTypeError(f"tau must be finite with Im tau > 0: {text!r}")
    return value


def format_rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _known(doc, names, what: str):
    """The items of a config object whose keys are all in names."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = sorted(set(doc) - set(names))
    if unknown:
        raise ValueError(f"unknown {what} key {unknown[0]!r}")
    return doc.items()


def _json_int(value) -> int:
    """An integer setting: a JSON integer, not a float, string or boolean."""
    if type(value) is not int:
        raise ValueError(f"integer settings take JSON integers, got {json.dumps(value)}")
    return value


def _json_tolerance(value) -> float:
    """A tolerance: a finite, positive JSON number, not a string or boolean."""
    if type(value) not in (int, float) or not 0 < value < math.inf:
        raise ValueError(f"tolerances take finite positive JSON numbers, got {json.dumps(value)}")
    return float(value)


# how the value of each config key is read
CONFIG_READERS = {
    "params": lambda d: {k: parse_rat(str(v)) for k, v in _known(d, PARAM_NAMES, "params")},
    "max_twist": _json_int,
    "max_spin": _json_int,
    "series_order": _json_int,
    "seed": _json_int,
    "tolerances": lambda d: {k: _json_tolerance(v) for k, v in _known(d, TOLERANCE_NAMES, "tolerances")},
    "tau_points": lambda ts: [parse_tau(str(t)) for t in ts],
}


def load_config(path: Path) -> dict:
    """The settings a JSON document sets, with "params" spread into a0..B."""
    with open(path) as fh:
        items = _known(json.load(fh), CONFIG_READERS, "top-level")
    settings = {key: CONFIG_READERS[key](value) for key, value in items}
    settings.update(settings.pop("params", {}))
    return settings


def _params(s) -> PWParams:
    return PWParams(**{name: getattr(s, name) for name in PARAM_NAMES})


def _write_csv(s, name: str, header: List[str], rows: List[List]) -> None:
    """Write one CSV table to csv_dir/name, or to stdout without --csv-dir."""
    if s.csv_dir is None:
        out = contextlib.nullcontext(sys.stdout)
    else:
        s.csv_dir.mkdir(parents=True, exist_ok=True)
        out = open(s.csv_dir / name, "w", newline="")
    with out as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# -- subcommands -------------------------------------------------------------------


def cmd_decompose(s) -> int:
    if s.max_twist < 1:
        raise ValueError(f"--max-twist must be >= 1, got {s.max_twist}")
    if s.max_spin < 0:
        raise ValueError(f"--max-spin must be >= 0, got {s.max_spin}")
    params = _params(s)
    order = s.series_order
    if order is None:
        order = partialwave.default_order(s.max_spin, s.max_twist)
    tower = partialwave.twist_extract(params, s.max_twist, order)
    header = ["kappa", "ell", "B_exact", "B_decimal", "closed_form", "match"]
    rows = []
    mismatch = False
    for kappa in range(1, s.max_twist + 1):
        values = partialwave.solve_structure_constants(tower.g[kappa], kappa, s.max_spin)
        for ell, val in enumerate(values):
            row = [kappa, ell, format_rat(val), f"{float(val):.12g}", "", ""]
            if kappa <= 3:
                closed = partialwave.closed_form_B(kappa, ell, params)
                row[4:] = [format_rat(closed), closed == val]
                mismatch = mismatch or closed != val
            rows.append(row)
    _write_csv(s, "structure_constants.csv", header, rows)
    if s.csv_dir is not None:
        g_rows = [
            [kappa, k, format_rat(c)]
            for kappa in range(1, s.max_twist + 1)
            for k, c in enumerate(tower.g[kappa].coeffs)
            if c
        ]
        _write_csv(s, "twist_profiles.csv", ["kappa", "power", "coefficient"], g_rows)
    return CHECK_FAILED if mismatch else 0


def cmd_positivity(s) -> int:
    if s.steps < 1 or s.hi < s.lo:
        raise ValueError("malformed grid")
    params = _params(s)
    header = [*PARAM_NAMES, "admissible", "trivial", "first_violation"]
    rows = []
    for i in range(s.steps + 1):
        p = dataclasses.replace(params, **{s.axis: s.lo + (s.hi - s.lo) * Fraction(i, s.steps)})
        rep = partialwave.positivity_check(p)
        rows.append(
            [format_rat(getattr(p, k)) for k in PARAM_NAMES]
            + [rep.admissible, rep.trivial, rep.first_violation or ""]
        )
    _write_csv(s, "positivity.csv", header, rows)
    return 0


def modular_order(k: int, tau: complex, tol: float) -> int:
    """Truncation order for `thermal modular`: 200, doubled until the G_2k
    tail bound (`QSeries.tail_bound`) is at most tol at tau, -1/tau and
    tau + 1, the points `modular_check_G` evaluates.  ValueError at the
    ceiling MODULAR_MAX_ORDER, or at once if a bound is not finite: a
    longer series only raises its largest coefficient, and |q| rounding
    to 1 stays so."""
    n = 200
    while True:
        g = thermal.eisenstein_G(k, n)
        bounds = [g.tail_bound(t) for t in (tau, -1 / tau, tau + 1)]
        if all(b <= tol for b in bounds):
            return n
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"tau={tau}: the G_{2 * k} tail bound is not finite at order {n}")
        if n >= MODULAR_MAX_ORDER:
            raise ValueError(f"tau={tau}: the series tail bound exceeds {tol} at order {n}")
        n *= 2


def kms_report(tau: complex, tol: float) -> dict:
    """The scalar KMS check at the smallest window 8 * 2^m whose edge term
    is at most tol.  ValueError past the ceiling KMS_MAX_WINDOW."""
    window = 8
    while True:
        rep = thermal.kms_translate_sum_check("scalar", 0.13, 0.37, tau, window)
        if rep["edge_term"] <= tol:
            return rep
        if window >= KMS_MAX_WINDOW:
            raise ValueError(
                f"tau={tau}: the translate-sum edge term exceeds {tol} at window {window}"
            )
        window *= 2


def cmd_energy(s) -> int:
    order = THERMAL_ORDER if s.series_order is None else s.series_order
    if order < 1:
        raise ValueError(f"--order must be >= 1, got {order}")
    if s.model == "weyl":
        series = thermal.energy_mean_weyl(2 * order)
    else:
        series = thermal.energy_mean_scalar(int(s.model.removeprefix("scalar")), order)
    header = ["exponent_num", "exponent_den", "coeff_num", "coeff_den", "flag"]
    rows = []
    for key, c in sorted(series.coeffs.items()):
        flag = ""
        if s.model == "scalar6" and key == 4:
            flag = "omitted from the displayed expansion"
        if s.model == "weyl" and key == 0:
            flag = "sign-corrected modular combination (printed constant is -17/960)"
        rows.append([key, 2, c.numerator, c.denominator, flag])
    _write_csv(s, f"energy_{s.model}.csv", header, rows)
    return 0


def cmd_modular(s) -> int:
    tol = s.tolerances.get("modular", 1e-10)
    failed = False
    rows = []
    for tau in s.tau_points:
        r = thermal.modular_check_G(s.k_weight, tau, modular_order(s.k_weight, tau, tol))
        rows.append([s.k_weight, str(tau), f"{r:.3e}", tol])
        failed |= r > tol
    _write_csv(s, "modular_residuals.csv", ["k", "tau", "residual", "tolerance"], rows)
    return CHECK_FAILED if failed else 0


def cmd_kms(s) -> int:
    tol_k = s.tolerances.get("kms")
    failed = False
    rows = []
    for tau in s.tau_points:
        rep = kms_report(tau, 1e-10 if tol_k is None else tol_k)
        limit = rep["edge_bound"] if tol_k is None else tol_k
        rows.append([str(tau), f"{rep['residual']:.3e}", f"{limit:.3e}"])
        failed |= rep["residual"] > limit
    _write_csv(s, "kms_residuals.csv", ["tau", "residual", "bound"], rows)
    return CHECK_FAILED if failed else 0


def report_checks(s, ids: Sequence[str]) -> int:
    """Run the checks `ids` in order and print (and with --json write) their
    results; exit 1 if any failed.  The --json file is opened before the
    first check runs, so a path that cannot be written fails at once."""
    with open(s.json, "w") if s.json else contextlib.nullcontext() as fh:
        results = [verify.CHECKS[c](s.seed) for c in ids]
        tol_override = s.tolerances.get("numeric")
        if tol_override is not None:
            # re-judge every check that reports residuals at the requested tolerance
            for r in results:
                if r.get("residuals") and max(r["residuals"]) > tol_override:
                    r["passed"] = False
                    r["detail"] += f" [tolerance override {tol_override:g} exceeded]"
        for r in results:
            status = "PASS" if r["passed"] else "FAIL"
            print(f"{r['id']}: {status} ({r['elapsed']:.1f}s) {r['detail']}")
        if fh is not None:
            summary = {r["id"]: {k: r[k] for k in ("passed", "detail", "elapsed")} for r in results}
            json.dump(summary, fh, indent=2, sort_keys=True)
    return 0 if all(r["passed"] for r in results) else CHECK_FAILED


def cmd_oracle(s) -> int:
    return report_checks(s, ORACLE_CHECKS)


def cmd_verify_all(s) -> int:
    return report_checks(s, sorted(verify.CHECKS))


# -- entry point ----------------------------------------------------------------------

# every flag, with the setting it sets as its dest
FLAGS = {
    "--config": dict(type=Path, help="JSON configuration document"),
    **{f"--{n}": dict(type=parse_rat, help=f"parameter {n} (p/q)") for n in PARAM_NAMES},
    "--max-twist": dict(type=int, dest="max_twist", help="highest twist index kappa"),
    "--max-spin": dict(type=int, dest="max_spin", help="highest spin ell"),
    "--order": dict(type=int, dest="series_order", metavar="ORDER", help="series truncation order"),
    "--csv-dir": dict(type=Path, dest="csv_dir", help="directory for CSV output"),
    "--axis": dict(choices=PARAM_NAMES[:5], help="the swept parameter"),
    "--lo": dict(type=parse_rat, help="low end of the swept range (p/q)"),
    "--hi": dict(type=parse_rat, help="high end of the swept range (p/q)"),
    "--steps": dict(type=int, help="number of grid intervals"),
    "--seed": dict(type=int, help="seed for random configurations"),
    "--json": dict(type=Path, help="write a JSON summary here"),
    "--model": dict(choices=["scalar4", "scalar6", "weyl"], help="free field"),
    "--k": dict(type=int, dest="k_weight", metavar="K", help="Eisenstein index"),
    "--tau": dict(type=lambda text: [parse_tau(text)], dest="tau_points", metavar="TAU",
                  help="modular parameter, e.g. 1.5i"),
}


class _Parser(argparse.ArgumentParser):
    """Flags left out stay out of the namespace, so that DEFAULTS and the
    config document fill them; an argument that starts like a negative
    number is a value."""

    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gcipw", description="Exact toolkit for the 5-parameter "
                     "crossing-symmetric 4-point family: twist decomposition, positivity, "
                     "free-field oracles and thermal functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(group, name, run, summary, flags):
        p = group.add_parser(name, help=summary)
        p.set_defaults(run=run)
        for flag in ("--config", *flags):
            p.add_argument(flag, **FLAGS[flag])

    params = [f"--{name}" for name in PARAM_NAMES]
    add(sub, "decompose", cmd_decompose, "twist decomposition and structure constants",
        [*params, "--max-twist", "--max-spin", "--order", "--csv-dir"])
    add(sub, "positivity", cmd_positivity, "admissibility scan over a parameter grid",
        [*params, "--csv-dir", "--axis", "--lo", "--hi", "--steps"])
    add(sub, "oracle", cmd_oracle, "free-field trace and Wick-structure oracles (c05, c06)",
        ["--seed", "--json"])
    kinds = sub.add_parser("thermal", help="thermal series, tables and residuals")
    kinds = kinds.add_subparsers(dest="kind", required=True)
    add(kinds, "energy", cmd_energy, "energy mean value as an exact q-series",
        ["--model", "--order", "--csv-dir"])
    add(kinds, "modular", cmd_modular, "modular residual of G_2k at each tau",
        ["--k", "--tau", "--csv-dir"])
    add(kinds, "kms", cmd_kms, "KMS translate-sum residual at each tau", ["--tau", "--csv-dir"])
    add(sub, "verify-all", cmd_verify_all, "run the full acceptance suite", ["--seed", "--json"])
    return parser


def main(argv=None) -> int:
    try:
        flags = vars(build_parser().parse_args(argv))
    except SystemExit as err:
        return USAGE_ERROR if err.code not in (0, None) else 0
    try:
        config = load_config(flags.pop("config")) if "config" in flags else {}
    except (OSError, ValueError, TypeError, ArithmeticError, argparse.ArgumentTypeError) as err:
        print(f"bad config: {err}", file=sys.stderr)
        return USAGE_ERROR
    s = argparse.Namespace(**{**DEFAULTS, **config, **flags})
    try:
        if s.command == "positivity" and s.axis in flags:
            raise ValueError(f"--{s.axis} is the swept --axis; set its range with --lo and --hi")
        return s.run(s)
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except partialwave.InconsistentExpansion as err:
        print(f"input error: {type(err).__name__}: {err}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as err:
        print(f"output error: {err}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

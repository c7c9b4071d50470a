"""Command-line surface: decomposition tables, positivity scans, oracle
runs, thermal tables and the full verification suite.

Configuration may come from a JSON document (--config) and/or flags;
flags win.  Rationals are read and written as "p/q" strings so no float
ever contaminates an exact value.  Exit codes: 0 pass, 1 verification
failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

from . import partialwave, thermal, verify
from .fourpoint import PWParams

USAGE_ERROR = 2
CHECK_FAILED = 1
# `thermal modular` doubles its truncation order up to this ceiling
MODULAR_MAX_ORDER = 12800
# `thermal kms` doubles its translate window up to this ceiling
KMS_MAX_WINDOW = 4096
# the checks `gcipw oracle` runs
ORACLE_CHECKS = ("c05_appendix_oracle", "c06_sixpoint_oracle")
# the 4-point parameters and the 2-point norm, in PWParams order
PARAM_NAMES = tuple(f.name for f in dataclasses.fields(PWParams))


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
    if value.imag <= 0:
        raise argparse.ArgumentTypeError("tau needs a positive imaginary part")
    return value


def format_rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass
class RunConfig:
    params: PWParams = field(default_factory=PWParams)
    max_twist: int = 3
    max_spin: int = 10
    series_order: Optional[int] = None
    seed: int = 20240801
    tolerances: Dict[str, float] = field(default_factory=dict)
    tau_points: List[complex] = field(default_factory=lambda: [1.5j])
    csv_dir: Optional[Path] = None
    json_path: Optional[Path] = None

    def order(self) -> int:
        if self.series_order is not None:
            return self.series_order
        return 2 * self.max_spin + 2 * self.max_twist + 8


def load_config(path: Path) -> RunConfig:
    with open(path) as fh:
        doc = json.load(fh)
    p = doc.get("params", {})
    params = PWParams(**{k: Fraction(str(v)) for k, v in p.items() if k in PARAM_NAMES})
    cfg = RunConfig(params=params)
    if "max_twist" in doc:
        cfg.max_twist = int(doc["max_twist"])
    if "max_spin" in doc:
        cfg.max_spin = int(doc["max_spin"])
    if "series_order" in doc:
        cfg.series_order = int(doc["series_order"])
    if "seed" in doc:
        cfg.seed = int(doc["seed"])
    if "tolerances" in doc:
        cfg.tolerances = {k: float(v) for k, v in doc["tolerances"].items()}
    if "tau_points" in doc:
        cfg.tau_points = [parse_tau(str(t)) for t in doc["tau_points"]]
    return cfg


def apply_flag_overrides(cfg: RunConfig, args) -> RunConfig:
    fields = {}
    for name in PARAM_NAMES:
        v = getattr(args, name, None)
        if v is not None:
            fields[name] = v
    if fields:
        cfg.params = dataclasses.replace(cfg.params, **fields)
    if getattr(args, "max_twist", None) is not None:
        cfg.max_twist = args.max_twist
    if getattr(args, "max_spin", None) is not None:
        cfg.max_spin = args.max_spin
    if getattr(args, "order", None) is not None:
        cfg.series_order = args.order
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "tau", None) is not None:
        cfg.tau_points = [args.tau]
    if getattr(args, "csv_dir", None) is not None:
        cfg.csv_dir = Path(args.csv_dir)
    if getattr(args, "json", None) is not None:
        cfg.json_path = Path(args.json)
    return cfg


def _write_csv(cfg: RunConfig, name: str, header: List[str], rows: List[List]) -> None:
    """Write one CSV table to csv_dir/name, or to stdout without --csv-dir."""
    if cfg.csv_dir is None:
        out = contextlib.nullcontext(sys.stdout)
    else:
        cfg.csv_dir.mkdir(parents=True, exist_ok=True)
        out = open(cfg.csv_dir / name, "w", newline="")
    with out as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# -- subcommands -------------------------------------------------------------------


def cmd_decompose(cfg: RunConfig) -> int:
    if cfg.max_twist < 1:
        raise ValueError(f"--max-twist must be >= 1, got {cfg.max_twist}")
    if cfg.max_spin < 0:
        raise ValueError(f"--max-spin must be >= 0, got {cfg.max_spin}")
    order = cfg.order()
    tower = partialwave.twist_extract(cfg.params, cfg.max_twist, order)
    header = ["kappa", "ell", "B_exact", "B_decimal", "closed_form", "match"]
    rows = []
    mismatch = False
    for kappa in range(1, cfg.max_twist + 1):
        values = partialwave.solve_structure_constants(
            tower.g[kappa], kappa, cfg.max_spin
        )
        for ell, val in enumerate(values):
            if kappa <= 3:
                closed = partialwave.closed_form_B(kappa, ell, cfg.params)
                ok = closed == val
                mismatch = mismatch or not ok
                rows.append(
                    [kappa, ell, format_rat(val), f"{float(val):.12g}", format_rat(closed), ok]
                )
            else:
                rows.append([kappa, ell, format_rat(val), f"{float(val):.12g}", "", ""])
    _write_csv(cfg, "structure_constants.csv", header, rows)
    if cfg.csv_dir is not None:
        g_rows = [
            [kappa, k, format_rat(c)]
            for kappa in range(1, cfg.max_twist + 1)
            for k, c in enumerate(tower.g[kappa].coeffs)
            if c
        ]
        _write_csv(cfg, "twist_profiles.csv", ["kappa", "power", "coefficient"], g_rows)
    return CHECK_FAILED if mismatch else 0


def cmd_positivity(cfg: RunConfig, grid: List[PWParams]) -> int:
    if cfg.max_spin < 0:
        raise ValueError(f"--max-spin must be >= 0, got {cfg.max_spin}")
    header = [*PARAM_NAMES, "admissible", "trivial", "first_violation"]
    rows = []
    for p in grid:
        rep = partialwave.positivity_check(p, scan_spin=cfg.max_spin)
        rows.append(
            [format_rat(getattr(p, k)) for k in PARAM_NAMES]
            + [rep.admissible, rep.trivial, rep.first_violation or ""]
        )
    _write_csv(cfg, "positivity.csv", header, rows)
    return 0


def build_grid(cfg: RunConfig, axis: str, lo: Fraction, hi: Fraction, steps: int) -> List[PWParams]:
    if steps < 1 or hi < lo:
        raise ValueError("malformed grid")
    return [
        dataclasses.replace(cfg.params, **{axis: lo + (hi - lo) * Fraction(k, steps)})
        for k in range(steps + 1)
    ]


def modular_order(k: int, tau: complex, order: int, tol: float) -> int:
    """Truncation order for `thermal modular`: max(order, 200), doubled
    until the G_2k tail bound is at most tol at tau, -1/tau and tau + 1,
    the points `modular_check_G` evaluates.  ValueError at the ceiling
    MODULAR_MAX_ORDER."""
    n = max(order, 200)
    while True:
        g = thermal.eisenstein_G(k, n)
        if all(g.eval(t)[1] <= tol for t in (tau, -1 / tau, tau + 1)):
            return n
        if n >= MODULAR_MAX_ORDER:
            raise ValueError(
                f"tau={tau}: the series tail bound exceeds {tol} at order {n}"
            )
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


def cmd_thermal(cfg: RunConfig, sub: str, model: str, order: int, k_weight: int) -> int:
    if order < 1:
        raise ValueError(f"--order must be >= 1, got {order}")
    tol = cfg.tolerances.get("modular", 1e-10)
    if sub == "energy":
        if model == "scalar4":
            series = thermal.energy_mean_scalar(4, order)
        elif model == "scalar6":
            series = thermal.energy_mean_scalar(6, order)
        elif model == "weyl":
            series = thermal.energy_mean_weyl(2 * order)
        else:
            print(f"unknown model {model!r}", file=sys.stderr)
            return USAGE_ERROR
        header = ["exponent_num", "exponent_den", "coeff_num", "coeff_den", "flag"]
        rows = []
        for key in sorted(series.coeffs):
            c = series.coeffs[key]
            flag = ""
            if model == "scalar6" and key == 4:
                flag = "omitted from the displayed expansion"
            if model == "weyl" and key == 0:
                flag = "sign-corrected modular combination (printed constant is -17/960)"
            rows.append([key, 2, c.numerator, c.denominator, flag])
        _write_csv(cfg, f"energy_{model}.csv", header, rows)
        return 0
    if sub == "modular":
        failures = []
        rows = []
        for tau in cfg.tau_points:
            n = modular_order(k_weight, tau, order, tol)
            r = thermal.modular_check_G(k_weight, tau, n)
            rows.append([k_weight, str(tau), f"{r:.3e}", tol])
            if r > tol:
                failures.append(str(tau))
        _write_csv(cfg, "modular_residuals.csv", ["k", "tau", "residual", "tolerance"], rows)
        return CHECK_FAILED if failures else 0
    if sub == "kms":
        tol_k = cfg.tolerances.get("kms", None)
        failures = []
        rows = []
        for tau in cfg.tau_points:
            rep = kms_report(tau, cfg.tolerances.get("kms", 1e-10))
            limit = tol_k if tol_k is not None else rep["edge_bound"]
            rows.append([str(tau), f"{rep['residual']:.3e}", f"{limit:.3e}"])
            if rep["residual"] > limit:
                failures.append(str(tau))
        _write_csv(cfg, "kms_residuals.csv", ["tau", "residual", "bound"], rows)
        return CHECK_FAILED if failures else 0
    print(f"unknown thermal subcommand {sub!r}", file=sys.stderr)
    return USAGE_ERROR


def report_checks(cfg: RunConfig, results: List[dict]) -> int:
    """Print (and with --json write) check results; exit 1 if any failed."""
    tol_override = cfg.tolerances.get("numeric")
    if tol_override is not None:
        # re-judge every check that reports residuals at the requested tolerance
        for r in results:
            if r.get("residuals") and max(r["residuals"]) > tol_override:
                r["passed"] = False
                r["detail"] += f" [tolerance override {tol_override:g} exceeded]"
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{r['id']}: {status} ({r['elapsed']:.1f}s) {r['detail']}")
    if cfg.json_path:
        summary = {
            r["id"]: {
                "passed": r["passed"],
                "detail": r["detail"],
                "elapsed": r["elapsed"],
            }
            for r in results
        }
        with open(cfg.json_path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
    return 0 if all(r["passed"] for r in results) else CHECK_FAILED


# -- entry point ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcipw",
        description="Exact toolkit for the 5-parameter crossing-symmetric "
        "4-point family: twist decomposition, positivity, free-field "
        "oracles and thermal functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="JSON configuration document")
        p.add_argument("--seed", type=int, help="seed for random configurations")
        for name in PARAM_NAMES:
            p.add_argument(f"--{name}", type=parse_rat, help=f"parameter {name} (p/q)")
        p.add_argument("--max-twist", type=int, dest="max_twist")
        p.add_argument("--max-spin", type=int, dest="max_spin")
        p.add_argument("--order", type=int, help="series truncation order")
        p.add_argument("--tau", type=parse_tau, help="modular parameter, e.g. 1.5i")
        p.add_argument("--json", type=Path, help="write a JSON summary here")
        p.add_argument("--csv-dir", type=Path, dest="csv_dir", help="directory for CSV output")

    p = sub.add_parser("decompose", help="twist decomposition and structure constants")
    common(p)

    p = sub.add_parser("positivity", help="admissibility scan over a parameter grid")
    common(p)
    p.add_argument("--axis", default="b", choices=["a0", "a1", "a2", "b", "c"])
    p.add_argument("--lo", type=parse_rat, default=Fraction(-4))
    p.add_argument("--hi", type=parse_rat, default=Fraction(1))
    p.add_argument("--steps", type=int, default=20)

    p = sub.add_parser("oracle", help="free-field trace and Wick-structure oracles (c05, c06)")
    common(p)

    p = sub.add_parser("thermal", help="thermal series, tables and residuals")
    common(p)
    p.add_argument("kind", choices=["energy", "modular", "kms"])
    p.add_argument("--model", default="scalar4", help="scalar4 | scalar6 | weyl")
    p.add_argument("--k", type=int, default=2, dest="k_weight", help="Eisenstein index")

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    common(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return USAGE_ERROR if err.code not in (0, None) else 0
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"bad config: {err}", file=sys.stderr)
        return USAGE_ERROR
    try:
        cfg = apply_flag_overrides(cfg, args)
        if args.command == "decompose":
            return cmd_decompose(cfg)
        if args.command == "positivity":
            grid = build_grid(cfg, args.axis, args.lo, args.hi, args.steps)
            return cmd_positivity(cfg, grid)
        if args.command == "oracle":
            return report_checks(cfg, [verify.CHECKS[c](cfg.seed) for c in ORACLE_CHECKS])
        if args.command == "thermal":
            order = cfg.series_order if cfg.series_order is not None else 100
            return cmd_thermal(cfg, args.kind, args.model, order, args.k_weight)
        if args.command == "verify-all":
            return report_checks(cfg, verify.run_all(cfg.seed))
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE_ERROR
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
